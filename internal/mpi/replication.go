package mpi

import (
	"fmt"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/trace"
	"repro/internal/transport"
)

// Replication mode: the second fault-tolerance strategy, opposite in
// philosophy to the paper's ABFT ring. Instead of the application
// recognizing failures and repairing its own protocol (re-entry,
// validate_all, counter repair), every logical rank is backed by R
// physical replicas that all execute the rank function. Sends fan out to
// every live replica of the destination (or travel via the primary in
// chain mode), receivers drop the duplicates by a replication sequence
// number, and a replica's death is absorbed by promoting a standby —
// the application never observes a failure until a logical rank's LAST
// replica dies, at which point the normal fail-stop path takes over.
//
// Physical layout is prefix-striped: a world of L logical ranks at
// replication degree R has N = L*R physical slots, and logical rank l is
// backed by physical slots {l, l+L, l+2L, ...}. Replica 0 of every
// logical rank therefore occupies the physical slot with the same index,
// which keeps logical ids valid indices into every physical-sized table.
const (
	// ReplFanout sends one physical copy to every live replica of the
	// destination (the default). No loss window: any surviving replica has
	// every message the sender produced.
	ReplFanout = "fanout"
	// ReplChain sends one copy to the destination's primary, which
	// forwards to its standbys. Cheaper on the sender's uplink, but a
	// primary that acknowledges a frame and dies before forwarding loses
	// it for the standbys — chain mode trades a loss window for bandwidth.
	ReplChain = "chain"
)

// ReplicationOptions configures replication mode (WithReplication).
type ReplicationOptions struct {
	// R is the replication degree: physical replicas per logical rank.
	// 1 is a valid (if pointless) degree and matches the unreplicated
	// baseline for overhead measurements.
	R int
	// Mode selects the propagation shape: ReplFanout (default, also
	// selected by "") or ReplChain.
	Mode string
	// AutoRefill makes the world heal depleted replica groups itself:
	// every detector-confirmed replica death schedules a Spawn-driven
	// reincarnation of the slot (at the next generation, with replication
	// sequence state seeded from a surviving sibling) so groups return to
	// R live members with zero app-level Spawn calls. Implies elastic
	// worlds: a nil Config.Elastic is upgraded to the zero ElasticOptions.
	// The refilled incarnation joins as a warm standby — it cannot replay
	// history its group already consumed, so rank functions should park
	// reincarnations (Proc.Gen() > 1) rather than re-run the protocol.
	AutoRefill bool
	// RefillDelay is how long after the confirmed death the first refill
	// attempt fires. Zero refills as soon as the notification lands.
	RefillDelay time.Duration
	// RefillBackoff is the initial retry backoff when a refill attempt is
	// refused (racing kill, in-flight Spawn); it doubles per retry up to
	// 500ms. Zero means 2ms.
	RefillBackoff time.Duration
	// MaxRefills caps automatic refills per run; 0 means unlimited.
	MaxRefills int
}

// chainKey identifies one chain-outbox entry: a logical data message the
// sender must see confirmed by every live replica of the destination
// group before it can forget the payload.
type chainKey struct {
	ldst   int // logical destination rank
	ctx    int
	tag    int
	repSeq uint32
}

// chainPending is one unconfirmed chain-mode send: the payload kept for a
// promotion-triggered re-send, the causal token that keeps the re-send
// the SAME message for the conservation audit, and the replicas whose
// receipt confirmation is still owed. It lives by value in the outbox
// map, so the payload copy is the entry's only allocation.
type chainPending struct {
	payload []byte
	tok     uint64
	waiting uint64 // bit i set <=> replica i of the destination group still owes its confirmation
}

// maxReplicas bounds the replication degree: replica sets are bitmasks
// over the replica index.
const maxReplicas = 64

// groupView is one snapshot of a logical rank's replica set. A published
// view is never modified: a membership change publishes a new view with a
// new live slice, so readers keep and range over what they loaded without
// a lock.
type groupView struct {
	live    []int  // live physical slots in replica-index order; shared, read-only
	mask    uint64 // bit i set <=> replica i (physical slot l + i*lsize) is live
	primary int    // current primary physical slot (-1 when all dead)
	epoch   uint32 // bumped on every membership change, stamped on the wire
}

// replState tracks every replica group of a replicated world. Reads are
// lock-free loads of the published group table; mu serializes the two
// writers (handleDeath, onRevive), which never call into an engine while
// holding it.
type replState struct {
	w     *World
	r     int    // replication degree
	mode  string // ReplFanout or ReplChain
	lsize int    // logical world size
	opts  ReplicationOptions

	table atomic.Pointer[[]groupView] // indexed by logical rank; replaced whole, never edited

	mu      sync.Mutex
	refills int // automatic refills launched (budget bookkeeping)
}

// newReplState lays out lsize replica groups of degree opts.R over the
// physical slot table.
func newReplState(w *World, lsize int, opts ReplicationOptions) *replState {
	r, mode := opts.R, opts.Mode
	if mode == "" {
		mode = ReplFanout
	}
	s := &replState{w: w, r: r, mode: mode, lsize: lsize, opts: opts}
	table := make([]groupView, lsize)
	all := ^uint64(0) >> (maxReplicas - uint(r))
	for l := range table {
		table[l] = groupView{live: s.slotsOf(l, all), mask: all, primary: l} // replica 0 leads
	}
	s.table.Store(&table)
	return s
}

// group returns the current snapshot of logical rank l's replica set.
func (s *replState) group(l int) *groupView { return &(*s.table.Load())[l] }

// replicaBit returns physical slot p's bit in its group's replica masks.
func (s *replState) replicaBit(p int) uint64 { return 1 << uint(p/s.lsize) }

// slotsOf expands a replica mask of logical rank l into physical slots,
// in replica-index order.
func (s *replState) slotsOf(l int, mask uint64) []int {
	out := make([]int, 0, bits.OnesCount64(mask))
	for i := 0; i < s.r; i++ {
		if mask&(1<<uint(i)) != 0 {
			out = append(out, l+i*s.lsize)
		}
	}
	return out
}

// publishLocked replaces logical rank l's view in a copy of the table and
// publishes the copy. Callers hold mu.
func (s *replState) publishLocked(l int, g groupView) {
	table := append([]groupView(nil), *s.table.Load()...)
	table[l] = g
	s.table.Store(&table)
}

// handleDeath offers a confirmed physical death to the replica-group
// state. It reports true when the death was absorbed (the logical rank
// still has a live replica — a standby was promoted if the primary died)
// and false when the group is now empty and the death must escalate to
// the app-visible fail-stop path. Idempotent: a second notification for
// the same slot reports the group's current fate without re-promoting.
func (s *replState) handleDeath(f int) bool {
	l := f % s.lsize
	promoted := -1
	s.mu.Lock()
	g := *s.group(l)
	if bit := s.replicaBit(f); g.mask&bit != 0 {
		g.mask &^= bit
		g.live = s.slotsOf(l, g.mask)
		g.epoch++
		if g.primary == f {
			// Promote the lowest-index live replica: deterministic, so every
			// observer that consults the group agrees on the new primary.
			g.primary = -1
			if len(g.live) > 0 {
				g.primary, promoted = g.live[0], g.live[0]
			}
		}
		s.publishLocked(l, g)
	}
	s.mu.Unlock()

	// Drop the corpse from every sender's chain-outbox wait sets first, so
	// the promotion re-send below skips entries the survivors already hold.
	// The new table is already published: see replSend for why that order
	// keeps a corpse out of entries recorded from now on.
	s.pruneChainAcks(f)

	if g.primary < 0 {
		s.scheduleRefill(f)
		return false
	}
	if promoted >= 0 {
		w := s.w
		w.metrics.Inc(promoted, metrics.ReplicaPromotions)
		if lat, ok := w.registry.SinceDeath(f); ok {
			w.obs.Observe(promoted, obs.ReplicaPromotion, lat)
			// Promotion IS the repair in replication mode: the same death-to
			// -service-restored latency feeds the cross-mode recovery family.
			w.obs.Observe(promoted, obs.RecoveryTotal, lat)
		}
		w.tracer.RecordMsg(promoted, trace.Promoted, f, -1, -1, int(w.genOf(promoted)), 0, 0,
			fmt.Sprintf("primary of logical %d (replacing %d)", l, f))
		// A standby that just became primary may be parked in a passive
		// agreement loop waiting to take over the coordinator or tree-root
		// role; roll every engine's agreement channel so it re-evaluates.
		for i := 0; i < w.size; i++ {
			e := w.eng(i)
			e.mu.Lock()
			e.agreeBumpLocked()
			e.mu.Unlock()
		}
		// Tail-ack repair: any chain frame the dead primary accepted (or
		// was sent) but whose group-wide receipt is still unconfirmed is
		// re-sent to the new primary, which re-forwards down the chain.
		s.resendChainPending(l, promoted)
	}
	s.scheduleRefill(f)
	return true
}

// onRevive re-admits a respawned physical slot to its replica group
// (elastic worlds: Spawn refills a depleted group).
func (s *replState) onRevive(p int) {
	l := p % s.lsize
	s.mu.Lock()
	g := *s.group(l)
	if bit := s.replicaBit(p); g.mask&bit == 0 {
		g.mask |= bit
		g.live = s.slotsOf(l, g.mask)
		g.epoch++
		if g.primary < 0 {
			g.primary = p
		}
		s.publishLocked(l, g)
	}
	s.mu.Unlock()
}

// livePhys returns the live physical replicas of logical rank l in
// replica-index order. The slice is shared: callers must not modify it.
func (s *replState) livePhys(l int) []int { return s.group(l).live }

// primaryPhys returns the current primary physical slot of logical rank
// l (-1 when the whole group is dead).
func (s *replState) primaryPhys(l int) int { return s.group(l).primary }

// isPrimary reports whether physical slot p currently leads its group.
func (s *replState) isPrimary(p int) bool { return s.group(p%s.lsize).primary == p }

// groupDead reports whether logical rank l has no live replica left.
func (s *replState) groupDead(l int) bool { return s.group(l).mask == 0 }

// --- world-level logical views ----------------------------------------------

// logicalOf maps a physical slot to its logical rank (identity outside
// replication mode).
func (w *World) logicalOf(p int) int {
	if w.repl == nil {
		return p
	}
	return p % w.lsize
}

// LogicalSize returns the number of application-visible ranks: Size()/R
// in replication mode, Size() otherwise.
func (w *World) LogicalSize() int { return w.lsize }

// appFailed reports whether logical rank l is failed from the
// application's point of view: its registry slot outside replication
// mode, its whole replica group within it.
func (w *World) appFailed(l int) bool {
	if w.repl == nil {
		return w.registry.Failed(l)
	}
	return w.repl.groupDead(l)
}

// appGeneration returns the incarnation generation the application
// observes for logical rank l: the primary replica's generation while
// one lives, the replica-0 slot's otherwise.
func (w *World) appGeneration(l int) int {
	if w.repl == nil {
		return w.registry.Generation(l)
	}
	if p := w.repl.primaryPhys(l); p >= 0 {
		return w.registry.Generation(p)
	}
	return w.registry.Generation(l)
}

// lowestAliveIn returns the lowest logical rank in group that the
// application still observes as alive.
func (w *World) lowestAliveIn(group []int) (int, bool) {
	if w.repl == nil {
		return w.registry.LowestAliveIn(group)
	}
	best, ok := -1, false
	for _, l := range group {
		if !w.appFailed(l) && (!ok || l < best) {
			best, ok = l, true
		}
	}
	return best, ok
}

// notifyFailure routes a confirmed physical death into the engines'
// failure views. In replication mode the death is first offered to the
// replica-group state: while the logical rank still has a live replica,
// the failure is absorbed by promotion and no engine's app-visible view
// changes. Only the last replica's death escalates, and it escalates
// under the LOGICAL rank id, because that is the identity every engine's
// failure view speaks in replication mode.
func (w *World) notifyFailure(f int) {
	if w.repl == nil {
		for i := 0; i < w.size; i++ {
			if i != f {
				w.eng(i).onPeerFailure(f)
			}
		}
		return
	}
	if w.repl.handleDeath(f) {
		return
	}
	lf := w.logicalOf(f)
	for i := 0; i < w.size; i++ {
		if w.logicalOf(i) != lf {
			w.eng(i).onPeerFailure(lf)
		}
	}
}

// notifyRevive routes a registry revival into the engines' views (the
// logical-id counterpart of notifyFailure).
func (w *World) notifyRevive(slot int) {
	if w.repl == nil {
		for i := 0; i < w.size; i++ {
			if i != slot {
				w.eng(i).onPeerRevive(slot)
			}
		}
		return
	}
	w.repl.onRevive(slot)
	ls := w.logicalOf(slot)
	for i := 0; i < w.size; i++ {
		if w.logicalOf(i) != ls {
			w.eng(i).onPeerRevive(ls)
		}
	}
}

// replSend fans one logical data message out to the physical replicas
// of logical destination ldst: every live replica in fanout mode, the
// primary in chain mode. Each copy carries the same replication sequence
// number — sender replicas execute identical programs and stamp
// identical sequences, so receivers drop the duplicates by RepSeq alone.
// Must be called with no engine lock held.
func (e *engine) replSend(ldst, tag, ctx int, payload []byte) error {
	w := e.w
	chain := w.repl.mode == ReplChain
	var kept []byte
	if chain {
		kept = make([]byte, len(payload))
		copy(kept, payload)
	}
	// Targets, epoch and the outbox wait set all come from ONE snapshot of
	// the destination group, loaded under e.mu together with the outbox
	// insertion. handleDeath publishes the new table before pruneChainAcks
	// takes e.mu, so either the prune finds this entry or this load finds
	// the corpse already gone: an entry never waits on a replica that was
	// dead when it was recorded.
	e.mu.Lock()
	g := w.repl.group(ldst)
	if g.primary < 0 {
		e.mu.Unlock()
		return failStop(ldst)
	}
	k := repChan{peer: ldst, ctx: ctx, tag: tag}
	e.repSeq[k]++ // starts at 1: 0 on the wire means "unstamped"
	seq := e.repSeq[k]
	// One causal token for the whole fan-out: every physical copy is the
	// same logical message, so the deduplicated losers and the delivered
	// winner reconcile to one identity in the conservation audit.
	// (sendPacket assigns tokens only when unset, so this survives it.)
	tok := transport.MakeToken(e.rank, w.nextTokenSeq(e.rank))
	targets := g.live
	if chain {
		// The outbox entry exists BEFORE the copy enters the fabric: over
		// the synchronous Local fabric the confirmations can arrive inside
		// the Send call below, and they must find the entry to retire.
		e.chainPend[chainKey{ldst: ldst, ctx: ctx, tag: tag, repSeq: seq}] =
			chainPending{payload: kept, tok: tok, waiting: g.mask}
		primary := [1]int{g.primary} // the primary forwards to the standbys
		targets = primary[:]
	}
	e.mu.Unlock()
	var start time.Time
	var firstErr error
	for i, phys := range targets {
		buf := payload
		if !w.nonRetaining {
			// Retaining fabrics (Local, and anything layered on it) keep the
			// payload pointer, so every physical copy needs its own buffer.
			buf = make([]byte, len(payload))
			copy(buf, payload)
		}
		if i == 1 && w.obs != nil {
			start = time.Now() // overhead clock: copies beyond the first
		}
		pkt := &transport.Packet{
			Src: e.rank, Dst: phys, Tag: tag, Context: ctx,
			Kind: transport.KindData, Payload: buf,
			RepSeq: seq, RepEpoch: g.epoch, Token: tok,
		}
		if err := e.sendPacket(pkt); err != nil && firstErr == nil {
			firstErr = err
		}
		if i > 0 {
			w.metrics.Inc(e.rank, metrics.ReplicaSends)
		}
	}
	if len(targets) > 1 && w.obs != nil {
		w.obs.Observe(e.rank, obs.ReplicationOverhead, time.Since(start))
	}
	return firstErr
}

// chainForward relays a chain-mode data frame from the group's primary
// to its live standbys, preserving the original sender's identity and
// generation stamp (re-stamping with the forwarder's would trip the
// receiver's generation fence against the true source). Runs on the
// delivery goroutine with no engine lock held.
func (e *engine) chainForward(pkt *transport.Packet) {
	w := e.w
	for _, sib := range w.repl.livePhys(e.arank()) {
		if sib == e.rank {
			continue
		}
		if w.hook != nil && w.hook(HookEvent{
			Rank: e.arank(), Point: HookChainForward, Peer: w.logicalOf(sib), Tag: pkt.Tag,
		}) == ActKill {
			// The injected death lands INSIDE the forward window: the frame
			// is accepted here but not (fully) forwarded — the loss the
			// tail-ack protocol repairs. fireHook's die() would panic the
			// delivering goroutine, which is not this rank's own, so the
			// kill goes through the registry instead.
			w.registry.Kill(e.rank)
		}
		if e.dead.Load() {
			return // died mid-forward: remaining standbys rely on the re-send
		}
		fwd := *pkt
		fwd.Dst = sib
		fwd.DstGen = w.genOf(sib)
		if !w.nonRetaining && pkt.Payload != nil {
			fwd.Payload = make([]byte, len(pkt.Payload))
			copy(fwd.Payload, pkt.Payload)
		}
		_ = w.fabric.Send(&fwd)
		w.metrics.Inc(e.rank, metrics.ReplicaSends)
	}
}

// --- chain tail-acks ---------------------------------------------------------
//
// Chain mode's loss window: a primary that accepted a frame and died
// before chainForward completed would commit a frame the standbys never
// see. The tail-ack protocol closes it sender-side: every chain send is
// held in a per-sender outbox until EVERY live replica of the destination
// group has confirmed receipt; a primary death re-sends the unconfirmed
// entries (same RepSeq, same causal token) to the promoted survivor,
// which re-forwards down the chain.
//
// The confirmation has two carriers and one entry point (chainConfirm):
//
//   - With the reliability layer, the replica's ARQ ack IS the
//     confirmation. The ack gate withholds the primary's ack until it has
//     forwarded the frame, a forward keeps the original sender's Src so
//     the standby's ack also lands on the sender's link state, and the
//     layer's ack-retire callback hands each acked frame to
//     World.chainFrameAcked. No frame beyond data and its ack is sent.
//   - Without it there is no ack to ride, so every replica sends an
//     explicit KindChainAck frame per delivered data frame, which
//     engine.deliver hands to chainConfirm.

// chainFrameAcked is the reliability layer's ack-retire callback in chain
// mode: the replica pkt.Dst holds pkt, so it leaves the wait set of the
// sender's outbox entry. A forwarded frame carries its original sender in
// Src, so the same rule covers primaries and standbys.
func (w *World) chainFrameAcked(pkt *transport.Packet) {
	if pkt.Kind == transport.KindData && pkt.RepSeq != 0 {
		w.eng(pkt.Src).chainConfirm(pkt.Dst, pkt.Context, pkt.Tag, pkt.RepSeq)
	}
}

// sendChainAck confirms receipt of a chain data frame to its ORIGINAL
// sender (pkt.Src survives the chain forward untouched) in a world built
// without the reliability layer. The frame carries no causal token: it is
// protocol overhead, not a message the conservation audit tracks.
func (e *engine) sendChainAck(pkt *transport.Packet) {
	w := e.w
	ack := &transport.Packet{
		Src: e.rank, Dst: pkt.Src, Tag: pkt.Tag, Context: pkt.Context,
		Kind: transport.KindChainAck, RepSeq: pkt.RepSeq,
		SrcGen: e.gen, DstGen: w.genOf(pkt.Src),
	}
	_ = w.fabric.Send(ack)
}

// chainConfirm retires one replica's receipt confirmation, whichever
// carrier brought it, from this sender's matching outbox entry; the entry
// is released once every awaited replica has confirmed. A confirmation
// for an entry already released (a re-send's second confirmation) still
// counts: ChainAcks is confirmations retired, per confirming replica.
func (e *engine) chainConfirm(replica, ctx, tag int, repSeq uint32) {
	w := e.w
	w.metrics.Inc(replica, metrics.ChainAcks)
	k := chainKey{ldst: w.logicalOf(replica), ctx: ctx, tag: tag, repSeq: repSeq}
	e.mu.Lock()
	if ent, ok := e.chainPend[k]; ok {
		e.chainRetireLocked(k, ent, w.repl.replicaBit(replica))
	}
	e.mu.Unlock()
}

// chainRetireLocked clears one replica's bit from an outbox entry and
// releases the entry when nobody is awaited any more. Caller holds mu.
func (e *engine) chainRetireLocked(k chainKey, ent chainPending, bit uint64) {
	if ent.waiting &^= bit; ent.waiting == 0 {
		delete(e.chainPend, k)
	} else {
		e.chainPend[k] = ent
	}
}

// pruneChainAcks removes a dead physical slot from every sender's
// chain-outbox wait sets (a corpse will never confirm), releasing entries
// it was the last holdout of. No-op outside chain mode.
func (s *replState) pruneChainAcks(f int) {
	if s.mode != ReplChain {
		return
	}
	w := s.w
	l, bit := f%s.lsize, s.replicaBit(f)
	for i := 0; i < w.size; i++ {
		e := w.eng(i)
		e.mu.Lock()
		for k, ent := range e.chainPend {
			if k.ldst == l && ent.waiting&bit != 0 {
				e.chainRetireLocked(k, ent, bit)
			}
		}
		e.mu.Unlock()
	}
}

// resendChainPending re-sends every still-unconfirmed chain-outbox entry
// addressed to logical rank l to its freshly promoted primary, in RepSeq
// order per channel (a standby that accepted X+1 would dedup-drop a
// later-arriving X). The re-send reuses the original causal token — it
// is the same message, and the audit reconciles all copies to one span —
// and the promoted primary re-forwards it chain-style, which also covers
// standbys that missed the old primary's forward. Replicas that already
// hold the frame dedup-drop it and re-confirm. Called with no locks held.
func (s *replState) resendChainPending(l, promoted int) {
	if s.mode != ReplChain {
		return
	}
	w := s.w
	epoch := s.group(l).epoch
	for i := 0; i < w.size; i++ {
		e := w.eng(i)
		if e.dead.Load() {
			continue
		}
		type item struct {
			k   chainKey
			ent chainPending
		}
		var items []item
		e.mu.Lock()
		for k, ent := range e.chainPend {
			if k.ldst == l {
				items = append(items, item{k, ent})
			}
		}
		e.mu.Unlock()
		if len(items) == 0 {
			continue
		}
		sort.Slice(items, func(a, b int) bool {
			ka, kb := items[a].k, items[b].k
			if ka.ctx != kb.ctx {
				return ka.ctx < kb.ctx
			}
			if ka.tag != kb.tag {
				return ka.tag < kb.tag
			}
			return ka.repSeq < kb.repSeq
		})
		for _, it := range items {
			// Fresh payload copy per re-send: the fabric (and ultimately the
			// application) may retain and mutate delivered buffers, and the
			// outbox copy must stay intact for a second promotion.
			cp := make([]byte, len(it.ent.payload))
			copy(cp, it.ent.payload)
			pkt := &transport.Packet{
				Src: e.rank, Dst: promoted, Tag: it.k.tag, Context: it.k.ctx,
				Kind: transport.KindData, Payload: cp,
				RepSeq: it.k.repSeq, RepEpoch: epoch, Token: it.ent.tok,
			}
			_ = e.sendPacket(pkt)
			w.metrics.Inc(e.rank, metrics.ChainResends)
		}
	}
}

// --- automatic re-replication ------------------------------------------------

// refillAttempts bounds one refill goroutine's Spawn retries; combined
// with the backoff doubling it spans several seconds of transient
// refusals (racing kills, in-flight Spawns) before giving up.
const refillAttempts = 10

// scheduleRefill launches the Spawn-driven group refill for a confirmed
// -dead replica slot, subject to the AutoRefill budget. Runs on the
// failure-notification path with no locks held; the refill itself runs
// on its own goroutine.
func (s *replState) scheduleRefill(slot int) {
	if !s.opts.AutoRefill {
		return
	}
	s.mu.Lock()
	if s.opts.MaxRefills > 0 && s.refills >= s.opts.MaxRefills {
		s.mu.Unlock()
		return
	}
	s.refills++
	s.mu.Unlock()
	go s.refill(slot, time.Now())
}

// refill retries Spawn(slot) with backoff until the slot is reoccupied,
// someone else revived it, or the attempt budget runs out (teardown and
// budget refusals surface as Spawn errors and simply exhaust the loop).
// deathAt anchors the rereplication_latency observation: confirm-to-heal.
func (s *replState) refill(slot int, deathAt time.Time) {
	w := s.w
	backoff := s.opts.RefillBackoff
	if backoff <= 0 {
		backoff = 2 * time.Millisecond
	}
	for attempt := 0; attempt < refillAttempts; attempt++ {
		if attempt == 0 {
			if s.opts.RefillDelay > 0 {
				time.Sleep(s.opts.RefillDelay)
			}
		} else {
			time.Sleep(backoff)
			if backoff < 500*time.Millisecond {
				backoff *= 2
			}
		}
		if !w.registry.Confirmed(slot) {
			return // already revived by a racing Spawn — group is healing
		}
		if _, err := w.Spawn(slot); err == nil {
			w.metrics.Inc(slot, metrics.ReplicaRefills)
			w.obs.Observe(slot, obs.RereplicationLatency, time.Since(deathAt))
			return
		}
	}
}

// seedRepState copies the most advanced surviving sibling's replication
// sequence state into a reincarnation's still-unpublished engine: repNext
// fences inbound frames the group already consumed (late forwards and
// retransmits of old laps dedup-drop instead of queueing stale state),
// and repSeq keeps outbound numbering continuous if the incarnation ever
// sends after recovering application state. Called from join before the
// engine is installed, so no frame can race the seeding.
func (s *replState) seedRepState(slot int, e2 *engine) {
	w := s.w
	for _, sib := range s.livePhys(w.logicalOf(slot)) {
		if sib == slot {
			continue
		}
		e := w.eng(sib)
		if e == nil || e.dead.Load() {
			continue
		}
		e.mu.Lock()
		for k, v := range e.repSeq {
			if v > e2.repSeq[k] {
				e2.repSeq[k] = v
			}
		}
		for k, v := range e.repNext {
			if v > e2.repNext[k] {
				e2.repNext[k] = v
			}
		}
		e.mu.Unlock()
	}
}

// LiveReplicas returns the live physical replica slots backing logical
// rank l in replica-index order, or nil outside replication mode. Soaks
// use it to assert depleted groups healed back to R by the epilogue.
func (w *World) LiveReplicas(l int) []int {
	if w.repl == nil || l < 0 || l >= w.lsize {
		return nil
	}
	return append([]int(nil), w.repl.livePhys(l)...)
}
