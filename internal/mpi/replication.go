package mpi

import (
	"encoding/binary"
	"fmt"
	"math/bits"
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
// physical replicas that all execute the rank function. Replicas are
// mirror-paired: replica i of a sender sends to replica i of the
// destination, so every replica receives each message once, and a copy
// crosses over only to a destination replica whose mirror sender is gone
// (the sender group's primary covers it). Receivers drop the duplicates a
// failover replays by a replication sequence number, and a replica's death
// is absorbed by promoting a standby — the application never observes a
// failure until a logical rank's LAST replica dies, at which point the
// normal fail-stop path takes over.
//
// Physical layout is prefix-striped: a world of L logical ranks at
// replication degree R has N = L*R physical slots, and logical rank l is
// backed by physical slots {l, l+L, l+2L, ...}. Replica 0 of every
// logical rank therefore occupies the physical slot with the same index,
// which keeps logical ids valid indices into every physical-sized table.

// ReplChain is the one value ReplicationOptions.Mode accepts besides "".
// It names nothing: replication has one protocol, mirror pairing over ARQ.
//
// Deprecated: it remains so that existing ReplicationOptions{Mode:
// ReplChain} literals keep compiling; leave Mode empty instead.
const ReplChain = "chain"

// ReplicationOptions configures replication mode (WithReplication).
type ReplicationOptions struct {
	// R is the replication degree: physical replicas per logical rank.
	// 1 is a valid (if pointless) degree and matches the unreplicated
	// baseline for overhead measurements.
	R int
	// Mode is ignored, except that anything other than "" or ReplChain is
	// ErrInvalidArg.
	//
	// Deprecated: replication has one propagation protocol, mirror
	// pairing, so there is nothing to select. The field remains only so
	// that existing Mode: ReplChain literals keep compiling.
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

// chainPending is one unconfirmed replicated send: the payload kept for an
// orphan replay, the causal token that keeps the replay the SAME message
// for the conservation audit, and the replicas whose receipt confirmation
// is still owed.
type chainPending struct {
	payload []byte
	tok     uint64
	waiting uint64 // bit i set <=> replica i of the destination group still owes its confirmation
}

// outChan is one logical outbound channel (logical destination, ctx, tag)
// of a sender replica, and its part of the tail-ack outbox.
type outChan struct {
	seq uint32 // the last RepSeq stamped
	// pend[head:] holds the entries of RepSeq base+1 onwards, oldest first.
	// The oldest is unconfirmed; a later one confirmed first stays in
	// place, retired (waiting 0), until those before it are.
	base uint32
	head int
	pend []chainPending
	// conf holds, per destination replica index, the highest RepSeq that
	// replica confirmed before this replica stamped it: a replica lagging
	// behind its group stamps messages the others' copies already got
	// confirmed, and those are born without the confirming replica's bit.
	conf []uint32
}

// pending returns the channel's outbox entries, oldest first.
func (oc *outChan) pending() []chainPending { return oc.pend[oc.head:] }

// record enters the message just stamped (RepSeq seq) in the outbox, unless
// nobody owes a confirmation and nothing before it is pending. It returns
// how many entries it added.
func (oc *outChan) record(seq uint32, ent chainPending) int {
	if oc.head == len(oc.pend) {
		oc.base, oc.head, oc.pend = seq-1, 0, oc.pend[:0]
		if ent.waiting == 0 {
			return 0
		}
	} else if oc.head >= 64 && 2*oc.head >= len(oc.pend) {
		n := copy(oc.pend, oc.pend[oc.head:]) // the retired front is dead space
		oc.pend, oc.head = oc.pend[:n], 0
	}
	oc.pend = append(oc.pend, ent)
	return 1
}

// entry returns the outbox entry of RepSeq seq, or nil if none is pending.
func (oc *outChan) entry(seq uint32) *chainPending {
	if seq <= oc.base || seq > oc.base+uint32(len(oc.pend)-oc.head) {
		return nil
	}
	if ent := &oc.pend[oc.head+int(seq-oc.base-1)]; ent.waiting != 0 {
		return ent
	}
	return nil
}

// retire clears the bits of replicas that confirmed from the entry of
// RepSeq seq, if it is pending, and drops the retired entries at the front.
// It returns how many it dropped.
func (oc *outChan) retire(seq uint32, bits uint64) int {
	if ent := oc.entry(seq); ent != nil {
		if ent.waiting &^= bits; ent.waiting == 0 {
			ent.payload = nil
		}
	}
	return oc.trim()
}

// trim drops the retired entries at the front of the outbox and returns how
// many it dropped.
func (oc *outChan) trim() int {
	k := 0
	for ; oc.head < len(oc.pend) && oc.pend[oc.head].waiting == 0; k++ {
		oc.pend[oc.head] = chainPending{}
		oc.head++
	}
	oc.base += uint32(k)
	return k
}

// pinKey names one wildcard receive of a replica's program: its context
// and its ordinal among the wildcard receives posted on that context.
type pinKey struct {
	ctx int
	n   uint64
}

// pin is how the decider's wildcard receive n on context ctx completed:
// matched the message of communicator rank src and tag tag, cancelled, or
// failed with failStop(f) and status (src, tag).
type pin struct {
	ctx      int
	n        uint64
	outcome  int
	src, tag int
	f        int
}

// Pin outcomes.
const (
	pinMatched = iota
	pinCancelled
	pinFailed
)

// replica is an engine's replication state.
type replica struct {
	// out/repNext are the logical-channel state: out numbers outbound data
	// messages per (logical dst, ctx, tag) channel — identically on every
	// sender replica, since replicas execute identical programs — and holds
	// each channel's part of the tail-ack outbox: the sends some live
	// replica of the destination group has not confirmed yet. repNext
	// tracks the next acceptable inbound number per (logical src, ctx,
	// tag), which is what drops the duplicates a failover sends. Guarded
	// by the engine's mu, like every field up to sendMu.
	out     map[repChan]*outChan
	repNext map[repChan]uint32
	// held keeps the messages that arrived ahead of an earlier one of
	// their channel (replOrderLocked), until it arrives.
	held map[heldKey]*transport.Packet
	// queued counts the outbox entries of all channels; it is written under
	// mu and read without it by a sender checking outboxWindow. outboxFull
	// is set while a sender waits for room.
	queued     atomic.Int32
	outboxFull bool

	// Wildcard pins. wildSeq numbers the wildcard receives this replica
	// posted, per context. On a standby, pins holds the pins received for
	// receives not posted yet, pinLog the last batch received (what the
	// replica re-sends if it becomes the decider), and holds, per context,
	// the receives held back for a pin, in post order; nHolds counts them.
	// On the decider, pinOut queues the pins not sent yet; pinBusy is set
	// while a sendPins goroutine runs, pinBatch numbers its batches and
	// pinAwait is the standby whose ack it waits for (-1: none).
	wildSeq  map[int]uint64
	pins     map[pinKey]pin
	pinLog   []pin
	holds    map[int][]*Request
	nHolds   int
	pinOut   []pin
	pinBusy  bool
	pinBatch int
	pinAwait int

	// sendMu serializes this replica's replicated sends with its orphan
	// replays (fenceLocked), so that no send overtakes a replay on any
	// channel. fenced is the epoch of this replica's group the replica last
	// fenced for, covered the destination replica indexes it sends to as
	// the primary because their mirror sender is gone. Both guarded by
	// sendMu.
	sendMu  sync.Mutex
	fenced  uint32
	covered uint64
}

// heldKey names a message held ahead of its channel: the channel
// (logical source, ctx, tag) and its RepSeq.
type heldKey struct {
	ch  repChan
	seq uint32
}

// What replOrderLocked decided about an arriving replicated message.
const (
	replNext = iota // the channel's next message: match it
	replDup         // a copy of a message this replica holds: drop it
	replHeld        // ahead of an earlier message: held until that arrives
)

// replOrderLocked admits a replicated message of channel k in RepSeq
// order. Copies of one message reach a replica over several links after a
// failover (the dead mirror sender's last copies, the primary's replay and
// its orphan copies), so a later message can overtake an earlier one;
// taking it would make the replica's dedup drop the earlier one for good.
// The later one waits instead. A reincarnation joins mid-stream as a warm
// standby that never receives, so it takes whatever comes next. Caller
// holds mu.
func (e *engine) replOrderLocked(k repChan, pkt *transport.Packet) int {
	next := e.rep.repNext[k]
	switch {
	case pkt.RepSeq < next:
		return replDup
	case e.gen == 1 && pkt.RepSeq > max(next, 1):
		hk := heldKey{k, pkt.RepSeq}
		if e.rep.held[hk] != nil {
			return replDup
		}
		if e.rep.held == nil {
			e.rep.held = make(map[heldKey]*transport.Packet)
		}
		e.rep.held[hk] = pkt
		return replHeld
	}
	e.rep.repNext[k] = pkt.RepSeq + 1
	return replNext
}

// releaseHeldLocked matches the messages of channel k held behind the one
// just matched, in order, and returns what delivered needs of them.
// Caller holds mu.
func (e *engine) releaseHeldLocked(k repChan) []arrival {
	var released []arrival
	for {
		next := e.rep.repNext[k]
		pkt := e.rep.held[heldKey{k, next}]
		if pkt == nil {
			return released
		}
		delete(e.rep.held, heldKey{k, next})
		e.rep.repNext[k] = next + 1
		released = append(released, arrival{tag: pkt.Tag, token: pkt.Token, hlc: pkt.HLC})
		e.matchLocked(pkt, k.peer)
	}
}

// dropHeld empties the replica's held messages when it dies or the world
// ends and records each as the accounted loss kind for the audit: they
// never reach matching. Called with no lock held.
func (e *engine) dropHeld(kind trace.Kind) {
	if e.rep == nil {
		return
	}
	e.mu.Lock()
	held := e.rep.held
	e.rep.held = nil
	e.mu.Unlock()
	for _, pkt := range held {
		e.w.tracer.RecordMsg(e.rank, kind, pkt.Src, pkt.Tag, -1, int(e.gen), pkt.Token, 0, "")
		pkt.Release()
	}
}

// maxReplicas bounds the replication degree: replica sets are bitmasks
// over the replica index.
const maxReplicas = 64

// groupView is one snapshot of a logical rank's replica set. A published
// view is never modified: a membership change publishes a new view with a
// new live slice, so readers keep and range over what they loaded without
// a lock.
type groupView struct {
	live []int  // live physical slots in replica-index order; shared, read-only
	mask uint64 // bit i set <=> replica i (physical slot l + i*lsize) is live
	// running has bit i set while replica i runs the rank function: an
	// original incarnation that is alive. A refill joins the mask as a
	// warm standby that never sends, so it is never a mirror sender.
	running uint64
	primary int    // current primary physical slot (-1 when all dead)
	epoch   uint32 // bumped on every membership change, stamped on the wire
}

// replState tracks every replica group of a replicated world. Reads are
// lock-free loads of the published group table; mu serializes the two
// writers (handleDeath, onRevive), which never call into an engine while
// holding it.
type replState struct {
	w     *World
	r     int // replication degree
	lsize int // logical world size
	opts  ReplicationOptions

	table atomic.Pointer[[]groupView] // indexed by logical rank; replaced whole, never edited

	mu      sync.Mutex
	refills int // automatic refills launched (budget bookkeeping)

	closed chan struct{} // closed when Run tears the world down
}

// newReplState lays out lsize replica groups of degree opts.R over the
// physical slot table.
func newReplState(w *World, lsize int, opts ReplicationOptions) *replState {
	r := opts.R
	s := &replState{w: w, r: r, lsize: lsize, opts: opts, closed: make(chan struct{})}
	table := make([]groupView, lsize)
	all := ^uint64(0) >> (maxReplicas - uint(r))
	for l := range table {
		table[l] = groupView{live: s.slotsOf(l, all), mask: all, running: all, primary: l} // replica 0 leads
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
	decided := s.decider(l) == f
	g := *s.group(l)
	if bit := s.replicaBit(f); g.mask&bit != 0 {
		g.mask &^= bit
		g.running &^= bit
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

	// Drop the corpse from every sender's outbox wait sets and pin ledgers.
	// The new table is already published: see replSend for why that order
	// keeps a corpse out of entries recorded from now on.
	s.pruneChainAcks(f)
	if d := s.decider(l); decided && d >= 0 {
		s.w.eng(d).becomeDecider()
	}

	if g.primary < 0 {
		s.scheduleRefill(f)
		return false
	}
	w := s.w
	if promoted >= 0 {
		w.metrics.Inc(promoted, metrics.ReplicaPromotions)
		if lat, ok := w.registry.SinceDeath(f); ok {
			w.obs.Observe(promoted, obs.ReplicaPromotion, lat)
			// Promotion IS the repair in replication mode: the same death-to
			// -service-restored latency feeds the cross-mode recovery family.
			w.obs.Observe(promoted, obs.RecoveryTotal, lat)
		}
		w.tracer.RecordMsg(promoted, trace.Promoted, f, -1, -1, int(w.genOf(promoted)), 0, 0,
			fmt.Sprintf("primary of logical %d (replacing %d)", l, f))
		// A standby that just became primary may be parked in an agreement
		// waiting to take over the root role; roll every engine's agreement
		// channel so it re-evaluates.
		for i := 0; i < w.size; i++ {
			e := w.eng(i)
			e.mu.Lock()
			e.agreeBumpLocked()
			e.mu.Unlock()
		}
	}
	// Tail-ack repair: the primary takes over the destination replicas the
	// dead one was the mirror sender of, and replays what they still owe a
	// confirmation for, before any send of its own can overtake the replay.
	w.eng(g.primary).fence()
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

// replSend sends one logical data message to logical destination ldst:
// to the destination replica with this replica's own index (its mirror)
// and, on the group's primary, to every destination replica whose mirror
// sender is gone. Every sender replica stamps the same replication sequence
// number — they execute identical programs — so a receiver drops the
// copies a failover duplicates by RepSeq alone. The message enters the
// outbox until every live destination replica confirmed it. Must be called
// with no engine lock held.
func (e *engine) replSend(ldst, tag, ctx int, payload []byte) error {
	w, s := e.w, e.w.repl
	if e.rep.queued.Load() >= outboxWindow {
		e.awaitOutbox()
	}
	e.rep.sendMu.Lock()
	defer e.rep.sendMu.Unlock()
	src := s.group(e.arank())
	if src.epoch != e.rep.fenced {
		e.fenceLocked(src)
	}
	// Targets, epoch and the outbox wait set all come from ONE snapshot of
	// the destination group, loaded under e.mu together with the outbox
	// insertion. handleDeath publishes the new table before pruneChainAcks
	// takes e.mu, so either the prune finds this entry or this load finds
	// the corpse already gone: an entry never waits on a replica that was
	// dead when it was recorded.
	e.mu.Lock()
	g := s.group(ldst)
	if g.primary < 0 {
		e.mu.Unlock()
		return failStop(ldst)
	}
	k := repChan{peer: ldst, ctx: ctx, tag: tag}
	oc := e.outChanLocked(k)
	oc.seq++ // starts at 1: 0 on the wire means "unstamped"
	seq := oc.seq
	// One causal token per logical message: every replica's copy and any
	// replay carry it, so the deduplicated copies and the delivered one
	// reconcile to one identity in the conservation audit. (sendPacket
	// assigns tokens only when unset, so this survives it.)
	tok := transport.MakeToken(e.rank, w.nextTokenSeq(e.rank))
	waiting := g.mask
	for m := waiting; m != 0; m &= m - 1 {
		if j := bits.TrailingZeros64(m); oc.conf[j] >= seq {
			waiting &^= 1 << uint(j)
		}
	}
	// The outbox entry exists BEFORE the copies enter the fabric: over the
	// synchronous Local fabric the confirmations can arrive inside the Send
	// calls below, and they must find the entry to retire. An entry that
	// waits on a replica this send does not reach outlives the send and
	// keeps a copy of the payload, which the caller may reuse once Send
	// returns. Otherwise (this replica lags its group) the entry holds the
	// caller's payload and is usually retired when the sends return; only a
	// replay reads the payload, and a replay needs sendMu.
	own := s.replicaBit(e.rank)
	targets := g.mask & (own | e.rep.covered)
	var kept []byte
	lent := waiting != 0 && waiting&^targets == 0
	if lent {
		kept = payload
	} else if waiting != 0 {
		kept = append([]byte(nil), payload...)
	}
	e.rep.queued.Add(int32(oc.record(seq, chainPending{payload: kept, tok: tok, waiting: waiting})))
	e.mu.Unlock()
	// Every copy but the primary's to its own mirror is one replication
	// puts on the wire beyond the unreplicated send, and its time is the
	// ReplicationOverhead sample.
	primary := src.primary == e.rank
	var start time.Time
	var err error
	for m := targets; m != 0; m &= m - 1 {
		j := bits.TrailingZeros64(m)
		extra := !primary || 1<<uint(j) != own
		if extra && w.obs != nil && start.IsZero() {
			start = time.Now()
		}
		if serr := e.sendCopy(ldst+j*s.lsize, tag, ctx, payload, seq, g.epoch, tok); serr != nil && err == nil {
			err = serr
		}
		if extra {
			w.metrics.Inc(e.rank, metrics.ReplicaSends)
		}
	}
	if !start.IsZero() {
		w.obs.Observe(e.rank, obs.ReplicationOverhead, time.Since(start))
	}
	if lent {
		e.mu.Lock()
		if ent := oc.entry(seq); ent != nil {
			ent.payload = append([]byte(nil), payload...)
		}
		e.mu.Unlock()
	}
	return err
}

// outboxWindow bounds how far a sender replica runs ahead of its group:
// the replica planes run at their own pace, and the one ahead keeps every
// message until the one behind has delivered it too, so without a bound its
// outbox would grow with the drift between the planes. A send waits while
// this many entries are queued. The replica behind never waits on the one
// ahead (what it sends is confirmed already), so the wait always ends.
const outboxWindow = 256

// awaitOutbox blocks the sender until its outbox is below the window.
// Called with no lock held.
func (e *engine) awaitOutbox() {
	e.mu.Lock()
	for e.rep.queued.Load() >= outboxWindow {
		e.rep.outboxFull = true
		e.waitStateLocked()
	}
	e.mu.Unlock()
}

// dequeuedLocked accounts for n entries leaving the outbox, and wakes a
// sender waiting for room. Caller holds mu.
func (e *engine) dequeuedLocked(n int) {
	if n == 0 {
		return
	}
	if e.rep.queued.Add(int32(-n)) < outboxWindow && e.rep.outboxFull {
		e.rep.outboxFull = false
		e.agreeBumpLocked()
	}
}

// sendCopy puts one replica's copy of a replicated message on the wire,
// in a packet built the way every send builds one (World.outPacket): a
// replicated world runs over the reliability layer, which borrows the
// packet and the caller's payload only until Send returns. Caller holds
// sendMu.
func (e *engine) sendCopy(dst, tag, ctx int, payload []byte, seq, epoch uint32, tok uint64) error {
	pkt := e.w.outPacket(payload, false)
	pkt.Src, pkt.Dst, pkt.Tag, pkt.Context, pkt.Kind = e.rank, dst, tag, ctx, transport.KindData
	pkt.RepSeq, pkt.RepEpoch, pkt.Token = seq, epoch, tok
	err := e.sendPacket(pkt)
	e.w.sent(pkt)
	return err
}

// outChanLocked returns the outbound channel k, made on first use. Caller
// holds mu.
func (e *engine) outChanLocked(k repChan) *outChan {
	oc := e.rep.out[k]
	if oc == nil {
		oc = &outChan{conf: make([]uint32, e.w.repl.r)}
		e.rep.out[k] = oc
	}
	return oc
}

// fence takes the replica's send lock and fences it (fenceLocked) if its
// group changed since it last did. handleDeath calls it on the group's
// primary, which may not send again for a while: the destination replicas
// it just took over must not wait for its next send to get their replay.
func (e *engine) fence() {
	e.rep.sendMu.Lock()
	if src := e.w.repl.group(e.arank()); src.epoch != e.rep.fenced {
		e.fenceLocked(src)
	}
	e.rep.sendMu.Unlock()
}

// fenceLocked brings the replica's orphan coverage up to its group's
// current membership. On the primary, every destination replica index
// whose mirror sender no longer runs is covered; one that is newly covered
// gets, on every channel in RepSeq order, every outbox entry it has not
// confirmed: the mirror sender may have died with them in flight, or
// before it got to send them. The replay reuses each entry's RepSeq and
// causal token, so a replica that already holds the message dedup-drops
// it and the audit reconciles all copies to one span. Holding sendMu is
// the fence: a send that sees the new membership runs after the replay, so
// a later RepSeq never reaches the orphan first, where it would make the
// receiver's dedup drop the replay. Caller holds sendMu.
func (e *engine) fenceLocked(src *groupView) {
	s := e.w.repl
	e.rep.fenced = src.epoch
	if e.dead.Load() {
		return // a later death notification fences the next primary
	}
	var orphans uint64
	if src.primary == e.rank {
		orphans = ^src.running & (^uint64(0) >> (maxReplicas - uint(s.r)))
	}
	fresh := orphans &^ e.rep.covered
	e.rep.covered = orphans
	if fresh == 0 {
		return
	}
	// Collect the channels' entries under mu; the replay sends without it.
	type item struct {
		k   repChan
		seq uint32
		ent chainPending
	}
	var items []item
	e.mu.Lock()
	for k, oc := range e.rep.out {
		for i, ent := range oc.pending() {
			if ent.waiting&fresh != 0 {
				items = append(items, item{k, oc.base + uint32(i) + 1, ent})
			}
		}
	}
	e.mu.Unlock()
	for _, it := range items {
		epoch := s.group(it.k.peer).epoch
		for m := it.ent.waiting & fresh; m != 0; m &= m - 1 {
			// The reliability layer copies what it keeps of the entry's
			// payload, so the outbox copy stays intact for a later replay.
			dst := it.k.peer + bits.TrailingZeros64(m)*s.lsize
			_ = e.sendCopy(dst, it.k.tag, it.k.ctx, it.ent.payload, it.seq, epoch, it.ent.tok)
			e.w.metrics.Inc(e.rank, metrics.ChainResends)
		}
	}
}

// --- tail-acks -----------------------------------------------------------------
//
// A sender replica dies with copies in flight, or before it sent them, and
// its mirror destination replica never gets them. The tail-ack protocol
// closes that window sender-side: every replicated send is held in the
// outbox of every running sender replica until EVERY live replica of the
// destination group has confirmed receipt, and the group's primary replays
// the unconfirmed entries to the replicas the dead sender was the mirror
// of (fenceLocked).
//
// A replicated world always runs over the reliability layer, and the
// replica's ARQ ack IS the confirmation: the layer's ack-retire callback
// hands every frame acked in link order to World.replFrameAcked, which
// retires the confirming replica in the outbox of every running replica
// of the sender group. No frame beyond data and its ack is sent.

// replFrameAcked is the reliability layer's ack-retire callback in a
// replicated world: a data frame's destination replica holds the message,
// so it leaves the sender group's wait sets.
func (w *World) replFrameAcked(pkt transport.Packet) {
	if pkt.Kind == transport.KindData && pkt.RepSeq != 0 {
		w.repl.confirm(pkt.Src, pkt.Dst, repChan{peer: w.logicalOf(pkt.Dst), ctx: pkt.Context, tag: pkt.Tag}, pkt.RepSeq)
	}
}

// confirm retires destination replica dst's receipt of message repSeq on
// channel k (logical destination, ctx, tag) from the outbox of every
// running replica of sender's group; a replica that has no entry for it
// keeps the confirmation in its channel's watermark. ChainAcks counts
// confirmations, one per confirming replica.
func (s *replState) confirm(sender, dst int, k repChan, repSeq uint32) {
	w := s.w
	w.metrics.Inc(dst, metrics.ChainAcks)
	ls, j := w.logicalOf(sender), dst/s.lsize
	for m := s.group(ls).running; m != 0; m &= m - 1 {
		e := w.eng(ls + bits.TrailingZeros64(m)*s.lsize)
		e.mu.Lock()
		if oc := e.outChanLocked(k); repSeq <= oc.seq {
			e.dequeuedLocked(oc.retire(repSeq, 1<<uint(j)))
		} else if oc.conf[j] < repSeq {
			oc.conf[j] = repSeq
		}
		e.mu.Unlock()
	}
}

// pruneChainAcks removes a dead physical slot from every sender's outbox
// wait sets (a corpse will never confirm), releasing entries it was the
// last holdout of, and lets its decider off the pin ack it waits for.
func (s *replState) pruneChainAcks(f int) {
	w := s.w
	l, bit := f%s.lsize, s.replicaBit(f)
	for i := 0; i < w.size; i++ {
		e := w.eng(i)
		e.mu.Lock()
		for k, oc := range e.rep.out {
			if k.peer != l {
				continue
			}
			for x := range oc.pending() {
				if ent := &oc.pend[oc.head+x]; ent.waiting&bit != 0 {
					if ent.waiting &^= bit; ent.waiting == 0 {
						ent.payload = nil
					}
				}
			}
			e.dequeuedLocked(oc.trim())
		}
		if e.rep.pinAwait == f {
			e.rep.pinAwait = -1
			e.agreeBumpLocked()
		}
		e.mu.Unlock()
	}
}

// --- wildcard pins -------------------------------------------------------------
//
// Mirror-paired replicas receive each message on their own schedule, so a
// wildcard receive (AnySource or AnyTag) could match different messages on
// different replicas. One replica decides: the lowest-index running one
// (the primary, unless the primary is a refill, which does not run the
// program). When one of its wildcard receives completes (matched,
// cancelled or failed), it pins the outcome to every running standby, and
// its program sees the completion only once each standby has stored the
// pin. A standby holds its wildcard receive back until the pin arrives: a
// match pin turns it into a directed receive of the pinned source and tag,
// which takes the next message on that channel (the one the decider took,
// since replicas consume every channel in the same order); a cancel or
// failure pin completes it the same way. A later receive that the held
// wildcard could match waits behind it, so the earlier-posted receive
// matches first, as on the decider; any other is posted at once.
//
// Nothing here makes a standby wait where its program would not: Irecv
// returns at once, and the decider sends a pin when its receive completes,
// not when its program reports it. A standby's Wait on a held receive waits
// only for a completion that precedes, on the decider, the completion of
// the same receive.
//
// The decider sends each batch of pins to one standby at a time, in
// replica-index order, and waits for each one's ack before the next gets
// it. So a standby holding a pin knows every lower-index one holds it too,
// and the replica that takes over when the decider dies, the lowest-index
// running one, holds every pin another replica may have acted on. It
// re-sends the last batch it received (earlier batches reached every
// standby before the next began) and resolves the receives it holds for
// lack of a pin itself.

// ctxPin and ctxPinAck are the KindState contexts of a wildcard pin batch
// and of its ack (see state.go); both carry the batch number in Tag.
const (
	ctxPin    = -5
	ctxPinAck = -6
)

// decider returns the physical slot that resolves logical rank l's
// wildcard receives: its lowest-index running replica (-1: none).
func (s *replState) decider(l int) int {
	m := s.group(l).running
	if m == 0 {
		return -1
	}
	return l + bits.TrailingZeros64(m)*s.lsize
}

// holdLocked prepares a receive for posting on a replica: it numbers a
// wildcard receive and, on a standby, resolves it by its pin. It reports
// true when the receive must not be posted now: a pin completed it, or it
// waits for a pin (a standby's wildcard with none yet, or a receive such a
// wildcard could match). Caller holds mu.
func (e *engine) holdLocked(r *Request) bool {
	if isWild(r.srcWorld, r.tag) {
		n := e.rep.wildSeq[r.ctx] + 1
		e.rep.wildSeq[r.ctx] = n
		r.pin = n
		if e.applyPinLocked(r) {
			if r.done {
				return true
			}
		} else if e.w.repl.decider(e.arank()) != e.rank {
			e.holdRecvLocked(r)
			return true
		}
	}
	if e.rep.nHolds > 0 && behindWild(r, e.rep.holds[r.ctx]) {
		e.holdRecvLocked(r)
		return true
	}
	return false
}

// holdRecvLocked appends r to the receives its context holds back. Caller
// holds mu.
func (e *engine) holdRecvLocked(r *Request) {
	if e.rep.holds == nil {
		e.rep.holds = make(map[int][]*Request)
	}
	r.held = true
	e.rep.holds[r.ctx] = append(e.rep.holds[r.ctx], r)
	e.rep.nHolds++
}

// unholdLocked removes a held receive that is being cancelled. Caller
// holds mu.
func (e *engine) unholdLocked(r *Request) {
	list := e.rep.holds[r.ctx]
	for i, x := range list {
		if x == r {
			e.rep.holds[r.ctx] = append(list[:i], list[i+1:]...)
			break
		}
	}
	r.held = false
	e.rep.nHolds--
}

// behindWild reports whether the directed receive r could match a message
// that a wildcard in list, not resolved yet, could match too.
func behindWild(r *Request, list []*Request) bool {
	for _, w := range list {
		if isWild(w.srcWorld, w.tag) &&
			(w.srcWorld == AnySource || w.srcWorld == r.srcWorld) && (w.tag == AnyTag || w.tag == r.tag) {
			return true
		}
	}
	return false
}

// applyPinLocked resolves the standby's wildcard receive r by its pin, if
// that has arrived: a match pin narrows r to the pinned source and tag, a
// cancel or failure pin completes it. It reports whether r had a pin.
// Caller holds mu.
func (e *engine) applyPinLocked(r *Request) bool {
	k := pinKey{r.ctx, r.pin}
	p, ok := e.rep.pins[k]
	if !ok {
		return false
	}
	delete(e.rep.pins, k)
	r.pin = 0
	switch p.outcome {
	case pinMatched:
		wr, err := r.comm.WorldRank(p.src)
		if err != nil {
			r.completeLocked(err, Status{}, nil)
			break
		}
		r.srcWorld, r.tag = wr, p.tag
	case pinCancelled:
		r.completeLocked(ErrCancelled, Status{Source: ProcNull}, nil)
	default:
		r.completeLocked(failStop(p.f), Status{Source: p.src, Tag: p.tag}, nil)
	}
	return true
}

// releaseLocked posts, in order, the receives context ctx holds back that
// nothing holds back any more: a wildcard whose pin arrived, and a receive
// no earlier unresolved wildcard could match. A replica that has just
// become the decider posts them all, its unresolved wildcards as such.
// Caller holds mu.
func (e *engine) releaseLocked(ctx int, decide bool) {
	list := e.rep.holds[ctx]
	kept := list[:0]
	for _, r := range list {
		if isWild(r.srcWorld, r.tag) {
			e.applyPinLocked(r)
		}
		if !r.done && !decide && (isWild(r.srcWorld, r.tag) || behindWild(r, kept)) {
			kept = append(kept, r)
			continue
		}
		r.held = false
		e.rep.nHolds--
		if !r.done {
			e.postLocked(r)
		}
	}
	clear(list[len(kept):])
	if len(kept) == 0 {
		delete(e.rep.holds, ctx)
	} else {
		e.rep.holds[ctx] = kept
	}
}

// pinLocked queues the pin of the decider's wildcard receive r, which has
// just completed, for the running standbys. Caller holds mu.
func (e *engine) pinLocked(r *Request) {
	s := e.w.repl
	p := pin{ctx: r.ctx, n: r.pin, src: r.status.Source, tag: r.status.Tag}
	r.pin = 0
	if s.group(e.arank()).running&^s.replicaBit(e.rank) == 0 {
		return // no standby runs the program
	}
	switch {
	case r.err == ErrCancelled:
		p.outcome = pinCancelled
	case r.err != nil:
		p.outcome, p.f = pinFailed, FailedRankOf(r.err)
	}
	r.pinSent = true
	e.rep.pinOut = append(e.rep.pinOut, p)
	e.kickPinsLocked()
}

// kickPinsLocked starts the pin sender if pins are queued and none runs.
// Caller holds mu.
func (e *engine) kickPinsLocked() {
	if len(e.rep.pinOut) > 0 && !e.rep.pinBusy {
		e.rep.pinBusy = true
		go e.sendPins()
	}
}

// sendPins sends the queued pins to the running standbys, a batch at a
// time, one standby at a time in replica-index order, each acking the
// batch before the next gets it. It runs on its own goroutine until no pin
// is queued or the replica is gone.
func (e *engine) sendPins() {
	s := e.w.repl
	l := e.arank()
	e.mu.Lock()
	for len(e.rep.pinOut) > 0 && e.serving() {
		batch := e.rep.pinOut
		e.rep.pinOut = nil
		e.rep.pinBatch++
		for _, p := range s.slotsOf(l, s.group(l).running&^s.replicaBit(e.rank)) {
			if !e.serving() {
				break // a dead decider sends nothing more
			}
			e.rep.pinAwait = p
			pkt := &transport.Packet{Src: e.rank, Dst: p, Tag: e.rep.pinBatch, Kind: transport.KindState,
				Context: ctxPin, Payload: encodePins(batch)}
			e.mu.Unlock()
			e.stampGen(pkt)
			_ = e.w.fabric.Send(pkt)
			e.mu.Lock()
			// A standby that dies is let off: pruneChainAcks clears pinAwait,
			// or the death was published before this check.
			for e.rep.pinAwait == p && e.serving() && s.group(l).running&s.replicaBit(p) != 0 {
				ch := e.agreeWaitLocked()
				e.mu.Unlock()
				select {
				case <-ch:
				case <-e.downCh:
				case <-e.w.abortCh:
				}
				e.mu.Lock()
			}
		}
	}
	e.rep.pinBusy, e.rep.pinAwait = false, -1
	e.agreeBumpLocked()
	e.mu.Unlock()
}

// serving reports whether the replica is alive and its world running.
func (e *engine) serving() bool {
	return !e.dead.Load() && !e.closed.Load() && !e.w.aborted.Load()
}

// awaitPins blocks the decider's program until every queued pin reached
// every running standby. Called with no lock held; panics like Wait if the
// rank dies or the world ends meanwhile.
func (e *engine) awaitPins() {
	e.mu.Lock()
	for e.rep.pinBusy {
		e.waitStateLocked()
	}
	e.mu.Unlock()
}

// pinAcked records standby p's ack of the decider's pin batch.
func (e *engine) pinAcked(p, batch int) {
	e.mu.Lock()
	if e.rep.pinAwait == p && e.rep.pinBatch == batch {
		e.rep.pinAwait = -1
		e.agreeBumpLocked()
	}
	e.mu.Unlock()
}

// deliverPin stores a batch of the decider's pins on a standby, releases
// the receives they resolve, and acks the batch. A pin for a receive the
// standby has resolved already is a re-sent one and is dropped; a batch
// that reaches a replica that has become the decider is a dead decider's
// and is dropped whole (the replica took over with what it held).
func (e *engine) deliverPin(pkt *transport.Packet) {
	batch, ok := decodePins(pkt.Payload)
	e.mu.Lock()
	if e.dead.Load() || e.closed.Load() {
		e.mu.Unlock()
		return
	}
	if ok && e.w.repl.decider(e.arank()) != e.rank {
		if e.rep.pins == nil {
			e.rep.pins = make(map[pinKey]pin)
		}
		e.rep.pinLog = batch
		for _, p := range batch {
			e.rep.pins[pinKey{p.ctx, p.n}] = p
		}
		for _, p := range batch {
			if e.rep.nHolds > 0 {
				e.releaseLocked(p.ctx, false)
			}
			if p.n <= e.rep.wildSeq[p.ctx] {
				delete(e.rep.pins, pinKey{p.ctx, p.n}) // applied, or applied before
			}
		}
		e.agreeBumpLocked()
	}
	e.mu.Unlock()
	ack := &transport.Packet{Src: e.rank, Dst: pkt.Src, Tag: pkt.Tag, Kind: transport.KindState, Context: ctxPinAck}
	e.stampGen(ack)
	_ = e.w.fabric.Send(ack)
}

// becomeDecider makes this replica resolve its group's wildcard receives
// after the decider died: it re-sends the last batch of pins it received,
// which the dead decider may not have finished sending to every standby,
// and posts the receives it holds, resolving those no pin covers itself.
func (e *engine) becomeDecider() {
	e.mu.Lock()
	if !e.dead.Load() {
		e.rep.pinOut = append(e.rep.pinOut, e.rep.pinLog...)
		e.rep.pinLog = nil
		for ctx := range e.rep.holds {
			e.releaseLocked(ctx, true)
		}
		e.kickPinsLocked()
		e.agreeBumpLocked()
	}
	e.mu.Unlock()
}

// encodePins serializes a pin batch as varints.
func encodePins(batch []pin) []byte {
	var b []byte
	for _, p := range batch {
		for _, v := range [...]int64{int64(p.ctx), int64(p.n), int64(p.outcome), int64(p.src), int64(p.tag), int64(p.f)} {
			b = binary.AppendVarint(b, v)
		}
	}
	return b
}

// decodePins parses a pin batch; ok is false if it is malformed.
func decodePins(b []byte) (batch []pin, ok bool) {
	for len(b) > 0 {
		var v [6]int64
		for i := range v {
			var n int
			if v[i], n = binary.Varint(b); n <= 0 {
				return nil, false
			}
			b = b[n:]
		}
		batch = append(batch, pin{ctx: int(v[0]), n: uint64(v[1]), outcome: int(v[2]), src: int(v[3]), tag: int(v[4]), f: int(v[5])})
	}
	return batch, true
}

// waitStateLocked parks on the agreement channel until the next state
// change, and panics like Wait if the rank died or the world ended. Caller
// holds mu, and holds it again on return.
func (e *engine) waitStateLocked() {
	e.checkAliveLocked()
	ch := e.agreeWaitLocked()
	e.mu.Unlock()
	select {
	case <-ch:
	case <-e.downCh:
	case <-e.w.abortCh:
	}
	e.mu.Lock()
	e.checkAliveLocked()
}

// checkAliveLocked is checkAlive for a caller holding mu: it releases mu
// before it panics, so the caller must not unlock in a defer.
func (e *engine) checkAliveLocked() {
	switch {
	case e.dead.Load():
		e.mu.Unlock()
		panic(killedPanic{rank: e.rank})
	case e.closed.Load():
		e.mu.Unlock()
		panic(closedPanic{})
	case e.w.aborted.Load():
		e.mu.Unlock()
		panic(abortPanic{code: e.w.abortCode()})
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
// someone else revived it, the run tears down, or the attempt budget runs
// out (budget refusals surface as Spawn errors and exhaust the loop).
// deathAt anchors the rereplication_latency observation: confirm-to-heal.
func (s *replState) refill(slot int, deathAt time.Time) {
	w := s.w
	backoff := s.opts.RefillBackoff
	if backoff <= 0 {
		backoff = 2 * time.Millisecond
	}
	wait := s.opts.RefillDelay
	for attempt := 0; attempt < refillAttempts; attempt++ {
		if attempt > 0 {
			wait = backoff
			if backoff < 500*time.Millisecond {
				backoff *= 2
			}
		}
		if wait > 0 {
			t := time.NewTimer(wait)
			select {
			case <-t.C:
			case <-s.closed:
				t.Stop()
				return // the run is over: nothing is left to heal
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
// fences inbound frames the group already consumed (late copies and
// retransmits of old laps dedup-drop instead of queueing stale state),
// and the outbound numbering stays continuous if the incarnation ever
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
		for k, oc := range e.rep.out {
			if oc2 := e2.outChanLocked(k); oc.seq > oc2.seq {
				oc2.seq = oc.seq
			}
		}
		for k, v := range e.rep.repNext {
			if v > e2.rep.repNext[k] {
				e2.rep.repNext[k] = v
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
