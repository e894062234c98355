package mpi

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/detector"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/trace"
	"repro/internal/transport"
)

// engine is the per-rank message-matching machinery: the posted-receive
// index, the unexpected-message index, and this rank's view of failure
// notifications. All mutable matching state is guarded by mu.
//
// Signaling is per-request, not per-engine: a goroutine blocked in Wait
// or Waitany parks on ONE channel, registered on each request it waits
// for (Request.waiters) and in the engine's parked list. A completing
// request pokes only the channels registered on it, so a rank is not
// woken by unrelated traffic. Fail-stop, teardown and MPI_Abort set their
// flag first and then, holding mu, poke every parked channel
// (wakeParkedLocked). A waiter checks the flags and joins the parked list
// under one hold of mu, so it either sees the flag or gets the poke. Three
// more signals serve the agreement, state-fetch and proc waits:
//
//   - downCh closes when the rank fail-stops or the world is torn down
//     (markDead/markClosed);
//   - World.abortCh closes on MPI_Abort;
//   - agreeCh is a generation channel for the agreement service: it is
//     closed on every agreement-relevant state change (vote/decide
//     arrival, failure notification, promotion, a replica's wildcard pin
//     or its ack) and made afresh by the next waiter, waking only the
//     rare waiters inside validate_all or a replicated wildcard receive.
//
// The dead/closed flags are additionally mirrored in atomics so that
// checkAlive — called at the top of every user-facing operation — never
// touches the matching lock.
//
// Lock discipline: an engine's methods never call another engine or the
// fabric while holding mu. Cross-rank delivery locks exactly one engine at
// a time, so there is no lock-ordering cycle by construction. In a
// replicated world rep.sendMu comes before mu and is held across the
// fabric sends of one replica; nothing a delivery runs takes a sendMu.
type engine struct {
	w    *World
	rank int
	// gen is the incarnation this engine serves, immutable for the
	// engine's lifetime. A slot's first engine is generation 1; every
	// Spawn installs a brand-new engine at the next generation, so stale
	// frames addressed to (or stamped by) a dead incarnation are fenced
	// at deliver by a plain equality check — the matching layer never has
	// to reason about "the same rank, but earlier".
	gen uint32

	dead   atomic.Bool // this rank has fail-stopped
	closed atomic.Bool // world torn down (normal completion path)

	mu      sync.Mutex
	downCh  chan struct{} // closed once dead or closed
	downOne sync.Once
	agreeCh chan struct{}   // generation channel for agreement waiters; nil until one waits
	parked  []chan struct{} // the channel of every goroutine blocked in Wait/Waitany

	posted     postedIndex
	unexpected unexpectedIndex
	// completions numbers this engine's request completions, so Waitany
	// can return the earliest of several completed requests. Guarded by mu.
	completions uint64

	// knownFailed is this engine's failure-notification view: which world
	// ranks this rank has been told are dead. With zero notification delay
	// it tracks the registry exactly; with a delay it lags, modelling
	// detection latency. In replication mode it is indexed by LOGICAL
	// rank: individual replica deaths are absorbed by promotion and only a
	// logical rank's last death is recorded here.
	knownFailed []bool

	// rep is this replica's replication state; nil outside replication
	// mode.
	rep *replica

	// comms lists every communicator created by this incarnation's proc,
	// so a peer's revival can repair recognition and collective membership
	// on all of them. Guarded by mu.
	comms []*Comm

	// joinInst is the first world-communicator agreement instance this
	// incarnation participates in (0 for generation 1). Vote requests for
	// earlier instances are answered reactively instead of parked — the
	// reincarnation will never reach those validate_all calls. Guarded by mu.
	joinInst int

	agree agreementState

	// stateProvider serializes this rank's application state on demand
	// (elastic-world neighbor recovery); stateWaiters holds the pending
	// FetchState calls keyed by request id. Guarded by mu.
	stateProvider func() []byte
	stateWaiters  map[uint64]*stateWaiter
	stateSeq      uint64
}

// repChan keys the replication sequence maps: one logical data channel.
type repChan struct {
	peer int // logical peer (dst on send, src on receive)
	ctx  int
	tag  int
}

func newEngine(w *World, rank int, gen uint32) *engine {
	nf := w.size
	if w.repl != nil {
		nf = w.lsize // failure view speaks logical ids in replication mode
	}
	e := &engine{
		w:            w,
		rank:         rank,
		gen:          gen,
		downCh:       make(chan struct{}),
		posted:       newPostedIndex(),
		unexpected:   newUnexpectedIndex(),
		knownFailed:  make([]bool, nf),
		stateWaiters: make(map[uint64]*stateWaiter),
	}
	if w.repl != nil {
		e.rep = &replica{
			out:      make(map[repChan]*outChan),
			repNext:  make(map[repChan]uint32),
			wildSeq:  make(map[int]uint64),
			pinAwait: -1,
		}
	}
	e.agree.init()
	return e
}

// arank returns this engine's application-visible rank: the logical rank
// in replication mode, the physical rank otherwise. Protocol messages
// that carry a rank identity in their body (agreement votes, state
// targets) speak arank; the wire's Src/Dst stay physical.
func (e *engine) arank() int { return e.w.logicalOf(e.rank) }

// --- liveness -------------------------------------------------------------

// checkAlive panics with the fail-stop sentinel if this rank was killed.
// Every user-facing operation calls it first, so a killed rank unwinds at
// its next MPI call. The flags are atomics, so this check never contends
// with the matching lock.
func (e *engine) checkAlive() {
	if e.dead.Load() {
		panic(killedPanic{rank: e.rank})
	}
	if e.w.aborted.Load() {
		panic(abortPanic{code: e.w.abortCode()})
	}
}

// die fail-stops this rank from its own goroutine: registers the death
// with the perfect failure detector (which notifies every other engine)
// and unwinds the goroutine. It does not return.
func (e *engine) die() {
	e.w.registry.Kill(e.rank) // subscriber marks us dead and notifies peers
	panic(killedPanic{rank: e.rank})
}

// markDead flips the engine's dead flag and wakes all waiters. Called by
// the registry subscriber (for both self-kills and external kills).
func (e *engine) markDead() {
	e.mu.Lock()
	e.dead.Store(true)
	e.wakeParkedLocked()
	e.mu.Unlock()
	e.downOne.Do(func() { close(e.downCh) })
	e.dropHeld(trace.DeadDrop)
}

// markClosed wakes any lingering internal waiters at world teardown.
func (e *engine) markClosed() {
	e.mu.Lock()
	e.closed.Store(true)
	e.wakeParkedLocked()
	e.mu.Unlock()
	e.downOne.Do(func() { close(e.downCh) })
	e.dropHeld(trace.FramePurged)
}

// parkLocked blocks the calling Wait or Waitany on ch, with mu released,
// until a completion, fail-stop, teardown or abort pokes it. ch sits in
// the parked list for exactly that time. Caller holds mu, and holds it
// again on return.
func (e *engine) parkLocked(ch chan struct{}) {
	e.parked = append(e.parked, ch)
	e.mu.Unlock()
	<-ch
	e.mu.Lock()
	for i, p := range e.parked {
		if p == ch {
			last := len(e.parked) - 1
			e.parked[i] = e.parked[last]
			e.parked[last] = nil
			e.parked = e.parked[:last]
			return
		}
	}
}

// wakeParkedLocked pokes every parked waiter, which then re-checks the
// dead, closed and aborted flags. Caller holds mu and has set the flag.
func (e *engine) wakeParkedLocked() {
	for _, ch := range e.parked {
		poke(ch)
	}
}

// agreeBumpLocked wakes agreement waiters by closing the generation
// channel; a change nobody waits for costs nothing. Caller holds mu.
func (e *engine) agreeBumpLocked() {
	if e.agreeCh != nil {
		close(e.agreeCh)
		e.agreeCh = nil
	}
}

// agreeWaitLocked returns the channel the next agreeBumpLocked closes.
// Caller holds mu.
func (e *engine) agreeWaitLocked() chan struct{} {
	if e.agreeCh == nil {
		e.agreeCh = make(chan struct{})
	}
	return e.agreeCh
}

// --- failure notification --------------------------------------------------

// onPeerFailure records that world rank f has failed and fails the posted
// receives that can no longer complete: receives posted directly to f, and
// AnySource receives on communicators where f is an unrecognized member
// (paper Section II).
func (e *engine) onPeerFailure(f int) {
	e.mu.Lock()
	if e.knownFailed[f] {
		e.mu.Unlock()
		return
	}
	// A delayed notification can outlive the incarnation it reports: with
	// elastic respawn the slot may already be alive again at a higher
	// generation, and marking it failed now would never be repaired
	// (onPeerRevive already ran). Checked under e.mu so a concurrent
	// revive cannot interleave between the check and the write. The sweep
	// below still runs even then: requests and state fetches aimed at the
	// dead incarnation were generation-fenced, so nothing will ever
	// complete them — a FetchState that raced the respawn would otherwise
	// block forever — and the app's recovery path re-issues them against
	// the reincarnation.
	revived := !e.w.appFailed(f)
	if !revived {
		e.knownFailed[f] = true
	}
	// doomed classifies a posted receive that can no longer complete and
	// picks the Status.Source the old linear sweep reported for it.
	doomed := func(r *Request) (int, bool) {
		switch {
		case r.srcWorld == f && !r.comm.recognizedLocked(f):
			return r.comm.rankOf(f), true
		case r.srcWorld == AnySource && r.comm.memberUnrecognizedLocked(f):
			return AnySource, true
		case r.ctx == r.comm.ctxInternal && r.comm.collMemberLocked(f):
			// Section II: once any rank fails, ALL collective operations
			// on the communicator return an error until it is repaired —
			// including collectives already in flight. Without this, a
			// rank blocked mid-collective on an ALIVE peer that errored
			// at the entry gate would wait forever.
			return r.comm.rankOf(f), true
		}
		return 0, false
	}
	victims := e.posted.collect(func(r *Request) bool {
		_, bad := doomed(r)
		return bad
	})
	for _, r := range victims {
		src, _ := doomed(r)
		r.completeLocked(failStop(f), Status{Source: src, Tag: r.tag}, nil)
	}
	// State fetches directed at the dead rank can never be answered.
	for id, sw := range e.stateWaiters {
		if sw.target == f {
			delete(e.stateWaiters, id)
			sw.ch <- stateReply{err: failStop(f)} // buffered, never blocks
		}
	}
	if !revived {
		e.agree.viewSeq++
		e.agreeBumpLocked() // agreement waiters watch knownFailed, unchanged above
	}
	e.mu.Unlock()
}

// onPeerRevive repairs this engine's view after world rank p rejoined at a
// new generation: the failure notification is withdrawn, recognition of
// the old incarnation is cleared (sends to the new one must flow again),
// and p is re-admitted to collective membership on every communicator that
// contains it. Survivors re-admit deterministically in communicator-rank
// order, and they all start from the same agreed collective membership, so
// the repaired memberships match without another agreement round.
func (e *engine) onPeerRevive(p int) {
	e.mu.Lock()
	if p >= 0 && p < len(e.knownFailed) {
		e.knownFailed[p] = false
	}
	for _, c := range e.comms {
		if c.rankOf(p) < 0 {
			continue
		}
		delete(c.recognized, p)
		c.setCollMembersLocked(func(wr int) bool { return wr == p || c.collMemberLocked(wr) })
	}
	e.agree.viewSeq++
	e.agreeBumpLocked()
	e.mu.Unlock()
}

// knownFailedSnapshot returns the world ranks this engine has been
// notified about.
func (e *engine) knownFailedSnapshot() []int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.knownFailedSnapshotLocked()
}

func (e *engine) knownFailedSnapshotLocked() []int {
	var out []int
	for r, f := range e.knownFailed {
		if f {
			out = append(out, r)
		}
	}
	return out
}

// --- delivery and matching --------------------------------------------------

// staleGen reports whether the packet was stamped for (or by) a different
// incarnation than the ones currently installed. Generation 0 means
// "unstamped" (frames from fabrics or tests that predate elastic worlds)
// and is always accepted. A replicated data message belongs to its
// logical sender, not to the replica incarnation that sent the copy: a
// dead replica's last copy may arrive after its slot was refilled, its
// sender group may count it delivered already, and RepSeq drops it if
// this replica holds it.
func (e *engine) staleGen(pkt *transport.Packet) (bool, string) {
	if pkt.DstGen != 0 && pkt.DstGen != e.gen {
		return true, fmt.Sprintf("dstgen=%d have=%d", pkt.DstGen, e.gen)
	}
	if pkt.SrcGen != 0 && pkt.Src >= 0 && pkt.Src < e.w.size && pkt.RepSeq == 0 {
		if g := e.w.genOf(pkt.Src); pkt.SrcGen != g {
			return true, fmt.Sprintf("srcgen=%d current=%d", pkt.SrcGen, g)
		}
	}
	return false, ""
}

// deliver accepts an inbound packet. It runs on the sender's goroutine
// (Local fabric) or a fabric reader goroutine (TCP), never on this rank's
// own goroutine while it holds mu.
func (e *engine) deliver(pkt *transport.Packet) {
	// Generation fence: frames addressed to a dead incarnation of this
	// slot, or stamped by a dead incarnation of the sender, are rejected
	// before any routing — including control traffic, so a stale fence ack
	// from an old incarnation can never confirm the live new one.
	if stale, why := e.staleGen(pkt); stale {
		e.w.metrics.Inc(e.rank, metrics.StaleGenRejected)
		e.w.tracer.RecordMsg(e.rank, trace.StaleGenDrop, pkt.Src, pkt.Tag, -1, int(e.gen), pkt.Token, 0, why)
		return
	}
	if pkt.Kind == transport.KindControl {
		// Failure-detection control traffic goes to the rank's detector
		// monitor, not the matching engine — and deliberately without a
		// dead-rank guard: the monitor is the "NIC", which keeps answering
		// fence notices after the process died so a fencer across a
		// half-open link can still learn of the death.
		if m := e.w.monitor(e.rank); m != nil {
			m.OnControl(pkt.Src, detector.ControlOp(pkt.Tag), pkt.Seq, pkt.Payload)
		}
		return
	}
	if pkt.Kind == transport.KindAgreement {
		e.deliverAgreement(pkt)
		return
	}
	if pkt.Kind == transport.KindState {
		e.deliverState(pkt)
		return
	}
	e.mu.Lock()
	if e.dead.Load() || e.closed.Load() {
		e.mu.Unlock()
		if pkt.Token != 0 {
			// Accounted loss: mail to a dead letterbox. Without this the
			// conservation audit would flag every frame that raced a death.
			e.w.tracer.RecordMsg(e.rank, trace.DeadDrop, pkt.Src, pkt.Tag, -1, int(e.gen), pkt.Token, 0, "")
		}
		return // packets to a dead rank vanish
	}
	// Matching (and everything above it: posted sources, statuses, the
	// unexpected index, the trace) speaks logical ranks. In a replicated
	// world src is the sender's logical rank while pkt.Src keeps naming the
	// replica that sent it: the reliability layer retains the packet for
	// retransmission and ack bookkeeping and must not see it mutated.
	src := pkt.Src
	if e.w.repl != nil {
		src = e.w.logicalOf(pkt.Src)
	}
	var released []*transport.Packet
	if e.w.repl != nil && pkt.RepSeq != 0 {
		k := repChan{peer: src, ctx: pkt.Context, tag: pkt.Tag}
		switch e.replOrderLocked(k, pkt) {
		case replDup:
			e.mu.Unlock()
			e.w.metrics.Inc(e.rank, metrics.ReplicaDedupDrops)
			e.w.tracer.RecordMsg(e.rank, trace.ReplicaDedup, pkt.Src, pkt.Tag, -1, int(e.gen), pkt.Token, 0, "")
			return // duplicate: a copy of a message this replica holds
		case replHeld:
			e.mu.Unlock()
			return // ahead of its channel: matched when the gap fills
		}
		e.matchLocked(pkt, src)
		if len(e.rep.held) != 0 {
			released = e.releaseHeldLocked(k)
		}
	} else {
		e.matchLocked(pkt, src)
	}
	e.mu.Unlock()
	e.delivered(pkt, src)
	for _, p := range released {
		e.delivered(p, src)
	}
}

// matchLocked hands an accepted packet from the world rank src (logical
// in a replicated world) to the posted receive it matches, or queues it as
// unexpected. Caller holds mu.
func (e *engine) matchLocked(pkt *transport.Packet, src int) {
	if r := e.posted.match(pkt.Context, src, pkt.Tag); r != nil {
		e.completeRecvLocked(r, pkt, src)
	} else {
		e.unexpected.add(pkt, src)
	}
}

// delivered records that a packet from the world rank src reached this
// incarnation's matching layer. Called with no lock held.
func (e *engine) delivered(pkt *transport.Packet, src int) {
	if pkt.Token != 0 && e.w.stamps() {
		// The message reached this incarnation's matching layer: merge the
		// sender's HLC stamp (deliver orders causally after send) and close
		// the conservation-audit span. Recorded outside mu so the tracer's
		// sink never runs under the matching lock.
		hlc := e.w.clockOf(e.rank).Observe(pkt.HLC)
		e.w.tracer.RecordMsg(e.rank, trace.Delivered, src, pkt.Tag, -1, int(e.gen), pkt.Token, hlc, "")
		if pkt.HLC != 0 && e.w.obs != nil {
			e2e := time.Duration(trace.HLCPhysical(hlc)-trace.HLCPhysical(pkt.HLC)) * time.Microsecond
			if e2e >= 0 {
				e.w.obs.Observe(e.rank, obs.MessageE2ELatency, e2e)
			}
		}
	}
}

// completeRecvLocked finishes a receive with the payload of a packet from
// the world rank src (logical in a replicated world). The payload's pool
// mark rides along, so the one consumer that knows it is done with the
// bytes can give them back (Request.Release).
func (e *engine) completeRecvLocked(r *Request, pkt *transport.Packet, src int) {
	st := Status{Source: r.comm.rankOf(src), Tag: pkt.Tag, Len: len(pkt.Payload)}
	r.completeLocked(nil, st, pkt.Payload)
	r.pooled = pkt.Pooled()
	e.w.metrics.Inc(e.rank, metrics.Recvs)
	e.w.metrics.Add(e.rank, metrics.BytesRecv, int64(len(pkt.Payload)))
}

// postRecv installs a receive request: satisfy it from the unexpected
// queue if possible; otherwise fail it immediately when the source can
// never produce a message (failed unrecognized source, or AnySource with
// an unrecognized failure in the communicator); otherwise queue it. A
// replica first numbers a wildcard receive, and a standby holds back what
// waits for a wildcard pin (holdLocked).
func (e *engine) postRecv(r *Request) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.dead.Load() {
		panic(killedPanic{rank: e.rank}) // deferred unlock still runs
	}
	if e.rep != nil && e.holdLocked(r) {
		return
	}
	e.postLocked(r)
}

// postLocked is postRecv for a caller holding mu.
func (e *engine) postLocked(r *Request) {
	// An AnySource receive fails while ANY unrecognized failure exists in
	// the communicator, even if a matching message is already queued: the
	// application cannot know whether the message it would get is the one
	// the dead rank should have sent (paper Section II).
	if r.srcWorld == AnySource {
		if f, ok := r.comm.anyUnrecognizedLocked(); ok {
			r.completeLocked(failStop(f), Status{Source: AnySource, Tag: r.tag}, nil)
			return
		}
	}
	if pkt, src := e.unexpected.take(r.srcWorld, r.tag, r.ctx); pkt != nil {
		e.completeRecvLocked(r, pkt, src)
		return
	}
	// A directed receive from a known-failed, unrecognized rank can never
	// be satisfied once the queue holds no matching message: fail it now.
	if r.srcWorld >= 0 && e.knownFailed[r.srcWorld] && !r.comm.recognizedLocked(r.srcWorld) {
		r.completeLocked(failStop(r.srcWorld), Status{Source: r.comm.rankOf(r.srcWorld), Tag: r.tag}, nil)
		return
	}
	// Collective-context receives are disabled while any collective
	// participant is known failed (the Section II gate, applied to
	// receives posted after the notification raced past the entry check).
	if r.ctx == r.comm.ctxInternal {
		if f, ok := r.comm.anyCollMemberFailedLocked(); ok {
			r.completeLocked(failStop(f), Status{Source: r.comm.rankOf(f), Tag: r.tag}, nil)
			return
		}
	}
	e.posted.add(r)
}

// removePostedLocked removes a request from the posted index if present.
func (e *engine) removePostedLocked(r *Request) {
	e.posted.remove(r)
}

// stampGen stamps the packet with the sender's incarnation and the
// incarnation the sender currently believes the destination to be, arming
// the receiver-side generation fence.
func (e *engine) stampGen(pkt *transport.Packet) {
	pkt.SrcGen = e.gen
	if pkt.Dst >= 0 && pkt.Dst < e.w.size {
		pkt.DstGen = e.w.genOf(pkt.Dst)
	}
}

// sendPacket hands a fully addressed packet to the fabric, tracing and
// counting it. Must be called with no engine lock held.
//
// This is where a data message acquires its causal identity: a token
// (origin rank + per-origin sequence, owned by the World so reincarnations
// never reuse a predecessor's tokens) and the sender's HLC stamp. Both
// ride the v5 frame header, so every later event — retransmit, chaos
// fault, replica copy, delivery — carries the same identity. Replication
// pre-assigns the token its copies and replays share (Token != 0 is
// preserved).
// The HLC stamp is taken only when a tracer or obs registry is attached
// (World.stamps): nothing else reads it, and 0 means "unstamped".
func (e *engine) sendPacket(pkt *transport.Packet) error {
	e.stampGen(pkt)
	if pkt.Kind == transport.KindData && pkt.Token == 0 {
		pkt.Token = transport.MakeToken(e.rank, e.w.nextTokenSeq(e.rank))
	}
	if e.w.stamps() {
		pkt.HLC = e.w.clockOf(e.rank).Now()
	}
	e.w.metrics.Inc(e.rank, metrics.Sends)
	e.w.metrics.Add(e.rank, metrics.BytesSent, int64(len(pkt.Payload)))
	e.w.tracer.RecordMsg(e.rank, trace.SendPosted, pkt.Dst, pkt.Tag, -1, int(e.gen), pkt.Token, pkt.HLC, "")
	if e.w.obs == nil {
		return e.w.fabric.Send(pkt)
	}
	start := time.Now()
	err := e.w.fabric.Send(pkt)
	e.w.obs.Observe(e.rank, obs.SendComplete, time.Since(start))
	return err
}
