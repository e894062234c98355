// Package reliable is the reliability sublayer between the MPI engine and
// a lossy fabric: per-(src,dst) monotonic sequence numbers, receiver-side
// deduplication and in-order resequencing, per-frame acknowledgements with
// bounded exponential-backoff retransmission, and end-to-end payload CRC
// verification. It turns the chaos fabric's lossy, duplicating, corrupting
// links back into the reliable FIFO channels the matching engine assumes.
//
// Escalation is the deliberate design point: when a link's retry budget is
// exhausted the peer is reported to the failure detector as failed. A
// partitioned or hopelessly lossy link thereby degrades into exactly the
// fail-stop failure model of Hursey & Graham 2011 — the run-through
// stabilization machinery (validate_all, iteration markers, Fig. 5
// failover) takes over from there, and the run still terminates with the
// paper's semantics.
//
// An ack means "the receiver's reliability layer holds this frame and will
// deliver it in order". Upper layers that need exactly that fact subscribe
// to it instead of sending a confirmation stream of their own: the
// ack-retire callback (OnAckRetire) hands the retired packet to the upper
// layer once, when its ack removes it from the inflight table and every
// earlier frame of the link has been acked too. A frame acked ahead of a
// gap waits for the gap: the receiver holds it only behind the missing
// frame, and both are lost if the sender dies before the gap is filled.
// Replication builds its tail-ack on it: every replica's retired frame
// retires that replica from its sender group's outboxes.
//
// Retransmission is paced per link: each directional link estimates its
// round trip from the acks of frames it did not retransmit and waits
// SRTT + 4*RTTVAR before the first retry (rto.go), so a lost frame costs
// about one round trip of the link it was lost on. One goroutine serves
// the earliest deadline of all links and is parked whenever nothing is
// unacknowledged (retry.go).
//
// Locking: the links live in a directory (directory.go) that per-frame
// work reads without a lock, and every link has a mutex of its own.
// Per-frame work — a Send's sequencing, watch, an ack, a delivery,
// LinkRTO — finds its link with atomic loads and a scan of a
// rank's few peers and holds only that link's lock, so frames on
// different links share no lock and no written cache line. Creating a
// link, PeerDown, PeerUp, escalation, Close and the retry scan serialize on
// the writer mutex wmu, which no per-frame work takes. A purge publishes
// the dead flag before it touches a link and marks each purged link gone
// under the link's lock; per-frame work checks gone after taking the lock
// and treats a gone link as absent, so it sees every link whole or purged.
// The order is wmu, then one link; no path holds two link locks, and none
// holds a lock across a call out of the layer (the inner Send, the
// upstream deliver, an observer, OnAckRetire, escalate),
// because over the synchronous Local fabric those re-enter the layer on
// the same goroutine.
//
// Layering: reliable wraps chaos, which wraps the base fabric. The
// reliable fabric intentionally does NOT implement transport.NonRetaining:
// the mpi world therefore makes a defensive copy of every user payload
// before Send, which is precisely what lets this layer retain the packet
// for retransmission without another copy.
package reliable

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/transport"
)

// Options tune the retransmission machinery. Zero fields take defaults.
type Options struct {
	// RetryBase is the floor of a link's retransmission timeout (default
	// 600µs). The timeout itself is SRTT + 4*RTTVAR of the link, measured
	// from its acks; it never drops below RetryBase, and before the link
	// has a round-trip sample it is the larger of RetryBase and 2ms.
	RetryBase time.Duration
	// RetryMax caps the timeout and its exponential backoff (default
	// 50ms, raised to RetryBase if set below it).
	RetryMax time.Duration
	// MaxRetries is the retransmission budget per frame; exceeding it
	// escalates the peer to fail-stop (default 12). Retries made before
	// the frame is 2ms old are not charged, so a short timeout retries
	// sooner without declaring a stalled peer dead sooner.
	MaxRetries int
}

// withDefaults fills zero fields.
func (o Options) withDefaults() Options {
	if o.RetryBase <= 0 {
		o.RetryBase = defaultRetryBase
	}
	if o.RetryMax <= 0 {
		o.RetryMax = 50 * time.Millisecond
	}
	if o.RetryMax < o.RetryBase {
		o.RetryMax = o.RetryBase
	}
	if o.MaxRetries <= 0 {
		o.MaxRetries = 12
	}
	return o
}

// EventKind classifies a reliability event.
type EventKind int

const (
	// EvRetry is one retransmission of an unacknowledged frame.
	EvRetry EventKind = iota
	// EvReject is a frame discarded for an end-to-end payload CRC
	// mismatch; no ack is sent, so the sender retransmits the original.
	EvReject
	// EvDedup is a duplicate frame suppressed by sequence tracking.
	EvDedup
	// EvEscalate is a link whose retry budget was exhausted: the peer is
	// reported to the detector as failed.
	EvEscalate
	// EvDeadDrop is a frame silently dropped because its destination is
	// already marked fail-stop: the loss is deliberate (dead peers receive
	// nothing) and the event is what lets the trace audit account for it.
	EvDeadDrop
	// EvPurged is an inflight or partially resequenced frame abandoned when
	// a peer's link state was purged (PeerDown, PeerUp, escalation, or
	// fabric Close) — the other deliberate loss the audit must see.
	EvPurged
)

var eventNames = map[EventKind]string{
	EvRetry: "retry", EvReject: "reject", EvDedup: "dedup", EvEscalate: "escalate",
	EvDeadDrop: "dead-drop", EvPurged: "purged",
}

// String returns the event-kind name.
func (k EventKind) String() string {
	if s, ok := eventNames[k]; ok {
		return s
	}
	return fmt.Sprintf("event(%d)", int(k))
}

// Event is one reliability action, reported to the observer (the mpi
// world maps these to metrics counters and trace events). Src and Dst are
// the affected frame's link direction; Attempt is the retransmission
// ordinal for EvRetry/EvEscalate.
type Event struct {
	Kind    EventKind
	Src     int
	Dst     int
	Seq     uint64
	Attempt int
	// Token is the affected frame's causal message token (0 if unstamped),
	// threading the trace layer's message identity through every ARQ
	// action so lifecycles and the conservation audit line up.
	Token uint64
	// Backoff is the wait until the next retransmission for EvRetry
	// events (zero otherwise): the link's timeout, doubled per retry, so
	// observers can histogram the ARQ's pacing.
	Backoff time.Duration
}

// String renders the event for logs.
func (e Event) String() string {
	return fmt.Sprintf("%s %d->%d seq=%d attempt=%d", e.Kind, e.Src, e.Dst, e.Seq, e.Attempt)
}

// pending is one unacknowledged outbound frame. It lives by value in
// txLink.inflight, so recording a frame allocates nothing. Times are
// readings of Fabric.now.
type pending struct {
	pkt       *transport.Packet
	sentAt    int64         // first transmission
	nextRetry int64         // when the next retransmission is due
	backoff   time.Duration // wait applied after the latest retry, 0 before the first
	attempts  int32         // retransmissions so far
	charged   int32         // those of them counted against MaxRetries
	// watched: Send found the frame unacknowledged after the inner Send
	// and counted it in retryState.watched.
	watched bool
}

// A link's late score says how its recent Sends ended: it goes up by one
// (to lateMax) when a Send returns with its frame still unacknowledged and
// down by one when the ack came back inside the inner Send. At lateAsync
// the link counts as asynchronous: being unacknowledged after Send is its
// normal state and says nothing about loss. The margin keeps a lossy
// synchronous link (a few late Sends in a hundred) and a loaded TCP link
// (the odd ack that overtakes a descheduled sender) in their class.
const (
	lateMax   = 16
	lateAsync = 8
)

// txLink is the sender half of one directional link. Its fields are
// guarded by mu.
type txLink struct {
	mu       sync.Mutex
	peer     int  // the destination; fixed
	gone     bool // purged: the link is out of the directory, treat it as absent
	nextSeq  uint64
	inflight map[uint64]pending
	// unacked is len(inflight), readable without a lock: Send looks at it
	// after the inner Send to learn whether the ack already came back.
	unacked atomic.Int32
	// late is the link's late score (see lateAsync). Only Send writes it,
	// outside the lock; two Sends racing on one link may lose a step.
	late atomic.Int32
	rtt  rttEstimator
	// timedSeq is the frame whose ack will give the next round-trip
	// sample (0 = none). One frame is timed at a time, so with a window of
	// frames in flight most acks read no clock.
	timedSeq uint64
	// retired is the link's ack-retire watermark: every frame up to it
	// went to the ack-retire callback. early holds the frames acked ahead
	// of a gap, until the gap is acked. Both stay zero without a callback.
	retired uint64
	early   map[uint64]*transport.Packet
}

// rxLink is the receiver half: frames are deduplicated against next and
// held, and delivered upstream strictly in sequence order. Locked like
// txLink.
type rxLink struct {
	mu       sync.Mutex
	peer     int    // the source; fixed
	gone     bool   // purged, as txLink.gone
	next     uint64 // the next sequence number to deliver upstream
	held     map[uint64]*transport.Packet
	draining bool // one goroutine at a time delivers, preserving order
}

// Fabric is the reliability sublayer. Wrap it around a (possibly chaotic)
// fabric and hand it to the mpi world like any other fabric.
type Fabric struct {
	inner   transport.Fabric
	opts    Options
	deliver transport.DeliverFunc

	// escalate, if set (before Start), is invoked — without any fabric
	// lock held — when a link's retry budget is exhausted. The mpi world
	// wires it to the failure detector's Kill.
	escalate func(peer int)
	// onEvent, if set (before Start), observes every reliability action.
	onEvent func(Event)
	// onAckRetire, if set (before Start), receives every frame an ack
	// removes from the inflight table: exactly once per frame, in the
	// link's sequence order, with no fabric lock held, and never for a
	// frame that was purged instead (PeerDown, PeerUp, escalation, Close)
	// or acked ahead of a gap the purge left open. The packet is the one
	// handed to Send and is read-only. The callback must not re-enter the
	// fabric.
	onAckRetire func(pkt *transport.Packet)

	// now reads a monotonic clock in nanoseconds. Tests replace it before
	// Start to drive the estimator and the backoff schedule by hand.
	now func() int64

	wmu sync.Mutex // serializes the directory's writers; see the package comment
	dir atomic.Pointer[directory]

	retry retryState

	done    chan struct{}
	closing sync.Once
	wg      sync.WaitGroup
}

// Wrap builds a reliability fabric over inner.
func Wrap(inner transport.Fabric, opts Options) *Fabric {
	epoch := time.Now()
	f := &Fabric{
		inner: inner,
		opts:  opts.withDefaults(),
		now:   func() int64 { return int64(time.Since(epoch)) },
		done:  make(chan struct{}),
	}
	f.dir.Store(&directory{})
	f.retry.init()
	return f
}

// Escalate registers the retry-exhaustion callback. Call before Start.
func (f *Fabric) Escalate(fn func(peer int)) { f.escalate = fn }

// Observe registers a reliability-event observer. Call before Start; the
// callback must not re-enter the fabric.
func (f *Fabric) Observe(fn func(Event)) { f.onEvent = fn }

// OnAckRetire registers the ack-retire callback. Call before Start.
func (f *Fabric) OnAckRetire(fn func(pkt *transport.Packet)) { f.onAckRetire = fn }

// ackPool recycles ack packets. sendAck may release one as soon as the
// inner Send returns because no fabric keeps an ack's pointer past that
// point: Local delivers synchronously into the peer's onDeliver, which
// keeps nothing of an ack; chaos and Latency clone what they hold back;
// TCP encodes inside Send.
var ackPool = sync.Pool{New: func() any { return new(transport.Packet) }}

// sendAck acknowledges frame seq of the link src -> dst (the ack travels
// dst -> src).
func (f *Fabric) sendAck(src, dst int, seq uint64) {
	ack := ackPool.Get().(*transport.Packet)
	*ack = transport.Packet{Src: dst, Dst: src, Kind: transport.KindAck, Seq: seq}
	_ = f.inner.Send(ack)
	ackPool.Put(ack)
}

// Inner returns the wrapped fabric.
func (f *Fabric) Inner() transport.Fabric { return f.inner }

// Start starts the wrapped fabric with this layer's receive path spliced
// in, and launches the retransmission loop.
func (f *Fabric) Start(deliver transport.DeliverFunc) error {
	if deliver == nil {
		return fmt.Errorf("reliable: nil delivery callback")
	}
	f.deliver = deliver
	if err := f.inner.Start(f.onDeliver); err != nil {
		return err
	}
	f.wg.Add(1)
	go f.retryLoop()
	return nil
}

// Close stops the retransmission loop (abandoning unacknowledged frames)
// and closes the wrapped fabric. Every abandoned frame is reported as
// purged so the trace audit can account for sends the shutdown stranded.
func (f *Fabric) Close() error {
	f.closing.Do(func() { close(f.done) })
	f.wg.Wait()
	all := func(int, int) bool { return true }
	f.wmu.Lock()
	purged := f.purgeLocked(nil, all, all)
	f.wmu.Unlock()
	for _, ev := range purged {
		f.emit(ev)
	}
	return f.inner.Close()
}

// emit reports a reliability event to the observer.
func (f *Fabric) emit(e Event) {
	if f.onEvent != nil {
		f.onEvent(e)
	}
}

// emitFrame reports an event about the frame pkt sent towards dst. Send and
// onDeliver nest over the synchronous Local fabric (a delivery sends, which
// delivers), so what they keep in their frames is paid once per level in
// the stack growth of every new rank; the Event is built in a frame of its
// own for that reason, and the compiler is told to leave it there.
//
//go:noinline
func (f *Fabric) emitFrame(kind EventKind, dst int, seq uint64, pkt *transport.Packet) {
	f.emit(Event{Kind: kind, Src: pkt.Src, Dst: dst, Seq: seq, Token: pkt.Token})
}

// PeerDown purges all state toward and from a failed peer: inflight
// frames stop retrying in both directions (frames TO the peer have a dead
// destination — fail-stop, not lossy — and frames FROM it die with the
// sender: a dead process retransmits nothing, and letting its orphaned
// ARQ state exhaust its budget would escalate — kill — the innocent
// receiver). Partially resequenced inbound state is released. The mpi
// world calls it from its detector subscription.
func (f *Fabric) PeerDown(rank int) {
	f.wmu.Lock()
	purged := f.peerDownLocked(nil, rank)
	f.wmu.Unlock()
	for _, ev := range purged {
		f.emit(ev)
	}
}

// peerDownLocked is PeerDown with f.wmu held: the dead flag goes up before
// any link is purged, so per-frame work that finds a purged link and looks
// again sees the peer dead.
func (f *Fabric) peerDownLocked(evs []Event, rank int) []Event {
	f.growLocked(rank).ranks[rank].dead.Store(true)
	return f.purgeLocked(evs,
		func(src, dst int) bool { return src == rank || dst == rank },
		func(src, _ int) bool { return src == rank })
}

// PeerUp reverses PeerDown for a revived peer: the dead flag is cleared
// and every sequencing link touching the slot — both tx directions AND
// both rx directions — is purged so all four restart from sequence 1 with
// the new incarnation. (PeerDown leaves the rx state of links *toward*
// the dead peer in place, since a dead destination sees no new frames; a
// reincarnation reusing the slot would have its fresh seq=1 frames
// deduplicated against that stale watermark.) Stale frames from the old
// incarnation that the restarted links would re-accept are rejected one
// layer up by the engine's generation fence — which is why callers must
// install the slot's new-generation engine (arming that fence) BEFORE
// calling PeerUp: purging rx dedup while the fence still reports the old
// generation would let such a frame be re-accepted.
func (f *Fabric) PeerUp(rank int) {
	touches := func(src, dst int) bool { return src == rank || dst == rank }
	f.wmu.Lock()
	r := f.growLocked(rank).ranks[rank]
	purged := f.purgeLocked(nil, touches, touches)
	r.dead.Store(false)
	f.wmu.Unlock()
	for _, ev := range purged {
		f.emit(ev)
	}
}

// Send stamps the packet with the link's next sequence number and its
// end-to-end payload CRC, records it for retransmission, and forwards it.
// The packet (header and payload) is retained until acknowledged; callers
// must not mutate it after Send — the mpi world guarantees this by
// copying user buffers (the fabric is not NonRetaining).
func (f *Fabric) Send(pkt *transport.Packet) error {
	select {
	case <-f.done:
		return nil
	default:
	}
	if pkt.Kind == transport.KindControl {
		// Failure-detection control traffic is the liveness signal: it
		// bypasses ARQ (no sequencing, no retransmission — a lost ping is
		// itself information) and ignores this layer's dead-peer bookkeeping,
		// because the detector, not the ARQ, owns liveness verdicts.
		return f.inner.Send(pkt)
	}
	pkt.Crc = transport.PayloadCrc(pkt.Payload)
	now := f.now()
	tx := f.lockTx(pkt.Src, pkt.Dst)
	if tx == nil {
		// Fail-stop peer: silent drop per the Fabric contract, but
		// observable — the trace audit accounts the message as mail to a
		// known-dead destination rather than an unexplained loss.
		f.emitFrame(EvDeadDrop, pkt.Dst, 0, pkt)
		return nil
	}
	tx.nextSeq++
	pkt.Seq = tx.nextSeq
	tx.inflight[pkt.Seq] = pending{pkt: pkt, sentAt: now, nextRetry: now + int64(f.rtoLocked(tx))}
	if tx.timedSeq == 0 {
		tx.timedSeq = pkt.Seq
	}
	tx.unacked.Add(1)
	tx.mu.Unlock()
	err := f.inner.Send(pkt)
	// Over a synchronous fabric the ack has already retired the frame, so
	// a clean hop ends here and the retry goroutine stays parked. A frame
	// still unacknowledged was lost, or travels an asynchronous fabric:
	// the retry goroutine has to watch its deadline.
	late := tx.late.Load()
	if tx.unacked.Load() == 0 {
		if late > 0 {
			tx.late.Store(late - 1)
		}
		return err
	}
	if late < lateMax {
		tx.late.Store(late + 1)
	}
	f.watch(tx, pkt.Seq, late < lateAsync)
	return err
}

// watch hands the frame seq of tx to the retry goroutine, unless its ack
// arrived meanwhile (or a purge took it). On a synchronous link the frame
// is probably lost and its deadline is kept to the microsecond; on an
// asynchronous one the ack is probably on its way and the deadline is left
// to a timer.
func (f *Fabric) watch(tx *txLink, seq uint64, precise bool) {
	tx.mu.Lock()
	p, inflight := tx.inflight[seq]
	if inflight {
		p.watched = true
		tx.inflight[seq] = p
		f.retry.watched.Add(1)
	}
	tx.mu.Unlock()
	if inflight {
		f.retry.serve(p.nextRetry, precise)
	}
}

// onAck retires the frame an ack names from its link's inflight table and
// hands it, and any frame acked early that it was the gap of, to the
// ack-retire callback. It is a function of its own to keep its locals out
// of onDeliver's frame: over the synchronous Local fabric deliveries nest
// (a delivery sends, which delivers), and every byte of that frame is
// paid once per level in stack growth of a new rank.
func (f *Fabric) onAck(ack *transport.Packet) {
	var retired *transport.Packet
	var behind []*transport.Packet
	if tx := f.findTx(ack.Dst, ack.Src); tx != nil {
		// Only the ack that finds the frame inflight retires it: a
		// duplicate or late ack finds nothing and reports nothing.
		if p, ok := tx.inflight[ack.Seq]; ok {
			delete(tx.inflight, ack.Seq)
			tx.unacked.Add(-1)
			if p.watched {
				f.retry.watched.Add(-1)
			}
			if ack.Seq == tx.timedSeq {
				tx.timedSeq = 0
				// Karn's rule: the ack of a retransmitted frame may
				// answer any of its copies, so it times nothing.
				if p.attempts == 0 {
					tx.rtt.observe(time.Duration(f.now() - p.sentAt))
				}
			}
			if f.onAckRetire != nil {
				retired, behind = tx.retireLocked(ack.Seq, p.pkt)
			}
		}
		tx.mu.Unlock()
	}
	if retired != nil {
		f.onAckRetire(retired)
		for _, pkt := range behind {
			f.onAckRetire(pkt)
		}
	}
}

// retireLocked advances the ack-retire watermark over the frame seq just
// acked: it returns the frame, and the early frames it was the gap of, if
// every earlier frame is acked, and keeps it in early otherwise. Every
// frame up to nextSeq is inflight until acked, so seq is next in order
// exactly when it follows the watermark. Caller holds the link locked.
func (tx *txLink) retireLocked(seq uint64, pkt *transport.Packet) (*transport.Packet, []*transport.Packet) {
	if seq != tx.retired+1 {
		if tx.early == nil {
			tx.early = make(map[uint64]*transport.Packet)
		}
		tx.early[seq] = pkt
		return nil, nil
	}
	tx.retired = seq
	var behind []*transport.Packet
	for p := tx.early[seq+1]; p != nil; p = tx.early[tx.retired+1] {
		delete(tx.early, tx.retired+1)
		tx.retired++
		behind = append(behind, p)
	}
	return pkt, behind
}

// What rxLink.admit decided about a frame; every frame is acked.
const (
	rxHold    = iota // fresh, held for whoever drains
	rxDup            // a duplicate: report it and deliver nothing
	rxDeliver        // next in order and nobody draining: deliver it now
)

// admit decides everything about an arriving frame in one critical
// section: duplicate or fresh, delivered now or held for whoever drains.
// Callers hold the link locked.
func (rx *rxLink) admit(pkt *transport.Packet) int {
	seq := pkt.Seq
	if seq < rx.next || rx.held[seq] != nil {
		return rxDup
	}
	if seq != rx.next || rx.draining {
		rx.held[seq] = pkt // the draining goroutine will deliver it in order
		return rxHold
	}
	rx.next++
	rx.draining = true
	return rxDeliver
}

// drain delivers the frames held behind one just delivered, in order,
// until the next one is missing. The caller set rx.draining.
func (f *Fabric) drain(rx *rxLink, dst int) {
	for {
		rx.mu.Lock()
		p := rx.held[rx.next]
		if p == nil {
			rx.draining = false
		} else {
			delete(rx.held, rx.next)
			rx.next++
		}
		rx.mu.Unlock()
		if p == nil {
			return
		}
		f.deliver(dst, p)
	}
}

// onDeliver is the receive path: acks retire inflight frames; sequenced
// frames are CRC-checked, acknowledged, deduplicated, and released
// upstream strictly in order. No lock is held while calling the inner
// Send (the ack) or the upstream deliver — over the synchronous Local
// fabric both re-enter this layer on the same goroutine.
func (f *Fabric) onDeliver(dst int, pkt *transport.Packet) {
	if pkt.Kind == transport.KindControl {
		// Control frames carry the probe sequence in Seq, not an ARQ
		// sequence: pass them up before any sequencing or dead-peer check
		// (a "dead" verdict here may be exactly what the detector is busy
		// disproving or confirming).
		f.deliver(dst, pkt)
		return
	}
	if pkt.Kind == transport.KindAck {
		f.onAck(pkt)
		return
	}
	if pkt.Seq == 0 {
		f.deliver(dst, pkt) // unsequenced traffic passes through
		return
	}
	if transport.PayloadCrc(pkt.Payload) != pkt.Crc {
		// Corrupted above the wire codec (or a codec-less fabric). No ack:
		// the sender's retransmission carries the intact original.
		f.emitFrame(EvReject, dst, pkt.Seq, pkt)
		return
	}
	rx := f.lockRx(pkt.Src, dst)
	if rx == nil {
		return // straggler from a fail-stop peer
	}
	v := rx.admit(pkt)
	rx.mu.Unlock()
	// Ack before anything else: re-acking a duplicate is what stops the
	// retries, and a lost ack of a fresh frame is repaired when its
	// retransmission arrives as a duplicate.
	f.sendAck(pkt.Src, dst, pkt.Seq)
	switch v {
	case rxDup:
		f.emitFrame(EvDedup, dst, pkt.Seq, pkt)
	case rxDeliver:
		f.deliver(dst, pkt)
		f.drain(rx, dst)
	}
}
