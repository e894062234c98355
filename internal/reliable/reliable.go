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
// layer once, when its ack removes it from the inflight table, and the ack
// gate (SetAckGate/ReleaseAck) lets the receiving side decide when that
// ack may be sent. Replication chain mode builds its tail-ack on the pair:
// the primary's ack is withheld until it has forwarded the frame, and
// every replica's ack retires that replica from the sender's outbox.
//
// Retransmission is paced per link: each directional link estimates its
// round trip from the acks of frames it did not retransmit and waits
// SRTT + 4*RTTVAR before the first retry (rto.go), so a lost frame costs
// about one round trip of the link it was lost on. One goroutine serves
// the earliest deadline of all links and is parked whenever nothing is
// unacknowledged (retry.go).
//
// Locking: the fabric's mu is a read-write lock over the link tables (tx,
// rx, dead), and every link has a mutex of its own. Per-frame work — a
// Send's sequencing, watch, an ack, a delivery, ReleaseAck, LinkRTO —
// holds the table lock for reading plus the one link's lock, so frames on
// different links never wait for each other. Creating a link, PeerDown,
// PeerUp, escalation, Close and the retry scan hold the table lock for
// writing, which excludes every link lock: a purge is atomic across all
// links. The order is table, then link; no path holds two link locks, and
// none holds either lock across a call out of the layer (the inner Send,
// the upstream deliver, an observer, the ack gate, OnAckRetire, escalate),
// because over the synchronous Local fabric those re-enter the layer on
// the same goroutine, where a read lock deadlocks once a writer queues.
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
// guarded by mu under the fabric's read lock, or by the write lock alone.
type txLink struct {
	mu       sync.Mutex
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
}

// rxLink is the receiver half: frames are deduplicated against next and
// held, and delivered upstream strictly in sequence order. Locked like
// txLink.
type rxLink struct {
	mu       sync.Mutex
	next     uint64 // the next sequence number to deliver upstream
	held     map[uint64]*transport.Packet
	draining bool // one goroutine at a time delivers, preserving order
	// deferred holds the frames whose acks the ack gate withholds until
	// ReleaseAck; made on the first one.
	deferred map[uint64]struct{}
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
	// ackGate, if set (before Start), is consulted for every FRESH
	// sequenced data frame before its ack is sent. Returning true defers
	// the ack: the frame is still delivered upstream, but the sender keeps
	// retransmitting until the upper layer calls ReleaseAck — replication
	// chain mode uses this to withhold the primary's hop ack until the
	// frame has been forwarded down the chain. The gate runs without any
	// fabric lock held and must not re-enter the fabric.
	ackGate func(dst int, pkt *transport.Packet) bool
	// onAckRetire, if set (before Start), receives every frame an ack
	// removes from the inflight table: exactly once per frame, with no
	// fabric lock held, and never for a frame that was purged instead
	// (PeerDown, PeerUp, escalation, Close). The packet is the one handed to
	// Send and is read-only. The callback must not re-enter the fabric.
	onAckRetire func(pkt *transport.Packet)

	// now reads a monotonic clock in nanoseconds. Tests replace it before
	// Start to drive the estimator and the backoff schedule by hand.
	now func() int64

	mu   sync.RWMutex // the link tables; see the package comment
	tx   map[[2]int]*txLink
	rx   map[[2]int]*rxLink
	dead map[int]bool // peers purged by PeerDown or escalation

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
		tx:    make(map[[2]int]*txLink),
		rx:    make(map[[2]int]*rxLink),
		dead:  make(map[int]bool),
		done:  make(chan struct{}),
	}
	f.retry.init()
	return f
}

// Escalate registers the retry-exhaustion callback. Call before Start.
func (f *Fabric) Escalate(fn func(peer int)) { f.escalate = fn }

// Observe registers a reliability-event observer. Call before Start; the
// callback must not re-enter the fabric.
func (f *Fabric) Observe(fn func(Event)) { f.onEvent = fn }

// SetAckGate registers the deferred-ack predicate. Call before Start.
func (f *Fabric) SetAckGate(fn func(dst int, pkt *transport.Packet) bool) { f.ackGate = fn }

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

// ReleaseAck sends the acknowledgement previously withheld by the ack
// gate for the frame (src -> dst, seq). It is idempotent: if no ack is
// deferred for that frame (already released, purged, or never gated) the
// call is a no-op.
func (f *Fabric) ReleaseAck(src, dst int, seq uint64) {
	owed := false
	f.mu.RLock()
	if rx := f.rx[[2]int{src, dst}]; rx != nil {
		rx.mu.Lock()
		_, owed = rx.deferred[seq]
		delete(rx.deferred, seq)
		rx.mu.Unlock()
	}
	f.mu.RUnlock()
	if owed {
		f.sendAck(src, dst, seq)
	}
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
	f.mu.Lock()
	var purged []Event
	for key, tx := range f.tx {
		purged = f.purgeTxLocked(purged, key, tx)
	}
	for key, rx := range f.rx {
		purged = f.purgeRxLocked(purged, key, rx)
	}
	f.mu.Unlock()
	for _, ev := range purged {
		f.emit(ev)
	}
	return f.inner.Close()
}

// purgeTxLocked discards a tx link — its sequence numbers, its round-trip
// estimate and its unacknowledged frames — and collects one EvPurged per
// frame. Callers hold f.mu for writing; the events must be emitted after
// it is released.
func (f *Fabric) purgeTxLocked(evs []Event, key [2]int, tx *txLink) []Event {
	for seq, p := range tx.inflight {
		evs = append(evs, Event{
			Kind: EvPurged, Src: key[0], Dst: key[1],
			Seq: seq, Attempt: int(p.attempts), Token: p.pkt.Token,
		})
		if p.watched {
			f.retry.watched.Add(-1)
		}
	}
	// A Send that is between its inner Send and its look at the link
	// still holds tx: leave it nothing to find.
	clear(tx.inflight)
	tx.unacked.Store(0)
	delete(f.tx, key)
	return evs
}

// purgeRxLocked discards an rx link — its watermark, its withheld acks and
// the frames it held for resequencing — and collects one EvPurged per held
// (acknowledged but undelivered) frame. Callers hold f.mu for writing.
func (f *Fabric) purgeRxLocked(evs []Event, key [2]int, rx *rxLink) []Event {
	for seq, p := range rx.held {
		evs = append(evs, Event{
			Kind: EvPurged, Src: key[0], Dst: key[1], Seq: seq, Token: p.Token,
		})
	}
	// A goroutine still draining the link holds rx: leave it nothing to
	// deliver, the frames are reported purged.
	clear(rx.held)
	delete(f.rx, key)
	return evs
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
	f.mu.Lock()
	f.dead[rank] = true
	var purged []Event
	for key, tx := range f.tx {
		if key[1] == rank || key[0] == rank {
			purged = f.purgeTxLocked(purged, key, tx)
		}
	}
	for key, rx := range f.rx {
		switch rank {
		case key[0]:
			purged = f.purgeRxLocked(purged, key, rx)
		case key[1]:
			// The acks the dead peer still owes would retire frames the tx
			// purge above has already reported.
			rx.deferred = nil
		}
	}
	f.mu.Unlock()
	for _, ev := range purged {
		f.emit(ev)
	}
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
	f.mu.Lock()
	delete(f.dead, rank)
	var purged []Event
	for key, tx := range f.tx {
		if key[0] == rank || key[1] == rank {
			purged = f.purgeTxLocked(purged, key, tx)
		}
	}
	for key, rx := range f.rx {
		if key[0] == rank || key[1] == rank {
			purged = f.purgeRxLocked(purged, key, rx)
		}
	}
	f.mu.Unlock()
	for _, ev := range purged {
		f.emit(ev)
	}
}

// lockTx returns the link src -> dst, creating it on first use, with f.mu
// held for reading and the link locked; or nil, with nothing held, if dst
// is dead. Only a new link takes the write lock.
func (f *Fabric) lockTx(src, dst int) *txLink {
	key := [2]int{src, dst}
	f.mu.RLock()
	for !f.dead[dst] {
		if tx := f.tx[key]; tx != nil {
			tx.mu.Lock()
			return tx
		}
		f.mu.RUnlock()
		f.mu.Lock()
		if f.tx[key] == nil && !f.dead[dst] {
			f.tx[key] = &txLink{inflight: make(map[uint64]pending)}
		}
		f.mu.Unlock()
		f.mu.RLock()
	}
	f.mu.RUnlock()
	return nil
}

// lockRx is lockTx for the receiver half of src -> dst: nil if src is
// dead, so that stragglers from a fail-stop peer are dropped.
func (f *Fabric) lockRx(src, dst int) *rxLink {
	key := [2]int{src, dst}
	f.mu.RLock()
	for !f.dead[src] {
		if rx := f.rx[key]; rx != nil {
			rx.mu.Lock()
			return rx
		}
		f.mu.RUnlock()
		f.mu.Lock()
		if f.rx[key] == nil && !f.dead[src] {
			f.rx[key] = &rxLink{next: 1, held: make(map[uint64]*transport.Packet)}
		}
		f.mu.Unlock()
		f.mu.RLock()
	}
	f.mu.RUnlock()
	return nil
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
	f.mu.RUnlock()
	err := f.inner.Send(pkt)
	// Over a synchronous fabric the ack has already retired the frame (in
	// chain mode too: the engine releases a gated ack inside delivery), so
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
	f.mu.RLock()
	tx.mu.Lock()
	p, inflight := tx.inflight[seq]
	if inflight {
		p.watched = true
		tx.inflight[seq] = p
		f.retry.watched.Add(1)
	}
	tx.mu.Unlock()
	f.mu.RUnlock()
	if inflight {
		f.retry.serve(p.nextRetry, precise)
	}
}

// onAck retires the frame an ack names from its link's inflight table and
// hands it to the ack-retire callback. It is a function of its own to keep
// its locals out of onDeliver's frame: over the synchronous Local fabric
// deliveries nest (a delivery sends, which delivers), and every byte of
// that frame is paid once per level in stack growth of a new rank.
func (f *Fabric) onAck(ack *transport.Packet) {
	var retired *transport.Packet
	f.mu.RLock()
	if tx := f.tx[[2]int{ack.Dst, ack.Src}]; tx != nil {
		tx.mu.Lock()
		// Only the ack that finds the frame inflight retires it: a
		// duplicate or late ack finds nothing and reports nothing.
		if p, ok := tx.inflight[ack.Seq]; ok {
			retired = p.pkt
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
		}
		tx.mu.Unlock()
	}
	f.mu.RUnlock()
	if retired != nil && f.onAckRetire != nil {
		f.onAckRetire(retired)
	}
}

// What rxLink.admit decided about a frame, as bits.
const (
	rxAck     = 1 << iota // acknowledge it now
	rxDup                 // a duplicate: report it and deliver nothing
	rxDeliver             // next in order and nobody draining: deliver it now
)

// admit decides everything about an arriving frame in one critical
// section: duplicate or fresh, ack sent or withheld by the gate, delivered
// now or held for whoever drains. Callers hold the link locked.
func (rx *rxLink) admit(pkt *transport.Packet, gated bool) int {
	seq := pkt.Seq
	if seq < rx.next || rx.held[seq] != nil {
		// A retransmission. Normally re-acked (the previous ack may have
		// been lost) — but if the original's ack is still gate-deferred,
		// stay silent: the upper layer has not released the frame yet, and
		// acking the duplicate would defeat the gate.
		if _, owed := rx.deferred[seq]; owed {
			return rxDup
		}
		return rxDup | rxAck
	}
	v := rxAck
	if gated {
		if rx.deferred == nil {
			rx.deferred = make(map[uint64]struct{})
		}
		rx.deferred[seq] = struct{}{}
		v = 0
	}
	if seq != rx.next || rx.draining {
		rx.held[seq] = pkt // the draining goroutine will deliver it in order
		return v
	}
	rx.next++
	rx.draining = true
	return v | rxDeliver
}

// drain delivers the frames held behind one just delivered, in order,
// until the next one is missing. The caller set rx.draining.
func (f *Fabric) drain(rx *rxLink, dst int) {
	for {
		f.mu.RLock()
		rx.mu.Lock()
		p := rx.held[rx.next]
		if p == nil {
			rx.draining = false
		} else {
			delete(rx.held, rx.next)
			rx.next++
		}
		rx.mu.Unlock()
		f.mu.RUnlock()
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
		// Control frames carry the heartbeat sequence in Seq, not an ARQ
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
	// The ack gate runs before any lock: it may consult upper-layer state
	// (replication group shape) but must not re-enter the fabric.
	gated := f.ackGate != nil && f.ackGate(dst, pkt)
	rx := f.lockRx(pkt.Src, dst)
	if rx == nil {
		return // straggler from a fail-stop peer
	}
	v := rx.admit(pkt, gated)
	rx.mu.Unlock()
	f.mu.RUnlock()
	if v&rxAck != 0 {
		// Ack before anything else: re-acking a duplicate is what stops the
		// retries, and a lost ack of a fresh frame is repaired when its
		// retransmission arrives as a duplicate.
		f.sendAck(pkt.Src, dst, pkt.Seq)
	}
	if v&rxDup != 0 {
		f.emitFrame(EvDedup, dst, pkt.Seq, pkt)
		return
	}
	if v&rxDeliver != 0 {
		f.deliver(dst, pkt)
		f.drain(rx, dst)
	}
}
