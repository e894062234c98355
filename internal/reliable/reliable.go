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
// Layering: reliable wraps chaos, which wraps the base fabric. The
// reliable fabric intentionally does NOT implement transport.NonRetaining:
// the mpi world therefore makes a defensive copy of every user payload
// before Send, which is precisely what lets this layer retain the packet
// for retransmission without another copy.
package reliable

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/transport"
)

// Options tune the retransmission machinery. Zero fields take defaults.
type Options struct {
	// RetryBase is the first retransmission backoff (default 2ms).
	RetryBase time.Duration
	// RetryMax caps the exponential backoff (default 50ms).
	RetryMax time.Duration
	// MaxRetries is the retransmission budget per frame; exceeding it
	// escalates the peer to fail-stop (default 12).
	MaxRetries int
	// Tick is the retry scan interval (default 1ms).
	Tick time.Duration
}

// withDefaults fills zero fields.
func (o Options) withDefaults() Options {
	if o.RetryBase <= 0 {
		o.RetryBase = 2 * time.Millisecond
	}
	if o.RetryMax <= 0 {
		o.RetryMax = 50 * time.Millisecond
	}
	if o.MaxRetries <= 0 {
		o.MaxRetries = 12
	}
	if o.Tick <= 0 {
		o.Tick = time.Millisecond
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
	// Backoff is the retransmission backoff applied for EvRetry events
	// (zero otherwise), so observers can histogram the ARQ's pacing.
	Backoff time.Duration
}

// String renders the event for logs.
func (e Event) String() string {
	return fmt.Sprintf("%s %d->%d seq=%d attempt=%d", e.Kind, e.Src, e.Dst, e.Seq, e.Attempt)
}

// ackKey identifies one acknowledgement owed on a directional link: the
// sender, the receiver, and the ARQ sequence number of the frame whose
// ack is being withheld by the ack gate.
type ackKey struct {
	src, dst int
	seq      uint64
}

// pending is one unacknowledged outbound frame. It lives by value in
// txLink.inflight, so recording a frame allocates nothing.
type pending struct {
	pkt       *transport.Packet
	attempts  int
	nextRetry time.Time
}

// txLink is the sender half of one directional link.
type txLink struct {
	nextSeq  uint64
	inflight map[uint64]pending
}

// rxLink is the receiver half: frames are deduplicated against next and
// held, and delivered upstream strictly in sequence order.
type rxLink struct {
	next     uint64 // the next sequence number to deliver upstream
	held     map[uint64]*transport.Packet
	draining bool // one goroutine at a time drains held, preserving order
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

	mu       sync.Mutex
	tx       map[[2]int]*txLink
	rx       map[[2]int]*rxLink
	dead     map[int]bool // peers purged by PeerDown or escalation
	deferred map[ackKey]struct{}

	done    chan struct{}
	closing sync.Once
	wg      sync.WaitGroup
}

// Wrap builds a reliability fabric over inner.
func Wrap(inner transport.Fabric, opts Options) *Fabric {
	return &Fabric{
		inner:    inner,
		opts:     opts.withDefaults(),
		tx:       make(map[[2]int]*txLink),
		rx:       make(map[[2]int]*rxLink),
		dead:     make(map[int]bool),
		deferred: make(map[ackKey]struct{}),
		done:     make(chan struct{}),
	}
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
	key := ackKey{src: src, dst: dst, seq: seq}
	f.mu.Lock()
	_, owed := f.deferred[key]
	delete(f.deferred, key)
	f.mu.Unlock()
	if owed {
		f.sendAck(src, dst, seq)
	}
}

// dropDeferredLocked discards deferred acks touching rank in either
// direction. Callers hold f.mu. The sender-side inflight state those acks
// would have retired is purged by the same PeerDown/PeerUp call, so no
// retransmission can be stranded by the dropped entries.
func (f *Fabric) dropDeferredLocked(rank int) {
	for key := range f.deferred {
		if key.src == rank || key.dst == rank {
			delete(f.deferred, key)
		}
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
	f.deferred = make(map[ackKey]struct{})
	var purged []Event
	for key, tx := range f.tx {
		purged = f.appendTxPurges(purged, key, tx)
		delete(f.tx, key)
	}
	for key, rx := range f.rx {
		purged = f.appendRxPurges(purged, key, rx)
		delete(f.rx, key)
	}
	f.mu.Unlock()
	for _, ev := range purged {
		f.emit(ev)
	}
	return f.inner.Close()
}

// appendTxPurges collects one EvPurged per unacknowledged frame of a tx
// link being discarded. Callers hold f.mu; the events must be emitted
// after it is released.
func (f *Fabric) appendTxPurges(evs []Event, key [2]int, tx *txLink) []Event {
	for seq, p := range tx.inflight {
		evs = append(evs, Event{
			Kind: EvPurged, Src: key[0], Dst: key[1],
			Seq: seq, Attempt: p.attempts, Token: p.pkt.Token,
		})
	}
	return evs
}

// appendRxPurges collects one EvPurged per acknowledged-but-undelivered
// frame of an rx link being discarded (held for resequencing when the
// link state died). Callers hold f.mu.
func (f *Fabric) appendRxPurges(evs []Event, key [2]int, rx *rxLink) []Event {
	for seq, p := range rx.held {
		evs = append(evs, Event{
			Kind: EvPurged, Src: key[0], Dst: key[1], Seq: seq, Token: p.Token,
		})
	}
	return evs
}

// emit reports a reliability event to the observer.
func (f *Fabric) emit(e Event) {
	if f.onEvent != nil {
		f.onEvent(e)
	}
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
	f.dropDeferredLocked(rank)
	var purged []Event
	for key, tx := range f.tx {
		if key[1] == rank || key[0] == rank {
			purged = f.appendTxPurges(purged, key, tx)
			delete(f.tx, key)
		}
	}
	for key, rx := range f.rx {
		if key[0] == rank {
			purged = f.appendRxPurges(purged, key, rx)
			delete(f.rx, key)
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
	f.dropDeferredLocked(rank)
	var purged []Event
	for key, tx := range f.tx {
		if key[0] == rank || key[1] == rank {
			purged = f.appendTxPurges(purged, key, tx)
			delete(f.tx, key)
		}
	}
	for key, rx := range f.rx {
		if key[0] == rank || key[1] == rank {
			purged = f.appendRxPurges(purged, key, rx)
			delete(f.rx, key)
		}
	}
	f.mu.Unlock()
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
	f.mu.Lock()
	if f.dead[pkt.Dst] {
		f.mu.Unlock()
		// Fail-stop peer: silent drop per the Fabric contract, but
		// observable — the trace audit accounts the message as mail to a
		// known-dead destination rather than an unexplained loss.
		f.emit(Event{Kind: EvDeadDrop, Src: pkt.Src, Dst: pkt.Dst, Token: pkt.Token})
		return nil
	}
	key := [2]int{pkt.Src, pkt.Dst}
	tx := f.tx[key]
	if tx == nil {
		tx = &txLink{inflight: make(map[uint64]pending)}
		f.tx[key] = tx
	}
	tx.nextSeq++
	pkt.Seq = tx.nextSeq
	pkt.Crc = transport.PayloadCrc(pkt.Payload)
	tx.inflight[pkt.Seq] = pending{pkt: pkt, nextRetry: time.Now().Add(f.opts.RetryBase)}
	f.mu.Unlock()
	return f.inner.Send(pkt)
}

// onDeliver is the receive path: acks retire inflight frames; sequenced
// frames are CRC-checked, acknowledged, deduplicated, and released
// upstream strictly in order. No fabric lock is held while calling the
// inner Send (the ack) or the upstream deliver — over the synchronous
// Local fabric both re-enter this layer on the same goroutine.
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
		var retired *transport.Packet
		f.mu.Lock()
		if tx := f.tx[[2]int{pkt.Dst, pkt.Src}]; tx != nil {
			// Only the ack that finds the frame inflight retires it: a
			// duplicate or late ack finds nothing and reports nothing.
			retired = tx.inflight[pkt.Seq].pkt
			delete(tx.inflight, pkt.Seq)
		}
		f.mu.Unlock()
		if retired != nil && f.onAckRetire != nil {
			f.onAckRetire(retired)
		}
		return
	}
	if pkt.Seq == 0 {
		f.deliver(dst, pkt) // unsequenced traffic passes through
		return
	}
	if transport.PayloadCrc(pkt.Payload) != pkt.Crc {
		// Corrupted above the wire codec (or a codec-less fabric). No ack:
		// the sender's retransmission carries the intact original.
		f.emit(Event{Kind: EvReject, Src: pkt.Src, Dst: dst, Seq: pkt.Seq, Token: pkt.Token})
		return
	}
	// The ack gate runs before any lock: it may consult upper-layer state
	// (replication group shape) but must not re-enter the fabric.
	gated := f.ackGate != nil && f.ackGate(dst, pkt)
	akey := ackKey{src: pkt.Src, dst: dst, seq: pkt.Seq}

	key := [2]int{pkt.Src, dst}
	f.mu.Lock()
	if f.dead[pkt.Src] {
		f.mu.Unlock()
		return // straggler from a fail-stop peer
	}
	rx := f.rx[key]
	if rx == nil {
		rx = &rxLink{next: 1, held: make(map[uint64]*transport.Packet)}
		f.rx[key] = rx
	}
	dup := pkt.Seq < rx.next || rx.held[pkt.Seq] != nil
	withhold := false
	if dup {
		// A retransmission. Normally re-acked (the previous ack may have
		// been lost) — but if the original's ack is still gate-deferred,
		// stay silent: the upper layer has not released the frame yet, and
		// acking the duplicate would defeat the gate.
		_, withhold = f.deferred[akey]
	} else if gated {
		f.deferred[akey] = struct{}{}
		withhold = true
	}
	if dup {
		f.mu.Unlock()
		if !withhold {
			// Ack before anything else: re-acking is what stops the retries.
			f.sendAck(pkt.Src, dst, pkt.Seq)
		}
		f.emit(Event{Kind: EvDedup, Src: pkt.Src, Dst: dst, Seq: pkt.Seq, Token: pkt.Token})
		return
	}
	f.mu.Unlock()

	if !withhold {
		// Ack first, before delivery: a lost ack is repaired by the dup
		// path above when the retransmission arrives.
		f.sendAck(pkt.Src, dst, pkt.Seq)
	}

	f.mu.Lock()
	// Re-look up the link: a PeerDown/PeerUp between the two critical
	// sections may have purged and recreated it.
	rx = f.rx[key]
	if rx == nil {
		rx = &rxLink{next: 1, held: make(map[uint64]*transport.Packet)}
		f.rx[key] = rx
	}
	if pkt.Seq < rx.next || rx.held[pkt.Seq] != nil {
		// Raced with a concurrent delivery of the same frame between the
		// two critical sections; treat as the duplicate it is.
		f.mu.Unlock()
		f.emit(Event{Kind: EvDedup, Src: pkt.Src, Dst: dst, Seq: pkt.Seq, Token: pkt.Token})
		return
	}
	rx.held[pkt.Seq] = pkt
	if rx.draining {
		f.mu.Unlock()
		return // the draining goroutine will pick it up in order
	}
	rx.draining = true
	for {
		p := rx.held[rx.next]
		if p == nil {
			rx.draining = false
			f.mu.Unlock()
			return
		}
		delete(rx.held, rx.next)
		rx.next++
		f.mu.Unlock()
		f.deliver(dst, p)
		f.mu.Lock()
	}
}

// retryLoop periodically rescans inflight frames, retransmitting overdue
// ones with exponential backoff and escalating links whose budget is
// exhausted. Sends and escalations run outside the fabric lock.
func (f *Fabric) retryLoop() {
	defer f.wg.Done()
	ticker := time.NewTicker(f.opts.Tick)
	defer ticker.Stop()
	for {
		select {
		case <-f.done:
			return
		case now := <-ticker.C:
			var resend []*transport.Packet
			var retryEvs []Event
			var escalations []Event
			var purged []Event
			f.mu.Lock()
			for key, tx := range f.tx {
				exhausted := false
				for seq, p := range tx.inflight {
					if now.Before(p.nextRetry) {
						continue
					}
					p.attempts++
					if p.attempts > f.opts.MaxRetries {
						exhausted = true
						tx.inflight[seq] = p // the purge below reports the attempt count
						escalations = append(escalations, Event{
							Kind: EvEscalate, Src: key[0], Dst: key[1],
							Seq: seq, Attempt: p.attempts, Token: p.pkt.Token,
						})
						break
					}
					backoff := f.opts.RetryBase << (p.attempts - 1)
					if backoff > f.opts.RetryMax {
						backoff = f.opts.RetryMax
					}
					p.nextRetry = now.Add(backoff)
					tx.inflight[seq] = p
					resend = append(resend, p.pkt)
					retryEvs = append(retryEvs, Event{
						Kind: EvRetry, Src: key[0], Dst: key[1],
						Seq: seq, Attempt: p.attempts, Token: p.pkt.Token, Backoff: backoff,
					})
				}
				if exhausted {
					// The peer is being demoted to fail-stop: every frame
					// to it is undeliverable, not just the overdue one.
					// Account the abandoned inflight frames before the link
					// state vanishes (PeerDown below purges the rest).
					f.dead[key[1]] = true
					purged = f.appendTxPurges(purged, key, tx)
					delete(f.tx, key)
				}
			}
			f.mu.Unlock()
			for i, pkt := range resend {
				_ = f.inner.Send(pkt)
				f.emit(retryEvs[i])
			}
			for _, ev := range purged {
				f.emit(ev)
			}
			for _, ev := range escalations {
				f.PeerDown(ev.Dst) // purge every link touching the demoted peer
				f.emit(ev)
				if f.escalate != nil {
					f.escalate(ev.Dst)
				}
			}
		}
	}
}
