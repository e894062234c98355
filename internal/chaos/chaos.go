// Package chaos is the adversarial network layer: a composable
// transport.Fabric wrapper that injects faults — frame drop, duplication,
// delay jitter, reordering, payload corruption, and scheduled link
// partitions — from a seeded, deterministic plan.
//
// The paper's methodology (Hursey & Graham 2011, §III) is about keeping
// the ring correct when the substrate misbehaves, but the stock fabrics
// are perfect: the only fault the runtime ever sees is a clean fail-stop
// kill from internal/inject. Wrapping any fabric (Local, Latency, TCP) in
// a chaos Fabric exercises the duplicate-suppression and recovery
// machinery against *actual* lost, duplicated, and mangled frames. The
// reliability sublayer (internal/reliable) is what makes the runtime
// survive it; retry exhaustion there degrades a chaotic link into exactly
// the fail-stop failure model the paper's run-through stabilization
// already handles.
//
// Determinism: every per-frame fate is drawn from a per-link RNG seeded
// from the plan seed and the link's (src, dst), and decisions are made in
// link-local send order. Two runs issuing the same per-link send sequences
// therefore inject the same faults, and the Plan's event log replays them
// (like inject.Plan's log of fired triggers). Delivery *interleaving*
// across links stays as nondeterministic as the wrapped fabric.
package chaos

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/transport"
)

// Rates configures the per-frame fault probabilities of one link. The
// zero value injects nothing.
type Rates struct {
	// Drop is the probability a frame is silently discarded.
	Drop float64
	// Dup is the probability a frame is delivered twice.
	Dup float64
	// Corrupt is the probability of flipping 1–3 payload bits. Frames with
	// empty payloads have no bits to flip and pass unharmed.
	Corrupt float64
	// Reorder is the probability a frame is held back and delivered after
	// the link's next frame (an adjacent swap).
	Reorder float64
	// Delay is the probability a frame is held for a random duration drawn
	// uniformly from (0, Jitter]; a delayed frame may overtake later
	// frames. Ignored unless Jitter > 0.
	Delay float64
	// Jitter bounds the injected delay.
	Jitter time.Duration
}

// active reports whether the rates can inject any fault at all.
func (r Rates) active() bool {
	return r.Drop > 0 || r.Dup > 0 || r.Corrupt > 0 || r.Reorder > 0 || (r.Delay > 0 && r.Jitter > 0)
}

// String renders the rates compactly for logs and experiment tables.
func (r Rates) String() string {
	return fmt.Sprintf("drop=%.3f dup=%.3f corrupt=%.3f reorder=%.3f delay=%.3f/%s",
		r.Drop, r.Dup, r.Corrupt, r.Reorder, r.Delay, r.Jitter)
}

// Partition is a scheduled outage of one directional link: every frame
// whose link-local ordinal (1-based send count on that link) falls in
// [From, To) is discarded. Src or Dst of -1 matches any rank, so
// Partition{Src: -1, Dst: 3, From: 1, To: ^uint64(0)} isolates rank 3's
// inbound side permanently. Frame ordinals rather than wall-clock windows
// keep the schedule deterministic.
type Partition struct {
	Src, Dst int
	From, To uint64
}

// matches reports whether the partition eats the given frame.
func (p Partition) matches(src, dst int, frame uint64) bool {
	if p.Src != -1 && p.Src != src {
		return false
	}
	if p.Dst != -1 && p.Dst != dst {
		return false
	}
	return frame >= p.From && frame < p.To
}

// String renders the partition for logs.
func (p Partition) String() string {
	return fmt.Sprintf("partition %d->%d frames [%d,%d)", p.Src, p.Dst, p.From, p.To)
}

// EventKind classifies one injected fault.
type EventKind int

const (
	// EvDrop is a discarded frame.
	EvDrop EventKind = iota
	// EvDup is a duplicated frame.
	EvDup
	// EvCorrupt is a payload bit flip.
	EvCorrupt
	// EvDelay is an injected delay.
	EvDelay
	// EvReorder is a held-back frame (adjacent swap).
	EvReorder
	// EvPartition is a frame eaten by a scheduled partition.
	EvPartition
)

var eventNames = map[EventKind]string{
	EvDrop: "drop", EvDup: "dup", EvCorrupt: "corrupt",
	EvDelay: "delay", EvReorder: "reorder", EvPartition: "partition",
}

// String returns the event-kind name used in the plan log.
func (k EventKind) String() string {
	if s, ok := eventNames[k]; ok {
		return s
	}
	return fmt.Sprintf("event(%d)", int(k))
}

// Event is one injected fault, reported to the fabric's observer (the mpi
// world maps these to metrics counters and trace events) and appended to
// the plan's replayable log.
type Event struct {
	Kind  EventKind
	Src   int
	Dst   int
	Seq   uint64 // the packet's reliability sequence number (0 if unsequenced)
	Frame uint64 // link-local send ordinal, 1-based
	// Token is the packet's causal message token (0 if unstamped), so the
	// trace layer's conservation audit can attribute the fault to the
	// message it hit.
	Token uint64
	// Delay is the injected hold time for EvDelay events (zero otherwise),
	// so observers can histogram the jitter actually applied.
	Delay time.Duration
}

// String renders the event in the plan-log form.
func (e Event) String() string {
	return fmt.Sprintf("%s %d->%d frame=%d seq=%d", e.Kind, e.Src, e.Dst, e.Frame, e.Seq)
}

// Plan is a deterministic chaos schedule: a seed, default and per-link
// rates, and scheduled partitions. Configure it before Start; the event
// log accumulates as the run injects faults.
type Plan struct {
	seed  int64
	def   Rates
	links map[[2]int]Rates
	parts []Partition

	mu  sync.Mutex
	log []Event
}

// NewPlan creates an empty plan (which injects nothing) with the given
// RNG seed.
func NewPlan(seed int64) *Plan {
	return &Plan{seed: seed, links: make(map[[2]int]Rates)}
}

// Seed returns the plan's RNG seed.
func (p *Plan) Seed() int64 { return p.seed }

// Default sets the rates applied to every link without an override and
// returns the plan for chaining.
func (p *Plan) Default(r Rates) *Plan {
	p.def = r
	return p
}

// Link overrides the rates of the directional link src -> dst.
func (p *Plan) Link(src, dst int, r Rates) *Plan {
	p.links[[2]int{src, dst}] = r
	return p
}

// Partition schedules an outage; see the Partition type for semantics.
func (p *Plan) Partition(src, dst int, from, to uint64) *Plan {
	p.parts = append(p.parts, Partition{Src: src, Dst: dst, From: from, To: to})
	return p
}

// rates returns the effective rates for a link.
func (p *Plan) rates(src, dst int) Rates {
	if r, ok := p.links[[2]int{src, dst}]; ok {
		return r
	}
	return p.def
}

// record appends an injected fault to the replayable log.
func (p *Plan) record(e Event) {
	p.mu.Lock()
	p.log = append(p.log, e)
	p.mu.Unlock()
}

// Log returns the injected faults so far, in injection order per link.
func (p *Plan) Log() []Event {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]Event(nil), p.log...)
}

// Count returns how many faults of the given kind have been injected.
func (p *Plan) Count(kind EventKind) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for _, e := range p.log {
		if e.Kind == kind {
			n++
		}
	}
	return n
}

// String describes the plan's configuration (not its log).
func (p *Plan) String() string {
	s := fmt.Sprintf("chaos(seed=%d default[%s]", p.seed, p.def)
	for k, r := range p.links {
		s += fmt.Sprintf(" %d->%d[%s]", k[0], k[1], r)
	}
	for _, part := range p.parts {
		s += " " + part.String()
	}
	return s + ")"
}

// link holds the per-link fault state: a dedicated RNG (seeded from the
// plan seed and the link endpoints, so fates are independent of cross-link
// interleaving), the frame counter, and the reorder hold slot.
type link struct {
	mu    sync.Mutex
	rng   *rand.Rand
	rates Rates
	sent  uint64
	held  *transport.Packet // at most one frame held back for reordering
}

// Fabric injects the plan's faults into every Send of the wrapped fabric.
// The receive path is untouched: faults happen "on the wire". It
// implements transport.HandsOff: Send takes the packet over. A dropped
// frame is released; a held or delayed frame is the packet itself; a
// duplicate is a pooled twin (Packet.CopyPooled); a corrupted frame has
// its bits flipped in place. Everything leaves through
// transport.SendOwned, so the inner fabric gets what its marker asks for.
type Fabric struct {
	inner transport.Fabric
	plan  *Plan

	// onEvent, if set (before Start), observes every injected fault in
	// addition to the plan log. The mpi world uses it to feed metrics
	// counters and the trace recorder.
	onEvent func(Event)

	mu      sync.Mutex
	links   map[[2]int]*link
	closed  atomic.Bool
	pending sync.WaitGroup // delayed + held-frame flush timers
}

// Wrap builds a chaos fabric injecting plan's faults into inner.
func Wrap(inner transport.Fabric, plan *Plan) *Fabric {
	return &Fabric{inner: inner, plan: plan, links: make(map[[2]int]*link)}
}

// Observe registers a fault observer. Call before Start; the callback
// must not re-enter the fabric.
func (f *Fabric) Observe(fn func(Event)) { f.onEvent = fn }

// Inner returns the wrapped fabric.
func (f *Fabric) Inner() transport.Fabric { return f.inner }

// HandsOffSend marks that Send takes the packet over (transport.HandsOff).
func (*Fabric) HandsOffSend() {}

// Start starts the wrapped fabric. Chaos acts only on the send path, so
// the delivery callback passes through untouched.
func (f *Fabric) Start(deliver transport.DeliverFunc) error {
	return f.inner.Start(deliver)
}

// Close stops injecting, waits for in-flight delayed frames, and closes
// the wrapped fabric. Frames still held for reordering are dropped (the
// link died mid-swap).
func (f *Fabric) Close() error {
	f.closed.Store(true)
	f.pending.Wait()
	return f.inner.Close()
}

// linkFor returns (creating on first use) the state of one link.
func (f *Fabric) linkFor(src, dst int) *link {
	key := [2]int{src, dst}
	f.mu.Lock()
	defer f.mu.Unlock()
	l := f.links[key]
	if l == nil {
		seed := f.plan.seed ^ ((int64(src) + 1) << 32) ^ (int64(dst) + 1)
		l = &link{
			rng:   rand.New(rand.NewSource(seed)),
			rates: f.plan.rates(src, dst),
		}
		f.links[key] = l
	}
	return l
}

// emit records an injected fault in the plan log and the observer.
func (f *Fabric) emit(e Event) {
	f.plan.record(e)
	if f.onEvent != nil {
		f.onEvent(e)
	}
}

// Send passes the packet through the fault plan: a scheduled partition or
// a drop fate discards it; corruption flips payload bits;
// duplication sends a twin as well; delay reschedules it; reordering holds
// it until the link's next frame has gone out. Faults compose (a frame can
// be both corrupted and duplicated). Per the Fabric contract Send never
// reports injected loss as an error — a chaotic network fails silently.
func (f *Fabric) Send(pkt *transport.Packet) error {
	if f.closed.Load() {
		// The link died under the frame: account the loss so the trace
		// audit never sees a send silently vanish at teardown.
		f.drop(pkt)
		return nil
	}
	l := f.linkFor(pkt.Src, pkt.Dst)

	l.mu.Lock()
	l.sent++
	frame := l.sent
	prevHeld := l.held
	l.held = nil

	ev := Event{Src: pkt.Src, Dst: pkt.Dst, Seq: pkt.Seq, Frame: frame, Token: pkt.Token}
	for _, part := range f.plan.parts {
		if part.matches(pkt.Src, pkt.Dst, frame) {
			l.mu.Unlock()
			ev.Kind = EvPartition
			f.emit(ev)
			pkt.Release()
			return f.flushHeld(prevHeld)
		}
	}
	if !l.rates.active() {
		l.mu.Unlock()
		if err := transport.SendOwned(f.inner, pkt); err != nil {
			return err
		}
		return f.flushHeld(prevHeld)
	}

	r := l.rates
	drop := l.rng.Float64() < r.Drop
	dup := l.rng.Float64() < r.Dup
	corrupt := l.rng.Float64() < r.Corrupt && len(pkt.Payload) > 0
	reorder := l.rng.Float64() < r.Reorder
	delay := time.Duration(0)
	if r.Jitter > 0 && l.rng.Float64() < r.Delay {
		delay = 1 + time.Duration(l.rng.Int63n(int64(r.Jitter)))
	}
	var flips []int
	if corrupt {
		// Flip 1–3 bits inside one 32-bit window: an error burst of at
		// most 32 bits, which CRC-32C provably detects. Unconstrained
		// random flips would be caught only with probability 1-2^-32; the
		// burst bound turns the soak test's "no corruption above the
		// codec" from overwhelmingly likely into guaranteed.
		bits := len(pkt.Payload) * 8
		base := l.rng.Intn(bits)
		span := bits - base
		if span > 32 {
			span = 32
		}
		for n := 1 + l.rng.Intn(3); n > 0; n-- {
			flips = append(flips, base+l.rng.Intn(span))
		}
	}

	if drop {
		l.mu.Unlock()
		ev.Kind = EvDrop
		f.emit(ev)
		pkt.Release()
		return f.flushHeld(prevHeld)
	}
	if corrupt {
		for _, bit := range flips {
			pkt.Payload[bit/8] ^= 1 << (bit % 8)
		}
	}
	if reorder && delay == 0 {
		// Hold this frame; it goes out after the link's next frame. A
		// timer flushes it if the link goes quiet, so a held frame delays
		// but never starves (liveness does not depend on retransmits).
		held := pkt
		l.held = held
		l.mu.Unlock()
		ev.Kind = EvReorder
		f.emit(ev)
		f.pending.Add(1)
		time.AfterFunc(2*time.Millisecond, func() {
			defer f.pending.Done()
			l.mu.Lock()
			still := l.held == held
			if still {
				l.held = nil
			}
			l.mu.Unlock()
			if still {
				_ = f.forward(held)
			}
		})
		return f.flushHeld(prevHeld)
	}
	l.mu.Unlock()

	if corrupt {
		ev.Kind = EvCorrupt
		f.emit(ev)
	}
	// The twin is taken now: once pkt is handed on, it is not chaos's to
	// read.
	var twin *transport.Packet
	if dup {
		twin = pkt.CopyPooled()
	}
	if delay > 0 {
		ev.Kind = EvDelay
		ev.Delay = delay
		f.emit(ev)
		f.pending.Add(1)
		time.AfterFunc(delay, func() {
			defer f.pending.Done()
			_ = f.forward(pkt)
		})
	} else {
		if err := transport.SendOwned(f.inner, pkt); err != nil {
			return err
		}
	}
	if dup {
		ev.Kind = EvDup
		f.emit(ev)
		if err := transport.SendOwned(f.inner, twin); err != nil {
			return err
		}
	}
	return f.flushHeld(prevHeld)
}

// flushHeld sends a frame that was held for reordering, after the
// current frame has been handled — completing the adjacent swap.
func (f *Fabric) flushHeld(held *transport.Packet) error {
	if held == nil {
		return nil
	}
	return f.forward(held)
}

// forward sends a frame chaos held back, or drops it if the fabric closed
// meanwhile.
func (f *Fabric) forward(pkt *transport.Packet) error {
	if f.closed.Load() {
		f.drop(pkt)
		return nil
	}
	return transport.SendOwned(f.inner, pkt)
}

// drop discards a frame the closed fabric can no longer send, accounting
// the loss so that the trace audit never sees a send silently vanish.
func (f *Fabric) drop(pkt *transport.Packet) {
	f.emit(Event{Kind: EvDrop, Src: pkt.Src, Dst: pkt.Dst, Seq: pkt.Seq, Token: pkt.Token})
	pkt.Release()
}
