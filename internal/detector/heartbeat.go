package detector

import (
	"fmt"
	"math"
	"sync"
	"time"
)

// ControlOp enumerates the failure-detection control-plane operations
// carried in transport.KindControl packets (op in Tag, heartbeat sequence
// in Seq, empty payload — which also makes control frames immune to the
// chaos fabric's payload corruption).
type ControlOp int

const (
	// OpPing is a heartbeat: "I am alive".
	OpPing ControlOp = iota + 1
	// OpPingAck acknowledges a ping; the sender uses the ack stream to
	// judge whether its own heartbeats are getting through (self-fencing).
	OpPingAck
	// OpFence orders a suspected rank to fail-stop.
	OpFence
	// OpFenceAck is sent by a fenced rank strictly AFTER it has killed
	// itself: receipt proves ground-truth death.
	OpFenceAck
	// OpProbe is a SWIM-style liveness probe (direct, or relayed on
	// behalf of the origin rank named in the gossip envelope).
	OpProbe
	// OpProbeAck acknowledges a probe; relays forward it to the origin.
	OpProbeAck
	// OpProbeReq asks a relay to probe the envelope's target indirectly.
	OpProbeReq
)

// String returns the control-op name.
func (op ControlOp) String() string {
	switch op {
	case OpPing:
		return "ping"
	case OpPingAck:
		return "ping-ack"
	case OpFence:
		return "fence"
	case OpFenceAck:
		return "fence-ack"
	case OpProbe:
		return "probe"
	case OpProbeAck:
		return "probe-ack"
	case OpProbeReq:
		return "probe-req"
	default:
		return fmt.Sprintf("ControlOp(%d)", int(op))
	}
}

// HeartbeatOptions tune one rank's heartbeat monitor. Zero fields take
// defaults.
type HeartbeatOptions struct {
	// Interval is the heartbeat emission period (default 2ms).
	Interval time.Duration
	// Timeout is the fixed-deadline upper bound: a peer silent for this
	// long is suspected regardless of the adaptive estimate (default
	// 8×Interval).
	Timeout time.Duration
	// Phi is the phi-accrual suspicion threshold: phi = -log10 of the
	// probability that a yet-later heartbeat arrival explains the current
	// silence, under the learned inter-arrival distribution. On stable
	// links phi crosses the threshold well before Timeout; under jitter
	// the learned variance widens and Timeout caps detection latency
	// (default 8).
	Phi float64
	// SelfFenceAfter is how long a rank tolerates having none of its own
	// heartbeats acknowledged before it fences itself — the escape hatch
	// for a rank partitioned from everyone, whose peers' fence notices
	// cannot reach it (default 3×Timeout).
	SelfFenceAfter time.Duration
	// FenceResend is the retransmission period for unacknowledged fence
	// notices (default 2×Interval).
	FenceResend time.Duration
	// Clock is the monitor's time source (default: the wall clock).
	// Tests inject a ManualClock to drive deadlines deterministically
	// instead of racing real millisecond tickers against CI load.
	Clock Clock
}

// withDefaults fills zero fields.
func (o HeartbeatOptions) withDefaults() HeartbeatOptions {
	if o.Interval <= 0 {
		o.Interval = 2 * time.Millisecond
	}
	if o.Clock == nil {
		o.Clock = WallClock()
	}
	if o.Timeout <= 0 {
		o.Timeout = 8 * o.Interval
	}
	if o.Phi <= 0 {
		o.Phi = 8
	}
	if o.SelfFenceAfter <= 0 {
		o.SelfFenceAfter = 3 * o.Timeout
	}
	if o.FenceResend <= 0 {
		o.FenceResend = 2 * o.Interval
	}
	return o
}

// HeartbeatHooks observe a monitor's control-plane actions; the mpi world
// maps them to metrics, traces and latency histograms. Nil fields are
// skipped. Hooks run on the monitor's pump or delivery goroutine and must
// not block.
type HeartbeatHooks struct {
	// Ping fires once per heartbeat sent by this rank.
	Ping func(rank int)
	// FenceHooks observe the fencing protocol (fence.go).
	FenceHooks
}

// arrival is a phi-accrual inter-arrival estimator for one peer: an EWMA
// of the mean and variance of heartbeat gaps, queried for the probability
// that the current silence is still ordinary.
type arrival struct {
	last time.Time
	mean float64 // seconds
	varv float64 // seconds^2
	n    int
}

// arrivalAlpha is the EWMA weight for new inter-arrival samples.
const arrivalAlpha = 0.2

// minSamples gates the adaptive estimate: below it only the fixed
// Timeout applies.
const minSamples = 3

// observe folds one heartbeat arrival into the estimate.
func (a *arrival) observe(now time.Time) {
	if !a.last.IsZero() {
		dt := now.Sub(a.last).Seconds()
		if a.n == 0 {
			a.mean = dt
		} else {
			d := dt - a.mean
			a.mean += arrivalAlpha * d
			a.varv = (1 - arrivalAlpha) * (a.varv + arrivalAlpha*d*d)
		}
		a.n++
	}
	a.last = now
}

// phi returns the phi-accrual suspicion level at time now: -log10 of the
// tail probability of the current silence under a normal model of the
// learned inter-arrival distribution. sigmaFloor guards against a
// degenerate zero-variance estimate on perfectly regular links.
func (a *arrival) phi(now time.Time, sigmaFloor float64) float64 {
	elapsed := now.Sub(a.last).Seconds()
	sigma := math.Sqrt(a.varv)
	if sigma < sigmaFloor {
		sigma = sigmaFloor
	}
	p := 0.5 * math.Erfc((elapsed-a.mean)/(sigma*math.Sqrt2))
	if p < 1e-30 {
		p = 1e-30
	}
	return -math.Log10(p)
}

// Heartbeat is one rank's failure-detection monitor: it emits heartbeats
// to every peer, tracks per-peer arrival deadlines (fixed timeout plus
// phi-accrual) and raises suspicion on silence. What follows a suspicion
// — fence, drain, confirm, self-fence — is the Fencer of fence.go.
// Construct with NewHeartbeat, wire inbound control packets to OnControl,
// and bracket the run with Start/Stop.
type Heartbeat struct {
	reg   *Registry
	rank  int
	size  int
	opts  HeartbeatOptions
	clock Clock
	send  SendFunc
	fence *Fencer

	// Hooks may be set between NewHeartbeat and Start.
	Hooks HeartbeatHooks

	mu  sync.Mutex
	est []arrival
	seq uint64

	sigmaFloor float64
	done       chan struct{}
	stopOnce   sync.Once
	wg         sync.WaitGroup
}

// NewHeartbeat builds the monitor for rank in a world of size ranks.
// Heartbeat frames carry no payload.
func NewHeartbeat(reg *Registry, rank, size int, opts HeartbeatOptions, send SendFunc) *Heartbeat {
	if rank < 0 || rank >= size {
		panic(fmt.Sprintf("detector: heartbeat rank %d out of range [0,%d)", rank, size))
	}
	o := opts.withDefaults()
	h := &Heartbeat{
		reg:        reg,
		rank:       rank,
		size:       size,
		opts:       o,
		clock:      o.Clock,
		send:       send,
		est:        make([]arrival, size),
		sigmaFloor: o.Interval.Seconds() / 10,
		done:       make(chan struct{}),
	}
	h.fence = NewFencer(reg, rank, size, o.FenceResend, o.SelfFenceAfter, send, &h.Hooks.FenceHooks, nil)
	h.prime(h.clock.Now())
	return h
}

// Start launches the heartbeat pump. Call after the fabric is started.
func (h *Heartbeat) Start() {
	h.prime(h.clock.Now())
	h.wg.Add(1)
	go h.pump()
}

// prime resets the ack and arrival baselines to now, so the first
// deadlines are measured from construction (and again from Start) rather
// than the zero time.
func (h *Heartbeat) prime(now time.Time) {
	h.fence.Acked(now)
	h.mu.Lock()
	for i := range h.est {
		h.est[i].last = now
	}
	h.mu.Unlock()
}

// Stop terminates the pump and waits for it. Safe to call more than once.
func (h *Heartbeat) Stop() {
	h.stopOnce.Do(func() { close(h.done) })
	h.wg.Wait()
}

// Resume resets this monitor's view of peer p ahead of p's reincarnation:
// the arrival estimator restarts from now (a stale `last` from the dead
// incarnation would instantly re-suspect the new one) and any fence
// against the old incarnation is dropped. Call on every survivor BEFORE
// the registry revives the slot — while the slot is still Confirmed the
// deadline scan skips it, so there is no window for a false suspicion.
func (h *Heartbeat) Resume(p int) {
	if p < 0 || p >= h.size || p == h.rank {
		return
	}
	now := h.clock.Now()
	h.mu.Lock()
	h.est[p] = arrival{last: now}
	h.mu.Unlock()
	h.fence.Forget(p)
}

// pump is the per-rank monitor loop: one tick per Interval. The ticker
// comes from the injected clock and is stopped on every exit path, so no
// timer outlives Stop even when a fence resend or suspicion is pending.
func (h *Heartbeat) pump() {
	defer h.wg.Done()
	ticker := h.clock.NewTicker(h.opts.Interval)
	defer ticker.Stop()
	for {
		select {
		case <-h.done:
			return
		case now := <-ticker.Chan():
			if !h.Tick(now) {
				return
			}
		}
	}
}

// Tick runs one monitor round: arm a fence against every peer that
// missed its deadline, drive the fences, check the self-fence deadline
// and ping the live peers. The pump calls it once per Interval;
// deterministic tests (and a simulator) call it by hand on a ManualClock
// instead of starting the pump. It returns false when this rank is (or
// just became) dead.
func (h *Heartbeat) Tick(now time.Time) bool {
	if h.reg.Failed(h.rank) {
		return false // dead ranks fall silent; OnControl still acks fences
	}

	h.mu.Lock()
	h.seq++
	seq := h.seq
	h.armOverdueLocked(now)
	h.mu.Unlock()

	if !h.fence.Drive(now) {
		return false
	}
	for p := 0; p < h.size; p++ {
		if p == h.rank || h.reg.Confirmed(p) {
			continue
		}
		h.send(p, OpPing, seq, nil)
		if h.Hooks.Ping != nil {
			h.Hooks.Ping(h.rank)
		}
	}
	return true
}

// armOverdueLocked scans peer arrival estimates and arms a fence against
// every peer silent past the fixed Timeout, or past the adaptive phi
// threshold (once enough samples exist). Caller holds mu.
func (h *Heartbeat) armOverdueLocked(now time.Time) {
	for p := 0; p < h.size; p++ {
		if p == h.rank || h.reg.Confirmed(p) {
			continue
		}
		a := &h.est[p]
		elapsed := now.Sub(a.last)
		over := elapsed >= h.opts.Timeout
		if !over && a.n >= minSamples && elapsed >= 2*h.opts.Interval {
			over = a.phi(now, h.sigmaFloor) >= h.opts.Phi
		}
		if over {
			h.fence.Arm(p, now) // no-op while a fence against p is pending
		}
	}
}

// OnControl handles one inbound control packet for this rank. It is
// called from the fabric delivery path — the "NIC" — and keeps answering
// fence notices even after the rank itself is dead, which is what lets a
// fencer confirm a death across a half-open link. Heartbeat frames carry
// no payload; the parameter is what lets both monitors sit behind one
// interface.
func (h *Heartbeat) OnControl(from int, op ControlOp, seq uint64, _ []byte) {
	if from < 0 || from >= h.size || from == h.rank {
		return
	}
	now := h.clock.Now()
	if h.reg.Failed(h.rank) {
		if op == OpFence {
			h.fence.OnFence(from, seq)
		}
		return
	}
	switch op {
	case OpPing:
		h.markAlive(from, now)
		h.send(from, OpPingAck, seq, nil)
	case OpPingAck:
		h.fence.Acked(now)
		h.markAlive(from, now)
	case OpFence:
		h.fence.OnFence(from, seq)
	case OpFenceAck:
		h.fence.OnFenceAck(from, now)
	}
}

// markAlive folds fresh evidence of `from`'s liveness into its estimator
// and into any fence this monitor holds against it.
func (h *Heartbeat) markAlive(from int, now time.Time) {
	h.mu.Lock()
	h.est[from].observe(now)
	h.mu.Unlock()
	h.fence.Alive(from, now)
}
