package membership

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/detector"
)

// swimNet wires n SWIM monitors into each other's OnControl
// synchronously on a shared ManualClock with no pump goroutines: tests
// drive every monitor tick by hand, so probe deadlines, gossip spread
// and fencing are fully deterministic.
type swimNet struct {
	clock *detector.ManualClock
	reg   *detector.Registry
	sws   []*Swim
	cut   func(from, to int, op detector.ControlOp) bool
	mu    sync.Mutex
	sent  map[detector.ControlOp]int
}

func newSwimNet(t *testing.T, n int, opts Options, cut func(from, to int, op detector.ControlOp) bool) *swimNet {
	t.Helper()
	p := &swimNet{
		clock: detector.NewManualClock(time.Unix(1000, 0)),
		reg:   detector.New(n),
		sws:   make([]*Swim, n),
		cut:   cut,
		sent:  make(map[detector.ControlOp]int),
	}
	p.reg.SetConfirmGate(true)
	opts.Clock = p.clock
	for rank := 0; rank < n; rank++ {
		from := rank
		p.sws[rank] = NewSwim(p.reg, rank, n, opts, func(to int, op detector.ControlOp, seq uint64, payload []byte) {
			p.mu.Lock()
			p.sent[op]++
			p.mu.Unlock()
			if p.cut != nil && p.cut(from, to, op) {
				return
			}
			p.sws[to].OnControl(from, op, seq, payload)
		})
	}
	return p
}

// round advances the clock by a quarter period (the pump resolution) and
// ticks every monitor once, in rank order.
func (p *swimNet) round() {
	p.clock.Advance(p.sws[0].opts.Period / 4)
	now := p.clock.Now()
	for _, sw := range p.sws {
		sw.Tick(now)
	}
}

func (p *swimNet) count(op detector.ControlOp) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.sent[op]
}

var swimTestOpts = Options{
	Period:         4 * time.Millisecond,
	SelfFenceAfter: time.Hour, // self-fencing has its own test
	Seed:           42,
}

// TestSwimHealthyNoSuspicion: on a healthy synchronous net, hundreds of
// protocol periods never raise a suspicion or kill anyone, and probes
// actually flow.
func TestSwimHealthyNoSuspicion(t *testing.T) {
	p := newSwimNet(t, 5, swimTestOpts, nil)
	for i := 0; i < 400; i++ {
		p.round()
	}
	if p.reg.AliveCount() != 5 {
		t.Fatalf("alive %d after healthy run", p.reg.AliveCount())
	}
	for r := 0; r < 5; r++ {
		if p.reg.Suspected(r) {
			t.Fatalf("rank %d suspected on a healthy net", r)
		}
	}
	if p.count(detector.OpProbe) == 0 || p.count(detector.OpProbeAck) == 0 {
		t.Fatal("no probes flowed")
	}
	if p.count(detector.OpProbeReq) != 0 {
		t.Fatal("indirect probes launched on a healthy net")
	}
}

// TestSwimDetectsDeadRank: a killed rank is suspected by some prober
// within a few protocol periods and confirmed via the fence machinery's
// ground-truth path — detection end-to-end.
func TestSwimDetectsDeadRank(t *testing.T) {
	p := newSwimNet(t, 5, swimTestOpts, nil)
	for i := 0; i < 40; i++ {
		p.round()
	}
	p.reg.Kill(3)
	for i := 0; i < 200 && !p.reg.Confirmed(3); i++ {
		p.round()
	}
	if !p.reg.Confirmed(3) {
		t.Fatal("dead rank never confirmed")
	}
	if p.reg.FailedCount() != 1 {
		t.Fatalf("collateral deaths: %v", p.reg.Snapshot())
	}
}

// TestSwimIndirectProbeSavesPartitionedLink: the direct link 0->1 (and
// the ack path 1->0) is cut, but relays can still reach rank 1 — the
// indirect probe must keep rank 0 from ever suspecting it.
func TestSwimIndirectProbeSavesPartitionedLink(t *testing.T) {
	p := newSwimNet(t, 5, swimTestOpts, func(from, to int, op detector.ControlOp) bool {
		direct := (from == 0 && to == 1) || (from == 1 && to == 0)
		return direct && (op == detector.OpProbe || op == detector.OpProbeAck)
	})
	for i := 0; i < 600; i++ {
		p.round()
	}
	if p.count(detector.OpProbeReq) == 0 {
		t.Fatal("cut direct link never triggered an indirect probe")
	}
	if p.reg.FailedCount() != 0 {
		t.Fatalf("somebody died across a relay-covered cut: %v", p.reg.Snapshot())
	}
	if p.reg.Suspected(1) || p.reg.Suspected(0) {
		t.Fatal("relay-covered cut still left a suspicion standing")
	}
}

// TestSwimGossipSpreadsConfirm: after a death, the confirmation must
// reach every surviving rank through piggybacked gossip.
func TestSwimGossipSpreadsConfirm(t *testing.T) {
	p := newSwimNet(t, 6, swimTestOpts, nil)
	learned := make([]atomic.Bool, 6)
	for r := range p.sws {
		rank := r
		p.sws[r].Hooks.GossipLearn = func(_ int, ev Event) {
			if ev.Kind == EvConfirm && ev.Rank == 2 {
				learned[rank].Store(true)
			}
		}
	}
	for i := 0; i < 40; i++ {
		p.round()
	}
	p.reg.Kill(2)
	for i := 0; i < 400; i++ {
		p.round()
	}
	if !p.reg.Confirmed(2) {
		t.Fatal("death never confirmed")
	}
	spread := 0
	for r := 0; r < 6; r++ {
		if r != 2 && learned[r].Load() {
			spread++
		}
	}
	// The confirmer knows first-hand (no learn event); every OTHER
	// survivor must have heard via gossip.
	if spread < 4 {
		t.Fatalf("confirm gossip reached only %d/5 survivors", spread)
	}
}

// TestSwimRefutationClearsSuspicion: rank 1 is temporarily silenced (its
// outbound probes/acks dropped, fences dropped too so it survives); once
// the silence lifts, the suspicion must clear — either by the refutation
// gossip (bumped incarnation) or by direct alive evidence draining the
// fence — and nobody dies.
func TestSwimRefutationClearsSuspicion(t *testing.T) {
	var cleared atomic.Bool
	var silent atomic.Bool
	p := newSwimNet(t, 5, swimTestOpts, func(from, to int, op detector.ControlOp) bool {
		if op == detector.OpFence {
			return true // fences lose the race for this test
		}
		return silent.Load() && from == 1
	})
	p.reg.SubscribeSuspicion(func(ev detector.SuspicionEvent) {
		if ev.Kind == detector.SuspectCleared && ev.Rank == 1 {
			cleared.Store(true)
		}
	})
	for i := 0; i < 40; i++ {
		p.round()
	}
	silent.Store(true)
	for i := 0; i < 200 && !p.reg.Suspected(1); i++ {
		p.round()
	}
	if !p.reg.Suspected(1) {
		t.Fatal("silenced rank never suspected")
	}
	silent.Store(false)
	for i := 0; i < 400 && p.reg.Suspected(1); i++ {
		p.round()
	}
	if p.reg.Suspected(1) || !cleared.Load() {
		t.Fatal("suspicion never cleared after the silence lifted")
	}
	if p.reg.FailedCount() != 0 {
		t.Fatalf("a refuted suspicion killed someone: %v", p.reg.Snapshot())
	}
	// The refutation must have bumped rank 1's incarnation via gossip.
	if p.sws[1].Incarnation() == 0 {
		t.Fatal("suspected rank never refuted (incarnation still 0)")
	}
}

// TestSwimControlTrafficPerRankIsFlat pins the scaling claim that
// justifies SWIM over an all-to-all heartbeat mesh: frames sent per rank
// per protocol period stay bounded by a small constant as N grows.
func TestSwimControlTrafficPerRankIsFlat(t *testing.T) {
	perRank := func(n int) float64 {
		p := newSwimNet(t, n, swimTestOpts, nil)
		const periods = 50
		for i := 0; i < periods*4; i++ {
			p.round()
		}
		p.mu.Lock()
		total := 0
		for _, c := range p.sent {
			total += c
		}
		p.mu.Unlock()
		return float64(total) / float64(n) / float64(periods)
	}
	small, large := perRank(8), perRank(64)
	// Every frame triggers at most one reply, and each rank launches one
	// probe per period: a generous constant bound, independent of N.
	const bound = 8.0
	if small > bound || large > bound {
		t.Fatalf("control traffic per rank per period: n=8 %.2f, n=64 %.2f (bound %.1f)", small, large, bound)
	}
	if large > 2*small+1 {
		t.Fatalf("control traffic grew with N: n=8 %.2f -> n=64 %.2f", small, large)
	}
}
