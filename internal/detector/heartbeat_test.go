package detector

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// --- phi-accrual estimator ---------------------------------------------------

func TestArrivalPhi(t *testing.T) {
	var a arrival
	base := time.Now()
	interval := 10 * time.Millisecond
	for i := 0; i < 20; i++ {
		a.observe(base.Add(time.Duration(i) * interval))
	}
	last := base.Add(19 * interval)
	floor := interval.Seconds() / 10
	if phi := a.phi(last.Add(interval), floor); phi >= 8 {
		t.Fatalf("one ordinary interval of silence scored phi=%.1f", phi)
	}
	if phi := a.phi(last.Add(10*interval), floor); phi < 8 {
		t.Fatalf("ten intervals of silence scored only phi=%.1f", phi)
	}
	// phi must be monotone in elapsed silence.
	prev := -1.0
	for k := 1; k <= 10; k++ {
		phi := a.phi(last.Add(time.Duration(k)*interval), floor)
		if phi < prev {
			t.Fatalf("phi not monotone: %.2f after %.2f", phi, prev)
		}
		prev = phi
	}
}

func TestArrivalPhiAdaptsToJitter(t *testing.T) {
	steady, jittery := arrival{}, arrival{}
	base := time.Now()
	for i := 0; i < 30; i++ {
		steady.observe(base.Add(time.Duration(i) * 10 * time.Millisecond))
		gap := 10 * time.Millisecond
		if i%2 == 1 {
			gap = 30 * time.Millisecond // alternating heavy jitter
		}
		jittery.observe(base.Add(time.Duration(i) * gap))
	}
	// The same absolute silence must look less alarming on the jittery
	// link: its learned variance is wider.
	floor := 0.001
	silence := 50 * time.Millisecond
	s := steady.phi(steady.last.Add(silence), floor)
	j := jittery.phi(jittery.last.Add(silence), floor)
	if j >= s {
		t.Fatalf("jittery link phi %.1f not below steady link phi %.1f", j, s)
	}
}

func TestHeartbeatOptionsDefaults(t *testing.T) {
	o := HeartbeatOptions{}.withDefaults()
	if o.Interval != 2*time.Millisecond || o.Timeout != 8*o.Interval ||
		o.Phi != 8 || o.SelfFenceAfter != 3*o.Timeout || o.FenceResend != 2*o.Interval {
		t.Fatalf("defaults %+v", o)
	}
	custom := HeartbeatOptions{Interval: 5 * time.Millisecond}.withDefaults()
	if custom.Timeout != 40*time.Millisecond {
		t.Fatalf("derived timeout %v", custom.Timeout)
	}
}

// --- monitors over a programmable loopback net -------------------------------

// hbNet wires n monitors directly into each other's OnControl, with a
// per-(sender, op) cut filter standing in for partitions. Control delivery
// is synchronous, like the Local fabric — which is exactly the regime the
// send-outside-the-lock rule exists for.
type hbNet struct {
	reg *Registry
	hbs []*Heartbeat
	cut func(from, to int, op ControlOp) bool // true = drop the frame
}

func newHBNet(t *testing.T, n int, opts HeartbeatOptions, cut func(from, to int, op ControlOp) bool) *hbNet {
	t.Helper()
	p := &hbNet{reg: New(n), hbs: make([]*Heartbeat, n), cut: cut}
	p.reg.SetConfirmGate(true)
	for rank := 0; rank < n; rank++ {
		from := rank
		p.hbs[rank] = NewHeartbeat(p.reg, rank, n, opts, func(to int, op ControlOp, seq uint64, _ []byte) {
			if p.cut != nil && p.cut(from, to, op) {
				return
			}
			p.hbs[to].OnControl(from, op, seq, nil)
		})
	}
	t.Cleanup(func() {
		for _, hb := range p.hbs {
			hb.Stop()
		}
	})
	return p
}

func (p *hbNet) start() {
	for _, hb := range p.hbs {
		hb.Start()
	}
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

var hbTestOpts = HeartbeatOptions{
	Interval:       time.Millisecond,
	Timeout:        20 * time.Millisecond,
	SelfFenceAfter: 300 * time.Millisecond,
}

// TestHeartbeatNoFalseConfirms: on a healthy link nobody is suspected,
// nobody dies.
func TestHeartbeatNoFalseConfirms(t *testing.T) {
	p := newHBNet(t, 2, hbTestOpts, nil)
	p.start()
	time.Sleep(100 * time.Millisecond)
	if p.reg.AliveCount() != 2 {
		t.Fatalf("alive %d after quiet run", p.reg.AliveCount())
	}
	if p.reg.Suspected(0) || p.reg.Suspected(1) {
		t.Fatal("healthy ranks suspected")
	}
}

// TestFenceKillsSilentRankAckPath: rank 1 falls silent (its pings and
// ping-acks are cut) but the fence channel stays open — rank 0 suspects,
// fences, rank 1 kills itself BEFORE acking, and the ack confirms the
// failure with a measured RTT.
func TestFenceKillsSilentRankAckPath(t *testing.T) {
	var silent atomic.Bool
	p := newHBNet(t, 2, hbTestOpts, func(from, to int, op ControlOp) bool {
		return silent.Load() && from == 1 && (op == OpPing || op == OpPingAck)
	})
	var mu sync.Mutex
	var rtts []time.Duration
	deadBeforeAck := true
	p.hbs[0].Hooks.FenceRTT = func(by, target int, rtt time.Duration) {
		mu.Lock()
		rtts = append(rtts, rtt)
		mu.Unlock()
	}
	p.hbs[1].Hooks.SelfFence = func(int) { t.Error("self-fence on a rank whose inbound link is fine") }
	var events []SuspicionEvent
	p.reg.SubscribeSuspicion(func(ev SuspicionEvent) {
		mu.Lock()
		events = append(events, ev)
		mu.Unlock()
	})
	p.reg.Subscribe(func(rank int) {
		if rank == 1 && !p.reg.Failed(1) {
			deadBeforeAck = false
		}
	})
	p.start()
	time.Sleep(20 * time.Millisecond) // let the estimators learn the link
	silent.Store(true)
	waitFor(t, "rank 1 confirmed dead", func() bool { return p.reg.Confirmed(1) })
	if !p.reg.Failed(1) || !deadBeforeAck {
		t.Fatal("rank 1 notified before ground-truth death")
	}
	if p.reg.Failed(0) {
		t.Fatal("the observer died too")
	}
	// The hook fires after ConfirmGen returns, so Confirmed can be seen first.
	waitFor(t, "the fence ack path to measure an RTT", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(rtts) > 0
	})
	mu.Lock()
	defer mu.Unlock()
	var raised, confirmed bool
	for _, ev := range events {
		if ev.Rank == 1 && ev.Kind == SuspectRaised {
			raised = true
			if ev.SinceDeath >= 0 {
				t.Fatal("rank 1 was alive at suspicion time; SinceDeath must be negative")
			}
		}
		if ev.Rank == 1 && ev.Kind == SuspectConfirmed {
			confirmed = true
		}
	}
	if !raised || !confirmed {
		t.Fatalf("suspicion lifecycle incomplete: raised=%v confirmed=%v", raised, confirmed)
	}
}

// TestFenceConfirmsAcrossCutAckLink: rank 1's entire outbound is cut (a
// one-way partition), so the fence gets through but the ack cannot. The
// fencer must still converge by confirming from the registry's ground
// truth on a later tick.
func TestFenceConfirmsAcrossCutAckLink(t *testing.T) {
	var silent atomic.Bool
	p := newHBNet(t, 2, hbTestOpts, func(from, to int, op ControlOp) bool {
		return silent.Load() && from == 1
	})
	p.start()
	time.Sleep(20 * time.Millisecond)
	silent.Store(true)
	waitFor(t, "rank 1 confirmed across the cut ack link", func() bool { return p.reg.Confirmed(1) })
	if !p.reg.Failed(1) || p.reg.Failed(0) {
		t.Fatalf("failed: 0=%v 1=%v", p.reg.Failed(0), p.reg.Failed(1))
	}
}

// TestLateHeartbeatClearsSuspicion: a silence shorter than any fence
// round-trip resolves by clearing, and nobody dies. The cut also eats
// inbound fences so a racing fence cannot kill rank 1 and turn the test
// flaky; what is asserted is that the suspicion CLEARS once heartbeats
// resume and the monitors go back to steady state.
func TestLateHeartbeatClearsSuspicion(t *testing.T) {
	var silent atomic.Bool
	// The cut eats acks in both directions, so a loaded scheduler could
	// stretch the silence past the default self-fence horizon and kill a
	// rank this test needs alive; self-fencing has its own test below.
	opts := hbTestOpts
	opts.SelfFenceAfter = time.Hour
	p := newHBNet(t, 2, opts, func(from, to int, op ControlOp) bool {
		// Fences are cut for the whole test: after the silence ends, a
		// fence resend races the late heartbeat, and losing that race
		// would kill the rank whose survival is the point here.
		if op == OpFence {
			return true
		}
		return silent.Load() && from == 1
	})
	var cleared atomic.Bool
	p.reg.SubscribeSuspicion(func(ev SuspicionEvent) {
		if ev.Kind == SuspectCleared && ev.Rank == 1 {
			cleared.Store(true)
		}
	})
	p.start()
	time.Sleep(20 * time.Millisecond)
	silent.Store(true)
	waitFor(t, "suspicion raised", func() bool { return p.reg.Suspected(1) })
	silent.Store(false) // the late heartbeat arrives after all
	waitFor(t, "suspicion cleared", func() bool { return cleared.Load() })
	waitFor(t, "suspicion withdrawn", func() bool { return !p.reg.Suspected(1) })
	if p.reg.FailedCount() != 0 {
		t.Fatalf("a cleared false suspicion still killed someone: failed %v", p.reg.Snapshot())
	}
}
