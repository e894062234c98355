package detector_test

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/detector"
	"repro/internal/membership"
)

// A monitor raises a suspicion; everything after it — fence, drain,
// confirm, self-fence — is the detector.Fencer. The tests in this file
// are about what happens after, so they drive the Fencer through its one
// monitor, membership.Swim, on a ManualClock: no test here waits on a
// real timer. A test that names its monitor does so as the subtest
// "swim".

const (
	step      = time.Millisecond
	selfFence = 50 * time.Millisecond
)

// swimOpts: a monitor ticks every step (the pump runs at Period/4),
// suspects a peer whose probe is unanswered after 5 ms, resends fences
// every 2 ms and self-fences after 50 ms.
var swimOpts = membership.Options{
	Period: 4 * step, SuspectAfter: 5 * step, FenceResend: 2 * step,
	SelfFenceAfter: selfFence, Seed: 42,
}

// aliveFrom is the body of a frame `from` sends about itself.
func aliveFrom(from int) []byte {
	return membership.Envelope{Origin: from, Target: from}.Encode()
}

// frame is one outbound control frame.
type frame struct {
	from, to int
	op       detector.ControlOp
	seq      uint64
	payload  []byte
}

// fencing reports whether f belongs to the fencing protocol rather than
// to the monitor's liveness traffic.
func (f frame) fencing() bool { return f.op == detector.OpFence || f.op == detector.OpFenceAck }

// testNet wires n monitors into each other's OnControl synchronously,
// like the Local fabric. cut drops a frame; hold parks it until release.
type testNet struct {
	clock *detector.ManualClock
	reg   *detector.Registry
	ms    []*membership.Swim
	cut   func(f frame) bool
	hold  func(f frame) bool

	mu     sync.Mutex
	fences map[int]int // fence notices sent, by sender
	parked []frame
}

func newTestNet(n int) *testNet {
	p := &testNet{
		clock: detector.NewManualClock(time.Unix(1000, 0)), reg: detector.New(n),
		ms: make([]*membership.Swim, n), fences: map[int]int{},
	}
	p.reg.SetConfirmGate(true)
	opts := swimOpts
	opts.Clock = p.clock
	for rank := 0; rank < n; rank++ {
		from := rank
		p.ms[rank] = membership.NewSwim(p.reg, rank, n, opts,
			func(to int, op detector.ControlOp, seq uint64, payload []byte) {
				f := frame{from: from, to: to, op: op, seq: seq, payload: payload}
				p.mu.Lock()
				if op == detector.OpFence {
					p.fences[from]++
				}
				park := p.hold != nil && p.hold(f)
				if park {
					p.parked = append(p.parked, f)
				}
				p.mu.Unlock()
				if park || (p.cut != nil && p.cut(f)) {
					return
				}
				p.ms[to].OnControl(from, op, seq, payload)
			})
	}
	return p
}

// round advances the clock one step and ticks the given ranks (all of
// them when none is named), in rank order — the stand-in for the pumps.
func (p *testNet) round(ranks ...int) {
	p.clock.Advance(step)
	if len(ranks) == 0 {
		for r := range p.ms {
			ranks = append(ranks, r)
		}
	}
	for _, r := range ranks {
		p.ms[r].Tick(p.clock.Now())
	}
}

// roundsUntil runs rounds until cond holds, and fails after max of them.
func (p *testNet) roundsUntil(t *testing.T, max int, what string, cond func() bool, ranks ...int) {
	t.Helper()
	for i := 0; i < max && !cond(); i++ {
		p.round(ranks...)
	}
	if !cond() {
		t.Fatalf("after %d rounds: %s", max, what)
	}
}

func (p *testNet) fencesFrom(rank int) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.fences[rank]
}

// release delivers the parked frames of kind op, in send order.
func (p *testNet) release(op detector.ControlOp) {
	p.mu.Lock()
	var out, rest []frame
	for _, f := range p.parked {
		if f.op == op {
			out = append(out, f)
		} else {
			rest = append(rest, f)
		}
	}
	p.parked = rest
	p.mu.Unlock()
	for _, f := range out {
		p.ms[f.to].OnControl(f.from, f.op, f.seq, f.payload)
	}
}

// --- a suspicion's life, one observer -----------------------------------------

// soloObserver is rank 0 of a 2-rank world whose frames go nowhere: rank 1
// never ticks and the test plays it by hand. It returns once rank 0 has
// suspected the silent rank 1, which puts the first fence on the wire.
func soloObserver(t *testing.T) (p *testNet, fromPeer func(op detector.ControlOp)) {
	p = newTestNet(2)
	p.cut = func(f frame) bool { return true }
	p.roundsUntil(t, 100, "silent rank not suspected", func() bool { return p.reg.Suspected(1) }, 0)
	if got := p.fencesFrom(0); got != 1 {
		t.Fatalf("want exactly one fence on the wire, got %d", got)
	}
	return p, func(op detector.ControlOp) { p.ms[0].OnControl(1, op, 1, aliveFrom(1)) }
}

// TestFenceInFlightSupersedesClear pins the fix for the suspect/clear/
// fence race: the tick decides to emit a FENCE under the fencer's lock
// but sends it after unlocking, so alive evidence processed in that
// window used to clear the suspicion while the fence was already on the
// wire — killing a rank the detector no longer suspected. The clear must
// not be visible while the fence is in flight: the fence drains,
// resolving to Confirm if it lands.
func TestFenceInFlightSupersedesClear(t *testing.T) {
	t.Run("swim", func(t *testing.T) {
		p, fromPeer := soloObserver(t)
		fromPeer(detector.OpProbe) // the late frame, while that fence is in flight
		if !p.reg.Suspected(1) {
			t.Fatal("alive evidence cleared a suspicion whose fence is in flight")
		}
		// The in-flight fence lands: rank 1 dies first, acks second. The
		// drained fence must resolve to a confirmed failure, never to a
		// cleared suspicion of a dead rank.
		var clearedAfterDeath atomic.Bool
		p.reg.SubscribeSuspicion(func(ev detector.SuspicionEvent) {
			if ev.Kind == detector.SuspectCleared && ev.Rank == 1 {
				clearedAfterDeath.Store(true)
			}
		})
		p.reg.Kill(1)
		fromPeer(detector.OpFenceAck)
		if !p.reg.Confirmed(1) {
			t.Fatal("fence ack did not confirm the death")
		}
		if clearedAfterDeath.Load() {
			t.Fatal("drained fence cleared instead of confirming")
		}
	})
}

// TestDrainedFenceClearsWhenLost is the other leg of the race fix: when
// the in-flight fence is lost (chaos drop), the late alive evidence must
// win — after one full resend period with the suspect still alive, the
// suspicion is cleared, no resend goes out, and nobody dies.
func TestDrainedFenceClearsWhenLost(t *testing.T) {
	t.Run("swim", func(t *testing.T) {
		p, fromPeer := soloObserver(t) // suspect + fence out (and lost)
		var cleared atomic.Bool
		p.reg.SubscribeSuspicion(func(ev detector.SuspicionEvent) {
			if ev.Kind == detector.SuspectCleared && ev.Rank == 1 {
				cleared.Store(true)
			}
		})
		fromPeer(detector.OpProbe)
		if !p.reg.Suspected(1) {
			t.Fatal("suspicion dropped while fence in flight")
		}
		for i := 0; i < 4; i++ { // two resend periods
			p.round(0)
		}
		if got := p.fencesFrom(0); got != 1 {
			t.Fatalf("draining fence was resent: 1 -> %d", got)
		}
		if p.reg.Suspected(1) || !cleared.Load() {
			t.Fatal("lost fence never released the suspicion")
		}
		if p.reg.FailedCount() != 0 {
			t.Fatalf("somebody died: %v", p.reg.Snapshot())
		}
	})
}

// --- whole worlds --------------------------------------------------------------

// silenceRank1 runs a healthy 4-rank net — nobody is suspected, nobody
// dies — then cuts every frame rank 1 sends for which keep is false (a
// one-way partition: frames still reach it) and runs until rank 1 is
// confirmed. Accuracy demands it was killed by a fence BEFORE anyone was
// told it failed, and nobody else was harmed.
func silenceRank1(t *testing.T, p *testNet, keep func(f frame) bool) {
	t.Helper()
	var silent atomic.Bool
	p.cut = func(f frame) bool { return silent.Load() && f.from == 1 && !keep(f) }
	deadBeforeNotify := true
	p.reg.Subscribe(func(rank int) {
		if rank == 1 && !p.reg.Failed(1) {
			deadBeforeNotify = false
		}
	})
	for i := 0; i < 200; i++ {
		p.round()
	}
	if p.reg.FailedCount() != 0 || p.reg.Suspected(0) || p.reg.Suspected(1) {
		t.Fatalf("unhealthy before the partition: failed %v", p.reg.Snapshot())
	}
	silent.Store(true)
	p.roundsUntil(t, 400, "partitioned rank never fenced and confirmed",
		func() bool { return p.reg.Confirmed(1) })
	if !deadBeforeNotify {
		t.Fatal("rank reported failed before ground-truth death")
	}
	if p.reg.FailedCount() != 1 {
		t.Fatalf("collateral deaths: %v", p.reg.Snapshot())
	}
}

// TestSilentRankFencedBeforeReported: rank 1's outbound goes dark for
// good, but fences still reach it and its fence acks get out. Accuracy
// demands it is killed by the fence BEFORE anyone is told it failed, and
// nobody else is harmed.
func TestSilentRankFencedBeforeReported(t *testing.T) {
	t.Run("swim", func(t *testing.T) {
		silenceRank1(t, newTestNet(4), func(f frame) bool { return f.op == detector.OpFenceAck })
	})
}

// TestFenceKillsSilentRankAckPath: the same one-way partition, seen from
// the ack path. Its peers' suspicion is false (rank 1 is alive), the
// fence kills it, and the fence ack confirms the death with a measured
// fence RTT — long before rank 1's own silence would make it fence
// itself.
func TestFenceKillsSilentRankAckPath(t *testing.T) {
	p := newTestNet(4)
	var rtts atomic.Int32
	for _, m := range p.ms {
		m.Hooks.FenceRTT = func(by, target int, rtt time.Duration) { rtts.Add(1) }
	}
	p.ms[1].Hooks.SelfFence = func(int) { t.Error("the fence should have beaten the self-fence") }
	var mu sync.Mutex
	var falseRaise, confirmed bool
	p.reg.SubscribeSuspicion(func(ev detector.SuspicionEvent) {
		mu.Lock()
		defer mu.Unlock()
		if ev.Rank == 1 && ev.Kind == detector.SuspectRaised && ev.SinceDeath < 0 {
			falseRaise = true
		}
		if ev.Rank == 1 && ev.Kind == detector.SuspectConfirmed {
			confirmed = true
		}
	})
	silenceRank1(t, p, func(f frame) bool { return f.op == detector.OpFenceAck })
	mu.Lock()
	defer mu.Unlock()
	if !falseRaise || !confirmed {
		t.Fatalf("suspicion lifecycle incomplete: raised-while-alive=%v confirmed=%v", falseRaise, confirmed)
	}
	if rtts.Load() != 1 {
		t.Fatalf("FenceRTT fired %d times, want 1 (from the ack path)", rtts.Load())
	}
}

// TestFenceConfirmsAcrossCutAckLink: rank 1's entire outbound is cut, so
// the fence gets through but its ack cannot. The fencers must still
// converge by confirming from the registry's ground truth on a later
// tick.
func TestFenceConfirmsAcrossCutAckLink(t *testing.T) {
	silenceRank1(t, newTestNet(4), func(frame) bool { return false })
}

// TestSelfFenceOnIsolation: a rank cut off in both directions, with live
// peers remaining, must fence itself once its own traffic goes
// unacknowledged past the deadline; the survivors confirm it from ground
// truth.
func TestSelfFenceOnIsolation(t *testing.T) {
	t.Run("swim", func(t *testing.T) {
		var isolated atomic.Bool
		p := newTestNet(4)
		p.cut = func(f frame) bool { return isolated.Load() && (f.from == 1 || f.to == 1) }
		var selfFenced [4]atomic.Bool
		for r, m := range p.ms {
			m.Hooks.SelfFence = func(rank int) { selfFenced[r].Store(rank == r) }
		}
		for i := 0; i < 40; i++ {
			p.round()
		}
		isolated.Store(true)
		p.roundsUntil(t, 400, "survivors never confirmed the isolated rank",
			func() bool { return p.reg.Confirmed(1) })
		if !selfFenced[1].Load() || selfFenced[0].Load() || selfFenced[2].Load() || selfFenced[3].Load() {
			t.Fatal("the isolated rank, and only it, must fence itself")
		}
		if p.reg.FailedCount() != 1 {
			t.Fatalf("collateral deaths: %v", p.reg.Snapshot())
		}
	})
}

// TestSoleSurvivorDoesNotSelfFence: with every peer ground-truth dead,
// silence is expected and the survivor must not fence itself however far
// past the deadline the clock runs.
func TestSoleSurvivorDoesNotSelfFence(t *testing.T) {
	t.Run("swim", func(t *testing.T) {
		p := newTestNet(2)
		p.reg.Kill(1)
		for i := 0; i < int(6*selfFence/step); i++ {
			p.round()
		}
		if p.reg.Failed(0) {
			t.Fatal("sole survivor fenced itself")
		}
	})
}

// TestOnlyTheWinningFenceRecordsRTT: three observers fence the same
// stalled rank while every fence and fence ack is still in flight. One
// fence kills it; all three acks come back, and exactly one of them
// confirms anything. A fence that confirms nothing must not record a
// fence_rtt sample.
func TestOnlyTheWinningFenceRecordsRTT(t *testing.T) {
	t.Run("swim", func(t *testing.T) {
		const n, victim = 4, 3
		p := newTestNet(n)
		var rtts atomic.Int32
		for _, m := range p.ms {
			m.Hooks.FenceRTT = func(by, target int, rtt time.Duration) { rtts.Add(1) }
		}
		p.cut = func(f frame) bool { return f.from == victim && !f.fencing() }
		p.hold = frame.fencing
		// The victim is stalled: its monitor answers, but never ticks.
		p.roundsUntil(t, 2000, "not every observer fenced the silent rank", func() bool {
			return p.fencesFrom(0) > 0 && p.fencesFrom(1) > 0 && p.fencesFrom(2) > 0
		}, 0, 1, 2)
		if p.reg.Failed(victim) {
			t.Fatal("victim died while every fence was parked")
		}
		p.release(detector.OpFence)    // the first one kills; each is acked
		p.release(detector.OpFenceAck) // one confirms, the rest confirm nothing
		if !p.reg.Confirmed(victim) {
			t.Fatal("fence acks did not confirm the death")
		}
		for i := 0; i < 10; i++ {
			p.round(0, 1, 2) // let any ground-truth path run too
		}
		if got := rtts.Load(); got != 1 {
			t.Fatalf("FenceRTT fired %d times for one confirmed failure, want 1", got)
		}
		if p.reg.FailedCount() != 1 {
			t.Fatalf("collateral deaths: %v", p.reg.Snapshot())
		}
	})
}

// --- real pumps ----------------------------------------------------------------

// TestFenceClearRaceStress interleaves real concurrent late frames with
// the fence-send path under -race: two monitors with running pumps (they
// tick as the test advances the clock), rank 1's traffic cut on and off
// so rank 0 flaps between suspecting and clearing while fences fly. The
// invariant from the fix: a SuspectCleared for a rank must never be
// followed by that rank's death without a fresh SuspectRaised in between
// (no rank is killed by a fence its observer had withdrawn).
func TestFenceClearRaceStress(t *testing.T) {
	t.Run("swim", func(t *testing.T) {
		var drop atomic.Bool
		p := newTestNet(2)
		p.cut = func(f frame) bool { return drop.Load() && f.from == 1 && !f.fencing() }
		var mu sync.Mutex
		suspected := false // rank 0's current view of rank 1, per events
		violated := false
		p.reg.SubscribeSuspicion(func(ev detector.SuspicionEvent) {
			if ev.Rank != 1 || ev.By != 0 {
				return
			}
			mu.Lock()
			switch ev.Kind {
			case detector.SuspectRaised:
				suspected = true
			case detector.SuspectCleared:
				suspected = false
				if ev.SinceDeath >= 0 {
					violated = true // cleared a rank that is already dead
				}
			}
			mu.Unlock()
		})
		p.reg.OnDeath(func(rank int) {
			mu.Lock()
			if rank == 1 && !suspected {
				violated = true // killed while the observer did not suspect it
			}
			mu.Unlock()
		})
		for _, m := range p.ms {
			m.Start()
			defer m.Stop()
		}
		// Flap the link hard: each silence is long enough to raise suspicion
		// and launch a fence, each recovery short enough that late frames
		// race those fences.
		for i := 0; i < 400 && p.reg.AliveCount() == 2; i++ {
			drop.Store(i%10 < 6)
			p.clock.Advance(step)
			time.Sleep(100 * time.Microsecond) // let the pumps take the tick
		}
		mu.Lock()
		defer mu.Unlock()
		if violated {
			t.Fatal("a rank was killed or cleared against the observer's suspicion state")
		}
	})
}

// TestMonitorStartStopNoGoroutineLeak cycles monitor start/stop 100 times
// — with a suspicion raised and a fence resend pending at stop time, the
// historically leak-prone state — and checks the goroutine count settles
// back to the baseline.
func TestMonitorStartStopNoGoroutineLeak(t *testing.T) {
	t.Run("swim", func(t *testing.T) {
		baseline := runtime.NumGoroutine()
		for i := 0; i < 100; i++ {
			p := newTestNet(2)
			p.cut = func(f frame) bool { return true }
			p.ms[0].Start()
			p.roundsUntil(t, 100, "fence never armed", func() bool { return p.reg.Suspected(1) }, 0)
			p.ms[0].Stop()
			p.reg.Close()
		}
		var after int
		for try := 0; try < 100; try++ { // let exiting pumps be reaped
			runtime.GC()
			if after = runtime.NumGoroutine(); after <= baseline+2 {
				return
			}
			time.Sleep(10 * time.Millisecond)
		}
		t.Fatalf("goroutines grew from %d to %d over 100 start/stop cycles", baseline, after)
	})
}
