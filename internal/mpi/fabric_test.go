package mpi

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/metrics"
	"repro/internal/reliable"
	"repro/internal/transport"
)

// runWorldOn executes fn over an explicit fabric.
func runWorldOn(t *testing.T, n int, fab transport.Fabric, fn func(p *Proc) error) *RunResult {
	t.Helper()
	w, err := NewWorld(n, WithFabric(fab), WithDeadline(60*time.Second))
	if err != nil {
		t.Fatalf("NewWorld: %v", err)
	}
	res, err := w.Run(func(p *Proc) error {
		p.World().SetErrhandler(ErrorsReturn)
		return fn(p)
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return res
}

// ringBody circulates a counter and checks the accumulated value.
func ringBody(iters int) func(p *Proc) error {
	return func(p *Proc) error {
		c := p.World()
		n := p.Size()
		right := (p.Rank() + 1) % n
		left := (p.Rank() - 1 + n) % n
		for i := 0; i < iters; i++ {
			if p.Rank() == 0 {
				if err := c.Send(right, 1, []byte{1}); err != nil {
					return err
				}
				pl, _, err := c.Recv(left, 1)
				if err != nil {
					return err
				}
				if int(pl[0]) != n {
					return fmt.Errorf("iteration %d accumulated %d, want %d", i, pl[0], n)
				}
			} else {
				pl, _, err := c.Recv(left, 1)
				if err != nil {
					return err
				}
				if err := c.Send(right, 1, []byte{pl[0] + 1}); err != nil {
					return err
				}
			}
		}
		return nil
	}
}

func TestRingOverTCPFabric(t *testing.T) {
	res := runWorldOn(t, 4, transport.NewTCP(4), ringBody(10))
	requireNoRankErrors(t, res)
}

func TestRingOverLatencyFabric(t *testing.T) {
	fab := transport.NewLatency(transport.NewLocal(), 200*time.Microsecond)
	res := runWorldOn(t, 3, fab, ringBody(5))
	requireNoRankErrors(t, res)
}

// TestFailureSemanticsOverTCP: the Fig. 9 detector property must hold
// over a real network fabric too.
func TestFailureSemanticsOverTCP(t *testing.T) {
	res := runWorldOn(t, 2, transport.NewTCP(2), func(p *Proc) error {
		c := p.World()
		if p.Rank() == 1 {
			if _, _, err := c.Recv(0, 1); err != nil {
				return err
			}
			p.Die()
		}
		det := c.Irecv(1, 9)
		if err := c.Send(1, 1, nil); err != nil {
			return err
		}
		if _, err := det.Wait(); !IsRankFailStop(err) {
			return fmt.Errorf("detector over tcp: %v", err)
		}
		return nil
	})
	if res.Ranks[0].Err != nil {
		t.Fatal(res.Ranks[0].Err)
	}
}

// TestValidateAllOverTCP exercises the agreement protocol's frames over
// sockets.
func TestValidateAllOverTCP(t *testing.T) {
	res := runWorldOn(t, 4, transport.NewTCP(4), func(p *Proc) error {
		c := p.World()
		if p.Rank() == 3 {
			p.Die()
		}
		awaitKnownAlive(p, 3)
		cnt, err := c.ValidateAll()
		if err != nil {
			return err
		}
		if cnt != 1 {
			return fmt.Errorf("agreed %d, want 1", cnt)
		}
		return nil
	})
	for rank := 0; rank < 3; rank++ {
		if res.Ranks[rank].Err != nil {
			t.Fatalf("rank %d: %v", rank, res.Ranks[rank].Err)
		}
	}
}

// TestNotifyDelayDefersDetection: with detection latency configured, a
// send can still slip through to a dead rank (and vanish) before the
// notification lands — the weaker, more realistic detector mode.
func TestNotifyDelayDefersDetection(t *testing.T) {
	w, err := NewWorld(2, WithDeadline(60*time.Second), WithNotifyDelay(20*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	res, err := w.Run(func(p *Proc) error {
		c := p.World()
		c.SetErrhandler(ErrorsReturn)
		if p.Rank() == 1 {
			p.Die()
		}
		// Immediately after the kill the ground truth knows, but this
		// engine may not: the send may succeed into the void.
		for !p.Registry().Failed(1) {
			time.Sleep(time.Millisecond)
		}
		_ = c.Send(1, 0, []byte("may vanish")) // either outcome is legal here
		// Eventually (strong completeness) the failure must surface.
		deadline := time.Now().Add(5 * time.Second)
		for time.Now().Before(deadline) {
			info, err := c.RankState(1)
			if err != nil {
				return err
			}
			if info.State == RankFailed {
				return nil
			}
			time.Sleep(time.Millisecond)
		}
		return fmt.Errorf("notification never arrived")
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ranks[0].Err != nil {
		t.Fatal(res.Ranks[0].Err)
	}
}

// TestNotifyDelayValidateAllSurvivesMidDeath is the regression companion
// to TestNotifyDelayDefersDetection for collectives: a rank that dies
// mid-validate_all while failure notifications are delayed must not wedge
// the collective — the survivors' agreement completes and they agree on
// the same failed count.
func TestNotifyDelayValidateAllSurvivesMidDeath(t *testing.T) {
	const n = 4
	w, err := NewWorld(n, WithDeadline(60*time.Second), WithNotifyDelay(20*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, n)
	res, err := w.Run(func(p *Proc) error {
		c := p.World()
		c.SetErrhandler(ErrorsReturn)
		if p.Rank() == 2 {
			// Enter the collective, then die while it is in flight: the
			// vote may or may not have reached the coordinator, and the
			// delayed notification means the survivors discover the death
			// only after they are already blocked in the agreement.
			req := c.IvalidateAll()
			p.Die()
			_ = req
		}
		cnt, err := c.ValidateAll()
		if err != nil {
			return err
		}
		counts[p.Rank()] = cnt
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.TimedOut {
		t.Fatalf("validate_all wedged; stuck ranks %v", res.Stuck)
	}
	if !res.Ranks[2].Killed {
		t.Fatal("rank 2 did not die")
	}
	for _, rank := range []int{0, 1, 3} {
		if res.Ranks[rank].Err != nil {
			t.Fatalf("rank %d: %v", rank, res.Ranks[rank].Err)
		}
		if counts[rank] != counts[0] {
			t.Fatalf("survivors disagree on failed count: %v", counts)
		}
	}
	// Rank 2's vote races its death: if the vote landed first the
	// collective legitimately completes with count 0; otherwise the
	// (delayed) failure notification completes it with count 1. Both are
	// correct — what must never happen is a wedge or disagreement.
	if counts[0] != 0 && counts[0] != 1 {
		t.Fatalf("survivors counted %d failed, want 0 or 1", counts[0])
	}
}

// chaosRates is the acceptance-criteria fault mix: 10% drop, 5% dup, 1%
// corruption on every link.
func chaosRates() chaos.Rates {
	return chaos.Rates{Drop: 0.10, Dup: 0.05, Corrupt: 0.01}
}

// TestRingUnderChaos runs the token ring over a lossy, duplicating,
// corrupting Local fabric: the reliability sublayer must deliver every
// message exactly once, intact and in order, so the ring's accumulated
// counter checks still pass.
func TestRingUnderChaos(t *testing.T) {
	plan := chaos.NewPlan(1234).Default(chaosRates())
	m := metrics.NewWorld(4)
	w, err := NewWorld(4, WithChaos(plan), WithMetrics(m), WithDeadline(60*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	res, err := w.Run(func(p *Proc) error {
		p.World().SetErrhandler(ErrorsReturn)
		return ringBody(10)(p)
	})
	if err != nil {
		t.Fatal(err)
	}
	requireNoRankErrors(t, res)
	if len(plan.Log()) == 0 {
		t.Fatal("chaos injected nothing at 10%/5%/1% rates")
	}
	if dropped := m.Total(metrics.FramesDropped); dropped == 0 {
		t.Fatal("no dropped frames counted")
	}
	if retried := m.Total(metrics.FramesRetried); retried == 0 {
		t.Fatal("drops survived without a single retry — reliability layer bypassed?")
	}
	if deduped := m.Total(metrics.FramesDeduped); plan.Count(chaos.EvDup) > 0 && deduped == 0 {
		t.Fatal("duplicates injected but none deduplicated")
	}
}

// TestRingUnderChaosOverTCP repeats the chaotic ring over real sockets:
// chaos corrupts payloads above the wire codec, so the frame CRC stays
// self-consistent and it is the end-to-end payload CRC that must catch
// the mangled frames.
func TestRingUnderChaosOverTCP(t *testing.T) {
	plan := chaos.NewPlan(99).Default(chaosRates())
	w, err := NewWorld(4, WithFabric(transport.NewTCP(4)), WithChaos(plan), WithDeadline(60*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	res, err := w.Run(func(p *Proc) error {
		p.World().SetErrhandler(ErrorsReturn)
		return ringBody(5)(p)
	})
	if err != nil {
		t.Fatal(err)
	}
	requireNoRankErrors(t, res)
	if len(plan.Log()) == 0 {
		t.Fatal("chaos injected nothing")
	}
}

// TestPartitionEscalatesToFailStop blackholes the 0->1 link: the
// reliability layer's retry budget must exhaust and demote rank 1 to
// fail-stop through the detector, so the run terminates with the paper's
// failure semantics instead of hanging.
func TestPartitionEscalatesToFailStop(t *testing.T) {
	plan := chaos.NewPlan(7).Partition(0, 1, 1, ^uint64(0))
	m := metrics.NewWorld(2)
	fast := reliable.Options{RetryBase: time.Millisecond, RetryMax: 4 * time.Millisecond, MaxRetries: 5}
	w, err := NewWorld(2, WithChaos(plan), WithReliability(fast), WithMetrics(m), WithDeadline(60*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	res, err := w.Run(func(p *Proc) error {
		c := p.World()
		c.SetErrhandler(ErrorsReturn)
		if p.Rank() == 1 {
			_, _, err := c.Recv(0, 1) // never arrives: the link is dead
			if IsRankFailStop(err) {
				return nil
			}
			return err
		}
		if err := c.Send(1, 1, []byte("into the void")); err != nil {
			return err
		}
		// Wait for the escalation to declare the peer failed.
		deadline := time.Now().Add(30 * time.Second)
		for !p.Registry().Failed(1) {
			if time.Now().After(deadline) {
				return fmt.Errorf("link partition never escalated to fail-stop")
			}
			time.Sleep(time.Millisecond)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.TimedOut {
		t.Fatalf("run did not terminate; stuck ranks %v", res.Stuck)
	}
	if rr := res.Ranks[0]; rr.Err != nil {
		t.Fatalf("rank 0: %v", rr.Err)
	}
	// Rank 1 either unwound as killed or observed its own fail-stop.
	if !res.Ranks[1].Killed && res.Ranks[1].Err != nil {
		t.Fatalf("rank 1: killed=%v err=%v", res.Ranks[1].Killed, res.Ranks[1].Err)
	}
	if m.Total(metrics.LinkEscalations) == 0 {
		t.Fatal("no escalation counted")
	}
	if m.Total(metrics.FramesRetried) == 0 {
		t.Fatal("no retries counted before escalation")
	}
}

// --- micro-benchmarks ---------------------------------------------------------

func BenchmarkPingPongLocal(b *testing.B) {
	benchPingPong(b, nil, 64)
}

func BenchmarkPingPongTCP(b *testing.B) {
	benchPingPong(b, transport.NewTCP(2), 64)
}

// BenchmarkPingPongTCPLarge moves ring.tcp.large's payload (64 KiB of
// padding plus the 16 B message) through Recv, which hands its caller an
// exact-size copy and gives the read buffer back to the pool: what a
// message costs is that copy, 72 KiB once the heap rounds it to whole
// pages, not a fresh 80 KiB buffer of the read's size class.
func BenchmarkPingPongTCPLarge(b *testing.B) {
	benchPingPong(b, transport.NewTCP(2), 64<<10+16)
}

func benchPingPong(b *testing.B, fab transport.Fabric, size int) {
	b.Helper()
	b.ReportAllocs()
	w, err := NewWorld(2, WithFabric(fab), WithDeadline(5*time.Minute))
	if err != nil {
		b.Fatal(err)
	}
	payload := make([]byte, size)
	if _, err := w.Run(func(p *Proc) error {
		c := p.World()
		c.SetErrhandler(ErrorsReturn)
		peer := 1 - p.Rank()
		for i := 0; i < b.N; i++ {
			if p.Rank() == 0 {
				if err := c.Send(peer, 1, payload); err != nil {
					return err
				}
				if _, _, err := c.Recv(peer, 2); err != nil {
					return err
				}
			} else {
				if _, _, err := c.Recv(peer, 1); err != nil {
					return err
				}
				if err := c.Send(peer, 2, payload); err != nil {
					return err
				}
			}
		}
		return nil
	}); err != nil {
		b.Fatal(err)
	}
}

func BenchmarkWaitanyTwoRequests(b *testing.B) {
	b.ReportAllocs()
	w, err := NewWorld(2, WithDeadline(5*time.Minute))
	if err != nil {
		b.Fatal(err)
	}
	if _, err := w.Run(func(p *Proc) error {
		c := p.World()
		c.SetErrhandler(ErrorsReturn)
		peer := 1 - p.Rank()
		for i := 0; i < b.N; i++ {
			det := c.Irecv(peer, 99) // never completes
			data := c.Irecv(peer, 1)
			if err := c.Send(peer, 1, nil); err != nil {
				return err
			}
			if idx, _, err := Waitany(data, det); err != nil || idx != 0 {
				return fmt.Errorf("waitany idx=%d err=%v", idx, err)
			}
			det.Cancel()
		}
		return nil
	}); err != nil {
		b.Fatal(err)
	}
}
