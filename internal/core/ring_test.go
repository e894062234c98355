package core

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/inject"
	"repro/internal/mpi"
	"repro/internal/trace"
)

// runRing executes one ring with the given world extras and asserts the
// harness-level run succeeded.
func runRing(t *testing.T, size int, cfg Config, mut func(*mpi.Config)) (*Report, *mpi.RunResult) {
	t.Helper()
	mcfg := mpi.Config{Size: size, Deadline: 30 * time.Second}
	if mut != nil {
		mut(&mcfg)
	}
	report, res, err := Run(mcfg, cfg)
	if err != nil {
		t.Fatalf("ring run failed: %v", err)
	}
	return report, res
}

func TestUnawareRingFailureFree(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 8} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			const iters = 5
			report, res := runRing(t, n, Config{Iters: iters, Variant: VariantUnaware}, nil)
			for rank, rr := range res.Ranks {
				if rr.Err != nil || !rr.Finished {
					t.Fatalf("rank %d: %+v", rank, rr)
				}
			}
			root := report.Rank(0)
			if len(root.RootValues) != iters {
				t.Fatalf("root absorbed %d iterations, want %d", len(root.RootValues), iters)
			}
			for marker, v := range root.RootValues {
				if v != int64(n) {
					t.Fatalf("iteration %d accumulated %d, want ring size %d", marker, v, n)
				}
			}
		})
	}
}

func TestFullRingFailureFreeMatchesUnaware(t *testing.T) {
	for _, n := range []int{2, 3, 4, 8, 16} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			const iters = 7
			report, res := runRing(t, n, Config{Iters: iters, Variant: VariantFull}, nil)
			for rank, rr := range res.Ranks {
				if rr.Err != nil || !rr.Finished {
					t.Fatalf("rank %d: %+v", rank, rr)
				}
			}
			root := report.Rank(0)
			if len(root.RootValues) != iters {
				t.Fatalf("root absorbed %d iterations, want %d", len(root.RootValues), iters)
			}
			for marker, v := range root.RootValues {
				if v != int64(n) {
					t.Fatalf("iteration %d accumulated %d, want %d", marker, v, n)
				}
			}
			if report.TotalResends() != 0 || report.TotalDupsDropped() != 0 {
				t.Fatalf("failure-free run should have no recovery traffic: %+v", report)
			}
		})
	}
}

// TestScenarioFig6Hang reproduces Figure 6: with the naive receive, P2
// dying after receiving the buffer (before forwarding) deadlocks the
// ring. The harness makes the hang observable as a watchdog timeout with
// the surviving ranks stuck.
func TestScenarioFig6Hang(t *testing.T) {
	plan := inject.NewPlan().Add(inject.AfterNthRecv(2, 2))
	mcfg := mpi.Config{Size: 4, Deadline: 400 * time.Millisecond, Hook: plan.Hook()}
	report, res, err := Run(mcfg, Config{Iters: 6, Variant: VariantNaive})
	if !errors.Is(err, mpi.ErrTimedOut) {
		t.Fatalf("naive ring should deadlock, got %v", err)
	}
	if !res.TimedOut {
		t.Fatal("expected watchdog timeout")
	}
	if !res.Ranks[2].Killed {
		t.Fatalf("rank 2 should have been killed: %+v", res.Ranks[2])
	}
	// Every survivor is stuck: the control was lost with P2.
	if len(res.Stuck) != 3 {
		t.Fatalf("stuck ranks %v, want all three survivors", res.Stuck)
	}
	_ = report
}

// TestScenarioFig7Resend reproduces Figure 7: with the Irecv failure
// detector, P1 notices P2's death and resends the buffer to P3; the ring
// completes all iterations.
func TestScenarioFig7Resend(t *testing.T) {
	plan := inject.NewPlan().Add(inject.AfterNthRecv(2, 2))
	rec := trace.New(0)
	report, res := runRing(t, 4, Config{Iters: 6, Variant: VariantFull},
		func(m *mpi.Config) { m.Hook = plan.Hook(); m.Tracer = rec })
	if !res.Ranks[2].Killed {
		t.Fatalf("rank 2 should have been killed: %+v", res.Ranks[2])
	}
	for _, rank := range []int{0, 1, 3} {
		if !res.Ranks[rank].Finished || res.Ranks[rank].Err != nil {
			t.Fatalf("rank %d did not complete: %+v", rank, res.Ranks[rank])
		}
	}
	if got := len(report.Rank(0).RootValues); got != 6 {
		t.Fatalf("root absorbed %d iterations, want 6", got)
	}
	if report.Rank(1).Resends < 1 {
		t.Fatalf("rank 1 should have resent at least once: %+v", report.Rank(1))
	}
	// The causal chain of Fig. 7: P2's death precedes P1's resend.
	if !rec.HappensBefore(
		func(e trace.Event) bool { return e.Kind == trace.Killed && e.Rank == 2 },
		func(e trace.Event) bool { return e.Kind == trace.Resend && e.Rank == 1 },
	) {
		t.Fatalf("trace lacks kill(2) -> resend(1) ordering:\n%s", rec.Render())
	}
}

// runFig8Schedule runs a 4-rank, 4-lap ring of the given variant through
// the Figure 8 failure: P2 dies right after forwarding lap 1 to P3 (its
// 2nd send), so the original reaches P3 while P1's detector triggers a
// resend of lap 1.
//
// The schedule is pinned, not timed. The notices of P2's death reach the
// other ranks one at a time, and lap 1 can travel P3 -> P0 -> (lap 2) ->
// P1 before P1 hears of it. P1 would then take lap 2 first and resend lap
// 2, not lap 1, leaving no duplicate at all. So the root's send of lap 2
// waits until P1 and P3 know P2 is dead.
func runFig8Schedule(t *testing.T, v Variant) (*Report, *mpi.RunResult) {
	t.Helper()
	const ranks = 4
	kill := inject.NewPlan().Add(inject.AfterNthSend(2, 2)).Hook()
	var (
		procs     [ranks]atomic.Pointer[mpi.Proc]
		rootSends atomic.Int32
	)
	hook := func(ev mpi.HookEvent) mpi.Action {
		if ev.Rank == 0 && ev.Point == mpi.HookBeforeSend && ev.Tag == TagRing && rootSends.Add(1) == 3 {
			for _, r := range []int{1, 3} {
				mpi.AwaitKnownFailed(procs[r].Load(), 1)
			}
		}
		return kill(ev)
	}
	w, err := mpi.NewWorld(ranks, mpi.WithHook(hook), mpi.WithDeadline(30*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	report := NewReport(ranks)
	body := Body(Config{Iters: 4, Variant: v}, report)
	res, err := w.Run(func(p *mpi.Proc) error {
		procs[p.Rank()].Store(p) // before the rank's first send, so before the root's third
		return body(p)
	})
	if err != nil {
		t.Fatalf("ring run failed: %v", err)
	}
	if !res.Ranks[2].Killed {
		t.Fatalf("rank 2 should have been killed: %+v", res.Ranks[2])
	}
	return report, res
}

// TestScenarioFig8Duplicates reproduces Figure 8: without the iteration
// marker, P1's resend after P2's death is indistinguishable from the next
// iteration's buffer and gets forwarded — the same ring iteration
// completes more than once.
func TestScenarioFig8Duplicates(t *testing.T) {
	report, _ := runFig8Schedule(t, VariantNoMarker)
	if report.TotalDupsForwarded() < 1 {
		t.Fatalf("expected at least one duplicate forwarded (Fig. 8), got %d",
			report.TotalDupsForwarded())
	}
}

// TestScenarioFig10Dedup runs the exact Figure 8 failure schedule with
// the marker check enabled (Fig. 10): the duplicate is detected and
// dropped, and the root absorbs every iteration exactly once.
func TestScenarioFig10Dedup(t *testing.T) {
	report, res := runFig8Schedule(t, VariantFull)
	for _, rank := range []int{0, 1, 3} {
		if !res.Ranks[rank].Finished || res.Ranks[rank].Err != nil {
			t.Fatalf("rank %d did not complete: %+v", rank, res.Ranks[rank])
		}
	}
	if report.TotalDupsDropped() < 1 {
		t.Fatalf("expected the resend to be dropped as a duplicate, got %d drops",
			report.TotalDupsDropped())
	}
	if report.TotalDupsForwarded() != 0 {
		t.Fatalf("marker variant must not forward duplicates, got %d",
			report.TotalDupsForwarded())
	}
	root := report.Rank(0)
	if len(root.RootValues) != 4 {
		t.Fatalf("root absorbed %d distinct iterations, want 4", len(root.RootValues))
	}
}

// TestSeparateTagVariant checks the Section III-B alternative: resends on
// a dedicated tag, same failure schedule as Fig. 8/10.
func TestSeparateTagVariant(t *testing.T) {
	plan := inject.NewPlan().Add(inject.AfterNthSend(2, 2))
	report, res := runRing(t, 4, Config{Iters: 4, Variant: VariantSeparateTag},
		func(m *mpi.Config) { m.Hook = plan.Hook() })
	if !res.Ranks[2].Killed {
		t.Fatal("rank 2 should have been killed")
	}
	for _, rank := range []int{0, 1, 3} {
		if !res.Ranks[rank].Finished || res.Ranks[rank].Err != nil {
			t.Fatalf("rank %d did not complete: %+v", rank, res.Ranks[rank])
		}
	}
	if len(report.Rank(0).RootValues) != 4 {
		t.Fatalf("root absorbed %d iterations, want 4", len(report.Rank(0).RootValues))
	}
}

// TestTerminationRootBcast is Fig. 11 in its baseline form: non-root
// failures during the run, root survives and broadcasts termination.
func TestTerminationRootBcast(t *testing.T) {
	plan := inject.NewPlan().Add(inject.AfterNthRecv(3, 2))
	report, res := runRing(t, 6,
		Config{Iters: 5, Variant: VariantFull, Termination: TermRootBcast},
		func(m *mpi.Config) { m.Hook = plan.Hook() })
	if !res.Ranks[3].Killed {
		t.Fatal("rank 3 should have been killed")
	}
	for _, rank := range []int{0, 1, 2, 4, 5} {
		rr := res.Ranks[rank]
		if !rr.Finished || rr.Err != nil {
			t.Fatalf("rank %d did not terminate cleanly: %+v", rank, rr)
		}
		if !report.Rank(rank).Terminated {
			t.Fatalf("rank %d missed the termination broadcast", rank)
		}
	}
	if len(report.Rank(0).RootValues) != 5 {
		t.Fatalf("root absorbed %d iterations, want 5", len(report.Rank(0).RootValues))
	}
}

// TestTerminationValidateAll is Fig. 13 without failures.
func TestTerminationValidateAll(t *testing.T) {
	report, res := runRing(t, 5,
		Config{Iters: 4, Variant: VariantFull, Termination: TermValidateAll}, nil)
	for rank, rr := range res.Ranks {
		if !rr.Finished || rr.Err != nil {
			t.Fatalf("rank %d: %+v", rank, rr)
		}
		if !report.Rank(rank).Terminated {
			t.Fatalf("rank %d did not reach agreement", rank)
		}
	}
}

// TestTerminationValidateAllWithFailure: a non-root dies mid-run; the
// validate_all termination still completes everywhere (Fig. 13).
func TestTerminationValidateAllWithFailure(t *testing.T) {
	plan := inject.NewPlan().Add(inject.AfterNthRecv(2, 2))
	report, res := runRing(t, 5,
		Config{Iters: 5, Variant: VariantFull, Termination: TermValidateAll},
		func(m *mpi.Config) { m.Hook = plan.Hook() })
	if !res.Ranks[2].Killed {
		t.Fatal("rank 2 should have been killed")
	}
	for _, rank := range []int{0, 1, 3, 4} {
		rr := res.Ranks[rank]
		if !rr.Finished || rr.Err != nil {
			t.Fatalf("rank %d: %+v", rank, rr)
		}
		if !report.Rank(rank).Terminated {
			t.Fatalf("rank %d did not reach agreement", rank)
		}
	}
}

// TestScenarioRootFailover is Section III-D: the root dies mid-run under
// RootElect; its right neighbor (the lowest alive rank, Fig. 12) regains
// control of the iteration space and leads the ring to completion, with
// termination via validate_all (the paper's root-fault-tolerant choice).
func TestScenarioRootFailover(t *testing.T) {
	// Root (rank 0) dies right after absorbing iteration 2 (its 3rd recv).
	plan := inject.NewPlan().Add(inject.AfterNthRecv(0, 3))
	report, res := runRing(t, 5,
		Config{Iters: 6, Variant: VariantFull, Termination: TermValidateAll, RootPolicy: RootElect},
		func(m *mpi.Config) { m.Hook = plan.Hook() })
	if !res.Ranks[0].Killed {
		t.Fatalf("rank 0 should have been killed: %+v", res.Ranks[0])
	}
	for rank := 1; rank < 5; rank++ {
		rr := res.Ranks[rank]
		if !rr.Finished || rr.Err != nil {
			t.Fatalf("rank %d: %+v", rank, rr)
		}
		if !report.Rank(rank).Terminated {
			t.Fatalf("rank %d did not terminate", rank)
		}
		if report.Rank(rank).FinalRoot != 1 {
			t.Fatalf("rank %d final root %d, want 1", rank, report.Rank(rank).FinalRoot)
		}
	}
	if !report.Rank(1).BecameRoot {
		t.Fatalf("rank 1 should have assumed the root role: %+v", report.Rank(1))
	}
	// Control was regained: the old root recorded absorptions 0 and 1 (it
	// was killed at the instant iteration 2's buffer returned, before the
	// record), and the new root took over exactly at iteration 3 — no
	// iteration was re-run and none was skipped.
	absorbed := map[int64]bool{}
	for m := range report.Rank(0).RootValues {
		absorbed[m] = true
	}
	for m := range report.Rank(1).RootValues {
		absorbed[m] = true
	}
	for _, m := range []int64{0, 1, 3, 4, 5} {
		if !absorbed[m] {
			t.Fatalf("iteration %d was never absorbed: %v", m, absorbed)
		}
	}
	if absorbed[2] {
		t.Fatalf("iteration 2's absorption record should have died with the root: %v", absorbed)
	}
	// Every survivor participated in all 6 iterations exactly once each:
	// rank 1 forwarded 0-2 as a member and absorbed 3-5 as root; ranks
	// 2-4 forwarded all 6.
	for rank := 1; rank < 5; rank++ {
		if got := report.Rank(rank).Iterations; got != 6 {
			t.Fatalf("rank %d participated in %d iterations, want 6", rank, got)
		}
	}
}

// TestRootFailoverWithRootBcastTermination: the root dies during the main
// loop (not mid-broadcast — the case the paper itself declares delicate
// and solves with validate_all); the elected root broadcasts termination.
func TestRootFailoverWithRootBcastTermination(t *testing.T) {
	plan := inject.NewPlan().Add(inject.AfterNthRecv(0, 2))
	report, res := runRing(t, 4,
		Config{Iters: 5, Variant: VariantFull, Termination: TermRootBcast, RootPolicy: RootElect},
		func(m *mpi.Config) { m.Hook = plan.Hook() })
	if !res.Ranks[0].Killed {
		t.Fatal("rank 0 should have been killed")
	}
	for rank := 1; rank < 4; rank++ {
		rr := res.Ranks[rank]
		if !rr.Finished || rr.Err != nil {
			t.Fatalf("rank %d: %+v", rank, rr)
		}
		if !report.Rank(rank).Terminated {
			t.Fatalf("rank %d missed termination", rank)
		}
	}
	if !report.Rank(1).BecameRoot {
		t.Fatal("rank 1 should have become root")
	}
}

// TestRootAbortOnRootFailure: under the baseline policy, root failure
// aborts the world (Fig. 11 lines 22-25).
func TestRootAbortOnRootFailure(t *testing.T) {
	plan := inject.NewPlan().Add(inject.AfterNthRecv(0, 2))
	mcfg := mpi.Config{Size: 4, Deadline: 30 * time.Second, Hook: plan.Hook()}
	_, res, err := Run(mcfg, Config{Iters: 5, Variant: VariantFull, Termination: TermRootBcast})
	var ae *mpi.AbortError
	if !errors.As(err, &ae) {
		t.Fatalf("root failure under RootAbort should abort, got %v", err)
	}
	if !res.Ranks[0].Killed {
		t.Fatal("rank 0 should have been killed")
	}
}

// TestMultipleFailuresRunThrough is the paper's headline claim: the ring
// "is able to run-through the failure of multiple processes during
// normal operation".
func TestMultipleFailuresRunThrough(t *testing.T) {
	plan := inject.NewPlan().Add(
		inject.AfterNthRecv(2, 1),
		inject.AfterNthRecv(5, 3),
		inject.AfterNthSend(7, 4),
	)
	report, res := runRing(t, 9,
		Config{Iters: 8, Variant: VariantFull, Termination: TermValidateAll},
		func(m *mpi.Config) { m.Hook = plan.Hook() })
	killed := 0
	for rank, rr := range res.Ranks {
		if rr.Killed {
			killed++
			continue
		}
		if !rr.Finished || rr.Err != nil {
			t.Fatalf("rank %d: %+v", rank, rr)
		}
		if !report.Rank(rank).Terminated {
			t.Fatalf("rank %d did not terminate", rank)
		}
	}
	if killed != 3 {
		t.Fatalf("killed %d ranks, want 3", killed)
	}
	if got := len(report.Rank(0).RootValues); got != 8 {
		t.Fatalf("root absorbed %d iterations, want 8", got)
	}
}

// TestTwoRankRing exercises the P_L == P_R topology where the failure
// detector must be suppressed.
func TestTwoRankRing(t *testing.T) {
	report, res := runRing(t, 2,
		Config{Iters: 6, Variant: VariantFull, Termination: TermValidateAll}, nil)
	for rank, rr := range res.Ranks {
		if !rr.Finished || rr.Err != nil {
			t.Fatalf("rank %d: %+v", rank, rr)
		}
	}
	root := report.Rank(0)
	if len(root.RootValues) != 6 {
		t.Fatalf("root absorbed %d iterations, want 6", len(root.RootValues))
	}
	for m, v := range root.RootValues {
		if v != 2 {
			t.Fatalf("iteration %d value %d, want 2", m, v)
		}
	}
}

// TestShrinkToTwo kills ranks until only two remain, crossing the
// detector-suppression boundary mid-run.
func TestShrinkToTwo(t *testing.T) {
	plan := inject.NewPlan().Add(
		inject.AfterNthRecv(1, 2),
		inject.AfterNthRecv(2, 3),
	)
	report, res := runRing(t, 4,
		Config{Iters: 8, Variant: VariantFull, Termination: TermValidateAll},
		func(m *mpi.Config) { m.Hook = plan.Hook() })
	for _, rank := range []int{0, 3} {
		rr := res.Ranks[rank]
		if !rr.Finished || rr.Err != nil {
			t.Fatalf("rank %d: %+v", rank, rr)
		}
	}
	if got := len(report.Rank(0).RootValues); got != 8 {
		t.Fatalf("root absorbed %d iterations, want 8", got)
	}
}
