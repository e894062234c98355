package inject

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/mpi"
)

func TestAfterNthRecvFiresExactlyOnce(t *testing.T) {
	plan := NewPlan().Add(AfterNthRecv(1, 2))
	hook := plan.Hook()
	ev := mpi.HookEvent{Rank: 1, Point: mpi.HookAfterRecv}
	if hook(ev) != mpi.ActNone {
		t.Fatal("first receive should not kill")
	}
	if hook(ev) != mpi.ActKill {
		t.Fatal("second receive should kill")
	}
	if hook(ev) != mpi.ActNone {
		t.Fatal("trigger must not fire twice")
	}
	if plan.FiredCount() != 1 {
		t.Fatalf("fired %d", plan.FiredCount())
	}
	if len(plan.Log()) != 1 || !strings.Contains(plan.Log()[0], "rank 1") {
		t.Fatalf("log %v", plan.Log())
	}
}

func TestTriggersAreRankAndPointScoped(t *testing.T) {
	plan := NewPlan().Add(AfterNthSend(2, 1))
	hook := plan.Hook()
	if hook(mpi.HookEvent{Rank: 2, Point: mpi.HookAfterRecv}) != mpi.ActNone {
		t.Fatal("recv must not match a send trigger")
	}
	if hook(mpi.HookEvent{Rank: 1, Point: mpi.HookAfterSend}) != mpi.ActNone {
		t.Fatal("other rank must not match")
	}
	if hook(mpi.HookEvent{Rank: 2, Point: mpi.HookAfterSend}) != mpi.ActKill {
		t.Fatal("matching event should kill")
	}
}

func TestBeforeNthSendOrdinalsIndependent(t *testing.T) {
	plan := NewPlan().Add(BeforeNthSend(0, 2))
	hook := plan.Hook()
	// AfterSend events must not advance the BeforeSend ordinal.
	hook(mpi.HookEvent{Rank: 0, Point: mpi.HookAfterSend})
	hook(mpi.HookEvent{Rank: 0, Point: mpi.HookAfterSend})
	if hook(mpi.HookEvent{Rank: 0, Point: mpi.HookBeforeSend}) != mpi.ActNone {
		t.Fatal("first before-send should pass")
	}
	if hook(mpi.HookEvent{Rank: 0, Point: mpi.HookBeforeSend}) != mpi.ActKill {
		t.Fatal("second before-send should kill")
	}
}

func TestAtCheckpoint(t *testing.T) {
	plan := NewPlan().Add(AtCheckpoint(3, "phase-2"))
	hook := plan.Hook()
	if hook(mpi.HookEvent{Rank: 3, Point: mpi.HookCheckpoint, Label: "phase-1"}) != mpi.ActNone {
		t.Fatal("wrong label must not match")
	}
	if hook(mpi.HookEvent{Rank: 3, Point: mpi.HookCheckpoint, Label: "phase-2"}) != mpi.ActKill {
		t.Fatal("matching checkpoint should kill")
	}
}

func TestRandomPlanDeterministicPerSeed(t *testing.T) {
	cands := []int{1, 2, 3, 4, 5, 6, 7}
	_, a := RandomPlan(42, cands, 3, 10)
	_, b := RandomPlan(42, cands, 3, 10)
	_, c := RandomPlan(43, cands, 3, 10)
	if len(a) != 3 {
		t.Fatalf("chose %d failures", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged: %v vs %v", a, b)
		}
	}
	same := true
	for i := range a {
		if len(c) != len(a) || a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Logf("seeds 42 and 43 coincided (possible but unlikely): %v", a)
	}
	seen := map[int]bool{}
	for _, pair := range a {
		if seen[pair[0]] {
			t.Fatalf("rank %d chosen twice: %v", pair[0], a)
		}
		seen[pair[0]] = true
		if pair[1] < 1 || pair[1] > 10 {
			t.Fatalf("ordinal out of range: %v", a)
		}
	}
}

func TestRandomPlanClampsFailures(t *testing.T) {
	_, chosen := RandomPlan(7, []int{1, 2}, 10, 3)
	if len(chosen) != 2 {
		t.Fatalf("chose %d, want clamp to 2", len(chosen))
	}
}

// TestPlanKillsInsideWorld wires a plan into a real world.
func TestPlanKillsInsideWorld(t *testing.T) {
	plan := NewPlan().Add(AtCheckpoint(1, "die-here"))
	w, err := mpi.NewWorld(2, mpi.WithDeadline(30*time.Second), mpi.WithHook(plan.Hook()))
	if err != nil {
		t.Fatal(err)
	}
	res, err := w.Run(func(p *mpi.Proc) error {
		p.World().SetErrhandler(mpi.ErrorsReturn)
		p.Checkpoint("warm-up")
		p.Checkpoint("die-here")
		return nil
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !res.Ranks[1].Killed || res.Ranks[0].Killed {
		t.Fatalf("exactly rank 1 should die: %+v", res.Ranks)
	}
	if plan.FiredCount() != 1 {
		t.Fatalf("fired %d", plan.FiredCount())
	}
	if plan.String() == "" {
		t.Fatal("plan description empty")
	}
}

// fourTriggerPlan is the run-through benchmark's shape: four receive
// kills on distinct ranks.
func fourTriggerPlan() *Plan {
	return NewPlan().Add(AfterNthRecv(1, 1<<30), AfterNthRecv(2, 1<<30),
		AfterNthSend(3, 1<<30), AtCheckpoint(4, "never"))
}

// TestNonFiringEventAllocatesNothing: the hook sits on every send and
// receive, so an event that kills nobody must not allocate (which also
// rules out formatting a description or a log line).
func TestNonFiringEventAllocatesNothing(t *testing.T) {
	hook := fourTriggerPlan().Hook()
	events := []mpi.HookEvent{
		{Rank: 1, Point: mpi.HookAfterRecv, Peer: 0, Tag: 7},
		{Rank: 3, Point: mpi.HookAfterSend, Peer: 4, Tag: 7},
		{Rank: 4, Point: mpi.HookCheckpoint, Peer: -1, Label: "lap"},
		{Rank: 9, Point: mpi.HookBeforeSend, Peer: 10},
	}
	for _, ev := range events {
		hook(ev) // first event of a rank may grow the counter table
	}
	if n := testing.AllocsPerRun(1000, func() {
		for _, ev := range events {
			if hook(ev) != mpi.ActNone {
				t.Fatal("unexpected kill")
			}
		}
	}); n != 0 {
		t.Fatalf("%v allocations per %d non-firing events, want 0", n, len(events))
	}
}

// TestAddAfterHookTakesEffect: the hook closure reads the plan's current
// triggers, not the ones present when Hook was called.
func TestAddAfterHookTakesEffect(t *testing.T) {
	plan := NewPlan()
	hook := plan.Hook()
	ev := mpi.HookEvent{Rank: 5, Point: mpi.HookAfterRecv}
	if hook(ev) != mpi.ActNone {
		t.Fatal("empty plan killed")
	}
	plan.Add(AfterNthRecv(5, 3)) // ordinals kept counting while the plan was empty
	if hook(ev) != mpi.ActNone || hook(ev) != mpi.ActKill {
		t.Fatal("trigger added after Hook() should fire at the rank's 3rd receive")
	}
	want := "kill rank 5 at after-recv #3 (rank 5 @ after-recv #3)"
	if log := plan.Log(); len(log) != 1 || log[0] != want {
		t.Fatalf("log %q, want [%q]", log, want)
	}
	if plan.String() != "rank 5 @ after-recv #3" || plan.FiredCount() != 1 {
		t.Fatalf("String %q FiredCount %d", plan.String(), plan.FiredCount())
	}
}

// TestSharedRankFiresOnce: replicas of one logical rank report events
// under the same rank from different goroutines. Ordinals stay unique and
// gap-free across them and the trigger kills exactly one caller.
func TestSharedRankFiresOnce(t *testing.T) {
	const goroutines, each = 16, 500
	plan := NewPlan().Add(AfterNthRecv(2, goroutines*each/2), AtCheckpoint(2, "x"))
	hook := plan.Hook()
	var kills atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if hook(mpi.HookEvent{Rank: 2, Point: mpi.HookAfterRecv}) == mpi.ActKill {
					kills.Add(1)
				}
				if hook(mpi.HookEvent{Rank: 2, Point: mpi.HookCheckpoint, Label: "x"}) == mpi.ActKill {
					kills.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	if kills.Load() != 2 || plan.FiredCount() != 2 || len(plan.Log()) != 2 {
		t.Fatalf("kills %d fired %d log %v, want 2 each", kills.Load(), plan.FiredCount(), plan.Log())
	}
}

// TestPointTableCoversRuntime pins numPoints to the runtime's hook
// points: a point added to mpi without growing the table would silently
// never be counted.
func TestPointTableCoversRuntime(t *testing.T) {
	for p := mpi.HookPoint(0); int(p) < numPoints; p++ {
		if strings.HasPrefix(p.String(), "HookPoint(") {
			t.Fatalf("point %d inside the table is not one mpi names", p)
		}
	}
	if !strings.HasPrefix(mpi.HookPoint(numPoints).String(), "HookPoint(") {
		t.Fatalf("mpi names hook point %d (%s): grow numPoints", numPoints, mpi.HookPoint(numPoints))
	}
	hook := NewPlan().Hook()
	for _, ev := range []mpi.HookEvent{{Rank: -1}, {Point: -1}, {Point: mpi.HookPoint(numPoints)}} {
		if hook(ev) != mpi.ActNone {
			t.Fatalf("event %+v outside the runtime's range killed", ev)
		}
	}
}

// BenchmarkPlanHookParallel is the run-through world's load on the hook:
// 16 ranks reporting sends and receives at once against a four-trigger
// plan that does not fire.
func BenchmarkPlanHookParallel(b *testing.B) {
	hook := fourTriggerPlan().Hook()
	var nextRank atomic.Int64
	b.SetParallelism(16) // x GOMAXPROCS goroutines, at least the 16 ranks
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		rank := int(nextRank.Add(1)-1) % 16
		recv := mpi.HookEvent{Rank: rank, Point: mpi.HookAfterRecv, Peer: (rank + 15) % 16, Tag: 1}
		send := mpi.HookEvent{Rank: rank, Point: mpi.HookAfterSend, Peer: (rank + 1) % 16, Tag: 1}
		for pb.Next() {
			hook(recv)
			hook(send)
		}
	})
}
