package election

import (
	"sync"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/detector"
	"repro/internal/mpi"
	"repro/internal/mpitest"
)

func runWorld(t *testing.T, n int, fn func(p *mpi.Proc) error) *mpi.RunResult {
	t.Helper()
	w, err := mpi.NewWorld(n, mpi.WithDeadline(30*time.Second))
	if err != nil {
		t.Fatalf("NewWorld: %v", err)
	}
	res, err := w.Run(func(p *mpi.Proc) error {
		p.World().SetErrhandler(mpi.ErrorsReturn)
		return fn(p)
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return res
}

func TestLowestAliveNoFailures(t *testing.T) {
	var mu sync.Mutex
	elected := map[int]int{}
	res := runWorld(t, 5, func(p *mpi.Proc) error {
		r := LowestAlive(p, p.World())
		mu.Lock()
		elected[p.Rank()] = r
		mu.Unlock()
		return nil
	})
	for rank := range res.Ranks {
		if elected[rank] != 0 {
			t.Fatalf("rank %d elected %d, want 0", rank, elected[rank])
		}
	}
}

func TestLowestAliveSkipsFailedPrefix(t *testing.T) {
	var mu sync.Mutex
	elected := map[int]int{}
	res := runWorld(t, 5, func(p *mpi.Proc) error {
		if p.Rank() == 0 || p.Rank() == 1 {
			p.Die()
		}
		mpitest.AwaitKnownAlive(p, 3)
		r := LowestAlive(p, p.World())
		mu.Lock()
		elected[p.Rank()] = r
		mu.Unlock()
		return nil
	})
	for _, rank := range []int{2, 3, 4} {
		if res.Ranks[rank].Err != nil {
			t.Fatalf("rank %d: %v", rank, res.Ranks[rank].Err)
		}
		if elected[rank] != 2 {
			t.Fatalf("rank %d elected %d, want 2 (Fig. 12)", rank, elected[rank])
		}
	}
}

func TestChangRobertsNoFailures(t *testing.T) {
	var mu sync.Mutex
	elected := map[int]int{}
	res := runWorld(t, 6, func(p *mpi.Proc) error {
		leader, err := ChangRoberts(p, p.World())
		if err != nil {
			return err
		}
		mu.Lock()
		elected[p.Rank()] = leader
		mu.Unlock()
		return nil
	})
	for rank := range res.Ranks {
		if res.Ranks[rank].Err != nil {
			t.Fatalf("rank %d: %v", rank, res.Ranks[rank].Err)
		}
		if elected[rank] != 0 {
			t.Fatalf("rank %d elected %d, want 0", rank, elected[rank])
		}
	}
}

func TestChangRobertsWithPreFailedRanks(t *testing.T) {
	var mu sync.Mutex
	elected := map[int]int{}
	res := runWorld(t, 6, func(p *mpi.Proc) error {
		if p.Rank() == 0 || p.Rank() == 3 {
			p.Die()
		}
		mpitest.AwaitKnownAlive(p, 4)
		leader, err := ChangRoberts(p, p.World())
		if err != nil {
			return err
		}
		mu.Lock()
		elected[p.Rank()] = leader
		mu.Unlock()
		return nil
	})
	for _, rank := range []int{1, 2, 4, 5} {
		if res.Ranks[rank].Err != nil {
			t.Fatalf("rank %d: %v", rank, res.Ranks[rank].Err)
		}
		if elected[rank] != 1 {
			t.Fatalf("rank %d elected %d, want 1", rank, elected[rank])
		}
	}
}

// TestChangRobertsSurvivesMidElectionDeath: rank 2 dies as the election
// starts, but the failure notification is delayed — so survivors route
// tokens through the dead rank and lose them. The re-initiation on the
// eventual notification must drain the ring to the lowest alive rank
// instead of wedging.
func TestChangRobertsSurvivesMidElectionDeath(t *testing.T) {
	const n, victim = 5, 2
	w, err := mpi.NewWorld(n, mpi.WithDeadline(60*time.Second),
		mpi.WithNotifyDelay(20*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	elected := map[int]int{}
	res, err := w.Run(func(p *mpi.Proc) error {
		c := p.World()
		c.SetErrhandler(mpi.ErrorsReturn)
		if p.Rank() == victim {
			p.Die()
		}
		leader, err := ChangRoberts(p, c)
		if err != nil {
			return err
		}
		mu.Lock()
		elected[p.Rank()] = leader
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.TimedOut {
		t.Fatalf("election wedged; stuck ranks %v", res.Stuck)
	}
	if !res.Ranks[victim].Killed {
		t.Fatal("victim did not die")
	}
	for _, rank := range []int{0, 1, 3, 4} {
		if res.Ranks[rank].Err != nil {
			t.Fatalf("rank %d: %v", rank, res.Ranks[rank].Err)
		}
		if elected[rank] != 0 {
			t.Fatalf("rank %d elected %d, want 0", rank, elected[rank])
		}
	}
}

// TestChangRobertsSurvivesSuspectFenceGapDeath is the heartbeat-detector
// variant: the victim is partitioned (so its peers falsely suspect it,
// and their fences can never arrive), then dies inside the gap between
// suspicion and fence-ack. Survivors' tokens routed through the victim
// are lost to the partition; the ground-truth confirmation must unblock
// the election and converge it on the lowest alive rank.
func TestChangRobertsSurvivesSuspectFenceGapDeath(t *testing.T) {
	const n, victim = 5, 2
	plan := chaos.NewPlan(23).
		Partition(victim, -1, 1, ^uint64(0)).
		Partition(-1, victim, 1, ^uint64(0))
	hb := detector.HeartbeatOptions{
		Interval:       2 * time.Millisecond,
		Timeout:        25 * time.Millisecond,
		SelfFenceAfter: 2 * time.Second, // the scripted death must win
	}
	w, err := mpi.NewWorld(n, mpi.WithChaos(plan), mpi.WithHeartbeat(hb),
		mpi.WithDeadline(60*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	elected := map[int]int{}
	res, err := w.Run(func(p *mpi.Proc) error {
		c := p.World()
		c.SetErrhandler(mpi.ErrorsReturn)
		if p.Rank() == victim {
			// Stay alive past the suspicion deadline, then die before any
			// fence (or fence ack) can cross the partition.
			time.Sleep(60 * time.Millisecond)
			p.Die()
		}
		leader, err := ChangRoberts(p, c)
		if err != nil {
			return err
		}
		mu.Lock()
		elected[p.Rank()] = leader
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.TimedOut {
		t.Fatalf("election wedged; stuck ranks %v", res.Stuck)
	}
	if !res.Ranks[victim].Killed {
		t.Fatal("victim did not die")
	}
	for _, rank := range []int{0, 1, 3, 4} {
		if res.Ranks[rank].Err != nil {
			t.Fatalf("rank %d: %v", rank, res.Ranks[rank].Err)
		}
		if elected[rank] != 0 {
			t.Fatalf("rank %d elected %d, want 0", rank, elected[rank])
		}
	}
}

func TestChangRobertsPairAndSingleton(t *testing.T) {
	var mu sync.Mutex
	elected := map[int]int{}
	res := runWorld(t, 2, func(p *mpi.Proc) error {
		leader, err := ChangRoberts(p, p.World())
		if err != nil {
			return err
		}
		mu.Lock()
		elected[p.Rank()] = leader
		mu.Unlock()
		return nil
	})
	for rank := range res.Ranks {
		if elected[rank] != 0 {
			t.Fatalf("rank %d elected %d", rank, elected[rank])
		}
	}
}
