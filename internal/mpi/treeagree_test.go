package mpi

import (
	"fmt"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

// runTreeWorld runs fn on an n-rank world with tree-mode agreement.
func runTreeWorld(t *testing.T, n int, fn func(p *Proc) error) *RunResult {
	t.Helper()
	w, err := NewWorld(n, WithAgreement(AgreementTree), WithDeadline(30*time.Second))
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
	if res.TimedOut {
		t.Fatalf("tree agreement wedged; stuck ranks %v", res.Stuck)
	}
	return res
}

func TestTreeAgreementNoFailures(t *testing.T) {
	res := runTreeWorld(t, 8, func(p *Proc) error {
		cnt, err := p.World().ValidateAll()
		if err != nil {
			return err
		}
		if cnt != 0 {
			return fmt.Errorf("want 0 failures, got %d", cnt)
		}
		return nil
	})
	requireNoRankErrors(t, res)
}

func TestTreeAgreementAgreesOnFailures(t *testing.T) {
	var mu sync.Mutex
	counts := map[int]int{}
	res := runTreeWorld(t, 9, func(p *Proc) error {
		c := p.World()
		if p.Rank() == 3 || p.Rank() == 7 {
			p.Die()
		}
		awaitKnownAlive(p, 7)
		cnt, err := c.ValidateAll()
		if err != nil {
			return err
		}
		mu.Lock()
		counts[p.Rank()] = cnt
		mu.Unlock()
		return nil
	})
	for rank := 0; rank < 9; rank++ {
		if rank == 3 || rank == 7 {
			continue
		}
		if res.Ranks[rank].Err != nil {
			t.Fatalf("rank %d: %v", rank, res.Ranks[rank].Err)
		}
		if counts[rank] != 2 {
			t.Fatalf("rank %d agreed on %d failures, want 2 (all: %v)", rank, counts[rank], counts)
		}
	}
}

// TestTreeAgreementInteriorNodeDies kills rank 1 — an interior node of
// the 7-rank tree (children 3 and 4) — while the round runs. Its orphaned
// subtree must reparent and re-push so the survivors still converge.
func TestTreeAgreementInteriorNodeDies(t *testing.T) {
	var mu sync.Mutex
	counts := map[int]int{}
	res := runTreeWorld(t, 7, func(p *Proc) error {
		c := p.World()
		if p.Rank() == 1 {
			// Enter the collective so subtree votes land here first, then
			// die before forwarding them up.
			req := c.IvalidateAll()
			time.Sleep(10 * time.Millisecond)
			p.Die()
			_ = req
		}
		if p.Rank() == 6 {
			// Hold the round open past rank 1's death: the root cannot
			// decide before this leaf joins, so the death is mid-round.
			awaitKnownAlive(p, 6)
		}
		cnt, err := c.ValidateAll()
		if err != nil {
			return err
		}
		mu.Lock()
		counts[p.Rank()] = cnt
		mu.Unlock()
		return nil
	})
	if !res.Ranks[1].Killed {
		t.Fatal("rank 1 did not die")
	}
	for _, rank := range []int{0, 2, 3, 4, 5, 6} {
		if res.Ranks[rank].Err != nil {
			t.Fatalf("rank %d: %v", rank, res.Ranks[rank].Err)
		}
		if counts[rank] != 1 {
			t.Fatalf("rank %d agreed on %d failures, want 1 (all: %v)", rank, counts[rank], counts)
		}
	}
}

// TestTreeAgreementRootDies kills rank 0 — the tree root — mid-round;
// rank 1 must take over as the new root, pull whatever coverage it lacks,
// and the survivors must agree on a set that includes the dead root.
func TestTreeAgreementRootDies(t *testing.T) {
	var mu sync.Mutex
	counts := map[int]int{}
	res := runTreeWorld(t, 6, func(p *Proc) error {
		c := p.World()
		if p.Rank() == 0 {
			req := c.IvalidateAll()
			time.Sleep(10 * time.Millisecond)
			p.Die()
			_ = req
		}
		if p.Rank() == 5 {
			// Hold the round open until the root is dead, forcing the
			// succession path rather than a clean 0-failure decision.
			awaitKnownAlive(p, 5)
		}
		cnt, err := c.ValidateAll()
		if err != nil {
			return err
		}
		mu.Lock()
		counts[p.Rank()] = cnt
		mu.Unlock()
		return nil
	})
	if !res.Ranks[0].Killed {
		t.Fatal("rank 0 did not die")
	}
	for rank := 1; rank < 6; rank++ {
		if res.Ranks[rank].Err != nil {
			t.Fatalf("rank %d: %v", rank, res.Ranks[rank].Err)
		}
		if counts[rank] != 1 {
			t.Fatalf("rank %d agreed on %d failures, want 1 (all: %v)", rank, counts[rank], counts)
		}
	}
}

// TestTreeAgreementLateEntrantDies reproduces the pending-voter shape of
// TestValidateAllKillDuringAgreement under tree mode: rank 5 never calls
// ValidateAll and dies while everyone waits on its coverage.
func TestTreeAgreementLateEntrantDies(t *testing.T) {
	var mu sync.Mutex
	counts := map[int]int{}
	res := runTreeWorld(t, 6, func(p *Proc) error {
		c := p.World()
		if p.Rank() == 5 {
			time.Sleep(50 * time.Millisecond)
			p.Die()
		}
		cnt, err := c.ValidateAll()
		if err != nil {
			return err
		}
		mu.Lock()
		counts[p.Rank()] = cnt
		mu.Unlock()
		return nil
	})
	for rank := 0; rank < 5; rank++ {
		if res.Ranks[rank].Err != nil {
			t.Fatalf("rank %d: %v", rank, res.Ranks[rank].Err)
		}
		if counts[rank] != 1 {
			t.Fatalf("rank %d agreed on %d failures, want 1 (all: %v)", rank, counts[rank], counts)
		}
	}
}

func TestTreeAgreementSequentialInstances(t *testing.T) {
	res := runTreeWorld(t, 5, func(p *Proc) error {
		c := p.World()
		for i := 0; i < 5; i++ {
			cnt, err := c.ValidateAll()
			if err != nil {
				return err
			}
			if cnt != 0 {
				return fmt.Errorf("instance %d: count %d", i, cnt)
			}
		}
		if c.ValidateEpoch() != 5 {
			return fmt.Errorf("epoch %d", c.ValidateEpoch())
		}
		return nil
	})
	requireNoRankErrors(t, res)
}

// TestTreeAgreementParityWithCoordinator runs the same failure pattern at
// N=32 under both topologies and requires identical agreed counts — the
// tree is an optimization, not a semantic change.
func TestTreeAgreementParityWithCoordinator(t *testing.T) {
	const n = 32
	failures := []int{3, 11, 17, 30} // leaf, interior, interior, leaf
	run := func(mode string) map[int]int {
		t.Helper()
		var mu sync.Mutex
		counts := map[int]int{}
		w, err := NewWorld(n, WithAgreement(mode), WithDeadline(30*time.Second))
		if err != nil {
			t.Fatal(err)
		}
		res, err := w.Run(func(p *Proc) error {
			c := p.World()
			c.SetErrhandler(ErrorsReturn)
			for _, f := range failures {
				if p.Rank() == f {
					p.Die()
				}
			}
			awaitKnownAlive(p, n-len(failures))
			cnt, err := c.ValidateAll()
			if err != nil {
				return err
			}
			mu.Lock()
			counts[p.Rank()] = cnt
			mu.Unlock()
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.TimedOut {
			t.Fatalf("%s agreement wedged; stuck ranks %v", mode, res.Stuck)
		}
		for rank, rr := range res.Ranks {
			if rr.Killed {
				continue
			}
			if rr.Err != nil {
				t.Fatalf("%s: rank %d: %v", mode, rank, rr.Err)
			}
		}
		return counts
	}
	coord := run(AgreementCoordinator)
	tree := run(AgreementTree)
	for rank, want := range coord {
		if tree[rank] != want {
			t.Fatalf("rank %d: tree agreed %d, coordinator %d", rank, tree[rank], want)
		}
		if want != len(failures) {
			t.Fatalf("rank %d agreed on %d failures, want %d", rank, want, len(failures))
		}
	}
}

// TestTreeAgreementProperty is the tree-mode twin of the coordinator
// property test: arbitrary failure subsets, all survivors agree.
func TestTreeAgreementProperty(t *testing.T) {
	prop := func(seed uint32) bool {
		n := 3 + int(seed%6)                   // world sizes 3..8
		failMask := int(seed) % (1 << (n - 1)) // rank n-1 always survives
		var failures []int
		for r := 0; r < n-1; r++ {
			if failMask&(1<<r) != 0 {
				failures = append(failures, r)
			}
		}
		var mu sync.Mutex
		counts := map[int]int{}
		w, err := NewWorld(n, WithAgreement(AgreementTree), WithDeadline(30*time.Second))
		if err != nil {
			return false
		}
		res, err := w.Run(func(p *Proc) error {
			c := p.World()
			c.SetErrhandler(ErrorsReturn)
			for _, f := range failures {
				if p.Rank() == f {
					p.Die()
				}
			}
			cnt, err := c.ValidateAll()
			if err != nil {
				return err
			}
			mu.Lock()
			counts[p.Rank()] = cnt
			mu.Unlock()
			return nil
		})
		if err != nil || res.TimedOut {
			t.Logf("seed %d: run error %v (timed out %v)", seed, err, res != nil && res.TimedOut)
			return false
		}
		first := -1
		for rank, rr := range res.Ranks {
			if rr.Killed {
				continue
			}
			if rr.Err != nil {
				t.Logf("seed %d: rank %d error %v", seed, rank, rr.Err)
				return false
			}
			if counts[rank] < len(failures) {
				t.Logf("seed %d: rank %d count %d < %d", seed, rank, counts[rank], len(failures))
				return false
			}
			if first == -1 {
				first = counts[rank]
			} else if counts[rank] != first {
				t.Logf("seed %d: disagreement %v", seed, counts)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
