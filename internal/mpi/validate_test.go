package mpi

import (
	"fmt"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestValidateAllNoFailures(t *testing.T) {
	res := runWorld(t, 4, func(p *Proc) error {
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

func TestValidateAllAgreesOnFailures(t *testing.T) {
	var mu sync.Mutex
	counts := map[int]int{}
	res := runWorld(t, 6, func(p *Proc) error {
		c := p.World()
		if p.Rank() == 2 || p.Rank() == 4 {
			p.Die()
		}
		awaitKnownAlive(p, 4)
		cnt, err := c.ValidateAll()
		if err != nil {
			return err
		}
		mu.Lock()
		counts[p.Rank()] = cnt
		mu.Unlock()
		// Agreed failures must now be recognized (MPI_RANK_NULL).
		for _, failed := range []int{2, 4} {
			info, err := c.RankState(failed)
			if err != nil {
				return err
			}
			if info.State != RankNull {
				return fmt.Errorf("rank %d state %v after validate", failed, info.State)
			}
		}
		return nil
	})
	for _, rank := range []int{0, 1, 3, 5} {
		if res.Ranks[rank].Err != nil {
			t.Fatalf("rank %d: %v", rank, res.Ranks[rank].Err)
		}
		if counts[rank] != 2 {
			t.Fatalf("rank %d agreed on %d failures, want 2 (all: %v)", rank, counts[rank], counts)
		}
	}
}

// TestValidateAllCoordinatorDies kills the would-be coordinator (lowest
// alive rank) while the agreement is running; the survivors must still
// agree, and on a set that includes the dead coordinator.
func TestValidateAllCoordinatorDies(t *testing.T) {
	var mu sync.Mutex
	counts := map[int]int{}
	res := runWorld(t, 5, func(p *Proc) error {
		c := p.World()
		if p.Rank() == 0 {
			// Coordinator enters the agreement and dies mid-protocol: wait
			// for at least one vote to arrive, then die. We approximate
			// "mid-protocol" by dying immediately — the point is that
			// survivors must re-coordinate under rank 1.
			p.Die()
		}
		awaitKnownAlive(p, 4)
		cnt, err := c.ValidateAll()
		if err != nil {
			return err
		}
		mu.Lock()
		counts[p.Rank()] = cnt
		mu.Unlock()
		return nil
	})
	for rank := 1; rank < 5; rank++ {
		if res.Ranks[rank].Err != nil {
			t.Fatalf("rank %d: %v", rank, res.Ranks[rank].Err)
		}
		if counts[rank] != 1 {
			t.Fatalf("rank %d agreed on %d failures, want 1 (all: %v)", rank, counts[rank], counts)
		}
	}
}

// TestValidateAllKillDuringAgreement arranges a death *after* some ranks
// have already entered the agreement, exercising the mid-protocol
// failure-discovery path (pending voters dying).
func TestValidateAllKillDuringAgreement(t *testing.T) {
	var mu sync.Mutex
	counts := map[int]int{}
	w, err := NewWorld(4, WithDeadline(30*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	res, err := w.Run(func(p *Proc) error {
		c := p.World()
		c.SetErrhandler(ErrorsReturn)
		if p.Rank() == 3 {
			// Never calls ValidateAll: dies while others wait for its vote.
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
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	for rank := 0; rank < 3; rank++ {
		if res.Ranks[rank].Err != nil {
			t.Fatalf("rank %d: %v", rank, res.Ranks[rank].Err)
		}
		if counts[rank] != 1 {
			t.Fatalf("rank %d agreed on %d failures, want 1 (all: %v)", rank, counts[rank], counts)
		}
	}
}

func TestIvalidateAllCompletesAsRequest(t *testing.T) {
	res := runWorld(t, 4, func(p *Proc) error {
		c := p.World()
		if p.Rank() == 3 {
			p.Die()
		}
		awaitKnownAlive(p, 3)
		r := c.IvalidateAll()
		st, err := r.Wait()
		if err != nil {
			return err
		}
		if r.Result() != 1 || st.Len != 1 {
			return fmt.Errorf("agreed count %d (status %+v), want 1", r.Result(), st)
		}
		return nil
	})
	for rank := 0; rank < 3; rank++ {
		if res.Ranks[rank].Err != nil {
			t.Fatalf("rank %d: %v", rank, res.Ranks[rank].Err)
		}
	}
}

// TestIvalidateAllInWaitany reproduces the Figure 13 wait shape: Waitany
// over {validate request, detector Irecv}; with no failures the validate
// side completes first.
func TestIvalidateAllInWaitany(t *testing.T) {
	res := runWorld(t, 3, func(p *Proc) error {
		c := p.World()
		right := (p.Rank() + 1) % 3
		det := c.Irecv(right, 99)
		val := c.IvalidateAll()
		idx, st, err := Waitany(val, det)
		if err != nil {
			return err
		}
		if idx != 0 {
			return fmt.Errorf("detector completed before validate: idx=%d", idx)
		}
		if st.Len != 0 {
			return fmt.Errorf("agreed failures %d, want 0", st.Len)
		}
		det.Cancel()
		return nil
	})
	requireNoRankErrors(t, res)
}

func TestValidateAllReenablesCollectiveGate(t *testing.T) {
	res := runWorld(t, 3, func(p *Proc) error {
		c := p.World()
		if p.Rank() == 1 {
			p.Die()
		}
		awaitKnownAlive(p, 2)
		if err := c.CollectiveOK(); !IsRankFailStop(err) {
			return fmt.Errorf("collectives should be disabled after failure, got %v", err)
		}
		if _, err := c.ValidateAll(); err != nil {
			return err
		}
		if err := c.CollectiveOK(); err != nil {
			return fmt.Errorf("collectives should be re-enabled: %v", err)
		}
		members := c.CollMembers()
		if len(members) != 2 || members[0] != 0 || members[1] != 2 {
			return fmt.Errorf("participants %v", members)
		}
		if c.ValidateEpoch() != 1 {
			return fmt.Errorf("epoch %d", c.ValidateEpoch())
		}
		return nil
	})
	if res.Ranks[0].Err != nil || res.Ranks[2].Err != nil {
		t.Fatalf("errors: %v / %v", res.Ranks[0].Err, res.Ranks[2].Err)
	}
}

func TestValidateAllSequentialInstances(t *testing.T) {
	res := runWorld(t, 3, func(p *Proc) error {
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

// TestValidateAllAgreementProperty is the property-based agreement check:
// for arbitrary failure subsets (never including every rank), all
// survivors return the same count, equal to the number of failures.
func TestValidateAllAgreementProperty(t *testing.T) {
	prop := func(seed uint32) bool {
		n := 3 + int(seed%5)                   // world sizes 3..7
		failMask := int(seed) % (1 << (n - 1)) // rank n-1 always survives
		var failures []int
		for r := 0; r < n-1; r++ {
			if failMask&(1<<r) != 0 {
				failures = append(failures, r)
			}
		}
		var mu sync.Mutex
		counts := map[int]int{}
		w, err := NewWorld(n, WithDeadline(30*time.Second))
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
		if err != nil {
			t.Logf("seed %d: run error %v", seed, err)
			return false
		}
		for rank, rr := range res.Ranks {
			if rr.Killed {
				continue
			}
			if rr.Err != nil {
				t.Logf("seed %d: rank %d error %v", seed, rank, rr.Err)
				return false
			}
			if counts[rank] < len(failures) {
				// Survivors must agree on at least the injected failures;
				// racing deaths can only add, never remove.
				t.Logf("seed %d: rank %d count %d < %d", seed, rank, counts[rank], len(failures))
				return false
			}
		}
		// All survivors must agree on the same count.
		first := -1
		for rank, rr := range res.Ranks {
			if rr.Killed {
				continue
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
