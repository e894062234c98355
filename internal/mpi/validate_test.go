package mpi

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"
)

// agreementModes are the two fan-outs of the one validate_all protocol;
// every test in this file runs under both.
var agreementModes = []string{AgreementCoordinator, AgreementTree}

// forModes runs body as one subtest per agreement mode.
func forModes(t *testing.T, body func(t *testing.T, mode string)) {
	for _, mode := range agreementModes {
		t.Run(mode, func(t *testing.T) { body(t, mode) })
	}
}

// runModeWorld runs fn on n ranks under the given agreement mode with
// ErrorsReturn pre-set, failing the test on a harness error or a wedge.
func runModeWorld(t *testing.T, mode string, n int, fn func(p *Proc) error, opts ...Option) *RunResult {
	t.Helper()
	w, err := NewWorld(n, append([]Option{WithAgreement(mode), WithDeadline(30 * time.Second)}, opts...)...)
	if err != nil {
		t.Fatalf("NewWorld: %v", err)
	}
	res, err := w.Run(func(p *Proc) error {
		p.World().SetErrhandler(ErrorsReturn)
		return fn(p)
	})
	if err != nil {
		t.Fatalf("run: %v (stuck ranks %v)", err, res.Stuck)
	}
	return res
}

// requireAgreement runs an n-rank world in which every rank first runs
// before (which may kill it) and then ValidateAll, and fails the test
// unless every rank that was not killed returned want.
func requireAgreement(t *testing.T, mode string, n, want int, before func(p *Proc)) *RunResult {
	t.Helper()
	var mu sync.Mutex
	counts := map[int]int{}
	res := runModeWorld(t, mode, n, func(p *Proc) error {
		before(p)
		cnt, err := p.World().ValidateAll()
		if err != nil {
			return err
		}
		mu.Lock()
		counts[p.Rank()] = cnt
		mu.Unlock()
		return nil
	})
	for rank, rr := range res.Ranks {
		if rr.Killed {
			continue
		}
		if rr.Err != nil {
			t.Fatalf("rank %d: %v", rank, rr.Err)
		}
		if counts[rank] != want {
			t.Fatalf("rank %d agreed on %d failures, want %d (all: %v)", rank, counts[rank], want, counts)
		}
	}
	return res
}

func TestValidateAllNoFailures(t *testing.T) {
	forModes(t, func(t *testing.T, mode string) {
		requireAgreement(t, mode, 8, 0, func(*Proc) {})
	})
}

// TestValidateAllAgreesOnFailures kills leaves and interior nodes of the
// binary tree before the call — ranks 3 and 7 of 9, and 3, 11, 17 and 30
// of 32 — and the agreed failures must come back recognized
// (MPI_RANK_NULL) at every survivor.
func TestValidateAllAgreesOnFailures(t *testing.T) {
	forModes(t, func(t *testing.T, mode string) {
		for _, row := range []struct {
			n    int
			dead []int
		}{{9, []int{3, 7}}, {32, []int{3, 11, 17, 30}}} {
			t.Run(fmt.Sprintf("n%d", row.n), func(t *testing.T) {
				res := runModeWorld(t, mode, row.n, func(p *Proc) error {
					c := p.World()
					for _, f := range row.dead {
						if p.Rank() == f {
							p.Die()
						}
					}
					awaitKnownAlive(p, row.n-len(row.dead))
					cnt, err := c.ValidateAll()
					if err != nil {
						return err
					}
					if cnt != len(row.dead) {
						return fmt.Errorf("agreed on %d failures, want %d", cnt, len(row.dead))
					}
					for _, f := range row.dead {
						info, err := c.RankState(f)
						if err != nil {
							return err
						}
						if info.State != RankNull {
							return fmt.Errorf("rank %d state %v after validate", f, info.State)
						}
					}
					return nil
				})
				requireNoRankErrors(t, res)
			})
		}
	})
}

// TestValidateAllCoordinatorDies kills rank 0 — the root, which in
// coordinator mode is the coordinator — either before the call or after
// entering it, while rank 5 holds the round open. Rank 1 must take over,
// and the survivors must agree on a set that includes the dead root.
func TestValidateAllCoordinatorDies(t *testing.T) {
	forModes(t, func(t *testing.T, mode string) {
		for _, entered := range []bool{false, true} {
			name := "before-entry"
			if entered {
				name = "mid-round"
			}
			t.Run(name, func(t *testing.T) {
				res := requireAgreement(t, mode, 6, 1, func(p *Proc) {
					switch p.Rank() {
					case 0:
						if entered {
							p.World().IvalidateAll()
							time.Sleep(10 * time.Millisecond)
						}
						p.Die()
					case 5:
						awaitKnownAlive(p, 5)
					}
				})
				if !res.Ranks[0].Killed {
					t.Fatal("rank 0 did not die")
				}
			})
		}
	})
}

// TestValidateAllKillDuringAgreement arranges a death while the others
// are already inside the agreement: rank 5 of 6 that never calls it, or
// rank 1 of 7 — an interior node of the binary tree, children 3 and 4 —
// that enters, absorbs its subtree's votes and dies before forwarding
// them (rank 6 holds the round open past the death). The survivors must
// still converge.
func TestValidateAllKillDuringAgreement(t *testing.T) {
	forModes(t, func(t *testing.T, mode string) {
		t.Run("never-entered", func(t *testing.T) {
			requireAgreement(t, mode, 6, 1, func(p *Proc) {
				if p.Rank() == 5 {
					time.Sleep(50 * time.Millisecond)
					p.Die()
				}
			})
		})
		t.Run("entered", func(t *testing.T) {
			res := requireAgreement(t, mode, 7, 1, func(p *Proc) {
				switch p.Rank() {
				case 1:
					p.World().IvalidateAll()
					time.Sleep(10 * time.Millisecond)
					p.Die()
				case 6:
					awaitKnownAlive(p, 6)
				}
			})
			if !res.Ranks[1].Killed {
				t.Fatal("rank 1 did not die")
			}
		})
	})
}

func TestIvalidateAllCompletesAsRequest(t *testing.T) {
	forModes(t, func(t *testing.T, mode string) {
		res := runModeWorld(t, mode, 4, func(p *Proc) error {
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
		requireNoRankErrors(t, res)
	})
}

// TestIvalidateAllInWaitany reproduces the Figure 13 wait shape: Waitany
// over {validate request, detector Irecv}; with no failures the validate
// side completes first.
func TestIvalidateAllInWaitany(t *testing.T) {
	forModes(t, func(t *testing.T, mode string) {
		res := runModeWorld(t, mode, 3, func(p *Proc) error {
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
	})
}

func TestValidateAllReenablesCollectiveGate(t *testing.T) {
	forModes(t, func(t *testing.T, mode string) {
		res := runModeWorld(t, mode, 3, func(p *Proc) error {
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
		requireNoRankErrors(t, res)
	})
}

func TestValidateAllSequentialInstances(t *testing.T) {
	forModes(t, func(t *testing.T, mode string) {
		res := runModeWorld(t, mode, 5, func(p *Proc) error {
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
	})
}

// TestValidateAllReplicated: every replica of a logical rank calls
// ValidateAll, so the root's standby must learn each decision as well.
// Regression: tree mode sent the root's DECIDE to its children only, and
// the root's standby (physical slot 4) waited forever.
func TestValidateAllReplicated(t *testing.T) {
	const lsize, rounds = 4, 20
	forModes(t, func(t *testing.T, mode string) {
		t.Run("chain", func(t *testing.T) {
			w, err := NewWorld(lsize, WithAgreement(mode), WithDeadline(5*time.Second),
				WithReplication(ReplicationOptions{R: 2}))
			if err != nil {
				t.Fatal(err)
			}
			res, err := w.Run(func(p *Proc) error {
				for i := 0; i < rounds; i++ {
					if cnt, err := p.World().ValidateAll(); err != nil || cnt != 0 {
						return fmt.Errorf("round %d: count %d, %v", i, cnt, err)
					}
				}
				return nil
			})
			if err != nil {
				t.Fatalf("run: %v (stuck physical slots %v)", err, res.Stuck)
			}
			requireNoRankErrors(t, res)
		})
	})
}

// validateAllSeeds are the fixed schedules TestValidateAllAgreementProperty
// runs on every test run and FuzzValidateAll starts its corpus from.
func validateAllSeeds() []uint32 {
	rng := rand.New(rand.NewSource(24))
	seeds := make([]uint32, 50)
	for i := range seeds {
		seeds[i] = rng.Uint32()
	}
	return seeds
}

// checkValidateAll is the agreement property over one schedule drawn from
// seed: the fan-out, a world of 3..8 ranks, the ranks that die before the
// call (never rank n-1), and possibly one more that dies after entering
// it. Every survivor must return the same count, at least the number of
// ranks that died before the call and at most every death.
func checkValidateAll(t *testing.T, seed uint32) {
	mode := agreementModes[seed%2]
	n := 3 + int(seed>>1%6)
	failMask := int(seed>>4) % (1 << (n - 1))
	failures, victim := 0, -1
	for r := 0; r < n-1; r++ {
		if failMask&(1<<r) != 0 {
			failures++
		} else if seed>>12&1 == 1 && victim < 0 && r >= int(seed>>13)%(n-1) {
			victim = r
		}
	}
	var mu sync.Mutex
	counts := map[int]int{}
	w, err := NewWorld(n, WithAgreement(mode), WithDeadline(30*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	res, err := w.Run(func(p *Proc) error {
		c := p.World()
		c.SetErrhandler(ErrorsReturn)
		if failMask&(1<<p.Rank()) != 0 {
			p.Die()
		}
		if p.Rank() == victim {
			c.IvalidateAll()
			time.Sleep(time.Duration(seed>>20%3) * time.Millisecond)
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
		t.Fatalf("seed %d (%s, n=%d): %v (stuck ranks %v)", seed, mode, n, err, res.Stuck)
	}
	most := failures
	if victim >= 0 {
		most++
	}
	first := -1
	for rank, rr := range res.Ranks {
		if rr.Killed {
			continue
		}
		if rr.Err != nil {
			t.Fatalf("seed %d (%s, n=%d): rank %d: %v", seed, mode, n, rank, rr.Err)
		}
		if first < 0 {
			first = counts[rank]
		}
		if counts[rank] != first || first < failures || first > most {
			t.Fatalf("seed %d (%s, n=%d, %d failures before, victim %d): counts %v",
				seed, mode, n, failures, victim, counts)
		}
	}
}

// checkValidateAllSeeds checks the agreement property over the fixed
// schedules that draw the given fan-out.
func checkValidateAllSeeds(t *testing.T, mode string) {
	ran := 0
	for _, seed := range validateAllSeeds() {
		if agreementModes[seed%2] == mode {
			checkValidateAll(t, seed)
			ran++
		}
	}
	if ran < 10 {
		t.Fatalf("only %d fixed schedules on the %s fan-out", ran, mode)
	}
}

// TestValidateAllAgreementProperty checks the agreement property over the
// fixed schedules on the coordinator fan-out, TestTreeAgreementProperty over
// those on the tree; FuzzValidateAll explores more of both
// (go test -fuzz FuzzValidateAll ./internal/mpi/).
func TestValidateAllAgreementProperty(t *testing.T) {
	checkValidateAllSeeds(t, AgreementCoordinator)
}

func TestTreeAgreementProperty(t *testing.T) {
	checkValidateAllSeeds(t, AgreementTree)
}

func FuzzValidateAll(f *testing.F) {
	for _, seed := range validateAllSeeds() {
		f.Add(seed)
	}
	f.Fuzz(checkValidateAll)
}
