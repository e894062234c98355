package collective

import (
	"bytes"
	"fmt"
	"testing"
	"testing/quick"
	"time"

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
	for rank, rr := range res.Ranks {
		if rr.Err != nil {
			t.Fatalf("rank %d: %v", rank, rr.Err)
		}
	}
	return res
}

// sizes exercises non-power-of-two and single-rank participant counts.
var sizes = []int{1, 2, 3, 4, 5, 7, 8}

func TestBarrierAllSizes(t *testing.T) {
	for _, n := range sizes {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			runWorld(t, n, func(p *mpi.Proc) error {
				for i := 0; i < 3; i++ {
					if err := Barrier(p.World()); err != nil {
						return err
					}
				}
				return nil
			})
		})
	}
}

func TestBcastAllSizesAllRoots(t *testing.T) {
	for _, n := range sizes {
		for root := 0; root < n; root++ {
			t.Run(fmt.Sprintf("n=%d/root=%d", n, root), func(t *testing.T) {
				want := []byte(fmt.Sprintf("payload-from-%d", root))
				runWorld(t, n, func(p *mpi.Proc) error {
					var buf []byte
					if p.Rank() == root {
						buf = want
					}
					got, err := Bcast(p.World(), root, buf)
					if err != nil {
						return err
					}
					if !bytes.Equal(got, want) {
						return fmt.Errorf("rank %d got %q", p.Rank(), got)
					}
					return nil
				})
			})
		}
	}
}

func TestReduceSum(t *testing.T) {
	for _, n := range sizes {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			want := int64(n * (n - 1) / 2)
			runWorld(t, n, func(p *mpi.Proc) error {
				out, err := Reduce(p.World(), 0, EncodeInt64s([]int64{int64(p.Rank())}), SumInt64)
				if err != nil {
					return err
				}
				if p.Rank() == 0 {
					v, err := DecodeInt64s(out)
					if err != nil {
						return err
					}
					if v[0] != want {
						return fmt.Errorf("sum %d want %d", v[0], want)
					}
				} else if out != nil {
					return fmt.Errorf("non-root got result")
				}
				return nil
			})
		})
	}
}

func TestReduceEveryRoot(t *testing.T) {
	const n = 5
	for root := 0; root < n; root++ {
		t.Run(fmt.Sprintf("root=%d", root), func(t *testing.T) {
			runWorld(t, n, func(p *mpi.Proc) error {
				out, err := Reduce(p.World(), root,
					EncodeInt64s([]int64{int64(1 << p.Rank())}), SumInt64)
				if err != nil {
					return err
				}
				if p.Rank() != root {
					if out != nil {
						return fmt.Errorf("non-root %d got a result", p.Rank())
					}
					return nil
				}
				v, err := DecodeInt64s(out)
				if err != nil {
					return err
				}
				if v[0] != (1<<n)-1 {
					return fmt.Errorf("root %d sum %d want %d", root, v[0], (1<<n)-1)
				}
				return nil
			})
		})
	}
}

func TestScatterValidation(t *testing.T) {
	runWorld(t, 2, func(p *mpi.Proc) error {
		c := p.World()
		if p.Rank() == 0 {
			// Wrong part count at the root must error without deadlocking
			// (rank 1's receive is satisfied by a follow-up good scatter).
			if _, err := Scatter(c, 0, [][]byte{{1}}); err == nil {
				return fmt.Errorf("short parts accepted")
			}
			if _, err := Scatter(c, 0, [][]byte{{1}, {2}}); err != nil {
				return err
			}
			return nil
		}
		// First scatter fails at root before sending; second succeeds. The
		// tag sequence stays aligned because failed collectives consume
		// their tag too.
		if _, _, err := c.RecvInternal(0, 2); err != nil { // direct drain of scatter #2
			return err
		}
		return nil
	})
}

func TestOpsCodecEdgeCases(t *testing.T) {
	if _, err := DecodeInt64s([]byte{1, 2, 3}); err == nil {
		t.Fatal("ragged int64 payload accepted")
	}
	if _, err := DecodeFloat64s([]byte{1}); err == nil {
		t.Fatal("ragged float64 payload accepted")
	}
	v, err := DecodeFloat64s(EncodeFloat64s([]float64{1.5, -2.25}))
	if err != nil || v[0] != 1.5 || v[1] != -2.25 {
		t.Fatalf("float round trip %v %v", v, err)
	}
	// Mismatched operand lengths truncate rather than panic.
	out := SumInt64(EncodeInt64s([]int64{1, 2}), EncodeInt64s([]int64{10}))
	v2, _ := DecodeInt64s(out)
	if len(v2) != 1 || v2[0] != 11 {
		t.Fatalf("truncating op wrong: %v", v2)
	}
	// Corrupt operands fall back to the left side, staying total.
	if got := SumInt64([]byte{1, 2, 3}, EncodeInt64s([]int64{4})); string(got) != string([]byte{1, 2, 3}) {
		t.Fatalf("corrupt operand handling changed: %v", got)
	}
}

func TestAllreduceSumAndMax(t *testing.T) {
	for _, n := range sizes {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			wantSum := int64(n * (n - 1) / 2)
			runWorld(t, n, func(p *mpi.Proc) error {
				c := p.World()
				out, err := Allreduce(c, EncodeInt64s([]int64{int64(p.Rank()), 1}), SumInt64)
				if err != nil {
					return err
				}
				v, err := DecodeInt64s(out)
				if err != nil {
					return err
				}
				if v[0] != wantSum || v[1] != int64(n) {
					return fmt.Errorf("rank %d allreduce got %v", p.Rank(), v)
				}
				out, err = Allreduce(c, EncodeInt64s([]int64{int64(p.Rank())}), MaxInt64)
				if err != nil {
					return err
				}
				v, _ = DecodeInt64s(out)
				if v[0] != int64(n-1) {
					return fmt.Errorf("rank %d max got %v", p.Rank(), v)
				}
				return nil
			})
		})
	}
}

func TestGatherScatterRoundTrip(t *testing.T) {
	for _, n := range sizes {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			runWorld(t, n, func(p *mpi.Proc) error {
				c := p.World()
				all, err := Gather(c, 0, []byte{byte(p.Rank() * 3)})
				if err != nil {
					return err
				}
				if p.Rank() == 0 {
					for i, pl := range all {
						if len(pl) != 1 || pl[0] != byte(i*3) {
							return fmt.Errorf("gathered[%d]=%v", i, pl)
						}
					}
				}
				// Scatter the gathered slices back out.
				mine, err := Scatter(c, 0, all)
				if err != nil {
					return err
				}
				if len(mine) != 1 || mine[0] != byte(p.Rank()*3) {
					return fmt.Errorf("rank %d scattered %v", p.Rank(), mine)
				}
				return nil
			})
		})
	}
}

func TestAllgatherRing(t *testing.T) {
	for _, n := range sizes {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			runWorld(t, n, func(p *mpi.Proc) error {
				all, err := Allgather(p.World(), []byte{byte(p.Rank()), byte(p.Rank() + 1)})
				if err != nil {
					return err
				}
				for i, pl := range all {
					if len(pl) != 2 || pl[0] != byte(i) || pl[1] != byte(i+1) {
						return fmt.Errorf("rank %d block %d = %v", p.Rank(), i, pl)
					}
				}
				return nil
			})
		})
	}
}

func TestAlltoallPairwise(t *testing.T) {
	for _, n := range sizes {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			runWorld(t, n, func(p *mpi.Proc) error {
				parts := make([][]byte, n)
				for i := range parts {
					parts[i] = []byte{byte(p.Rank()), byte(i)}
				}
				got, err := Alltoall(p.World(), parts)
				if err != nil {
					return err
				}
				for j, pl := range got {
					if len(pl) != 2 || pl[0] != byte(j) || pl[1] != byte(p.Rank()) {
						return fmt.Errorf("rank %d from %d = %v", p.Rank(), j, pl)
					}
				}
				return nil
			})
		})
	}
}

func TestScanPrefixSums(t *testing.T) {
	for _, n := range sizes {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			runWorld(t, n, func(p *mpi.Proc) error {
				out, err := Scan(p.World(), EncodeInt64s([]int64{int64(p.Rank() + 1)}), SumInt64)
				if err != nil {
					return err
				}
				v, err := DecodeInt64s(out)
				if err != nil {
					return err
				}
				r := int64(p.Rank() + 1)
				if v[0] != r*(r+1)/2 {
					return fmt.Errorf("rank %d scan %d", p.Rank(), v[0])
				}
				return nil
			})
		})
	}
}

func TestIbarrierCompletes(t *testing.T) {
	runWorld(t, 4, func(p *mpi.Proc) error {
		req := Ibarrier(p.World())
		_, err := req.Wait()
		return err
	})
}

func TestIbcastCompletes(t *testing.T) {
	want := []byte("nonblocking broadcast")
	runWorld(t, 5, func(p *mpi.Proc) error {
		var buf []byte
		if p.Rank() == 2 {
			buf = want
		}
		req, fetch := Ibcast(p.World(), 2, buf)
		if _, err := req.Wait(); err != nil {
			return err
		}
		if !bytes.Equal(fetch(), want) {
			return fmt.Errorf("rank %d got %q", p.Rank(), fetch())
		}
		return nil
	})
}

// TestCollectivesDisabledAfterFailure checks the run-through gate: after
// an unrecognized failure, collectives fail; after ValidateAll they run
// over the survivors.
func TestCollectivesDisabledAfterFailureUntilValidate(t *testing.T) {
	w, err := mpi.NewWorld(4, mpi.WithDeadline(30*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	res, err := w.Run(func(p *mpi.Proc) error {
		c := p.World()
		c.SetErrhandler(mpi.ErrorsReturn)
		if p.Rank() == 2 {
			p.Die()
		}
		mpitest.AwaitKnownAlive(p, 3)
		if err := Barrier(c); !mpi.IsRankFailStop(err) {
			return fmt.Errorf("barrier should be disabled, got %v", err)
		}
		if _, err := c.ValidateAll(); err != nil {
			return err
		}
		if err := Barrier(c); err != nil {
			return fmt.Errorf("barrier after validate: %w", err)
		}
		out, err := Allreduce(c, EncodeInt64s([]int64{1}), SumInt64)
		if err != nil {
			return err
		}
		v, _ := DecodeInt64s(out)
		if v[0] != 3 {
			return fmt.Errorf("allreduce over survivors got %d, want 3", v[0])
		}
		return nil
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, rank := range []int{0, 1, 3} {
		if res.Ranks[rank].Err != nil {
			t.Fatalf("rank %d: %v", rank, res.Ranks[rank].Err)
		}
	}
}

// TestBcastInconsistentReturnCodes reproduces the paper's Section II
// observation: when a rank dies mid-broadcast, the root (which already
// forwarded to its children) may return success while orphaned ranks
// return an error — return codes are not consistent across ranks.
func TestBcastInconsistentReturnCodes(t *testing.T) {
	// Binomial tree from root 0 over 8 ranks: 0 -> {1,2,4}, 2 -> {3},
	// 4 -> {5,6}, 6 -> {7}. Kill rank 6 the moment it has received the
	// payload from its parent (4) and before it forwards to its child (7):
	// every rank except 7 leaves the broadcast successfully, while 7 gets
	// ErrRankFailStop — the paper's "some processes may receive success
	// and others an error" (Section III-C).
	w, err := mpi.NewWorld(8,
		mpi.WithDeadline(30*time.Second),
		mpi.WithHook(func(ev mpi.HookEvent) mpi.Action {
			if ev.Rank == 6 && ev.Point == mpi.HookAfterRecv {
				return mpi.ActKill
			}
			return mpi.ActNone
		}),
	)
	if err != nil {
		t.Fatal(err)
	}
	outs := make([]error, 8)
	res, err := w.Run(func(p *mpi.Proc) error {
		c := p.World()
		c.SetErrhandler(mpi.ErrorsReturn)
		_, bErr := Bcast(c, 0, []byte("x"))
		outs[p.Rank()] = bErr
		return nil
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !res.Ranks[6].Killed {
		t.Fatalf("rank 6 should have been killed mid-tree: %+v", res.Ranks[6])
	}
	// Deterministic endpoints: the root completed all its sends before
	// rank 6 could have received (the payload flows root -> 4 -> 6), so
	// it must report success; rank 7 can never be served, so it must
	// report the fail-stop class. The ranks in between may see either
	// outcome depending on whether they passed the entry gate before the
	// death became known — which is precisely the paper's point about
	// inconsistent return codes.
	if outs[0] != nil {
		t.Fatalf("root should have left the broadcast successfully, got %v", outs[0])
	}
	if !mpi.IsRankFailStop(outs[7]) {
		t.Fatalf("orphaned rank 7 should report fail-stop, got %v", outs[7])
	}
	for _, rank := range []int{1, 2, 3, 4, 5} {
		if outs[rank] != nil && !mpi.IsRankFailStop(outs[rank]) {
			t.Fatalf("rank %d: unexpected error class %v", rank, outs[rank])
		}
	}
}

// TestTagAlignmentAfterErroredCollective is the regression test for a
// subtle sequencing bug: a rank whose collective call errors at the gate
// (because it already knows about a failure) must still consume the
// collective's tag, or its NEXT collective desynchronizes from ranks
// whose call proceeded. Rank 2 here learns of the death before entering
// the barrier (erroring at the gate); rank 0 and 1 may enter it and fail
// inside. After validate_all, the follow-up allreduce must still line up.
func TestTagAlignmentAfterErroredCollective(t *testing.T) {
	w, err := mpi.NewWorld(4, mpi.WithDeadline(30*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	res, err := w.Run(func(p *mpi.Proc) error {
		c := p.World()
		c.SetErrhandler(mpi.ErrorsReturn)
		if p.Rank() == 3 {
			p.Die()
		}
		mpitest.AwaitKnownAlive(p, 3)
		if err := Barrier(c); !mpi.IsRankFailStop(err) {
			return fmt.Errorf("barrier should gate, got %v", err)
		}
		if _, err := c.ValidateAll(); err != nil {
			return err
		}
		out, err := Allreduce(c, EncodeInt64s([]int64{1}), SumInt64)
		if err != nil {
			return err
		}
		v, _ := DecodeInt64s(out)
		if v[0] != 3 {
			return fmt.Errorf("allreduce got %d", v[0])
		}
		return nil
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, rank := range []int{0, 1, 2} {
		if res.Ranks[rank].Err != nil {
			t.Fatalf("rank %d: %v", rank, res.Ranks[rank].Err)
		}
	}
}

// TestAllreduceProperty: for arbitrary vectors, Allreduce(SumInt64)
// equals the local sum of all contributions, at every rank and size.
func TestAllreduceProperty(t *testing.T) {
	prop := func(seed uint16) bool {
		n := 2 + int(seed%6)
		vals := make([]int64, n)
		for i := range vals {
			vals[i] = int64(int8(seed>>uint(i%8))) * int64(i+1)
		}
		var want int64
		for _, v := range vals {
			want += v
		}
		w, err := mpi.NewWorld(n, mpi.WithDeadline(30*time.Second))
		if err != nil {
			return false
		}
		res, err := w.Run(func(p *mpi.Proc) error {
			c := p.World()
			c.SetErrhandler(mpi.ErrorsReturn)
			out, err := Allreduce(c, EncodeInt64s([]int64{vals[p.Rank()]}), SumInt64)
			if err != nil {
				return err
			}
			v, err := DecodeInt64s(out)
			if err != nil {
				return err
			}
			if v[0] != want {
				return fmt.Errorf("got %d want %d", v[0], want)
			}
			return nil
		})
		if err != nil {
			return false
		}
		for _, rr := range res.Ranks {
			if rr.Err != nil {
				t.Log(rr.Err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
