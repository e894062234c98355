package collective

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"repro/internal/mpi"
	"repro/internal/mpitest"
)

func TestBcastChainAllSizesAllRoots(t *testing.T) {
	for _, n := range sizes {
		for root := 0; root < n; root += 2 {
			t.Run(fmt.Sprintf("n=%d/root=%d", n, root), func(t *testing.T) {
				want := []byte(fmt.Sprintf("chain-%d", root))
				runWorld(t, n, func(p *mpi.Proc) error {
					var buf []byte
					if p.Rank() == root {
						buf = want
					}
					got, err := BcastChain(p.World(), root, buf)
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

func TestAllgatherBruckAllSizes(t *testing.T) {
	for _, n := range sizes {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			runWorld(t, n, func(p *mpi.Proc) error {
				all, err := AllgatherBruck(p.World(), []byte{byte(p.Rank() * 2)})
				if err != nil {
					return err
				}
				if len(all) != n {
					return fmt.Errorf("got %d blocks", len(all))
				}
				for i, blk := range all {
					if len(blk) != 1 || blk[0] != byte(i*2) {
						return fmt.Errorf("rank %d block %d = %v", p.Rank(), i, blk)
					}
				}
				return nil
			})
		})
	}
}

func TestBruckMatchesRingAllgather(t *testing.T) {
	runWorld(t, 7, func(p *mpi.Proc) error {
		c := p.World()
		contrib := []byte(fmt.Sprintf("rank-%d-data", p.Rank()))
		ring, err := Allgather(c, contrib)
		if err != nil {
			return err
		}
		bruck, err := AllgatherBruck(c, contrib)
		if err != nil {
			return err
		}
		for i := range ring {
			if !bytes.Equal(ring[i], bruck[i]) {
				return fmt.Errorf("algorithms disagree at block %d: %q vs %q",
					i, ring[i], bruck[i])
			}
		}
		return nil
	})
}

func TestBlockFraming(t *testing.T) {
	in := [][]byte{{1, 2, 3}, {}, {9}}
	enc, err := encodeBlocks(in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := decodeBlocks(enc)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 3 || !bytes.Equal(out[0], in[0]) || len(out[1]) != 0 || !bytes.Equal(out[2], in[2]) {
		t.Fatalf("round trip %v", out)
	}
	if _, err := decodeBlocks([]byte{1, 0}); err == nil {
		t.Fatal("truncated header accepted")
	}
	if _, err := decodeBlocks([]byte{5, 0, 0, 0, 1}); err == nil {
		t.Fatal("truncated body accepted")
	}
}

// TestRecoveryBlockRetriesThroughFailure: a collective block that fails
// because a participant died is repaired (validate_all) and retried over
// the survivors — the paper's Randell recovery-block pattern.
func TestRecoveryBlockRetriesThroughFailure(t *testing.T) {
	w, err := mpi.NewWorld(5, mpi.WithDeadline(30*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	res, err := w.Run(func(p *mpi.Proc) error {
		c := p.World()
		c.SetErrhandler(mpi.ErrorsReturn)
		if p.Rank() == 3 {
			p.Die()
		}
		mpitest.AwaitKnownAlive(p, 4)
		attempts := 0
		err := RecoveryBlock(c, 2, func() error {
			attempts++
			if err := Barrier(c); err != nil {
				return err
			}
			out, err := Allreduce(c, EncodeInt64s([]int64{1}), SumInt64)
			if err != nil {
				return err
			}
			v, _ := DecodeInt64s(out)
			if v[0] != 4 {
				return fmt.Errorf("sum %d", v[0])
			}
			return nil
		})
		if err != nil {
			return err
		}
		if attempts != 2 {
			return fmt.Errorf("attempts %d, want 2 (fail, repair, succeed)", attempts)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, rank := range []int{0, 1, 2, 4} {
		if res.Ranks[rank].Err != nil {
			t.Fatalf("rank %d: %v", rank, res.Ranks[rank].Err)
		}
	}
}

// TestRecoveryBlockHeterogeneousFailurePoints is the hard case: rank 6
// dies INSIDE the broadcast, so within one failed block attempt the
// orphaned rank consumes one collective tag (bcast errors) while every
// other rank consumes two (bcast succeeds, the following barrier errors
// at the gate). The ValidateAll repair must re-align the collective
// sequence or the retry would mismatch tags and deadlock.
func TestRecoveryBlockHeterogeneousFailurePoints(t *testing.T) {
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
	res, err := w.Run(func(p *mpi.Proc) error {
		c := p.World()
		c.SetErrhandler(mpi.ErrorsReturn)
		return RecoveryBlock(c, 3, func() error {
			if _, err := Bcast(c, 0, []byte("payload")); err != nil {
				return err
			}
			return Barrier(c)
		})
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	for rank, rr := range res.Ranks {
		if rank == 6 {
			if !rr.Killed {
				t.Fatal("rank 6 should have died mid-broadcast")
			}
			continue
		}
		if rr.Err != nil || !rr.Finished {
			t.Fatalf("rank %d: %+v", rank, rr)
		}
	}
}

// TestRecoveryBlockGivesUpAfterMaxRetries: exhausting the retry budget
// surfaces the failure error.
func TestRecoveryBlockGivesUpAfterMaxRetries(t *testing.T) {
	w, err := mpi.NewWorld(3, mpi.WithDeadline(30*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	res, err := w.Run(func(p *mpi.Proc) error {
		c := p.World()
		c.SetErrhandler(mpi.ErrorsReturn)
		if p.Rank() == 2 {
			p.Die()
		}
		mpitest.AwaitKnownAlive(p, 2)
		err := RecoveryBlock(c, 0, func() error { return Barrier(c) })
		if !mpi.IsRankFailStop(err) {
			return fmt.Errorf("want fail-stop after 0 retries, got %v", err)
		}
		// Non-failure errors must pass through untouched.
		sentinel := fmt.Errorf("app error")
		if err := RecoveryBlock(c, 3, func() error { return sentinel }); err != sentinel {
			return fmt.Errorf("app error mangled: %v", err)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, rank := range []int{0, 1} {
		if res.Ranks[rank].Err != nil {
			t.Fatalf("rank %d: %v", rank, res.Ranks[rank].Err)
		}
	}
}
