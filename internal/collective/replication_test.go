package collective

import (
	"bytes"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/mpi"
)

// runReplicated builds a replicated world (lsize logical ranks, degree r,
// the given validate_all topology) and runs fn on every physical replica.
// It does NOT assert per-rank success — callers exempt their designated
// victim.
func runReplicated(t *testing.T, lsize, r int, agree string, fn func(w *mpi.World, p *mpi.Proc) error) (*mpi.World, *mpi.RunResult) {
	t.Helper()
	w, err := mpi.NewWorld(lsize,
		mpi.WithDeadline(60*time.Second),
		mpi.WithReplication(mpi.ReplicationOptions{R: r}),
		mpi.WithAgreement(agree),
		mpi.WithMetrics(metrics.NewWorld(lsize*r)),
	)
	if err != nil {
		t.Fatalf("NewWorld: %v", err)
	}
	res, err := w.Run(func(p *mpi.Proc) error {
		p.World().SetErrhandler(mpi.ErrorsReturn)
		return fn(w, p)
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return w, res
}

// replCases are the validate_all topologies a chain-replicated world runs
// under: promotion must be collective-transparent under each.
var replCases = []string{mpi.AgreementCoordinator, mpi.AgreementTree}

// TestCollectivesSurvivePrimaryKill is the replica-group-aware collective
// property: the PRIMARY of a logical rank dies while the other
// participants are already inside the lap's collectives, and the
// promotion happens entirely below the collective layer — every
// surviving physical rank completes all laps of Bcast + Allreduce +
// Barrier with correct values and no error, in both agreement
// topologies.
func TestCollectivesSurvivePrimaryKill(t *testing.T) {
	for _, agree := range replCases {
		t.Run("chain/"+agree, func(t *testing.T) {
			const laps = 6
			victim := 1 // primary of logical 1 (L=3, R=2: group {1, 4})
			w, res := runReplicated(t, 3, 2, agree, func(w *mpi.World, p *mpi.Proc) error {
				c := p.World()
				for lap := 0; lap < laps; lap++ {
					if lap == 2 && p.PhysRank() == victim {
						p.Die()
					}
					want := []byte(fmt.Sprintf("lap-%d", lap))
					var buf []byte
					if p.Rank() == 0 {
						buf = want
					}
					got, err := Bcast(c, 0, buf)
					if err != nil {
						return fmt.Errorf("lap %d Bcast: %w", lap, err)
					}
					if !bytes.Equal(got, want) {
						return fmt.Errorf("lap %d Bcast got %q, want %q", lap, got, want)
					}
					sum, err := Allreduce(c, EncodeInt64s([]int64{int64(p.Rank())}), SumInt64)
					if err != nil {
						return fmt.Errorf("lap %d Allreduce: %w", lap, err)
					}
					vals, err := DecodeInt64s(sum)
					if err != nil {
						return err
					}
					if len(vals) != 1 || vals[0] != 3 { // 0+1+2 over the logical ranks
						return fmt.Errorf("lap %d Allreduce got %v, want [3]", lap, vals)
					}
					if err := Barrier(c); err != nil {
						return fmt.Errorf("lap %d Barrier: %w", lap, err)
					}
				}
				return nil
			})
			for phys, rr := range res.Ranks {
				if phys != victim && (rr.Err != nil || rr.Killed) {
					t.Fatalf("phys %d saw the failure: %+v", phys, rr)
				}
			}
			if got := w.Metrics().Total(metrics.ReplicaPromotions); got != 1 {
				t.Fatalf("promotions: %d, want exactly 1", got)
			}
		})
	}
}

// TestRecoveryVariantsUnderReplication runs the recovery-oriented
// collectives — RecoveryBlock, BcastChain, AllgatherBruck, and the
// non-blocking Ibcast/Ibarrier pair — over a replicated world with a
// primary kill in the middle of the block. Replication absorbs the
// failure below the collective layer, so the block must complete on its
// FIRST attempt: a retry would mean a rank-fail-stop error leaked through
// the promotion, which is exactly the regression this guards against.
func TestRecoveryVariantsUnderReplication(t *testing.T) {
	for _, agree := range replCases {
		t.Run("chain/"+agree, func(t *testing.T) {
			victim := 2 // primary of logical 2 (L=3, R=2: group {2, 5})
			var retries atomic.Int32
			w, res := runReplicated(t, 3, 2, agree, func(w *mpi.World, p *mpi.Proc) error {
				c := p.World()
				attempt := 0
				err := RecoveryBlock(c, 2, func() error {
					attempt++
					if attempt > 1 {
						retries.Add(1)
					}
					want := []byte("chain-payload")
					var buf []byte
					if p.Rank() == 1 {
						buf = want
					}
					got, err := BcastChain(c, 1, buf)
					if err != nil {
						return fmt.Errorf("BcastChain: %w", err)
					}
					if !bytes.Equal(got, want) {
						return fmt.Errorf("BcastChain got %q, want %q", got, want)
					}
					if attempt == 1 && p.PhysRank() == victim {
						p.Die()
					}
					all, err := AllgatherBruck(c, []byte{byte('a' + p.Rank())})
					if err != nil {
						return fmt.Errorf("AllgatherBruck: %w", err)
					}
					if len(all) != 3 {
						return fmt.Errorf("AllgatherBruck width %d, want 3", len(all))
					}
					for r, pl := range all {
						if len(pl) != 1 || pl[0] != byte('a'+r) {
							return fmt.Errorf("AllgatherBruck[%d] = %q", r, pl)
						}
					}
					return nil
				})
				if err != nil {
					return fmt.Errorf("RecoveryBlock: %w", err)
				}
				// Non-blocking pair over the already-promoted group.
				want := []byte("post-promotion")
				var buf []byte
				if p.Rank() == 0 {
					buf = want
				}
				req, fetch := Ibcast(c, 0, buf)
				if _, err := req.Wait(); err != nil {
					return fmt.Errorf("Ibcast: %w", err)
				}
				if got := fetch(); !bytes.Equal(got, want) {
					return fmt.Errorf("Ibcast got %q, want %q", got, want)
				}
				if _, err := Ibarrier(c).Wait(); err != nil {
					return fmt.Errorf("Ibarrier: %w", err)
				}
				return nil
			})
			for phys, rr := range res.Ranks {
				if phys != victim && (rr.Err != nil || rr.Killed) {
					t.Fatalf("phys %d saw the failure: %+v", phys, rr)
				}
			}
			if got := retries.Load(); got != 0 {
				t.Fatalf("RecoveryBlock retried %d times: the failure leaked through replication", got)
			}
			if got := w.Metrics().Total(metrics.ReplicaPromotions); got != 1 {
				t.Fatalf("promotions: %d, want exactly 1", got)
			}
		})
	}
}
