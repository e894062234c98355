package collective

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/metrics"
	"repro/internal/mpi"
	"repro/internal/mpitest"
	"repro/internal/reliable"
)

// TestReductionsLeaveInputsIntact checks the ownership rule of the
// in-place reductions. A caller's contribution is never the accumulator,
// so Reduce, Allreduce and Scan leave contrib as it was at every rank. And
// a received payload is never the accumulator either: on the Local fabric
// with ARQ the delivered slice is the sender's buffer, retained until its
// ack arrives, so a reduction that combined into it would change a frame
// under its CRC. Its retransmission (after a dropped ack) would then be
// rejected at the receiver forever, and the link escalated. The chaos half
// drops and duplicates frames over ten seeds and requires correct results,
// no rejected frame and no escalation.
func TestReductionsLeaveInputsIntact(t *testing.T) {
	reductions := []struct {
		name string
		run  func(c *mpi.Comm, contrib []byte) ([]byte, error)
		want func(rank, n int) int64 // the sum of 1..n (or 1..rank+1 for Scan); 0: no result here
	}{
		{"Reduce", func(c *mpi.Comm, b []byte) ([]byte, error) { return Reduce(c, 0, b, SumInt64) },
			func(rank, n int) int64 {
				if rank != 0 {
					return 0
				}
				return int64(n * (n + 1) / 2)
			}},
		{"Allreduce", func(c *mpi.Comm, b []byte) ([]byte, error) { return Allreduce(c, b, SumInt64) },
			func(_, n int) int64 { return int64(n * (n + 1) / 2) }},
		{"Scan", func(c *mpi.Comm, b []byte) ([]byte, error) { return Scan(c, b, SumInt64) },
			func(rank, _ int) int64 { return int64((rank + 1) * (rank + 2) / 2) }},
	}
	// check runs one reduction with contribution rank+1 (in every element)
	// and verifies both the result and that contrib is untouched.
	check := func(c *mpi.Comm, i int) error {
		red := reductions[i]
		rank, n := c.Rank(), c.Size()
		contrib := EncodeInt64s([]int64{int64(rank + 1), int64(rank + 1), int64(rank + 1)})
		orig := append([]byte(nil), contrib...)
		out, err := red.run(c, contrib)
		if err != nil {
			return fmt.Errorf("%s: %w", red.name, err)
		}
		if !bytes.Equal(contrib, orig) {
			return fmt.Errorf("%s changed rank %d's contribution: %v", red.name, rank, contrib)
		}
		want := red.want(rank, n)
		if want == 0 {
			if out != nil {
				return fmt.Errorf("%s: rank %d got a result", red.name, rank)
			}
			return nil
		}
		v, err := DecodeInt64s(out)
		if err != nil {
			return err
		}
		if len(v) != 3 || v[0] != want || v[1] != want || v[2] != want {
			return fmt.Errorf("%s: rank %d got %v, want 3 x %d", red.name, rank, v, want)
		}
		return nil
	}

	for _, n := range sizes {
		t.Run(fmt.Sprintf("inputs/n=%d", n), func(t *testing.T) {
			runWorld(t, n, func(p *mpi.Proc) error {
				for i := range reductions {
					if err := check(p.World(), i); err != nil {
						return err
					}
				}
				return nil
			})
		})
	}

	const (
		ranks  = 5
		rounds = 15
	)
	for seed := int64(1); seed <= 10; seed++ {
		t.Run(fmt.Sprintf("arq/seed=%d", seed), func(t *testing.T) {
			plan := chaos.NewPlan(seed).Default(chaos.Rates{Drop: 0.05, Dup: 0.05})
			m := metrics.NewWorld(ranks)
			w, err := mpi.NewWorld(ranks, mpi.WithChaos(plan), mpi.WithReliability(reliable.Options{}),
				mpi.WithMetrics(m), mpi.WithDeadline(60*time.Second))
			if err != nil {
				t.Fatal(err)
			}
			res, err := w.Run(func(p *mpi.Proc) error {
				c := p.World()
				c.SetErrhandler(mpi.ErrorsReturn)
				for r := 0; r < rounds; r++ {
					for _, i := range []int{1, 2} { // Allreduce, Scan
						if err := check(c, i); err != nil {
							return fmt.Errorf("round %d: %w", r, err)
						}
					}
				}
				return nil
			})
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			for rank, rr := range res.Ranks {
				if rr.Err != nil || !rr.Finished {
					t.Fatalf("rank %d: %+v", rank, rr)
				}
			}
			if plan.Count(chaos.EvDrop) == 0 {
				t.Fatal("chaos dropped nothing")
			}
			if rej, esc := m.Total(metrics.FramesRejected), m.Total(metrics.LinkEscalations); rej != 0 || esc != 0 {
				t.Fatalf("%d frames rejected, %d links escalated: a reduction wrote into a delivered payload", rej, esc)
			}
		})
	}
}

// TestCollectiveViewFollowsMembership checks that the participant view
// cached on the communicator is rebuilt whenever membership is replaced,
// under both agreement fan-outs: after a kill and ValidateAll an Allreduce
// counts only the survivors, and after an elastic Spawn re-admits the slot
// it counts the newcomer again.
func TestCollectiveViewFollowsMembership(t *testing.T) {
	const (
		n      = 5
		victim = 2
	)
	count := func(c *mpi.Comm) (int64, error) {
		out, err := Allreduce(c, EncodeInt64s([]int64{1}), SumInt64)
		if err != nil {
			return 0, err
		}
		v, err := DecodeInt64s(out)
		if err != nil {
			return 0, err
		}
		return v[0], nil
	}
	for _, mode := range []string{mpi.AgreementCoordinator, mpi.AgreementTree} {
		t.Run(mode, func(t *testing.T) {
			w, err := mpi.NewWorld(n, mpi.WithAgreement(mode), mpi.WithElastic(mpi.ElasticOptions{}),
				mpi.WithDeadline(30*time.Second))
			if err != nil {
				t.Fatal(err)
			}
			const release = 7 // p2p tag: rank 0's Spawn has returned
			res, err := w.Run(func(p *mpi.Proc) error {
				c := p.World()
				c.SetErrhandler(mpi.ErrorsReturn)
				if p.Rank() == victim && p.Gen() == 2 {
					// The reincarnation inherits the survivors' collective
					// sequence and joins their next collective.
					if got, err := count(c); err != nil || got != n {
						return fmt.Errorf("newcomer: allreduce %d, %v; want %d", got, err, n)
					}
					return nil
				}
				if p.Rank() == victim {
					// Dying before any collective: a death while a survivor
					// is still inside one fails that survivor's call.
					p.Die()
				}
				mpitest.AwaitKnownAlive(p, n-1)
				if _, err := c.ValidateAll(); err != nil {
					return err
				}
				if got, err := count(c); err != nil || got != n-1 {
					return fmt.Errorf("after validate: allreduce %d, %v; want %d", got, err, n-1)
				}
				// Rank 0 finishing that Allreduce means every survivor has
				// entered it, so the seed the newcomer gets is aligned. The
				// survivors wait for the respawn before the next collective,
				// which must see the repaired view.
				if p.Rank() == 0 {
					if _, err := w.Spawn(victim); err != nil {
						return err
					}
					for peer := 1; peer < n; peer++ {
						if peer != victim {
							if err := c.Send(peer, release, nil); err != nil {
								return err
							}
						}
					}
				} else if _, _, err := c.Recv(0, release); err != nil {
					return err
				}
				if got, err := count(c); err != nil || got != n {
					return fmt.Errorf("after spawn: allreduce %d, %v; want %d", got, err, n)
				}
				return nil
			})
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			for rank, rr := range res.Ranks {
				if rank != victim && rr.Err != nil {
					t.Fatalf("rank %d: %v", rank, rr.Err)
				}
			}
			if len(res.Respawns) != 1 || !res.Respawns[0].Finished || res.Respawns[0].Err != nil {
				t.Fatalf("respawns: %+v", res.Respawns)
			}
		})
	}
}
