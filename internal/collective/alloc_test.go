//go:build !race

// The race detector drops a quarter of sync.Pool puts on purpose, so
// allocation counts mean nothing under -race.

package collective

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/mpi"
	"repro/internal/transport"
)

// TestCollectiveRoundAllocations guards what a collective costs besides
// its messages: one round of Barrier, Bcast of 128 B and Allreduce of
// 128 B (SumInt64) on an 8-rank Local world. Entry reads the participant
// view cached on the communicator and the reduction combines in place, so
// what is left is per message. A round sends 55 messages: 24 empty
// barrier ones cost a packet each, the 31 others a packet and the
// fabric's payload copy (86 in all), and each message that beats its
// receive costs an unexpected-queue entry (up to 55). Add one accumulator
// per Allreduce, the callers' 8 encoded vectors and the root's buffer
// (17): at most 158 however the ranks interleave, about 132 measured on
// 2 vCPUs. Rebuilding the view and decoding the operands on every call
// cost some 190 more. Two worlds that differ only in round count are
// measured whole; their difference is the steady state, with set-up and
// teardown cancelled out.
func TestCollectiveRoundAllocations(t *testing.T) {
	const (
		ranks    = 8
		short    = 200
		long     = 2200
		maxAlloc = 165.0
	)
	mallocs := func(rounds int) uint64 {
		w, err := mpi.NewWorld(ranks, mpi.WithFabric(transport.NewLocal()), mpi.WithDeadline(30*time.Second))
		if err != nil {
			t.Fatal(err)
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		res, err := w.Run(func(p *mpi.Proc) error {
			c := p.World()
			c.SetErrhandler(mpi.ErrorsReturn)
			vec := make([]int64, 16)
			for r := 0; r < rounds; r++ {
				if err := Barrier(c); err != nil {
					return err
				}
				var buf []byte
				if c.Rank() == 0 {
					buf = make([]byte, 128)
				}
				if _, err := Bcast(c, 0, buf); err != nil {
					return err
				}
				vec[0] = int64(r)
				if _, err := Allreduce(c, EncodeInt64s(vec), SumInt64); err != nil {
					return err
				}
			}
			return nil
		})
		runtime.ReadMemStats(&m1)
		if err != nil || res.FinishedCount() != ranks {
			t.Fatalf("%d-round world did not complete cleanly: %v", rounds, err)
		}
		for rank, rr := range res.Ranks {
			if rr.Err != nil {
				t.Fatalf("rank %d: %v", rank, rr.Err)
			}
		}
		return m1.Mallocs - m0.Mallocs
	}
	mallocs(short) // warm the pools and the runtime
	perRound := (float64(mallocs(long)) - float64(mallocs(short))) / float64(long-short)
	t.Logf("%.1f allocations per steady-state round", perRound)
	if perRound > maxAlloc {
		t.Fatalf("%.1f allocations per collective round, want at most %.0f", perRound, maxAlloc)
	}
}
