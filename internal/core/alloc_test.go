//go:build !race

// The race detector drops a quarter of sync.Pool puts on purpose, so
// allocation counts mean nothing under -race.

package core

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/mpi"
)

// TestCleanHopAllocations guards the failure-free cost of the Fig. 9
// receive: a steady-state hop of an 8-rank Local ring allocates the
// packet and the fabric's payload copy, and nothing else. Two worlds that
// differ only in lap count are measured whole; their difference is the
// steady state, with set-up, warm-up and termination cancelled out.
func TestCleanHopAllocations(t *testing.T) {
	const (
		ranks    = 8
		short    = 200
		long     = 2200
		maxAlloc = 2.1 // packet + payload copy, and a little tolerance
	)
	mallocs := func(laps int) uint64 {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		report, res, err := Run(mpi.Config{Size: ranks, Deadline: 30 * time.Second},
			Config{Iters: laps, Variant: VariantFull})
		runtime.ReadMemStats(&m1)
		if err != nil || res.FinishedCount() != ranks || len(report.Rank(0).RootValues) != laps {
			t.Fatalf("%d-lap ring did not complete cleanly: %v", laps, err)
		}
		return m1.Mallocs - m0.Mallocs
	}
	mallocs(short) // warm the pools and the runtime
	perHop := (float64(mallocs(long)) - float64(mallocs(short))) / float64((long-short)*ranks)
	t.Logf("%.2f allocations per steady-state hop", perHop)
	if perHop > maxAlloc {
		t.Fatalf("%.2f allocations per clean hop, want at most %.1f", perHop, maxAlloc)
	}
}
