//go:build !race

// The race detector drops a quarter of sync.Pool puts on purpose, so
// allocation counts mean nothing under -race.

package core

import (
	"math"
	"runtime"
	"testing"
	"time"
	"unsafe"

	"repro/internal/mpi"
	"repro/internal/transport"
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

// TestChainHopAllocations guards the replicated hop: an 8-rank
// fault-unaware ring with two chain replicas per rank over ARQ, on the
// Local fabric (the ring.local.chain2 benchmark's world). A logical hop
// delivers to two replicas, and neither delivery may copy the packet to
// rewrite its source (12.3 allocations per hop when each did). Measured
// like TestCleanHopAllocations: two worlds that differ only in lap count.
// How often a frame finds its receive not yet posted, and queues as an
// unexpected message, depends on the schedule; on a loaded machine it adds
// up to half an allocation per hop. It only ever adds, so the least of
// three measurements is the hop's own cost.
func TestChainHopAllocations(t *testing.T) {
	const (
		ranks    = 8
		short    = 200
		long     = 2200
		maxAlloc = 10.5
	)
	mallocs := func(laps int) uint64 {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		report, _, err := Run(mpi.Config{
			Size: ranks, Deadline: 30 * time.Second, Reliable: true,
			Replication: &mpi.ReplicationOptions{R: 2, Mode: mpi.ReplChain},
		}, Config{Iters: laps, Variant: VariantUnaware})
		runtime.ReadMemStats(&m1)
		if err != nil || len(report.Rank(0).RootValues) != laps {
			t.Fatalf("%d-lap chain ring did not complete cleanly: %v", laps, err)
		}
		return m1.Mallocs - m0.Mallocs
	}
	mallocs(short) // warm the pools and the runtime
	perHop := math.Inf(1)
	for range 3 {
		perHop = min(perHop, (float64(mallocs(long))-float64(mallocs(short)))/float64((long-short)*ranks))
	}
	t.Logf("%.2f allocations per steady-state replicated hop", perHop)
	if perHop > maxAlloc {
		t.Fatalf("%.2f allocations per replicated hop, want at most %.1f", perHop, maxAlloc)
	}
}

// TestTCPLargeHopAllocations guards the pooled receive path: a steady-state
// hop of an 8-rank TCP ring carrying ring.tcp.large's 64 KiB padding reads
// its payload into a pooled buffer that the ring hands back after
// decoding, so the hop allocates a packet and some bookkeeping but no
// payload (~75 KB per hop when every read allocated its own). Measured
// like TestCleanHopAllocations: two worlds that differ only in lap count.
func TestTCPLargeHopAllocations(t *testing.T) {
	const (
		ranks    = 8
		short    = 50
		long     = 450
		maxBytes = 2048
	)
	bytes := func(laps int) uint64 {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		report, res, err := Run(mpi.Config{Size: ranks, Fabric: transport.NewTCP(ranks), Deadline: time.Minute},
			Config{Iters: laps, Variant: VariantFull, Padding: 64 << 10})
		runtime.ReadMemStats(&m1)
		if err != nil || res.FinishedCount() != ranks || len(report.Rank(0).RootValues) != laps {
			t.Fatalf("%d-lap TCP ring did not complete cleanly: %v", laps, err)
		}
		return m1.TotalAlloc - m0.TotalAlloc
	}
	bytes(short) // warm the pools and the runtime
	perHop := (float64(bytes(long)) - float64(bytes(short))) / float64((long-short)*ranks)
	t.Logf("%.0f bytes allocated per steady-state 64 KiB TCP hop", perHop)
	if perHop > maxBytes {
		t.Fatalf("%.0f bytes allocated per 64 KiB TCP hop, want at most %d", perHop, maxBytes)
	}
}

// TestHotStructSizeClasses pins the two structs every hop pays for to
// their allocator size classes, which the benchmark's bytes-per-hop
// bounds (5%) would notice first on the small Local rings. The sizes are
// those of a 64-bit layout.
func TestHotStructSizeClasses(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("struct sizes pinned for 64-bit platforms")
	}
	// One Packet is allocated per delivered frame. 112 B is a size class;
	// a field appended after Payload (rather than in the padding after
	// Kind) moves every packet into the 128 B class: +16 B per hop.
	if got := unsafe.Sizeof(transport.Packet{}); got != 112 {
		t.Errorf("transport.Packet is %d bytes, want 112 (size class 112, not 128)", got)
	}
	// Requests come from a sync.Pool, but a cold or parked receive
	// allocates one. 176 B is a size class; one flag past the flag bytes
	// after kind moves it into the 192 B class.
	if got := unsafe.Sizeof(mpi.Request{}); got != 176 {
		t.Errorf("mpi.Request is %d bytes, want 176 (size class 176, not 192)", got)
	}
}
