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

	"repro/internal/chaos"
	"repro/internal/mpi"
	"repro/internal/transport"
)

// steadyHop measures what one steady-state hop of a ring costs in stat:
// two worlds that differ only in lap count are measured whole, after a
// warm-up run, and their difference per hop is the steady state, with
// set-up, warm-up and termination cancelled out. world returns a fresh
// world configuration for every run.
func steadyHop(t *testing.T, world func() mpi.Config, short, long, pad int, stat func(*runtime.MemStats) uint64) float64 {
	t.Helper()
	var ranks int
	run := func(laps int) uint64 {
		mcfg := world()
		ranks = mcfg.Size
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		report, res, err := Run(mcfg, Config{Iters: laps, Variant: VariantFull, Padding: pad})
		runtime.ReadMemStats(&m1)
		if err != nil || res.FinishedCount() != ranks || len(report.Rank(0).RootValues) != laps {
			t.Fatalf("%d-lap ring did not complete cleanly: %v", laps, err)
		}
		return stat(&m1) - stat(&m0)
	}
	run(short) // warm the pools and the runtime
	return (float64(run(long)) - float64(run(short))) / float64((long-short)*ranks)
}

func mallocs(m *runtime.MemStats) uint64    { return m.Mallocs }
func allocBytes(m *runtime.MemStats) uint64 { return m.TotalAlloc }

// TestCleanHopAllocations guards the failure-free cost of the Fig. 9
// receive: a steady-state hop of an 8-rank Local ring allocates nothing.
// The sender builds its packet from the packet and payload pools, the
// receiving engine hands the packet back once the payload is on the
// request, and the ring hands the payload back once it has decoded it.
// A hop that allocates its packet and payload copy reads 2.
func TestCleanHopAllocations(t *testing.T) {
	const maxAlloc = 0.1
	world := func() mpi.Config { return mpi.Config{Size: 8, Deadline: 30 * time.Second} }
	perHop := steadyHop(t, world, 200, 2200, 0, mallocs)
	t.Logf("%.2f allocations per steady-state hop", perHop)
	if perHop > maxAlloc {
		t.Fatalf("%.2f allocations per clean hop, want at most %.1f", perHop, maxAlloc)
	}
}

// TestTCPSmallHopAllocations guards the same hop over TCP with
// ring.tcp.small's 16 B messages: the sender lends TCP.Send a packet
// struct it takes back, the read loop takes its packet and payload from
// the pools, and the engine and the ring hand them back, so a hop
// allocates nothing. A hop that allocates both packets reads 2.
func TestTCPSmallHopAllocations(t *testing.T) {
	const maxAlloc = 0.1
	world := func() mpi.Config {
		return mpi.Config{Size: 8, Fabric: transport.NewTCP(8), Deadline: time.Minute}
	}
	perHop := steadyHop(t, world, 200, 2200, 0, mallocs)
	t.Logf("%.3f allocations per steady-state 16 B TCP hop", perHop)
	if perHop > maxAlloc {
		t.Fatalf("%.3f allocations per 16 B TCP hop, want at most %.1f", perHop, maxAlloc)
	}
}

// leastHop is steadyHop for a hop whose cost depends on the schedule: a
// ring of ranks logical ranks running cfg over the world that world
// returns is measured three times after one warm-up, each time as the
// difference per hop of a short and a long run, and the least of the
// three is the hop's own cost. How often a frame finds its receive not
// yet posted, and queues as an unexpected message, depends on the
// schedule; on a loaded machine it adds up to half an allocation per hop,
// and it only ever adds.
func leastHop(t *testing.T, world func() mpi.Config, cfg Config, ranks, short, long int) float64 {
	t.Helper()
	count := func(laps int) uint64 {
		var m0, m1 runtime.MemStats
		cfg.Iters = laps
		runtime.ReadMemStats(&m0)
		report, _, err := Run(world(), cfg)
		runtime.ReadMemStats(&m1)
		if err != nil || len(report.Rank(0).RootValues) != laps {
			t.Fatalf("%d-lap ring did not complete cleanly: %v", laps, err)
		}
		return m1.Mallocs - m0.Mallocs
	}
	count(short) // warm the pools and the runtime
	perHop := math.Inf(1)
	for range 3 {
		perHop = min(perHop, (float64(count(long))-float64(count(short)))/float64((long-short)*ranks))
	}
	return perHop
}

// TestChainHopAllocations guards the replicated hop: an 8-rank
// fault-unaware ring with two mirror-paired replicas per rank over ARQ, on
// the Local fabric (the ring.local.chain2 benchmark's world). A logical hop
// is two replica sends and two deliveries. The engine lends the ARQ the
// caller's payload, the ARQ hands Local a pooled copy that the receiver
// recycles, the ack comes back inside the Send so the ARQ keeps no copy,
// and the ring hands its read back after decoding it: the one allocation
// left is the outbox's payload copy on the replica ahead of the other,
// about 1 per hop.
func TestChainHopAllocations(t *testing.T) {
	const (
		ranks    = 8
		maxAlloc = 1.5
	)
	world := func() mpi.Config {
		return mpi.Config{
			Size: ranks, Deadline: 30 * time.Second, Reliable: true,
			Replication: &mpi.ReplicationOptions{R: 2, Mode: mpi.ReplChain},
		}
	}
	perHop := leastHop(t, world, Config{Variant: VariantUnaware}, ranks, 200, 2200)
	t.Logf("%.2f allocations per steady-state replicated hop", perHop)
	if perHop > maxAlloc {
		t.Fatalf("%.2f allocations per replicated hop, want at most %.1f", perHop, maxAlloc)
	}
}

// TestLossyHopAllocations guards the hop of ring.local.lossy's world: the
// 8-rank fault-aware ring over ARQ and chaos on the Local fabric, losing
// 2% of frames, duplicating 1% and corrupting 0.5%. A clean frame costs
// what it costs without chaos: a pooled copy down, recycled by the
// receiver. A lost or corrupted one also costs the ARQ a pooled copy it
// keeps until the ack, a duplicate a pooled twin, and every fault an entry
// in the plan's log: about 0.25 allocations per hop.
func TestLossyHopAllocations(t *testing.T) {
	const (
		ranks    = 8
		maxAlloc = 0.5
	)
	world := func() mpi.Config {
		return mpi.Config{
			Size: ranks, Deadline: 30 * time.Second,
			Chaos: chaos.NewPlan(1).Default(chaos.Rates{Drop: .02, Dup: .01, Corrupt: .005}),
		}
	}
	perHop := leastHop(t, world, Config{Variant: VariantFull}, ranks, 100, 600)
	t.Logf("%.2f allocations per steady-state lossy hop", perHop)
	if perHop > maxAlloc {
		t.Fatalf("%.2f allocations per lossy hop, want at most %.1f", perHop, maxAlloc)
	}
}

// TestTCPLargeHopAllocations guards the pooled receive path: a steady-state
// hop of an 8-rank TCP ring carrying ring.tcp.large's 64 KiB padding reads
// its payload into a pooled buffer that the ring hands back after
// decoding, and its packet from the packet pool, so the hop allocates a
// few bytes of bookkeeping (~75 KB per hop when every read allocates its
// own payload, ~360 B when it allocates its own packet).
func TestTCPLargeHopAllocations(t *testing.T) {
	const maxBytes = 512
	world := func() mpi.Config {
		return mpi.Config{Size: 8, Fabric: transport.NewTCP(8), Deadline: time.Minute}
	}
	perHop := steadyHop(t, world, 50, 450, 64<<10, allocBytes)
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
	// A Packet comes from a pool, but a cold pool, or a consumer that
	// keeps its packet, allocates one per frame. 112 B is a size class;
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
