package reliable

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/transport"
)

// eachLink visits every link in the directory with its direction, under
// the writer mutex (no link comes or goes meanwhile) and the link's own
// lock. A nil visitor skips that half.
func eachLink(f *Fabric, onTx func(src, dst int, tx *txLink), onRx func(src, dst int, rx *rxLink)) {
	f.wmu.Lock()
	defer f.wmu.Unlock()
	for rank, r := range f.dir.Load().ranks {
		if row := r.tx.Load(); row != nil && onTx != nil {
			for _, tx := range *row {
				tx.mu.Lock()
				onTx(rank, tx.peer, tx)
				tx.mu.Unlock()
			}
		}
		if row := r.rx.Load(); row != nil && onRx != nil {
			for _, rx := range *row {
				rx.mu.Lock()
				onRx(rx.peer, rank, rx)
				rx.mu.Unlock()
			}
		}
	}
}

// owedOn snapshots the withheld acks on links touching k.
func owedOn(f *Fabric, k int) map[frameKey]bool {
	owed := make(map[frameKey]bool)
	eachLink(f, nil, func(src, dst int, rx *rxLink) {
		if src == k || dst == k {
			for seq := range rx.deferred {
				owed[frameKey{src: src, dst: dst, seq: seq}] = true
			}
		}
	})
	return owed
}

// TestDirectoryGrowsUnderChurn runs TestPurgeIsAtomicAcrossLinks's churn
// on a fresh fabric whose ranks all lie beyond the directory's initial
// size, so the directory grows while Sends, deliveries, PeerDown/PeerUp of
// k and the escalation of a blackholed destination run: every link is
// created racing them, and a goroutine keeps bringing never-used ranks in
// until the escalation is through. The three properties must hold.
func TestDirectoryGrowsUnderChurn(t *testing.T) {
	const fresh = 200 // ranks 42 to 242: the directory doubles three times more
	rounds := 8
	if testing.Short() {
		rounds = 3
	}
	var total churnOutcome
	for round := 0; round < rounds; round++ {
		if n := len(Wrap(&fakeFabric{}, Options{}).dir.Load().ranks); n > 0 {
			t.Fatalf("a new directory has %d ranks; the test wants it to grow from its first link", n)
		}
		k := 9 + round
		out := churn{
			k:     k,
			links: [][2]int{{3, k}, {k, 3}, {40, k}, {k, 40}, {3, 40}, {24, 41}},
			// Frames to 41 are never acked: after chargeAge and three
			// charged retries the scan escalates it.
			opts:      Options{RetryBase: 200 * time.Microsecond, RetryMax: time.Millisecond, MaxRetries: 3},
			toggles:   50,
			blackhole: 41,
			fresh:     fresh,
		}.run(t)
		total.sent += out.sent
		total.retired += out.retired
		total.purged += out.purged
		total.deadDrop += out.deadDrop
	}
	t.Logf("%d frames over %d fabrics: %d retired, %d purged, %d dropped at Send",
		total.sent, rounds, total.retired, total.purged, total.deadDrop)
	if total.retired == 0 || total.purged == 0 || total.deadDrop == 0 {
		t.Fatal("the run did not exercise every way out of the sender")
	}
}

// TestDirectoryIsLinearInLinks: a ring of 4096 ranks sends one frame per
// link. The directory then holds exactly the 4096 tx and 4096 rx links the
// frames used, and the heap grew by less than 8 MB: memory follows the
// links, where a dense table of 4096² link pointers would take 128 MB per
// direction.
func TestDirectoryIsLinearInLinks(t *testing.T) {
	const n = 4096
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	f := Wrap(&fakeFabric{}, Options{})
	if err := f.Start(func(int, *transport.Packet) {}); err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	for src := 0; src < n; src++ {
		if err := f.Send(&transport.Packet{Src: src, Dst: (src + 1) % n, Payload: []byte{1}}); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&m1)
	var txs, rxs, inflight int
	eachLink(f, func(src, dst int, tx *txLink) {
		txs++
		inflight += len(tx.inflight)
		if dst != (src+1)%n {
			t.Errorf("tx link %d -> %d was never used", src, dst)
		}
	}, func(src, dst int, rx *rxLink) {
		rxs++
		if dst != (src+1)%n {
			t.Errorf("rx link %d -> %d was never used", src, dst)
		}
	})
	if txs != n || rxs != n || inflight != 0 {
		t.Fatalf("directory holds %d tx and %d rx links, %d frames inflight; want %d, %d and 0", txs, rxs, inflight, n, n)
	}
	grown := int64(m1.HeapAlloc) - int64(m0.HeapAlloc)
	t.Logf("heap grew by %.2f MB for %d links", float64(grown)/(1<<20), 2*n)
	if grown >= 8<<20 {
		t.Fatalf("heap grew by %d B for %d links, want under 8 MB", grown, 2*n)
	}
	runtime.KeepAlive(f)
}
