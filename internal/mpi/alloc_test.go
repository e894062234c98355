//go:build !race

// The race detector drops a quarter of sync.Pool puts on purpose, so
// allocation counts mean nothing under -race.

package mpi

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/transport"
)

// TestTCPRecvBytes guards what Recv costs for ring.tcp.large's payload
// (64 KiB + 16 B) over TCP. The read buffer goes back to the payload pool
// and Recv copies the message out into a slice of its exact size: 72 KiB
// once the heap rounds the large object up to whole pages, about 74 KB a
// message in all. A Recv that kept the read buffer would take a fresh
// 80 KiB buffer of its size class for every message. Two worlds that
// differ only in message count are measured whole; their difference is
// the steady state, with set-up and teardown cancelled out. The test runs
// on 2 Ps: with more, a buffer released on one P waits in that P's
// private pool slot while the read loop on another misses and allocates,
// which adds 1-5 KB a message at 4-32 Ps.
func TestTCPRecvBytes(t *testing.T) {
	const (
		size     = 64<<10 + 16
		short    = 100
		long     = 600
		maxBytes = 80_000
	)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	run := func(msgs int) uint64 {
		w, err := NewWorld(2, WithFabric(transport.NewTCP(2)), WithDeadline(time.Minute))
		if err != nil {
			t.Fatal(err)
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		res, err := w.Run(func(p *Proc) error {
			c := p.World()
			c.SetErrhandler(ErrorsReturn)
			payload := make([]byte, size)
			peer := 1 - p.Rank()
			for i := 0; i < msgs; i++ {
				if i%2 == p.Rank() {
					if err := c.Send(peer, 1, payload); err != nil {
						return err
					}
				} else if _, _, err := c.Recv(peer, 1); err != nil {
					return err
				}
			}
			return nil
		})
		runtime.ReadMemStats(&m1)
		if err != nil || res.FinishedCount() != 2 {
			t.Fatalf("%d-message world did not complete cleanly: %v", msgs, err)
		}
		requireNoRankErrors(t, res)
		return m1.TotalAlloc - m0.TotalAlloc
	}
	run(short) // warm the pools and the runtime
	perMsg := (float64(run(long)) - float64(run(short))) / float64(long-short)
	t.Logf("%.0f B allocated per 64 KiB + 16 B message", perMsg)
	if perMsg > maxBytes {
		t.Fatalf("%.0f B per message sent and received, want at most %d", perMsg, maxBytes)
	}
}
