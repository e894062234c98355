package mpi

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/reliable"
	"repro/internal/transport"
)

// TestBidirectionalBulkOverARQOnTCP: two ranks with the reliability
// sublayer each send bulkFrames 64 KiB messages to the other before either
// posts a receive. Each read loop acknowledges what it reads, so it calls
// TCP.Send on the reverse connection while the application is filling that
// same connection. If a Send can wait on a full socket, both read loops end
// up waiting on sockets that only the other read loop can drain, and
// World.Run's deadline cannot help: it waits for the ranks before it closes
// the fabric. The watchdog turns such a hang into a failure with a
// goroutine dump instead of stalling the test binary.
func TestBidirectionalBulkOverARQOnTCP(t *testing.T) {
	const bulkFrames = 1000
	const size = 64 << 10
	w, err := NewWorld(2, WithFabric(transport.NewTCP(2)), WithReliability(reliable.Options{}),
		WithDeadline(20*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	type outcome struct {
		res *RunResult
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := w.Run(func(p *Proc) error {
			c := p.World()
			c.SetErrhandler(ErrorsReturn)
			peer := 1 - p.Rank()
			msg := make([]byte, size) // Send has value semantics: reusable at once
			for i := 0; i < bulkFrames; i++ {
				binary.LittleEndian.PutUint32(msg, uint32(i))
				if err := c.Send(peer, 1, msg); err != nil {
					return fmt.Errorf("send %d: %w", i, err)
				}
			}
			for i := 0; i < bulkFrames; i++ {
				msg, _, err := c.Recv(peer, 1)
				if err != nil {
					return fmt.Errorf("recv %d: %w", i, err)
				}
				if len(msg) != size || binary.LittleEndian.Uint32(msg) != uint32(i) {
					return fmt.Errorf("recv %d: got %d B tagged %d", i, len(msg), binary.LittleEndian.Uint32(msg))
				}
			}
			return nil
		})
		done <- outcome{res, err}
	}()
	select {
	case o := <-done:
		if o.err != nil {
			t.Fatal(o.err)
		}
		requireNoRankErrors(t, o.res)
	case <-time.After(60 * time.Second):
		buf := make([]byte, 1<<20)
		t.Fatalf("bulk exchange still running after 60 s (deadline 20 s); goroutines:\n%s",
			buf[:runtime.Stack(buf, true)])
	}
}
