package transport

import (
	"errors"
	"io"
	"math/rand"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// backlogged reports whether a flusher is draining tc's backlog.
func (tc *tcpConn) backlogged() bool {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	return tc.flushing
}

// writeSizes returns n frame sizes from 16 B to 256 KiB: mostly around
// the read loop's 4 KiB buffer, on either side of it, and one in eight a
// power of two up to 256 KiB.
func writeSizes(rng *rand.Rand, n int) []int {
	sizes := make([]int, n)
	for i := range sizes {
		if rng.Intn(8) == 0 {
			sizes[i] = 16 << rng.Intn(15)
		} else {
			sizes[i] = 16 + rng.Intn(8<<10)
		}
	}
	return sizes
}

// TestTCPWritePathFIFOAndCRC has four senders fan in on one destination
// with 10^4 frames of mixed sizes while the receiver stalls, at first
// until a backlog has formed and then briefly every 1000 frames, so Send
// moves between writing to the socket and queueing behind a flusher. Every
// frame must arrive once, in order per sender, with the bytes it was sent
// with; the read loop has verified its frame CRC.
func TestTCPWritePathFIFOAndCRC(t *testing.T) {
	const (
		senders   = 4
		perSender = 2500
		dst       = senders
	)
	sizes := make([][]int, senders)
	for src := range sizes {
		sizes[src] = writeSizes(rand.New(rand.NewSource(int64(src+1))), perSender)
	}
	release := make(chan struct{})
	var (
		next      [senders]int
		delivered atomic.Int64
		all       = make(chan struct{})
	)
	f := NewTCP(senders + 1)
	if err := f.Start(func(_ int, pkt *Packet) {
		n := delivered.Add(1)
		if n == 1 {
			<-release
		} else if n%1000 == 0 {
			time.Sleep(5 * time.Millisecond)
		}
		if pkt.Src < 0 || pkt.Src >= senders {
			t.Errorf("frame from rank %d", pkt.Src)
			return
		}
		// One read loop per inbound connection, and all senders share the
		// connection to dst: this callback is never concurrent.
		if want := next[pkt.Src]; pkt.Tag != want || len(pkt.Payload) != sizes[pkt.Src][want] {
			t.Errorf("from %d: frame %d of %d B, want frame %d of %d B",
				pkt.Src, pkt.Tag, len(pkt.Payload), want, sizes[pkt.Src][want])
		}
		next[pkt.Src] = pkt.Tag + 1
		if err := checkPattern(pkt); err != nil {
			t.Error(err)
		}
		pkt.ReleasePayload()
		if n == senders*perSender {
			close(all)
		}
	}); err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	var wg sync.WaitGroup
	for src := 0; src < senders; src++ {
		wg.Add(1)
		go func(src int) {
			defer wg.Done()
			buf := make([]byte, 256<<10)
			for tag, size := range sizes[src] {
				p := buf[:size]
				for j := range p {
					p[j] = patternByte(tag, src, j)
				}
				if err := f.Send(&Packet{Src: src, Dst: dst, Tag: tag, Payload: p}); err != nil {
					t.Error(err)
					return
				}
			}
		}(src)
	}
	sent := make(chan struct{})
	go func() { wg.Wait(); close(sent) }()

	backlogged := false
	for !backlogged {
		select {
		case <-sent:
			close(release)
			t.Fatal("every frame went to the socket at once: no backlog formed behind the stalled receiver")
		case <-time.After(100 * time.Microsecond):
			// f.conns is written once in Start, before it returns.
			backlogged = f.conns[dst].backlogged()
		}
	}
	close(release)
	select {
	case <-all:
	case <-time.After(30 * time.Second):
		t.Fatalf("%d of %d frames delivered", delivered.Load(), senders*perSender)
	}
	<-sent
	if errs := f.Errors(); len(errs) != 0 {
		t.Fatalf("transport errors: %v", errs)
	}
}

// fillBacklog sends 64 KiB frames from rank 0 to rank 1 until a flusher
// is draining a backlog to the stalled receiver, plus a few more, and
// returns how many frames it sent.
func fillBacklog(t *testing.T, f *TCP) int {
	t.Helper()
	payload := make([]byte, 64<<10)
	for i := 0; i < 4096; i++ {
		if err := f.Send(&Packet{Src: 0, Dst: 1, Tag: i, Payload: payload}); err != nil {
			t.Fatal(err)
		}
		if f.conns[1].backlogged() {
			for j := i + 1; j <= i+16; j++ {
				if err := f.Send(&Packet{Src: 0, Dst: 1, Tag: j, Payload: payload}); err != nil {
					t.Fatal(err)
				}
			}
			return i + 17
		}
	}
	t.Fatal("256 MiB went to the socket at once: no backlog formed behind the stalled receiver")
	return 0
}

// TestTCPCloseFlushesBacklog: Close drains a non-empty backlog before it
// tears the connection down when the receiver is alive, gives up at its
// write deadline when the receiver has stopped reading, and in both cases
// leaves no flusher behind. The receiver is a bare socket the test owns,
// so that what reaches it after Close has begun is seen too.
func TestTCPCloseFlushesBacklog(t *testing.T) {
	for _, reading := range []bool{true, false} {
		name := "receiver-alive"
		if !reading {
			name = "receiver-stalled"
		}
		t.Run(name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer ln.Close()
			f := NewTCP(2)
			if err := f.Start(func(int, *Packet) {}); err != nil {
				t.Fatal(err)
			}
			f.conns[1].addr = ln.Addr().String() // before the first Send dials it
			accepted := make(chan net.Conn, 1)
			go func() {
				c, err := ln.Accept()
				if err != nil {
					close(accepted)
					return
				}
				accepted <- c
			}()

			sent := fillBacklog(t, f)
			c, ok := <-accepted
			if !ok {
				t.Fatal("accept failed")
			}
			defer c.Close()
			got := make(chan int, 1)
			if reading {
				go func() {
					var hdr [FrameHeaderSize]byte
					n := 0
					for {
						pkt, err := ReadFrame(c, hdr[:])
						if err != nil {
							if !errors.Is(err, io.EOF) {
								t.Errorf("after %d frames: %v", n, err)
							}
							got <- n
							return
						}
						if pkt.Tag != n {
							t.Errorf("frame %d arrived as frame %d", pkt.Tag, n)
						}
						pkt.ReleasePayload()
						n++
					}
				}()
			}

			start := time.Now()
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}
			took := time.Since(start)
			if reading {
				if n := <-got; n != sent {
					t.Fatalf("receiver read %d of %d frames: Close dropped the backlog", n, sent)
				}
			} else if took > 2*time.Second {
				t.Fatalf("Close took %v with a stalled receiver; its write deadline is 200ms", took)
			}
			c.Close()
			ln.Close()
			deadline := time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() > before {
				if time.Now().After(deadline) {
					buf := make([]byte, 1<<16)
					t.Fatalf("%d goroutines after Close, %d before:\n%s",
						runtime.NumGoroutine(), before, buf[:runtime.Stack(buf, true)])
				}
				time.Sleep(time.Millisecond)
			}
		})
	}
}
