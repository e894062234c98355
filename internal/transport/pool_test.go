package transport

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"testing"
	"time"
	"unsafe"
)

// patternByte is byte j of frame tag's payload from src: every frame of
// the alias test carries its own bytes, position by position, so a buffer
// that two frames share cannot pass the check for both.
func patternByte(tag, src, j int) byte { return byte(tag*131 + src*29 + j) }

// checkPattern verifies every payload byte of a frame of the alias test.
func checkPattern(p *Packet) error {
	for j, b := range p.Payload {
		if want := patternByte(p.Tag, p.Src, j); b != want {
			return fmt.Errorf("frame %d from %d: byte %d is %#x, want %#x", p.Tag, p.Src, j, b, want)
		}
	}
	return nil
}

// TestPooledReadsNeverAlias runs 64 KiB frames between four TCP ranks at
// once and holds the last few delivered payloads before releasing them to
// the pool. A held payload must keep its bytes until it is released, and
// no two held payloads may share storage: the pool never hands out a
// buffer that someone still owns.
func TestPooledReadsNeverAlias(t *testing.T) {
	const (
		ranks  = 4
		frames = 200
		size   = 64 << 10
		window = 8 // payloads held at once, across all receivers
	)
	var (
		mu   sync.Mutex
		held []*Packet
	)
	arrived := make(chan struct{}, ranks*frames)
	f := NewTCP(ranks)
	if err := f.Start(func(dst int, pkt *Packet) {
		if !pkt.Pooled() {
			t.Errorf("frame %d from %d: payload not marked pooled", pkt.Tag, pkt.Src)
		}
		if err := checkPattern(pkt); err != nil {
			t.Error(err)
		}
		mu.Lock()
		for _, q := range held {
			if unsafe.SliceData(q.Payload) == unsafe.SliceData(pkt.Payload) {
				t.Errorf("frame %d from %d landed in the buffer of frame %d from %d, still held",
					pkt.Tag, pkt.Src, q.Tag, q.Src)
			}
		}
		held = append(held, pkt)
		var old *Packet
		if len(held) > window {
			old, held = held[0], held[1:]
		}
		mu.Unlock()
		if old != nil {
			if err := checkPattern(old); err != nil {
				t.Errorf("changed while held: %v", err)
			}
			old.ReleasePayload()
		}
		arrived <- struct{}{}
	}); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for src := 0; src < ranks; src++ {
		wg.Add(1)
		go func(src int) {
			defer wg.Done()
			buf := make([]byte, size)
			for tag := 0; tag < frames; tag++ {
				for j := range buf {
					buf[j] = patternByte(tag, src, j)
				}
				if err := f.Send(&Packet{Src: src, Dst: (src + 1) % ranks, Tag: tag, Payload: buf}); err != nil {
					t.Error(err)
					return
				}
			}
		}(src)
	}
	wg.Wait()
	timeout := time.After(30 * time.Second)
	for i := 0; i < ranks*frames; i++ {
		select {
		case <-arrived:
		case <-timeout:
			t.Fatalf("%d of %d frames arrived", i, ranks*frames)
		}
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	for _, p := range held {
		if err := checkPattern(p); err != nil {
			t.Errorf("changed while held: %v", err)
		}
	}
}

// TestCorruptFrameDeliversNothing writes a good frame and then one whose
// payload fails the frame CRC straight onto a rank's TCP listener: the
// good one is delivered, the corrupt one is not, and the read loop records
// ErrFrameCorrupt and drops the connection.
func TestCorruptFrameDeliversNothing(t *testing.T) {
	f := NewTCP(2)
	delivered := make(chan *Packet, 2)
	if err := f.Start(func(_ int, pkt *Packet) { delivered <- pkt }); err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	good, err := AppendFrame(nil, &Packet{Src: 0, Dst: 1, Tag: 1, Payload: make([]byte, 4096)})
	if err != nil {
		t.Fatal(err)
	}
	bad, err := AppendFrame(nil, &Packet{Src: 0, Dst: 1, Tag: 2, Payload: make([]byte, 4096)})
	if err != nil {
		t.Fatal(err)
	}
	bad[FrameHeaderSize+100] ^= 0x10
	conn, err := net.Dial("tcp", f.conns[1].addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(append(good, bad...)); err != nil {
		t.Fatal(err)
	}
	// The read loop closes its end after the corrupt frame: the event
	// that says it is done with the stream.
	_ = conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	if _, err := conn.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("read after the corrupt frame: %v, want io.EOF", err)
	}
	if p := <-delivered; p.Tag != 1 {
		t.Fatalf("delivered frame %d first, want 1", p.Tag)
	}
	select {
	case p := <-delivered:
		t.Fatalf("corrupt frame %d was delivered", p.Tag)
	default:
	}
	errs := f.Errors()
	if len(errs) != 1 || !errors.Is(errs[0], ErrFrameCorrupt) {
		t.Fatalf("recorded errors %v, want one ErrFrameCorrupt", errs)
	}
}

// TestPayloadSizeClasses checks the pool's arithmetic: a payload gets the
// smallest class that holds it, four classes per power of two, so rounding
// adds less than a quarter; one above maxPooledCap is allocated exactly and
// never marked.
func TestPayloadSizeClasses(t *testing.T) {
	for _, c := range []struct {
		n, cap int
		pooled bool
	}{
		{1, 16, true}, {16, 16, true}, {17, 20, true}, {33, 40, true},
		{64, 64, true}, {65, 80, true}, {112, 112, true}, {113, 128, true},
		{65536, 65536, true}, {65552, 80 << 10, true},
		{maxPooledCap, maxPooledCap, true}, {maxPooledCap + 1, maxPooledCap + 1, false},
	} {
		b, pooled := getPayload(c.n)
		if len(b) != c.n || cap(b) != c.cap || pooled != c.pooled {
			t.Errorf("getPayload(%d): len %d cap %d pooled %v, want len %d cap %d pooled %v",
				c.n, len(b), cap(b), pooled, c.n, c.cap, c.pooled)
		}
		PutPayload(b)
	}
	if last := classSize(payloadClasses - 1); last != maxPooledCap {
		t.Fatalf("largest class is %d B, want maxPooledCap (%d)", last, maxPooledCap)
	}
	for k := 0; k < payloadClasses; k++ {
		if got := classOf(classSize(k)); got != k {
			t.Fatalf("class %d (%d B) maps back to class %d", k, classSize(k), got)
		}
	}
	for n := 1 << minPayloadShift; n <= maxPooledCap; n++ {
		k := classOf(n)
		if size := classSize(k); size < n || 4*size >= 5*n || (k > 0 && classSize(k-1) >= n) {
			t.Fatalf("%d B went to class %d (%d B): not the smallest class that holds it within 25%%", n, k, size)
		}
	}
}
