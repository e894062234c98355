//go:build !race

// The race detector drops a quarter of sync.Pool puts on purpose, so
// allocation counts mean nothing under -race.

package transport

import (
	"bytes"
	"errors"
	"io"
	"net"
	"runtime"
	"testing"
)

// TestPayloadPoolRoundTripsAllocateNothing: once a class is warm, taking
// a buffer from the pool and putting it back allocates nothing, a Put
// included. A pooled read/release round trip (the TCP read loop's) then
// allocates nothing either, its packet included, and a ClonePooled/
// ReleasePayload round trip (the Latency fabric's) allocates only the
// clone's Packet: neither allocates a payload. Nor does a NewPooled
// packet handed back whole (the p2p path to the Local fabric).
func TestPayloadPoolRoundTripsAllocateNothing(t *testing.T) {
	for _, n := range []int{16, 65552} {
		if a := testing.AllocsPerRun(100, func() {
			b, _ := getPayload(n)
			PutPayload(b)
		}); a != 0 {
			t.Errorf("getPayload/PutPayload of %d B: %.1f allocations per round trip, want 0", n, a)
		}
	}

	src := &Packet{Src: 1, Dst: 2, Tag: 3, Payload: make([]byte, 64<<10)}
	if a := testing.AllocsPerRun(100, func() {
		src.ClonePooled().ReleasePayload()
	}); a > 1 {
		t.Errorf("ClonePooled/ReleasePayload: %.1f allocations per round trip, want at most 1 (the Packet)", a)
	}

	frame, err := AppendFrame(nil, src)
	if err != nil {
		t.Fatal(err)
	}
	r := bytes.NewReader(frame)
	var hdr [FrameHeaderSize]byte
	if a := testing.AllocsPerRun(100, func() {
		r.Reset(frame)
		pkt, err := ReadFrame(r, hdr[:])
		if err != nil || !pkt.Pooled() {
			t.Fatalf("read: %v", err)
		}
		pkt.Release()
	}); a != 0 {
		t.Errorf("pooled read/release: %.1f allocations per round trip, want 0", a)
	}

	if a := testing.AllocsPerRun(100, func() {
		NewPooled(src.Payload).Release()
	}); a != 0 {
		t.Errorf("NewPooled/Release: %.1f allocations per round trip, want 0", a)
	}
}

// TestFailedReadReturnsItsBuffer reads a 64 KiB frame that fails its CRC,
// and one cut off inside its payload, over and over: each attempt must
// hand its payload buffer back before returning the error, so the
// attempts together allocate far less than one payload each.
func TestFailedReadReturnsItsBuffer(t *testing.T) {
	good, err := AppendFrame(nil, &Packet{Src: 1, Dst: 2, Tag: 3, Payload: make([]byte, 64<<10)})
	if err != nil {
		t.Fatal(err)
	}
	corrupt := append([]byte(nil), good...)
	corrupt[FrameHeaderSize+7] ^= 0x01
	for _, c := range []struct {
		name  string
		frame []byte
		want  error
	}{
		{"crc", corrupt, ErrFrameCorrupt},
		{"truncated", good[:len(good)-1], io.ErrUnexpectedEOF},
	} {
		t.Run(c.name, func(t *testing.T) {
			const reads = 200
			r := bytes.NewReader(nil)
			var hdr [FrameHeaderSize]byte
			read := func() {
				r.Reset(c.frame)
				if pkt, err := ReadFrame(r, hdr[:]); pkt != nil || !errors.Is(err, c.want) {
					t.Fatalf("ReadFrame: %v, %v; want nil, %v", pkt, err, c.want)
				}
			}
			read() // warm the size class
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			for i := 0; i < reads; i++ {
				read()
			}
			runtime.ReadMemStats(&m1)
			if per := (m1.TotalAlloc - m0.TotalAlloc) / reads; per > 4<<10 {
				t.Fatalf("%d bytes allocated per failed read: the payload buffer was not returned", per)
			}
		})
	}
}

// TestTCPSendAllocatesNothing: in steady state TCP.Send of a 16 B and of
// a 64 KiB payload allocates nothing: the header is encoded into the
// connection's scratch and the payload goes to the socket from the
// caller's buffer. The receiver is a bare socket that discards what it
// reads, so the read loop's Packet is not counted.
func TestTCPSendAllocatesNothing(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		buf := make([]byte, 64<<10)
		for {
			if _, err := c.Read(buf); err != nil {
				return
			}
		}
	}()
	f := NewTCP(2)
	if err := f.Start(func(int, *Packet) {}); err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	f.conns[1].addr = ln.Addr().String() // before the first Send dials it
	for _, size := range []int{16, 64 << 10} {
		pkt := &Packet{Src: 0, Dst: 1, Tag: 1, Payload: make([]byte, size)}
		send := func() {
			if err := f.Send(pkt); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 100; i++ {
			send() // dial, and grow the backlog buffers if a burst needs them
		}
		if a := testing.AllocsPerRun(500, send); a != 0 {
			t.Errorf("TCP.Send of %d B: %.1f allocations per send, want 0", size, a)
		}
	}
}
