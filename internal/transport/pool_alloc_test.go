//go:build !race

// The race detector drops a quarter of sync.Pool puts on purpose, so
// allocation counts mean nothing under -race.

package transport

import (
	"bytes"
	"errors"
	"io"
	"runtime"
	"testing"
)

// TestPayloadPoolRoundTripsAllocateNothing: once a class is warm, taking
// a buffer from the pool and putting it back allocates nothing, a Put
// included. A pooled read/release round trip (the TCP read loop's) then
// allocates only the Packet, and so does a ClonePooled/ReleasePayload
// round trip (the Latency fabric's): neither allocates a payload.
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
		pkt.ReleasePayload()
	}); a > 1 {
		t.Errorf("pooled read/release: %.1f allocations per round trip, want at most 1 (the Packet)", a)
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
