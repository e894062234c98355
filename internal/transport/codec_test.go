package transport

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"testing"
)

// randomPacket builds a packet with field values spanning the encodable
// range, including negative tags (internal protocol tags) and nil
// payloads.
func randomPacket(rng *rand.Rand) *Packet {
	p := &Packet{
		Src:      rng.Intn(1 << 20),
		Dst:      rng.Intn(1 << 20),
		Tag:      rng.Intn(1<<16) - 1<<15,
		Context:  rng.Intn(1 << 10),
		Kind:     Kind(rng.Intn(2)),
		SrcGen:   rng.Uint32(),
		DstGen:   rng.Uint32(),
		Seq:      rng.Uint64(),
		Crc:      rng.Uint32(),
		RepSeq:   rng.Uint32(),
		RepEpoch: rng.Uint32(),
		HLC:      rng.Uint64(),
		Token:    rng.Uint64(),
	}
	if n := rng.Intn(512); n > 0 {
		p.Payload = make([]byte, n)
		rng.Read(p.Payload)
	}
	return p
}

// gobRoundTrip pushes a packet through the gob codec, the old wire format.
func gobRoundTrip(t *testing.T, p *Packet) *Packet {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(p); err != nil {
		t.Fatalf("gob encode: %v", err)
	}
	var q Packet
	if err := gob.NewDecoder(&buf).Decode(&q); err != nil {
		t.Fatalf("gob decode: %v", err)
	}
	return &q
}

// wire returns the fields of p that travel in a frame. The pool mark is
// in-memory only: ReadFrame sets it, an encoded packet never has it.
func wire(p *Packet) Packet {
	q := *p
	q.pooled = false
	return q
}

// TestBinaryCodecMatchesGob is the property test of the new wire format:
// for random packets, binary round trip == gob round trip == original.
func TestBinaryCodecMatchesGob(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var hdr [FrameHeaderSize]byte
	for i := 0; i < 500; i++ {
		p := randomPacket(rng)
		frame, err := AppendFrame(nil, p)
		if err != nil {
			t.Fatalf("append frame: %v", err)
		}
		if len(frame) != FrameHeaderSize+len(p.Payload) {
			t.Fatalf("frame length %d, want %d", len(frame), FrameHeaderSize+len(p.Payload))
		}
		fromBinary, err := ReadFrame(bytes.NewReader(frame), hdr[:])
		if err != nil {
			t.Fatalf("read frame: %v", err)
		}
		fromGob := gobRoundTrip(t, p)
		if !reflect.DeepEqual(wire(fromBinary), wire(fromGob)) {
			t.Fatalf("codecs disagree:\nbinary: %+v\ngob:    %+v", fromBinary, fromGob)
		}
		if !reflect.DeepEqual(wire(fromBinary), wire(p)) {
			t.Fatalf("round trip changed the packet:\ngot  %+v\nwant %+v", fromBinary, p)
		}
		if !fromBinary.Pooled() {
			t.Fatalf("no pool mark on a read packet with a %d-byte payload", len(p.Payload))
		}
		fromBinary.Release()
	}
}

// TestBinaryCodecStream decodes several concatenated frames in sequence,
// the shape the TCP read loop sees.
func TestBinaryCodecStream(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var frames []byte
	var want []*Packet
	for i := 0; i < 20; i++ {
		p := randomPacket(rng)
		want = append(want, p)
		var err error
		frames, err = AppendFrame(frames, p)
		if err != nil {
			t.Fatal(err)
		}
	}
	r := bytes.NewReader(frames)
	var hdr [FrameHeaderSize]byte
	for i, w := range want {
		got, err := ReadFrame(r, hdr[:])
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !reflect.DeepEqual(wire(got), wire(w)) {
			t.Fatalf("frame %d: got %+v want %+v", i, got, w)
		}
		got.ReleasePayload()
	}
	if _, err := ReadFrame(r, hdr[:]); err != io.EOF {
		t.Fatalf("trailing read: %v, want io.EOF", err)
	}
}

// TestReadFrameRejectsCorruption: bad magic, bad version, an absurd
// payload length, and any CRC-detectable mangling must all error, never
// panic or allocate the claim.
func TestReadFrameRejectsCorruption(t *testing.T) {
	good, err := AppendFrame(nil, &Packet{Src: 1, Dst: 2, Tag: 3, Payload: []byte("ok")})
	if err != nil {
		t.Fatal(err)
	}
	var hdr [FrameHeaderSize]byte
	corrupt := func(mutate func(b []byte)) error {
		b := append([]byte(nil), good...)
		mutate(b)
		_, err := ReadFrame(bytes.NewReader(b), hdr[:])
		return err
	}
	if err := corrupt(func(b []byte) { b[0] ^= 0xff }); err == nil {
		t.Fatal("bad magic accepted")
	}
	if err := corrupt(func(b []byte) { b[4] = 99 }); err == nil {
		t.Fatal("bad version accepted")
	}
	// An undefined kind is refused even in a frame whose CRC holds: it
	// would otherwise reach the engine as user data.
	for _, kind := range []Kind{6, 255} {
		frame, err := AppendFrame(nil, &Packet{Src: 1, Dst: 2, Tag: 3, Kind: kind, Payload: []byte("ok")})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ReadFrame(bytes.NewReader(frame), hdr[:]); !errors.Is(err, ErrFrameCorrupt) {
			t.Fatalf("kind %d: ReadFrame returned %v, want ErrFrameCorrupt", kind, err)
		}
	}
	if err := corrupt(func(b []byte) { b[66], b[67], b[68], b[69] = 0xff, 0xff, 0xff, 0xff }); err == nil {
		t.Fatal("oversized payload length accepted")
	}
	if err := corrupt(func(b []byte) { b[66] = 1 }); err == nil {
		t.Fatal("shrunk payload length accepted")
	}
	if err := corrupt(func(b []byte) { b[38] ^= 0x01 }); err == nil {
		t.Fatal("flipped payload-crc field accepted")
	}
	if err := corrupt(func(b []byte) { b[30] ^= 0x80 }); err == nil {
		t.Fatal("flipped seq bit accepted")
	}
	if err := corrupt(func(b []byte) { b[42] ^= 0x01 }); err == nil {
		t.Fatal("flipped rep-seq field accepted")
	}
	if err := corrupt(func(b []byte) { b[46] ^= 0x01 }); err == nil {
		t.Fatal("flipped rep-epoch field accepted")
	}
	if err := corrupt(func(b []byte) { b[50] ^= 0x01 }); err == nil {
		t.Fatal("flipped hlc field accepted")
	}
	if err := corrupt(func(b []byte) { b[58] ^= 0x01 }); err == nil {
		t.Fatal("flipped token field accepted")
	}
	if err := corrupt(func(b []byte) { b[FrameHeaderSize] ^= 0x04 }); err == nil {
		t.Fatal("flipped payload bit accepted")
	}
	if err := corrupt(func(b []byte) { b[FrameHeaderSize-1] ^= 0xff }); err == nil {
		t.Fatal("flipped frame-crc byte accepted")
	}
}

// TestAppendFrameRejectsOutOfRange: fields beyond int32 cannot be framed.
func TestAppendFrameRejectsOutOfRange(t *testing.T) {
	if _, err := AppendFrame(nil, &Packet{Src: 1 << 40}); err == nil {
		t.Fatal("out-of-range src accepted")
	}
}

// TestClonePooledRelease checks the pooled clone contract: the clone is a
// deep copy, and releasing it does not disturb the original.
func TestClonePooledRelease(t *testing.T) {
	p := &Packet{Src: 1, Dst: 2, Tag: 3, Payload: []byte{9, 8, 7}}
	q := p.ClonePooled()
	q.Payload[0] = 42
	if p.Payload[0] != 9 {
		t.Fatal("pooled clone shares payload storage")
	}
	q.ReleasePayload()
	if q.Payload != nil {
		t.Fatal("release did not nil the payload")
	}
	if p.Payload[0] != 9 || len(p.Payload) != 3 {
		t.Fatal("release disturbed the original")
	}
}

// FuzzFrameRoundTrip fuzzes the encode/decode pair over the header fields
// and payload.
func FuzzFrameRoundTrip(f *testing.F) {
	f.Add(0, 1, 5, 7, uint8(0), uint64(3), uint32(0), uint64(0), uint64(0), []byte("payload"))
	f.Add(3, 0, -2, 0, uint8(1), uint64(0), uint32(1), uint64(1)<<12, uint64(3)<<TokenBits|9, []byte(nil))
	f.Add(1<<19, 1<<19, -(1 << 14), 1<<9, uint8(7), ^uint64(0), ^uint32(0), ^uint64(0), ^uint64(0), []byte{0})
	f.Fuzz(func(t *testing.T, src, dst, tag, ctx int, kind uint8, seq uint64, crc uint32, hlc, tok uint64, payload []byte) {
		p := &Packet{Src: src, Dst: dst, Tag: tag, Context: ctx, Kind: Kind(kind), Seq: seq, Crc: crc, HLC: hlc, Token: tok}
		if len(payload) > 0 {
			p.Payload = payload
		}
		frame, err := AppendFrame(nil, p)
		if err != nil {
			// Out-of-range fields are rejected, never mis-encoded.
			if fitsInt32(src) && fitsInt32(dst) && fitsInt32(tag) && fitsInt32(ctx) {
				t.Fatalf("unexpected encode error: %v", err)
			}
			return
		}
		var hdr [FrameHeaderSize]byte
		q, err := ReadFrame(bytes.NewReader(frame), hdr[:])
		if Kind(kind) >= kindEnd {
			// An undefined kind encodes, but the decoder refuses it.
			if !errors.Is(err, ErrFrameCorrupt) {
				t.Fatalf("kind %d decoded: %v", kind, err)
			}
			return
		}
		if err != nil {
			t.Fatalf("decode of own encoding failed: %v", err)
		}
		if !reflect.DeepEqual(wire(p), wire(q)) {
			t.Fatalf("round trip changed the packet:\ngot  %+v\nwant %+v", q, p)
		}
		q.ReleasePayload()
	})
}

// FuzzFrameCorruption is the integrity proof behind the chaos layer: any
// nonzero xor burst of up to 4 bytes applied anywhere in an encoded frame
// must be rejected by ReadFrame — no corrupted frame ever reaches the
// matching engine. CRC-32C guarantees detection of every error burst of at
// most 32 bits, so this holds for ALL inputs, not just the ones the fuzzer
// happens to try. The one excluded window is a burst overlapping the
// payload-length field: rewriting the length changes how many bytes the
// decoder even considers, which is outside the burst theorem (those cases
// are covered deterministically in TestReadFrameRejectsCorruption and by
// FuzzReadFrame's never-panic property).
func FuzzFrameCorruption(f *testing.F) {
	f.Add([]byte("ring token"), 0, uint32(0xff))
	f.Add([]byte{}, 5, uint32(1))
	f.Add([]byte{1, 2, 3}, FrameHeaderSize, uint32(0x80000000))
	f.Fuzz(func(t *testing.T, payload []byte, off int, mask uint32) {
		if mask == 0 || len(payload) > 1<<16 {
			t.Skip()
		}
		p := &Packet{Src: 1, Dst: 2, Tag: 3, Context: 4, Seq: 99, Payload: payload, Crc: PayloadCrc(payload)}
		frame, err := AppendFrame(nil, p)
		if err != nil {
			t.Fatal(err)
		}
		if off < 0 {
			off = -off
		}
		off %= len(frame) - 3 // keep the 4-byte window inside the frame
		if off < 70 && off+4 > 66 {
			t.Skip() // burst overlaps the payload-length field
		}
		var m [4]byte
		binary.LittleEndian.PutUint32(m[:], mask)
		for i := 0; i < 4; i++ {
			frame[off+i] ^= m[i]
		}
		var hdr [FrameHeaderSize]byte
		if pkt, err := ReadFrame(bytes.NewReader(frame), hdr[:]); err == nil {
			t.Fatalf("corrupted frame decoded as %+v (burst at %d, mask %#x)", pkt, off, mask)
		}
	})
}

// FuzzReadFrame throws arbitrary bytes at the decoder: it must error or
// succeed, never panic or over-allocate.
func FuzzReadFrame(f *testing.F) {
	seed, _ := AppendFrame(nil, &Packet{Src: 1, Dst: 2, Tag: 3, Payload: []byte("x")})
	f.Add(seed)
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xff}, FrameHeaderSize+4))
	f.Fuzz(func(t *testing.T, data []byte) {
		var hdr [FrameHeaderSize]byte
		_, _ = ReadFrame(bytes.NewReader(data), hdr[:])
	})
}

// --- codec micro-benchmarks ---------------------------------------------------

func benchPacket(payload int) *Packet {
	return &Packet{Src: 3, Dst: 5, Tag: 17, Context: 2, Seq: 42, Payload: make([]byte, payload)}
}

// BenchmarkFrameEncode measures the frame header encoder, the frame CRC
// over header and payload included — all the encoding the TCP fabric's
// send path does: the payload itself goes to the socket uncopied.
func BenchmarkFrameEncode(b *testing.B) {
	for _, size := range []int{16, 1024} {
		b.Run(byteSizeName(size), func(b *testing.B) {
			p := benchPacket(size)
			var hdr [FrameHeaderSize]byte
			b.SetBytes(int64(FrameHeaderSize + size))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := putFrameHeader(&hdr, p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkGobEncode measures the baseline gob encoder on the same packet
// (fresh encoder per op, matching one connection's amortized cost poorly
// but including the per-stream dictionary the wire actually pays once).
func BenchmarkGobEncode(b *testing.B) {
	for _, size := range []int{16, 1024} {
		b.Run(byteSizeName(size), func(b *testing.B) {
			p := benchPacket(size)
			var buf bytes.Buffer
			enc := gob.NewEncoder(&buf)
			b.SetBytes(int64(FrameHeaderSize + size))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				buf.Reset()
				if err := enc.Encode(p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFrameDecode measures the binary decoder against an in-memory
// stream. Nothing releases the decoded payloads, so every read takes a
// fresh buffer, as it does for a TCP consumer that keeps the bytes.
func BenchmarkFrameDecode(b *testing.B) {
	for _, size := range []int{16, 1024, 64<<10 + 16} {
		b.Run(byteSizeName(size), func(b *testing.B) {
			frame, err := AppendFrame(nil, benchPacket(size))
			if err != nil {
				b.Fatal(err)
			}
			var hdr [FrameHeaderSize]byte
			r := bytes.NewReader(frame)
			b.SetBytes(int64(len(frame)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				r.Reset(frame)
				if _, err := ReadFrame(r, hdr[:]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func byteSizeName(n int) string {
	switch {
	case n > 1024:
		return fmt.Sprintf("%dB", n)
	case n == 1024:
		return "1KiB"
	}
	return "16B"
}
