package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math/bits"
	"sync"
	"sync/atomic"
	"unsafe"
)

// Binary wire format for the TCP fabric (CodecBinary).
//
// Every packet is one frame: a fixed 74-byte little-endian header followed
// by the raw payload bytes. The header carries every Packet field plus the
// payload length, so a frame is self-delimiting and decodable with exactly
// two reads (header, payload) into caller-provided buffers — no reflection
// and no per-message type dictionaries, which is what makes it ~an order
// of magnitude cheaper than the gob stream it replaces. Version 3 added
// the two generation stamps for elastic worlds (src gen, dst gen) so
// stale-incarnation fencing survives a real wire, not just the in-memory
// fabric. Version 4 added the replication stamps (rep seq, rep epoch) so
// fan-out dedup survives a real wire too. Version 5 added the causal
// tracing stamps: the sender's hybrid-logical-clock timestamp and the
// origin token that identifies one message across every rank that
// touches it (see internal/trace and Packet.Token).
//
//	offset size field
//	0      4    magic   (0x46544D50, "FTMP")
//	4      1    version (5)
//	5      1    kind
//	6      4    src     (int32)
//	10     4    dst     (int32)
//	14     4    tag     (int32)
//	18     4    context (int32)
//	22     4    src gen (uint32)
//	26     4    dst gen (uint32)
//	30     8    seq     (uint64)
//	38     4    payload crc (Packet.Crc, end-to-end; carried verbatim)
//	42     4    rep seq (uint32, replication logical-channel sequence)
//	46     4    rep epoch (uint32, sender replica-group epoch; diagnostic)
//	50     8    hlc     (uint64, sender hybrid-logical-clock stamp)
//	58     8    token   (uint64, causal origin token: rank<<48 | seq)
//	66     4    payload length (uint32)
//	70     4    frame crc (CRC-32C over header[0:70] + payload)
//	74     ...  payload
//
// Two CRCs with different jobs: the frame CRC is wire-level integrity —
// computed at encode time, verified by ReadFrame, so a frame mangled in
// flight is rejected (ErrFrameCorrupt) before any of its fields are
// trusted. The payload CRC is end-to-end — stamped by the reliability
// sublayer at the sender, carried opaquely through every fabric and codec,
// and verified just below the engine, so corruption introduced *between*
// codecs (e.g. by a buffering wrapper, or a fault-injecting fabric) is
// still caught. CRC-32C (Castagnoli) detects all burst errors up to 32
// bits, which the corruption fuzz test relies on.
const (
	// FrameHeaderSize is the fixed size of the binary frame header.
	FrameHeaderSize = 74
	// MaxFramePayload bounds a frame's payload length; decoders reject
	// larger lengths rather than trusting the wire with the allocation.
	MaxFramePayload = 1 << 27

	frameMagic   uint32 = 0x46544D50 // "FTMP"
	frameVersion byte   = 5

	// frameCrcOffset is where the frame CRC lives; it covers [0, frameCrcOffset).
	frameCrcOffset = 70
)

// crcTable is the Castagnoli polynomial table shared by both CRCs.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// PayloadCrc returns the end-to-end CRC-32C of a payload, the value the
// reliability sublayer stamps into Packet.Crc before a data packet enters
// the fabric chain and verifies on arrival. The empty payload hashes to 0,
// conveniently matching the zero value of an unchecked packet.
func PayloadCrc(b []byte) uint32 {
	if len(b) == 0 {
		return 0
	}
	return crc32.Checksum(b, crcTable)
}

// ErrFrameCorrupt reports a frame that failed header validation or whose
// frame CRC did not match its contents.
var ErrFrameCorrupt = errors.New("transport: corrupt frame")

// fitsInt32 reports whether v survives an int32 round trip.
func fitsInt32(v int) bool { return int(int32(v)) == v }

// AppendFrame appends the binary encoding of pkt (header + payload) to dst
// and returns the extended slice. It allocates only if dst lacks capacity.
// The TCP fabric does not use it: it writes the header from
// putFrameHeader and the payload in place, without building the frame.
func AppendFrame(dst []byte, pkt *Packet) ([]byte, error) {
	n := len(dst)
	dst = append(dst, make([]byte, FrameHeaderSize)...)
	if err := putFrameHeader((*[FrameHeaderSize]byte)(dst[n:]), pkt); err != nil {
		return dst[:n], err
	}
	return append(dst, pkt.Payload...), nil
}

// putFrameHeader encodes the frame header of pkt into hdr, its frame CRC
// computed over the header and pkt.Payload, so that hdr followed by the
// payload is the frame AppendFrame builds.
func putFrameHeader(hdr *[FrameHeaderSize]byte, pkt *Packet) error {
	if len(pkt.Payload) > MaxFramePayload {
		return fmt.Errorf("transport: payload %d exceeds frame limit %d", len(pkt.Payload), MaxFramePayload)
	}
	if !fitsInt32(pkt.Src) || !fitsInt32(pkt.Dst) || !fitsInt32(pkt.Tag) || !fitsInt32(pkt.Context) {
		return fmt.Errorf("transport: packet field out of int32 range: %s", pkt)
	}
	binary.LittleEndian.PutUint32(hdr[0:4], frameMagic)
	hdr[4] = frameVersion
	hdr[5] = byte(pkt.Kind)
	binary.LittleEndian.PutUint32(hdr[6:10], uint32(int32(pkt.Src)))
	binary.LittleEndian.PutUint32(hdr[10:14], uint32(int32(pkt.Dst)))
	binary.LittleEndian.PutUint32(hdr[14:18], uint32(int32(pkt.Tag)))
	binary.LittleEndian.PutUint32(hdr[18:22], uint32(int32(pkt.Context)))
	binary.LittleEndian.PutUint32(hdr[22:26], pkt.SrcGen)
	binary.LittleEndian.PutUint32(hdr[26:30], pkt.DstGen)
	binary.LittleEndian.PutUint64(hdr[30:38], pkt.Seq)
	binary.LittleEndian.PutUint32(hdr[38:42], pkt.Crc)
	binary.LittleEndian.PutUint32(hdr[42:46], pkt.RepSeq)
	binary.LittleEndian.PutUint32(hdr[46:50], pkt.RepEpoch)
	binary.LittleEndian.PutUint64(hdr[50:58], pkt.HLC)
	binary.LittleEndian.PutUint64(hdr[58:66], pkt.Token)
	binary.LittleEndian.PutUint32(hdr[66:70], uint32(len(pkt.Payload)))
	fcrc := crc32.Checksum(hdr[:frameCrcOffset], crcTable)
	fcrc = crc32.Update(fcrc, crcTable, pkt.Payload)
	binary.LittleEndian.PutUint32(hdr[frameCrcOffset:FrameHeaderSize], fcrc)
	return nil
}

// ReadFrame reads one binary frame from r. hdr must be a scratch slice of
// at least FrameHeaderSize bytes (reused across calls by the read loop).
// The returned packet's payload is read into a buffer from the payload
// pool, and the packet is marked Pooled, unless the payload is empty or
// larger than maxPooledCap. Ownership passes to the caller, which may
// retain the payload indefinitely (the matching engine queues payloads on
// the unexpected list) and leave it to the garbage collector, or hand it
// back with PutPayload once nothing references it. A frame that fails its
// read or its CRC returns its buffer before returning the error.
func ReadFrame(r io.Reader, hdr []byte) (*Packet, error) {
	hdr = hdr[:FrameHeaderSize]
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, err
	}
	if binary.LittleEndian.Uint32(hdr[0:4]) != frameMagic {
		return nil, fmt.Errorf("%w: bad magic %#x", ErrFrameCorrupt, binary.LittleEndian.Uint32(hdr[0:4]))
	}
	if hdr[4] != frameVersion {
		return nil, fmt.Errorf("%w: unknown version %d", ErrFrameCorrupt, hdr[4])
	}
	if Kind(hdr[5]) >= kindEnd {
		return nil, fmt.Errorf("%w: unknown kind %d", ErrFrameCorrupt, hdr[5])
	}
	plen := binary.LittleEndian.Uint32(hdr[66:70])
	if plen > MaxFramePayload {
		return nil, fmt.Errorf("%w: payload length %d exceeds limit %d", ErrFrameCorrupt, plen, MaxFramePayload)
	}
	pkt := &Packet{
		Kind:     Kind(hdr[5]),
		Src:      int(int32(binary.LittleEndian.Uint32(hdr[6:10]))),
		Dst:      int(int32(binary.LittleEndian.Uint32(hdr[10:14]))),
		Tag:      int(int32(binary.LittleEndian.Uint32(hdr[14:18]))),
		Context:  int(int32(binary.LittleEndian.Uint32(hdr[18:22]))),
		SrcGen:   binary.LittleEndian.Uint32(hdr[22:26]),
		DstGen:   binary.LittleEndian.Uint32(hdr[26:30]),
		Seq:      binary.LittleEndian.Uint64(hdr[30:38]),
		Crc:      binary.LittleEndian.Uint32(hdr[38:42]),
		RepSeq:   binary.LittleEndian.Uint32(hdr[42:46]),
		RepEpoch: binary.LittleEndian.Uint32(hdr[46:50]),
		HLC:      binary.LittleEndian.Uint64(hdr[50:58]),
		Token:    binary.LittleEndian.Uint64(hdr[58:66]),
	}
	if plen > 0 {
		pkt.Payload, pkt.pooled = getPayload(int(plen))
		if _, err := io.ReadFull(r, pkt.Payload); err != nil {
			pkt.ReleasePayload()
			return nil, err
		}
	}
	fcrc := crc32.Checksum(hdr[:frameCrcOffset], crcTable)
	fcrc = crc32.Update(fcrc, crcTable, pkt.Payload)
	if got := binary.LittleEndian.Uint32(hdr[frameCrcOffset:FrameHeaderSize]); got != fcrc {
		pkt.ReleasePayload()
		return nil, fmt.Errorf("%w: frame crc mismatch (want %#x, got %#x)", ErrFrameCorrupt, fcrc, got)
	}
	return pkt, nil
}

// --- pooled payload buffers --------------------------------------------------
//
// The receive side reads every payload into a buffer from a size-classed
// pool and marks the packet (Packet.Pooled), so a consumer that is done
// with the bytes can hand them back (PutPayload; the ring does so through
// mpi's Request.Release) and the next frame of that size allocates
// nothing. Packet.ClonePooled, which the Latency fabric uses on the path
// to a NonRetaining inner fabric, draws from the same pool. Buffers come
// in size classes, four per power of two, from 16 B to maxPooledCap; a
// larger payload is allocated exactly and left to the garbage collector.
// The send side needs no pool: TCP.Send writes the caller's payload
// straight to the socket.
//
// The release contract is explicit: whoever takes a buffer out of a pool
// owns it and must put it back at most once, and only once nothing else
// can reference it. A buffer that is never put back is merely collected,
// so every consumer that cannot prove the last reference (the collectives,
// agreement, state transfer, a Recv that hands the bytes to its caller)
// simply does not release.

// maxPooledCap caps what is returned to the pools, so one giant message
// doesn't pin a giant buffer forever.
const maxPooledCap = 1 << maxPayloadShift

// The payload size classes: four per power of two, 16, 20, 24, 28, 32,
// 40, ... up to maxPooledCap. Rounding a payload up to its class adds
// less than a quarter (ring.tcp.large's 65 552 B frame lands in 80 KiB,
// not 128 KiB), which bounds what a read costs a consumer that never
// hands its buffer back and so allocates, and zeroes, a class on every
// frame.
const (
	minPayloadShift = 4 // the smallest class is 1<<minPayloadShift
	maxPayloadShift = 20
	payloadClasses  = 4*(maxPayloadShift-minPayloadShift) + 1
)

// classSize is the capacity of size class k.
func classSize(k int) int { return (4 + k&3) << (k>>2 + minPayloadShift - 2) }

// classOf returns the smallest size class that holds n bytes, for
// n <= maxPooledCap.
func classOf(n int) int {
	if n <= 1<<minPayloadShift {
		return 0
	}
	x := uint(n - 1)
	h := bits.Len(x) - 1     // x's top bit, at least minPayloadShift
	top := int(x >> (h - 2)) // x's top three bits, 4..7
	return 4*(h-minPayloadShift) + top - 3
}

// payloadPools holds one pool per size class. A pool stores a pointer to
// the first byte of each buffer: a pointer goes into an interface without
// allocating, so a Put costs nothing, and the class gives the capacity
// back on Get. Storing a *[]byte instead would need a heap slice header
// per Put.
var payloadPools [payloadClasses]sync.Pool

// released[k] says a buffer of class k has been put back at least once.
// Until then a Get can only miss, and a miss walks every P's share of the
// pool, so getPayload skips it: a class whose consumers never release
// costs one make per read, as it did before reads were pooled.
var released [payloadClasses]atomic.Bool

// getPayload returns a length-n slice and whether it belongs to a size
// class, i.e. may go back through PutPayload. Payloads above maxPooledCap
// are allocated exactly.
func getPayload(n int) (b []byte, pooled bool) {
	if n > maxPooledCap {
		return make([]byte, n), false
	}
	k := classOf(n)
	if released[k].Load() {
		if p, _ := payloadPools[k].Get().(*byte); p != nil {
			return unsafe.Slice(p, classSize(k))[:n], true
		}
	}
	return make([]byte, n, classSize(k)), true
}

// PutPayload hands a pooled payload back. The caller must pass only a
// buffer the pool handed out, the payload of a packet marked Pooled or of
// a ClonePooled clone, must own it and must hold the last reference to
// it: nothing may read or write it afterwards. The capacity check below
// only turns away a slice that fits no class (an outsized payload); it
// cannot tell where a slice came from.
func PutPayload(b []byte) {
	c := cap(b)
	if c == 0 || c > maxPooledCap {
		return
	}
	k := classOf(c)
	if classSize(k) != c {
		return
	}
	if !released[k].Load() {
		released[k].Store(true)
	}
	payloadPools[k].Put(unsafe.SliceData(b[:c]))
}

// ClonePooled returns a deep copy of the packet whose payload storage
// comes from the payload pool. The clone is only valid until
// ReleasePayload is called; callers must guarantee nothing retains the
// clone's payload past that point. Buffering fabrics use it on the path
// to a NonRetaining inner fabric, where the payload's lifetime provably
// ends when the inner Send returns. The clone is not marked Pooled: the
// fabric that cloned it releases it, not the receiver.
func (p *Packet) ClonePooled() *Packet {
	q := *p
	q.pooled = false
	if p.Payload != nil {
		q.Payload, _ = getPayload(len(p.Payload))
		copy(q.Payload, p.Payload)
	}
	return &q
}

// ReleasePayload returns a pooled payload to the pool and nils it. Call it
// only on a ClonePooled clone or a packet ReadFrame marked Pooled, and
// only while you own its payload: releasing a payload that is still
// referenced elsewhere is a use-after-free class bug.
func (p *Packet) ReleasePayload() {
	if p.Payload != nil {
		PutPayload(p.Payload)
		p.Payload = nil
		p.pooled = false
	}
}
