package mpi

import (
	"encoding/binary"
	"errors"
	"math"
	"math/bits"
)

// This file is the payload codec of the runtime's own control messages:
// KindAgreement frames (agreeMsg) and Comm.Split's gather/scatter
// entries. Both are flat varint layouts written with one append into a
// right-sized slice and read back without reflection. The decoders treat
// the payload as outside input — a frame can arrive bit-flipped or
// truncated — so they reject anything that is short, over-long or out of
// range, and never size an allocation from a length prefix the remaining
// bytes could not back (every list element takes at least one byte).
//
// Agreement frame payload:
//
//	byte 0   type   agreeReq .. agreeTreePull
//	byte 1   flags  bit0 Decided, bit1 Failed present, bit2 Group present,
//	                bit3 Covered present; bits 4-7 must be zero
//	uvarint  Inst
//	uvarint  From
//	then, for each PRESENT list in the order Failed, Group, Covered:
//	uvarint  n, followed by n uvarint world ranks
//
// An absent list decodes to nil and a present list of length zero to an
// empty non-nil slice: "decided: no failures" and "no vote payload" stay
// distinct on the wire.

const (
	agreeFlagDecided uint8 = 1 << iota
	agreeFlagFailed
	agreeFlagGroup
	agreeFlagCovered
	agreeFlagsKnown = agreeFlagDecided | agreeFlagFailed | agreeFlagGroup | agreeFlagCovered
)

// wireIntMax bounds every decoded integer so the conversion to int is
// exact on 32-bit platforms too. Instance numbers and ranks are never
// negative; a negative one encodes to a value above this bound and the
// frame is rejected at the receiver instead of aliasing another value.
const wireIntMax = math.MaxInt32

var errWire = errors.New("mpi: malformed control payload")

func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// rankListLen and appendRankList size and write one PRESENT list.
func rankListLen(l []int) int {
	n := uvarintLen(uint64(len(l)))
	for _, r := range l {
		n += uvarintLen(uint64(r))
	}
	return n
}

func appendRankList(b []byte, l []int) []byte {
	b = binary.AppendUvarint(b, uint64(len(l)))
	for _, r := range l {
		b = binary.AppendUvarint(b, uint64(r))
	}
	return b
}

// lists returns the message's three rank lists in wire order; list i is
// announced by flag bit agreeFlagFailed<<i.
func (m *agreeMsg) lists() [3]*[]int { return [3]*[]int{&m.Failed, &m.Group, &m.Covered} }

// encode renders the message in the layout above.
func (m *agreeMsg) encode() []byte {
	var flags uint8
	if m.Decided {
		flags |= agreeFlagDecided
	}
	size := 2 + uvarintLen(uint64(m.Inst)) + uvarintLen(uint64(m.From))
	for i, l := range m.lists() {
		if *l != nil {
			flags |= agreeFlagFailed << i
			size += rankListLen(*l)
		}
	}
	b := append(make([]byte, 0, size), m.Type, flags)
	b = binary.AppendUvarint(b, uint64(m.Inst))
	b = binary.AppendUvarint(b, uint64(m.From))
	for _, l := range m.lists() {
		if *l != nil {
			b = appendRankList(b, *l)
		}
	}
	return b
}

// wireReader consumes varints from a payload; the first malformed field
// latches bad and every later read returns zero.
type wireReader struct {
	b   []byte
	bad bool
}

func (r *wireReader) uvarint() uint64 {
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.bad = true
		r.b = nil
		return 0
	}
	r.b = r.b[n:]
	return v
}

// int reads a non-negative integer no larger than wireIntMax.
func (r *wireReader) int() int {
	v := r.uvarint()
	if v > wireIntMax {
		r.bad = true
		return 0
	}
	return int(v)
}

// count reads a length prefix and rejects one the remaining bytes cannot
// hold at perElem bytes (the minimum) per element.
func (r *wireReader) count(perElem int) int {
	n := r.uvarint()
	if n > uint64(len(r.b)/perElem) {
		r.bad = true
		return 0
	}
	return int(n)
}

func (r *wireReader) rankList() []int {
	n := r.count(1)
	out := make([]int, n)
	for i := range out {
		out[i] = r.int()
	}
	return out
}

// finish reports whether the payload was well-formed and fully consumed.
func (r *wireReader) finish() error {
	if r.bad || len(r.b) != 0 {
		return errWire
	}
	return nil
}

// decodeAgree parses an agreement payload. The result shares no memory
// with data, so one encoded buffer can back every copy of a broadcast.
func decodeAgree(data []byte) (agreeMsg, error) {
	if len(data) < 2 || data[0] > agreeTreePull || data[1]&^agreeFlagsKnown != 0 {
		return agreeMsg{}, errWire
	}
	flags := data[1]
	r := wireReader{b: data[2:]}
	m := agreeMsg{Type: data[0], Decided: flags&agreeFlagDecided != 0}
	m.Inst = r.int()
	m.From = r.int()
	for i, l := range m.lists() {
		if flags&(agreeFlagFailed<<i) != 0 {
			*l = r.rankList()
		}
	}
	if err := r.finish(); err != nil {
		return agreeMsg{}, err
	}
	return m, nil
}

// splitEntry is one member's contribution to Comm.Split.
type splitEntry struct{ WorldRank, Color, Key int }

// zigzag maps a signed key onto the unsigned varint space (split keys may
// be negative); unzigzag inverts it.
func zigzag(k int) uint64   { return uint64(int64(k)<<1) ^ uint64(int64(k)>>63) }
func unzigzag(u uint64) int { return int(int64(u>>1) ^ -int64(u&1)) }

// encodeSplit renders entries as a count followed by, per entry, uvarint
// WorldRank, uvarint Color and zigzag uvarint Key.
func encodeSplit(entries []splitEntry) []byte {
	size := uvarintLen(uint64(len(entries)))
	for _, e := range entries {
		size += uvarintLen(uint64(e.WorldRank)) + uvarintLen(uint64(e.Color)) + uvarintLen(zigzag(e.Key))
	}
	b := binary.AppendUvarint(make([]byte, 0, size), uint64(len(entries)))
	for _, e := range entries {
		b = binary.AppendUvarint(b, uint64(e.WorldRank))
		b = binary.AppendUvarint(b, uint64(e.Color))
		b = binary.AppendUvarint(b, zigzag(e.Key))
	}
	return b
}

func decodeSplit(data []byte) ([]splitEntry, error) {
	r := wireReader{b: data}
	out := make([]splitEntry, r.count(3))
	for i := range out {
		out[i] = splitEntry{WorldRank: r.int(), Color: r.int(), Key: unzigzag(r.uvarint())}
	}
	if err := r.finish(); err != nil {
		return nil, err
	}
	return out, nil
}
