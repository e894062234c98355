// Package core implements the paper's contribution: the fault-tolerant
// ring application of "Building a Fault Tolerant MPI Application: A Ring
// Communication Example" (Hursey & Graham, 2011), in every variant the
// paper discusses:
//
//   - the traditional fault-unaware ring (Fig. 2);
//   - the naive fault-"tolerant" receive that mirrors the send-side
//     failover and deadlocks (Fig. 6);
//   - the Irecv-as-failure-detector receive (Fig. 9) with and without the
//     iteration-marker duplicate suppression of Figs. 3/10 (the without
//     case reproduces the Fig. 8 duplicate-completion bug);
//   - the separate-resend-tag alternative sketched in Section III-B;
//   - both termination-detection protocols: root broadcast (Fig. 11) and
//     non-blocking validate_all (Fig. 13);
//   - both root policies: abort on root failure, or elect a new root
//     (Fig. 12) which regains control of the iteration space
//     (Section III-D).
package core

import (
	"encoding/binary"
	"fmt"
)

// Message tags. TagRing is the paper's T_N (normal ring traffic), TagTerm
// its T_D (termination), and TagResend the extra tag of the Section III-B
// alternative duplicate-control scheme.
const (
	TagRing   = 1
	TagTerm   = 2
	TagResend = 3
)

// Message is the ring buffer: the accumulated value plus the iteration
// marker of Fig. 3 ("struct ring_msg_t {int value; int marker}"),
// followed by optional padding so benchmarks can sweep message sizes.
type Message struct {
	Value  int64
	Marker int64
}

const msgHeaderLen = 16

// Encode serializes the message with pad extra payload bytes.
func (m Message) Encode(pad int) []byte { return m.encode(nil, pad) }

// encode serializes into buf's storage when it is large enough. Only the
// header is written, so padding a reused buffer keeps its zeroes as long as
// pad does not change.
func (m Message) encode(buf []byte, pad int) []byte {
	if cap(buf) < msgHeaderLen+pad {
		buf = make([]byte, msgHeaderLen+pad)
	}
	buf = buf[:msgHeaderLen+pad]
	binary.LittleEndian.PutUint64(buf[0:], uint64(m.Value))
	binary.LittleEndian.PutUint64(buf[8:], uint64(m.Marker))
	return buf
}

// DecodeMessage parses a payload produced by Encode.
func DecodeMessage(b []byte) (Message, error) {
	if len(b) < msgHeaderLen {
		return Message{}, fmt.Errorf("core: ring message too short (%d bytes)", len(b))
	}
	return Message{
		Value:  int64(binary.LittleEndian.Uint64(b[0:])),
		Marker: int64(binary.LittleEndian.Uint64(b[8:])),
	}, nil
}
