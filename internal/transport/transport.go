// Package transport carries packets between ranks.
//
// The MPI engine (internal/mpi) is transport-agnostic: it hands fully
// addressed packets to a Fabric and receives inbound packets through a
// delivery callback. Two fabrics are provided:
//
//   - Local: direct in-memory delivery (a function call into the
//     destination engine). This is the default and is what the
//     deterministic paper-scenario tests use.
//   - TCP: real loopback sockets, one listener per rank. It exercises the
//     same engine code over an actual network stack and backs the E15
//     transport-comparison experiment. Packets travel as length-prefixed
//     binary frames: a fixed 74-byte little-endian header (magic,
//     version, kind, src, dst, tag, context, srcgen, dstgen, seq,
//     payload crc, repseq, repepoch, hlc, token, payload
//     length, frame crc — see codec.go) followed by the raw payload.
//     Send encodes only the header and writes header and payload to the
//     socket in one non-blocking gather write, without copying the
//     payload or allocating; what the socket does not take waits in a
//     per-connection backlog that a short-lived flusher drains, so Send
//     never waits on a peer. The read side fills payloads from a
//     size-classed pool, and marks them (Packet.Pooled) so that the
//     consumer that finishes with one can give it back (PutPayload).
//
// Both fabrics preserve FIFO ordering per (source, destination) pair, the
// ordering MPI guarantees per (source, tag, communicator). A Latency
// wrapper adds a configurable per-hop delay while preserving that order;
// it models a pipelined link (deadline per packet, not a serial sleep per
// packet).
//
// Buffer ownership: a fabric that implements NonRetaining promises its
// Send copies everything it needs before returning, so callers (and
// buffering wrappers like Latency) may reuse or pool-release payloads the
// moment Send returns. Local deliberately does NOT implement it — it
// hands the packet pointer straight to the destination engine, which may
// queue the payload indefinitely.
package transport

import "fmt"

// Kind classifies a packet for routing inside the destination engine.
type Kind uint8

const (
	// KindData is ordinary point-to-point traffic subject to MPI matching.
	KindData Kind = iota
	// KindAgreement is internal traffic for the fault-tolerant agreement
	// service behind MPI_Comm_validate_all. It bypasses user-level
	// matching and is routed to the per-rank agreement service.
	KindAgreement
	// KindAck is reliability-sublayer control traffic: a receiver
	// acknowledging Packet.Seq on the (Dst, Src) link. Ack packets carry no
	// payload, are never acknowledged themselves, and are consumed by the
	// reliability fabric before packets reach the engine.
	KindAck
	// KindControl is failure-detection control traffic (SWIM probes and
	// acks, fence notices and acks). The operation travels in Tag, the
	// protocol sequence in Seq and the gossip envelope in the payload.
	// Control frames bypass the reliability sublayer entirely — they ARE
	// the liveness signal, so retransmitting them would defeat their
	// purpose — and are routed to the per-rank SWIM monitor, not the
	// matching engine.
	KindControl
	// KindState is elastic-world state-recovery traffic: a respawned rank
	// requesting (and a survivor serving) an application state snapshot
	// registered via Proc.SetStateProvider. The request id travels in Tag;
	// replies carry the snapshot as payload. State frames bypass user-level
	// matching and are answered reactively at delivery.
	KindState
	// kindEnd is one past the last defined kind: ReadFrame rejects a frame
	// whose kind byte is not below it.
	kindEnd
)

// String returns a short name for the packet kind.
func (k Kind) String() string {
	switch k {
	case KindData:
		return "data"
	case KindAgreement:
		return "agreement"
	case KindAck:
		return "ack"
	case KindControl:
		return "control"
	case KindState:
		return "state"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Packet is one message on the wire. Ranks are world ranks; Context
// identifies the communicator context (point-to-point and internal
// contexts are distinct, as in MPI implementations).
//
// SrcGen and DstGen carry generation stamps for elastic worlds: the
// incarnation of the sending slot and the incarnation of the destination
// slot the sender believed it was addressing. A receiving engine rejects
// frames whose stamps do not match the current incarnations (stale
// generations), so traffic addressed to — or originated by — a dead
// incarnation can never be matched by its reincarnation. Zero means
// "unstamped" and is accepted, preserving compatibility with tooling that
// crafts packets by hand.
type Packet struct {
	Src     int
	Dst     int
	Tag     int
	Context int
	Kind    Kind
	// pooled marks a payload ReadFrame took from the payload pool: the
	// packet's owner may hand it back (PutPayload). It is in-memory only,
	// never on the wire, and sits in the padding after Kind so that Packet
	// stays 112 bytes, in the allocator's 112-byte size class (not 128).
	pooled bool
	SrcGen uint32 // generation of the sending incarnation (0 = unstamped)
	DstGen uint32 // generation of the intended destination incarnation (0 = unstamped)
	Seq    uint64 // per-(src,dst) sequence number, assigned by the reliability sublayer
	Crc    uint32 // end-to-end CRC-32C of Payload (0 = unchecked); see PayloadCrc
	// RepSeq is the replication-mode logical-channel sequence number,
	// stamped identically by every sender replica on each data message of a
	// (logical dst, context, tag) channel so receivers can drop the fan-out
	// duplicates. 0 means "unstamped" (non-replicated traffic).
	RepSeq uint32
	// RepEpoch is the sender's replica-group epoch at stamp time. It is
	// diagnostic only: dedup is by RepSeq alone, because a promoted survivor
	// continues the old sequence numbering under the new epoch.
	RepEpoch uint32
	// HLC is the sender's hybrid-logical-clock stamp at send time
	// (internal/trace.HLC encoding: physical µs << 12 | logical). The
	// receiving engine merges it into its own clock, so deliver stamps are
	// numerically after send stamps without synchronized clocks. Only a
	// world with a tracer or an obs registry stamps it; elsewhere it stays 0,
	// which means "unstamped".
	HLC uint64
	// Token is the causal message identity: origin physical rank << 48 |
	// per-origin sequence, assigned ONCE where a data message enters the
	// runtime and preserved verbatim across retransmits, replication
	// fan-out copies and chain forwards — every trace event on any rank
	// that touches this message carries the same token. 0 means
	// "untracked" (control/ack/agreement/state traffic).
	Token   uint64
	Payload []byte
}

// Pooled reports whether the payload came from the payload pool through
// ReadFrame, so that whoever ends up owning it may return it with
// PutPayload once nothing references it. Packets built in memory (the
// Local fabric, Clone, ClonePooled) are never marked.
func (p *Packet) Pooled() bool { return p.pooled }

// TokenBits is the per-origin sequence width of Packet.Token; the origin
// physical rank occupies the bits above it.
const TokenBits = 48

// MakeToken composes a causal token from an origin rank and sequence.
func MakeToken(origin int, seq uint64) uint64 {
	return uint64(origin)<<TokenBits | seq&(1<<TokenBits-1)
}

// TokenOrigin extracts the origin physical rank of a causal token.
func TokenOrigin(tok uint64) int { return int(tok >> TokenBits) }

// TokenSeq extracts the per-origin sequence of a causal token.
func TokenSeq(tok uint64) uint64 { return tok & (1<<TokenBits - 1) }

// Clone returns a deep copy of the packet. Fabrics that buffer packets
// (Latency, chaos) use it so callers may reuse payload buffers.
func (p *Packet) Clone() *Packet {
	q := *p
	q.pooled = false
	if p.Payload != nil {
		q.Payload = make([]byte, len(p.Payload))
		copy(q.Payload, p.Payload)
	}
	return &q
}

// String renders the packet header for traces and debugging.
func (p *Packet) String() string {
	return fmt.Sprintf("pkt{%d->%d tag=%d ctx=%d kind=%s len=%d}",
		p.Src, p.Dst, p.Tag, p.Context, p.Kind, len(p.Payload))
}

// DeliverFunc is invoked by a fabric on arrival of a packet for rank dst.
// It runs on a fabric-owned goroutine (or the sender's goroutine for the
// Local fabric) and must not block indefinitely.
type DeliverFunc func(dst int, pkt *Packet)

// NonRetaining marks a Fabric whose Send copies everything it needs
// (headers and payload) before returning. Callers may immediately reuse
// the packet and its payload, and buffering wrappers may clone through
// the payload pool (Packet.ClonePooled) and release the clone as soon as
// the inner Send returns. TCP implements it: when Send returns, the
// frame is in the kernel or copied to the connection's backlog. Local
// does not: it delivers the packet pointer into the
// destination engine, which retains the payload.
type NonRetaining interface {
	// NonRetainingSend is a marker method; it performs no action.
	NonRetainingSend()
}

// Fabric moves packets between ranks.
type Fabric interface {
	// Start wires the delivery callback. It must be called exactly once,
	// before the first Send.
	Start(deliver DeliverFunc) error
	// Send transmits the packet to pkt.Dst. Sending to a rank whose
	// endpoint has been torn down is not an error: fail-stop semantics are
	// the engine's concern, and packets to dead ranks are dropped silently
	// (as a real network would deliver them to a dead process).
	Send(pkt *Packet) error
	// Close releases fabric resources. Sends after Close are dropped.
	Close() error
}
