package detector

import "fmt"

// ControlOp enumerates the failure-detection control-plane operations
// carried in transport.KindControl packets (op in Tag, the protocol
// sequence in Seq, the SWIM gossip envelope as payload).
type ControlOp int

const (
	// OpFence orders a suspected rank to fail-stop.
	OpFence ControlOp = iota + 1
	// OpFenceAck is sent by a fenced rank strictly AFTER it has killed
	// itself: receipt proves ground-truth death.
	OpFenceAck
	// OpProbe is a SWIM-style liveness probe (direct, or relayed on
	// behalf of the origin rank named in the gossip envelope).
	OpProbe
	// OpProbeAck acknowledges a probe; relays forward it to the origin.
	// The prober uses the ack stream to judge whether its own traffic is
	// getting through (self-fencing).
	OpProbeAck
	// OpProbeReq asks a relay to probe the envelope's target indirectly.
	OpProbeReq
)

// String returns the control-op name.
func (op ControlOp) String() string {
	switch op {
	case OpFence:
		return "fence"
	case OpFenceAck:
		return "fence-ack"
	case OpProbe:
		return "probe"
	case OpProbeAck:
		return "probe-ack"
	case OpProbeReq:
		return "probe-req"
	default:
		return fmt.Sprintf("ControlOp(%d)", int(op))
	}
}
