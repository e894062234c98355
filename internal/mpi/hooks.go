package mpi

import "fmt"

// HookPoint identifies an operation boundary at which the fault injector
// may act. Hooks always run on the affected rank's own goroutine, which is
// what makes failure placement deterministic: "kill rank 2 after its 3rd
// receive completes, before its next send" is exact, independent of the
// scheduler — a precision the paper's fault-injection tooling (Section
// III-E) approximates with timing.
type HookPoint int

const (
	// HookBeforeSend fires before a send is handed to the fabric. Killing
	// here means the message is never sent.
	HookBeforeSend HookPoint = iota
	// HookAfterSend fires after the fabric accepted the message. Killing
	// here leaves the message deliverable — the Figure 8 placement.
	HookAfterSend
	// HookAfterRecv fires when the application observes a successful
	// receive completion (at Wait/Waitany, or on a blocking Recv). Killing
	// here is the Figure 6/7 placement: died after receiving, before
	// forwarding.
	HookAfterRecv
	// HookCheckpoint fires at application-defined points via
	// Proc.Checkpoint(label).
	HookCheckpoint
)

// String names the hook point.
func (p HookPoint) String() string {
	switch p {
	case HookBeforeSend:
		return "before-send"
	case HookAfterSend:
		return "after-send"
	case HookAfterRecv:
		return "after-recv"
	case HookCheckpoint:
		return "checkpoint"
	default:
		return fmt.Sprintf("HookPoint(%d)", int(p))
	}
}

// HookEvent describes one operation boundary.
type HookEvent struct {
	Rank  int       // world rank executing the operation
	Point HookPoint // where in the operation
	Peer  int       // world rank of the peer (-1 for checkpoints)
	Tag   int       // message tag (0 for checkpoints)
	Label string    // checkpoint label
}

// Action is a hook's verdict.
type Action int

const (
	// ActNone continues normally.
	ActNone Action = iota
	// ActKill fail-stops the rank at this exact point.
	ActKill
)

// HookFunc observes operation boundaries and may order the rank killed.
// It must be safe for concurrent use (each rank calls it from its own
// goroutine) and must not call MPI operations.
type HookFunc func(ev HookEvent) Action

// fireHook runs the configured hook and performs the kill if requested.
// Must be called on the rank's own goroutine with no engine lock held.
// It takes the calling ENGINE, not a rank index: in replication mode the
// event's Rank is logical and several physical replicas share it, and a
// kill must fell exactly the replica that hit the hook point.
func (w *World) fireHook(e *engine, ev HookEvent) {
	if w.hook == nil {
		return
	}
	if w.hook(ev) == ActKill {
		e.die()
	}
}
