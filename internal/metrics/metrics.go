// Package metrics collects per-rank operation counters for the
// quantitative experiments (EXPERIMENTS.md). Counters are cheap atomic
// increments so they can stay enabled in benchmarks, and a nil *World is
// valid everywhere and counts nothing.
package metrics

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
	"text/tabwriter"
)

// Counter enumerates the tracked per-rank quantities.
type Counter int

const (
	// Sends counts point-to-point sends handed to the fabric.
	Sends Counter = iota
	// Recvs counts successfully completed receives.
	Recvs
	// BytesSent counts payload bytes handed to the fabric.
	BytesSent
	// BytesRecv counts payload bytes delivered to completed receives.
	BytesRecv
	// Errors counts MPI operations that returned an error.
	Errors
	// Resends counts application-level retransmissions (Fig. 7 recovery).
	Resends
	// DupsDropped counts duplicates suppressed by iteration markers (Fig. 10).
	DupsDropped
	// DupsForwarded counts duplicates forwarded because markers were off (Fig. 8).
	DupsForwarded
	// Iterations counts completed ring iterations.
	Iterations
	// Validates counts completed MPI_Comm_validate_all operations.
	Validates
	// AgreementMsgs counts internal consensus protocol messages.
	AgreementMsgs
	// Elections counts leader-election rounds performed.
	Elections
	// NeighborScans counts fault-aware neighbor recomputations (Fig. 4 loops).
	NeighborScans
	// FramesDropped counts frames the chaos fabric dropped (including
	// frames eaten by a scheduled link partition).
	FramesDropped
	// FramesDuplicated counts frames the chaos fabric sent twice.
	FramesDuplicated
	// FramesCorrupted counts frames whose payload the chaos fabric bit-flipped.
	FramesCorrupted
	// FramesDelayed counts frames the chaos fabric held for delay jitter.
	FramesDelayed
	// FramesReordered counts frames the chaos fabric delivered out of order.
	FramesReordered
	// FramesRetried counts reliability-sublayer retransmissions.
	FramesRetried
	// FramesRejected counts frames the reliability sublayer rejected for an
	// end-to-end payload CRC mismatch (corruption above the wire codec).
	FramesRejected
	// FramesDeduped counts duplicate frames suppressed by receiver-side
	// sequence tracking before they could reach the matching engine.
	FramesDeduped
	// LinkEscalations counts links whose retry budget was exhausted,
	// demoting the peer to fail-stop via the detector.
	LinkEscalations
	// Suspicions counts suspicions raised by each rank's monitor.
	Suspicions
	// FalseSuspicions counts suspicions raised against ranks that were
	// still alive at the time (chaos delay or partition induced).
	FalseSuspicions
	// SuspicionsCleared counts suspicions withdrawn when late alive
	// evidence arrived before the fence completed.
	SuspicionsCleared
	// Fences counts fence notices sent (including resends).
	Fences
	// SelfFences counts ranks that fenced themselves on stale acks.
	SelfFences
	// Confirms counts suspected ranks confirmed dead by each observer.
	Confirms
	// ControlFrames counts every failure-detection control frame sent
	// (probes, relay requests, acks, fences) — the quantity SWIM keeps
	// O(1) per rank per protocol period.
	ControlFrames
	// SwimProbes counts direct SWIM probes launched.
	SwimProbes
	// SwimIndirectProbes counts indirect probe requests sent to relays.
	SwimIndirectProbes
	// SwimProbeTimeouts counts probe transactions that expired unanswered
	// (the target became a suspect).
	SwimProbeTimeouts
	// GossipEvents counts membership events this rank originated into the
	// gossip stream (suspicions, refutations, confirmations).
	GossipEvents
	// GossipLearns counts membership events first learned from a
	// piggybacked envelope.
	GossipLearns
	// GossipDecodeErrors counts control payloads dropped because they
	// failed to decode (chaos corruption).
	GossipDecodeErrors
	// Respawns counts dead slots reincarnated at a new generation.
	Respawns
	// Shrinks counts Comm.Shrink operations completed.
	Shrinks
	// StaleGenRejected counts frames rejected by the engine's generation
	// fence: traffic stamped for (or by) a dead incarnation of a slot.
	StaleGenRejected
	// ReplicaSends counts the copies a sender group puts on the wire
	// beyond the one a non-replicated send costs: every standby's copy to
	// its mirror, and the primary's copies to destination replicas whose
	// mirror sender is gone — the wire amplification of replication mode.
	// A failure-free run counts R-1 per logical send.
	ReplicaSends
	// ReplicaPromotions counts standby replicas promoted to primary after
	// the death of a group member (transparent failover events).
	ReplicaPromotions
	// ReplicaDedupDrops counts replicated copies suppressed by the
	// receiver's replication-sequence tracking: a replay or an orphan copy
	// of a message the replica already holds. A failure-free run has none.
	ReplicaDedupDrops
	// ReplicaRefills counts replica-group slots automatically respawned by
	// the world after a detector confirm dropped the group below R
	// (re-replication events, as opposed to app-requested Spawns).
	ReplicaRefills
	// ChainResends counts outbox entries the primary replayed to a
	// destination replica whose mirror sender died before that replica
	// confirmed them — the tail-ack protocol's repair action.
	ChainResends
	// ChainAcks counts replica receipt confirmations (ARQ acks of
	// replicated data frames) retired in the sender group's outboxes,
	// attributed to the confirming replica: R per failure-free logical
	// send.
	ChainAcks
	numCounters
)

var counterNames = [numCounters]string{
	"sends", "recvs", "bytes_sent", "bytes_recv", "errors", "resends",
	"dups_dropped", "dups_forwarded", "iterations", "validates",
	"agreement_msgs", "elections", "neighbor_scans",
	"frames_dropped", "frames_duplicated", "frames_corrupted",
	"frames_delayed", "frames_reordered", "frames_retried",
	"frames_rejected", "frames_deduped", "link_escalations",
	"suspicions", "false_suspicions", "suspicions_cleared",
	"fences", "self_fences", "confirms",
	"control_frames", "swim_probes", "swim_indirect_probes",
	"swim_probe_timeouts", "gossip_events", "gossip_learns",
	"gossip_decode_errors", "respawns", "shrinks", "stale_gen_rejected",
	"replica_sends", "replica_promotions", "replica_dedup_drops",
	"replica_refills", "chain_resends", "chain_acks",
}

// String returns the counter's table-column name.
func (c Counter) String() string {
	if c >= 0 && c < numCounters {
		return counterNames[c]
	}
	return fmt.Sprintf("counter(%d)", int(c))
}

// Counters returns all counter identifiers in column order.
func Counters() []Counter {
	out := make([]Counter, numCounters)
	for i := range out {
		out[i] = Counter(i)
	}
	return out
}

// World holds counters for every rank of one run.
type World struct {
	n     int
	cells []atomic.Int64 // n * numCounters
}

// NewWorld creates a counter table for n ranks.
func NewWorld(n int) *World {
	if n <= 0 {
		panic(fmt.Sprintf("metrics: world size must be positive, got %d", n))
	}
	return &World{n: n, cells: make([]atomic.Int64, n*int(numCounters))}
}

// Add increments counter c for rank by delta. A nil world is a no-op.
func (w *World) Add(rank int, c Counter, delta int64) {
	if w == nil {
		return
	}
	if rank < 0 || rank >= w.n || c < 0 || c >= numCounters {
		return
	}
	w.cells[rank*int(numCounters)+int(c)].Add(delta)
}

// Inc increments counter c for rank by one.
func (w *World) Inc(rank int, c Counter) { w.Add(rank, c, 1) }

// Get returns the value of counter c for rank.
func (w *World) Get(rank int, c Counter) int64 {
	if w == nil || rank < 0 || rank >= w.n || c < 0 || c >= numCounters {
		return 0
	}
	return w.cells[rank*int(numCounters)+int(c)].Load()
}

// Total returns the sum of counter c over all ranks.
func (w *World) Total(c Counter) int64 {
	if w == nil {
		return 0
	}
	var sum int64
	for rank := 0; rank < w.n; rank++ {
		sum += w.Get(rank, c)
	}
	return sum
}

// Size returns the number of ranks tracked.
func (w *World) Size() int {
	if w == nil {
		return 0
	}
	return w.n
}

// Snapshot returns a copy of all counters as [rank][counter].
func (w *World) Snapshot() [][]int64 {
	if w == nil {
		return nil
	}
	out := make([][]int64, w.n)
	for rank := range out {
		row := make([]int64, numCounters)
		for c := range row {
			row[c] = w.Get(rank, Counter(c))
		}
		out[rank] = row
	}
	return out
}

// Render formats a per-rank table of the non-zero counters plus a totals
// row, in the style of the ftbench output tables.
func (w *World) Render() string {
	if w == nil {
		return ""
	}
	snap := w.Snapshot()
	// Choose columns that are non-zero somewhere, to keep tables readable.
	var cols []Counter
	for c := Counter(0); c < numCounters; c++ {
		nonzero := false
		for rank := range snap {
			if snap[rank][c] != 0 {
				nonzero = true
				break
			}
		}
		if nonzero {
			cols = append(cols, c)
		}
	}
	sort.Slice(cols, func(i, j int) bool { return cols[i] < cols[j] })

	var b strings.Builder
	tw := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	fmt.Fprint(tw, "rank")
	for _, c := range cols {
		fmt.Fprintf(tw, "\t%s", c)
	}
	fmt.Fprintln(tw)
	for rank := range snap {
		fmt.Fprintf(tw, "%d", rank)
		for _, c := range cols {
			fmt.Fprintf(tw, "\t%d", snap[rank][c])
		}
		fmt.Fprintln(tw)
	}
	fmt.Fprint(tw, "total")
	for _, c := range cols {
		fmt.Fprintf(tw, "\t%d", w.Total(c))
	}
	fmt.Fprintln(tw)
	_ = tw.Flush()
	return b.String()
}
