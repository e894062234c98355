package core

import (
	"fmt"
	"sync"
)

// Variant selects which receive-side design from the paper the ring uses.
type Variant int

const (
	// VariantUnaware is the traditional ring of Fig. 2: no error handling
	// at all. It only completes in failure-free worlds.
	VariantUnaware Variant = iota
	// VariantNaive mirrors the send-side failover on the receive side
	// (the rejected first attempt of Section III-A): on receive error,
	// repost to the next left neighbor — and hang when a rank dies
	// holding the buffer, as in Fig. 6.
	VariantNaive
	// VariantNoMarker uses the Fig. 9 Irecv failure detector and resend
	// path but omits the iteration-marker check (Fig. 9 lines 24-28),
	// reproducing the Fig. 8 duplicate-completion bug.
	VariantNoMarker
	// VariantSeparateTag is the Section III-B alternative: resent buffers
	// travel on a dedicated tag (a second communication context) instead
	// of relying solely on in-band markers.
	VariantSeparateTag
	// VariantFull is the paper's complete design: Fig. 3 main loop,
	// Fig. 4 neighbor selection, Fig. 5 send failover, Fig. 9 receive
	// with failure detector, Fig. 10 marker-based duplicate suppression.
	VariantFull
)

// String names the variant for tables and traces.
func (v Variant) String() string {
	switch v {
	case VariantUnaware:
		return "unaware"
	case VariantNaive:
		return "naive-recv"
	case VariantNoMarker:
		return "no-marker"
	case VariantSeparateTag:
		return "separate-tag"
	case VariantFull:
		return "full"
	default:
		return fmt.Sprintf("Variant(%d)", int(v))
	}
}

// Termination selects the termination-detection protocol (Section III-C/D).
type Termination int

const (
	// TermNone ends each rank as soon as its own iterations are done. Safe
	// only in failure-free runs; used by the overhead benchmarks.
	TermNone Termination = iota
	// TermRootBcast is Fig. 11: the root broadcasts a termination message;
	// non-roots concurrently watch their right neighbor for resends.
	TermRootBcast
	// TermValidateAll is Fig. 13: a non-blocking MPI_Icomm_validate_all
	// doubles as the termination agreement, tolerating root failure.
	TermValidateAll
)

// String names the termination mode.
func (t Termination) String() string {
	switch t {
	case TermNone:
		return "none"
	case TermRootBcast:
		return "root-bcast"
	case TermValidateAll:
		return "validate-all"
	default:
		return fmt.Sprintf("Termination(%d)", int(t))
	}
}

// RootPolicy selects the Section III-D behaviour when the root fails.
type RootPolicy int

const (
	// RootAbort aborts the application on root failure — the simplifying
	// assumption of Sections III-A through III-C.
	RootAbort RootPolicy = iota
	// RootElect elects the lowest alive rank (Fig. 12) as the new root,
	// which regains control of the iteration space (Section III-D).
	RootElect
)

// String names the root policy.
func (r RootPolicy) String() string {
	switch r {
	case RootAbort:
		return "abort"
	case RootElect:
		return "elect"
	default:
		return fmt.Sprintf("RootPolicy(%d)", int(r))
	}
}

// Config parameterizes a ring run.
type Config struct {
	// Iters is the paper's max_iter: how many times the buffer circulates.
	Iters int
	// Variant selects the receive design (default VariantFull).
	Variant Variant
	// Termination selects the termination protocol (default TermNone).
	Termination Termination
	// RootPolicy selects root-failure handling (default RootAbort).
	RootPolicy RootPolicy
	// Padding adds payload bytes to every ring message for size sweeps.
	Padding int

	// stamp and verify are seams for this package's tests: stamp may write
	// the padding of every encoded ring message before it is sent, and
	// verify checks every received ring payload before its buffer is
	// released. Nil everywhere else.
	stamp  func(msg []byte)
	verify func(pl []byte) error
}

// Stats is one rank's account of the run, used by the scenario tests and
// the experiment tables.
type Stats struct {
	// Iterations counts ring iterations this rank participated in
	// (forwards for non-roots, absorptions for the root).
	Iterations int
	// Resends counts Fig. 7-style retransmissions this rank performed.
	Resends int
	// DupsDropped counts duplicates suppressed by the marker (Fig. 10).
	DupsDropped int
	// DupsForwarded counts duplicates forwarded because the marker check
	// was disabled (Fig. 8's bug made observable).
	DupsForwarded int
	// SendFailovers counts right-neighbor replacements in FT_Send_right.
	SendFailovers int
	// RecvFailovers counts left-neighbor replacements in FT_Recv_left.
	RecvFailovers int
	// BecameRoot reports that this rank took over as root (Section III-D).
	BecameRoot bool
	// FinalRoot is the root this rank last considered current.
	FinalRoot int
	// RootValues records, per absorbed iteration marker, the value the
	// root read back — size of the alive ring in failure-free runs. It is
	// nil at a rank that never absorbed a lap.
	RootValues map[int64]int64
	// Terminated reports that the rank completed the termination protocol.
	Terminated bool
}

// Report aggregates per-rank stats for one run.
type Report struct {
	mu      sync.Mutex
	perRank []Stats
}

// NewReport creates a report sized for n ranks.
func NewReport(n int) *Report {
	return &Report{perRank: make([]Stats, n)}
}

// put stores a rank's final stats.
func (r *Report) put(rank int, s Stats) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.perRank[rank] = s
}

// Rank returns the stats recorded for one rank.
func (r *Report) Rank(rank int) Stats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.perRank[rank]
}

// Size returns the number of ranks covered by the report.
func (r *Report) Size() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.perRank)
}

// TotalIterations sums iteration participations over all ranks.
func (r *Report) TotalIterations() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, s := range r.perRank {
		n += s.Iterations
	}
	return n
}

// TotalResends sums resends over all ranks.
func (r *Report) TotalResends() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, s := range r.perRank {
		n += s.Resends
	}
	return n
}

// TotalDupsDropped sums marker-suppressed duplicates over all ranks.
func (r *Report) TotalDupsDropped() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, s := range r.perRank {
		n += s.DupsDropped
	}
	return n
}

// TotalDupsForwarded sums wrongly forwarded duplicates over all ranks.
func (r *Report) TotalDupsForwarded() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, s := range r.perRank {
		n += s.DupsForwarded
	}
	return n
}
