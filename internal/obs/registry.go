package obs

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// Family identifies one latency histogram family. Every family is
// recorded per rank and rendered merged; the set mirrors the recovery
// paths of the runtime layers (engine, reliability, chaos, detector,
// application protocols).
type Family int

const (
	// SendComplete times a send from hand-off to fabric acceptance
	// (eager-send completion, including reliability stamping and chaos
	// passage).
	SendComplete Family = iota
	// RecvWait times a blocking receive wait from post to completion.
	RecvWait
	// ValidateAll times one MPI_Comm_validate_all call end to end.
	ValidateAll
	// AgreementRound times one agreement at the root that decides it
	// (entry -> decision).
	AgreementRound
	// Election times one leader-election convergence (LowestAlive scan or
	// Chang-Roberts token circulation).
	Election
	// RetryBackoff records the backoff applied before each reliability
	//-sublayer retransmission.
	RetryBackoff
	// ChaosDelay records the delay jitter the chaos fabric injected.
	ChaosDelay
	// NotifyLatency times failure detection: Registry.Kill to subscriber
	// notification delivery.
	NotifyLatency
	// SuspicionLatency times SWIM detection: ground-truth death to
	// the first suspicion raised against the dead rank.
	SuspicionLatency
	// FenceRTT times the fencing protocol: suspicion raised to the
	// observer confirming the failure (fence ack received, or ground-truth
	// death observed by the fence resend loop — whichever wins).
	FenceRTT
	// SwimProbeRTT times one SWIM probe transaction from launch to
	// acknowledgment (direct, or via an indirect relay).
	SwimProbeRTT
	// GossipConvergence times epidemic dissemination: event origination
	// to each other rank first learning it from a piggybacked envelope.
	GossipConvergence
	// ShrinkLatency times one Comm.Shrink end to end: the agreement on the
	// failure set plus construction of the dense survivor communicator.
	ShrinkLatency
	// RespawnRecovery times elastic-world healing: a slot's ground-truth
	// death to its reincarnation rejoining the world at the next
	// generation.
	RespawnRecovery
	// ReplicaPromotion times transparent failover in replication mode: a
	// replica's ground-truth death to a surviving standby taking over as
	// primary of the logical rank.
	ReplicaPromotion
	// ReplicationOverhead times the extra fabric work a replicated send
	// pays beyond its first physical copy (a standby's send to its mirror,
	// and the primary's copies to orphaned replicas: the failure-free
	// price of replication is the standbys' sends).
	ReplicationOverhead
	// MessageE2ELatency times one data message from its origin's send
	// stamp to its acceptance by the destination matching layer, computed
	// from the hybrid-logical-clock physical components carried in the v5
	// frame header — the per-message causal latency the tracing layer
	// measures.
	MessageE2ELatency
	// RecoveryTotal times one complete recovery incident: a rank's
	// ground-truth death to the repair action restoring service (replica
	// promotion, elastic respawn, or validate_all completing after a
	// recognized failure) — the end-to-end timeline traceconv -recovery
	// decomposes into phases.
	RecoveryTotal
	// RereplicationLatency times automatic re-replication: a replica's
	// detector-confirmed death to the world's Spawn-driven refill restoring
	// the group member at the next generation (no app Spawn involved).
	RereplicationLatency
	numFamilies
)

var familyNames = [numFamilies]string{
	"send_complete", "recv_wait", "validate_all", "agreement_round",
	"election", "retry_backoff", "chaos_delay", "notify_latency",
	"suspicion_latency", "fence_rtt", "swim_probe_rtt", "gossip_convergence",
	"shrink_latency", "respawn_recovery", "replica_promotion",
	"replication_overhead", "message_e2e_latency", "recovery_total",
	"rereplication_latency",
}

// String returns the family's exposition name (the Prometheus metric is
// "ftmpi_<name>_seconds").
func (f Family) String() string {
	if f >= 0 && f < numFamilies {
		return familyNames[f]
	}
	return fmt.Sprintf("family(%d)", int(f))
}

// Families returns all family identifiers in exposition order.
func Families() []Family {
	out := make([]Family, numFamilies)
	for i := range out {
		out[i] = Family(i)
	}
	return out
}

// Registry holds one histogram per (family, rank) for one run. Create
// with NewRegistry; a nil *Registry observes nothing, so observability
// can be disabled without branching at every call site.
type Registry struct {
	n     int
	hists [numFamilies][]Hist
}

// NewRegistry creates a histogram registry for n ranks.
func NewRegistry(n int) *Registry {
	if n <= 0 {
		panic(fmt.Sprintf("obs: registry size must be positive, got %d", n))
	}
	r := &Registry{n: n}
	for f := range r.hists {
		r.hists[f] = make([]Hist, n)
	}
	return r
}

// Size returns the number of ranks tracked (0 for a nil registry).
func (r *Registry) Size() int {
	if r == nil {
		return 0
	}
	return r.n
}

// Observe records one duration for the given family and rank. Nil
// registries and out-of-range arguments are ignored.
func (r *Registry) Observe(rank int, f Family, d time.Duration) {
	if r == nil || rank < 0 || rank >= r.n || f < 0 || f >= numFamilies {
		return
	}
	r.hists[f][rank].Observe(d)
}

// Hist returns the live histogram for (family, rank), or nil when out of
// range — which is itself a valid no-op histogram.
func (r *Registry) Hist(f Family, rank int) *Hist {
	if r == nil || rank < 0 || rank >= r.n || f < 0 || f >= numFamilies {
		return nil
	}
	return &r.hists[f][rank]
}

// Merged returns the family's histogram merged over all ranks.
func (r *Registry) Merged(f Family) HistSnapshot {
	var out HistSnapshot
	if r == nil || f < 0 || f >= numFamilies {
		return out
	}
	for rank := 0; rank < r.n; rank++ {
		out = out.Merge(r.hists[f][rank].Snapshot())
	}
	return out
}

// FamilySnapshot is one family's state: per-rank histograms plus the
// cross-rank merge.
type FamilySnapshot struct {
	Family  Family
	Merged  HistSnapshot
	PerRank []HistSnapshot
}

// Snapshot captures every family of the registry. The result is
// self-contained (no references into the live registry) and mergeable
// per family via HistSnapshot.Merge.
type Snapshot struct {
	Ranks    int
	Families []FamilySnapshot
}

// Snapshot captures all families. A nil registry yields a zero snapshot.
func (r *Registry) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	s := Snapshot{Ranks: r.n, Families: make([]FamilySnapshot, numFamilies)}
	for f := 0; f < int(numFamilies); f++ {
		fs := FamilySnapshot{Family: Family(f), PerRank: make([]HistSnapshot, r.n)}
		for rank := 0; rank < r.n; rank++ {
			fs.PerRank[rank] = r.hists[f][rank].Snapshot()
			fs.Merged = fs.Merged.Merge(fs.PerRank[rank])
		}
		s.Families[f] = fs
	}
	return s
}

// Family returns the snapshot of one family (zero value when absent).
func (s Snapshot) Family(f Family) FamilySnapshot {
	for _, fs := range s.Families {
		if fs.Family == f {
			return fs
		}
	}
	return FamilySnapshot{Family: f}
}

// Render formats the non-empty families as quantile rows, the per-rank
// latency complement to metrics.World.Render.
func (s Snapshot) Render() string {
	var b strings.Builder
	fams := make([]FamilySnapshot, 0, len(s.Families))
	for _, fs := range s.Families {
		if fs.Merged.Count > 0 {
			fams = append(fams, fs)
		}
	}
	sort.Slice(fams, func(i, j int) bool { return fams[i].Family < fams[j].Family })
	for _, fs := range fams {
		fmt.Fprintf(&b, "%-16s %s\n", fs.Family, fs.Merged)
	}
	return b.String()
}
