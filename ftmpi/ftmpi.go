// Package ftmpi is the public facade of the fault-tolerant MPI runtime
// built in this repository after Hursey & Graham, "Building a Fault
// Tolerant MPI Application: A Ring Communication Example" (2011).
//
// It re-exports the stable surface of the internal packages as type
// aliases and thin constructors, so applications depend on one import:
//
//	w, _ := ftmpi.NewWorld(4, ftmpi.WithDeadline(10*time.Second))
//	res, err := w.Run(func(p *ftmpi.Proc) error {
//	    c := p.World()
//	    c.SetErrhandler(ftmpi.ErrorsReturn)
//	    if err := c.Send((p.Rank()+1)%p.Size(), 0, []byte("token")); err != nil {
//	        if ftmpi.IsRankFailStop(err) { /* route around the failure */ }
//	    }
//	    ...
//	})
//
// Everything here is an alias (not a wrapper), so values created through
// ftmpi interoperate with the internal packages and with code that still
// imports them directly. The internal packages remain importable inside
// this module; external consumers should treat ftmpi as the API.
package ftmpi

import (
	"io"
	"time"

	"repro/internal/chaos"
	"repro/internal/detector"
	"repro/internal/membership"
	"repro/internal/metrics"
	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/reliable"
	"repro/internal/trace"
	"repro/internal/transport"
)

// --- core types --------------------------------------------------------------

type (
	// World is one MPI universe: a fixed set of ranks, a fabric, and the
	// ground-truth failure registry. Create with NewWorld, execute with Run.
	World = mpi.World
	// Proc is one rank's handle to the world, passed to the rank function.
	Proc = mpi.Proc
	// Comm is a communicator: an ordered group of ranks with isolated
	// communication contexts and per-communicator failure recognition.
	Comm = mpi.Comm
	// Request is a non-blocking operation handle (Wait/Test/Cancel/Free).
	Request = mpi.Request
	// Status describes a completed operation (source, tag, payload length).
	Status = mpi.Status
	// Config is the positional World configuration; prefer NewWorld with
	// functional options.
	Config = mpi.Config
	// Option configures a World under construction (see With*).
	Option = mpi.Option
	// RunResult aggregates a world execution; RankResult is one rank's part.
	RunResult = mpi.RunResult
	// RankResult reports how one rank's function ended.
	RankResult = mpi.RankResult
	// RankInfo pairs a communicator rank with its failure-recognition state.
	RankInfo = mpi.RankInfo
	// RankState is the per-rank failure-recognition state (MPI_RANK_*).
	RankState = mpi.RankState
	// Errhandler mirrors MPI_ERRORS_ARE_FATAL / MPI_ERRORS_RETURN.
	Errhandler = mpi.Errhandler
	// RankError wraps an error with the world rank that raised it.
	RankError = mpi.RankError
	// AbortError reports an MPI_Abort with its exit code.
	AbortError = mpi.AbortError
)

// --- elastic worlds ------------------------------------------------------------

type (
	// RankID is a generation-stamped rank identity: Slot is the world
	// rank, Gen the incarnation number (1 for the original process, bumped
	// by every respawn). See Proc.ID.
	RankID = mpi.RankID
	// ElasticOptions enables elastic-world repair (see WithElastic):
	// confirmed-dead slots may be reoccupied at the next generation via
	// World.Spawn, or automatically when AutoRespawn is set.
	ElasticOptions = mpi.ElasticOptions
	// ShrinkOptions tunes Comm.ShrinkWith, the ULFM MPIX_Comm_shrink
	// analogue that derives a dense survivors-only communicator.
	ShrinkOptions = mpi.ShrinkOptions
	// RespawnResult reports how one reincarnation of a slot ended (see
	// RunResult.Respawns).
	RespawnResult = mpi.RespawnResult
)

// WithElastic enables elastic-world repair with the given options: dead
// slots become respawnable (World.Spawn), survivors observe revivals, and
// stale-generation traffic is fenced at delivery.
func WithElastic(opts ElasticOptions) Option { return mpi.WithElastic(opts) }

// --- replication --------------------------------------------------------------

// ReplicationOptions enables hot-replica fault tolerance (see
// WithReplication): every logical rank is backed by R physical replicas
// with transparent failover.
type ReplicationOptions = mpi.ReplicationOptions

// Replication propagation modes (ReplicationOptions.Mode).
const (
	// ReplFanout sends one physical copy to every live replica of the
	// destination (the default); receivers drop duplicates by sequence.
	ReplFanout = mpi.ReplFanout
	// ReplChain sends one copy to the destination's primary, which relays
	// to its standbys — cheaper uplink, but a primary dying mid-relay can
	// lose the frame for its standbys.
	ReplChain = mpi.ReplChain
)

// WithReplication enables replication mode: NewWorld's size parameter is
// interpreted as the LOGICAL rank count and the world is expanded to
// size*R physical slots. Replica deaths are absorbed by promoting a
// standby; the application observes a failure only when a logical rank's
// last replica dies.
func WithReplication(opts ReplicationOptions) Option { return mpi.WithReplication(opts) }

// --- fault injection hooks ---------------------------------------------------

type (
	// HookFunc observes operation boundaries and may order the rank killed —
	// the attachment point for deterministic fault injection.
	HookFunc = mpi.HookFunc
	// HookEvent describes one operation boundary.
	HookEvent = mpi.HookEvent
	// HookPoint identifies the boundary (before send, after recv, ...).
	HookPoint = mpi.HookPoint
	// Action is a hook's verdict (continue or fail-stop the rank).
	Action = mpi.Action
)

// --- transport and observability --------------------------------------------

type (
	// Fabric moves packets between ranks; see the New*Fabric constructors.
	Fabric = transport.Fabric
	// Packet is one message on the wire.
	Packet = transport.Packet
	// Tracer records communication events for scenario verification.
	Tracer = trace.Recorder
	// TraceEvent is one recorded event (JSONL-serializable; see
	// NewTraceJSONLWriter and ChromeTrace).
	TraceEvent = trace.Event
	// Metrics counts per-rank operations (sends, receives, agreements, ...).
	Metrics = metrics.World
	// ObsRegistry holds per-rank latency histograms for every runtime
	// family (send completion, receive wait, agreement rounds, ...).
	ObsRegistry = obs.Registry
	// ObsFamily identifies one latency histogram family.
	ObsFamily = obs.Family
	// ObsSnapshot is a consistent point-in-time view of a registry.
	ObsSnapshot = obs.Snapshot
	// ObsSource bundles the counter table and histogram registry an
	// exposition server reads from.
	ObsSource = obs.Source
	// ObsServer is a running /metrics + expvar + pprof HTTP endpoint.
	ObsServer = obs.Server
	// TraceJSONLWriter streams recorded events as line-delimited JSON
	// (see NewTraceJSONLWriter).
	TraceJSONLWriter = trace.JSONLWriter
	// TraceSpan is one message lifecycle reassembled from events sharing a
	// causal token (see AssembleTraceSpans).
	TraceSpan = trace.Span
	// TraceAuditReport is the message-conservation verdict of AuditTrace.
	TraceAuditReport = trace.AuditReport
	// TraceIncident is one recovery timeline (death -> suspect -> confirm
	// -> repair -> resume) reconstructed by TraceRecoveries.
	TraceIncident = trace.Incident
)

// --- constants ---------------------------------------------------------------

// Wildcard and null ranks (MPI_PROC_NULL, MPI_ANY_SOURCE, MPI_ANY_TAG).
const (
	ProcNull  = mpi.ProcNull
	AnySource = mpi.AnySource
	AnyTag    = mpi.AnyTag
)

// Error handlers.
const (
	ErrorsAreFatal = mpi.ErrorsAreFatal
	ErrorsReturn   = mpi.ErrorsReturn
)

// Failure-recognition states (MPI_RANK_OK / MPI_RANK_FAILED / MPI_RANK_NULL).
const (
	RankOK         = mpi.RankOK
	RankFailed     = mpi.RankFailed
	RankNull       = mpi.RankNull
	RankRecognized = mpi.RankNull // alias: recognized == MPI_RANK_NULL semantics
)

// Latency histogram families (see ObsRegistry).
const (
	ObsSendComplete   = obs.SendComplete
	ObsRecvWait       = obs.RecvWait
	ObsValidateAll    = obs.ValidateAll
	ObsAgreementRound = obs.AgreementRound
	ObsElection       = obs.Election
	ObsRetryBackoff   = obs.RetryBackoff
	ObsChaosDelay     = obs.ChaosDelay
	ObsNotifyLatency  = obs.NotifyLatency
	// ObsSuspicionLatency times ground-truth death to the first heartbeat
	// suspicion raised against the dead rank.
	ObsSuspicionLatency = obs.SuspicionLatency
	// ObsFenceRTT times a raised suspicion to its confirmed failure.
	ObsFenceRTT = obs.FenceRTT
	// ObsSwimProbeRTT times one SWIM probe transaction from launch to
	// the direct or indirect ack.
	ObsSwimProbeRTT = obs.SwimProbeRTT
	// ObsGossipConvergence times epidemic dissemination: membership-event
	// origination to each remote rank learning it via piggyback.
	ObsGossipConvergence = obs.GossipConvergence
	// ObsShrinkLatency times Comm.Shrink from entry to the dense survivor
	// communicator being ready (agreement included).
	ObsShrinkLatency = obs.ShrinkLatency
	// ObsRespawnRecovery times a slot's ground-truth death to its next
	// incarnation starting.
	ObsRespawnRecovery = obs.RespawnRecovery
	// ObsReplicaPromotion times a replica's ground-truth death to a
	// standby's promotion to primary of the logical rank.
	ObsReplicaPromotion = obs.ReplicaPromotion
	// ObsReplicationOverhead times the extra send work replication adds:
	// the fan-out copies beyond the first on each logical send.
	ObsReplicationOverhead = obs.ReplicationOverhead
	// ObsMessageE2ELatency times a data message from its origin's HLC send
	// stamp to its acceptance by the destination matching layer.
	ObsMessageE2ELatency = obs.MessageE2ELatency
	// ObsRecoveryTotal times one recovery incident end to end: ground-truth
	// death to the repair restoring service (promotion, respawn, or
	// validate_all concluding on the failure).
	ObsRecoveryTotal = obs.RecoveryTotal
)

// Failure-detection modes (see WithDetector).
const (
	// DetectorOracle is the default: failure notifications come straight
	// from the in-process ground-truth registry (the paper's assumed
	// perfect detector).
	DetectorOracle = mpi.DetectorOracle
	// DetectorHeartbeat detects failures by missed heartbeats over the
	// live fabric, with fencing preserving fail-stop accuracy.
	DetectorHeartbeat = mpi.DetectorHeartbeat
	// DetectorSwim detects failures SWIM-style: one randomized probe per
	// period with k indirect probes through relays, and membership events
	// disseminated epidemically as gossip piggybacked on control frames —
	// O(1) per-rank traffic at any world size.
	DetectorSwim = mpi.DetectorSwim
)

// Agreement topologies for validate_all (see WithAgreement).
const (
	// AgreementCoordinator funnels every vote through one coordinator —
	// the paper-faithful default.
	AgreementCoordinator = mpi.AgreementCoordinator
	// AgreementTree reduces votes up a fault-aware spanning tree over the
	// live membership — the scalable choice for large N.
	AgreementTree = mpi.AgreementTree
)

// Hook points and actions.
const (
	HookBeforeSend = mpi.HookBeforeSend
	HookAfterSend  = mpi.HookAfterSend
	HookAfterRecv  = mpi.HookAfterRecv
	HookCheckpoint = mpi.HookCheckpoint

	ActNone = mpi.ActNone
	ActKill = mpi.ActKill
)

// --- error classes -----------------------------------------------------------

var (
	// ErrRankFailStop is the MPI_ERR_RANK_FAIL_STOP error class: the peer
	// fail-stopped and its failure is not yet recognized.
	ErrRankFailStop = mpi.ErrRankFailStop
	// ErrAborted reports the world was torn down by MPI_Abort.
	ErrAborted = mpi.ErrAborted
	// ErrCancelled reports the request was cancelled before completing.
	ErrCancelled = mpi.ErrCancelled
	// ErrInvalidRank reports a rank outside the communicator.
	ErrInvalidRank = mpi.ErrInvalidRank
	// ErrInvalidArg reports an invalid argument.
	ErrInvalidArg = mpi.ErrInvalidArg
	// ErrTimedOut reports the world deadline expired (a detected deadlock).
	ErrTimedOut = mpi.ErrTimedOut
	// ErrNoDecision reports agreement shut down before deciding.
	ErrNoDecision = mpi.ErrNoDecision
	// ErrNoState reports a FetchState peer that is alive but has no state
	// provider registered.
	ErrNoState = mpi.ErrNoState
)

// IsRankFailStop reports whether err belongs to the MPI_ERR_RANK_FAIL_STOP
// class.
func IsRankFailStop(err error) bool { return mpi.IsRankFailStop(err) }

// FailedRankOf extracts the failed world rank from a fail-stop error, or -1.
func FailedRankOf(err error) int { return mpi.FailedRankOf(err) }

// --- world construction ------------------------------------------------------

// NewWorld builds a world of size ranks configured by functional options.
// The world is single-use: one Run per World.
func NewWorld(size int, opts ...Option) (*World, error) { return mpi.NewWorld(size, opts...) }

// WithFabric selects the transport; the default is the in-memory Local
// fabric.
func WithFabric(f Fabric) Option { return mpi.WithFabric(f) }

// WithTracer attaches an event recorder (see NewTracer).
func WithTracer(t *Tracer) Option { return mpi.WithTracer(t) }

// WithMetrics attaches per-rank operation counters (see NewMetrics).
func WithMetrics(m *Metrics) Option { return mpi.WithMetrics(m) }

// WithObservability attaches a latency-histogram registry (see
// NewObsRegistry); the runtime layers record send-completion, receive-wait,
// agreement, and failure-notification timings into it.
func WithObservability(r *ObsRegistry) Option { return mpi.WithObservability(r) }

// WithHook installs a fault-injection hook.
func WithHook(h HookFunc) Option { return mpi.WithHook(h) }

// WithDeadline bounds Run's wall-clock time, turning deadlocks into
// ErrTimedOut results.
func WithDeadline(d time.Duration) Option { return mpi.WithDeadline(d) }

// WithNotifyDelay delays failure notifications, modelling detection
// latency.
func WithNotifyDelay(d time.Duration) Option { return mpi.WithNotifyDelay(d) }

// WithChaos injects seeded network faults from the plan between the
// engines and the fabric; it implies the reliability sublayer, which is
// what lets the runtime run through the injected faults.
func WithChaos(plan *ChaosPlan) Option { return mpi.WithChaos(plan) }

// WithReliability enables the reliability sublayer (sequencing, acks,
// dedup, retransmission on a per-link measured timeout, escalation to
// fail-stop) without a chaos plan. Zero option fields take defaults.
func WithReliability(opts ReliableOptions) Option { return mpi.WithReliability(opts) }

// WithDetector selects the failure-detection mode: DetectorOracle (the
// default) or DetectorHeartbeat.
func WithDetector(mode string) Option { return mpi.WithDetector(mode) }

// WithHeartbeat selects the heartbeat detector and tunes its monitors;
// zero option fields take defaults.
func WithHeartbeat(opts HeartbeatOptions) Option { return mpi.WithHeartbeat(opts) }

// WithSwim selects the SWIM membership detector and tunes its monitors;
// zero option fields take defaults.
func WithSwim(opts SwimOptions) Option { return mpi.WithSwim(opts) }

// WithAgreement selects the validate_all topology: AgreementCoordinator
// (the default) or AgreementTree.
func WithAgreement(mode string) Option { return mpi.WithAgreement(mode) }

// --- request combinators -----------------------------------------------------

// Waitany blocks until one of the requests completes and returns its index
// (the paper's Figure 9/13 combinator).
func Waitany(reqs ...*Request) (int, Status, error) { return mpi.Waitany(reqs...) }

// Testany polls the requests without blocking.
func Testany(reqs ...*Request) (ok bool, idx int, st Status, err error) {
	return mpi.Testany(reqs...)
}

// Waitsome blocks until at least one request completes and drains every
// completed one.
func Waitsome(reqs ...*Request) (indices []int, sts []Status, errs []error, err error) {
	return mpi.Waitsome(reqs...)
}

// Waitall blocks until every request completes.
func Waitall(reqs ...*Request) ([]Status, error) { return mpi.Waitall(reqs...) }

// --- transport constructors --------------------------------------------------

// NewLocalFabric returns the in-memory fabric (direct delivery, the
// deterministic default).
func NewLocalFabric() Fabric { return transport.NewLocal() }

// NewTCPFabric returns a real loopback-TCP fabric for n ranks using the
// pooled binary wire codec.
func NewTCPFabric(n int) Fabric { return transport.NewTCP(n) }

// NewLatencyFabric wraps inner with a per-hop pipelined delay.
func NewLatencyFabric(inner Fabric, d time.Duration) Fabric {
	return transport.NewLatency(inner, d)
}

// --- chaos & reliability -----------------------------------------------------

type (
	// ChaosPlan is a seeded, deterministic schedule of network faults;
	// build with NewChaosPlan and pass to WithChaos.
	ChaosPlan = chaos.Plan
	// ChaosRates sets per-frame fault probabilities for one link or the
	// plan default.
	ChaosRates = chaos.Rates
	// ChaosEvent is one injected fault in the plan's replayable log.
	ChaosEvent = chaos.Event
	// ReliableOptions tunes the reliability sublayer's retransmission
	// (see WithReliability). Each link measures its own round trip and
	// retransmits after SRTT + 4*RTTVAR; RetryBase is the floor of that
	// timeout (default 600µs; 2ms until the link's first ack), RetryMax the
	// cap of the timeout and of its per-retry doubling (default 50ms), and
	// MaxRetries the retransmissions charged to one frame before the peer
	// is escalated to fail-stop (default 12; retries in a frame's first
	// 2ms are free). There is no scan interval to set: one goroutine waits
	// for the earliest deadline and is parked while nothing is
	// unacknowledged. Over a fabric that delivers inside Send (Local) a
	// lost frame is retransmitted one timeout later, to the microsecond;
	// over an asynchronous one (TCP, Latency) deadlines are kept by a
	// timer, so a loss costs the timeout rounded up to 1-2ms.
	ReliableOptions = reliable.Options
	// HeartbeatOptions tunes the heartbeat detector's monitors (see
	// WithHeartbeat): ping interval, suspicion timeout, phi threshold,
	// and the self-fence horizon.
	HeartbeatOptions = detector.HeartbeatOptions
	// SwimOptions tunes the SWIM detector's monitors (see WithSwim):
	// protocol period, probe timeout, indirect-probe fanout, suspicion
	// timeout, gossip retransmission budget, and the self-fence horizon.
	SwimOptions = membership.Options
)

// NewChaosPlan returns an empty fault plan for the seed: configure it
// with Default, Link, and Partition, then pass it to WithChaos. The same
// seed and traffic reproduce the same fault log.
func NewChaosPlan(seed int64) *ChaosPlan { return chaos.NewPlan(seed) }

// --- observability constructors ----------------------------------------------

// NewTracer returns an event recorder keeping at most limit events
// (0 = unbounded).
func NewTracer(limit int) *Tracer { return trace.New(limit) }

// NewMetrics returns a counter table for n ranks.
func NewMetrics(n int) *Metrics { return metrics.NewWorld(n) }

// NewObsRegistry returns a latency-histogram registry for n ranks; attach
// it with WithObservability and read it with Snapshot or ServeObs.
func NewObsRegistry(n int) *ObsRegistry { return obs.NewRegistry(n) }

// ServeObs starts an HTTP endpoint on addr exposing Prometheus text
// (/metrics), expvar (/debug/vars), and pprof (/debug/pprof/) for whatever
// the source callback returns at scrape time. Close the returned server to
// stop it.
func ServeObs(addr string, src func() ObsSource) (*ObsServer, error) {
	return obs.Serve(addr, src)
}

// NewTraceJSONLWriter wraps w in a line-per-event JSON encoder; attach its
// Sink to a Tracer with SetSink to stream events as they are recorded.
func NewTraceJSONLWriter(w io.Writer) *trace.JSONLWriter { return trace.NewJSONLWriter(w) }

// ReadTraceJSONL decodes a JSONL event stream written by
// NewTraceJSONLWriter.
func ReadTraceJSONL(r io.Reader) ([]TraceEvent, error) { return trace.ReadJSONL(r) }

// ChromeTrace converts recorded events to Chrome trace-event JSON (one
// lane per rank incarnation: elastic replacements and replica occupants
// get their own generation-labelled lanes), viewable at ui.perfetto.dev
// or chrome://tracing.
func ChromeTrace(events []TraceEvent) ([]byte, error) { return trace.ChromeTrace(events) }

// --- causal trace analysis ---------------------------------------------------

// AssembleTraceSpans groups events by causal token and orders each group
// by hybrid logical clock: one Span per message lifecycle, across every
// rank the message touched.
func AssembleTraceSpans(events []TraceEvent) []*TraceSpan { return trace.AssembleSpans(events) }

// AuditTrace runs the message-conservation audit: every tokened send must
// reconcile to a delivery or a deliberate, accounted loss (chaos drop,
// dedup, stale-generation fence, dead destination, purge). Anything else
// is a runtime bug.
func AuditTrace(events []TraceEvent) *TraceAuditReport { return trace.Audit(events) }

// CheckTraceCausal validates causal-clock sanity: per-rank HLC stamp
// uniqueness, send-before-deliver ordering per token, and token closure
// (every delivery has a matching send). It returns one message per
// violation, empty when the trace is causally consistent.
func CheckTraceCausal(events []TraceEvent) []string { return trace.CheckCausal(events) }

// TraceRecoveries reconstructs per-incident recovery timelines from a
// trace: for each rank death, the suspect/confirm/repair/resume anchors
// and the phase decomposition between them.
func TraceRecoveries(events []TraceEvent) []*TraceIncident { return trace.Recoveries(events) }

// SlowestTraceSpans returns the k delivered message lifecycles with the
// highest end-to-end latency, slowest first — the trace's critical
// messages.
func SlowestTraceSpans(events []TraceEvent, k int) []*TraceSpan {
	return trace.SlowestSpans(events, k)
}

// RenderTraceSpan formats one lifecycle as a per-hop table with causal
// deltas.
func RenderTraceSpan(sp *TraceSpan) string { return trace.RenderSpan(sp) }

// RenderTraceIncident formats one recovery timeline as a phase table.
func RenderTraceIncident(in *TraceIncident) string { return in.Render() }
