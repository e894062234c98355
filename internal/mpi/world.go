package mpi

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/chaos"
	"repro/internal/detector"
	"repro/internal/membership"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/reliable"
	"repro/internal/trace"
	"repro/internal/transport"
)

// Config configures a World.
//
// Construct worlds with NewWorld(size, opts...) and the functional
// options in options.go. The struct itself stays exported for callers
// that assemble a configuration positionally and feed it through an
// Option (an Option is just func(*Config)); the old NewWorldFromConfig
// constructor is gone.
type Config struct {
	// Size is the number of ranks (required, > 0).
	Size int
	// Fabric moves packets; nil selects the in-memory Local fabric.
	Fabric transport.Fabric
	// Tracer records communication events; nil disables tracing.
	Tracer *trace.Recorder
	// Metrics counts per-rank operations; nil disables counting.
	Metrics *metrics.World
	// Hook observes operation boundaries for fault injection; nil disables.
	Hook HookFunc
	// Deadline bounds Run's wall-clock time. When it expires the world is
	// torn down and Run reports ErrTimedOut together with the ranks that
	// were still running — how the harness turns the paper's Figure 6
	// deadlock into an observable, testable outcome. Zero means no limit.
	Deadline time.Duration
	// NotifyDelay delays failure notifications to surviving ranks,
	// modelling failure-detection latency. Zero delivers synchronously.
	// Oracle mode only: with the heartbeat detector, detection latency is
	// real (heartbeat timeout plus fencing), not modelled, and this field
	// is ignored.
	NotifyDelay time.Duration
	// Detector selects the failure-detection mode: DetectorOracle (the
	// default, also selected by ""), DetectorHeartbeat, or DetectorSwim.
	// See the mode constants in heartbeat.go and swim.go.
	Detector string
	// Heartbeat tunes the heartbeat monitors when Detector is
	// DetectorHeartbeat; zero fields take the detector package defaults.
	Heartbeat detector.HeartbeatOptions
	// Swim tunes the SWIM monitors when Detector is DetectorSwim; zero
	// fields take the membership package defaults.
	Swim membership.Options
	// Agreement selects the fan-out of validate_all's spanning tree:
	// AgreementCoordinator (the default, also selected by "") makes the
	// lowest alive rank the parent of every member, AgreementTree gives
	// every rank at most two children. The protocol is the same; see
	// agreement.go.
	Agreement string
	// Chaos injects seeded network faults (drop, duplication, corruption,
	// jitter, reordering, partitions) between the engines and the fabric;
	// nil disables. Setting it implies the reliability sublayer, which is
	// what lets the runtime survive the injected faults.
	Chaos *chaos.Plan
	// Reliable enables the reliability sublayer (sequence numbers, acks,
	// dedup, bounded retransmission with fail-stop escalation) even
	// without a chaos plan.
	Reliable bool
	// ReliableOptions tunes the reliability sublayer; zero fields take
	// the package defaults.
	ReliableOptions reliable.Options
	// Obs records per-rank latency histograms (send completion, receive
	// wait, validate_all, agreement rounds, elections, retry backoff,
	// chaos delay, failure-notification latency); nil disables.
	Obs *obs.Registry
	// Elastic enables elastic-world repair: dead slots may be reoccupied
	// by a new incarnation at the next generation via World.Spawn (and
	// automatically, when Elastic.AutoRespawn is set). Nil keeps the
	// classic fixed-membership semantics where death is forever.
	Elastic *ElasticOptions
	// Replication enables hot-replica mode: Size is interpreted as the
	// LOGICAL rank count and the world is expanded to Size*R physical
	// slots, each logical rank backed by R replicas with transparent
	// failover. Nil keeps the one-slot-per-rank semantics. See
	// replication.go.
	Replication *ReplicationOptions
}

// World is one MPI universe: a set of rank slots, a fabric, and the
// ground-truth failure registry. Create with NewWorld, execute with Run.
//
// A slot's identity is generation-stamped (RankID): the slice elements
// below that describe a slot's live machinery — engine, detector monitor,
// proc — are atomic pointers swapped wholesale when an elastic world
// reincarnates a dead slot at the next generation. Readers always see a
// complete incarnation, never a half-rebuilt one.
type World struct {
	size      int
	registry  *detector.Registry
	fabric    transport.Fabric
	engines   []atomic.Pointer[engine]
	procs     []atomic.Pointer[Proc]
	tracer    *trace.Recorder
	metrics   *metrics.World
	obs       *obs.Registry
	hook      HookFunc
	deadline  time.Duration
	reliable  *reliable.Fabric // non-nil when the reliability sublayer is on
	treeArity int              // validate_all tree fan-out; 0 = the whole group (AgreementCoordinator)
	elastic   *ElasticOptions
	lsize     int        // logical rank count (== size unless replicated)
	repl      *replState // replica-group state; nil outside replication mode

	// monitors holds each slot's detector monitor and newMonitor builds a
	// replacement at respawn; both are nil in oracle mode (monitor.go).
	monitors   []atomic.Pointer[monitor]
	newMonitor func(rank int) monitor

	// Causal tracing state, owned by the World (not the engine) so it
	// survives elastic reincarnation: a respawned slot inherits its
	// predecessor's hybrid logical clock (per-rank HLC monotonicity holds
	// across generations) and its token counter (a replacement never
	// reissues a dead incarnation's message identities).
	clocks  []trace.HLC
	tokSeqs []atomic.Uint64

	// nonRetaining records that the fabric copies everything it needs
	// inside Send (transport.NonRetaining), so the p2p send path may hand
	// the caller's payload to Send without a defensive copy.
	nonRetaining bool

	aborted   atomic.Bool
	abortVal  atomic.Int64
	abortCh   chan struct{} // closed on Abort; agreement, state and proc waits select on it
	abortOnce sync.Once
	startOnce sync.Once
	started   bool

	// Run-lifecycle state shared with Spawn. runMu guards every field
	// below; the invariant that makes WaitGroup reuse safe is that rank
	// goroutines decrement active under runMu strictly before calling
	// runWG.Done, so Spawn observing active > 0 under runMu may Add.
	runMu     sync.Mutex
	runFn     func(p *Proc) error
	runRes    *RunResult
	runWG     *sync.WaitGroup
	active    int
	closing   bool
	spawning  map[int]bool // slots with a Spawn in flight
	respawned int          // total reincarnations this run
	finished  []atomic.Bool

	// joinMu makes a join's revive + seed capture atomic to ranks entering
	// an agreement instance (read side, nextValidateInst). Revive
	// subscribers run under it, so they must not enter one themselves.
	joinMu sync.RWMutex
}

// eng returns the slot's current engine.
func (w *World) eng(i int) *engine { return w.engines[i].Load() }

// clockOf returns the slot's hybrid logical clock (shared across
// incarnations).
func (w *World) clockOf(i int) *trace.HLC { return &w.clocks[i] }

// stamps reports whether messages carry HLC stamps: only the tracer and
// the obs registry read them, so a world with neither skips the clock.
func (w *World) stamps() bool { return w.tracer != nil || w.obs != nil }

// nextTokenSeq issues the slot's next per-origin message sequence for
// causal-token assignment.
func (w *World) nextTokenSeq(i int) uint64 { return w.tokSeqs[i].Add(1) }

// genOf returns the generation of the slot's current incarnation.
func (w *World) genOf(i int) uint32 { return w.engines[i].Load().gen }

// NewWorld builds a world of size ranks, configured by functional
// options (WithFabric, WithTracer, WithMetrics, WithHook, WithDeadline,
// WithNotifyDelay, WithElastic, ...). The world is single-use: one Run
// per World.
func NewWorld(size int, opts ...Option) (*World, error) {
	cfg := Config{Size: size}
	for _, opt := range opts {
		if opt != nil {
			opt(&cfg)
		}
	}
	return newWorldFromConfig(cfg)
}

// newWorldFromConfig builds a world from an assembled Config.
func newWorldFromConfig(cfg Config) (*World, error) {
	if cfg.Size <= 0 {
		return nil, fmt.Errorf("%w: world size %d", ErrInvalidArg, cfg.Size)
	}
	switch cfg.Detector {
	case "", DetectorOracle, DetectorHeartbeat, DetectorSwim:
	default:
		return nil, fmt.Errorf("%w: unknown detector mode %q (want %q, %q or %q)",
			ErrInvalidArg, cfg.Detector, DetectorOracle, DetectorHeartbeat, DetectorSwim)
	}
	switch cfg.Agreement {
	case "", AgreementCoordinator, AgreementTree:
	default:
		return nil, fmt.Errorf("%w: unknown agreement mode %q (want %q or %q)",
			ErrInvalidArg, cfg.Agreement, AgreementCoordinator, AgreementTree)
	}
	lsize := cfg.Size
	if cfg.Replication != nil {
		if cfg.Replication.R < 1 || cfg.Replication.R > maxReplicas {
			return nil, fmt.Errorf("%w: replication degree %d (want 1..%d)",
				ErrInvalidArg, cfg.Replication.R, maxReplicas)
		}
		switch cfg.Replication.Mode {
		case "", ReplFanout, ReplChain:
		default:
			return nil, fmt.Errorf("%w: unknown replication mode %q (want %q or %q)",
				ErrInvalidArg, cfg.Replication.Mode, ReplFanout, ReplChain)
		}
		// Size is the logical rank count; the physical world is R times
		// larger. Everything below (registry, engines, monitors, fabric
		// delivery) is sized physically.
		cfg.Size = lsize * cfg.Replication.R
		if cfg.Replication.AutoRefill && cfg.Elastic == nil {
			// Automatic re-replication rides the elastic-world Spawn
			// machinery; enable it with defaults when the app didn't.
			cfg.Elastic = &ElasticOptions{}
		}
	}
	fabric := cfg.Fabric
	if fabric == nil {
		fabric = transport.NewLocal()
	}
	// Layer the adversarial network and its antidote over the base fabric:
	// engine -> reliable -> chaos -> base. Chaos injects faults on the way
	// down; the reliability sublayer re-sequences, deduplicates, CRC-checks
	// and retransmits on the way up, escalating dead links to fail-stop.
	var chaosFab *chaos.Fabric
	var relFab *reliable.Fabric
	if cfg.Chaos != nil {
		chaosFab = chaos.Wrap(fabric, cfg.Chaos)
		fabric = chaosFab
	}
	if cfg.Chaos != nil || cfg.Reliable {
		relFab = reliable.Wrap(fabric, cfg.ReliableOptions)
		fabric = relFab
	}
	// The reliability fabric retains packets for retransmission, so it is
	// never NonRetaining: the p2p path's defensive payload copy is exactly
	// what hands it an ownable buffer.
	_, nonRetaining := fabric.(transport.NonRetaining)
	w := &World{
		size:         cfg.Size,
		registry:     detector.New(cfg.Size),
		fabric:       fabric,
		tracer:       cfg.Tracer,
		metrics:      cfg.Metrics,
		obs:          cfg.Obs,
		hook:         cfg.Hook,
		deadline:     cfg.Deadline,
		reliable:     relFab,
		nonRetaining: nonRetaining,
		abortCh:      make(chan struct{}),
		elastic:      cfg.Elastic,
		spawning:     make(map[int]bool),
		lsize:        lsize,
		clocks:       make([]trace.HLC, cfg.Size),
		tokSeqs:      make([]atomic.Uint64, cfg.Size),
	}
	if cfg.Replication != nil {
		w.repl = newReplState(w, lsize, *cfg.Replication)
		if relFab != nil && w.repl.mode == ReplChain {
			// Tail-ack: a chain primary's hop-level ARQ ack for a fresh data
			// frame is withheld until the engine has forwarded the frame
			// down the chain (deliver releases it), so an ack never claims
			// durability the standbys don't have yet — which is what lets
			// every replica's ack double as its receipt confirmation.
			relFab.SetAckGate(func(dst int, pkt *transport.Packet) bool {
				return pkt.Kind == transport.KindData && pkt.RepSeq != 0 &&
					w.repl.isPrimary(dst)
			})
			relFab.OnAckRetire(w.chainFrameAcked)
		}
	}
	if cfg.Agreement == AgreementTree {
		w.treeArity = 2
	}
	if cfg.NotifyDelay > 0 {
		w.registry.SetNotifyDelay(cfg.NotifyDelay)
	}
	w.initMonitors(cfg.Detector, cfg.Heartbeat, cfg.Swim)
	if cfg.Obs != nil {
		w.registry.SetNotifyObserver(func(rank int, lat time.Duration) {
			w.obs.Observe(rank, obs.NotifyLatency, lat)
		})
	}
	if chaosFab != nil {
		chaosFab.Observe(w.onChaosEvent)
	}
	if relFab != nil {
		relFab.Observe(w.onReliableEvent)
		relFab.Escalate(func(peer int) { w.registry.Kill(peer) })
	}
	w.engines = make([]atomic.Pointer[engine], cfg.Size)
	w.procs = make([]atomic.Pointer[Proc], cfg.Size)
	for i := range w.engines {
		w.engines[i].Store(newEngine(w, i, 1))
	}
	return w, nil
}

// releaseChainAck releases the gate-deferred hop-level ARQ ack for a
// chain data frame delivered to dst. ReleaseAck is idempotent, so this
// is a cheap no-op when nothing was deferred (fanout mode, control
// traffic, already released).
func (w *World) releaseChainAck(dst int, pkt *transport.Packet) {
	if w.reliable != nil {
		w.reliable.ReleaseAck(pkt.Src, dst, pkt.Seq)
	}
}

// onChaosEvent maps an injected network fault to metrics counters and a
// trace event, attributed to the sending side of the link.
func (w *World) onChaosEvent(e chaos.Event) {
	var counter metrics.Counter
	var kind trace.Kind
	switch e.Kind {
	case chaos.EvDrop:
		counter, kind = metrics.FramesDropped, trace.ChaosDrop
	case chaos.EvDup:
		counter, kind = metrics.FramesDuplicated, trace.ChaosDup
	case chaos.EvCorrupt:
		counter, kind = metrics.FramesCorrupted, trace.ChaosCorrupt
	case chaos.EvDelay:
		counter, kind = metrics.FramesDelayed, trace.ChaosDelay
	case chaos.EvReorder:
		counter, kind = metrics.FramesReordered, trace.ChaosReorder
	case chaos.EvPartition:
		counter, kind = metrics.FramesDropped, trace.ChaosPartition
	default:
		return
	}
	w.metrics.Inc(e.Src, counter)
	w.tracer.RecordMsg(e.Src, kind, e.Dst, -1, -1, 0, e.Token, 0,
		fmt.Sprintf("frame=%d seq=%d", e.Frame, e.Seq))
	if e.Kind == chaos.EvDelay {
		w.obs.Observe(e.Src, obs.ChaosDelay, e.Delay)
	}
}

// onReliableEvent maps a reliability-sublayer action to metrics counters
// and a trace event. Retries and escalations are attributed to the
// sender; rejects and dedups to the receiver.
func (w *World) onReliableEvent(e reliable.Event) {
	switch e.Kind {
	case reliable.EvRetry:
		w.metrics.Inc(e.Src, metrics.FramesRetried)
		w.tracer.RecordMsg(e.Src, trace.FrameRetry, e.Dst, -1, -1, 0, e.Token, 0,
			fmt.Sprintf("seq=%d attempt=%d", e.Seq, e.Attempt))
		w.obs.Observe(e.Src, obs.RetryBackoff, e.Backoff)
	case reliable.EvReject:
		w.metrics.Inc(e.Dst, metrics.FramesRejected)
		w.tracer.RecordMsg(e.Dst, trace.FrameReject, e.Src, -1, -1, 0, e.Token, 0,
			fmt.Sprintf("seq=%d crc mismatch", e.Seq))
	case reliable.EvDedup:
		w.metrics.Inc(e.Dst, metrics.FramesDeduped)
		w.tracer.RecordMsg(e.Dst, trace.FrameDedup, e.Src, -1, -1, 0, e.Token, 0,
			fmt.Sprintf("seq=%d", e.Seq))
	case reliable.EvEscalate:
		w.metrics.Inc(e.Src, metrics.LinkEscalations)
		w.tracer.RecordMsg(e.Src, trace.LinkEscalated, e.Dst, -1, -1, 0, e.Token, 0,
			fmt.Sprintf("seq=%d retries exhausted after %d attempts", e.Seq, e.Attempt-1))
	case reliable.EvDeadDrop:
		w.tracer.RecordMsg(e.Src, trace.DeadDrop, e.Dst, -1, -1, 0, e.Token, 0,
			"dead destination")
	case reliable.EvPurged:
		w.tracer.RecordMsg(e.Src, trace.FramePurged, e.Dst, -1, -1, 0, e.Token, 0,
			fmt.Sprintf("seq=%d", e.Seq))
	}
}

// Size returns the number of PHYSICAL rank slots in the world (alive or
// failed). In replication mode this is LogicalSize()*R; the application
// sees LogicalSize() ranks.
func (w *World) Size() int { return w.size }

// Registry exposes the ground-truth failure registry (the perfect
// failure detector's backing store).
func (w *World) Registry() *detector.Registry { return w.registry }

// Tracer returns the configured event recorder (possibly nil).
func (w *World) Tracer() *trace.Recorder { return w.tracer }

// Metrics returns the configured counter table (possibly nil).
func (w *World) Metrics() *metrics.World { return w.metrics }

// Obs returns the configured latency-histogram registry (possibly nil).
func (w *World) Obs() *obs.Registry { return w.obs }

// Kill fail-stops a rank from outside (e.g. a test driver). If the rank
// is blocked in an MPI call it unwinds immediately; if it is computing,
// it unwinds at its next MPI call. Prefer hook-based kills for
// deterministic placement.
func (w *World) Kill(rank int) {
	if rank < 0 || rank >= w.size {
		panic(fmt.Sprintf("mpi: Kill(%d) out of range [0,%d)", rank, w.size))
	}
	w.registry.Kill(rank)
}

// abortCode returns the code passed to Abort.
func (w *World) abortCode() int { return int(w.abortVal.Load()) }

// abort tears the world down with the given code (MPI_Abort semantics):
// every rank unwinds at its next (or current) MPI call. Goroutines parked
// in Wait/Waitany are poked through each engine's parked list, after the
// flag is set; the other blocked waiters learn of it through the closed
// abortCh.
func (w *World) abort(code int) {
	if w.aborted.CompareAndSwap(false, true) {
		w.abortVal.Store(int64(code))
	}
	w.abortOnce.Do(func() { close(w.abortCh) })
	for i := range w.engines {
		e := w.eng(i)
		e.mu.Lock()
		e.wakeParkedLocked()
		e.mu.Unlock()
	}
	w.registry.BroadcastWaiters()
}

// RankResult reports how one rank's function ended.
type RankResult struct {
	// Err is the value returned by the rank function (nil on success).
	// Killed and aborted ranks report nil here; inspect Killed/Aborted.
	Err error
	// Killed reports the rank fail-stopped (fault injection or World.Kill).
	Killed bool
	// Aborted reports the rank unwound due to MPI_Abort or teardown.
	Aborted bool
	// Finished reports the rank function returned normally.
	Finished bool
}

// RespawnResult reports how one reincarnation of a slot ended. Each
// respawn gets its own entry — the slot's Ranks[slot] entry keeps the
// first incarnation's outcome — so outcomes of an old incarnation still
// unwinding and its replacement never race on one struct.
type RespawnResult struct {
	// Slot is the world rank the incarnation occupied.
	Slot int
	// Gen is the incarnation's generation (2 for the first respawn).
	Gen int
	RankResult
}

// RunResult aggregates a world execution.
type RunResult struct {
	// Ranks holds one result per world rank (the first incarnation).
	Ranks []RankResult
	// Respawns holds one result per reincarnation, in spawn order.
	Respawns []*RespawnResult
	// TimedOut reports that the watchdog expired — the run deadlocked or
	// overran the configured deadline.
	TimedOut bool
	// Stuck lists ranks that had neither finished nor been killed when the
	// watchdog expired: the hung processes of the paper's Figure 6.
	Stuck []int
	// AbortCode is the MPI_Abort exit code, meaningful when Aborted.
	AbortCode int
	// Aborted reports that some rank called Abort.
	Aborted bool
	// Elapsed is the wall-clock duration of the run.
	Elapsed time.Duration
}

// FirstError returns the first non-nil rank error, or nil.
func (r *RunResult) FirstError() error {
	for _, rr := range r.Ranks {
		if rr.Err != nil {
			return rr.Err
		}
	}
	return nil
}

// FinishedCount returns how many ranks returned normally.
func (r *RunResult) FinishedCount() int {
	n := 0
	for _, rr := range r.Ranks {
		if rr.Finished {
			n++
		}
	}
	return n
}

// Run executes fn on every rank concurrently and waits for the world to
// drain. It returns the per-rank outcomes; err is non-nil only for
// harness-level failures (fabric startup, deadline, abort).
func (w *World) Run(fn func(p *Proc) error) (*RunResult, error) {
	var startErr error
	w.startOnce.Do(func() {
		startErr = w.fabric.Start(func(dst int, pkt *transport.Packet) {
			if dst >= 0 && dst < w.size {
				w.eng(dst).deliver(pkt)
			}
		})
		if startErr != nil {
			return
		}
		if w.monitors != nil {
			// Monitored modes (heartbeat or SWIM): ground-truth death
			// unwinds the victim immediately — it IS dead, whatever its
			// peers believe — while the survivors' notifications wait for
			// the detection/fencing pipeline to Confirm the failure.
			w.registry.OnDeath(func(f int) {
				w.tracer.RecordMsg(f, trace.Killed, -1, -1, -1, int(w.genOf(f)), 0, 0, "fail-stop")
				w.eng(f).markDead()
			})
			w.registry.Subscribe(func(f int) {
				if w.reliable != nil {
					w.reliable.PeerDown(f)
				}
				w.notifyFailure(f)
			})
			w.startMonitors()
		} else {
			w.registry.Subscribe(func(f int) {
				w.tracer.RecordMsg(f, trace.Killed, -1, -1, -1, int(w.genOf(f)), 0, 0, "fail-stop")
				if w.reliable != nil {
					// Stop retransmitting toward the dead rank before the
					// engines learn of the failure: fail-stop, not lossy.
					w.reliable.PeerDown(f)
				}
				w.eng(f).markDead()
				w.notifyFailure(f)
			})
		}
		// Elastic worlds: every survivor learns of revivals, and (when
		// configured) a confirmed death schedules its own replacement.
		w.registry.SubscribeRevive(func(slot, gen int) {
			w.notifyRevive(slot)
		})
		if w.elastic != nil && w.elastic.AutoRespawn {
			w.registry.Subscribe(func(f int) {
				time.AfterFunc(w.elastic.RespawnDelay, func() {
					_, _ = w.Spawn(f) // refused spawns (budget/teardown) are fine
				})
			})
		}
		w.started = true
	})
	if startErr != nil {
		return nil, startErr
	}
	if !w.started {
		return nil, fmt.Errorf("%w: World.Run called twice", ErrInvalidArg)
	}
	w.started = false // consume the single use

	begin := time.Now()
	res := &RunResult{Ranks: make([]RankResult, w.size)}
	var wg sync.WaitGroup
	w.runMu.Lock()
	w.runFn = fn
	w.runRes = res
	w.runWG = &wg
	w.finished = make([]atomic.Bool, w.size)
	for rank := 0; rank < w.size; rank++ {
		wg.Add(1)
		w.active++
		w.launchRankLocked(rank, nil, &res.Ranks[rank])
	}
	w.runMu.Unlock()

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()

	if w.deadline > 0 {
		timer := time.NewTimer(w.deadline)
		defer timer.Stop()
		select {
		case <-done:
		case <-timer.C:
			res.TimedOut = true
			for rank := 0; rank < w.size; rank++ {
				if !w.finished[rank].Load() && !w.registry.Failed(rank) {
					res.Stuck = append(res.Stuck, rank)
				}
			}
			w.abort(-1) // unwind everything
			<-done
		}
	} else {
		<-done
	}

	// Teardown: refuse further respawns, wake any internal service
	// goroutines, stop the detector monitors while the fabric can still
	// carry their last acks, close the fabric, and cancel any delayed
	// failure notifications still pending in the registry (they must not
	// fire into torn-down state).
	w.runMu.Lock()
	w.closing = true
	w.runMu.Unlock()
	for i := 0; i < w.size; i++ {
		w.eng(i).markClosed()
	}
	w.registry.BroadcastWaiters()
	w.stopMonitors()
	_ = w.fabric.Close()
	w.registry.Close()

	res.Elapsed = time.Since(begin)
	if w.aborted.Load() && !res.TimedOut {
		res.Aborted = true
		res.AbortCode = w.abortCode()
		return res, &AbortError{Code: res.AbortCode}
	}
	if res.TimedOut {
		return res, ErrTimedOut
	}
	return res, nil
}
