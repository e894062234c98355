package mpi

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/detector"
	"repro/internal/membership"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/trace"
	"repro/internal/transport"
)

// Detector mode names for Config.Detector / WithDetector.
const (
	// DetectorOracle is the default: the registry is the ground truth and
	// failure notifications fire directly from the injector's Kill (after
	// the optional NotifyDelay) — the paper's assumed perfect detector.
	DetectorOracle = "oracle"
	// DetectorSwim builds the perfect detector out of an unreliable one,
	// SWIM-style: each rank probes one randomized peer per protocol
	// period over the live fabric, falls back to indirect probes via
	// relays, and disseminates suspect/alive/confirm events by
	// piggybacking gossip on control frames — O(1) control traffic per
	// rank. A suspicion is never surfaced to the application: a fencing
	// protocol forces the suspect to fail-stop before the failure is
	// confirmed and notified. See internal/membership and
	// internal/detector/fence.go.
	DetectorSwim = "swim"
)

// ctxControl is the reserved context for failure-detection control
// traffic. Engine routing keys off transport.KindControl, not the
// context; the negative value exists so control frames are unmistakable
// in traces and can never collide with a communicator context.
const ctxControl = -2

// swimState is a world's SWIM detector. The options and hooks are kept
// because elastic respawn builds the slot's next incarnation a fresh
// monitor (the old one's pump exited at death and is not restartable).
// Every hook names the rank it fires for, so one set per world serves
// every monitor and every incarnation.
type swimState struct {
	mons  []atomic.Pointer[membership.Swim] // each slot's current monitor
	opts  membership.Options
	hooks membership.Hooks
	conv  *convTracker // nil without an obs registry
}

// initSwim switches the registry into confirm-gated mode and builds one
// SWIM monitor per slot over the world's fabric stack when mode is
// DetectorSwim; oracle mode gets none. Called from newWorldFromConfig;
// the monitors start inside Run, after the fabric is up.
func (w *World) initSwim(mode string, opts membership.Options) {
	if mode != DetectorSwim {
		return // oracle: a world without monitors pays for none of the below
	}
	w.swim = &swimState{mons: make([]atomic.Pointer[membership.Swim], w.size), opts: opts}
	if w.obs != nil {
		w.swim.conv = newConvTracker()
	}
	w.swim.hooks = w.newSwimHooks(w.swim.conv)
	w.registry.SetConfirmGate(true)
	w.registry.SubscribeSuspicion(w.onSuspicion)
	for i := range w.swim.mons {
		w.swim.mons[i].Store(w.newSwim(i))
	}
}

// newSwim builds the monitor for the slot's current incarnation.
func (w *World) newSwim(rank int) *membership.Swim {
	sw := membership.NewSwim(w.registry, rank, w.size, w.swim.opts,
		func(to int, op detector.ControlOp, seq uint64, payload []byte) {
			w.sendControl(rank, to, op, seq, payload)
		})
	sw.Hooks = w.swim.hooks
	return sw
}

// monitor returns the slot's current SWIM monitor (nil in oracle mode).
func (w *World) monitor(i int) *membership.Swim {
	if w.swim == nil {
		return nil
	}
	return w.swim.mons[i].Load()
}

// sendControl puts one failure-detection control packet on the wire. It
// enters at the top of the fabric stack: the reliability sublayer passes
// control frames through un-sequenced, and the chaos fabric subjects them
// to drops, delays and partitions — probes must take the same weather as
// the traffic whose liveness they vouch for. payload carries the SWIM
// gossip envelope.
func (w *World) sendControl(from, to int, op detector.ControlOp, seq uint64, payload []byte) {
	w.metrics.Inc(from, metrics.ControlFrames)
	_ = w.fabric.Send(&transport.Packet{
		Src: from, Dst: to, Tag: int(op), Context: ctxControl,
		Kind: transport.KindControl, Seq: seq, Payload: payload,
		// Control frames carry generation stamps like everything else, so
		// a monitor's traffic for a dead incarnation is fenced at delivery.
		SrcGen: w.genOf(from), DstGen: w.genOf(to),
	})
}

// onSuspicion maps suspicion-lifecycle events to metrics, traces and
// latency histograms. SinceDeath < 0 flags a false suspicion: the rank
// was still alive when the monitor gave up on it.
func (w *World) onSuspicion(ev detector.SuspicionEvent) {
	switch ev.Kind {
	case detector.SuspectRaised:
		w.metrics.Inc(ev.By, metrics.Suspicions)
		detail := "rank still alive (false suspicion)"
		if ev.SinceDeath >= 0 {
			detail = fmt.Sprintf("dead for %v", ev.SinceDeath.Round(time.Microsecond))
			w.obs.Observe(ev.By, obs.SuspicionLatency, ev.SinceDeath)
		} else {
			w.metrics.Inc(ev.By, metrics.FalseSuspicions)
		}
		w.tracer.Record(ev.By, trace.Suspected, ev.Rank, -1, -1, detail)
	case detector.SuspectCleared:
		w.metrics.Inc(ev.By, metrics.SuspicionsCleared)
		w.tracer.Record(ev.By, trace.SuspectCleared, ev.Rank, -1, -1, "")
	case detector.SuspectConfirmed:
		w.metrics.Inc(ev.By, metrics.Confirms)
		w.tracer.Record(ev.By, trace.Confirmed, ev.Rank, -1, -1, "")
	}
}

// startMonitors launches every slot's monitor.
func (w *World) startMonitors() {
	for i := range w.swim.mons {
		w.monitor(i).Start()
	}
}

// stopMonitors terminates the monitors before the fabric closes (no-op in
// oracle mode).
func (w *World) stopMonitors() {
	if w.swim == nil {
		return
	}
	for i := range w.swim.mons {
		w.monitor(i).Stop()
	}
}

// convTracker measures gossip convergence: the first origination of each
// membership event starts its clock, and every other rank's first learn
// of it records one dissemination latency sample. Its maps grow with
// every (event, learner) pair for the life of the world, so only a world
// with an obs registry — the one consumer of the samples — builds one.
type convTracker struct {
	mu      sync.Mutex
	origins map[membership.Event]time.Time
	seen    map[convKey]bool
}

type convKey struct {
	ev   membership.Event
	rank int
}

func newConvTracker() *convTracker {
	return &convTracker{
		origins: make(map[membership.Event]time.Time),
		seen:    make(map[convKey]bool),
	}
}

// origin records the first origination time of ev (later originators of
// the same event, e.g. concurrent confirmers, do not reset the clock).
func (c *convTracker) origin(ev membership.Event) {
	c.mu.Lock()
	if _, ok := c.origins[ev]; !ok {
		c.origins[ev] = time.Now()
	}
	c.mu.Unlock()
}

// learn returns the origination-to-learn latency the first time rank
// learns ev, and ok=false for repeats or events with no recorded origin.
func (c *convTracker) learn(rank int, ev membership.Event) (time.Duration, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	t0, ok := c.origins[ev]
	if !ok {
		return 0, false
	}
	k := convKey{ev: ev, rank: rank}
	if c.seen[k] {
		return 0, false
	}
	c.seen[k] = true
	return time.Since(t0), true
}

// newSwimHooks maps the SWIM monitors' protocol and fencing events to
// metrics, traces and latency histograms. The convergence tracker, when
// there is one, is shared by every monitor and incarnation:
// dissemination latency is a world-level quantity.
func (w *World) newSwimHooks(conv *convTracker) membership.Hooks {
	return membership.Hooks{
		ProbeSent: func(r int) { w.metrics.Inc(r, metrics.SwimProbes) },
		IndirectProbe: func(r int) {
			w.metrics.Inc(r, metrics.SwimIndirectProbes)
		},
		ProbeTimeout: func(r, target int) {
			w.metrics.Inc(r, metrics.SwimProbeTimeouts)
			w.tracer.Record(r, trace.ProbeTimeout, target, -1, -1, "")
		},
		ProbeRTT: func(r, target int, rtt time.Duration) {
			w.obs.Observe(r, obs.SwimProbeRTT, rtt)
		},
		FenceHooks: detector.FenceHooks{
			FenceSent: func(by, target int) {
				w.metrics.Inc(by, metrics.Fences)
				w.tracer.Record(by, trace.FenceSent, target, -1, -1, "")
			},
			FenceRTT: func(by, target int, rtt time.Duration) {
				w.obs.Observe(by, obs.FenceRTT, rtt)
			},
			SelfFence: func(r int) {
				w.metrics.Inc(r, metrics.SelfFences)
				w.tracer.Record(r, trace.SelfFenced, -1, -1, -1, "swim acks stale")
			},
		},
		GossipOrigin: func(r int, ev membership.Event) {
			w.metrics.Inc(r, metrics.GossipEvents)
			if ev.Kind == membership.EvAlive && ev.Rank == r {
				w.tracer.Record(r, trace.Refuted, -1, -1, -1,
					fmt.Sprintf("incarnation %d", ev.Inc))
			}
			if conv != nil {
				conv.origin(ev)
			}
		},
		GossipLearn: func(r int, ev membership.Event) {
			w.metrics.Inc(r, metrics.GossipLearns)
			if conv == nil {
				return
			}
			if lat, ok := conv.learn(r, ev); ok {
				w.obs.Observe(r, obs.GossipConvergence, lat)
			}
		},
		DecodeError: func(r int) {
			w.metrics.Inc(r, metrics.GossipDecodeErrors)
		},
	}
}
