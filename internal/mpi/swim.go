package mpi

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/detector"
	"repro/internal/membership"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/trace"
)

// DetectorSwim selects SWIM-style gossip membership: each rank probes
// one randomized peer per protocol period, falls back to indirect probes
// via relays, and disseminates suspect/alive/confirm events by
// piggybacking gossip on control frames — O(1) control traffic per rank
// where the heartbeat mesh pays O(N). Suspicion feeds the same fencing
// protocol and confirm-gated registry as DetectorHeartbeat, so fail-stop
// accuracy is identical. See internal/membership.
const DetectorSwim = "swim"

// convTracker measures gossip convergence: the first origination of each
// membership event starts its clock, and every other rank's first learn
// of it records one dissemination latency sample.
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

// swimHooks maps the SWIM monitors' protocol events to metrics, traces
// and latency histograms. The convergence tracker is shared by every
// monitor and incarnation: dissemination latency is a world-level
// quantity.
func (w *World) swimHooks(fence detector.FenceHooks) membership.Hooks {
	conv := newConvTracker()
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
		FenceHooks: fence,
		GossipOrigin: func(r int, ev membership.Event) {
			w.metrics.Inc(r, metrics.GossipEvents)
			if ev.Kind == membership.EvAlive && ev.Rank == r {
				w.tracer.Record(r, trace.Refuted, -1, -1, -1,
					fmt.Sprintf("incarnation %d", ev.Inc))
			}
			conv.origin(ev)
		},
		GossipLearn: func(r int, ev membership.Event) {
			w.metrics.Inc(r, metrics.GossipLearns)
			if lat, ok := conv.learn(r, ev); ok {
				w.obs.Observe(r, obs.GossipConvergence, lat)
			}
		},
		DecodeError: func(r int) {
			w.metrics.Inc(r, metrics.GossipDecodeErrors)
		},
	}
}
