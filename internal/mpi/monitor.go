package mpi

import (
	"fmt"
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
	// DetectorHeartbeat builds the perfect detector out of an unreliable
	// one: ranks exchange heartbeats over the live fabric, silence raises
	// Suspected (never surfaced to the application), and a fencing
	// protocol forces the suspect to fail-stop before the failure is
	// confirmed and notified. See internal/detector (heartbeat.go, fence.go).
	DetectorHeartbeat = "heartbeat"
)

// ctxControl is the reserved context for failure-detection control
// traffic. Engine routing keys off transport.KindControl, not the
// context; the negative value exists so control frames are unmistakable
// in traces and can never collide with a communicator context.
const ctxControl = -2

// monitor is one slot's failure-detection monitor: the source of
// suspicion (heartbeat mesh or SWIM probes) plus the detector.Fencer that
// turns a suspicion into a confirmed fail-stop failure. Start and Stop
// bracket its pump, Resume(p) resets its view of peer p ahead of p's
// reincarnation, and OnControl takes the slot's inbound KindControl
// frames. The world holds one per slot in the monitored modes and none
// in oracle mode.
type monitor interface {
	Start()
	Stop()
	Resume(p int)
	OnControl(from int, op detector.ControlOp, seq uint64, payload []byte)
}

// initMonitors picks the monitor factory for the configured detector
// mode, switches the registry into confirm-gated mode and builds one
// monitor per slot over the world's fabric stack; oracle mode gets none.
// Called from newWorldFromConfig; the monitors start inside Run, after
// the fabric is up. The factory is kept: elastic respawn builds the
// slot's next incarnation a fresh monitor (the old one's pump exited at
// death and is not restartable). Every hook names the rank it fires for,
// so one set per world serves every monitor and every incarnation.
func (w *World) initMonitors(mode string, heartbeat detector.HeartbeatOptions, swim membership.Options) {
	if mode != DetectorHeartbeat && mode != DetectorSwim {
		return // oracle: a world without monitors pays for none of the below
	}
	sender := func(rank int) detector.SendFunc {
		return func(to int, op detector.ControlOp, seq uint64, payload []byte) {
			w.sendControl(rank, to, op, seq, payload)
		}
	}
	fence := detector.FenceHooks{
		FenceSent: func(by, target int) {
			w.metrics.Inc(by, metrics.Fences)
			w.tracer.Record(by, trace.FenceSent, target, -1, -1, "")
		},
		FenceRTT: func(by, target int, rtt time.Duration) {
			w.obs.Observe(by, obs.FenceRTT, rtt)
		},
		SelfFence: func(r int) {
			w.metrics.Inc(r, metrics.SelfFences)
			w.tracer.Record(r, trace.SelfFenced, -1, -1, -1, mode+" acks stale")
		},
	}
	switch mode {
	case DetectorHeartbeat:
		hooks := detector.HeartbeatHooks{
			Ping:       func(r int) { w.metrics.Inc(r, metrics.Heartbeats) },
			FenceHooks: fence,
		}
		w.newMonitor = func(rank int) monitor {
			hb := detector.NewHeartbeat(w.registry, rank, w.size, heartbeat, sender(rank))
			hb.Hooks = hooks
			return hb
		}
	case DetectorSwim:
		hooks := w.swimHooks(fence)
		w.newMonitor = func(rank int) monitor {
			sw := membership.NewSwim(w.registry, rank, w.size, swim, sender(rank))
			sw.Hooks = hooks
			return sw
		}
	}
	w.registry.SetConfirmGate(true)
	w.registry.SubscribeSuspicion(w.onSuspicion)
	w.monitors = make([]atomic.Pointer[monitor], w.size)
	for i := range w.monitors {
		w.setMonitor(i, w.newMonitor(i))
	}
}

// monAt returns the slot's current monitor (nil in oracle mode).
func (w *World) monAt(i int) monitor {
	if w.monitors == nil {
		return nil
	}
	return *w.monitors[i].Load()
}

// setMonitor installs the slot's monitor.
func (w *World) setMonitor(i int, m monitor) { w.monitors[i].Store(&m) }

// sendControl puts one failure-detection control packet on the wire. It
// enters at the top of the fabric stack: the reliability sublayer passes
// control frames through un-sequenced, and the chaos fabric subjects them
// to drops, delays and partitions — heartbeats must take the same weather
// as the traffic whose liveness they vouch for. payload carries the SWIM
// gossip envelope and is nil for heartbeat-mode frames.
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

// startMonitors launches every slot's monitor (no-op in oracle mode).
func (w *World) startMonitors() {
	for i := range w.monitors {
		w.monAt(i).Start()
	}
}

// stopMonitors terminates the monitors before the fabric closes.
func (w *World) stopMonitors() {
	for i := range w.monitors {
		w.monAt(i).Stop()
	}
}
