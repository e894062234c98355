package workload

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/detector"
	"repro/internal/membership"
	"repro/internal/metrics"
	"repro/internal/mpi"
)

// swimSoakPeriod is the protocol period shared by every E20 world; the
// heartbeat baseline uses it as its ping interval so "frames per rank
// per period" means the same wall-clock budget in both rows.
const swimSoakPeriod = 16 * time.Millisecond

// swimSoakOptions is the SWIM tuning for the E20 soak.
func swimSoakOptions() membership.Options {
	return membership.Options{
		Period:         swimSoakPeriod,
		SelfFenceAfter: 5 * time.Second,
		Seed:           7,
	}
}

// swimSoakBaseline is the heartbeat-mesh tuning the swim rows are judged
// against, at the same protocol period.
func swimSoakBaseline() detector.HeartbeatOptions {
	return detector.HeartbeatOptions{
		Interval:       swimSoakPeriod,
		Timeout:        3 * swimSoakPeriod,
		SelfFenceAfter: 5 * time.Second,
	}
}

// swimFramesPerRankPeriodMax is the in-test O(1) bound on swim control
// traffic: one probe, roughly one ack, the occasional indirect relay and
// fence — per rank per protocol period, independent of world size. The
// mesh baseline pays N-1 pings per interval and exists in the table to
// show exactly that contrast.
const swimFramesPerRankPeriodMax = 8.0

// swimDetectFloor is the absolute detection-latency ceiling used when
// the mesh baseline is itself fast: swim p99 must stay under
// max(2 x mesh p99, floor) at EVERY world size — a bound independent of
// N is what "flat vs N" means operationally. The floor is generous
// because the large worlds run thousands of probe loops on however few
// cores CI has: measured detection at N=4096 is ~170ms alone but
// ~750ms with a full test suite competing for one core, and that
// scheduler tax is not the detector's to answer for. A genuine O(N)
// regression at 4096 ranks x 16ms periods would overshoot this bound
// by an order of magnitude, so it still bites.
const swimDetectFloor = 2 * time.Second

// detectRun is one measured detection world: a handful of ranks die
// mid-run, survivors wait for confirmation, and the run records how the
// detector got there.
type detectRun struct {
	samples                    []time.Duration // ground-truth death -> suspicion raised
	framesPerRankPeriod        float64
	falseSusp, learns, confirm int64
	elapsed                    time.Duration
}

func (r *detectRun) p50() time.Duration { return durQuantile(r.samples, 0.50) }
func (r *detectRun) p99() time.Duration { return durQuantile(r.samples, 0.99) }

// durQuantile returns the q-quantile of samples (nearest-rank).
func durQuantile(samples []time.Duration, q float64) time.Duration {
	if len(samples) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), samples...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	idx := int(q*float64(len(sorted))+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// runDetectionWorld runs one n-rank world under the given detector mode,
// kills three spread-out ranks after a short warmup, and has every
// survivor wait until all three deaths are confirmed. Suspicion latency
// is sampled straight from the registry's suspicion feed, so it works at
// world sizes past the histogram-registry cap.
func runDetectionWorld(opt Options, n int, mode string) (*detectRun, error) {
	mets := metrics.NewWorld(n)
	reg := opt.newObs(n)
	opt.Collector.Attach(mets, reg)
	wopts := []mpi.Option{
		mpi.WithMetrics(mets),
		mpi.WithDeadline(120 * time.Second),
	}
	if reg != nil {
		wopts = append(wopts, mpi.WithObservability(reg))
	}
	wopts = append(wopts,
		Options{Detector: mode, Heartbeat: swimSoakBaseline(), Swim: swimSoakOptions()}.detectorOption())
	w, err := mpi.NewWorld(n, wopts...)
	if err != nil {
		return nil, err
	}

	run := &detectRun{}
	var mu sync.Mutex
	w.Registry().SubscribeSuspicion(func(ev detector.SuspicionEvent) {
		if ev.Kind == detector.SuspectRaised && ev.SinceDeath >= 0 {
			mu.Lock()
			run.samples = append(run.samples, ev.SinceDeath)
			mu.Unlock()
		}
	})

	victims := []int{n / 4, n / 2, 3 * n / 4}
	res, err := w.Run(func(p *mpi.Proc) error {
		c := p.World()
		c.SetErrhandler(mpi.ErrorsReturn)
		for _, v := range victims {
			if p.Rank() == v {
				// Die after the detector has a few periods of history, so
				// the latency samples measure detection, not warmup.
				time.Sleep(5 * swimSoakPeriod)
				p.Die()
			}
		}
		// Only rank 0 waits for the confirmations; the world (and every
		// monitor) stays up until all rank functions return, and a
		// thousand ranks polling in parallel would cost more scheduler
		// churn than the protocol under measurement.
		if p.Rank() != 0 {
			return nil
		}
		deadline := time.Now().Add(90 * time.Second)
		for _, v := range victims {
			for !p.Registry().Confirmed(v) {
				if time.Now().After(deadline) {
					return fmt.Errorf("death of rank %d never confirmed", v)
				}
				time.Sleep(swimSoakPeriod / 4)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if res.TimedOut {
		return nil, fmt.Errorf("n=%d %s: detection wedged, stuck ranks %v", n, mode, res.Stuck)
	}
	isVictim := map[int]bool{}
	for _, v := range victims {
		isVictim[v] = true
	}
	for rank, rr := range res.Ranks {
		if !isVictim[rank] && rr.Err != nil {
			return nil, fmt.Errorf("n=%d %s: rank %d: %w", n, mode, rank, rr.Err)
		}
	}

	periods := float64(res.Elapsed) / float64(swimSoakPeriod)
	run.framesPerRankPeriod = float64(mets.Total(metrics.ControlFrames)) / float64(n) / periods
	run.falseSusp = mets.Total(metrics.FalseSuspicions)
	run.learns = mets.Total(metrics.GossipLearns)
	run.confirm = mets.Total(metrics.Confirms)
	run.elapsed = res.Elapsed
	opt.Collector.Absorb(mets, reg)
	return run, nil
}

// runSwimSoak is E20: the SWIM detector scaled across world sizes, with
// a same-period heartbeat mesh as the baseline. Two properties are
// asserted in-run, not just tabulated:
//
//   - detection latency stays flat as N grows: every swim row's p99 must
//     land under max(2 x mesh p99, swimDetectFloor) — a bound that does
//     not scale with N;
//   - control traffic per rank is O(1): frames/rank/period must stay
//     under swimFramesPerRankPeriodMax at every N, while the mesh
//     baseline's column visibly grows as N-1.
func runSwimSoak(opt Options) ([]*Table, error) {
	t := NewTable("E20: SWIM soak — detection latency and per-rank control traffic vs N",
		"detector", "ranks", "samples", "detect-p50", "detect-p99",
		"frames/rank/period", "false-susp", "gossip-learns", "confirms", "elapsed")

	meshN := 64
	if opt.Quick {
		meshN = 32 // the N^2 mesh is the expensive row under -race CI
	}
	mesh, err := runDetectionWorld(opt, meshN, mpi.DetectorHeartbeat)
	if err != nil {
		return nil, fmt.Errorf("mesh baseline: %w", err)
	}
	t.Add("heartbeat mesh", meshN, len(mesh.samples), mesh.p50(), mesh.p99(),
		mesh.framesPerRankPeriod, mesh.falseSusp, mesh.learns, mesh.confirm, mesh.elapsed)

	bound := 2 * mesh.p99()
	if bound < swimDetectFloor {
		bound = swimDetectFloor
	}

	sizes := []int{64, 256, 1024}
	if raceEnabled {
		// The race detector multiplies scheduler and memory cost by an
		// order of magnitude; a thousand probe loops on a CI core under
		// that instrumentation measures the instrumentation, not the
		// detector. Race builds keep the assertion at the sizes they can
		// schedule honestly; the native short and full runs cover 1024
		// and 4096.
		sizes = []int{64, 256}
	} else if !opt.Quick {
		sizes = append(sizes, 4096)
	}
	for _, n := range sizes {
		r, err := runDetectionWorld(opt, n, mpi.DetectorSwim)
		if err != nil {
			return nil, fmt.Errorf("swim n=%d: %w", n, err)
		}
		if p99 := r.p99(); p99 > bound {
			return nil, fmt.Errorf("swim n=%d: detection p99 %v exceeds %v (2x mesh p99 %v with %v floor) — latency is not flat vs N",
				n, p99, bound, mesh.p99(), swimDetectFloor)
		}
		if r.framesPerRankPeriod > swimFramesPerRankPeriodMax {
			return nil, fmt.Errorf("swim n=%d: %.2f control frames/rank/period exceeds %.1f — traffic is not O(1)",
				n, r.framesPerRankPeriod, swimFramesPerRankPeriodMax)
		}
		t.Add("swim", n, len(r.samples), r.p50(), r.p99(),
			r.framesPerRankPeriod, r.falseSusp, r.learns, r.confirm, r.elapsed)
	}
	t.Note("asserted in-run: swim p99 <= max(2 x mesh p99, %v) at every N, frames/rank/period <= %.1f",
		swimDetectFloor, swimFramesPerRankPeriodMax)
	t.Note("mesh frames/rank/period grows as N-1; swim's stays constant — the point of the gossip detector")
	return []*Table{t}, nil
}
