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

// swimSoakPeriod is the protocol period shared by every E20 world.
const swimSoakPeriod = 16 * time.Millisecond

// swimSoakOptions is the SWIM tuning for the E20 soak.
func swimSoakOptions() membership.Options {
	return membership.Options{
		Period:         swimSoakPeriod,
		SelfFenceAfter: 5 * time.Second,
		Seed:           7,
	}
}

// swimFramesPerRankPeriodMax is the in-test O(1) bound on swim control
// traffic: one probe, roughly one ack, the occasional indirect relay and
// fence — per rank per protocol period, independent of world size (an
// all-to-all heartbeat mesh pays N-1 pings per interval).
const swimFramesPerRankPeriodMax = 8.0

// swimDetectFloor is the detection-latency ceiling: swim p99 must stay
// under it at EVERY world size — a bound independent of N is what "flat
// vs N" means operationally. The bound is generous
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
	*soakRun
	n       int
	samples []time.Duration // ground-truth death -> suspicion raised
}

func (r *detectRun) p50() time.Duration { return durQuantile(r.samples, 0.50) }
func (r *detectRun) p99() time.Duration { return durQuantile(r.samples, 0.99) }

// framesPerRankPeriod is the control traffic one rank sent per protocol
// period, averaged over the world and the run.
func (r *detectRun) framesPerRankPeriod() float64 {
	periods := float64(r.Elapsed) / float64(swimSoakPeriod)
	return float64(r.mets.Total(metrics.ControlFrames)) / float64(r.n) / periods
}

func (r *detectRun) addRow(t *Table) {
	total := r.mets.Total
	t.Add(r.n, len(r.samples), r.p50(), r.p99(), r.framesPerRankPeriod(),
		total(metrics.FalseSuspicions), total(metrics.GossipLearns), total(metrics.Confirms), r.Elapsed)
}

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

// runDetectionWorld runs one n-rank SWIM world, kills three spread-out ranks after a short warmup, and has every
// survivor wait until all three deaths are confirmed. Suspicion latency
// is sampled straight from the registry's suspicion feed, so it works at
// world sizes past the histogram-registry cap.
func runDetectionWorld(opt Options, n int) (*detectRun, error) {
	opt.Detector, opt.Swim = mpi.DetectorSwim, swimSoakOptions()
	run := &detectRun{n: n}
	var mu sync.Mutex
	victims := []int{n / 4, n / 2, 3 * n / 4}
	var err error
	run.soakRun, err = opt.runWorld(opt.Seed, soakWorld{size: n, victims: victims, killable: true,
		body: func(w *mpi.World) func(*mpi.Proc) error {
			w.Registry().SubscribeSuspicion(func(ev detector.SuspicionEvent) {
				if ev.Kind == detector.SuspectRaised && ev.SinceDeath >= 0 {
					mu.Lock()
					run.samples = append(run.samples, ev.SinceDeath)
					mu.Unlock()
				}
			})
			return func(p *mpi.Proc) error {
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
			}
		}})
	if err != nil {
		return nil, fmt.Errorf("n=%d: %w", n, err)
	}
	return run, nil
}

// runSwimSoak is E20: the SWIM detector scaled across world sizes. Two
// properties are asserted in-run, not just tabulated:
//
//   - detection latency stays flat as N grows: every row's p99 must land
//     under swimDetectFloor — a bound that does not scale with N;
//   - control traffic per rank is O(1): frames/rank/period must stay
//     under swimFramesPerRankPeriodMax at every N.
func runSwimSoak(opt Options) ([]*Table, error) {
	t := NewTable("E20: SWIM soak — detection latency and per-rank control traffic vs N",
		"ranks", "samples", "detect-p50", "detect-p99",
		"frames/rank/period", "false-susp", "gossip-learns", "confirms", "elapsed")
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
		r, err := runDetectionWorld(opt, n)
		if err != nil {
			return nil, fmt.Errorf("swim %w", err)
		}
		if p99 := r.p99(); p99 > swimDetectFloor {
			return nil, fmt.Errorf("swim n=%d: detection p99 %v exceeds %v — latency is not flat vs N",
				n, p99, swimDetectFloor)
		}
		if f := r.framesPerRankPeriod(); f > swimFramesPerRankPeriodMax {
			return nil, fmt.Errorf("swim n=%d: %.2f control frames/rank/period exceeds %.1f — traffic is not O(1)",
				n, f, swimFramesPerRankPeriodMax)
		}
		r.addRow(t)
	}
	t.Note("asserted in-run: p99 <= %v at every N, frames/rank/period <= %.1f",
		swimDetectFloor, swimFramesPerRankPeriodMax)
	t.Note("frames/rank/period stays constant as N grows — an all-to-all heartbeat mesh pays N-1 (EXPERIMENTS.md E20)")
	return []*Table{t}, nil
}
