package workload

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"repro/internal/chaos"
	"repro/internal/metrics"
	"repro/internal/mpi"
	"repro/internal/obs"
)

// Every seeded soak (E18-E24) is made of worlds built per seed. A
// soakWorld says what one world adds to the set-up they all share and
// what it must leave behind; runWorld supplies the rest and holds every
// result to one verdict. A new scenario is one more world plus its
// invariants.

// repairRates is the network weather the repair soaks (E21, E22, E24)
// absorb their kills under: lossy and duplicating enough to exercise the
// ARQ under the repair protocol without turning the run into a
// reliability benchmark.
var repairRates = chaos.Rates{Drop: 0.05, Dup: 0.05, Corrupt: 0.01}

// soakDeadline bounds every soak world; only a wedged run comes near it.
const soakDeadline = 120 * time.Second

// eachSeed runs fn over the sweep's seeds: 20 from o.Seed, or quick of
// them in quick mode. The first error stops the sweep.
func (o Options) eachSeed(quick int, fn func(seed int64) error) error {
	n := 20
	if o.Quick {
		n = quick
	}
	for s := 0; s < n; s++ {
		if err := fn(o.Seed + int64(s)); err != nil {
			return err
		}
	}
	return nil
}

// soakWorld is one seeded world of a soak: what it adds to the shared
// set-up, and what its result must show.
type soakWorld struct {
	size    int          // ranks handed to NewWorld (logical ranks when replicated)
	slots   int          // physical slots to meter; 0 means size
	rates   chaos.Rates  // chaos seeded on every link; the zero value injects none
	opts    []mpi.Option // row-specific options, applied after the shared ones
	victims []int        // slots the run must kill
	// killable lets a non-victim end killed too: a monitored detector
	// fences a falsely suspected rank before reporting it, which is its
	// contract, and a kill fired from outside a rank's function can find
	// that function still running or already returned.
	killable bool
	// mets and reg are the caller's recorder and histogram registry (the
	// cmd/ftring demos, or a soak merging latencies); nil builds them.
	mets *metrics.World
	reg  *obs.Registry
	// body returns the rank function; it is handed the world before Run
	// for subscriptions, watchers and replica-group queries.
	body func(w *mpi.World) func(*mpi.Proc) error
	// check holds the row's own invariants, after the verdict passed.
	check func(*soakRun) error
}

// soakRun is what one soak world left behind.
type soakRun struct {
	*mpi.RunResult
	mets *metrics.World
}

// runWorld builds sw's world over seed with what every soak world shares
// — metrics and a histogram registry attached to opt.Collector, the soak
// deadline, a chaos plan seeded at sw.rates, opt.Tracer and opt's
// detector — runs it, absorbs it into the collector and holds the result
// to the verdict and then sw.check. A run that fails them is returned
// along with the error, so a tallied row can count it.
func (opt Options) runWorld(seed int64, sw soakWorld) (*soakRun, error) {
	slots := max(sw.slots, sw.size)
	mets, reg := sw.mets, sw.reg
	if mets == nil {
		mets = metrics.NewWorld(slots)
	}
	if reg == nil {
		reg = opt.newObs(slots)
	}
	opt.Collector.Attach(mets, reg)
	wopts := []mpi.Option{mpi.WithMetrics(mets), mpi.WithObservability(reg),
		mpi.WithDeadline(soakDeadline), mpi.WithTracer(opt.Tracer), opt.detectorOption()}
	if sw.rates != (chaos.Rates{}) {
		wopts = append(wopts, mpi.WithChaos(chaos.NewPlan(seed).Default(sw.rates)))
	}
	w, err := mpi.NewWorld(sw.size, append(wopts, sw.opts...)...)
	if err != nil {
		return nil, err
	}
	res, err := w.Run(sw.body(w))
	opt.Collector.Absorb(mets, reg)
	if err != nil && !errors.Is(err, mpi.ErrTimedOut) {
		return nil, err
	}
	run := &soakRun{res, mets}
	if err := verdict(res, sw.killable, sw.victims); err != nil {
		return run, err
	}
	if sw.check != nil {
		return run, sw.check(run)
	}
	return run, nil
}

// verdict is the check every soak world's result is held to: the run did
// not wedge, every victim was killed, and every other slot finished with
// a nil error — or, when killable, was killed.
func verdict(res *mpi.RunResult, killable bool, victims []int) error {
	if res.TimedOut {
		return fmt.Errorf("wedged, stuck ranks %v", res.Stuck)
	}
	for rank, rr := range res.Ranks {
		switch {
		case slices.Contains(victims, rank):
			if !rr.Killed {
				return fmt.Errorf("victim %d not killed", rank)
			}
		case rr.Killed:
			if !killable {
				return fmt.Errorf("rank %d killed, and is no victim", rank)
			}
		case rr.Err != nil:
			return fmt.Errorf("rank %d: %w", rank, rr.Err)
		case !rr.Finished:
			return fmt.Errorf("rank %d did not finish", rank)
		}
	}
	return nil
}

// soakRow is one workload of a tallied soak (E18, E19): a world per
// seed, summed into one table row.
type soakRow struct {
	label string
	world func(seed int64) soakWorld
}

// runTallied sweeps the seeds (4 in quick mode) over rows and adds one
// row per workload to t — label, seeds, ok, the sums of cols, elapsed —
// and the workload's merged latency quantiles to tLat. A seed whose world
// fails its verdict or check counts as not ok; the sweep goes on.
func (opt Options) runTallied(t, tLat *Table, cols []metrics.Counter, rows []soakRow) error {
	type tally struct {
		runs, ok int
		sums     []int64
		elapsed  time.Duration
		lat      latTally
	}
	tallies := make([]tally, len(rows))
	for i := range tallies {
		tallies[i] = tally{sums: make([]int64, len(cols)), lat: latTally{}}
	}
	err := opt.eachSeed(4, func(seed int64) error {
		for i, row := range rows {
			s := &tallies[i]
			sw := row.world(seed)
			sw.reg = obs.NewRegistry(sw.size)
			run, err := opt.runWorld(seed, sw)
			if run == nil {
				return fmt.Errorf("%s seed %d: %w", row.label, seed, err)
			}
			s.runs++
			if err == nil {
				s.ok++
			}
			for j, c := range cols {
				s.sums[j] += run.mets.Total(c)
			}
			s.elapsed += run.Elapsed
			s.lat.merge(sw.reg)
		}
		return nil
	})
	if err != nil {
		return err
	}
	for i, row := range rows {
		s := tallies[i]
		cells := []any{row.label, s.runs, s.ok}
		for _, v := range s.sums {
			cells = append(cells, v)
		}
		t.Add(append(cells, s.elapsed)...)
		s.lat.addRows(tLat, row.label)
	}
	return nil
}

// rootLaps holds, per physical slot, the laps a replica of logical rank
// 0 saw come back around the ring (E22, E24). Each slot's rank function
// appends to its own entry only.
type rootLaps [][]int64

// exactlyOnce checks that every replica of logical rank 0 — slots 0,
// lsize, 2*lsize, ..., prefix-striped — recorded lap 0,1,2,... with no
// gap, duplicate or reordering: every lap, or for a victim a clean
// prefix, since it dies at a lap boundary or inside a collective, never
// mid-duplicate.
func (r rootLaps) exactlyOnce(laps, lsize int, victims []int) error {
	for phys := 0; phys < len(r); phys += lsize {
		got := r[phys]
		for i, lap := range got {
			if lap != int64(i) {
				return fmt.Errorf("root replica %d arrival %d carried lap %d — not exactly-once: %v",
					phys, i, lap, got)
			}
		}
		if len(got) != laps && !slices.Contains(victims, phys) {
			return fmt.Errorf("root replica %d recorded %d laps, want %d", phys, len(got), laps)
		}
	}
	return nil
}

// waitHealed holds a rank until the world's automatic refills have put
// every replica group back at degree r and each slot in gens at (at
// least) the given generation.
func waitHealed(w *mpi.World, r int, gens map[int]int) error {
	for end := time.Now().Add(60 * time.Second); ; time.Sleep(2 * time.Millisecond) {
		healed := true
		for slot, g := range gens {
			healed = healed && w.Registry().Generation(slot) >= g
		}
		for l := 0; healed && l < w.LogicalSize(); l++ {
			healed = len(w.LiveReplicas(l)) == r
		}
		if healed {
			return nil
		}
		if !time.Now().Before(end) {
			return fmt.Errorf("replica groups not healed to R=%d with generations %v", r, gens)
		}
	}
}
