package main

import (
	"errors"
	"fmt"
	"runtime"
	"time"

	"repro/internal/collective"
	"repro/internal/mpi"
)

// Warm-up shape, after mpi4py's ringtest: skipLaps neighbour exchanges on
// a tag the ring never uses, so lazy TCP dials, pools and goroutine
// stacks are paid before the clock starts, then a barrier so every rank
// enters the timed body together.
const (
	skipLaps = 4
	tagWarm  = 7
)

// worldRun is what one world gave back: set-up time, the root's timed
// region and the heap traffic of every goroutine during it.
type worldRun struct {
	setup   time.Duration // before mpi.NewWorld -> root past the warm-up barrier
	elapsed time.Duration // root: after the barrier -> body returned
	mallocs uint64        // runtime.MemStats.Mallocs delta over the timed region
	bytes   uint64        // runtime.MemStats.TotalAlloc delta over the timed region
	res     *mpi.RunResult
}

// runWorld builds one world of n ranks from opts, warms it up and runs
// body on every rank. A nil body makes a throw-away world that only
// measures set-up. The clock and the heap counters are read on physical
// rank 0, which is the ring's root and every collective's root, outside
// the timed region (ReadMemStats stops the world).
func runWorld(n int, opts func() []mpi.Option, body func(p *mpi.Proc) error) (worldRun, error) {
	var out worldRun
	begin := time.Now()
	w, err := mpi.NewWorld(n, opts()...)
	if err != nil {
		return out, fmt.Errorf("new world: %w", err)
	}
	res, err := w.Run(func(p *mpi.Proc) error {
		c := p.World()
		me, size := c.Rank(), c.Size()
		right, left := (me+1)%size, (me+size-1)%size
		warm := make([]byte, 16)
		for i := 0; i < skipLaps; i++ {
			if _, _, err := c.Sendrecv(right, tagWarm, warm, left, tagWarm); err != nil {
				return fmt.Errorf("warm-up: %w", err)
			}
		}
		if err := collective.Barrier(c); err != nil {
			return fmt.Errorf("warm-up barrier: %w", err)
		}
		root := p.PhysRank() == 0
		if root {
			out.setup = time.Since(begin)
		}
		if body == nil {
			return nil
		}
		var m0, m1 runtime.MemStats
		var t0 time.Time
		if root {
			runtime.ReadMemStats(&m0)
			t0 = time.Now()
		}
		err := body(p)
		if root {
			out.elapsed = time.Since(t0)
			runtime.ReadMemStats(&m1)
			out.mallocs = m1.Mallocs - m0.Mallocs
			out.bytes = m1.TotalAlloc - m0.TotalAlloc
		}
		return err
	})
	out.res = res
	if err != nil {
		return out, fmt.Errorf("run: %w", err)
	}
	if e := res.FirstError(); e != nil {
		return out, fmt.Errorf("rank error: %w", e)
	}
	if res.FinishedCount() != len(res.Ranks) {
		return out, errors.New("not every rank finished")
	}
	return out, nil
}

// setupSeconds builds and warms up one throw-away world and returns its
// set-up time.
func setupSeconds(n int, opts func() []mpi.Option) (float64, error) {
	run, err := runWorld(n, opts, nil)
	return run.setup.Seconds(), err
}
