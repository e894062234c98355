package mpi

import (
	"errors"
	"runtime"
	"testing"
	"time"
)

// The wake contract: a goroutine parked in Wait or Waitany sleeps on one
// channel, and the three terminal events (a kill from outside, MPI_Abort
// from another rank, world teardown) must each poke it through the
// engine's parked list. These tests park a waiter on receives that can
// never match, fire one event, and check that the waiter unwound and that
// no goroutine outlived the world.

// parkers are the two ways to block on receives from rank 0 that rank 0
// never sends.
var parkers = []struct {
	name string
	park func(c *Comm)
}{
	{"Wait", func(c *Comm) { _, _ = c.Irecv(0, 99).Wait() }},
	{"Waitany", func(c *Comm) { _, _, _ = Waitany(c.Irecv(0, 98), c.Irecv(0, 99)) }},
}

// awaitParked blocks until some goroutine is parked on e.
func awaitParked(t *testing.T, e *engine) {
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		e.mu.Lock()
		n := len(e.parked)
		e.mu.Unlock()
		if n > 0 {
			return
		}
	}
	t.Error("waiter never parked")
}

// runWithin runs the world and fails the test if it has not returned
// within 10 s: a missed wake-up leaves the waiter parked for good.
func runWithin(t *testing.T, w *World, fn func(p *Proc) error) (*RunResult, error) {
	t.Helper()
	type outcome struct {
		res *RunResult
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := w.Run(fn)
		done <- outcome{res, err}
	}()
	select {
	case o := <-done:
		return o.res, o.err
	case <-time.After(10 * time.Second):
		t.Fatal("a parked waiter was never woken")
		return nil, nil
	}
}

// requireNoGoroutineLeak waits for the goroutine count to settle back to
// baseline, as TestMonitorStartStopNoGoroutineLeak does.
func requireNoGoroutineLeak(t *testing.T, baseline int) {
	t.Helper()
	var after int
	for try := 0; try < 100; try++ {
		runtime.GC()
		if after = runtime.NumGoroutine(); after <= baseline+2 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines grew from %d to %d", baseline, after)
}

func TestParkedWaiterWokenByKill(t *testing.T) {
	for _, pk := range parkers {
		t.Run(pk.name, func(t *testing.T) {
			baseline := runtime.NumGoroutine()
			w, err := NewWorld(2, WithDeadline(30*time.Second))
			if err != nil {
				t.Fatal(err)
			}
			go func() {
				awaitParked(t, w.eng(1))
				w.Kill(1)
			}()
			res, err := runWithin(t, w, func(p *Proc) error {
				if p.Rank() == 1 {
					pk.park(p.World())
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Ranks[1].Killed {
				t.Fatalf("rank 1 not unwound by the kill: %+v", res.Ranks[1])
			}
			requireNoGoroutineLeak(t, baseline)
		})
	}
}

func TestParkedWaiterWokenByAbort(t *testing.T) {
	for _, pk := range parkers {
		t.Run(pk.name, func(t *testing.T) {
			baseline := runtime.NumGoroutine()
			w, err := NewWorld(2, WithDeadline(30*time.Second))
			if err != nil {
				t.Fatal(err)
			}
			res, err := runWithin(t, w, func(p *Proc) error {
				if p.Rank() == 0 {
					awaitParked(t, w.eng(1))
					p.Abort(7)
				}
				pk.park(p.World())
				return nil
			})
			var ae *AbortError
			if !errors.As(err, &ae) || ae.Code != 7 {
				t.Fatalf("want AbortError(7), got %v", err)
			}
			if !res.Ranks[1].Aborted {
				t.Fatalf("rank 1 not unwound by the abort: %+v", res.Ranks[1])
			}
			requireNoGoroutineLeak(t, baseline)
		})
	}
}

func TestParkedWaiterWokenByTeardown(t *testing.T) {
	for _, pk := range parkers {
		t.Run(pk.name, func(t *testing.T) {
			baseline := runtime.NumGoroutine()
			w, err := NewWorld(2, WithDeadline(30*time.Second))
			if err != nil {
				t.Fatal(err)
			}
			// A helper goroutine of rank 1 outlives the rank function, parked;
			// only the teardown can release it.
			unwound := make(chan any, 1)
			res, err := runWithin(t, w, func(p *Proc) error {
				if p.Rank() == 1 {
					go func() {
						defer func() { unwound <- recover() }()
						pk.park(p.World())
					}()
					awaitParked(t, w.eng(1))
				}
				return nil
			})
			if err != nil || res.FinishedCount() != 2 {
				t.Fatalf("run: %v, %d finished", err, res.FinishedCount())
			}
			select {
			case v := <-unwound:
				if _, ok := v.(closedPanic); !ok {
					t.Fatalf("helper unwound with %v, want the teardown sentinel", v)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("teardown left the helper parked")
			}
			requireNoGoroutineLeak(t, baseline)
		})
	}
}
