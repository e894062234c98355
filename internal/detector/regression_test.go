package detector

import (
	"sync/atomic"
	"testing"
	"time"
)

// Regression tests for the registry's delayed-notify timer. The
// fence/clear race, self-fence and start/stop leak regressions run on the
// SWIM monitor in monitors_test.go.

// TestRegistryCloseStopsPendingNotify pins the oracle-mode timer leak:
// Kill with a NotifyDelay used to arm a bare time.AfterFunc that outlived
// the world — firing subscriber callbacks into torn-down state. Close
// must cancel pending delayed notifications.
func TestRegistryCloseStopsPendingNotify(t *testing.T) {
	reg := New(2)
	reg.SetNotifyDelay(30 * time.Millisecond)
	var fired atomic.Int32
	reg.Subscribe(func(rank int) { fired.Add(1) })
	reg.Kill(1)
	if fired.Load() != 0 {
		t.Fatal("delayed notification fired synchronously")
	}
	reg.Close() // world teardown happens inside the delay window
	time.Sleep(80 * time.Millisecond)
	if fired.Load() != 0 {
		t.Fatal("notify timer fired after Close")
	}
	// Ground truth is unaffected: the rank is dead, only the notification
	// was cancelled.
	if !reg.Failed(1) {
		t.Fatal("Close undid the kill")
	}
}

// TestRegistryNotifyDelayStillDelivers guards the non-leak half: without
// a Close, the delayed notification must still arrive exactly once.
func TestRegistryNotifyDelayStillDelivers(t *testing.T) {
	reg := New(2)
	reg.SetNotifyDelay(5 * time.Millisecond)
	var fired atomic.Int32
	reg.Subscribe(func(rank int) { fired.Add(1) })
	reg.Kill(1)
	deadline := time.Now().Add(5 * time.Second)
	for fired.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := fired.Load(); got != 1 {
		t.Fatalf("delayed notify fired %d times, want 1", got)
	}
}
