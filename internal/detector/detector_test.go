package detector

import (
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

func TestNewAllAlive(t *testing.T) {
	r := New(5)
	if r.Size() != 5 || r.AliveCount() != 5 || r.FailedCount() != 0 {
		t.Fatalf("fresh registry wrong: size=%d alive=%d failed=%d",
			r.Size(), r.AliveCount(), r.FailedCount())
	}
	for i := 0; i < 5; i++ {
		if r.Failed(i) {
			t.Fatalf("rank %d should be alive", i)
		}
		if r.State(i) != Alive {
			t.Fatalf("rank %d state %v", i, r.State(i))
		}
		if r.Generation(i) != 1 {
			t.Fatalf("rank %d generation %d", i, r.Generation(i))
		}
	}
	if got := len(r.Snapshot()); got != 0 {
		t.Fatalf("snapshot %d entries", got)
	}
}

func TestKillTransitionsOnce(t *testing.T) {
	r := New(3)
	if !r.Kill(1) {
		t.Fatal("first kill should transition")
	}
	if r.Kill(1) {
		t.Fatal("second kill should be a no-op")
	}
	if !r.Failed(1) || r.State(1) != Failed {
		t.Fatal("rank 1 should be failed")
	}
	if r.AliveCount() != 2 || r.FailedCount() != 1 {
		t.Fatalf("counts alive=%d failed=%d", r.AliveCount(), r.FailedCount())
	}
	snap := r.Snapshot()
	if len(snap) != 1 || snap[0] != 1 {
		t.Fatalf("snapshot %v", snap)
	}
	alive := r.Alive()
	if len(alive) != 2 || alive[0] != 0 || alive[1] != 2 {
		t.Fatalf("alive %v", alive)
	}
}

// TestStrongCompleteness: every subscriber hears about every failure,
// including failures that happened before subscribing.
func TestStrongCompleteness(t *testing.T) {
	r := New(4)
	r.Kill(2)
	var early, late []int
	var mu sync.Mutex
	r.Subscribe(func(rank int) { mu.Lock(); early = append(early, rank); mu.Unlock() })
	r.Kill(0)
	r.Subscribe(func(rank int) { mu.Lock(); late = append(late, rank); mu.Unlock() })
	r.Kill(3)
	mu.Lock()
	defer mu.Unlock()
	if len(early) != 3 { // 2 (replayed), 0, 3
		t.Fatalf("early subscriber heard %v", early)
	}
	if len(late) != 3 { // 2, 0 replayed; 3 live
		t.Fatalf("late subscriber heard %v", late)
	}
}

func TestNotifyDelayStillNotifies(t *testing.T) {
	r := New(2)
	r.SetNotifyDelay(5 * time.Millisecond)
	var n atomic.Int32
	r.Subscribe(func(int) { n.Add(1) })
	r.Kill(1)
	if !r.Failed(1) {
		t.Fatal("ground truth must flip immediately (strong accuracy)")
	}
	deadline := time.Now().Add(2 * time.Second)
	for n.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n.Load() != 1 {
		t.Fatalf("notification count %d", n.Load())
	}
}

func TestLowestAlive(t *testing.T) {
	r := New(4)
	if got, ok := r.LowestAlive(); !ok || got != 0 {
		t.Fatalf("lowest %d ok=%v", got, ok)
	}
	r.Kill(0)
	r.Kill(1)
	if got, ok := r.LowestAlive(); !ok || got != 2 {
		t.Fatalf("lowest %d ok=%v", got, ok)
	}
	r.Kill(2)
	r.Kill(3)
	if _, ok := r.LowestAlive(); ok {
		t.Fatal("everyone is dead")
	}
}

func TestEpochAndWaiters(t *testing.T) {
	r := New(3)
	e0 := r.Epoch()
	done := make(chan uint64, 1)
	go func() { done <- r.WaitEpochChange(e0) }()
	time.Sleep(5 * time.Millisecond)
	r.Kill(1)
	select {
	case e := <-done:
		if e != e0+1 {
			t.Fatalf("epoch %d want %d", e, e0+1)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("waiter never woke")
	}
}

// TestAccuracyProperty: strong accuracy by construction — Failed(r) is
// true iff Kill(r) was called, for arbitrary kill sequences.
func TestAccuracyProperty(t *testing.T) {
	prop := func(mask uint8) bool {
		r := New(8)
		want := map[int]bool{}
		for i := 0; i < 8; i++ {
			if mask&(1<<i) != 0 {
				r.Kill(i)
				want[i] = true
			}
		}
		for i := 0; i < 8; i++ {
			if r.Failed(i) != want[i] {
				return false
			}
		}
		return r.AliveCount() == 8-len(want)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

// TestSuspicionLifecycle walks one (observer, suspect) pair through the
// gated-mode state machine: suspicion never notifies, clear withdraws it,
// Kill flips ground truth (and death hooks) without notifying, and only
// Confirm fires the failure subscribers — exactly once.
func TestSuspicionLifecycle(t *testing.T) {
	r := New(3)
	r.SetConfirmGate(true)
	var mu sync.Mutex
	var events []SuspicionEvent
	var notified, deaths []int
	r.SubscribeSuspicion(func(ev SuspicionEvent) { mu.Lock(); events = append(events, ev); mu.Unlock() })
	r.Subscribe(func(rank int) { mu.Lock(); notified = append(notified, rank); mu.Unlock() })
	r.OnDeath(func(rank int) { mu.Lock(); deaths = append(deaths, rank); mu.Unlock() })

	if !r.Suspect(1, 0) {
		t.Fatal("first suspicion should raise")
	}
	if r.Suspect(1, 0) {
		t.Fatal("duplicate suspicion should be a no-op")
	}
	if r.State(1) != Suspected || !r.Suspected(1) {
		t.Fatalf("state %v", r.State(1))
	}
	if r.Failed(1) || r.Confirmed(1) {
		t.Fatal("suspicion must not touch ground truth")
	}
	if !r.ClearSuspect(1, 0) {
		t.Fatal("clear should withdraw the suspicion")
	}
	if r.ClearSuspect(1, 0) {
		t.Fatal("double clear should be a no-op")
	}
	if r.State(1) != Alive {
		t.Fatalf("state after clear %v", r.State(1))
	}

	if !r.Kill(1) {
		t.Fatal("kill should transition")
	}
	mu.Lock()
	if len(notified) != 0 {
		t.Fatalf("gated kill notified %v before confirm", notified)
	}
	if len(deaths) != 1 || deaths[0] != 1 {
		t.Fatalf("death hooks %v", deaths)
	}
	mu.Unlock()
	if !r.Failed(1) || r.Confirmed(1) {
		t.Fatal("killed but unconfirmed expected")
	}

	r.Suspect(1, 2)
	if !r.Confirm(1, 2) {
		t.Fatal("first confirm should notify")
	}
	if r.Confirm(1, 0) {
		t.Fatal("second confirm should be a no-op")
	}
	mu.Lock()
	defer mu.Unlock()
	if len(notified) != 1 || notified[0] != 1 {
		t.Fatalf("notified %v", notified)
	}
	if len(events) != 4 {
		t.Fatalf("events %v", events)
	}
	wantKinds := []SuspicionKind{SuspectRaised, SuspectCleared, SuspectRaised, SuspectConfirmed}
	for i, ev := range events {
		if ev.Kind != wantKinds[i] {
			t.Fatalf("event %d kind %v want %v", i, ev.Kind, wantKinds[i])
		}
	}
	if events[0].SinceDeath >= 0 {
		t.Fatal("pre-death suspicion must carry negative SinceDeath (false suspicion)")
	}
	if events[2].SinceDeath < 0 || events[3].SinceDeath < 0 {
		t.Fatal("post-death events must carry the detection latency")
	}
}

// TestConfirmLiveRankPanics: confirming a rank that is not ground-truth
// dead is a strong-accuracy violation and must crash loudly.
func TestConfirmLiveRankPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Confirm of a live rank did not panic")
		}
	}()
	r := New(2)
	r.SetConfirmGate(true)
	r.Confirm(1, 0)
}

// TestGatedSubscribeReplay: in gated mode a late subscriber replays only
// confirmed failures — a killed-but-unconfirmed rank stays invisible until
// fencing finishes the job.
func TestGatedSubscribeReplay(t *testing.T) {
	r := New(3)
	r.SetConfirmGate(true)
	r.Kill(1)
	var got []int
	r.Subscribe(func(rank int) { got = append(got, rank) })
	if len(got) != 0 {
		t.Fatalf("unconfirmed failure replayed: %v", got)
	}
	r.Confirm(1, 0)
	if len(got) != 1 || got[0] != 1 {
		t.Fatalf("confirm did not notify the late subscriber: %v", got)
	}
}

// TestSubscribeKillRace pins the package lock contract under -race:
// callbacks never fire while the registry mutex is held, so a subscriber
// that calls back into the read-side cannot deadlock, and concurrent
// Subscribe/Kill/Suspect/Confirm still deliver every failure to every
// subscriber exactly once.
func TestSubscribeKillRace(t *testing.T) {
	const n = 32
	r := New(n)
	var mu sync.Mutex
	var subs []map[int]int
	addSubscriber := func() {
		seen := make(map[int]int)
		mu.Lock()
		subs = append(subs, seen)
		mu.Unlock()
		r.Subscribe(func(rank int) {
			// Read-side reentrancy: deadlocks here if the registry fired
			// this callback under its mutex.
			_ = r.Failed(rank)
			_ = r.State(rank)
			_ = r.AliveCount()
			_ = r.Snapshot()
			mu.Lock()
			seen[rank]++
			mu.Unlock()
		})
	}
	r.SubscribeSuspicion(func(ev SuspicionEvent) {
		_ = r.State(ev.Rank) // same reentrancy check for suspicion events
	})

	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		rank := i
		wg.Add(2)
		go func() {
			defer wg.Done()
			addSubscriber()
		}()
		go func() {
			defer wg.Done()
			r.Suspect(rank, (rank+1)%n)
			r.Kill(rank)
			r.ClearSuspect(rank, (rank+1)%n)
		}()
	}
	wg.Wait()

	mu.Lock()
	defer mu.Unlock()
	if len(subs) != n {
		t.Fatalf("%d subscribers registered", len(subs))
	}
	for si, seen := range subs {
		for rank := 0; rank < n; rank++ {
			if seen[rank] != 1 {
				t.Fatalf("subscriber %d saw rank %d %d times", si, rank, seen[rank])
			}
		}
	}
}

func TestConcurrentKills(t *testing.T) {
	r := New(64)
	var wins atomic.Int32
	var wg sync.WaitGroup
	for i := 0; i < 64; i++ {
		for j := 0; j < 4; j++ { // four racers per rank
			wg.Add(1)
			go func(rank int) {
				defer wg.Done()
				if r.Kill(rank) {
					wins.Add(1)
				}
			}(i)
		}
	}
	wg.Wait()
	if wins.Load() != 64 {
		t.Fatalf("each rank must be killed exactly once, got %d", wins.Load())
	}
	if r.AliveCount() != 0 {
		t.Fatalf("alive %d", r.AliveCount())
	}
}
