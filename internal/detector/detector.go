// Package detector implements the failure detector that the run-through
// stabilization proposal assumes the MPI implementation provides (Hursey
// & Graham 2011, Section II).
//
// Two modes are offered:
//
//   - Oracle (the default): the Registry is the ground truth — a rank is
//     marked failed exactly when the fault injector (or the runtime)
//     kills it, never speculatively. This is "perfect" in the
//     Chandra-Toueg sense: strongly accurate (no process reported failed
//     before it fails) and strongly complete (eventually every failure is
//     known everywhere). An optional notification delay models detection
//     latency without ever violating accuracy.
//
//   - Monitored (membership.Swim feeding the Fencer of fence.go):
//     perfection is *built* out of an unreliable detector plus fencing.
//     Ranks probe each other over the live (possibly chaotic) fabric; an
//     unanswered probe moves a peer to Suspected — an unreliable, possibly wrong
//     verdict — and a fencing protocol (fence.go) then forces the suspect
//     to fail-stop before anyone is told it failed. Only Confirm, which
//     requires ground-truth death, fires the failure subscribers, so
//     strong accuracy is restored by construction: a healthy rank can be
//     (falsely) suspected, but it is fenced — killed — before it is ever
//     reported failed to the application.
//
// The MPI layer still only surfaces a failure to the *application* when
// the application communicates (directly or indirectly) with the failed
// rank, as the paper requires; the Registry is the implementation-internal
// view.
//
// Lock contract: the Registry never invokes a callback — Subscriber,
// suspicion subscriber, death hook, or notify observer — while holding
// its mutex. Callbacks may therefore call back into the Registry's
// read-side (Failed, State, AliveCount, ...) freely; they must not call
// the mutating methods (Kill, Suspect, Confirm, ...) to avoid notification
// recursion. TestSubscribeKillRace pins the contract under -race.
package detector

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// State is the liveness state of a rank as seen by the detector.
type State int

const (
	// Alive means the rank has not failed and is not suspected.
	Alive State = iota
	// Suspected means some peer's (unreliable) monitor has
	// raised suspicion, but the rank has not been confirmed dead. A
	// suspected rank may still be healthy — suspicion never reaches the
	// application; it only triggers fencing.
	Suspected
	// Failed means the rank has permanently stopped (fail-stop).
	Failed
)

// String returns a human-readable state name.
func (s State) String() string {
	switch s {
	case Alive:
		return "ALIVE"
	case Suspected:
		return "SUSPECTED"
	case Failed:
		return "FAILED"
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

// Subscriber is a callback invoked once for every rank failure. Callbacks
// must not block for long and must not call back into the Registry's
// mutating methods (read-side calls are fine; see the package lock
// contract).
type Subscriber func(rank int)

// SuspicionKind classifies a suspicion-lifecycle event.
type SuspicionKind int

const (
	// SuspectRaised means an observer newly suspects a rank.
	SuspectRaised SuspicionKind = iota
	// SuspectCleared means an observer withdrew its suspicion (alive
	// evidence arrived after all) — a false suspicion that resolved
	// without fencing.
	SuspectCleared
	// SuspectConfirmed means the suspected rank was confirmed dead and
	// failure notifications were delivered.
	SuspectConfirmed
)

// String returns the suspicion-kind name.
func (k SuspicionKind) String() string {
	switch k {
	case SuspectRaised:
		return "raised"
	case SuspectCleared:
		return "cleared"
	case SuspectConfirmed:
		return "confirmed"
	default:
		return fmt.Sprintf("SuspicionKind(%d)", int(k))
	}
}

// SuspicionEvent is one suspicion-lifecycle transition. Rank is the
// suspect, By the observing rank. SinceDeath is the time between the
// rank's ground-truth death and this event; it is negative when the rank
// was still alive (a false suspicion) — the interesting case chaos
// partitions and delay jitter induce.
type SuspicionEvent struct {
	Kind       SuspicionKind
	Rank       int
	By         int
	SinceDeath time.Duration
}

// Registry is the ground-truth liveness table for one World of ranks.
// All methods are safe for concurrent use.
type Registry struct {
	mu          sync.Mutex
	failed      []bool
	diedAt      []time.Time
	confirmed   []bool         // gated mode: failure notifications delivered
	suspectedBy []map[int]bool // per rank: set of observers currently suspecting it
	generation  []int
	aliveCount  int
	subscribers []Subscriber
	suspicion   []func(SuspicionEvent)
	deathHooks  []func(rank int)
	reviveSubs  []func(rank, gen int)
	confirmGate bool
	notifyDelay time.Duration
	notifyObs   func(rank int, latency time.Duration)
	epoch       uint64 // incremented on every failure, for change detection
	cond        *sync.Cond
	// timers holds the delayed-notify timers armed by Kill when a
	// NotifyDelay is configured, so Close can stop the ones still pending.
	// Without this, a world that tears down inside the delay window leaks
	// the timer goroutine and fires subscriber callbacks into freed state.
	timers map[*time.Timer]struct{}
	closed bool
}

// New creates a registry for n ranks, all alive, all at generation 1.
func New(n int) *Registry {
	if n <= 0 {
		panic(fmt.Sprintf("detector: registry size must be positive, got %d", n))
	}
	r := &Registry{
		failed:      make([]bool, n),
		diedAt:      make([]time.Time, n),
		confirmed:   make([]bool, n),
		suspectedBy: make([]map[int]bool, n),
		generation:  make([]int, n),
		aliveCount:  n,
	}
	for i := range r.generation {
		r.generation[i] = 1
	}
	r.cond = sync.NewCond(&r.mu)
	return r
}

// Size returns the total number of ranks tracked, alive or failed.
func (r *Registry) Size() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.failed)
}

// SetNotifyDelay configures an artificial latency between a failure and the
// delivery of subscriber notifications, modelling failure-detection latency.
// Zero (the default) delivers notifications synchronously from Kill. The
// delay applies only in oracle mode; with the confirm gate on, detection
// latency is real (probe timeout + fencing), not modelled.
func (r *Registry) SetNotifyDelay(d time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.notifyDelay = d
}

// SetNotifyObserver registers a callback invoked once per failure after
// all subscriber notifications have been delivered, with the measured
// Kill-to-delivery latency — the observable detection latency of the
// failure detector. Pass nil to remove.
func (r *Registry) SetNotifyObserver(fn func(rank int, latency time.Duration)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.notifyObs = fn
}

// SetConfirmGate switches the registry into monitored mode: Kill records
// ground-truth death (and fires death hooks) but defers the failure
// Subscribers until Confirm promotes the rank. Call before Subscribe/Kill.
func (r *Registry) SetConfirmGate(on bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.confirmGate = on
}

// OnDeath registers a hook fired synchronously (outside the registry
// mutex) on every ground-truth death, regardless of the confirm gate and
// before any notification delay. The runtime uses it to unwind the victim
// immediately — the victim is dead the moment it is killed, whatever its
// peers believe.
func (r *Registry) OnDeath(fn func(rank int)) {
	r.mu.Lock()
	already := r.snapshotLocked()
	r.deathHooks = append(r.deathHooks, fn)
	r.mu.Unlock()
	for _, rank := range already {
		fn(rank)
	}
}

// Subscribe registers a callback invoked on every subsequent failure
// notification. If ranks have already been notified (oracle mode: killed;
// gated mode: confirmed), the callback is immediately invoked for each of
// them so that late subscribers still satisfy strong completeness.
func (r *Registry) Subscribe(fn Subscriber) {
	r.mu.Lock()
	var already []int
	if r.confirmGate {
		for rank, c := range r.confirmed {
			if c {
				already = append(already, rank)
			}
		}
	} else {
		already = r.snapshotLocked()
	}
	r.subscribers = append(r.subscribers, fn)
	r.mu.Unlock()
	for _, rank := range already {
		fn(rank)
	}
}

// SubscribeSuspicion registers a callback for suspicion-lifecycle events
// (raised, cleared, confirmed). Callbacks run outside the registry mutex.
func (r *Registry) SubscribeSuspicion(fn func(SuspicionEvent)) {
	r.mu.Lock()
	r.suspicion = append(r.suspicion, fn)
	r.mu.Unlock()
}

// Kill marks rank as failed (ground truth). It returns true if this call
// performed the transition, false if the rank was already failed. Death
// hooks fire synchronously. In oracle mode subscribers are then notified
// (after the configured delay, if any) exactly once per failure; with the
// confirm gate on, subscriber notification waits for Confirm.
func (r *Registry) Kill(rank int) bool {
	r.mu.Lock()
	if rank < 0 || rank >= len(r.failed) {
		r.mu.Unlock()
		panic(fmt.Sprintf("detector: Kill(%d) out of range [0,%d)", rank, len(r.failed)))
	}
	if r.failed[rank] {
		r.mu.Unlock()
		return false
	}
	r.failed[rank] = true
	r.diedAt[rank] = time.Now()
	r.aliveCount--
	r.epoch++
	hooks := make([]func(int), len(r.deathHooks))
	copy(hooks, r.deathHooks)
	gated := r.confirmGate
	var subs []Subscriber
	var delay time.Duration
	var obs func(int, time.Duration)
	if !gated {
		r.confirmed[rank] = true // oracle mode: kill and notify are one step
		subs = make([]Subscriber, len(r.subscribers))
		copy(subs, r.subscribers)
		delay = r.notifyDelay
		obs = r.notifyObs
	}
	r.cond.Broadcast()
	r.mu.Unlock()

	for _, fn := range hooks {
		fn(rank)
	}
	if gated {
		return true
	}
	start := time.Now()
	notify := func() {
		for _, fn := range subs {
			fn(rank)
		}
		if obs != nil {
			obs(rank, time.Since(start))
		}
	}
	if delay > 0 {
		r.armNotify(delay, notify)
	} else {
		notify()
	}
	return true
}

// armNotify schedules a delayed notification, tracking the timer so Close
// can cancel it if the registry shuts down inside the delay window.
func (r *Registry) armNotify(delay time.Duration, notify func()) {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	if r.timers == nil {
		r.timers = make(map[*time.Timer]struct{})
	}
	var t *time.Timer
	t = time.AfterFunc(delay, func() {
		r.mu.Lock()
		_, live := r.timers[t]
		delete(r.timers, t)
		closed := r.closed
		r.mu.Unlock()
		if live && !closed {
			notify()
		}
	})
	r.timers[t] = struct{}{}
	r.mu.Unlock()
}

// Close cancels all pending delayed notifications and marks the registry
// shut down: subsequent delayed notifies are dropped. Read-side methods
// and synchronous notification keep working; Close exists so that a world
// torn down mid-delay does not have oracle notify timers firing
// subscriber callbacks after teardown.
func (r *Registry) Close() {
	r.mu.Lock()
	r.closed = true
	timers := r.timers
	r.timers = nil
	r.mu.Unlock()
	for t := range timers {
		t.Stop()
	}
}

// Suspect records that observer `by` suspects `rank`, returning true when
// this raises a new (rank, by) suspicion. Suspicion is an unreliable
// verdict: it never reaches failure subscribers and may be withdrawn by
// ClearSuspect. Suspecting an already-confirmed rank is a no-op.
func (r *Registry) Suspect(rank, by int) bool {
	r.mu.Lock()
	if rank < 0 || rank >= len(r.failed) {
		r.mu.Unlock()
		panic(fmt.Sprintf("detector: Suspect(%d) out of range [0,%d)", rank, len(r.failed)))
	}
	if r.confirmed[rank] || (r.suspectedBy[rank] != nil && r.suspectedBy[rank][by]) {
		r.mu.Unlock()
		return false
	}
	if r.suspectedBy[rank] == nil {
		r.suspectedBy[rank] = make(map[int]bool)
	}
	r.suspectedBy[rank][by] = true
	ev := SuspicionEvent{Kind: SuspectRaised, Rank: rank, By: by, SinceDeath: r.sinceDeathLocked(rank)}
	subs := make([]func(SuspicionEvent), len(r.suspicion))
	copy(subs, r.suspicion)
	r.mu.Unlock()
	for _, fn := range subs {
		fn(ev)
	}
	return true
}

// ClearSuspect withdraws observer `by`'s suspicion of `rank` (alive
// evidence arrived after all). Returns true when a live suspicion was cleared.
func (r *Registry) ClearSuspect(rank, by int) bool {
	r.mu.Lock()
	if rank < 0 || rank >= len(r.failed) {
		r.mu.Unlock()
		panic(fmt.Sprintf("detector: ClearSuspect(%d) out of range [0,%d)", rank, len(r.failed)))
	}
	if r.suspectedBy[rank] == nil || !r.suspectedBy[rank][by] || r.confirmed[rank] {
		r.mu.Unlock()
		return false
	}
	delete(r.suspectedBy[rank], by)
	ev := SuspicionEvent{Kind: SuspectCleared, Rank: rank, By: by, SinceDeath: r.sinceDeathLocked(rank)}
	subs := make([]func(SuspicionEvent), len(r.suspicion))
	copy(subs, r.suspicion)
	r.mu.Unlock()
	for _, fn := range subs {
		fn(ev)
	}
	return true
}

// Confirm promotes a ground-truth-dead rank to notified-failed: failure
// subscribers fire exactly once, from the first confirming observer. It
// panics if the rank is still alive — that would be a strong-accuracy
// violation, and the fencing protocol exists precisely to make it
// impossible (a fence ack is only ever sent after the suspect killed
// itself). Returns true for the confirming call, false for later ones.
func (r *Registry) Confirm(rank, by int) bool {
	return r.confirm(rank, by, -1)
}

// ConfirmGen is Confirm for elastic worlds: gen is the generation the
// observer captured when it armed the fence. If the slot has since been
// revived past that generation, the confirmation is for a previous
// incarnation — a stale fence ack that raced the revive — and is silently
// dropped instead of panicking. The accuracy panic still fires when the
// generation is current and the rank is alive, because then the fencing
// invariant itself was broken.
func (r *Registry) ConfirmGen(rank, by, gen int) bool {
	return r.confirm(rank, by, gen)
}

// confirm implements Confirm/ConfirmGen; gen < 0 skips the generation
// staleness check (the non-elastic path, where slots never revive).
func (r *Registry) confirm(rank, by, gen int) bool {
	r.mu.Lock()
	if rank < 0 || rank >= len(r.failed) {
		r.mu.Unlock()
		panic(fmt.Sprintf("detector: Confirm(%d) out of range [0,%d)", rank, len(r.failed)))
	}
	if gen >= 0 && r.generation[rank] != gen {
		r.mu.Unlock()
		return false
	}
	if !r.failed[rank] {
		r.mu.Unlock()
		panic(fmt.Sprintf("detector: Confirm(%d) of a live rank — accuracy violation", rank))
	}
	if r.confirmed[rank] {
		r.mu.Unlock()
		return false
	}
	r.confirmed[rank] = true
	sinceDeath := r.sinceDeathLocked(rank)
	subs := make([]Subscriber, len(r.subscribers))
	copy(subs, r.subscribers)
	ssubs := make([]func(SuspicionEvent), len(r.suspicion))
	copy(ssubs, r.suspicion)
	obs := r.notifyObs
	r.cond.Broadcast()
	r.mu.Unlock()

	for _, fn := range subs {
		fn(rank)
	}
	if obs != nil {
		obs(rank, sinceDeath)
	}
	ev := SuspicionEvent{Kind: SuspectConfirmed, Rank: rank, By: by, SinceDeath: sinceDeath}
	for _, fn := range ssubs {
		fn(ev)
	}
	return true
}

// SubscribeRevive registers a callback invoked (outside the registry
// mutex) whenever a confirmed-dead slot is revived at a new generation.
// Elastic worlds use it to clear per-peer failure state on survivors
// before the reincarnation starts talking.
func (r *Registry) SubscribeRevive(fn func(rank, gen int)) {
	r.mu.Lock()
	r.reviveSubs = append(r.reviveSubs, fn)
	r.mu.Unlock()
}

// Revive returns a confirmed-dead slot to the alive state at the next
// generation, replacing the registry's one-shot death model for elastic
// worlds. It requires the death to have been fully notified (confirmed):
// reviving a dead-but-unconfirmed slot would race the fencing protocol's
// accuracy argument — survivors could Confirm the old incarnation after
// the new one is alive. The new generation number is returned; revive
// subscribers fire outside the mutex, before Revive returns.
func (r *Registry) Revive(rank int) int {
	r.mu.Lock()
	if rank < 0 || rank >= len(r.failed) {
		r.mu.Unlock()
		panic(fmt.Sprintf("detector: Revive(%d) out of range [0,%d)", rank, len(r.failed)))
	}
	if !r.failed[rank] {
		r.mu.Unlock()
		panic(fmt.Sprintf("detector: Revive(%d) of a live rank", rank))
	}
	if !r.confirmed[rank] {
		r.mu.Unlock()
		panic(fmt.Sprintf("detector: Revive(%d) before its death was confirmed", rank))
	}
	r.failed[rank] = false
	r.confirmed[rank] = false
	r.diedAt[rank] = time.Time{}
	r.suspectedBy[rank] = nil
	r.generation[rank]++
	gen := r.generation[rank]
	r.aliveCount++
	r.epoch++
	subs := make([]func(int, int), len(r.reviveSubs))
	copy(subs, r.reviveSubs)
	r.cond.Broadcast()
	r.mu.Unlock()
	for _, fn := range subs {
		fn(rank, gen)
	}
	return gen
}

// SinceDeath returns the time elapsed since rank's ground-truth death,
// and ok=false when the rank is alive. Elastic respawn samples it before
// Revive clears the death timestamp, to feed the recovery histogram.
func (r *Registry) SinceDeath(rank int) (time.Duration, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if rank < 0 || rank >= len(r.failed) {
		panic(fmt.Sprintf("detector: SinceDeath(%d) out of range [0,%d)", rank, len(r.failed)))
	}
	if !r.failed[rank] {
		return 0, false
	}
	return r.sinceDeathLocked(rank), true
}

// sinceDeathLocked returns time since rank's ground-truth death, or a
// negative sentinel when the rank is still alive. Caller holds mu.
func (r *Registry) sinceDeathLocked(rank int) time.Duration {
	if !r.failed[rank] {
		return -1
	}
	return time.Since(r.diedAt[rank])
}

// Failed reports whether rank has failed (ground truth). Panics on
// out-of-range ranks so that indexing bugs surface immediately.
func (r *Registry) Failed(rank int) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if rank < 0 || rank >= len(r.failed) {
		panic(fmt.Sprintf("detector: Failed(%d) out of range [0,%d)", rank, len(r.failed)))
	}
	return r.failed[rank]
}

// Confirmed reports whether rank's failure notifications have been
// delivered (in oracle mode this tracks Failed exactly).
func (r *Registry) Confirmed(rank int) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if rank < 0 || rank >= len(r.confirmed) {
		panic(fmt.Sprintf("detector: Confirmed(%d) out of range [0,%d)", rank, len(r.confirmed)))
	}
	return r.confirmed[rank]
}

// Suspected reports whether any observer currently suspects rank.
func (r *Registry) Suspected(rank int) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if rank < 0 || rank >= len(r.suspectedBy) {
		panic(fmt.Sprintf("detector: Suspected(%d) out of range [0,%d)", rank, len(r.suspectedBy)))
	}
	return len(r.suspectedBy[rank]) > 0
}

// State returns the detector state of rank: ground-truth death wins,
// then live suspicion, then Alive.
func (r *Registry) State(rank int) State {
	r.mu.Lock()
	defer r.mu.Unlock()
	if rank < 0 || rank >= len(r.failed) {
		panic(fmt.Sprintf("detector: State(%d) out of range [0,%d)", rank, len(r.failed)))
	}
	switch {
	case r.failed[rank]:
		return Failed
	case len(r.suspectedBy[rank]) > 0:
		return Suspected
	default:
		return Alive
	}
}

// Generation returns the incarnation number of rank. It starts at 1 and
// is bumped by every Revive, so a slot's generation names exactly one
// incarnation; the RankInfo plumbing matches the proposal's interface.
func (r *Registry) Generation(rank int) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	if rank < 0 || rank >= len(r.generation) {
		panic(fmt.Sprintf("detector: Generation(%d) out of range [0,%d)", rank, len(r.generation)))
	}
	return r.generation[rank]
}

// AliveCount returns the number of ranks that have not failed.
func (r *Registry) AliveCount() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.aliveCount
}

// FailedCount returns the number of ranks that have failed.
func (r *Registry) FailedCount() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.failed) - r.aliveCount
}

// Snapshot returns the sorted list of failed ranks (ground truth).
func (r *Registry) Snapshot() []int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.snapshotLocked()
}

func (r *Registry) snapshotLocked() []int {
	out := make([]int, 0, len(r.failed)-r.aliveCount)
	for rank, f := range r.failed {
		if f {
			out = append(out, rank)
		}
	}
	sort.Ints(out)
	return out
}

// Alive returns the sorted list of alive ranks.
func (r *Registry) Alive() []int {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]int, 0, r.aliveCount)
	for rank, f := range r.failed {
		if !f {
			out = append(out, rank)
		}
	}
	return out
}

// LowestAlive returns the smallest alive rank, mirroring the leader
// election of the paper's Figure 12. ok is false when everyone has failed.
func (r *Registry) LowestAlive() (rank int, ok bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i, f := range r.failed {
		if !f {
			return i, true
		}
	}
	return -1, false
}

// Epoch returns a counter that increases on every failure. Pollers can use
// it to cheaply detect "some failure happened since I last looked".
func (r *Registry) Epoch() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.epoch
}

// WaitEpochChange blocks until the failure epoch differs from since, or
// returns immediately if it already does. It returns the current epoch.
// It serves waiters that must wake when any failure occurs.
func (r *Registry) WaitEpochChange(since uint64) uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	for r.epoch == since {
		r.cond.Wait()
	}
	return r.epoch
}

// BroadcastWaiters wakes all WaitEpochChange callers without changing the
// epoch. The runtime uses it during world shutdown so that no protocol
// driver is left blocked forever.
func (r *Registry) BroadcastWaiters() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.cond.Broadcast()
}
