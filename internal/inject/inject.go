// Package inject builds deterministic fault-injection plans for the MPI
// runtime. The paper (Section III-E) identifies fault injection as "the
// most popular technique available to application developers" for
// validating ABFT designs; this package is that tool for our runtime,
// with a precision real injectors lack: failures are placed at exact
// operation boundaries ("rank 2, immediately after its 3rd receive
// completes"), so every scenario figure of the paper replays identically
// on every run.
//
// A Plan is a set of triggers; Plan.Hook adapts it to mpi.Config.Hook.
// Triggers count events per (rank, hook point) and fire a kill when their
// condition matches. Random plans draw kill points from a seeded
// generator for soak-style testing, remaining reproducible per seed.
//
// The hook sits on every send, receive and checkpoint of every rank, so
// an event that kills nobody costs one atomic add on that rank's own
// counter and one Matches call per unfired trigger: no lock shared
// between ranks, no allocation, no formatting. Describe and the log line
// are rendered only when a trigger fires.
package inject

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/mpi"
)

// Trigger decides whether the observed event should kill the rank.
// Matches runs on the rank goroutines, several at once, with no plan lock
// held; implementations must be safe for that and must not block.
type Trigger interface {
	// Matches inspects the event together with the per-(rank,point) event
	// ordinal (1-based: this is the n-th such event on this rank).
	Matches(ev mpi.HookEvent, ordinal int) bool
	// Describe renders the trigger for logs and DESIGN/EXPERIMENTS tables.
	Describe() string
}

// numPoints is the number of hook points the runtime defines; ordinals
// live in one array slot per point.
const numPoints = int(mpi.HookChainForward) + 1

// rankCounts holds one rank's event ordinals, one per hook point. Atomic
// because replicas of a logical rank, and the delivery goroutine at
// HookChainForward, report events under the same rank.
type rankCounts [numPoints]atomic.Int64

// armed is a trigger with its fired-once flag.
type armed struct {
	tr    Trigger
	fired atomic.Bool
}

// Plan is a deterministic fault-injection schedule.
type Plan struct {
	// triggers and ranks are immutable snapshots, replaced copy-on-write
	// under mu (by Add, and when an event names a rank beyond the table)
	// and read lock-free by the hook.
	triggers atomic.Pointer[[]*armed]
	ranks    atomic.Pointer[[]*rankCounts]

	mu  sync.Mutex
	log []string
}

// NewPlan creates an empty plan (which never kills anything).
func NewPlan() *Plan { return &Plan{} }

// armedTriggers returns the current trigger snapshot (nil when empty).
func (p *Plan) armedTriggers() []*armed {
	if ts := p.triggers.Load(); ts != nil {
		return *ts
	}
	return nil
}

// Add appends triggers to the plan and returns the plan for chaining. It
// may be called after Hook; events from then on see the new triggers.
func (p *Plan) Add(ts ...Trigger) *Plan {
	p.mu.Lock()
	defer p.mu.Unlock()
	old := p.armedTriggers()
	next := make([]*armed, len(old), len(old)+len(ts))
	copy(next, old)
	for _, tr := range ts {
		next = append(next, &armed{tr: tr})
	}
	p.triggers.Store(&next)
	return p
}

// ordinal counts the event and returns its 1-based index among this
// rank's events at this hook point.
func (p *Plan) ordinal(ev mpi.HookEvent) int {
	tbl := p.ranks.Load()
	if tbl == nil || ev.Rank >= len(*tbl) {
		tbl = p.growRanks(ev.Rank)
	}
	return int((*tbl)[ev.Rank][ev.Point].Add(1))
}

// growRanks extends the per-rank table to cover rank, keeping the
// counters already handed out.
func (p *Plan) growRanks(rank int) *[]*rankCounts {
	p.mu.Lock()
	defer p.mu.Unlock()
	var old []*rankCounts
	if tbl := p.ranks.Load(); tbl != nil {
		if rank < len(*tbl) {
			return tbl // another rank grew it first
		}
		old = *tbl
	}
	next := make([]*rankCounts, max(rank+1, 2*len(old), 16))
	fresh := make([]rankCounts, len(next)-len(old))
	copy(next, old)
	for i := range fresh {
		next[len(old)+i] = &fresh[i]
	}
	p.ranks.Store(&next)
	return &next
}

// Hook adapts the plan to the runtime's hook interface. Each trigger
// fires at most once (a fail-stop rank cannot die twice).
func (p *Plan) Hook() mpi.HookFunc {
	return func(ev mpi.HookEvent) mpi.Action {
		if ev.Rank < 0 || ev.Point < 0 || int(ev.Point) >= numPoints {
			return mpi.ActNone // not an event the runtime emits
		}
		ordinal := p.ordinal(ev)
		for _, a := range p.armedTriggers() {
			if a.fired.Load() || !a.tr.Matches(ev, ordinal) {
				continue
			}
			if !a.fired.CompareAndSwap(false, true) {
				continue // a replica sharing this rank fired it first
			}
			line := fmt.Sprintf("kill rank %d at %s #%d (%s)",
				ev.Rank, ev.Point, ordinal, a.tr.Describe())
			p.mu.Lock()
			p.log = append(p.log, line)
			p.mu.Unlock()
			return mpi.ActKill
		}
		return mpi.ActNone
	}
}

// Log returns the human-readable record of fired triggers.
func (p *Plan) Log() []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]string(nil), p.log...)
}

// FiredCount returns how many triggers have fired.
func (p *Plan) FiredCount() int {
	n := 0
	for _, a := range p.armedTriggers() {
		if a.fired.Load() {
			n++
		}
	}
	return n
}

// String lists the plan's triggers.
func (p *Plan) String() string {
	ts := p.armedTriggers()
	descs := make([]string, len(ts))
	for i, a := range ts {
		descs[i] = a.tr.Describe()
	}
	return strings.Join(descs, "; ")
}

// --- concrete triggers -------------------------------------------------------

type afterNth struct {
	rank  int
	point mpi.HookPoint
	n     int
}

// Matches implements Trigger.
func (t afterNth) Matches(ev mpi.HookEvent, ordinal int) bool {
	return ev.Rank == t.rank && ev.Point == t.point && ordinal == t.n
}

// Describe implements Trigger.
func (t afterNth) Describe() string {
	return fmt.Sprintf("rank %d @ %s #%d", t.rank, t.point, t.n)
}

// AfterNthRecv kills rank immediately after its n-th (1-based) observed
// receive completion — the Figure 6/7 placement ("P2 fails after
// receiving the buffer but before sending it on").
func AfterNthRecv(rank, n int) Trigger {
	return afterNth{rank: rank, point: mpi.HookAfterRecv, n: n}
}

// AfterNthSend kills rank immediately after its n-th send is accepted by
// the fabric — the Figure 8 placement ("P2 fails as P3 sends to P0"): the
// forwarded message stays deliverable.
func AfterNthSend(rank, n int) Trigger {
	return afterNth{rank: rank, point: mpi.HookAfterSend, n: n}
}

// BeforeNthSend kills rank just before its n-th send would be handed to
// the fabric: the message is never sent.
func BeforeNthSend(rank, n int) Trigger {
	return afterNth{rank: rank, point: mpi.HookBeforeSend, n: n}
}

type atCheckpoint struct {
	rank  int
	label string
}

// Matches implements Trigger. The plan's fired-once bookkeeping limits
// the kill to the first matching checkpoint.
func (t atCheckpoint) Matches(ev mpi.HookEvent, _ int) bool {
	return ev.Rank == t.rank && ev.Point == mpi.HookCheckpoint && ev.Label == t.label
}

// Describe implements Trigger.
func (t atCheckpoint) Describe() string {
	return fmt.Sprintf("rank %d @ checkpoint %q", t.rank, t.label)
}

// AtCheckpoint kills rank at its first Proc.Checkpoint(label).
func AtCheckpoint(rank int, label string) Trigger {
	return atCheckpoint{rank: rank, label: label}
}

// --- random schedules ---------------------------------------------------------

// RandomPlan kills `failures` distinct ranks drawn from candidates, each
// at a receive ordinal drawn from [1, maxOrdinal]. The schedule is fully
// determined by seed, making soak failures reproducible. It returns the
// plan and the chosen (rank, ordinal) pairs sorted by rank.
func RandomPlan(seed int64, candidates []int, failures, maxOrdinal int) (*Plan, [][2]int) {
	if failures > len(candidates) {
		failures = len(candidates)
	}
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(len(candidates))
	chosen := make([][2]int, 0, failures)
	for i := 0; i < failures; i++ {
		rank := candidates[perm[i]]
		ord := 1 + rng.Intn(maxOrdinal)
		chosen = append(chosen, [2]int{rank, ord})
	}
	sort.Slice(chosen, func(i, j int) bool { return chosen[i][0] < chosen[j][0] })
	triggers := make([]Trigger, len(chosen))
	for i, c := range chosen {
		triggers[i] = AfterNthRecv(c[0], c[1])
	}
	return NewPlan().Add(triggers...), chosen
}
