// Package trace records the communication-level events of a run so that
// the paper's failure-scenario figures (Figs. 6, 7, 8 and 10) can be
// reproduced and *verified* rather than merely narrated. The fault
// injector, the MPI engine, and the ring application all emit events; the
// scenario tests then assert on the recorded sequences (e.g. "rank 1
// resent the iteration-2 buffer to rank 3 after rank 2 failed", or "rank 3
// never forwarded a duplicate").
//
// The recorder is built to stay enabled under benchmark load: events land
// in per-shard append buffers (sharded by rank) behind per-shard locks,
// per-kind and per-(rank,kind) tallies are maintained incrementally so
// Count/CountBy/First never copy the event log, and bounded recorders run
// in flight-recorder mode — a ring that keeps the NEWEST events, because
// when something goes wrong it is the failure tail, not the warm-up, that
// explains it. Events can additionally be streamed to a sink (SetSink)
// for JSONL export and Chrome-trace conversion (cmd/traceconv).
package trace

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Kind classifies a recorded event.
type Kind int

const (
	// SendPosted is a send handed to the fabric.
	SendPosted Kind = iota
	// RecvPosted is a receive posted to the matching engine.
	RecvPosted
	// RecvCompleted is a receive that matched and completed successfully.
	RecvCompleted
	// OpFailed is any operation that returned an error (e.g. rank-fail-stop).
	OpFailed
	// Killed marks a rank's fail-stop death.
	Killed
	// Resend marks an application-level retransmission (Fig. 7).
	Resend
	// DupDropped marks a duplicate suppressed by the iteration marker (Fig. 10).
	DupDropped
	// DupForwarded marks a duplicate forwarded because markers were
	// disabled — the Fig. 8 failure mode.
	DupForwarded
	// IterDone marks a rank completing one ring iteration.
	IterDone
	// Elected marks a rank discovering a new root (Fig. 12 outcome).
	Elected
	// TermSent and TermRecv bracket termination-detection messages (Fig. 11).
	TermSent
	// TermRecv marks termination notification receipt.
	TermRecv
	// ValidateDone marks completion of MPI_Comm_validate_all (Fig. 13).
	ValidateDone
	// ChaosDrop marks a frame dropped by the chaos fabric.
	ChaosDrop
	// ChaosDup marks a frame duplicated by the chaos fabric.
	ChaosDup
	// ChaosCorrupt marks a payload bit-flipped by the chaos fabric.
	ChaosCorrupt
	// ChaosDelay marks a frame held for delay jitter by the chaos fabric.
	ChaosDelay
	// ChaosReorder marks a frame delivered out of order by the chaos fabric.
	ChaosReorder
	// ChaosPartition marks a frame eaten by a scheduled link partition.
	ChaosPartition
	// FrameRetry marks a reliability-sublayer retransmission.
	FrameRetry
	// FrameReject marks a frame rejected for an end-to-end CRC mismatch.
	FrameReject
	// FrameDedup marks a duplicate frame suppressed by sequence tracking.
	FrameDedup
	// LinkEscalated marks a peer demoted to fail-stop after retry exhaustion.
	LinkEscalated
	// Suspected marks a SWIM monitor raising suspicion of a peer.
	Suspected
	// SuspectCleared marks a suspicion withdrawn (alive evidence arrived).
	SuspectCleared
	// FenceSent marks a fence notice ordered at a suspected peer.
	FenceSent
	// SelfFenced marks a rank fencing itself (probe acks stale).
	SelfFenced
	// Confirmed marks a suspected peer confirmed dead (fence ack or
	// ground truth), releasing the failure notification.
	Confirmed
	// ProbeTimeout marks a SWIM probe transaction expiring unanswered
	// (direct and indirect probes both failed; the target is suspected).
	ProbeTimeout
	// Refuted marks a rank bumping its incarnation to refute a gossiped
	// suspicion of itself.
	Refuted
	// StaleGenDrop marks a frame rejected by the engine's generation
	// fence: stamped for (or by) a dead incarnation of its slot.
	StaleGenDrop
	// Respawned marks a dead slot reincarnated at a new generation.
	Respawned
	// ShrinkDone marks a completed Comm.Shrink on the recording rank.
	ShrinkDone
	// Promoted marks a standby replica taking over as primary of its
	// logical rank after the previous primary died (replication mode).
	Promoted
	// Delivered marks a data message completing a receive on the
	// destination rank (matched against a posted or later-arriving
	// receive). Together with SendPosted and the accounted-loss kinds it
	// is one side of the conservation audit: every tokened send must end
	// in a Delivered or an accounted loss.
	Delivered
	// DeadDrop marks a frame vanishing at a dead or closed destination
	// engine — the fail-stop analogue of mail to a dead letterbox.
	DeadDrop
	// ReplicaDedup marks a replicated copy suppressed by the
	// logical-channel sequence (RepSeq) below the matching layer.
	ReplicaDedup
	// FramePurged marks an inflight frame abandoned by the reliability
	// sublayer when its link was torn down (peer death, peer reset, or
	// fabric close) — an accounted loss, not a silent one.
	FramePurged
	// Note is a free-form annotation.
	Note
)

// numKinds bounds the dense per-kind tally arrays. Note is the last kind.
const numKinds = int(Note) + 1

var kindNames = map[Kind]string{
	SendPosted:     "send",
	RecvPosted:     "recv-post",
	RecvCompleted:  "recv",
	OpFailed:       "op-failed",
	Killed:         "killed",
	Resend:         "resend",
	DupDropped:     "dup-dropped",
	DupForwarded:   "dup-forwarded",
	IterDone:       "iter-done",
	Elected:        "elected",
	TermSent:       "term-sent",
	TermRecv:       "term-recv",
	ValidateDone:   "validate-done",
	ChaosDrop:      "chaos-drop",
	ChaosDup:       "chaos-dup",
	ChaosCorrupt:   "chaos-corrupt",
	ChaosDelay:     "chaos-delay",
	ChaosReorder:   "chaos-reorder",
	ChaosPartition: "chaos-partition",
	FrameRetry:     "frame-retry",
	FrameReject:    "frame-reject",
	FrameDedup:     "frame-dedup",
	LinkEscalated:  "link-escalated",
	Suspected:      "suspect",
	SuspectCleared: "suspect-clear",
	FenceSent:      "fence",
	SelfFenced:     "self-fence",
	Confirmed:      "confirm",
	ProbeTimeout:   "probe-timeout",
	Refuted:        "refuted",
	StaleGenDrop:   "stale-gen-drop",
	Respawned:      "respawned",
	ShrinkDone:     "shrink-done",
	Promoted:       "promoted",
	Delivered:      "delivered",
	DeadDrop:       "dead-drop",
	ReplicaDedup:   "replica-dedup",
	FramePurged:    "frame-purged",
	Note:           "note",
}

// kindByName is the reverse of kindNames, for JSONL decoding.
var kindByName = func() map[string]Kind {
	m := make(map[string]Kind, len(kindNames))
	for k, s := range kindNames {
		m[s] = k
	}
	return m
}()

// String returns the event-kind name used in rendered timelines.
func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// ParseKind resolves a rendered kind name back to its Kind.
func ParseKind(s string) (Kind, bool) {
	k, ok := kindByName[s]
	return k, ok
}

// Event is one recorded occurrence. Peer is the other rank involved (-1
// when not applicable); Iter is the ring iteration marker (-1 when not
// applicable).
//
// Gen, Tok and HLC are the causal-tracing fields (zero when not
// applicable): Gen is the recording rank's incarnation, Tok the message
// identity shared by every event touching one data message on any rank
// (transport.Packet.Token layout: origin rank << 48 | per-origin seq),
// and HLC the hybrid-logical-clock stamp ordering events causally across
// ranks (see HLC).
type Event struct {
	Seq  int
	At   time.Time
	Rank int
	Kind Kind
	Peer int
	Tag  int
	Iter int
	Gen  int
	Tok  uint64
	HLC  uint64
	Note string
}

// String renders one event in the compact timeline form.
func (e Event) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "#%04d r%d %-13s", e.Seq, e.Rank, e.Kind)
	if e.Peer >= 0 {
		fmt.Fprintf(&b, " peer=%d", e.Peer)
	}
	if e.Iter >= 0 {
		fmt.Fprintf(&b, " iter=%d", e.Iter)
	}
	if e.Tok != 0 {
		// Token layout: origin rank << 48 | per-origin sequence.
		fmt.Fprintf(&b, " tok=%d.%d", e.Tok>>48, e.Tok&(1<<48-1))
	}
	if e.Note != "" {
		fmt.Fprintf(&b, " %s", e.Note)
	}
	return b.String()
}

// Sharding. Events are bucketed by rank: each rank records from its own
// goroutine (plus the delivery goroutine of its fabric), so rank-sharding
// turns the old world-wide lock convoy into mostly-uncontended per-shard
// locks. Bounded recorders use fewer shards so that small limits keep
// exact ring semantics within a shard.
const (
	maxShards         = 8
	minEventsPerShard = 64
)

// shard is one append buffer plus its incremental tallies. In bounded
// mode events is a ring of capacity cap: start is the read head, and the
// newest capacity events are retained (per-shard recency, like a per-CPU
// flight-recorder ring).
type shard struct {
	mu       sync.Mutex
	events   []Event
	start    int
	capacity int // ring capacity; 0 = unbounded append

	kindCounts [numKinds]int64
	rankKinds  map[int64]int64 // rank*numKinds + kind -> count (in-range kinds)
	extra      map[[2]int]int64
}

// put stores one event, evicting the oldest when the ring is full.
// Returns true when an event was evicted. Caller holds mu.
func (s *shard) put(e Event) bool {
	if s.capacity <= 0 || len(s.events) < s.capacity {
		s.events = append(s.events, e)
		return false
	}
	s.events[s.start] = e
	s.start = (s.start + 1) % s.capacity
	return true
}

// each iterates the retained events oldest-first. Caller holds mu.
func (s *shard) each(fn func(Event)) {
	for i := s.start; i < len(s.events); i++ {
		fn(s.events[i])
	}
	for i := 0; i < s.start; i++ {
		fn(s.events[i])
	}
}

// tally bumps the incremental counters. Caller holds mu.
func (s *shard) tally(rank int, kind Kind) {
	if kind >= 0 && int(kind) < numKinds {
		s.kindCounts[kind]++
		if s.rankKinds == nil {
			s.rankKinds = make(map[int64]int64, 8)
		}
		s.rankKinds[int64(rank)*int64(numKinds)+int64(kind)]++
		return
	}
	if s.extra == nil {
		s.extra = make(map[[2]int]int64, 2)
	}
	s.extra[[2]int{rank, int(kind)}]++
}

// Recorder accumulates events. The zero value is unusable; use New. A nil
// *Recorder is valid everywhere and records nothing, so tracing can be
// disabled without branching at every call site.
type Recorder struct {
	limit  int
	shards []shard

	seq       atomic.Int64
	truncated atomic.Int64
	firsts    [numKinds]atomic.Pointer[Event]
	sink      atomic.Pointer[func(Event)]
}

// New creates a recorder. limit 0 means unbounded; limit > 0 selects
// flight-recorder mode: the newest events are retained (per shard),
// evicted events are tallied in Truncated, and the incremental counters
// (Count, CountBy, First, Len-independent tallies) keep covering ALL
// recorded events — exactly what a post-mortem needs after a long soak.
func New(limit int) *Recorder {
	nShards := maxShards
	if limit > 0 {
		nShards = limit / minEventsPerShard
		if nShards < 1 {
			nShards = 1
		}
		if nShards > maxShards {
			nShards = maxShards
		}
	}
	r := &Recorder{limit: limit, shards: make([]shard, nShards)}
	if limit > 0 {
		base, rem := limit/nShards, limit%nShards
		for i := range r.shards {
			r.shards[i].capacity = base
			if i < rem {
				r.shards[i].capacity++
			}
		}
	}
	return r
}

// shardFor picks the shard for a rank.
func (r *Recorder) shardFor(rank int) *shard {
	n := len(r.shards)
	idx := rank % n
	if idx < 0 {
		idx += n
	}
	return &r.shards[idx]
}

// Record appends an event. Safe for concurrent use; a nil recorder drops
// the event.
func (r *Recorder) Record(rank int, kind Kind, peer, tag, iter int, note string) {
	r.RecordMsg(rank, kind, peer, tag, iter, 0, 0, 0, note)
}

// RecordMsg appends an event carrying the causal-tracing fields: the
// recording incarnation's generation, the message token, and the HLC
// stamp. The runtime's message-lifecycle taps use it; Record remains the
// entry point for events with no message identity.
func (r *Recorder) RecordMsg(rank int, kind Kind, peer, tag, iter, gen int, tok, hlc uint64, note string) {
	if r == nil {
		return
	}
	e := Event{
		Seq:  int(r.seq.Add(1)) - 1,
		At:   time.Now(),
		Rank: rank,
		Kind: kind,
		Peer: peer,
		Tag:  tag,
		Iter: iter,
		Gen:  gen,
		Tok:  tok,
		HLC:  hlc,
		Note: note,
	}
	s := r.shardFor(rank)
	s.mu.Lock()
	evicted := s.put(e)
	s.tally(rank, kind)
	s.mu.Unlock()
	if evicted {
		r.truncated.Add(1)
	}
	r.noteFirst(e)
	if fn := r.sink.Load(); fn != nil {
		(*fn)(e)
	}
}

// noteFirst keeps the earliest-recorded event per kind, lock-free. The
// CAS loop settles on the minimum Seq even when records race.
func (r *Recorder) noteFirst(e Event) {
	if e.Kind < 0 || int(e.Kind) >= numKinds {
		return
	}
	slot := &r.firsts[e.Kind]
	for {
		cur := slot.Load()
		if cur != nil && cur.Seq <= e.Seq {
			return
		}
		ec := e
		if slot.CompareAndSwap(cur, &ec) {
			return
		}
	}
}

// SetSink registers a streaming observer called once per recorded event,
// outside the recorder's locks. Events from different shards may arrive
// out of Seq order; consumers that need total order sort by Seq (as
// cmd/traceconv does). Pass nil to detach.
func (r *Recorder) SetSink(fn func(Event)) {
	if r == nil {
		return
	}
	if fn == nil {
		r.sink.Store(nil)
		return
	}
	r.sink.Store(&fn)
}

// Notef records a free-form annotation for rank.
func (r *Recorder) Notef(rank int, format string, args ...any) {
	r.Record(rank, Note, -1, -1, -1, fmt.Sprintf(format, args...))
}

// Events returns a copy of the retained events in record (Seq) order. In
// flight-recorder mode this is the newest window; Truncated reports how
// many older events were evicted.
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	out := make([]Event, 0, r.Len())
	for i := range r.shards {
		s := &r.shards[i]
		s.mu.Lock()
		s.each(func(e Event) { out = append(out, e) })
		s.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// Len returns the number of retained events.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	n := 0
	for i := range r.shards {
		s := &r.shards[i]
		s.mu.Lock()
		n += len(s.events)
		s.mu.Unlock()
	}
	return n
}

// Recorded returns the total number of events ever recorded, including
// any evicted by flight-recorder mode.
func (r *Recorder) Recorded() int64 {
	if r == nil {
		return 0
	}
	return r.seq.Load()
}

// Truncated returns how many events flight-recorder mode has evicted.
func (r *Recorder) Truncated() int64 {
	if r == nil {
		return 0
	}
	return r.truncated.Load()
}

// Filter returns the retained events matching pred, in record order. Only
// the matches are copied.
func (r *Recorder) Filter(pred func(Event) bool) []Event {
	if r == nil {
		return nil
	}
	var out []Event
	for i := range r.shards {
		s := &r.shards[i]
		s.mu.Lock()
		s.each(func(e Event) {
			if pred(e) {
				out = append(out, e)
			}
		})
		s.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// Count returns the number of recorded events of the given kind
// (including events evicted by flight-recorder mode), from the
// incremental tallies — no event copying.
func (r *Recorder) Count(kind Kind) int64 {
	if r == nil {
		return 0
	}
	var n int64
	for i := range r.shards {
		s := &r.shards[i]
		s.mu.Lock()
		if kind >= 0 && int(kind) < numKinds {
			n += s.kindCounts[kind]
		} else {
			for key, c := range s.extra {
				if key[1] == int(kind) {
					n += c
				}
			}
		}
		s.mu.Unlock()
	}
	return n
}

// CountBy returns the number of recorded events of the given kind at the
// given rank, from the incremental tallies.
func (r *Recorder) CountBy(rank int, kind Kind) int64 {
	if r == nil {
		return 0
	}
	if kind < 0 || int(kind) >= numKinds {
		var n int64
		for i := range r.shards {
			s := &r.shards[i]
			s.mu.Lock()
			n += s.extra[[2]int{rank, int(kind)}]
			s.mu.Unlock()
		}
		return n
	}
	s := r.shardFor(rank)
	key := int64(rank)*int64(numKinds) + int64(kind)
	s.mu.Lock()
	n := s.rankKinds[key]
	s.mu.Unlock()
	return n
}

// First returns the earliest-recorded event of the given kind, if any.
// The answer covers all recorded events, even ones later evicted by
// flight-recorder mode.
func (r *Recorder) First(kind Kind) (Event, bool) {
	if r == nil {
		return Event{}, false
	}
	if kind >= 0 && int(kind) < numKinds {
		if e := r.firsts[kind].Load(); e != nil {
			return *e, true
		}
		return Event{}, false
	}
	best, found := Event{}, false
	for i := range r.shards {
		s := &r.shards[i]
		s.mu.Lock()
		s.each(func(e Event) {
			if e.Kind == kind && (!found || e.Seq < best.Seq) {
				best, found = e, true
			}
		})
		s.mu.Unlock()
	}
	return best, found
}

// HappensBefore reports whether some retained event satisfying a precedes
// (in record order) some retained event satisfying b. Scenario tests use
// it to check causal claims such as "rank 2's death precedes rank 1's
// resend". The scan allocates nothing.
func (r *Recorder) HappensBefore(a, b func(Event) bool) bool {
	if r == nil {
		return false
	}
	firstA := -1
	for i := range r.shards {
		s := &r.shards[i]
		s.mu.Lock()
		s.each(func(e Event) {
			if a(e) && (firstA < 0 || e.Seq < firstA) {
				firstA = e.Seq
			}
		})
		s.mu.Unlock()
	}
	if firstA < 0 {
		return false
	}
	found := false
	for i := range r.shards {
		s := &r.shards[i]
		s.mu.Lock()
		s.each(func(e Event) {
			if !found && e.Seq > firstA && b(e) {
				found = true
			}
		})
		s.mu.Unlock()
		if found {
			return true
		}
	}
	return false
}

// Render formats the full event log, one event per line.
func (r *Recorder) Render() string {
	var b strings.Builder
	for _, e := range r.Events() {
		b.WriteString(e.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// RenderByRank formats per-rank timelines, ranks in ascending order, the
// way the paper's figures present one horizontal lane per process.
func (r *Recorder) RenderByRank() string {
	lanes := make(map[int][]Event)
	for _, e := range r.Events() {
		lanes[e.Rank] = append(lanes[e.Rank], e)
	}
	ranks := make([]int, 0, len(lanes))
	for rank := range lanes {
		ranks = append(ranks, rank)
	}
	sort.Ints(ranks)
	var b strings.Builder
	for _, rank := range ranks {
		fmt.Fprintf(&b, "P%d:\n", rank)
		for _, e := range lanes[rank] {
			fmt.Fprintf(&b, "  %s\n", e.String())
		}
	}
	return b.String()
}
