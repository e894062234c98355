// Package membership implements a SWIM-style membership protocol
// (Das, Gupta & Motivala 2002), the runtime's network failure detector
// (the oracle is the other mode): instead of an all-to-all heartbeat
// mesh's O(N²) pings per interval, each rank probes ONE randomized peer
// per protocol period, falls back to k indirect probes via relays on
// timeout, and disseminates suspect/alive/confirm events epidemically by
// piggybacking a bounded gossip buffer on the control frames it was
// sending anyway — O(1) control traffic per rank per period.
//
// Accuracy comes from detector.Fencer: a suspect is killed before anyone
// is told it failed, and only the confirm-gated Registry reports a
// failure. A falsely suspected rank refutes by bumping its incarnation
// and gossiping alive; the refutation drains the pending fence like any
// other late alive evidence.
package membership

import (
	"encoding/binary"
	"fmt"
	"sort"
	"sync"
)

// EventKind classifies one gossip event.
type EventKind uint8

const (
	// EvAlive asserts Rank is alive at incarnation Inc (a refutation, or
	// a relayed one).
	EvAlive EventKind = iota + 1
	// EvSuspect asserts some member suspects Rank at incarnation Inc.
	EvSuspect
	// EvConfirm asserts Rank's failure was confirmed (fenced and dead).
	// Incarnation is irrelevant: confirmation is final.
	EvConfirm
)

// String returns the event-kind name.
func (k EventKind) String() string {
	switch k {
	case EvAlive:
		return "alive"
	case EvSuspect:
		return "suspect"
	case EvConfirm:
		return "confirm"
	default:
		return fmt.Sprintf("EventKind(%d)", int(k))
	}
}

// Event is one membership assertion spread by gossip.
type Event struct {
	Kind EventKind
	Rank int
	Inc  uint32 // incarnation number of Rank the assertion refers to
}

// Supersedes reports whether event a makes event b (about the same rank)
// obsolete, per the SWIM order: confirm beats everything, a higher
// incarnation beats a lower one, and at equal incarnation suspect beats
// alive (so a refutation must bump the incarnation to win).
func Supersedes(a, b Event) bool {
	if a.Rank != b.Rank {
		return false
	}
	if b.Kind == EvConfirm {
		return false // nothing supersedes a confirmation
	}
	if a.Kind == EvConfirm {
		return true
	}
	if a.Inc != b.Inc {
		return a.Inc > b.Inc
	}
	return a.Kind == EvSuspect && b.Kind == EvAlive
}

// Buffer is the bounded piggyback buffer: at most one current event per
// rank, each retransmitted on at most TTL outbound frames, lowest
// send-count first (freshest news travels first). All methods are safe
// for concurrent use.
type Buffer struct {
	mu      sync.Mutex
	cap     int // max distinct events held
	ttl     int // piggyback transmissions per event before retirement
	entries map[int]*bufEntry
}

type bufEntry struct {
	ev    Event
	sends int
}

// NewBuffer creates a buffer holding at most capacity events, each
// piggybacked on at most ttl frames.
func NewBuffer(capacity, ttl int) *Buffer {
	if capacity <= 0 {
		panic(fmt.Sprintf("membership: buffer capacity must be positive, got %d", capacity))
	}
	if ttl <= 0 {
		panic(fmt.Sprintf("membership: buffer ttl must be positive, got %d", ttl))
	}
	return &Buffer{cap: capacity, ttl: ttl, entries: make(map[int]*bufEntry)}
}

// Add offers an event for dissemination. A superseded existing entry for
// the same rank is replaced (send count reset — it is fresh news again);
// an event the buffer already carries equal-or-fresher news about is
// dropped. When the buffer is full, the most-transmitted entry is
// evicted to make room: it has had the most chances to spread.
// Returns true when the event was accepted.
func (b *Buffer) Add(ev Event) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if cur, ok := b.entries[ev.Rank]; ok {
		if !Supersedes(ev, cur.ev) {
			return false
		}
		cur.ev, cur.sends = ev, 0
		return true
	}
	if len(b.entries) >= b.cap {
		victim, most := -1, -1
		for rank, e := range b.entries {
			if e.sends > most || (e.sends == most && rank > victim) {
				victim, most = rank, e.sends
			}
		}
		delete(b.entries, victim)
	}
	b.entries[ev.Rank] = &bufEntry{ev: ev}
	return true
}

// Pick selects up to k events to piggyback on one outbound frame,
// least-transmitted first (ties broken by rank for determinism), bumps
// their send counts, and retires entries that reach the TTL.
func (b *Buffer) Pick(k int) []Event {
	b.mu.Lock()
	defer b.mu.Unlock()
	if k <= 0 || len(b.entries) == 0 {
		return nil
	}
	ranks := make([]int, 0, len(b.entries))
	for rank := range b.entries {
		ranks = append(ranks, rank)
	}
	sort.Slice(ranks, func(i, j int) bool {
		ei, ej := b.entries[ranks[i]], b.entries[ranks[j]]
		if ei.sends != ej.sends {
			return ei.sends < ej.sends
		}
		return ranks[i] < ranks[j]
	})
	if k > len(ranks) {
		k = len(ranks)
	}
	out := make([]Event, 0, k)
	for _, rank := range ranks[:k] {
		e := b.entries[rank]
		out = append(out, e.ev)
		e.sends++
		if e.sends >= b.ttl {
			delete(b.entries, rank)
		}
	}
	return out
}

// Len returns the number of events currently buffered.
func (b *Buffer) Len() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.entries)
}

// --- wire format --------------------------------------------------------------

// Envelope is the payload of every SWIM control frame: the origin of the
// probe transaction (which differs from the packet source on relayed
// probes and forwarded acks), the probe target (used by OpProbeReq and
// echoed in acks), and the piggybacked gossip.
type Envelope struct {
	Origin int
	Target int
	Events []Event
}

// envelopeMagic guards against feeding a non-SWIM payload (or a
// chaos-corrupted one whose CRC was unchecked) to the decoder.
const envelopeMagic = 0x5A

// maxEnvelopeEvents bounds decode-side allocation: no legitimate frame
// piggybacks more events than a full default buffer.
const maxEnvelopeEvents = 256

// Encode serializes the envelope: magic byte, then varint origin,
// target, event count, and per event a kind byte plus varint rank and
// incarnation.
func (e Envelope) Encode() []byte {
	buf := make([]byte, 0, 8+10*len(e.Events))
	buf = append(buf, envelopeMagic)
	buf = binary.AppendUvarint(buf, uint64(e.Origin))
	buf = binary.AppendUvarint(buf, uint64(e.Target))
	buf = binary.AppendUvarint(buf, uint64(len(e.Events)))
	for _, ev := range e.Events {
		buf = append(buf, byte(ev.Kind))
		buf = binary.AppendUvarint(buf, uint64(ev.Rank))
		buf = binary.AppendUvarint(buf, uint64(ev.Inc))
	}
	return buf
}

// DecodeEnvelope parses a SWIM payload. It fails (never panics) on any
// malformed input — truncation, bad magic, absurd counts, unknown event
// kinds — because control frames cross the chaos fabric, which corrupts
// payloads; a frame that does not decode is dropped and the protocol's
// retry/resend loops recover.
func DecodeEnvelope(data []byte) (Envelope, error) {
	var e Envelope
	if len(data) == 0 || data[0] != envelopeMagic {
		return e, fmt.Errorf("membership: bad envelope magic")
	}
	rest := data[1:]
	next := func() (uint64, error) {
		v, n := binary.Uvarint(rest)
		if n <= 0 {
			return 0, fmt.Errorf("membership: truncated envelope varint")
		}
		rest = rest[n:]
		return v, nil
	}
	origin, err := next()
	if err != nil {
		return e, err
	}
	target, err := next()
	if err != nil {
		return e, err
	}
	count, err := next()
	if err != nil {
		return e, err
	}
	if origin > 1<<31 || target > 1<<31 {
		return e, fmt.Errorf("membership: envelope rank out of range")
	}
	if count > maxEnvelopeEvents {
		return e, fmt.Errorf("membership: envelope event count %d too large", count)
	}
	e.Origin, e.Target = int(origin), int(target)
	for i := uint64(0); i < count; i++ {
		if len(rest) == 0 {
			return Envelope{}, fmt.Errorf("membership: truncated envelope event")
		}
		kind := EventKind(rest[0])
		rest = rest[1:]
		if kind != EvAlive && kind != EvSuspect && kind != EvConfirm {
			return Envelope{}, fmt.Errorf("membership: unknown event kind %d", kind)
		}
		rank, err := next()
		if err != nil {
			return Envelope{}, err
		}
		inc, err := next()
		if err != nil {
			return Envelope{}, err
		}
		if rank > 1<<31 || inc > 1<<32-1 {
			return Envelope{}, fmt.Errorf("membership: envelope event field out of range")
		}
		e.Events = append(e.Events, Event{Kind: kind, Rank: int(rank), Inc: uint32(inc)})
	}
	if len(rest) != 0 {
		return Envelope{}, fmt.Errorf("membership: %d trailing bytes after envelope", len(rest))
	}
	return e, nil
}
