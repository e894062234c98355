package trace

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// Span assembly and forensics: reconstructing per-message lifecycles,
// recovery timelines and the conservation audit from a recorded event
// stream (in-memory or decoded from JSONL). Everything here operates on a
// plain []Event, so traceconv can analyze a file from a finished run and
// E23 can assert on a live recorder's events with the same code.

// Token field helpers, mirroring transport.Packet.Token's layout
// (origin physical rank << 48 | per-origin sequence) without importing
// the transport package.
const tokenBits = 48

// TokOrigin extracts the origin physical rank of a causal token.
func TokOrigin(tok uint64) int { return int(tok >> tokenBits) }

// TokSeq extracts the per-origin sequence of a causal token.
func TokSeq(tok uint64) uint64 { return tok & (1<<tokenBits - 1) }

// FormatTok renders a token as "origin.seq".
func FormatTok(tok uint64) string {
	return fmt.Sprintf("%d.%d", TokOrigin(tok), TokSeq(tok))
}

// AccountedLoss reports whether an event kind explains a message that was
// sent but never delivered: the frame was visibly consumed by a fault
// injector, a dedup layer, a fence, or a teardown purge. A tokened send
// with neither a delivery nor one of these is a conservation violation.
func AccountedLoss(k Kind) bool {
	switch k {
	case ChaosDrop, ChaosPartition, FrameDedup, ReplicaDedup,
		StaleGenDrop, DeadDrop, FramePurged:
		return true
	}
	return false
}

// Span is one message's reconstructed lifecycle: every recorded event on
// any rank carrying the message's causal token, ordered causally (by HLC
// stamp, record sequence breaking ties for unstamped events).
type Span struct {
	Tok    uint64
	Events []Event
}

// Origin returns the physical rank that originated the message.
func (s *Span) Origin() int { return TokOrigin(s.Tok) }

// first returns the earliest event satisfying pred, in causal order.
func (s *Span) first(pred func(Event) bool) (Event, bool) {
	for _, e := range s.Events {
		if pred(e) {
			return e, true
		}
	}
	return Event{}, false
}

// Sent reports the first send of the message, if recorded.
func (s *Span) Sent() (Event, bool) {
	return s.first(func(e Event) bool { return e.Kind == SendPosted })
}

// Delivered reports the first delivery of the message, if any copy of it
// reached a destination engine's matching layer.
func (s *Span) Delivered() (Event, bool) {
	return s.first(func(e Event) bool { return e.Kind == Delivered })
}

// Losses returns the accounted-loss events of the span.
func (s *Span) Losses() []Event {
	var out []Event
	for _, e := range s.Events {
		if AccountedLoss(e.Kind) {
			out = append(out, e)
		}
	}
	return out
}

// Retries counts reliability-sublayer retransmissions of the message.
func (s *Span) Retries() int {
	n := 0
	for _, e := range s.Events {
		if e.Kind == FrameRetry {
			n++
		}
	}
	return n
}

// E2E returns the send-to-first-delivery latency from the HLC physical
// components, and whether the span has both endpoints stamped.
func (s *Span) E2E() (time.Duration, bool) {
	snd, ok1 := s.Sent()
	del, ok2 := s.Delivered()
	if !ok1 || !ok2 || snd.HLC == 0 || del.HLC == 0 {
		return 0, false
	}
	return time.Duration(HLCPhysical(del.HLC)-HLCPhysical(snd.HLC)) * time.Microsecond, true
}

// causalLess orders events by HLC stamp where both are stamped, falling
// back to record sequence (unstamped events and same-microsecond ties).
func causalLess(a, b Event) bool {
	if a.HLC != 0 && b.HLC != 0 && a.HLC != b.HLC {
		return a.HLC < b.HLC
	}
	return a.Seq < b.Seq
}

// AssembleSpans groups the tokened events of a stream into per-message
// spans, each causally ordered. Events without a token (control traffic,
// detector events, app-level annotations) are ignored. Spans are returned
// ordered by their first event's causal position.
func AssembleSpans(events []Event) []*Span {
	byTok := make(map[uint64]*Span)
	for _, e := range events {
		if e.Tok == 0 {
			continue
		}
		sp := byTok[e.Tok]
		if sp == nil {
			sp = &Span{Tok: e.Tok}
			byTok[e.Tok] = sp
		}
		sp.Events = append(sp.Events, e)
	}
	out := make([]*Span, 0, len(byTok))
	for _, sp := range byTok {
		sort.Slice(sp.Events, func(i, j int) bool { return causalLess(sp.Events[i], sp.Events[j]) })
		out = append(out, sp)
	}
	sort.Slice(out, func(i, j int) bool { return causalLess(out[i].Events[0], out[j].Events[0]) })
	return out
}

// --- conservation audit -------------------------------------------------------

// AuditReport is the outcome of the conservation check over one event
// stream: every tokened send reconciles to a delivery or an accounted
// loss; anything else is a runtime bug surfaced in Unaccounted.
type AuditReport struct {
	// Sends is the number of distinct messages (unique tokens) sent.
	Sends int
	// Delivers is how many of them reached a destination matching layer
	// at least once.
	Delivers int
	// Accounted is how many undelivered messages have an accounted loss
	// (chaos drop/partition, dedup, stale-generation fence, dead-engine
	// drop, teardown purge).
	Accounted int
	// Unaccounted lists the tokens that were sent but neither delivered
	// nor accounted for — conservation violations.
	Unaccounted []uint64
	// OrphanDelivers lists tokens with a delivery but no recorded send —
	// impossible message identities (a stamping or decoding bug).
	OrphanDelivers []uint64
	// LossKinds tallies the accounted-loss events by kind across the
	// stream (delivered messages' losses included: a deduplicated replica
	// copy of a delivered message still shows up here).
	LossKinds map[Kind]int
}

// Clean reports a fully reconciled stream.
func (a *AuditReport) Clean() bool {
	return len(a.Unaccounted) == 0 && len(a.OrphanDelivers) == 0
}

// String renders the one-line audit summary.
func (a *AuditReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "audit: sends=%d delivered=%d accounted-losses=%d unaccounted=%d orphan-delivers=%d",
		a.Sends, a.Delivers, a.Accounted, len(a.Unaccounted), len(a.OrphanDelivers))
	if len(a.LossKinds) > 0 {
		kinds := make([]Kind, 0, len(a.LossKinds))
		for k := range a.LossKinds {
			kinds = append(kinds, k)
		}
		sort.Slice(kinds, func(i, j int) bool { return kinds[i] < kinds[j] })
		b.WriteString(" (")
		for i, k := range kinds {
			if i > 0 {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "%s=%d", k, a.LossKinds[k])
		}
		b.WriteString(")")
	}
	return b.String()
}

// Audit runs the conservation check over an event stream.
func Audit(events []Event) *AuditReport {
	rep := &AuditReport{LossKinds: map[Kind]int{}}
	for _, sp := range AssembleSpans(events) {
		_, sent := sp.Sent()
		_, delivered := sp.Delivered()
		losses := sp.Losses()
		for _, e := range losses {
			rep.LossKinds[e.Kind]++
		}
		if !sent {
			if delivered {
				rep.OrphanDelivers = append(rep.OrphanDelivers, sp.Tok)
			}
			continue
		}
		rep.Sends++
		switch {
		case delivered:
			rep.Delivers++
		case len(losses) > 0:
			rep.Accounted++
		default:
			rep.Unaccounted = append(rep.Unaccounted, sp.Tok)
		}
	}
	return rep
}

// --- causal validation (traceconv -check) ------------------------------------

// CheckCausal validates the causal-tracing invariants of a stream and
// returns a description of every violation found (empty = clean):
//
//   - per-rank HLC monotonicity: one rank's clock never repeats a stamp
//     (the clock is strictly monotonic, so two events on one rank with
//     equal stamps mean a stamping bug). Record order is deliberately NOT
//     used here: a rank's send path and its fabric delivery goroutine
//     race the log append, so stamps may land out of sequence order
//     without any clock violation.
//   - send-before-deliver: every delivery's HLC stamp is strictly after
//     its message's send stamp.
//   - token closure: every delivery references a token with a recorded
//     send.
func CheckCausal(events []Event) []string {
	var bad []string

	perRank := map[int][]uint64{}
	for _, e := range events {
		if e.HLC != 0 {
			perRank[e.Rank] = append(perRank[e.Rank], e.HLC)
		}
	}
	ranks := make([]int, 0, len(perRank))
	for r := range perRank {
		ranks = append(ranks, r)
	}
	sort.Ints(ranks)
	for _, r := range ranks {
		stamps := perRank[r]
		sort.Slice(stamps, func(i, j int) bool { return stamps[i] < stamps[j] })
		for i := 1; i < len(stamps); i++ {
			if stamps[i] == stamps[i-1] {
				bad = append(bad, fmt.Sprintf("rank %d: HLC stamp %d repeats — clock not strictly monotonic", r, stamps[i]))
			}
		}
	}

	for _, sp := range AssembleSpans(events) {
		snd, sent := sp.Sent()
		del, delivered := sp.Delivered()
		if delivered && !sent {
			bad = append(bad, fmt.Sprintf("token %s: delivered with no recorded send", FormatTok(sp.Tok)))
			continue
		}
		if sent && delivered && snd.HLC != 0 && del.HLC != 0 && del.HLC <= snd.HLC {
			bad = append(bad, fmt.Sprintf("token %s: deliver stamp %d not after send stamp %d",
				FormatTok(sp.Tok), del.HLC, snd.HLC))
		}
	}
	return bad
}

// --- recovery forensics (traceconv -recovery) --------------------------------

// Incident is one rank death and its reconstructed recovery timeline,
// decomposed into the phases the paper narrates: detection (death to
// first suspicion), agreement-or-fence (suspicion to confirmed failure),
// repair (confirmation to the repair action — promotion, respawn, or the
// first application resend), and resume (repair to the first post-repair
// delivery).
type Incident struct {
	Victim int
	// Killed anchors the incident; the remaining events may be absent
	// (Has* flags) depending on detector and repair mode.
	Killed, Suspected, Confirmed, Repair, Resume        Event
	HasSuspected, HasConfirmed, HasRepair, HasResume    bool
	Detection, Agreement, RepairTime, ResumeTime, Total time.Duration
}

// RepairKind names the repair path taken ("promoted", "respawned",
// "resend"), or "none" when the incident has no recorded repair.
func (in *Incident) RepairKind() string {
	if !in.HasRepair {
		return "none"
	}
	return in.Repair.Kind.String()
}

// Recoveries reconstructs one Incident per Killed event in the stream.
// Oracle-detected worlds have no Suspected/Confirmed events — their
// detection and agreement phases render as zero, with the whole latency
// in the repair phase, which is exactly what a perfect detector means.
func Recoveries(events []Event) []*Incident {
	evs := append([]Event(nil), events...)
	sort.Slice(evs, func(i, j int) bool { return evs[i].Seq < evs[j].Seq })

	var incidents []*Incident
	for i, e := range evs {
		if e.Kind != Killed {
			continue
		}
		in := &Incident{Victim: e.Rank, Killed: e}
		for _, f := range evs[i+1:] {
			switch {
			case !in.HasSuspected && f.Kind == Suspected && f.Peer == in.Victim:
				in.Suspected, in.HasSuspected = f, true
			case !in.HasConfirmed && f.Kind == Confirmed && f.Peer == in.Victim:
				in.Confirmed, in.HasConfirmed = f, true
			case !in.HasRepair && (f.Kind == Promoted && f.Peer == in.Victim ||
				f.Kind == Respawned && f.Rank == in.Victim ||
				f.Kind == Resend):
				in.Repair, in.HasRepair = f, true
			case in.HasRepair && !in.HasResume && f.Kind == Delivered:
				in.Resume, in.HasResume = f, true
			}
			if in.HasRepair && in.HasResume {
				break
			}
		}
		in.decompose()
		incidents = append(incidents, in)
	}
	return incidents
}

// decompose fills the phase durations from the anchored events' wall
// timestamps. Absent phases contribute zero; the repair phase absorbs
// everything between the last detection-side anchor and the repair
// action. Phases clamp at zero: anchors are recorded by different
// goroutines, so causally ordered events can carry wall timestamps a few
// microseconds out of order (e.g. a promotion recorded just before the
// confirmation that triggered it).
func (in *Incident) decompose() {
	last := in.Killed.At
	step := func(at time.Time) time.Duration {
		d := at.Sub(last)
		if d < 0 {
			return 0
		}
		last = at
		return d
	}
	if in.HasSuspected {
		in.Detection = step(in.Suspected.At)
	}
	if in.HasConfirmed {
		in.Agreement = step(in.Confirmed.At)
	}
	if in.HasRepair {
		in.RepairTime = step(in.Repair.At)
	}
	if in.HasResume {
		in.ResumeTime = step(in.Resume.At)
	}
	in.Total = last.Sub(in.Killed.At)
}

// Render formats the incident as the per-death table traceconv -recovery
// prints.
func (in *Incident) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "incident: rank %d killed (seq %d)\n", in.Victim, in.Killed.Seq)
	row := func(phase string, has bool, e Event, d time.Duration, detail string) {
		if !has {
			fmt.Fprintf(&b, "  %-22s %12s\n", phase, "-")
			return
		}
		fmt.Fprintf(&b, "  %-22s %12s  by rank %d%s\n", phase, d.Round(time.Microsecond), e.Rank, detail)
	}
	row("detection (suspect)", in.HasSuspected, in.Suspected, in.Detection, "")
	row("agreement/fence", in.HasConfirmed, in.Confirmed, in.Agreement, "")
	detail := ""
	if in.HasRepair {
		detail = " (" + in.RepairKind() + ")"
	}
	row("repair", in.HasRepair, in.Repair, in.RepairTime, detail)
	resumeDetail := ""
	if in.HasResume && in.Resume.Tok != 0 {
		resumeDetail = " tok " + FormatTok(in.Resume.Tok)
	}
	row("resume (first deliver)", in.HasResume, in.Resume, in.ResumeTime, resumeDetail)
	fmt.Fprintf(&b, "  %-22s %12s\n", "total", in.Total.Round(time.Microsecond))
	return b.String()
}

// --- critical path (traceconv -causal) ---------------------------------------

// RenderSpan formats one message lifecycle with per-hop latencies: each
// line is one event with its delta from the span's first event (HLC
// physical time where stamped, wall time otherwise).
func RenderSpan(sp *Span) string {
	var b strings.Builder
	e2e := "undelivered"
	if d, ok := sp.E2E(); ok {
		e2e = d.String()
	}
	fmt.Fprintf(&b, "token %s (origin rank %d, %d events, e2e %s)\n",
		FormatTok(sp.Tok), sp.Origin(), len(sp.Events), e2e)
	base := sp.Events[0]
	for _, e := range sp.Events {
		var delta time.Duration
		if base.HLC != 0 && e.HLC != 0 {
			delta = time.Duration(HLCPhysical(e.HLC)-HLCPhysical(base.HLC)) * time.Microsecond
		} else if !base.At.IsZero() && !e.At.IsZero() {
			delta = e.At.Sub(base.At)
		}
		fmt.Fprintf(&b, "  +%-10s r%-4d %-14s", delta.Round(time.Microsecond), e.Rank, e.Kind)
		if e.Peer >= 0 {
			fmt.Fprintf(&b, " peer=%d", e.Peer)
		}
		if e.Gen > 0 {
			fmt.Fprintf(&b, " gen=%d", e.Gen)
		}
		if e.Note != "" {
			fmt.Fprintf(&b, " %s", e.Note)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// SlowestSpans returns the k delivered spans with the highest end-to-end
// latency, slowest first — the critical paths of the run.
func SlowestSpans(events []Event, k int) []*Span {
	var delivered []*Span
	for _, sp := range AssembleSpans(events) {
		if _, ok := sp.E2E(); ok {
			delivered = append(delivered, sp)
		}
	}
	sort.Slice(delivered, func(i, j int) bool {
		di, _ := delivered[i].E2E()
		dj, _ := delivered[j].E2E()
		if di != dj {
			return di > dj
		}
		return delivered[i].Tok < delivered[j].Tok
	})
	if len(delivered) > k {
		delivered = delivered[:k]
	}
	return delivered
}
