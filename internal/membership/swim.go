package membership

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/detector"
)

// Options tune one rank's SWIM monitor. Zero fields take defaults.
type Options struct {
	// Period is the protocol period: one randomized direct probe is
	// launched per period (default 2ms).
	Period time.Duration
	// ProbeTimeout is how long a direct probe may go unacknowledged
	// before the indirect phase starts (default Period/2).
	ProbeTimeout time.Duration
	// SuspectAfter is the total unacknowledged time — direct plus
	// indirect — before the probe target is suspected (default 2×Period).
	SuspectAfter time.Duration
	// IndirectK is the number of relays asked to probe indirectly when
	// the direct probe times out (default 2).
	IndirectK int
	// GossipFanout is the number of buffered events piggybacked on each
	// outbound control frame (default 6).
	GossipFanout int
	// GossipTTL is how many frames each event is piggybacked on before
	// it is retired from the buffer (default 10).
	GossipTTL int
	// GossipCap bounds the piggyback buffer (default 64 events).
	GossipCap int
	// FenceResend is the retransmission period for unacknowledged fence
	// notices (default 2×Period).
	FenceResend time.Duration
	// SelfFenceAfter is how long a rank tolerates none of its probes
	// being acknowledged before it fences itself (default 24×Period).
	SelfFenceAfter time.Duration
	// Seed drives the probe-order shuffle (combined with the rank so
	// every member walks a different permutation).
	Seed int64
	// Clock is the monitor's time source (default: the wall clock).
	Clock detector.Clock
}

// withDefaults fills zero fields.
func (o Options) withDefaults() Options {
	if o.Period <= 0 {
		o.Period = 2 * time.Millisecond
	}
	if o.ProbeTimeout <= 0 {
		o.ProbeTimeout = o.Period / 2
	}
	if o.SuspectAfter <= 0 {
		o.SuspectAfter = 2 * o.Period
	}
	if o.IndirectK <= 0 {
		o.IndirectK = 2
	}
	if o.GossipFanout <= 0 {
		o.GossipFanout = 6
	}
	if o.GossipTTL <= 0 {
		o.GossipTTL = 10
	}
	if o.GossipCap <= 0 {
		o.GossipCap = 64
	}
	if o.FenceResend <= 0 {
		o.FenceResend = 2 * o.Period
	}
	if o.SelfFenceAfter <= 0 {
		o.SelfFenceAfter = 24 * o.Period
	}
	if o.Clock == nil {
		o.Clock = detector.WallClock()
	}
	return o
}

// Hooks observe a SWIM monitor's protocol actions; the mpi world maps
// them to metrics, traces and latency histograms. Nil fields are
// skipped. Hooks run on the monitor's pump or delivery goroutine and
// must not block.
type Hooks struct {
	// ProbeSent fires once per direct probe launched by this rank.
	ProbeSent func(rank int)
	// IndirectProbe fires once per relay request sent.
	IndirectProbe func(rank int)
	// ProbeTimeout fires when a probe transaction expires unanswered and
	// the target is suspected.
	ProbeTimeout func(rank, target int)
	// ProbeRTT fires when a probe is acknowledged (directly or via a
	// relay), with the launch-to-ack round-trip.
	ProbeRTT func(rank, target int, rtt time.Duration)
	// FenceHooks observe the fencing protocol (detector/fence.go).
	detector.FenceHooks
	// GossipOrigin fires when this rank originates a gossip event.
	GossipOrigin func(rank int, ev Event)
	// GossipLearn fires the first time this rank learns an event (for a
	// rank-state it did not already hold fresher news about) from a
	// piggybacked envelope.
	GossipLearn func(rank int, ev Event)
	// DecodeError fires when an inbound control payload fails to decode
	// (chaos corruption) and the frame is dropped.
	DecodeError func(rank int)
}

// probe is the single outstanding probe transaction.
type probe struct {
	target   int
	seq      uint64
	sentAt   time.Time
	indirect bool // relay requests already launched
}

// Swim is one rank's SWIM-style membership monitor: randomized probes,
// indirect probes and gossip raise suspicion; what follows a suspicion —
// fence, drain, confirm, self-fence — is a detector.Fencer. Construct
// with NewSwim, wire inbound control packets to OnControl, and bracket
// the run with Start/Stop.
type Swim struct {
	reg   *detector.Registry
	rank  int
	size  int
	opts  Options
	clock detector.Clock
	send  detector.SendFunc
	fence *detector.Fencer

	// Hooks may be set between NewSwim and Start.
	Hooks Hooks

	buf *Buffer

	mu         sync.Mutex
	rng        *rand.Rand
	perm       []int // shuffled probe order over peers
	permIdx    int
	inc        []uint32 // highest known incarnation per rank
	suspectInc []int64  // highest incarnation each rank was seen suspected at, -1 if never
	cur        *probe
	seq        uint64
	nextProbe  time.Time

	done     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// NewSwim builds the monitor for rank in a world of size ranks.
func NewSwim(reg *detector.Registry, rank, size int, opts Options, send detector.SendFunc) *Swim {
	if rank < 0 || rank >= size {
		panic(fmt.Sprintf("membership: swim rank %d out of range [0,%d)", rank, size))
	}
	o := opts.withDefaults()
	s := &Swim{
		reg:        reg,
		rank:       rank,
		size:       size,
		opts:       o,
		clock:      o.Clock,
		send:       send,
		buf:        NewBuffer(o.GossipCap, o.GossipTTL),
		rng:        rand.New(rand.NewSource(o.Seed*1e6 + int64(rank) + 1)),
		inc:        make([]uint32, size),
		suspectInc: make([]int64, size),
		done:       make(chan struct{}),
	}
	for i := range s.suspectInc {
		s.suspectInc[i] = -1
	}
	s.fence = detector.NewFencer(reg, rank, size, o.FenceResend, o.SelfFenceAfter,
		s.sendFence, &s.Hooks.FenceHooks, s.originConfirm)
	s.prime(s.clock.Now())
	return s
}

// Incarnation returns this rank's current incarnation number.
func (s *Swim) Incarnation() uint32 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.inc[s.rank]
}

// Start launches the protocol pump. Call after the fabric is started.
func (s *Swim) Start() {
	s.prime(s.clock.Now())
	s.wg.Add(1)
	go s.pump()
}

// prime resets the ack baseline and the probe schedule to now, at
// construction and again at Start.
func (s *Swim) prime(now time.Time) {
	s.fence.Acked(now)
	s.mu.Lock()
	s.nextProbe = now
	s.mu.Unlock()
}

// Stop terminates the pump and waits for it. Safe to call more than once.
func (s *Swim) Stop() {
	s.stopOnce.Do(func() { close(s.done) })
	s.wg.Wait()
}

// Resume resets this monitor's view of peer p ahead of p's reincarnation:
// any outstanding probe transaction or fence against the old incarnation
// is dropped and the suspected-incarnation watermark rewinds so fresh
// suspect gossip about the new incarnation is not deduplicated away. Call
// on every survivor BEFORE the registry revives the slot — while the slot
// is still Confirmed the probe scheduler skips it, so there is no window
// for a false suspicion.
func (s *Swim) Resume(p int) {
	if p < 0 || p >= s.size || p == s.rank {
		return
	}
	s.mu.Lock()
	if s.cur != nil && s.cur.target == p {
		s.cur = nil
	}
	s.suspectInc[p] = -1
	s.mu.Unlock()
	s.fence.Forget(p)
}

// pump drives the protocol at a quarter-period resolution so that the
// sub-period probe deadline (ProbeTimeout) is honored without busy
// polling. The ticker is stopped on every exit path.
func (s *Swim) pump() {
	defer s.wg.Done()
	ticker := s.clock.NewTicker(s.opts.Period / 4)
	defer ticker.Stop()
	for {
		select {
		case <-s.done:
			return
		case now := <-ticker.Chan():
			if !s.Tick(now) {
				return
			}
		}
	}
}

// out is one outbound control frame decided under the monitor lock and
// sent outside it.
type out struct {
	to     int
	op     detector.ControlOp
	seq    uint64
	origin int
	target int
}

// Tick runs one protocol step: advance the outstanding probe's state
// machine (indirect phase, suspicion → arm a fence), launch the next
// probe when the period lapses, then drive the fences and check the
// self-fence deadline. The pump calls it four times per Period;
// deterministic tests (and a simulator) call it by hand on a ManualClock
// instead of starting the pump. It returns false when this rank is (or
// just became) dead.
func (s *Swim) Tick(now time.Time) bool {
	if s.reg.Failed(s.rank) {
		return false // dead ranks fall silent; OnControl still acks fences
	}

	var outs []out
	var suspectEv *Event // gossip for a newly armed suspicion
	var indirect, probeSent bool
	timedOut := -1

	s.mu.Lock()
	if c := s.cur; c != nil {
		if s.reg.Confirmed(c.target) {
			s.cur = nil // someone else finished the job mid-probe
		} else if now.Sub(c.sentAt) >= s.opts.SuspectAfter {
			// Probe transaction expired: suspect the target at its highest
			// known incarnation and arm a fence.
			timedOut = c.target
			if s.fence.Arm(c.target, now) {
				ev := Event{Kind: EvSuspect, Rank: c.target, Inc: s.inc[c.target]}
				s.suspectInc[c.target] = int64(ev.Inc)
				s.buf.Add(ev)
				suspectEv = &ev
			}
			s.cur = nil
		} else if !c.indirect && now.Sub(c.sentAt) >= s.opts.ProbeTimeout {
			c.indirect = true
			for _, relay := range s.pickRelaysLocked(c.target) {
				outs = append(outs, out{to: relay, op: detector.OpProbeReq, seq: c.seq,
					origin: s.rank, target: c.target})
			}
			indirect = len(outs) > 0
		}
	}
	if s.cur == nil && !now.Before(s.nextProbe) {
		if t, ok := s.nextTargetLocked(); ok {
			s.seq++
			s.cur = &probe{target: t, seq: s.seq, sentAt: now}
			s.nextProbe = now.Add(s.opts.Period)
			outs = append(outs, out{to: t, op: detector.OpProbe, seq: s.seq,
				origin: s.rank, target: t})
			probeSent = true
		}
	}
	s.mu.Unlock()

	if suspectEv != nil && s.Hooks.GossipOrigin != nil {
		s.Hooks.GossipOrigin(s.rank, *suspectEv)
	}
	if timedOut >= 0 && s.Hooks.ProbeTimeout != nil {
		s.Hooks.ProbeTimeout(s.rank, timedOut)
	}
	if !s.fence.Drive(now) {
		return false
	}
	s.emit(outs)
	if probeSent && s.Hooks.ProbeSent != nil {
		s.Hooks.ProbeSent(s.rank)
	}
	if indirect && s.Hooks.IndirectProbe != nil {
		s.Hooks.IndirectProbe(s.rank)
	}
	return true
}

// emit sends the decided frames, each with a freshly picked gossip
// payload. Called without the lock held.
func (s *Swim) emit(outs []out) {
	for _, o := range outs {
		env := Envelope{Origin: o.origin, Target: o.target, Events: s.buf.Pick(s.opts.GossipFanout)}
		s.send(o.to, o.op, o.seq, env.Encode())
	}
}

// sendFence is the Fencer's transmit path: a fence notice travels like
// any other frame, with piggybacked gossip; a fence ack comes from a dead
// rank and carries none.
func (s *Swim) sendFence(to int, op detector.ControlOp, seq uint64, _ []byte) {
	if op == detector.OpFenceAck {
		ack := Envelope{Origin: s.rank, Target: s.rank}
		s.send(to, op, seq, ack.Encode())
		return
	}
	s.emit([]out{{to: to, op: op, seq: seq, origin: s.rank, target: to}})
}

// originConfirm gossips a confirmation this rank's fencer just won.
// Called without the monitor lock; the buffer has its own.
func (s *Swim) originConfirm(rank int) {
	ev := Event{Kind: EvConfirm, Rank: rank, Inc: 0}
	if s.buf.Add(ev) && s.Hooks.GossipOrigin != nil {
		s.Hooks.GossipOrigin(s.rank, ev)
	}
}

// nextTargetLocked returns the next probe target from the shuffled
// permutation, skipping dead ranks. Caller holds mu.
func (s *Swim) nextTargetLocked() (int, bool) {
	for tries := 0; tries < s.size; tries++ {
		if s.permIdx >= len(s.perm) {
			s.perm = s.perm[:0]
			for p := 0; p < s.size; p++ {
				if p != s.rank {
					s.perm = append(s.perm, p)
				}
			}
			s.rng.Shuffle(len(s.perm), func(i, j int) { s.perm[i], s.perm[j] = s.perm[j], s.perm[i] })
			s.permIdx = 0
			if len(s.perm) == 0 {
				return -1, false
			}
		}
		t := s.perm[s.permIdx]
		s.permIdx++
		if !s.reg.Confirmed(t) && !s.fence.Armed(t) {
			return t, true
		}
	}
	return -1, false
}

// pickRelaysLocked samples up to IndirectK live peers distinct from the
// probe target (and self) to relay an indirect probe. Caller holds mu.
func (s *Swim) pickRelaysLocked(target int) []int {
	var cands []int
	for p := 0; p < s.size; p++ {
		if p != s.rank && p != target && !s.reg.Failed(p) {
			cands = append(cands, p)
		}
	}
	s.rng.Shuffle(len(cands), func(i, j int) { cands[i], cands[j] = cands[j], cands[i] })
	if len(cands) > s.opts.IndirectK {
		cands = cands[:s.opts.IndirectK]
	}
	return cands
}

// OnControl handles one inbound control frame for this rank. It is
// called from the fabric delivery path and keeps answering fence notices
// even after the rank itself is dead. A payload that fails to decode
// (chaos corruption) drops the whole frame — every protocol action here
// is retried or resent by its originator.
func (s *Swim) OnControl(from int, op detector.ControlOp, seq uint64, payload []byte) {
	if from < 0 || from >= s.size || from == s.rank {
		return
	}
	env, err := DecodeEnvelope(payload)
	if err != nil {
		if s.Hooks.DecodeError != nil {
			s.Hooks.DecodeError(s.rank)
		}
		return
	}
	now := s.clock.Now()
	if s.reg.Failed(s.rank) {
		if op == detector.OpFence {
			s.fence.OnFence(from, seq)
		}
		return
	}
	s.applyGossip(env.Events, now)
	switch op {
	case detector.OpProbe:
		// Whether direct (Origin==from) or relayed, ack to the sender; a
		// relay forwards the ack to the origin. The probe itself is alive
		// evidence for the sender.
		s.fence.Alive(from, now)
		s.emit([]out{{to: from, op: detector.OpProbeAck, seq: seq, origin: env.Origin, target: s.rank}})
	case detector.OpProbeAck:
		s.fence.Alive(from, now)
		if env.Origin == s.rank {
			s.onProbeAck(env.Target, seq, now)
		} else if env.Origin >= 0 && env.Origin < s.size {
			// We are the relay: forward the ack to the origin.
			s.fence.Alive(env.Target, now)
			s.emit([]out{{to: env.Origin, op: detector.OpProbeAck, seq: seq,
				origin: env.Origin, target: env.Target}})
		}
	case detector.OpProbeReq:
		s.fence.Alive(from, now)
		if env.Target >= 0 && env.Target < s.size && env.Target != s.rank {
			s.emit([]out{{to: env.Target, op: detector.OpProbe, seq: seq,
				origin: env.Origin, target: env.Target}})
		}
	case detector.OpFence:
		s.fence.OnFence(from, seq)
	case detector.OpFenceAck:
		s.fence.OnFenceAck(from, now)
	}
}

// onProbeAck resolves this rank's outstanding probe.
func (s *Swim) onProbeAck(target int, seq uint64, now time.Time) {
	var rtt time.Duration = -1
	s.fence.Acked(now)
	s.mu.Lock()
	if c := s.cur; c != nil && c.target == target && c.seq == seq {
		rtt = now.Sub(c.sentAt)
		s.cur = nil
	}
	s.mu.Unlock()
	s.fence.Alive(target, now)
	if rtt >= 0 && s.Hooks.ProbeRTT != nil {
		s.Hooks.ProbeRTT(s.rank, target, rtt)
	}
}

// applyGossip folds piggybacked events into local state: refute
// suspicions about self, track incarnations, treat fresher alive news as
// fence-draining evidence, and re-buffer anything that superseded what
// we knew so it keeps spreading.
func (s *Swim) applyGossip(events []Event, now time.Time) {
	var learned []Event
	var refuted *Event
	var aliveOf []int
	s.mu.Lock()
	for _, ev := range events {
		if ev.Rank < 0 || ev.Rank >= s.size {
			continue
		}
		if ev.Rank == s.rank {
			// Someone suspects us at our current (or a future) incarnation:
			// refute by bumping and gossiping alive. The refutation races
			// the fence — exactly the accuracy-preserving race the fencing
			// protocol is built around.
			if ev.Kind == EvSuspect && ev.Inc >= s.inc[s.rank] {
				s.inc[s.rank] = ev.Inc + 1
				r := Event{Kind: EvAlive, Rank: s.rank, Inc: s.inc[s.rank]}
				s.buf.Add(r)
				refuted = &r
			}
			continue
		}
		fresh := false
		switch ev.Kind {
		case EvAlive:
			if ev.Inc > s.inc[ev.Rank] {
				s.inc[ev.Rank] = ev.Inc
				fresh = true
				// Fresher-incarnation alive news refutes our suspicion too.
				aliveOf = append(aliveOf, ev.Rank)
			}
		case EvSuspect:
			if int64(ev.Inc) > s.suspectInc[ev.Rank] && ev.Inc >= s.inc[ev.Rank] {
				s.suspectInc[ev.Rank] = int64(ev.Inc)
				if ev.Inc > s.inc[ev.Rank] {
					s.inc[ev.Rank] = ev.Inc
				}
				fresh = true
			}
		case EvConfirm:
			// The registry is the ground truth for failure state; gossip
			// only spreads the news. Fresh when the registry agrees and we
			// have not relayed it yet.
			fresh = s.reg.Failed(ev.Rank)
		}
		if fresh && s.buf.Add(ev) {
			learned = append(learned, ev)
		}
	}
	s.mu.Unlock()
	for _, rank := range aliveOf {
		s.fence.Alive(rank, now)
	}
	if refuted != nil && s.Hooks.GossipOrigin != nil {
		s.Hooks.GossipOrigin(s.rank, *refuted)
	}
	if s.Hooks.GossipLearn != nil {
		for _, ev := range learned {
			s.Hooks.GossipLearn(s.rank, ev)
		}
	}
}
