package detector

import (
	"sync"
	"time"
)

// Fencing converts a monitor's unreliable suspicion into the fail-stop
// failures the run-through stabilization machinery requires. The monitor
// (membership.Swim) decides when to RAISE a suspicion; everything after
// that is the Fencer below. The rule that restores strong accuracy:
//
//  1. A suspicion never reaches the application. It only arms a fence.
//  2. A fenced rank kills itself FIRST and acks SECOND, so a fence ack
//     happens-after ground-truth death: Confirm on ack receipt can never
//     declare a live rank failed.
//  3. A rank that is ground-truth dead (injected kill, self-fence, or a
//     fence that got through while the ack path is cut) is confirmed by
//     the fencer's resend loop directly from the registry.
//  4. A rank none of whose probes are acknowledged by
//     anyone past the self-fence deadline kills itself — the escape hatch
//     for total isolation, where no fence notice can reach it. The sole
//     survivor is exempt: when every peer is already ground-truth dead,
//     silence is expected and suicide would end the run for nothing.
//
// A falsely suspected rank (chaos delay or a one-way partition) is
// therefore either cleared — alive evidence arrives before the fence
// lands — or genuinely killed by the fence before anyone is told it
// failed. Either way, no healthy rank is ever reported Failed to the
// application: eventual perfection, built from an unreliable detector.

// FenceHooks observe a Fencer's actions; the mpi world maps them to
// metrics, traces and latency histograms. Nil fields are skipped. Hooks
// run on the monitor's pump or delivery goroutine and must not block.
type FenceHooks struct {
	// FenceSent fires for every fence notice (including resends).
	FenceSent func(by, target int)
	// FenceRTT fires when this fencer resolves one of its suspicions into
	// a confirmed failure, with the suspicion-raise to confirmation
	// round-trip (via fence ack or ground-truth observation). A fence that
	// confirms nothing — another observer won, or the slot was revived —
	// fires nothing.
	FenceRTT func(by, target int, rtt time.Duration)
	// SelfFence fires when this rank fences itself.
	SelfFence func(rank int)
}

// fenceState tracks one (observer, suspect) fence in flight.
type fenceState struct {
	start time.Time // suspicion raise time, for fence RTT
	gen   int       // suspect's generation when the fence was armed
	// lastSend is zero until the first Drive after Arm, which tells the
	// registry (Suspect) and — unless the suspect is already ground-truth
	// dead — puts the first fence notice on the wire.
	lastSend time.Time
	// clearAt, when non-zero, marks the fence as draining: alive evidence
	// asked to withdraw the suspicion after a fence notice was already
	// committed to the wire. Cancelling outright would clear the
	// suspicion of a rank the in-flight fence may still kill (and leave
	// nobody to confirm the death), so the fence stays armed — without
	// resends — until the fence either lands (ground-truth death →
	// Confirm) or has evidently been lost (one resend period elapses with
	// the suspect alive → ClearSuspect).
	clearAt time.Time
}

// Fencer is one rank's half of the fencing protocol: the table of fences
// it holds against suspects, and the self-fence deadline on its own
// acknowledgments. The owning monitor calls Arm when it gives up on a
// peer, Alive on any direct evidence the peer lives, Acked when one of
// its own probes is acknowledged, Drive once per tick, and
// routes inbound OpFence / OpFenceAck frames to OnFence / OnFenceAck.
//
// The Fencer has its own lock and never calls out (registry, send, hooks)
// while holding it, so Arm, Armed, Alive and Acked are safe under the
// monitor's lock. Every suspicion transition it makes in the registry
// (Suspect, ClearSuspect) happens inside Drive, on the monitor's one
// tick goroutine, which is what keeps them ordered.
type Fencer struct {
	reg            *Registry
	rank, size     int
	resend         time.Duration
	selfFenceAfter time.Duration
	send           SendFunc
	hooks          *FenceHooks
	confirmed      func(p int) // optional: this fencer just confirmed p

	mu         sync.Mutex
	fences     map[int]*fenceState
	lastAck    time.Time
	selfFenced bool
}

// SendFunc transmits one control frame. It is called without any monitor
// or fencer lock held and may be invoked concurrently. SWIM frames carry
// the gossip envelope.
type SendFunc func(to int, op ControlOp, seq uint64, payload []byte)

// NewFencer builds rank's fencer. hooks is read at call time, so the
// owner may fill it until Start. confirmed, when non-nil, is called for
// every suspect this fencer wins the confirmation of — SWIM gossips it.
func NewFencer(reg *Registry, rank, size int, resend, selfFenceAfter time.Duration,
	send SendFunc, hooks *FenceHooks, confirmed func(p int)) *Fencer {
	return &Fencer{
		reg: reg, rank: rank, size: size,
		resend: resend, selfFenceAfter: selfFenceAfter,
		send: send, hooks: hooks, confirmed: confirmed,
		fences: make(map[int]*fenceState),
	}
}

// Arm opens a fence against p, captured at p's current generation: the
// fence (and any eventual Confirm) is against this incarnation only. It
// reports whether the fence is new. Nothing is sent and the registry is
// not told until the next Drive.
func (f *Fencer) Arm(p int, now time.Time) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.fences[p] != nil {
		return false
	}
	f.fences[p] = &fenceState{start: now, gen: f.reg.Generation(p)}
	return true
}

// Armed reports whether a fence against p is pending; monitors skip such
// peers when looking for new suspects.
func (f *Fencer) Armed(p int) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.fences[p] != nil
}

// Alive folds direct evidence of p's liveness into the fence against it.
//
// Withdrawing a suspicion is racy by nature: Drive decides to emit a
// fence under the lock but sends it after unlocking, so evidence
// processed in that window used to clear the suspicion while the fence
// was already committed to the wire — the rank would then be killed by a
// fence its observer no longer stood behind, with no fence state left to
// confirm the death. The rule: a fence that has not been sent is
// cancelled, but once a notice is out the fence supersedes the clear —
// it drains instead (see fenceState.clearAt), resolving to Confirm if
// the fence lands or to a deferred ClearSuspect if it evidently got lost.
func (f *Fencer) Alive(p int, now time.Time) {
	f.mu.Lock()
	defer f.mu.Unlock()
	fs := f.fences[p]
	switch {
	case fs == nil:
	case fs.lastSend.IsZero():
		// Armed since the last Drive: the registry was never told.
		delete(f.fences, p)
	case fs.clearAt.IsZero():
		fs.clearAt = now
	}
}

// Acked records that one of this rank's own probes was
// acknowledged at now (or that the monitor starts at now), which
// restarts the self-fence deadline.
func (f *Fencer) Acked(now time.Time) {
	f.mu.Lock()
	f.lastAck = now
	f.mu.Unlock()
}

// Forget drops any fence against p ahead of p's reincarnation.
func (f *Fencer) Forget(p int) {
	f.mu.Lock()
	delete(f.fences, p)
	f.mu.Unlock()
}

// Drive advances every pending fence one step and checks the self-fence
// deadline. Newly armed fences are announced to the registry (Suspect);
// suspects that turn out ground-truth dead are confirmed; draining
// fences are retired once their last notice has evidently been lost;
// the rest get a fence (re)send when their resend deadline lapses. It
// returns false when this rank just fenced itself.
func (f *Fencer) Drive(now time.Time) bool {
	type confirm struct {
		rank, gen int
		rtt       time.Duration
	}
	var raised, clears, sends []int
	var confirms []confirm

	f.mu.Lock()
	for p, fs := range f.fences {
		if fs.lastSend.IsZero() {
			raised = append(raised, p) // armed since the last Drive
		}
		switch {
		case f.reg.Confirmed(p):
			// Another observer finished the job.
			delete(f.fences, p)
		case f.reg.Failed(p):
			// Ground-truth death: confirm directly. This is the path that
			// completes fencing across a cut ack link — the fence (or the
			// original failure) already killed the suspect, and the
			// registry, not the unreachable ack, proves it.
			confirms = append(confirms, confirm{rank: p, gen: fs.gen, rtt: now.Sub(fs.start)})
			delete(f.fences, p)
		case !fs.clearAt.IsZero():
			// Draining: no resends. If a full resend period passes and the
			// suspect is still alive, the in-flight notice was lost (or
			// dropped by chaos) — the alive evidence wins and the
			// suspicion is finally withdrawn.
			if now.Sub(fs.clearAt) >= f.resend {
				delete(f.fences, p)
				clears = append(clears, p)
			}
		case fs.lastSend.IsZero() || now.Sub(fs.lastSend) >= f.resend:
			fs.lastSend = now
			sends = append(sends, p)
		}
	}
	selfFence := f.selfFenceDueLocked(now)
	f.mu.Unlock()

	for _, p := range raised {
		f.reg.Suspect(p, f.rank)
	}
	for _, p := range clears {
		f.reg.ClearSuspect(p, f.rank)
	}
	for _, c := range confirms {
		f.confirm(c.rank, c.gen, c.rtt)
	}
	for _, p := range sends {
		f.send(p, OpFence, 0, nil)
		if f.hooks.FenceSent != nil {
			f.hooks.FenceSent(f.rank, p)
		}
	}
	if selfFence {
		if f.hooks.SelfFence != nil {
			f.hooks.SelfFence(f.rank)
		}
		f.reg.Kill(f.rank)
		return false
	}
	return true
}

// confirm is the one place a fence turns into a confirmed failure. The
// confirmation is generation-fenced (ConfirmGen): it is evidence about
// the incarnation the fence was armed against, not about whatever
// occupies the slot now. Only a confirmation this fencer actually wins
// counts — when another observer got there first, or the slot was
// revived, no fence_rtt sample is recorded and nothing is gossiped.
func (f *Fencer) confirm(p, gen int, rtt time.Duration) {
	if !f.reg.ConfirmGen(p, f.rank, gen) {
		return
	}
	if f.confirmed != nil {
		f.confirmed(p)
	}
	if f.hooks.FenceRTT != nil {
		f.hooks.FenceRTT(f.rank, p, rtt)
	}
}

// selfFenceDueLocked reports whether this rank must fence itself: none of
// its probes have been acknowledged for selfFenceAfter
// while at least one peer is still alive to miss them. Caller holds mu.
func (f *Fencer) selfFenceDueLocked(now time.Time) bool {
	if f.selfFenced || now.Sub(f.lastAck) < f.selfFenceAfter {
		return false
	}
	for p := 0; p < f.size; p++ {
		if p != f.rank && !f.reg.Failed(p) {
			f.selfFenced = true
			return true
		}
	}
	return false // sole survivor: everyone else is dead, silence is expected
}

// OnFence handles an inbound fence notice: die first, ack second. The
// ordering is the accuracy proof — by the time the ack is on the wire,
// the death is ground truth. A rank that is already dead only acks: its
// monitor is the "NIC" that keeps answering, which is what lets a fencer
// confirm a death across a half-open link.
func (f *Fencer) OnFence(from int, seq uint64) {
	f.reg.Kill(f.rank)
	f.send(from, OpFenceAck, seq, nil)
}

// OnFenceAck handles a fence acknowledgment: the suspect killed itself
// before acking, so confirming it failed is safe even though the ack
// travelled a chaotic network. With elastic revival a sufficiently
// delayed ack can arrive after the slot is alive again at a later
// generation; the generation captured by Arm keeps it from confirming
// the reincarnation. An ack with no matching fence was already resolved
// by another path, carries no generation evidence and is dropped —
// liveness is held by the ground-truth branch of Drive.
func (f *Fencer) OnFenceAck(from int, now time.Time) {
	f.mu.Lock()
	fs := f.fences[from]
	delete(f.fences, from)
	f.mu.Unlock()
	if fs != nil {
		f.confirm(from, fs.gen, now.Sub(fs.start))
	}
}
