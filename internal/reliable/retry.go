package reliable

import (
	"math"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/transport"
)

// spinWindow is how close a retransmission deadline on a synchronous link
// must be before the retry goroutine stops trusting timers and yield-spins
// towards it.
//
// A Go timer cannot deliver a sub-millisecond deadline when it matters
// most here. On Linux a timer that expires while every P is idle is served
// by the epoll_wait the last idle thread sleeps in, and that call's timeout
// is in whole milliseconds, rounded up. A ring with one token in flight is
// in exactly that state after a lost frame — every rank is parked in a
// receive — so a 100µs timer fires after 1.0-1.1ms (measured: DESIGN.md §4).
// Spinning through runtime.Gosched keeps one P out of epoll_wait, and
// anything else runnable still goes first. Do not replace the spin with a
// Ticker or a shorter Sleep: that is the 1ms floor again.
//
// The window is the 1ms rounding plus the slack of the sleep that precedes
// the spin, which overshoots by the same rounding.
const spinWindow = 1500 * time.Microsecond

// timerGrain is the shortest sleep towards a deadline on an asynchronous
// link. Such a link always has a frame unacknowledged when Send returns, so
// spinning towards its deadlines would spin for as long as it carries
// traffic (over loopback TCP: four to five times the CPU of the whole
// ring). Its deadlines are left to the timer, and since an idle runtime
// rounds a shorter sleep up to this anyway, a busy one is not asked for
// more: a clean asynchronous link costs one scan per millisecond, what the
// fixed ticker cost, and a frame lost on it is retransmitted 1-2ms later.
const timerGrain = time.Millisecond

// The states of the retry goroutine.
const (
	// loopParked: no frame is watched. Blocked on retryState.wake with no
	// timer armed; costs nothing until a Send finds its frame
	// unacknowledged.
	loopParked int32 = iota
	// loopSleeping: no spin deadline is inside spinWindow. Blocked on a
	// timer set to expire spinWindow before the earliest spin deadline or
	// at the earliest timer deadline (no sooner than timerGrain from now),
	// and on wake for a Send with an earlier one.
	loopSleeping
	// loopSpinning: the earliest spin deadline is inside spinWindow (or
	// being served). Yielding in a loop that reads two atomics and the
	// clock.
	loopSpinning
)

// retryState is what Send, the ack path and the retry goroutine share
// outside the fabric's locks. A Send whose ack comes back inside the inner
// Send touches none of it.
type retryState struct {
	// watched counts the inflight frames whose Send returned without an
	// ack (pending.watched): the frames somebody has to wait for. It is
	// what keeps the goroutine out of loopParked.
	watched atomic.Int64
	// spinDue and timerDue are the earliest retransmission due times the
	// goroutine has to serve, as readings of Fabric.now: spinDue among the
	// watched frames of synchronous links, which it meets to the
	// microsecond, timerDue among those of asynchronous links, which it
	// leaves to a timer (txLink.late tells the two apart). Everybody only
	// ever lowers them, except the scan, which resets both before it reads
	// the link tables and lowers them to the minimum over what it found.
	// They can therefore be too early (the frame one stood for was
	// acknowledged; the scan it triggers finds nothing and corrects it) but
	// never too late: a frame watched before the reset is in the tables
	// when the scan takes the lock, one watched after it lowers the new
	// value.
	spinDue, timerDue atomic.Int64
	state             atomic.Int32
	// wake carries at most one pending poke, so a poke never blocks and
	// never gets lost.
	wake chan struct{}

	// wakes counts departures from loopParked, scans passes over the
	// inflight tables. Tests pin the idle and the clean-path cost on them.
	wakes, scans atomic.Int64

	// Owned by the retry goroutine: the timer of loopSleeping, created by
	// the first sleep (most worlds never need one), and the scratch space
	// of a scan.
	timer *time.Timer
	batch retryBatch
}

func (r *retryState) init() {
	r.wake = make(chan struct{}, 1)
	r.spinDue.Store(math.MaxInt64)
	r.timerDue.Store(math.MaxInt64)
}

// lower makes due the value of deadline if it is earlier, and reports
// whether it was.
func lower(deadline *atomic.Int64, due int64) bool {
	for {
		cur := deadline.Load()
		if due >= cur {
			return false
		}
		if deadline.CompareAndSwap(cur, due) {
			return true
		}
	}
}

// serve puts the retry goroutine on its way to the due time of a frame
// just counted in watched; precise says the frame's link is synchronous. A
// spinning goroutine reads the deadlines itself; a parked one is woken; a
// sleeping one only if this frame is due before what it sleeps towards.
// The goroutine publishes its state before it reads watched (parking) or
// the deadlines (sleeping), and the sender writes those before it reads
// the state, so one side always sees the other.
func (r *retryState) serve(due int64, precise bool) {
	deadline := &r.timerDue
	if precise {
		deadline = &r.spinDue
	}
	earlier := lower(deadline, due)
	if s := r.state.Load(); s == loopParked || (s == loopSleeping && earlier) {
		select {
		case r.wake <- struct{}{}:
		default:
		}
	}
}

// retryLoop is the retransmitter: one goroutine that serves the earliest
// deadline of all links, retransmitting overdue frames with exponential
// backoff and escalating links whose budget is exhausted. Sends and
// escalations run outside the fabric's locks.
func (f *Fabric) retryLoop() {
	defer f.wg.Done()
	r := &f.retry
	for {
		r.state.Store(loopParked)
		if r.watched.Load() == 0 {
			select {
			case <-r.wake:
			case <-f.done:
				return
			}
		}
		r.state.Store(loopSpinning)
		r.wakes.Add(1)
		// The deadlines may be left over from before the park: recompute.
		f.retransmitOverdue()
		for r.watched.Load() != 0 {
			select {
			case <-f.done:
				return
			default:
			}
			switch wait := time.Duration(r.spinDue.Load() - f.now()); {
			case wait <= 0:
				f.retransmitOverdue()
			case wait <= spinWindow:
				runtime.Gosched()
			default:
				if closed := f.sleepTowardsDeadline(); closed {
					return
				}
				f.retransmitOverdue()
			}
		}
	}
}

// sleepTowardsDeadline blocks until spinWindow before the earliest spin
// deadline or until the earliest timer deadline, whichever is first, or
// until a Send with an earlier one pokes. It reports whether the fabric
// closed meanwhile.
func (f *Fabric) sleepTowardsDeadline() (closed bool) {
	r := &f.retry
	r.state.Store(loopSleeping)
	defer r.state.Store(loopSpinning)
	// Read the deadlines only now that Send can see the state: one that was
	// lowered before the store gets no poke.
	now := f.now()
	until := min(r.spinDue.Load()-int64(spinWindow), max(r.timerDue.Load(), now+int64(timerGrain)))
	if until <= now {
		return false
	}
	if r.timer == nil {
		r.timer = time.NewTimer(time.Duration(until - now))
	} else {
		r.timer.Reset(time.Duration(until - now))
	}
	select {
	case <-r.timer.C:
		return false
	case <-r.wake:
	case <-f.done:
		closed = true
	}
	if !r.timer.Stop() {
		select { // fired between the select and the Stop: drain for the next Reset
		case <-r.timer.C:
		default:
		}
	}
	return closed
}

// retryBatch is the retry goroutine's scratch space: what one scan decided
// under the fabric's write lock and carries out after releasing it. Reused
// across scans so a retransmission allocates nothing.
type retryBatch struct {
	resend      []*transport.Packet
	retries     []Event // retries[i] reports resend[i]
	escalations []Event
	purged      []Event
}

// retransmitOverdue makes one pass over the inflight tables: every overdue
// frame is retransmitted and rescheduled with its backoff doubled, a link
// whose frame ran out of budget is escalated, and the two deadlines become
// the exact minima over what is left.
func (f *Fabric) retransmitOverdue() {
	r := &f.retry
	b := &r.batch
	now := f.now()
	r.scans.Add(1)
	r.spinDue.Store(math.MaxInt64)
	r.timerDue.Store(math.MaxInt64)
	spinDue, timerDue := int64(math.MaxInt64), int64(math.MaxInt64)
	f.mu.Lock()
	for key, tx := range f.tx {
		due := f.retransmitLinkLocked(b, key, tx, now)
		if tx.late.Load() < lateAsync {
			spinDue = min(spinDue, due)
		} else {
			timerDue = min(timerDue, due)
		}
	}
	f.mu.Unlock()
	lower(&r.spinDue, spinDue)
	lower(&r.timerDue, timerDue)
	for i, pkt := range b.resend {
		_ = f.inner.Send(pkt) // a failed retransmission is retried like a lost one
		f.emit(b.retries[i])
	}
	for _, ev := range b.purged {
		f.emit(ev)
	}
	for _, ev := range b.escalations {
		f.PeerDown(ev.Dst) // purge every link touching the demoted peer
		f.emit(ev)
		if f.escalate != nil {
			f.escalate(ev.Dst)
		}
	}
	clear(b.resend) // drop the packet pointers, keep the capacity
	b.resend, b.retries = b.resend[:0], b.retries[:0]
	b.escalations, b.purged = b.escalations[:0], b.purged[:0]
}

// retransmitLinkLocked is retransmitOverdue for one link. It returns the
// earliest due time among the frames the link keeps inflight. Callers hold
// f.mu for writing, which lets an escalation mark the peer dead and purge
// its links in the same pass.
func (f *Fabric) retransmitLinkLocked(b *retryBatch, key [2]int, tx *txLink, now int64) int64 {
	next := int64(math.MaxInt64)
	for seq, p := range tx.inflight {
		if p.nextRetry > now {
			next = min(next, p.nextRetry)
			continue
		}
		p.attempts++
		if time.Duration(now-p.sentAt) >= chargeAge {
			p.charged++
		}
		if int(p.charged) > f.opts.MaxRetries {
			// The peer is being demoted to fail-stop: every frame to it is
			// undeliverable, not just the overdue one. Account the
			// abandoned inflight frames before the link state vanishes
			// (the PeerDown that follows purges the peer's other links).
			tx.inflight[seq] = p // the purge reports the attempt count
			b.escalations = append(b.escalations, Event{
				Kind: EvEscalate, Src: key[0], Dst: key[1],
				Seq: seq, Attempt: int(p.attempts), Token: p.pkt.Token,
			})
			f.dead[key[1]] = true
			b.purged = f.purgeTxLocked(b.purged, key, tx)
			return math.MaxInt64
		}
		// The first retry waits one more timeout, each later one twice as
		// long as the one before.
		if p.backoff == 0 {
			p.backoff = f.rtoLocked(tx)
		} else {
			p.backoff = min(2*p.backoff, f.opts.RetryMax)
		}
		p.nextRetry = now + int64(p.backoff)
		next = min(next, p.nextRetry)
		tx.inflight[seq] = p
		b.resend = append(b.resend, p.pkt)
		b.retries = append(b.retries, Event{
			Kind: EvRetry, Src: key[0], Dst: key[1],
			Seq: seq, Attempt: int(p.attempts), Token: p.pkt.Token, Backoff: p.backoff,
		})
	}
	return next
}
