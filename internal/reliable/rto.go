package reliable

import "time"

// initialRTO is a link's retransmission timeout before its first
// round-trip sample: nothing is known about the link yet, so it stays at
// the conservative constant every link used to have.
const initialRTO = 2 * time.Millisecond

// defaultRetryBase is the floor of the timeout when Options.RetryBase is
// zero. The retry goroutine meets a deadline to the microsecond, so this is
// a policy, not a limit of the mechanism: at 100µs ring.local.lossy runs at
// 6.7µs a hop. But with waits that short the hop is mostly goroutine
// handoffs, whose cost drifts by 0.2-0.6µs between runs of one binary on
// the reference VM, and the benchmark cannot resolve the goodput (16 B over
// the hop) to its bound. At 0.6ms a lost frame costs a quarter of the fixed
// timeout it replaces (2ms on a 1ms tick: 2.5ms on average), the lossy ring
// runs at 19µs a hop against 82µs, and the runs repeat (EXPERIMENTS.md,
// "The floor and the spread").
const defaultRetryBase = 600 * time.Microsecond

// chargeAge is how old a frame must be before a retransmission of it
// counts against Options.MaxRetries. With a timeout of 100µs twelve
// doublings are over in 0.2s (RetryBase may be set that low); leaving the retries of the first 2ms free
// keeps the time to escalation at the 0.41s the fixed 2ms timeout gave, so
// a peer that merely stalls for a few hundred milliseconds is not declared
// dead.
const chargeAge = initialRTO

// rttEstimator is the smoothed round trip and its mean deviation of one
// directional link, with the gains of RFC 6298 (alpha 1/8, beta 1/4).
type rttEstimator struct {
	srtt, rttvar time.Duration
	sampled      bool
}

// observe folds in one round-trip sample.
func (e *rttEstimator) observe(rtt time.Duration) {
	if !e.sampled {
		e.srtt, e.rttvar, e.sampled = rtt, rtt/2, true
		return
	}
	dev := e.srtt - rtt
	if dev < 0 {
		dev = -dev
	}
	e.rttvar += (dev - e.rttvar) / 4
	e.srtt += (rtt - e.srtt) / 8
}

// rtoLocked is the link's retransmission timeout: SRTT + 4*RTTVAR, or
// initialRTO before the first sample, no less than RetryBase and no more
// than RetryMax. A nil link has no samples. Callers hold the link's lock.
func (f *Fabric) rtoLocked(tx *txLink) time.Duration {
	rto := initialRTO
	if tx != nil && tx.rtt.sampled {
		rto = tx.rtt.srtt + 4*tx.rtt.rttvar
	}
	return min(max(rto, f.opts.RetryBase), f.opts.RetryMax)
}

// LinkRTO returns the current retransmission timeout of the link
// src -> dst: what a frame sent now waits before its first retry.
func (f *Fabric) LinkRTO(src, dst int) time.Duration {
	tx := f.findTx(src, dst)
	if tx != nil {
		defer tx.mu.Unlock()
	}
	return f.rtoLocked(tx)
}
