package mpi

import (
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/transport"
)

// Special rank and tag values, mirroring MPI_PROC_NULL, MPI_ANY_SOURCE
// and MPI_ANY_TAG.
const (
	// ProcNull is the null process: sends to it succeed without effect and
	// receives from it complete immediately with no data. Recognized
	// failed ranks behave like ProcNull (run-through stabilization).
	ProcNull = -2
	// AnySource matches a message from any source (MPI_ANY_SOURCE). While
	// an unrecognized failure exists in the communicator, a receive on
	// AnySource fails with ErrRankFailStop (paper Section II).
	AnySource = -3
	// AnyTag matches a message with any tag (MPI_ANY_TAG).
	AnyTag = -4
)

// Status describes a completed receive, like MPI_Status.
type Status struct {
	// Source is the communicator rank the message came from (ProcNull for
	// null receives).
	Source int
	// Tag is the matched message tag.
	Tag int
	// Len is the payload length in bytes. For a completed validate
	// request it carries the agreed failure count.
	Len int
}

// Request is a non-blocking operation handle (MPI_Request). A Request is
// owned by the rank that created it and must only be waited on by that
// rank's goroutine (or by internal service goroutines of the same rank).
type Request struct {
	eng  *engine
	comm *Comm

	// Matching criteria for posted receives; srcWorld is a world rank or
	// AnySource.
	isRecv   bool
	srcWorld int
	tag      int
	ctx      int

	// postSeq is the post-order stamp assigned by the posted index; it
	// arbitrates between an exact-bucket hit and a wildcard hit so the
	// earliest-posted matching receive wins (MPI non-overtaking).
	postSeq uint64

	// Completion state, guarded by eng.mu.
	done         bool
	consumed     bool    // returned by a Waitany/Waitall already
	observedHook bool    // HookAfterRecv already fired for this completion
	kind         reqKind // one byte, among the flags: see waiter0
	pooled       bool    // payload is a pooled transport read: Release may return it
	doneSeq      uint64  // the engine's completion order, for Waitany fairness
	err          error
	status       Status
	payload      []byte
	result       int // validate_all agreed failure count

	// waiters are the per-request completion signals: each registered
	// channel gets a non-blocking token when the request completes, so
	// only goroutines actually waiting on THIS request wake — there is no
	// engine-wide broadcast on the completion path. The list starts out in
	// waiter0: a request almost always has one waiter, and a Recv that has
	// to park should allocate no more than one that finds its message
	// waiting (otherwise allocations per hop measure how the scheduler
	// happened to interleave sender and receiver). reqKind is a byte among
	// the flags above so that waiter0 fits in the 176-byte size class the
	// struct had without it.
	waiters []chan struct{}
	waiter0 [1]chan struct{}
}

type reqKind uint8

const (
	reqRecv reqKind = iota
	reqSend
	reqValidate
	reqGeneric // goroutine-backed non-blocking collectives
)

// requestPool recycles Request objects on the same sync.Pool discipline
// the transport codec uses for frame and payload buffers: whoever takes
// an object owns it, and it returns to the pool exactly once, only when
// nothing else can reference it (see Request.Free).
var requestPool = sync.Pool{New: func() any { return new(Request) }}

// newRequest takes a zeroed Request from the pool and binds it to an
// engine. Callers must set the remaining matching/completion fields.
func newRequest(e *engine, c *Comm, kind reqKind) *Request {
	r := requestPool.Get().(*Request)
	r.eng, r.comm, r.kind = e, c, kind
	return r
}

// Free returns a COMPLETED request to the internal pool. It is optional —
// unfreed requests are garbage-collected — but hot paths (Recv, the ring
// library) use it to keep the steady state allocation-free. The caller
// must not touch the request after Free; extract Payload/Result first.
// The payload stays valid: it now belongs to whoever extracted it, and is
// garbage-collected. Freeing a pending or waited-on request is a no-op.
func (r *Request) Free() { r.free(false) }

// Release is Free for a consumer that is also done with the payload: a
// payload the TCP fabric read into a pooled buffer (transport.Packet's
// Pooled mark, copied onto the request at completion) goes back to the
// transport's pool, so the next frame of its size allocates nothing.
// After Release the caller must not touch the request, nor any slice
// Payload returned. Only a consumer that knows no reference to the bytes
// survives may call it; the ring does, after decoding its two integers.
// Anything that hands the bytes on (Recv, the collectives, agreement,
// state transfer) frees instead. A payload that was never marked — every
// Local one, which is the sender's defensive copy or, with ARQ, its
// retransmit buffer — is left to the garbage collector as Free leaves it.
func (r *Request) Release() { r.free(true) }

// free implements Free and Release.
func (r *Request) free(releasePayload bool) {
	e := r.eng
	if e == nil {
		return
	}
	e.mu.Lock()
	busy := !r.done || len(r.waiters) > 0
	e.mu.Unlock()
	if busy {
		return
	}
	if releasePayload && r.pooled {
		transport.PutPayload(r.payload)
	}
	*r = Request{}
	requestPool.Put(r)
}

// waiterPool recycles the cap-1 signal channels used by Wait/Waitany.
var waiterPool = sync.Pool{New: func() any { return make(chan struct{}, 1) }}

func getWaiter() chan struct{} { return waiterPool.Get().(chan struct{}) }

// putWaiter drains a deregistered signal channel and pools it. Safe only
// after the channel is off every request's waiter list (caller held
// eng.mu while removing it), so no further sends can race the drain.
func putWaiter(ch chan struct{}) {
	select {
	case <-ch:
	default:
	}
	waiterPool.Put(ch)
}

// poke hands a waiter its wake-up token without blocking: the channel has
// room for one, and a second token would say nothing the first did not.
func poke(ch chan struct{}) {
	select {
	case ch <- struct{}{}:
	default:
	}
}

// addWaiterLocked registers ch for the completion signal. Caller holds
// eng.mu.
func (r *Request) addWaiterLocked(ch chan struct{}) {
	if r.waiters == nil {
		r.waiters = r.waiter0[:0]
	}
	r.waiters = append(r.waiters, ch)
}

// dropWaiterLocked removes ch from the request's waiter list if the
// completion path has not already consumed the list. Caller holds eng.mu.
func (r *Request) dropWaiterLocked(ch chan struct{}) {
	for i, w := range r.waiters {
		if w == ch {
			last := len(r.waiters) - 1
			r.waiters[i] = r.waiters[last]
			r.waiters[last] = nil
			r.waiters = r.waiters[:last]
			return
		}
	}
}

// Done reports whether the request has completed (without consuming it).
func (r *Request) Done() bool {
	r.eng.mu.Lock()
	defer r.eng.mu.Unlock()
	return r.done
}

// Payload returns the received bytes of a completed receive request. It
// must only be called after Wait/Waitany/Test reported completion.
func (r *Request) Payload() []byte { return r.payload }

// Result returns the agreed failure count of a completed validate
// request (Comm.IvalidateAll).
func (r *Request) Result() int { return r.result }

// completeLocked finishes the request and pokes exactly the goroutines
// registered on it. Caller holds eng.mu.
func (r *Request) completeLocked(err error, st Status, payload []byte) {
	if r.done {
		return
	}
	r.done = true
	r.eng.completions++
	r.doneSeq = r.eng.completions
	r.err = err
	r.status = st
	r.payload = payload
	for _, ch := range r.waiters {
		poke(ch)
	}
	r.waiters = nil
}

// Cancel removes a pending receive from the matching engine and completes
// it with ErrCancelled. Cancelling a completed request is a no-op. The
// ring library uses this to retire the Figure 9 "failure detector" Irecv
// posted to the right neighbor when the neighbor changes — a lifecycle
// detail the paper's pseudocode leaves implicit.
func (r *Request) Cancel() {
	e := r.eng
	e.mu.Lock()
	defer e.mu.Unlock()
	if r.done {
		return
	}
	e.removePostedLocked(r)
	r.completeLocked(ErrCancelled, Status{Source: ProcNull}, nil)
}

// CancelOrPayload atomically retires a receive request: if it has
// already completed successfully, the received payload is returned (ok
// true) so the caller can re-queue or process it — no message is lost;
// otherwise the request is cancelled (or its error swallowed) and ok is
// false. This closes the race inherent in "cancel the failure-detector
// receive": the peer may have sent a legitimate message in the instant
// before cancellation (e.g. when a shrinking ring makes the right
// neighbor also the left neighbor).
func (r *Request) CancelOrPayload() ([]byte, bool) {
	e := r.eng
	e.mu.Lock()
	defer e.mu.Unlock()
	if r.done {
		if r.err == nil && r.isRecv && r.status.Source != ProcNull && r.payload != nil {
			r.pooled = false // the caller keeps the bytes: never release them
			return r.payload, true
		}
		return nil, false
	}
	e.removePostedLocked(r)
	r.completeLocked(ErrCancelled, Status{Source: ProcNull}, nil)
	return nil, false
}

// Wait blocks until the request completes and returns its status and
// error. Waiting again on a completed request returns the same result.
// The wait parks on one channel, registered on the request and in the
// engine's parked list: completions of OTHER requests on the same rank do
// not wake it, and fail-stop, teardown and abort poke it through the
// parked list (engine.wakeParkedLocked).
func (r *Request) Wait() (Status, error) {
	e := r.eng
	var waitStart time.Time
	e.mu.Lock()
	if r.isRecv && !r.done && e.w.obs != nil {
		waitStart = time.Now()
	}
	for !r.done {
		if e.dead.Load() {
			e.mu.Unlock()
			panic(killedPanic{rank: e.rank})
		}
		if e.closed.Load() {
			e.mu.Unlock()
			panic(closedPanic{})
		}
		if e.w.aborted.Load() {
			e.mu.Unlock()
			panic(abortPanic{code: e.w.abortCode()})
		}
		ch := getWaiter()
		r.addWaiterLocked(ch)
		e.parkLocked(ch)
		r.dropWaiterLocked(ch)
		putWaiter(ch)
	}
	if e.dead.Load() {
		e.mu.Unlock()
		panic(killedPanic{rank: e.rank})
	}
	st, err := r.status, r.err
	observed := r.isRecv && err == nil && !r.observedHook
	if observed {
		r.observedHook = true
	}
	e.mu.Unlock()
	if !waitStart.IsZero() {
		e.w.obs.Observe(e.rank, obs.RecvWait, time.Since(waitStart))
	}
	if observed && st.Source != ProcNull {
		e.w.fireHook(e, HookEvent{Rank: e.arank(), Point: HookAfterRecv, Peer: r.srcWorld, Tag: st.Tag})
	}
	return st, err
}

// Test reports completion without blocking. If the request has completed
// it returns (true, status, error).
func (r *Request) Test() (bool, Status, error) {
	e := r.eng
	e.mu.Lock()
	if e.dead.Load() {
		e.mu.Unlock()
		panic(killedPanic{rank: e.rank})
	}
	if !r.done {
		e.mu.Unlock()
		return false, Status{}, nil
	}
	st, err := r.status, r.err
	observed := r.isRecv && err == nil && !r.observedHook
	if observed {
		r.observedHook = true
	}
	e.mu.Unlock()
	if observed && st.Source != ProcNull {
		e.w.fireHook(e, HookEvent{Rank: e.arank(), Point: HookAfterRecv, Peer: r.srcWorld, Tag: st.Tag})
	}
	return true, st, err
}

// Waitany blocks until at least one of the requests completes and returns
// its index, status and error — the MPI_Waitany shape the paper's Figures
// 9, 11 and 13 are built around. Completed requests are consumed: a
// subsequent Waitany over the same slice returns a different request.
// Nil entries and already-consumed requests are skipped; if every entry is
// nil or consumed, Waitany returns ErrInvalidArg.
//
// When several requests have completed, the one that completed FIRST is
// returned. This matters for the paper's Figure 9 receive: the failure of
// the right neighbor and the arrival of the next ring buffer can both be
// pending, and handling them in completion order keeps recovery
// (resending the held buffer) ahead of fresh progress deterministically.
// Completion order is kept per engine (one rank's incarnation), which is
// why every request passed must belong to the same one.
//
// One signal channel is registered on every still-pending request, so a
// completion wakes this waiter alone — not every blocked goroutine on
// the rank, as the old engine-wide broadcast did.
func Waitany(reqs ...*Request) (int, Status, error) {
	var e *engine
	live := 0
	for _, r := range reqs {
		if r == nil {
			continue
		}
		live++
		if e == nil {
			e = r.eng
		} else if e != r.eng {
			return -1, Status{}, ErrInvalidArg
		}
	}
	if e == nil {
		return -1, Status{}, ErrInvalidArg
	}

	e.mu.Lock()
	for {
		if e.dead.Load() {
			e.mu.Unlock()
			panic(killedPanic{rank: e.rank})
		}
		if e.closed.Load() {
			e.mu.Unlock()
			panic(closedPanic{})
		}
		if e.w.aborted.Load() {
			e.mu.Unlock()
			panic(abortPanic{code: e.w.abortCode()})
		}
		remaining := 0
		best := -1
		for i, r := range reqs {
			if r == nil || r.consumed {
				continue
			}
			remaining++
			if r.done && (best < 0 || r.doneSeq < reqs[best].doneSeq) {
				best = i
			}
		}
		if best >= 0 {
			r := reqs[best]
			r.consumed = true
			st, err := r.status, r.err
			observed := r.isRecv && err == nil && !r.observedHook
			if observed {
				r.observedHook = true
			}
			e.mu.Unlock()
			if observed && st.Source != ProcNull {
				e.w.fireHook(e, HookEvent{Rank: e.arank(), Point: HookAfterRecv, Peer: r.srcWorld, Tag: st.Tag})
			}
			return best, st, err
		}
		if remaining == 0 {
			e.mu.Unlock()
			return -1, Status{}, ErrInvalidArg
		}
		ch := getWaiter()
		for _, r := range reqs {
			if r != nil && !r.consumed && !r.done {
				r.addWaiterLocked(ch)
			}
		}
		e.parkLocked(ch)
		for _, r := range reqs {
			if r != nil {
				r.dropWaiterLocked(ch)
			}
		}
		putWaiter(ch)
	}
}

// Testany is the non-blocking Waitany (MPI_Testany): if some non-nil,
// unconsumed request has completed, it is consumed and returned;
// otherwise ok is false and nothing is consumed. Only requests of the
// first non-nil request's engine are considered: completion order is kept
// per engine.
func Testany(reqs ...*Request) (ok bool, idx int, st Status, err error) {
	var e *engine
	for _, r := range reqs {
		if r != nil {
			e = r.eng
			break
		}
	}
	if e == nil {
		return false, -1, Status{}, ErrInvalidArg
	}
	e.mu.Lock()
	if e.dead.Load() {
		e.mu.Unlock()
		panic(killedPanic{rank: e.rank})
	}
	best := -1
	for i, r := range reqs {
		if r == nil || r.consumed || r.eng != e || !r.done {
			continue
		}
		if best < 0 || r.doneSeq < reqs[best].doneSeq {
			best = i
		}
	}
	if best < 0 {
		e.mu.Unlock()
		return false, -1, Status{}, nil
	}
	r := reqs[best]
	r.consumed = true
	st, err = r.status, r.err
	observed := r.isRecv && err == nil && !r.observedHook
	if observed {
		r.observedHook = true
	}
	e.mu.Unlock()
	if observed && st.Source != ProcNull {
		e.w.fireHook(e, HookEvent{Rank: e.arank(), Point: HookAfterRecv, Peer: r.srcWorld, Tag: st.Tag})
	}
	return true, best, st, err
}

// Waitsome blocks until at least one request completes, then consumes
// and returns ALL currently completed requests in completion order
// (MPI_Waitsome). The statuses and errors slices parallel the returned
// indices.
func Waitsome(reqs ...*Request) (indices []int, sts []Status, errs []error, err error) {
	idx, st, werr := Waitany(reqs...)
	if idx < 0 {
		return nil, nil, nil, werr
	}
	indices = append(indices, idx)
	sts = append(sts, st)
	errs = append(errs, werr)
	for {
		ok, i, s, e := Testany(reqs...)
		if !ok {
			return indices, sts, errs, nil
		}
		indices = append(indices, i)
		sts = append(sts, s)
		errs = append(errs, e)
	}
}

// GoRequest runs fn on a helper goroutine of the calling rank and returns
// a Request that completes with fn's result. It is the building block for
// goroutine-backed non-blocking operations (Ibarrier, Ibcast) — the moral
// equivalent of an MPI implementation's progress thread. If the rank is
// killed while fn runs, the request never completes; its waiters unwind
// through the usual fail-stop path.
func (c *Comm) GoRequest(fn func() (Status, error)) *Request {
	c.eng.checkAlive()
	r := newRequest(c.eng, c, reqGeneric)
	r.ctx = c.ctxInternal
	go func() {
		defer func() {
			switch recover().(type) {
			case nil:
			case killedPanic, closedPanic, abortPanic:
				// Rank died or world ended; nobody can be waiting safely.
			}
		}()
		st, err := fn()
		c.eng.mu.Lock()
		r.completeLocked(err, st, nil)
		c.eng.mu.Unlock()
	}()
	return r
}

// Waitall blocks until every non-nil request completes. It returns the
// per-request statuses and the first error encountered (in index order),
// matching the paper's observation that collective-style completions need
// not agree across requests.
func Waitall(reqs ...*Request) ([]Status, error) {
	sts := make([]Status, len(reqs))
	var firstErr error
	for i, r := range reqs {
		if r == nil {
			continue
		}
		st, err := r.Wait()
		sts[i] = st
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return sts, firstErr
}
