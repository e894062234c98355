package mpi

import (
	"fmt"

	"repro/internal/trace"
	"repro/internal/transport"
)

// Send transmits payload to the communicator rank dst with the given tag.
// It is the paper's MPI_Send: eager and buffered, so it completes as soon
// as the fabric has the message.
//
// Failure semantics (paper Section II): sending to a rank whose failure
// is known and unrecognized returns ErrRankFailStop — the trigger for the
// FT_Send_right failover loop (Fig. 5). Sending to a recognized failed
// rank has ProcNull semantics and succeeds without effect. A failure that
// is not yet locally known is NOT detected here: the message is handed to
// the fabric and vanishes at the dead rank — exactly the silent loss that
// makes Figure 6's naive receive hang.
func (c *Comm) Send(dst, tag int, payload []byte) error {
	c.eng.checkAlive()
	if tag < 0 {
		return c.herr(fmt.Errorf("%w: negative tag %d", ErrInvalidArg, tag))
	}
	return c.herr(c.send(dst, tag, c.ctxP2P, payload))
}

// send implements Send on an explicit context; internal callers use
// negative tags on the internal context.
func (c *Comm) send(dst, tag, ctx int, payload []byte) error {
	if dst == ProcNull {
		return nil
	}
	wr, err := c.WorldRank(dst)
	if err != nil {
		return err
	}

	c.eng.mu.Lock()
	recognized := c.recognized[wr]
	failed := c.eng.knownFailed[wr]
	c.eng.mu.Unlock()
	if recognized {
		return nil // MPI_PROC_NULL semantics
	}

	c.proc.w.fireHook(c.eng, HookEvent{Rank: c.proc.rank, Point: HookBeforeSend, Peer: wr, Tag: tag})
	if failed {
		return failStop(wr)
	}
	if c.proc.w.repl != nil {
		// Replication mode: wr is a LOGICAL destination; send this replica's
		// copy to its mirror replica there (replSend makes the per-copy
		// defensive copies itself).
		if err := c.eng.replSend(wr, tag, ctx, payload); err != nil {
			return err
		}
		c.proc.w.fireHook(c.eng, HookEvent{Rank: c.proc.rank, Point: HookAfterSend, Peer: wr, Tag: tag})
		return nil
	}
	w := c.proc.w
	pkt := w.outPacket(payload, false)
	pkt.Src, pkt.Dst, pkt.Tag, pkt.Context, pkt.Kind = c.eng.rank, wr, tag, ctx, transport.KindData
	err = c.eng.sendPacket(pkt)
	w.sent(pkt)
	if err != nil {
		return err
	}
	c.proc.w.fireHook(c.eng, HookEvent{Rank: c.proc.rank, Point: HookAfterSend, Peer: wr, Tag: tag})
	return nil
}

// Isend starts a non-blocking send. Sends are eager, so the returned
// request is already complete; errors surface at Wait, as in MPI.
func (c *Comm) Isend(dst, tag int, payload []byte) *Request {
	c.eng.checkAlive()
	var err error
	if tag < 0 {
		err = fmt.Errorf("%w: negative tag %d", ErrInvalidArg, tag)
	} else {
		err = c.send(dst, tag, c.ctxP2P, payload)
	}
	r := newRequest(c.eng, c, reqSend)
	r.tag, r.ctx = tag, c.ctxP2P
	c.eng.mu.Lock()
	r.completeLocked(err, Status{Source: c.myRank, Tag: tag, Len: len(payload)}, nil)
	c.eng.mu.Unlock()
	return r
}

// Irecv posts a non-blocking receive from communicator rank src (or
// AnySource) with the given tag (or AnyTag).
//
// This operation doubles as the paper's failure detector (Fig. 9): a
// receive posted to a peer that never sends completes only if that peer
// fails, in which case it completes with ErrRankFailStop.
func (c *Comm) Irecv(src, tag int) *Request {
	c.eng.checkAlive()
	return c.irecv(src, tag, c.ctxP2P)
}

func (c *Comm) irecv(src, tag, ctx int) *Request {
	r := newRequest(c.eng, c, reqRecv)
	r.isRecv, r.tag, r.ctx = true, tag, ctx
	if src == ProcNull {
		r.srcWorld = ProcNull
		c.eng.mu.Lock()
		r.completeLocked(nil, Status{Source: ProcNull, Tag: tag}, nil)
		c.eng.mu.Unlock()
		return r
	}
	if src == AnySource {
		r.srcWorld = AnySource
	} else {
		wr, err := c.WorldRank(src)
		if err != nil {
			c.eng.mu.Lock()
			r.completeLocked(err, Status{}, nil)
			c.eng.mu.Unlock()
			return r
		}
		r.srcWorld = wr
		c.eng.mu.Lock()
		recognized := c.recognized[wr]
		c.eng.mu.Unlock()
		if recognized {
			// MPI_PROC_NULL semantics: complete immediately, no data.
			c.eng.mu.Lock()
			r.completeLocked(nil, Status{Source: ProcNull, Tag: tag}, nil)
			c.eng.mu.Unlock()
			return r
		}
	}
	c.proc.w.tracer.Record(c.proc.rank, trace.RecvPosted, src, tag, -1, "")
	c.eng.postRecv(r)
	return r
}

// Recv blocks until a matching message arrives and returns its payload,
// which is the caller's to keep (Request.KeepPayload).
func (c *Comm) Recv(src, tag int) ([]byte, Status, error) {
	r := c.Irecv(src, tag)
	st, err := r.Wait()
	if err != nil {
		return nil, st, c.herr(err)
	}
	c.proc.w.tracer.Record(c.proc.rank, trace.RecvCompleted, st.Source, st.Tag, -1, "")
	return r.KeepPayload(), st, nil
}

// Sendrecv posts the receive, performs the send, then waits for the
// receive — the deadlock-free exchange used by the collective algorithms.
func (c *Comm) Sendrecv(dst, sendTag int, payload []byte, src, recvTag int) ([]byte, Status, error) {
	r := c.Irecv(src, recvTag)
	if err := c.Send(dst, sendTag, payload); err != nil {
		r.Cancel()
		return nil, Status{}, err
	}
	st, err := r.Wait()
	if err != nil {
		return nil, st, c.herr(err)
	}
	return r.KeepPayload(), st, nil
}

// Iprobe reports whether a matching message is queued, without receiving
// it (MPI_Iprobe).
func (c *Comm) Iprobe(src, tag int) (bool, Status, error) {
	c.eng.checkAlive()
	srcWorld := src
	if src != AnySource {
		wr, err := c.WorldRank(src)
		if err != nil {
			return false, Status{}, c.herr(err)
		}
		srcWorld = wr
	}
	c.eng.mu.Lock()
	defer c.eng.mu.Unlock()
	if pkt, src := c.eng.unexpected.probe(srcWorld, tag, c.ctxP2P); pkt != nil {
		return true, Status{Source: c.rankOf(src), Tag: pkt.Tag, Len: len(pkt.Payload)}, nil
	}
	return false, Status{}, nil
}

// --- internal-context point-to-point (collectives, comm management) ---------

// sendInternal sends on the communicator's internal context. Tags here
// are library-owned and may be negative.
func (c *Comm) sendInternal(dst, tag int, payload []byte) error {
	c.eng.checkAlive()
	return c.send(dst, tag, c.ctxInternal, payload)
}

// irecvInternal posts a receive on the internal context.
func (c *Comm) irecvInternal(src, tag int) *Request {
	c.eng.checkAlive()
	return c.irecv(src, tag, c.ctxInternal)
}

// recvInternal is the blocking internal-context receive.
func (c *Comm) recvInternal(src, tag int) ([]byte, Status, error) {
	r := c.irecvInternal(src, tag)
	st, err := r.Wait()
	if err != nil {
		return nil, st, err
	}
	return r.KeepPayload(), st, nil
}

// SendInternal exposes internal-context sends to in-repo library packages
// (internal/collective). Application code should use Send.
func (c *Comm) SendInternal(dst, tag int, payload []byte) error {
	return c.sendInternal(dst, tag, payload)
}

// IrecvInternal exposes internal-context receives to in-repo library
// packages (internal/collective). Application code should use Irecv.
func (c *Comm) IrecvInternal(src, tag int) *Request {
	return c.irecvInternal(src, tag)
}

// RecvInternal exposes blocking internal-context receives to in-repo
// library packages (internal/collective).
func (c *Comm) RecvInternal(src, tag int) ([]byte, Status, error) {
	return c.recvInternal(src, tag)
}
