package core

import (
	"fmt"

	"repro/internal/metrics"
	"repro/internal/mpi"
	"repro/internal/trace"
)

// ftSendRight is Fig. 5: send the buffer to the current right neighbor,
// and on rank-fail-stop errors advance to the next alive right neighbor
// and retry until the message is placed. The successfully sent buffer is
// remembered for Fig. 7-style resends.
func (n *node) ftSendRight(msg Message) error {
	return n.ftSendRightTag(msg, TagRing)
}

func (n *node) ftSendRightTag(msg Message, tag int) error {
	buf := n.encode(msg)
	for {
		err := n.c.Send(n.pr, tag, buf)
		if err == nil {
			n.lastSent = msg
			n.haveSent = true
			// The failure detector must watch the rank we now depend on.
			n.ensureDetector()
			return nil
		}
		if !mpi.IsRankFailStop(err) {
			return err
		}
		n.stats.SendFailovers++
		n.p.Tracer().Record(n.me, trace.OpFailed, n.pr, tag, int(msg.Marker), "send failover")
		n.pr = n.toRightOf(n.pr)
	}
}

// resendRight retransmits the last successfully sent buffer to the
// (already advanced) right neighbor — the recovery action of Fig. 7. The
// SeparateTag variant retransmits on TagResend (Section III-B).
func (n *node) resendRight() error {
	if !n.haveSent {
		return nil // nothing ever sent; nothing to recover
	}
	n.stats.Resends++
	n.p.Metrics().Inc(n.me, metrics.Resends)
	n.p.Tracer().Record(n.me, trace.Resend, n.pr, TagRing, int(n.lastSent.Marker), "")
	tag := TagRing
	if n.cfg.Variant == VariantSeparateTag {
		tag = TagResend
	}
	return n.ftSendRightTag(n.lastSent, tag)
}

// encode serializes msg into the node's reusable send buffer.
func (n *node) encode(msg Message) []byte {
	n.enc = msg.encode(n.enc, n.cfg.Padding)
	if n.cfg.stamp != nil {
		n.cfg.stamp(n.enc)
	}
	return n.enc
}

// retire atomically disposes of an outstanding receive: a payload that
// raced in is stashed for in-order processing rather than dropped. The
// request goes back to the pool.
func (n *node) retire(req *mpi.Request) {
	if req == nil {
		return
	}
	if pl, ok := req.CancelOrPayload(); ok {
		n.stash = append(n.stash, pl)
	}
	req.Free()
}

// release hands a consumed receive back once its payload has been read,
// buffer included when the fabric pooled it (Request.Release).
func release(req *mpi.Request) {
	if req != nil {
		req.Release()
	}
}

// --- the Fig. 9 failure detector -------------------------------------------

// ensureDetector keeps exactly one Irecv posted to the current right
// neighbor on the ring tag. Since the right neighbor never sends
// backwards, that request completes only if the right neighbor fails
// (Section III-A). The paper's pseudocode reposts it ad hoc; managing it
// as a single tracked request avoids leaking stale detectors to former
// neighbors. Two lifecycle details the pseudocode leaves implicit:
//
//   - In a two-rank ring P_L == P_R, so a detector would steal real ring
//     messages; it is suppressed (the normal receive already reports the
//     peer's death in that topology).
//   - When the ring shrinks concurrently, a legitimate message can land
//     in the detector before it is repositioned; retire() preserves it.
func (n *node) ensureDetector() {
	if n.cfg.Variant == VariantUnaware || n.cfg.Variant == VariantNaive {
		return // these variants have no failure detector
	}
	if n.pr == n.pl {
		n.dropDetector()
		return
	}
	if n.detector != nil && n.detTo == n.pr && !n.detector.Done() {
		return
	}
	n.dropDetector()
	n.detector = n.c.Irecv(n.pr, TagRing)
	n.detTo = n.pr
}

// dropDetector retires the outstanding detector, if any.
func (n *node) dropDetector() {
	if n.detector != nil {
		n.retire(n.detector)
		n.detector = nil
		n.detTo = -1
	}
}

// --- FT_Recv_left ------------------------------------------------------------

// ftRecvLeft is the paper's Figure 9 (plus the Fig. 10 marker handling):
// wait for the next ring buffer from the left while using a posted
// receive to the right neighbor as a failure detector. On the detector
// firing, advance the right neighbor and resend the last buffer; on the
// left failing, advance the left neighbor and wait for its resend; on a
// stale marker, drop the duplicate and keep waiting.
//
// The Naive variant (Fig. 6's broken design) handles only the left-failed
// case. The NoMarker variant skips the staleness check, forwarding
// duplicates (Fig. 8). The SeparateTag variant additionally listens for
// retransmissions on TagResend.
//
// Receives from the left are posted lazily, at the top of the wait, and
// only when the loop is about to wait: a consumed or failed receive is
// freed and left unposted until then, so a clean hop posts one receive
// and cancels none. A message that arrives meanwhile waits in the
// engine's unexpected queue, in order.
func (n *node) ftRecvLeft() (Message, error) {
	if n.cfg.Variant == VariantNaive {
		return n.naiveRecvLeft()
	}

	var normal, resendRx *mpi.Request
	normalTo, resendTo := -1, -1
	n.ensureDetector()

	cleanup := func() {
		n.retire(normal)
		n.retire(resendRx)
	}

	for {
		var pl []byte
		var got *mpi.Request // the receive pl came from; released once pl is decoded
		if len(n.stash) > 0 {
			// A message rescued from a retired request: process it first —
			// it was delivered before anything the live requests hold.
			pl = n.stash[0]
			n.stash = n.stash[1:]
		} else {
			if normal == nil {
				normal = n.c.Irecv(n.pl, TagRing)
				normalTo = n.pl
			}
			if resendRx == nil && n.cfg.Variant == VariantSeparateTag {
				resendRx = n.c.Irecv(n.pl, TagResend)
				resendTo = n.pl
			}
			idx, _, err := mpi.Waitany(normal, n.detector, resendRx)
			// Waitany consumed the request it returned: take it off the
			// books, so the loop re-posts it only if it waits again.
			switch idx {
			case 0:
				got, normal = normal, nil
			case 1:
				got, n.detector, n.detTo = n.detector, nil, -1
			case 2:
				got, resendRx = resendRx, nil
			}
			if err != nil {
				release(got) // a failed receive holds no payload
				switch idx {
				case 1: // the failure detector fired: right neighbor died
					if !mpi.IsRankFailStop(err) {
						cleanup()
						return Message{}, err
					}
					n.p.Tracer().Record(n.me, trace.OpFailed, n.pr, TagRing, -1, "right neighbor failed")
					n.pr = n.toRightOf(n.pr)
					n.ensureDetector()
					if rerr := n.resendRight(); rerr != nil {
						cleanup()
						return Message{}, rerr
					}
					continue

				case 0, 2: // the left neighbor died
					if !mpi.IsRankFailStop(err) {
						cleanup()
						return Message{}, err
					}
					// Two receives can be posted to the same dead left
					// neighbor (SeparateTag); only the first failure
					// advances P_L — the second merely reposts.
					failedTarget := normalTo
					if idx == 2 {
						failedTarget = resendTo
					}
					if failedTarget == n.pl {
						n.stats.RecvFailovers++
						n.p.Tracer().Record(n.me, trace.OpFailed, n.pl, TagRing, -1, "left neighbor failed")
						n.pl = n.toLeftOf(n.pl)
						n.ensureDetector() // pl may now equal pr
						// Section III-D: any left failover can mean the
						// ring lost its controller — not only when the
						// dead neighbor IS the root: with simultaneous
						// deaths (e.g. ranks 0 and 1 together) the rank
						// that died next to us need not be the root we
						// still have on record. Re-scan whenever the
						// recorded root is no longer alive.
						if !n.alive(n.root) {
							if n.cfg.RootPolicy == RootAbort {
								// "Root failure is not supported" in the
								// baseline design: abort (Section III-C).
								n.p.Abort(-1)
							}
							newRoot := n.currentRoot()
							if newRoot != n.root {
								n.root = newRoot
								if n.root == n.me {
									cleanup()
									return Message{}, errBecameRoot
								}
							}
						}
					}
					continue

				default:
					cleanup()
					return Message{}, err
				}
			}
			pl = got.Payload()
			if idx == 1 {
				// The detector completed with data: the ring shrank so the
				// right neighbor is (about to be) also our left; preserve
				// the message and re-arm.
				n.ensureDetector()
			}
		}

		msg, err := DecodeMessage(pl)
		if err == nil && n.cfg.verify != nil {
			err = n.cfg.verify(pl)
		}
		// Message is two integers: nothing refers to pl any more, so its
		// buffer can go back to the fabric's pool. A stashed payload (got
		// nil) stays with the garbage collector.
		release(got)
		if err != nil {
			cleanup()
			return Message{}, err
		}
		n.p.Tracer().Record(n.me, trace.RecvCompleted, n.pl, TagRing, int(msg.Marker), "")

		if n.cfg.Variant != VariantNoMarker {
			// Fig. 9 lines 24-28 / Fig. 10: drop already-processed resends.
			if msg.Marker < n.curMarker {
				n.stats.DupsDropped++
				n.p.Metrics().Inc(n.me, metrics.DupsDropped)
				n.p.Tracer().Record(n.me, trace.DupDropped, n.pl, TagRing, int(msg.Marker), "")
				continue
			}
			if msg.Marker > n.curMarker {
				// "This will never happen" (Section III-B) absent Byzantine
				// behaviour; surface it loudly if the runtime breaks FIFO.
				cleanup()
				return Message{}, fmt.Errorf("core: rank %d received future marker %d (current %d)",
					n.me, msg.Marker, n.curMarker)
			}
		} else if msg.Marker < n.curMarker {
			// Fig. 8: the duplicate is indistinguishable from the next
			// iteration's buffer and will be forwarded again.
			n.stats.DupsForwarded++
			n.p.Metrics().Inc(n.me, metrics.DupsForwarded)
			n.p.Tracer().Record(n.me, trace.DupForwarded, n.pl, TagRing, int(msg.Marker), "")
		}

		cleanup()
		return msg, nil
	}
}

// naiveRecvLeft is the Section III-A strawman (Fig. 6's design): mirror
// the send-side failover on the receive side with no failure detector.
// When the buffer dies with a mid-ring rank, this design waits forever.
func (n *node) naiveRecvLeft() (Message, error) {
	for {
		pl, _, err := n.c.Recv(n.pl, TagRing)
		if err != nil {
			if !mpi.IsRankFailStop(err) {
				return Message{}, err
			}
			n.stats.RecvFailovers++
			n.pl = n.toLeftOf(n.pl)
			continue
		}
		msg, derr := DecodeMessage(pl)
		if derr != nil {
			return Message{}, derr
		}
		return msg, nil
	}
}
