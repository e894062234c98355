package core

import (
	"errors"

	"repro/internal/metrics"
	"repro/internal/mpi"
	"repro/internal/trace"
)

// terminate runs the configured termination-detection protocol after the
// main ring loop (Section III-C/D). In a fault tolerant ring, a rank that
// finished its own iterations "must still stick around to make sure that
// the ring finishes by resending the buffer as necessary" — termination
// detection is what finally releases it.
func (n *node) terminate() error {
	switch n.cfg.Termination {
	case TermNone:
		return nil
	case TermRootBcast:
		return n.terminateRootBcast()
	case TermValidateAll:
		return n.terminateValidateAll()
	default:
		return nil
	}
}

// terminateRootBcast is Fig. 11: the root sends a termination message to
// every other rank (ignoring failures); non-roots wait concurrently for
// the termination message and for their right neighbor's failure (to keep
// resending). If the root fails: abort under RootAbort (the figure's
// baseline), or elect a successor that resumes the broadcast (the
// figure's "root fault tolerant version").
func (n *node) terminateRootBcast() error {
	for {
		if n.root == n.me {
			return n.broadcastTermination()
		}
		err := n.awaitTermination()
		if err == nil {
			return nil
		}
		if errors.Is(err, errBecameRoot) {
			n.stats.BecameRoot = true
			continue // resume the broadcast as the new root
		}
		return err
	}
}

// broadcastTermination is the root side of Fig. 11: send T_D to each
// other rank, explicitly ignoring per-destination failures ("/* Ignore
// fail.*/" in the figure).
func (n *node) broadcastTermination() error {
	for r := 0; r < n.size; r++ {
		if r == n.me {
			continue
		}
		_ = n.c.Send(r, TagTerm, nil) // failures deliberately ignored
		n.p.Tracer().Record(n.me, trace.TermSent, r, TagTerm, -1, "")
	}
	return nil
}

// awaitTermination is the non-root side of Fig. 11: wait for T_D from the
// root while watching the right neighbor; resend on its failure. Root
// failure either aborts (RootAbort) or signals errBecameRoot/retargets
// the wait (RootElect).
func (n *node) awaitTermination() error {
	term := n.c.Irecv(n.root, TagTerm)
	n.ensureDetector()
	for {
		idx, _, err := mpi.Waitany(term, n.detector)
		if err == nil {
			switch idx {
			case 0:
				n.p.Tracer().Record(n.me, trace.TermRecv, n.root, TagTerm, -1, "")
				return nil
			default:
				// Ring message raced into the detector (shrinking ring):
				// everyone upstream already finished, so it is a stale
				// resend; preserve-and-ignore.
				n.retire(n.detector)
				n.detector = nil
				n.detTo = -1
				n.ensureDetector()
				continue
			}
		}
		if !mpi.IsRankFailStop(err) {
			n.retire(term)
			return err
		}
		switch idx {
		case 1: // right neighbor failed: resend the last buffer (Fig. 11 lines 17-21)
			n.detector = nil
			n.detTo = -1
			n.pr = n.toRightOf(n.pr)
			n.ensureDetector()
			if rerr := n.resendRight(); rerr != nil {
				n.retire(term)
				return rerr
			}
		case 0: // the root failed
			if n.cfg.RootPolicy == RootAbort {
				// Fig. 11 lines 22-25: "Root failed, Abort".
				n.p.Abort(-1)
			}
			// Section III-D: elect the new root (Fig. 12) and retarget.
			n.root = n.currentRoot()
			n.p.Metrics().Inc(n.me, metrics.Elections)
			n.p.Tracer().Record(n.me, trace.Elected, n.root, -1, -1, "termination re-election")
			if n.root == n.me {
				return errBecameRoot
			}
			term = n.c.Irecv(n.root, TagTerm)
		}
	}
}

// terminateValidateAll is Fig. 13: a non-blocking
// MPI_Icomm_validate_all serves as the fault-tolerant termination
// agreement — it completes exactly when every alive rank has entered it,
// i.e. when every alive rank has finished the ring — while the right-
// neighbor watch keeps servicing resends. Root failure needs no special
// handling: the agreement's root role fails over internally.
func (n *node) terminateValidateAll() error {
	val := n.c.IvalidateAll()
	n.ensureDetector()
	for {
		idx, _, err := mpi.Waitany(val, n.detector)
		if err == nil {
			switch idx {
			case 0:
				n.p.Tracer().Record(n.me, trace.TermRecv, -1, -1, -1, "validate_all agreement")
				return nil
			default:
				// Stale ring resend raced into the detector; ignore.
				n.retire(n.detector)
				n.detector = nil
				n.detTo = -1
				n.ensureDetector()
				continue
			}
		}
		if !mpi.IsRankFailStop(err) && idx == 0 {
			// "Validate should not fail, but if it does repost" (Fig. 13).
			if errors.Is(err, mpi.ErrNoDecision) {
				return err // world shutting down
			}
			val = n.c.IvalidateAll()
			continue
		}
		if idx == 1 { // right neighbor failed: resend
			n.detector = nil
			n.detTo = -1
			n.pr = n.toRightOf(n.pr)
			n.ensureDetector()
			if rerr := n.resendRight(); rerr != nil {
				return rerr
			}
			continue
		}
		return err
	}
}
