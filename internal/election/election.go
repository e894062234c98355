// Package election implements leader election over the fault-tolerant
// runtime.
//
// The paper's Figure 12 election is purely local: every rank scans the
// communicator with validate_rank and takes the lowest alive rank as the
// root. It needs no messages because the proposal's failure detector is
// perfect — all alive ranks converge on the same answer once failure
// notifications have propagated. LowestAlive reproduces it verbatim.
//
// As an extension (the paper cites reliable-broadcast/consensus work
// [11]-[14] as the general tool), ChangRoberts implements the classic
// ring-based election over the same fault-aware neighbor selection the
// ring application uses, electing the minimum alive rank by circulating
// candidate tokens. It demonstrates that an election can also be done
// with the paper's own neighbor-failover machinery when one does not
// want to rely on detector convergence. A failure notification that lands
// mid-election re-initiates the caller's candidacy, so the ring drains
// even when the dead rank swallowed the decisive token.
package election

import (
	"encoding/binary"
	"fmt"
	"time"

	"repro/internal/metrics"
	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/trace"
)

// LowestAlive is the paper's Figure 12 get_current_root: the first rank
// of the communicator whose locally known state is MPI_RANK_OK. It aborts
// the world if every rank appears failed (mirroring the figure's
// MPI_Abort), which cannot happen while the caller itself is alive and
// sane — the caller is a member.
func LowestAlive(p *mpi.Proc, c *mpi.Comm) int {
	start := time.Now()
	for r := 0; r < c.Size(); r++ {
		info, err := c.RankState(r)
		if err != nil {
			continue
		}
		if info.State == mpi.RankOK {
			p.Tracer().Record(p.Rank(), trace.Elected, r, -1, -1, "lowest-alive")
			p.Metrics().Inc(p.Rank(), metrics.NeighborScans)
			p.Obs().Observe(p.Rank(), obs.Election, time.Since(start))
			return r
		}
	}
	p.Abort(-1)
	return -1 // unreachable
}

// electionTag is the reserved user-level tag for Chang-Roberts tokens.
// Callers must not use it for application traffic during an election.
const electionTag = 1<<20 + 7

// ChangRoberts elects the minimum alive comm rank by circulating tokens
// around the fault-aware ring: each rank forwards tokens smaller than
// itself, swallows larger ones, and a rank that receives its own token
// has been elected; it then circulates an ELECTED announcement. Right
// neighbors are recomputed on send failure (Fig. 5 failover), and a
// failure notification that interrupts a receive re-injects the caller's
// own token: the dead rank may have swallowed the only token still
// circulating, and Chang-Roberts tolerates duplicate initiations — a
// smaller token swallows a larger one, so re-initiation can delay but
// never corrupt the outcome. It also re-sends the smallest token the
// caller forwarded: ranks learn of a failure one at a time, so the left
// neighbor of the dead rank can forward the minimum into it after the
// minimum's owner has already re-injected it.
//
// Every alive member of c must call ChangRoberts concurrently. It returns
// the elected comm rank.
func ChangRoberts(p *mpi.Proc, c *mpi.Comm) (int, error) {
	me := c.Rank()
	mets := p.Metrics()
	mets.Inc(p.Rank(), metrics.Elections)
	start := time.Now()
	defer func() { p.Obs().Observe(p.Rank(), obs.Election, time.Since(start)) }()

	send := func(kind byte, val int) error {
		buf := make([]byte, 9)
		buf[0] = kind
		binary.LittleEndian.PutUint64(buf[1:], uint64(val))
		right := me
		for {
			right = nextAlive(c, right)
			if right == me {
				// Alone: elected by default.
				return errAlone
			}
			err := c.Send(right, electionTag, buf)
			if err == nil {
				return nil
			}
			if !mpi.IsRankFailStop(err) {
				return err
			}
			// Right neighbor died between the state scan and the send:
			// advance past it (Fig. 5 failover).
		}
	}

	const (
		kindToken   = 1
		kindElected = 2
	)
	if err := send(kindToken, me); err != nil {
		if err == errAlone {
			return me, nil
		}
		return -1, err
	}
	best := me // the smallest token this rank has sent on
	for {
		pl, _, err := c.Recv(mpi.AnySource, electionTag)
		if err != nil {
			if mpi.IsRankFailStop(err) {
				// A failure occurred mid-election. Recognizing it and
				// retrying the receive is not enough: any token the dead
				// rank held vanished with it, and with no token in flight
				// the ring would never drain. Re-initiate our candidacy —
				// duplicates are harmless, a lost minimum is not.
				recognizeAllKnown(c)
				err := send(kindToken, me)
				if err == nil && best < me {
					err = send(kindToken, best)
				}
				if err != nil {
					if err == errAlone {
						return me, nil
					}
					return -1, err
				}
				continue
			}
			return -1, err
		}
		if len(pl) != 9 {
			return -1, fmt.Errorf("election: malformed token %v", pl)
		}
		kind, val := pl[0], int(binary.LittleEndian.Uint64(pl[1:]))
		switch kind {
		case kindToken:
			switch {
			case val == me:
				// Our token survived the full circle: we are the leader.
				p.Tracer().Record(p.Rank(), trace.Elected, me, -1, -1, "chang-roberts self")
				if err := send(kindElected, me); err != nil && err != errAlone {
					return -1, err
				}
				return me, nil
			case val < me:
				best = min(best, val)
				if err := send(kindToken, val); err != nil && err != errAlone {
					return -1, err
				}
			default:
				// Swallow tokens larger than us (our own is still out there).
			}
		case kindElected:
			p.Tracer().Record(p.Rank(), trace.Elected, val, -1, -1, "chang-roberts")
			if val != me {
				if err := send(kindElected, val); err != nil && err != errAlone {
					return -1, err
				}
			}
			return val, nil
		default:
			return -1, fmt.Errorf("election: unknown message kind %d", kind)
		}
	}
}

// errAlone signals that the sender is the only alive member.
var errAlone = fmt.Errorf("election: alone in communicator")

// nextAlive returns the next comm rank to the right of r whose local
// state is OK (possibly wrapping back to the caller).
func nextAlive(c *mpi.Comm, r int) int {
	n := c.Size()
	for i := 0; i < n; i++ {
		r = (r + 1) % n
		info, err := c.RankState(r)
		if err == nil && info.State == mpi.RankOK {
			return r
		}
	}
	return r
}

// recognizeAllKnown locally recognizes every known failed member so that
// AnySource receives can resume.
func recognizeAllKnown(c *mpi.Comm) {
	for _, info := range c.FailedRanks() {
		if info.State == mpi.RankFailed {
			_ = c.RecognizeLocal(info.Rank)
		}
	}
}
