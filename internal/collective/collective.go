// Package collective implements MPI collective operations over the
// point-to-point layer of internal/mpi, with the failure semantics of the
// run-through stabilization proposal (paper Section II):
//
//   - Once any participant has failed, collectives return an error in the
//     ErrRankFailStop class until the communicator is repaired with
//     Comm.ValidateAll.
//   - Return codes are intentionally NOT consistent across ranks: the
//     binomial broadcast lets a rank return success as soon as it has
//     forwarded to its children, even if the failure strikes elsewhere in
//     the tree afterwards — the exact behaviour the paper cites as the
//     reason MPI_Barrier cannot implement termination detection.
//   - After ValidateAll, recognized failed ranks are excluded from the
//     participant list and the algorithms run over the survivors.
//
// Algorithms: dissemination barrier; binomial-tree broadcast, reduce,
// gather and scatter; recursive-doubling allreduce; ring and Bruck
// allgather; pairwise alltoall; linear inclusive scan. Non-blocking
// Ibarrier and Ibcast are provided for the paper's Section III-C
// discussion.
package collective

import (
	"fmt"

	"repro/internal/mpi"
)

// roster is the participant view of one collective call, with its tag.
// It is a value, and comm is the communicator's cached view (see
// mpi.CollView): shared and read-only.
type roster struct {
	comm []int // participants' comm ranks, in comm-rank order
	me   int   // my index in comm
	n    int
	tag  int
}

// newRoster opens a collective call: one mpi.Comm.CollEnter consumes the
// tag, applies the Section II gate and hands back the participant view.
// Collectives operate on *indices within the participant list* so that
// algorithms are oblivious to gaps left by validated failures.
func newRoster(c *mpi.Comm) (roster, error) {
	tag, v, err := c.CollEnter()
	if err != nil {
		return roster{}, err
	}
	if v.Me < 0 {
		return roster{}, fmt.Errorf("collective: rank %d excluded from participants %v", c.Rank(), v.World)
	}
	return roster{comm: v.Comm, me: v.Me, n: len(v.Comm), tag: tag}, nil
}

// send transmits to participant index i on the collective's tag.
func (r *roster) send(c *mpi.Comm, i int, payload []byte) error {
	return c.SendInternal(r.comm[i], r.tag, payload)
}

// recv blocks for a message from participant index i.
func (r *roster) recv(c *mpi.Comm, i int) ([]byte, error) {
	pl, _, err := c.RecvInternal(r.comm[i], r.tag)
	return pl, err
}

// sendrecv posts the receive from participant index from, sends payload to
// participant index to, and waits for the receive: the deadlock-free
// exchange of every round-based algorithm here. The request goes back to
// the pool.
func (r *roster) sendrecv(c *mpi.Comm, to int, payload []byte, from int) ([]byte, error) {
	req := c.IrecvInternal(r.comm[from], r.tag)
	defer req.Free()
	if err := r.send(c, to, payload); err != nil {
		req.Cancel()
		return nil, err
	}
	if _, err := req.Wait(); err != nil {
		return nil, err
	}
	return req.Payload(), nil
}

// Barrier blocks until all participants arrive — dissemination algorithm,
// ceil(log2 n) rounds. With a failed participant it returns
// ErrRankFailStop (possibly at a subset of ranks; see package comment).
func Barrier(c *mpi.Comm) error {
	r, err := newRoster(c)
	if err != nil {
		return err
	}
	return r.runBarrier(c)
}

// Bcast distributes root's buffer to all participants along a binomial
// tree rooted at participant index of root (a comm rank). Non-root ranks
// receive the broadcast payload as the return value; the root gets its
// own buffer back.
func Bcast(c *mpi.Comm, root int, buf []byte) ([]byte, error) {
	r, err := newRoster(c)
	if err != nil {
		return nil, err
	}
	return r.runBcast(c, root, buf)
}

func (r *roster) indexOfComm(commRank int) (int, error) {
	for i, cr := range r.comm {
		if cr == commRank {
			return i, nil
		}
	}
	return -1, fmt.Errorf("collective: root %d is not a participant: %w", commRank, mpi.ErrInvalidRank)
}

// Op combines two reduction operands (associative, commutative) and
// returns the result. Like the inoutvec of an MPI user function, the
// first operand is the accumulator: the predefined operators combine into
// a's own storage and return it (truncated to the shorter operand), and
// never write b. A user Op may do the same or return fresh storage. The
// collectives pass only their private accumulator as a, never a received
// payload: on a retaining fabric a delivered payload can be the sender's
// buffer, still held for retransmission.
type Op func(a, b []byte) []byte

// Reduce combines every participant's contribution with op, delivering
// the result at root (comm rank); other ranks return nil. Binomial tree.
func Reduce(c *mpi.Comm, root int, contrib []byte, op Op) ([]byte, error) {
	r, err := newRoster(c)
	if err != nil {
		return nil, err
	}
	rootIdx, err := r.indexOfComm(root)
	if err != nil {
		return nil, err
	}
	vrank := (r.me - rootIdx + r.n) % r.n
	acc := append([]byte(nil), contrib...)
	// Children send up the mirrored binomial tree used by Bcast.
	for bit := 1; bit < r.n; bit *= 2 {
		if vrank&bit != 0 {
			parent := (vrank&^bit + rootIdx) % r.n
			if err := r.send(c, parent, acc); err != nil {
				return nil, err
			}
			return nil, nil
		}
		if vrank+bit < r.n {
			child := (vrank + bit + rootIdx) % r.n
			pl, err := r.recv(c, child)
			if err != nil {
				return nil, err
			}
			acc = op(acc, pl)
		}
	}
	return acc, nil
}

// Allreduce combines all contributions and delivers the result
// everywhere, by recursive doubling with a fold-in pre-phase for
// non-power-of-two participant counts.
func Allreduce(c *mpi.Comm, contrib []byte, op Op) ([]byte, error) {
	r, err := newRoster(c)
	if err != nil {
		return nil, err
	}
	if r.n == 1 {
		return append([]byte(nil), contrib...), nil
	}
	// Largest power of two <= n.
	pow := 1
	for pow*2 <= r.n {
		pow *= 2
	}
	rem := r.n - pow
	// Pre-phase: ranks >= pow send their contribution to (me - pow) and
	// sit out until the result comes back; partners fold it in.
	if r.me >= pow {
		if err := r.send(c, r.me-pow, contrib); err != nil {
			return nil, err
		}
		return r.recv(c, r.me-pow)
	}
	acc := append([]byte(nil), contrib...)
	if r.me < rem {
		pl, err := r.recv(c, r.me+pow)
		if err != nil {
			return nil, err
		}
		acc = op(acc, pl)
	}
	// Recursive doubling among the pow-sized core.
	for dist := 1; dist < pow; dist *= 2 {
		partner := r.me ^ dist
		pl, err := r.sendrecv(c, partner, acc, partner)
		if err != nil {
			return nil, err
		}
		acc = op(acc, pl)
	}
	// Post-phase: return the result to the folded-in ranks.
	if r.me < rem {
		if err := r.send(c, r.me+pow, acc); err != nil {
			return nil, err
		}
	}
	return acc, nil
}

// Gather collects every participant's contribution at root (comm rank):
// result[i] is participant i's payload (participant order). Non-roots
// return nil. Linear algorithm — gathers are root-bottlenecked anyway and
// the linear form keeps per-rank contributions intact.
func Gather(c *mpi.Comm, root int, contrib []byte) ([][]byte, error) {
	r, err := newRoster(c)
	if err != nil {
		return nil, err
	}
	rootIdx, err := r.indexOfComm(root)
	if err != nil {
		return nil, err
	}
	if r.me != rootIdx {
		return nil, r.send(c, rootIdx, contrib)
	}
	out := make([][]byte, r.n)
	out[r.me] = append([]byte(nil), contrib...)
	for i := 0; i < r.n; i++ {
		if i == r.me {
			continue
		}
		pl, err := r.recv(c, i)
		if err != nil {
			return nil, err
		}
		out[i] = pl
	}
	return out, nil
}

// Scatter distributes parts[i] to participant i from root; every rank
// returns its own slice. parts is only read at the root and must have one
// entry per participant.
func Scatter(c *mpi.Comm, root int, parts [][]byte) ([]byte, error) {
	r, err := newRoster(c)
	if err != nil {
		return nil, err
	}
	rootIdx, err := r.indexOfComm(root)
	if err != nil {
		return nil, err
	}
	if r.me == rootIdx {
		if len(parts) != r.n {
			return nil, fmt.Errorf("collective: scatter needs %d parts, got %d: %w",
				r.n, len(parts), mpi.ErrInvalidArg)
		}
		for i := 0; i < r.n; i++ {
			if i == r.me {
				continue
			}
			if err := r.send(c, i, parts[i]); err != nil {
				return nil, err
			}
		}
		return append([]byte(nil), parts[r.me]...), nil
	}
	return r.recv(c, rootIdx)
}

// Allgather collects every participant's contribution everywhere using
// the ring algorithm: n-1 steps, each forwarding the previously received
// block — fitting for a paper about ring communication.
func Allgather(c *mpi.Comm, contrib []byte) ([][]byte, error) {
	r, err := newRoster(c)
	if err != nil {
		return nil, err
	}
	out := make([][]byte, r.n)
	out[r.me] = append([]byte(nil), contrib...)
	right := (r.me + 1) % r.n
	left := (r.me - 1 + r.n) % r.n
	blk := r.me
	for step := 0; step < r.n-1; step++ {
		pl, err := r.sendrecv(c, right, out[blk], left)
		if err != nil {
			return nil, err
		}
		blk = (blk - 1 + r.n) % r.n
		out[blk] = pl
	}
	return out, nil
}

// Alltoall delivers parts[i] to participant i and returns the slice of
// payloads received (index j = from participant j). Pairwise-exchange
// algorithm: n rounds of Sendrecv-style exchanges.
func Alltoall(c *mpi.Comm, parts [][]byte) ([][]byte, error) {
	r, err := newRoster(c)
	if err != nil {
		return nil, err
	}
	if len(parts) != r.n {
		return nil, fmt.Errorf("collective: alltoall needs %d parts, got %d: %w",
			r.n, len(parts), mpi.ErrInvalidArg)
	}
	out := make([][]byte, r.n)
	out[r.me] = append([]byte(nil), parts[r.me]...)
	for step := 1; step < r.n; step++ {
		sendTo := (r.me + step) % r.n
		recvFrom := (r.me - step + r.n) % r.n
		pl, err := r.sendrecv(c, sendTo, parts[sendTo], recvFrom)
		if err != nil {
			return nil, err
		}
		out[recvFrom] = pl
	}
	return out, nil
}

// Scan computes the inclusive prefix reduction: participant i receives
// op(contrib_0, ..., contrib_i). Linear pipeline.
func Scan(c *mpi.Comm, contrib []byte, op Op) ([]byte, error) {
	r, err := newRoster(c)
	if err != nil {
		return nil, err
	}
	acc := append([]byte(nil), contrib...)
	if r.me > 0 {
		pl, err := r.recv(c, r.me-1)
		if err != nil {
			return nil, err
		}
		acc = op(acc, pl)
	}
	if r.me < r.n-1 {
		if err := r.send(c, r.me+1, acc); err != nil {
			return nil, err
		}
	}
	return acc, nil
}
