package collective

import "repro/internal/mpi"

// Ibarrier is the non-blocking barrier scheduled for MPI 3.0 that the
// paper's Section III-C discusses (and rejects) as a termination-
// detection building block: a blocking barrier cannot progress the resend
// traffic to the right neighbor, and even the non-blocking form cannot
// guarantee consistent return codes across ranks.
//
// The returned request completes when all participants have entered the
// barrier, or with an error if a participant fails first.
func Ibarrier(c *mpi.Comm) *mpi.Request {
	tagged := barrierClosure(c)
	return c.GoRequest(func() (mpi.Status, error) {
		return mpi.Status{}, tagged()
	})
}

// barrierClosure captures the roster (and its collective tag) on the
// calling goroutine so that concurrent user collectives on the same
// communicator do not race the tag allocator.
func barrierClosure(c *mpi.Comm) func() error {
	r, err := newRoster(c)
	if err != nil {
		return func() error { return err }
	}
	return func() error { return r.runBarrier(c) }
}

// runBarrier is Barrier's body over a pre-built roster.
func (r *roster) runBarrier(c *mpi.Comm) error {
	if r.n <= 1 {
		return nil
	}
	for dist := 1; dist < r.n; dist *= 2 {
		to := (r.me + dist) % r.n
		from := (r.me - dist + r.n) % r.n
		req, err := r.exchange(c, to, nil, from)
		if err != nil {
			return err
		}
		req.Release()
	}
	return nil
}

// Ibcast starts a non-blocking broadcast of buf from root (comm rank).
// The payload received at non-root ranks is available from the request's
// Payload once complete... it is returned through the completion status
// payload of GoRequest, so callers use the returned fetch function.
func Ibcast(c *mpi.Comm, root int, buf []byte) (*mpi.Request, func() []byte) {
	var out []byte
	r, rosterErr := newRoster(c)
	req := c.GoRequest(func() (mpi.Status, error) {
		if rosterErr != nil {
			return mpi.Status{}, rosterErr
		}
		data, err := r.runBcast(c, root, buf)
		out = data
		return mpi.Status{Len: len(data)}, err
	})
	return req, func() []byte { return out }
}

// runBcast is Bcast's body over a pre-built roster.
func (r *roster) runBcast(c *mpi.Comm, root int, buf []byte) ([]byte, error) {
	rootIdx, err := r.indexOfComm(root)
	if err != nil {
		return nil, err
	}
	vrank := (r.me - rootIdx + r.n) % r.n
	data := buf
	if vrank != 0 {
		parent := (vrank&(vrank-1) + rootIdx) % r.n
		data, err = r.recv(c, parent)
		if err != nil {
			return nil, err
		}
	}
	low := vrank & (-vrank)
	if vrank == 0 {
		low = 1 << 30
	}
	for bit := 1; bit < low && vrank+bit < r.n; bit *= 2 {
		child := (vrank + bit + rootIdx) % r.n
		if err := r.send(c, child, data); err != nil {
			return data, err
		}
	}
	return data, nil
}
