package mpi

import (
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/trace"
)

// ValidateAll is the proposal's MPI_Comm_validate_all: a collective,
// fault-tolerant agreement on the communicator's failed ranks. On
// success:
//
//   - every alive member obtains the same failure count (the return
//     value),
//   - all agreed failures become recognized on this communicator
//     (MPI_RANK_NULL), and
//   - collective operations are re-enabled over the surviving members.
//
// All alive members of the communicator must call it (in the same order
// relative to other collectives), but it tolerates any member failing
// before or during the call — including the root of the agreement
// protocol in agreement.go.
func (c *Comm) ValidateAll() (int, error) {
	c.eng.checkAlive()
	inst := c.nextValidateInst()
	decision, err := c.validateAllDriver(inst)
	if err != nil {
		return 0, c.herr(err)
	}
	c.applyValidateDecision(decision)
	return len(decision), nil
}

// IvalidateAll is the non-blocking MPI_Icomm_validate_all of the paper's
// Figure 13: it starts the agreement and returns a request that completes
// when the decision is reached, so the caller can Waitany over it
// together with the right-neighbor failure-detector receive. The agreed
// failure count is available from Request.Result (and Status.Len).
func (c *Comm) IvalidateAll() *Request {
	c.eng.checkAlive()
	inst := c.nextValidateInst()
	r := newRequest(c.eng, c, reqValidate)
	r.tag, r.ctx = 0, c.ctxInternal
	go func() {
		defer func() {
			switch recover().(type) {
			case nil:
			case killedPanic, closedPanic, abortPanic:
				// The proc died or the world ended; nobody is waiting.
			}
		}()
		decision, err := c.validateAllDriver(inst)
		if err == nil {
			c.applyValidateDecision(decision)
		}
		c.eng.mu.Lock()
		r.result = len(decision)
		r.completeLocked(err, Status{Source: c.myRank, Len: len(decision)}, nil)
		c.eng.mu.Unlock()
	}()
	return r
}

// nextValidateInst allocates the next agreement instance under the engine
// lock: elastic respawn reads validateSeq cross-rank to compute a
// reincarnation's join fence, so the increment must be coherent with that
// read. The read side of joinMu makes World.join's revive + seed capture
// one step: an instance is entered before both, or after both.
func (c *Comm) nextValidateInst() int {
	w := c.proc.w
	w.joinMu.RLock()
	defer w.joinMu.RUnlock()
	c.eng.mu.Lock()
	defer c.eng.mu.Unlock()
	inst := c.validateSeq
	c.validateSeq++
	return inst
}

// applyValidateDecision recognizes the agreed failures and rebuilds the
// collective participant list.
func (c *Comm) applyValidateDecision(decision []int) {
	c.eng.mu.Lock()
	dec := make(map[int]bool, len(decision))
	var newly []int
	for _, f := range decision {
		// An agreement can conclude across a revive boundary, in which
		// case the decision names an incarnation that is already gone.
		// Recognizing the slot now would poison the new incarnation
		// (onPeerRevive cannot repair retroactively), so agreed failures
		// apply only while the registry still reports the slot dead.
		// Checked under eng.mu, where onPeerRevive's repair serializes.
		if !c.proc.w.appFailed(f) {
			continue
		}
		if !c.recognized[f] {
			newly = append(newly, f)
		}
		c.recognized[f] = true
		dec[f] = true
	}
	// The participant list is rebuilt from the agreed decision alone (not
	// from locally recognized ranks) so that every alive member computes
	// the identical list.
	c.setCollMembersLocked(func(wr int) bool { return !dec[wr] })
	c.validateEpoch++
	// Re-align the collective tag sequence across ranks: members of a
	// failed collective epoch may have consumed different tag counts.
	c.collSeq = c.validateEpoch * collSeqEpochStride
	c.eng.mu.Unlock()
	w := c.proc.w
	w.metrics.Inc(c.proc.rank, metrics.Validates)
	w.tracer.Record(c.proc.rank, trace.ValidateDone, -1, -1, -1, "")
	if w.repl == nil {
		// ABFT repair: the agreement concluding on a newly recognized
		// failure is the moment run-through stabilization restores service
		// for this rank, so it closes the cross-mode recovery clock.
		// (Replication mode observes at promotion instead; elastic at
		// respawn. Decision ids are physical ranks outside replication.)
		for _, f := range newly {
			if lat, ok := w.registry.SinceDeath(f); ok {
				w.obs.Observe(c.proc.rank, obs.RecoveryTotal, lat)
			}
		}
	}
}
