package mpi

import (
	"repro/internal/detector"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/trace"
)

// Proc is one rank's handle to the world, passed to the rank function by
// World.Run. All MPI operations hang off the communicators it owns; the
// world communicator is Proc.World().
type Proc struct {
	w         *World
	rank      int
	eng       *engine
	worldComm *Comm
	// ctxSeq is the per-proc communicator-context allocator (see
	// nextCtxPair). Guarded by eng.mu: elastic respawn reads it cross-rank
	// to seed a reincarnation's allocator.
	ctxSeq int
}

// newProc builds the per-rank application handle. rank is the PHYSICAL
// slot; in replication mode the proc presents the logical identity (its
// Rank, Size and world-communicator group are logical) while keeping the
// physical engine underneath.
func newProc(w *World, rank int) *Proc {
	p := &Proc{w: w, rank: w.logicalOf(rank), eng: w.eng(rank)}
	group := make([]int, w.lsize)
	for i := range group {
		group[i] = i
	}
	p.worldComm = newComm(p, group, ctxWorldP2P, ctxWorldInternal)
	return p
}

// nextCtxSeq advances the context allocator and returns its new position.
func (p *Proc) nextCtxSeq() int {
	p.eng.mu.Lock()
	defer p.eng.mu.Unlock()
	p.ctxSeq++
	return p.ctxSeq
}

// Rank returns this process's world rank (the logical rank in
// replication mode — replicas of one logical rank all report it).
func (p *Proc) Rank() int { return p.rank }

// PhysRank returns the physical slot this process occupies (equal to
// Rank outside replication mode). Harness-level assertions use it;
// application code should not.
func (p *Proc) PhysRank() int { return p.eng.rank }

// Gen returns this process's incarnation number (1 unless the rank was
// respawned into an elastic world).
func (p *Proc) Gen() int { return int(p.eng.gen) }

// ID returns this process's generation-stamped identity.
func (p *Proc) ID() RankID { return RankID{Slot: p.rank, Gen: int(p.eng.gen)} }

// Size returns the world size (including failed ranks — fail-stop ranks
// are never removed from the universe, per run-through stabilization).
// In replication mode this is the LOGICAL size the application addresses.
func (p *Proc) Size() int { return p.w.lsize }

// World returns the world communicator (MPI_COMM_WORLD).
func (p *Proc) World() *Comm { return p.worldComm }

// Registry exposes the perfect failure detector's registry. Application
// code normally goes through Comm.RankState (the paper's validate_rank);
// the registry is for harness-level assertions.
func (p *Proc) Registry() *detector.Registry { return p.w.registry }

// Tracer returns the world's event recorder (possibly nil; a nil recorder
// accepts and drops events).
func (p *Proc) Tracer() *trace.Recorder { return p.w.tracer }

// Metrics returns the world's counter table (possibly nil; a nil table
// accepts and drops increments).
func (p *Proc) Metrics() *metrics.World { return p.w.metrics }

// Obs returns the world's latency-histogram registry (possibly nil; a nil
// registry accepts and drops observations).
func (p *Proc) Obs() *obs.Registry { return p.w.obs }

// Checkpoint announces an application-defined point to the fault
// injector, which may fail-stop the rank exactly here.
func (p *Proc) Checkpoint(label string) {
	p.eng.checkAlive()
	p.w.fireHook(p.eng, HookEvent{Rank: p.rank, Point: HookCheckpoint, Peer: -1, Label: label})
}

// Abort tears down the whole world (MPI_Abort on MPI_COMM_WORLD). It does
// not return: the calling rank unwinds immediately and every other rank
// unwinds at its next MPI call.
func (p *Proc) Abort(code int) {
	p.w.tracer.Record(p.rank, trace.Note, -1, -1, -1, "MPI_Abort")
	p.w.abort(code)
	panic(abortPanic{code: code})
}

// AwaitKnownFailed is a test aid: it blocks until p's own engine has been
// told of at least n failed ranks, and returns early if p itself goes
// down. It is a function of this internal package and not a method, so
// that ftmpi's alias of Proc does not make it public API. Tests that kill
// a rank and then probe failure semantics wait here and not on
// Registry().AliveCount(): the registry's count drops BEFORE Kill runs the
// subscribers that notify each engine, so it says nothing about what this
// rank knows yet. Every notification rolls the engine's agreement channel,
// which is what the wait sleeps on.
func AwaitKnownFailed(p *Proc, n int) {
	e := p.eng
	for {
		e.mu.Lock()
		known := len(e.knownFailedSnapshotLocked(nil))
		ch := e.agreeCh
		e.mu.Unlock()
		if known >= n {
			return
		}
		select {
		case <-ch:
		case <-e.downCh:
			return
		}
	}
}

// Die fail-stops the calling rank (used by scripted failure scenarios
// that kill from application level rather than via hooks). Does not
// return.
func (p *Proc) Die() {
	p.eng.die()
}
