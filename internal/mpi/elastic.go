package mpi

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/trace"
)

// RankID is a generation-stamped rank identity. A world slot that fails
// and is respawned is occupied by a NEW process identity: same Slot,
// higher Gen. The transport stamps both endpoints' generations on every
// frame, so traffic from (or to) a dead incarnation is fenced at delivery
// rather than matched against the reincarnation's queues.
type RankID struct {
	// Slot is the world rank index, stable across incarnations.
	Slot int
	// Gen is the incarnation number, starting at 1.
	Gen int
}

// String renders the identity as "slot.gen" (e.g. "3.2" for the first
// respawn of rank 3).
func (id RankID) String() string { return fmt.Sprintf("%d.%d", id.Slot, id.Gen) }

// ElasticOptions configures elastic-world repair (World.Spawn).
type ElasticOptions struct {
	// AutoRespawn reincarnates every confirmed-dead slot automatically,
	// RespawnDelay after the failure notification.
	AutoRespawn bool
	// RespawnDelay is how long after a confirmed failure the automatic
	// respawn fires. Zero respawns as soon as the notification lands.
	RespawnDelay time.Duration
	// MaxRespawns caps the total number of reincarnations per run;
	// 0 means unlimited.
	MaxRespawns int
}

// procSeed carries the protocol counters a reincarnation inherits from
// the most advanced survivor, so its world communicator speaks the same
// context ids, validate instances and collective epoch as everyone else.
type procSeed struct {
	ctxSeq        int
	validateSeq   int
	validateEpoch int
	collSeq       int
	recognized    map[int]bool
	collMembers   []int
}

// apply installs the seed on a freshly built proc, before the proc is
// published or its rank function starts.
func (s *procSeed) apply(p *Proc) {
	p.ctxSeq = s.ctxSeq
	wc := p.worldComm
	wc.validateSeq = s.validateSeq
	wc.validateEpoch = s.validateEpoch
	wc.collSeq = s.collSeq
	for r := range s.recognized {
		wc.recognized[r] = true
	}
	if s.collMembers != nil {
		// The proc is not published yet.
		wc.setCollMembersLocked(func(wr int) bool { return slices.Contains(s.collMembers, wr) })
	}
}

// Spawn reincarnates a confirmed-dead slot at the next generation: a
// fresh engine (and detector monitor) is installed, the registry revives
// the slot, survivors repair their communicators, the newcomer inherits
// the protocol counters of the most advanced survivor, and the world's
// rank function is launched on the new incarnation. It returns the new
// generation.
//
// The ULFM analogy is MPI_Comm_spawn + merge collapsed into one step:
// because the world's slot table is fixed, "spawning a replacement and
// merging it into the communicator" reduces to re-occupying the dead slot
// under a fresh identity.
func (w *World) Spawn(slot int) (int, error) {
	if w.elastic == nil {
		return 0, fmt.Errorf("%w: Spawn on a non-elastic world (use WithElastic)", ErrInvalidArg)
	}
	if slot < 0 || slot >= w.size {
		return 0, fmt.Errorf("%w: Spawn(%d) out of range [0,%d)", ErrInvalidArg, slot, w.size)
	}

	w.runMu.Lock()
	defer w.runMu.Unlock()
	if w.runFn == nil || w.closing || w.active == 0 {
		return 0, fmt.Errorf("%w: Spawn(%d) outside a live run", ErrInvalidArg, slot)
	}
	// Checked under runMu: Revive only ever runs under this lock (join
	// below), so when two Spawns race for one slot — a manual call against
	// the AutoRespawn timer, or two survivors reacting to the same death —
	// the loser observes the winner's revive here and is refused, instead
	// of reaching Revive on a live rank (which panics).
	if !w.registry.Confirmed(slot) {
		return 0, fmt.Errorf("%w: Spawn(%d): slot is not confirmed dead", ErrInvalidArg, slot)
	}
	sinceDeath, _ := w.registry.SinceDeath(slot)
	if w.spawning[slot] {
		return 0, fmt.Errorf("%w: Spawn(%d) already in progress", ErrInvalidArg, slot)
	}
	if max := w.elastic.MaxRespawns; max > 0 && w.respawned >= max {
		return 0, fmt.Errorf("%w: respawn budget (%d) exhausted", ErrInvalidArg, max)
	}
	w.spawning[slot] = true
	defer delete(w.spawning, slot)

	gen, seed := w.join(slot)
	w.respawned++

	rr := &RespawnResult{Slot: slot, Gen: gen}
	w.runRes.Respawns = append(w.runRes.Respawns, rr)
	// active > 0 under runMu means the WaitGroup counter is still positive
	// (goroutines decrement active before Done), so Add is race-free.
	w.runWG.Add(1)
	w.active++
	w.launchRankLocked(slot, seed, &rr.RankResult)

	w.metrics.Inc(slot, metrics.Respawns)
	w.obs.Observe(slot, obs.RespawnRecovery, sinceDeath)
	// Respawn IS the repair in elastic mode: the same death-to-service
	// latency feeds the cross-mode recovery family.
	w.obs.Observe(slot, obs.RecoveryTotal, sinceDeath)
	w.tracer.RecordMsg(slot, trace.Respawned, -1, -1, -1, gen, 0, 0,
		fmt.Sprintf("generation %d after %v dead", gen, sinceDeath.Round(time.Microsecond)))
	return gen, nil
}

// join rebuilds the slot's per-rank machinery at the next generation and
// splices it back into the world. Ordering is load-bearing:
//
//  1. build the replacement engine, seeding its failure view from the
//     registry's confirmed deaths (minus the slot itself);
//  2. clear survivors' monitor state for the slot (stale inter-arrival
//     estimators and pending fences must not instantly re-suspect the
//     newcomer) while the registry still says "failed";
//  3. build the slot's replacement monitor — the old incarnation's pump
//     exited at death and is not restartable;
//  4. install the replacement engine, arming the generation fence: from
//     this instant genOf(slot) reports the new generation, so late or
//     retransmitted frames stamped by the dead incarnation are rejected
//     at delivery on every survivor (and frames stamped for the new
//     generation are accepted from the instant they can be produced);
//  5. reset the reliability links in both directions so the newcomer's
//     seq=1 frames are neither deduped nor matched against stale
//     retransmission state — strictly after step 4, because purging rx
//     dedup re-admits frames from the dead incarnation and only the
//     already-armed fence keeps survivors from re-accepting them;
//  6. install the monitor;
//  7. revive the slot in the registry — generation bumps, survivors'
//     engines repair recognition/collectives via the revive subscriber —
//     and, in the same joinMu critical section, sync protocol counters
//     from the most advanced survivor and set the agreement join fence;
//  8. start the new monitor.
//
// Caller holds runMu.
func (w *World) join(slot int) (int, *procSeed) {
	newGen := uint32(w.registry.Generation(slot) + 1)

	e2 := newEngine(w, slot, newGen)
	if w.repl != nil {
		// The failure view speaks logical ids in replication mode; a logical
		// rank is app-failed only when its whole replica group is gone.
		for l := 0; l < w.lsize; l++ {
			if l != w.logicalOf(slot) && w.appFailed(l) {
				e2.knownFailed[l] = true
			}
		}
	} else {
		for i := 0; i < w.size; i++ {
			if i != slot && w.registry.Confirmed(i) {
				e2.knownFailed[i] = true
			}
		}
	}
	if w.repl != nil {
		// Replication sequence state seeds from a surviving sibling before
		// the engine is published, so no inbound frame can race it: stale
		// forwards for consumed history dedup-drop instead of matching.
		w.repl.seedRepState(slot, e2)
	}

	for i := 0; i < w.size; i++ {
		if i == slot || w.registry.Failed(i) {
			continue
		}
		if m := w.monAt(i); m != nil {
			m.Resume(slot)
		}
	}

	var mon monitor
	if w.newMonitor != nil {
		mon = w.newMonitor(slot)
	}

	w.engines[slot].Store(e2)

	if w.reliable != nil {
		w.reliable.PeerUp(slot)
	}

	if mon != nil {
		w.setMonitor(slot, mon)
	}

	// Revive and capture are one step to anyone entering an agreement
	// instance (nextValidateInst holds the read side): an instance entered
	// between the two would push the captured validateSeq one too far and
	// leave the newcomer running its first validate alone, forever.
	w.joinMu.Lock()
	gen := w.registry.Revive(slot)
	seed := w.captureSeed(slot)
	// Any agreement instance entered before the revive has every entrant's
	// validateSeq past it by capture time, so taking the max over the
	// survivors makes "instance < joinInst" exactly the set of instances
	// this incarnation must answer reactively instead of reaching in
	// program order.
	e2.setJoinInst(seed.validateSeq)
	w.joinMu.Unlock()

	if mon != nil {
		mon.Start()
	}
	return gen, seed
}

// captureSeed snapshots the world-communicator protocol counters of the
// most advanced survivor (highest validateSeq), each snapshot taken under
// that survivor's engine lock.
func (w *World) captureSeed(slot int) *procSeed {
	var best *procSeed
	var bestCtx int
	for i := 0; i < w.size; i++ {
		if i == slot || w.registry.Failed(i) {
			continue
		}
		p := w.procs[i].Load()
		if p == nil || p.eng.dead.Load() {
			continue
		}
		p.eng.mu.Lock()
		s := &procSeed{
			ctxSeq:        p.ctxSeq,
			validateSeq:   p.worldComm.validateSeq,
			validateEpoch: p.worldComm.validateEpoch,
			collSeq:       p.worldComm.collSeq,
			recognized:    make(map[int]bool, len(p.worldComm.recognized)),
			collMembers:   p.worldComm.collMembers, // replaced, never edited
		}
		for r := range p.worldComm.recognized {
			if r != slot {
				s.recognized[r] = true
			}
		}
		p.eng.mu.Unlock()
		if s.ctxSeq > bestCtx {
			bestCtx = s.ctxSeq // context ids advance independently of validates
		}
		if best == nil || s.validateSeq > best.validateSeq {
			best = s
		}
	}
	if best == nil {
		return &procSeed{recognized: map[int]bool{}}
	}
	best.ctxSeq = bestCtx
	return best
}

// launchRankLocked starts (or restarts) the rank function for a slot on a
// fresh goroutine, recording its outcome in out. Caller holds runMu and
// has already accounted for the goroutine in runWG and active.
//
// A seeded proc is built and seeded here, under runMu, not on the new
// goroutine: newProc makes its world communicator reachable from the
// engine, and a revive (which only runs under runMu: a second refill's
// Spawn) repairs every reachable communicator. Seeding after that point
// would race the repair and could undo it.
func (w *World) launchRankLocked(rank int, seed *procSeed, out *RankResult) {
	w.finished[rank].Store(false)
	var seeded *Proc
	if seed != nil {
		seeded = newProc(w, rank)
		seed.apply(seeded)
		w.procs[rank].Store(seeded)
	}
	go func() {
		defer func() {
			r := recover()
			// Outcome writes happen-before runWG.Done, which is what makes
			// them visible to Run's result inspection after wg.Wait.
			switch r.(type) {
			case nil:
			case killedPanic:
				out.Killed = true
			case abortPanic, closedPanic:
				out.Aborted = true
			}
			w.finished[rank].Store(true)
			w.runMu.Lock()
			w.active--
			w.runMu.Unlock()
			w.runWG.Done()
			if r != nil {
				switch r.(type) {
				case killedPanic, abortPanic, closedPanic:
				default:
					panic(r) // real bug: propagate
				}
			}
		}()
		p := seeded
		if p == nil {
			p = newProc(w, rank)
			w.procs[rank].Store(p)
		}
		out.Err = w.runFn(p)
		out.Finished = true
	}()
}
