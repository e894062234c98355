package mpi

import (
	"sort"
	"time"

	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/transport"
)

// This file implements the fault-tolerant consensus behind
// MPI_Comm_validate_all. The paper (Section II) states that validate_all
// "provides the application with an implementation of a fault tolerant
// consensus algorithm [9]": all alive members of the communicator agree
// on the set (and therefore count) of failed ranks, and the operation
// returns success everywhere or an error at each alive rank.
//
// Protocol. Instances are numbered per communicator (MPI's collective
// ordering rule keeps the numbering aligned across ranks). Each member
// derives a spanning tree from its live view — the sorted group minus the
// failures it knows of — by heap indexing with fan-out k: the root is
// view[0], the lowest alive member (the paper's Figure 12 leader), and the
// children of view index i sit at k·i+1 … k·i+k. The agreement mode only
// picks k: AgreementCoordinator makes it cover the whole group, so the
// root is a coordinator with every member as its child; AgreementTree
// makes it 2. Every member derives the same tree from the same view, and
// the tree re-derives itself as the view changes — no repair protocol.
//
//   - Each member folds the VOTEs it receives into one aggregate per
//     instance — the union of reported failures plus the set of members
//     those reports cover — and pushes it, with its own failure view, to
//     its current parent: on entry, and again whenever the aggregate grows
//     or the parent changes. Coverage is a monotone union, so when an
//     interior node dies its orphans re-push along their new edges and
//     nothing it had absorbed is lost.
//   - The root decides once the aggregate covers its whole view, and the
//     DECIDE flows down the tree. The root also sends it to its
//     known-failed members, so a reincarnation whose revive raced the
//     decision still receives it, and in replication mode to its own
//     standby replicas, so a later promotion finds it recorded.
//   - A root whose view has changed since its last wake sends a PULL to
//     the members its aggregate lacks: a member that already returned a
//     previous root's decision never pushes again, and a reincarnation
//     serves an instance that predates its join only when asked.
//   - Any VOTE or PULL that reaches a rank holding the decision is
//     answered with a DECIDE (deliverAgreement), long after that rank
//     returned, and the decision is write-once (decideLocked).
//
// Votes are answered at packet-delivery time inside the engine, so a rank
// blocked in unrelated point-to-point code still takes part, the way a
// real MPI implementation's progress engine would. DESIGN.md §4 gives the
// uniqueness argument.
const (
	// AgreementCoordinator gives the tree a fan-out covering the whole
	// group: the lowest alive rank collects every vote and broadcasts the
	// decision. The paper-faithful default.
	AgreementCoordinator = "coordinator"
	// AgreementTree gives the tree fan-out 2: O(log N) depth and at most
	// two children's votes folded per rank.
	AgreementTree = "tree"
)

// Agreement message types.
const (
	// agreeVote carries an aggregate up one tree edge: Failed is the union
	// of failure reports, Covered the members besides From whose reports
	// the union includes.
	agreeVote uint8 = iota
	// agreeDecide carries the decision down the tree, and answers any vote
	// or pull that reaches a rank already holding it.
	agreeDecide
	// agreePull asks members missing from a root's aggregate for it.
	agreePull
)

// agreeMsg is the payload of KindAgreement packets; wire.go holds its
// byte layout.
type agreeMsg struct {
	Type    uint8
	Inst    int   // per-communicator instance number
	From    int   // sender's application rank
	Failed  []int // VOTE: the failure union; DECIDE: the decision
	Group   []int // PULL, and VOTE in elastic worlds: the sorted communicator group
	Covered []int // VOTE: members besides From whose reports Failed includes
}

type agreeKey struct {
	ctx  int // communicator internal context (names the communicator)
	inst int
}

// rankSet is a bitset over application ranks.
type rankSet []uint64

func (s rankSet) has(r int) bool {
	return r >= 0 && r>>6 < len(s) && s[r>>6]&(1<<(r&63)) != 0
}

// add inserts r and reports whether it was new. Ranks beyond the set (a
// malformed frame) are ignored.
func (s rankSet) add(r int) bool {
	if r < 0 || r>>6 >= len(s) || s.has(r) {
		return false
	}
	s[r>>6] |= 1 << (r & 63)
	return true
}

// agreeInst is one UNDECIDED instance at one rank: created by its first
// arrival or by entry, dropped when the decision is recorded.
type agreeInst struct {
	// entered: agreement runs for the instance on this rank, in program
	// order or reactively (serveLocked).
	entered bool
	// group is the sorted group, from entry or from the first VOTE or
	// PULL that carried it.
	group   []int
	covered rankSet   // members whose votes are folded in
	failed  rankSet   // union of every folded failure report
	version int       // bumped whenever covered or failed grows
	small   [2]uint64 // backs covered and failed while one word each suffices
}

// agreementState is the per-engine slice of the protocol, guarded by the
// engine mutex.
type agreementState struct {
	// decisions is kept for the life of the engine: late votes and pulls
	// are answered from it long after the instance returned.
	decisions map[agreeKey][]int
	// insts holds the undecided instances; decideLocked drops the entry,
	// so over any run it holds only instances still in progress.
	insts map[agreeKey]*agreeInst
	// viewSeq counts changes to the engine's failure view (knownFailed);
	// a root pulls again when it moves.
	viewSeq int
}

func (a *agreementState) init() {
	a.decisions = make(map[agreeKey][]int)
	a.insts = make(map[agreeKey]*agreeInst)
}

// instLocked returns the state of an undecided instance, creating it.
// Caller holds mu.
func (e *engine) instLocked(key agreeKey) *agreeInst {
	in := e.agree.insts[key]
	if in == nil {
		in = &agreeInst{}
		words := (len(e.knownFailed) + 63) / 64
		sets := in.small[:]
		if words > 1 {
			sets = make([]uint64, 2*words)
		}
		in.covered, in.failed = sets[:words:words], sets[words:2*words]
		e.agree.insts[key] = in
	}
	return in
}

// fold merges a VOTE into the aggregate.
func (in *agreeInst) fold(m *agreeMsg) {
	grew := in.covered.add(m.From)
	for _, r := range m.Covered {
		grew = in.covered.add(r) || grew
	}
	for _, f := range m.Failed {
		grew = in.failed.add(f) || grew
	}
	if grew {
		in.version++
	}
}

// aliveLocked reports whether group member m is in this engine's live
// view. Caller holds mu.
func (e *engine) aliveLocked(m int) bool {
	return m >= 0 && m < len(e.knownFailed) && !e.knownFailed[m]
}

// decideLocked records d as the instance's decision unless one is already
// held, drops the instance's state, wakes the agreement waiters, and
// returns the decision in force. Caller holds mu.
func (e *engine) decideLocked(key agreeKey, d []int) []int {
	if have, ok := e.agree.decisions[key]; ok {
		return have
	}
	e.agree.decisions[key] = d
	delete(e.agree.insts, key)
	e.agreeBumpLocked()
	return d
}

// preJoinLocked reports that the instance predates this incarnation's join
// into an elastic world: the reincarnation will never reach that
// validate_all call in program order, so it must serve it reactively.
// Caller holds mu.
func (e *engine) preJoinLocked(key agreeKey) bool {
	return e.joinInst > 0 && key.ctx == ctxWorldInternal && key.inst < e.joinInst
}

// serveLocked reports whether this rank must start serving the instance
// reactively: it predates the join, a VOTE or PULL has named its group,
// and agreement does not run for it yet. Caller holds mu.
func (e *engine) serveLocked(key agreeKey, in *agreeInst) bool {
	if in.entered || in.group == nil || !e.preJoinLocked(key) {
		return false
	}
	in.entered = true
	return true
}

// deliverAgreement handles an inbound agreement packet reactively. Runs
// on the delivering goroutine; never blocks; sends replies only after
// releasing the engine lock (lock discipline: one engine lock at a time).
// The packet is this engine's (a marked one goes back to the pools as
// soon as it is decoded, into fresh memory), so nothing of it is read
// afterwards.
func (e *engine) deliverAgreement(pkt *transport.Packet) {
	ctx, src := pkt.Context, pkt.Src
	msg, err := decodeAgree(pkt.Payload)
	pkt.Release()
	if err != nil {
		return // corrupt internal message: drop
	}
	key := agreeKey{ctx: ctx, inst: msg.Inst}

	var reply *agreeMsg
	var serve []int // non-nil: serve the instance reactively over this group
	e.mu.Lock()
	if e.dead.Load() || e.closed.Load() {
		e.mu.Unlock()
		return
	}
	d, decided := e.agree.decisions[key]
	switch {
	case decided && msg.Type != agreeDecide:
		// A vote or pull at a rank that holds the decision (it may have
		// returned from validate_all long ago) is answered with it.
		reply = &agreeMsg{Type: agreeDecide, Inst: msg.Inst, From: e.arank(), Failed: d}
	case decided:
	case msg.Type == agreeDecide:
		e.decideLocked(key, msg.Failed)
	default:
		// A VOTE folds in; a PULL needs nothing from an undecided rank,
		// whose agreement loop pushes on entry and on every parent change. Either
		// one can name the group of an instance that predates this
		// incarnation's join, which it then serves.
		in := e.instLocked(key)
		if msg.Type == agreeVote {
			in.fold(&msg)
			e.agreeBumpLocked()
		}
		if in.group == nil {
			in.group = msg.Group
		}
		if e.serveLocked(key, in) {
			serve = in.group
		}
	}
	e.mu.Unlock()

	if reply != nil {
		// Reply to the sender's LOGICAL rank: in replication mode the reply
		// fans out to every replica of it, so a root replica that dies
		// before reading the reply leaves its successor holding it.
		e.sendAgreement(ctx, reply, e.w.logicalOf(src))
	}
	if serve != nil {
		go e.serveAgreement(key, serve)
	}
}

// serveAgreement runs agreement for an instance this incarnation never
// entered in program order: as root, interior node or leaf, whatever its
// place in the tree. It runs on its own goroutine; terminal panics are
// absorbed because no app goroutine is waiting on it.
func (e *engine) serveAgreement(key agreeKey, group []int) {
	defer func() {
		r := recover()
		switch r.(type) {
		case nil, killedPanic, closedPanic, abortPanic:
		default:
			panic(r)
		}
	}()
	_, _ = e.agreement(key, group, nil)
}

// sendAgreement transmits one agreement message to each LOGICAL rank in
// dsts. The message is encoded once and every frame of the broadcast —
// per destination, and per live replica of it — carries the same payload
// slice, or on bare Local its own pooled copy of it (sendAgreementFrame):
// no layer writes a payload in place (chaos clones before it flips bits,
// ARQ and the codecs only read), and deliverAgreement decodes into fresh
// memory without retaining the frame's bytes.
//
// Errors are ignored: a message to a dead rank simply vanishes, and the
// protocol's liveness rests on the failure detector, not on delivery
// acknowledgements. In replication mode the message fans out to every
// live replica of a destination (skipping the sender's own slot), so vote
// and decision state accumulates on standbys and survives their
// promotion.
func (e *engine) sendAgreement(ctx int, msg *agreeMsg, dsts ...int) {
	if len(dsts) == 0 {
		return
	}
	payload := msg.encode()
	e.w.metrics.Add(e.rank, metrics.AgreementMsgs, int64(len(dsts)))
	for _, dst := range dsts {
		if e.w.repl == nil {
			e.sendAgreementFrame(dst, ctx, payload)
			continue
		}
		for _, phys := range e.w.repl.livePhys(dst) {
			if phys != e.rank {
				e.sendAgreementFrame(phys, ctx, payload)
			}
		}
	}
}

// sendAgreementFrame sends one frame of an agreement message, built like
// a p2p send's (World.outPacket): on bare Local from the pools, to TCP or
// the reliability layer in a lent struct. A retaining fabric gets the shared payload itself, which
// nothing writes.
func (e *engine) sendAgreementFrame(phys, ctx int, payload []byte) {
	pkt := e.w.outPacket(payload, true)
	pkt.Src, pkt.Dst, pkt.Context, pkt.Kind = e.rank, phys, ctx, transport.KindAgreement
	e.stampGen(pkt)
	_ = e.w.fabric.Send(pkt)
	e.w.sent(pkt)
}

// setJoinInst installs the join fence on a freshly spawned incarnation's
// engine and retroactively applies it: instances that predate the join
// and were named by a VOTE or PULL before the fence existed are served
// now.
func (e *engine) setJoinInst(inst int) {
	var keys []agreeKey
	var groups [][]int
	e.mu.Lock()
	e.joinInst = inst
	for key, in := range e.agree.insts {
		if e.serveLocked(key, in) {
			keys = append(keys, key)
			groups = append(groups, in.group)
		}
	}
	e.mu.Unlock()
	for i := range keys {
		go e.serveAgreement(keys[i], groups[i])
	}
}

// validateAllDriver runs one agreement instance for comm c and returns
// the agreed set of failed world ranks within c's group. It blocks the
// calling goroutine; IvalidateAll wraps it in a request-completing
// goroutine.
func (c *Comm) validateAllDriver(inst int) ([]int, error) {
	e := c.eng
	if e.w.obs != nil {
		start := time.Now()
		defer func() { e.w.obs.Observe(e.rank, obs.ValidateAll, time.Since(start)) }()
	}
	group := c.group
	if !sort.IntsAreSorted(group) {
		group = append([]int(nil), group...)
		sort.Ints(group)
	}
	e.mu.Lock()
	settled := c.collMembers // replaced, never edited, so safe to keep
	e.mu.Unlock()
	return e.agreement(agreeKey{ctx: c.ctxInternal, inst: inst}, group, settled)
}

// agreement runs this rank's part of one instance over group (sorted,
// read-only) and returns the decision. settled lists the members not yet
// agreed failed when this rank entered (nil when unknown). Every wake — a
// vote or decision arriving, a failure notification, a promotion —
// recomputes this rank's place in the tree over the live view (the alive
// members of group, in order), then sends at most one message: a DECIDE
// or PULL, or a non-root's VOTE.
func (e *engine) agreement(key agreeKey, group, settled []int) ([]int, error) {
	me := e.arank()
	k := e.w.treeArity
	if k == 0 {
		k = len(group)
	}
	var start time.Time
	if e.w.obs != nil {
		start = time.Now()
	}
	// One wake's destinations and a VOTE's two lists, reused on every wake
	// (sendAgreement encodes before it returns). They start on the stack;
	// only a root's lists grow with the group.
	var dstBuf, failedBuf, coveredBuf [8]int
	dsts, failed, covered := dstBuf[:0], failedBuf[:0], coveredBuf[:0]

	// Push and pull dedup. An aggregate only grows, so (parent incarnation,
	// version) names a push. A root pulls when the failure view moved since
	// its last wake, and on its first wake unless every member will push
	// (pushersLocked).
	lastParent, lastGen, lastVersion := -1, 0, -1
	lastSeq, firstWake := 0, true

	for {
		var msg agreeMsg
		dsts = dsts[:0]
		e.mu.Lock()
		d, decided := e.agree.decisions[key]
		if !decided {
			if e.dead.Load() {
				e.mu.Unlock()
				panic(killedPanic{rank: e.rank})
			}
			if e.closed.Load() {
				e.mu.Unlock()
				return nil, ErrNoDecision
			}
			if e.w.aborted.Load() {
				e.mu.Unlock()
				panic(abortPanic{code: e.w.abortCode()})
			}
		}
		pos := e.viewIndexLocked(group, me)
		// Replication mode: only the PRIMARY replica of the root's logical
		// rank acts as root. Its standbys wait for the DECIDE, or for their
		// promotion, which wakes every engine to re-evaluate.
		root := pos == 0 && (e.w.repl == nil || e.w.repl.isPrimary(e.rank))
		if !decided {
			in := e.instLocked(key)
			in.entered, in.group = true, group
			for _, m := range group {
				if !e.aliveLocked(m) && in.failed.add(m) {
					in.version++
				}
			}
			switch {
			case root && e.coversViewLocked(in, group, me):
				var dec []int
				for _, m := range group {
					if in.failed.has(m) {
						dec = append(dec, m)
					}
				}
				d, decided = e.decideLocked(key, dec), true
				if e.w.obs != nil {
					e.w.obs.Observe(me, obs.AgreementRound, time.Since(start))
				}
			case root:
				if firstWake && !e.pushersLocked(group, settled) || !firstWake && e.agree.viewSeq != lastSeq {
					for _, m := range group {
						if m != me && e.aliveLocked(m) && !in.covered.has(m) {
							dsts = append(dsts, m)
						}
					}
					msg = agreeMsg{Type: agreePull, Inst: key.inst, From: me, Group: group}
				}
			case pos > 0:
				parent := e.appendViewLocked(dsts, group, (pos-1)/k, (pos-1)/k+1)[0]
				if gen := e.w.appGeneration(parent); parent != lastParent || gen != lastGen || in.version != lastVersion {
					lastParent, lastGen, lastVersion = parent, gen, in.version
					failed, covered = failed[:0], covered[:0]
					for _, m := range group {
						if in.failed.has(m) {
							failed = append(failed, m)
						}
						if m != me && in.covered.has(m) {
							covered = append(covered, m)
						}
					}
					msg = agreeMsg{Type: agreeVote, Inst: key.inst, From: me, Failed: failed, Covered: covered}
					if e.w.elastic != nil {
						// A parent that turns out to be a revived slot for an
						// instance predating its join serves it from this.
						msg.Group = group
					}
					dsts = append(dsts, parent)
				}
			}
			lastSeq, firstWake = e.agree.viewSeq, false
		}
		if decided {
			// Forward the decision to the current children before returning;
			// duplicates are idempotent at the receiver.
			msg = agreeMsg{Type: agreeDecide, Inst: key.inst, From: me, Failed: d}
			if pos >= 0 {
				dsts = e.appendViewLocked(dsts, group, k*pos+1, k*pos+k+1)
			}
			if root {
				for _, m := range group {
					if !e.aliveLocked(m) {
						dsts = append(dsts, m)
					}
				}
				if e.w.repl != nil {
					dsts = append(dsts, me) // fans out to this rank's standbys only
				}
			}
		}
		var ch chan struct{}
		if !decided {
			ch = e.agreeWaitLocked()
		}
		e.mu.Unlock()

		e.sendAgreement(key.ctx, &msg, dsts...)
		if decided {
			return d, nil
		}
		select {
		case <-ch:
		case <-e.downCh:
		case <-e.w.abortCh:
		}
	}
}

// viewIndexLocked returns r's index in the live view of group, or -1 when
// r is not in it. Caller holds mu.
func (e *engine) viewIndexLocked(group []int, r int) int {
	i := 0
	for _, m := range group {
		if m == r {
			if e.aliveLocked(m) {
				return i
			}
			return -1
		}
		if e.aliveLocked(m) {
			i++
		}
	}
	return -1
}

// appendViewLocked appends the live view's members at indices lo..hi-1 to
// dsts. Caller holds mu.
func (e *engine) appendViewLocked(dsts, group []int, lo, hi int) []int {
	i := 0
	for _, m := range group {
		if !e.aliveLocked(m) {
			continue
		}
		if i >= hi {
			break
		}
		if i >= lo {
			dsts = append(dsts, m)
		}
		i++
	}
	return dsts
}

// coversViewLocked reports whether in's aggregate covers every member of
// the live view other than me. Caller holds mu.
func (e *engine) coversViewLocked(in *agreeInst, group []int, me int) bool {
	for _, m := range group {
		if m != me && e.aliveLocked(m) && !in.covered.has(m) {
			return false
		}
	}
	return true
}

// pushersLocked reports whether every member of a root's first view will
// push to it unasked, so the first pull can be skipped. Two kinds of
// member never push. One returned an earlier root's decision; there is
// none when every settled member is alive, because a member agreed failed
// before this rank entered died before any vote for this instance could
// reach it. The other is a reincarnation serving an instance that
// predates its join, which it does only when asked; there is none when
// every member is at its first incarnation. Caller holds mu.
func (e *engine) pushersLocked(group, settled []int) bool {
	if settled == nil {
		return false
	}
	for _, m := range settled {
		if !e.aliveLocked(m) {
			return false
		}
	}
	if e.w.elastic != nil {
		for _, m := range group {
			if e.aliveLocked(m) && e.w.appGeneration(m) != 1 {
				return false
			}
		}
	}
	return true
}
