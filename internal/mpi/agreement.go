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
// ordering rule keeps the numbering aligned across ranks). Within an
// instance:
//
//   - The coordinator is the lowest alive member (the same choice as the
//     paper's Figure 12 leader election).
//   - The coordinator requests a VOTE from every alive member, unions the
//     reported failure sets (plus any deaths it observes while
//     collecting), records the decision, and sends DECIDE to all alive
//     members.
//   - Non-coordinators respond to vote requests reactively — the response
//     logic runs at packet-delivery time inside the engine, so a rank
//     blocked in unrelated point-to-point code still answers, the way a
//     real MPI implementation's progress engine would.
//   - If a non-coordinator observes the coordinator's death before a
//     decision arrives, it re-evaluates: by strong accuracy of the
//     failure detector, a new coordinator arises only after the previous
//     one really died, so coordinator succession is sequential.
//
// Uniqueness: a new coordinator collects votes from every alive member;
// any member that saw a previous DECIDE reports it, and the new
// coordinator adopts it verbatim. If no alive member saw the previous
// DECIDE then no alive member returned it, so deciding fresh is safe.
// Hence all alive ranks return the same failure set per instance.
const (
	agreeReq uint8 = iota
	agreeVote
	agreeDecide
)

// agreeMsg is the payload of KindAgreement packets; wire.go holds its
// byte layout.
type agreeMsg struct {
	Type    uint8
	Inst    int   // per-communicator instance number
	From    int   // sender's world rank
	Failed  []int // vote payload or decision (world ranks)
	Decided bool  // Failed carries an already-made decision
	Group   []int // REQ/PULL only: the communicator group (world ranks)
	Covered []int // tree mode: ranks whose votes this aggregate includes
}

type agreeKey struct {
	ctx  int // communicator internal context (names the communicator)
	inst int
}

// agreementState is the per-engine slice of the protocol, guarded by the
// engine mutex.
type agreementState struct {
	// decisions is kept for the life of the engine: late votes, requests
	// and pulls are answered from it long after the instance returned.
	decisions map[agreeKey][]int
	// votes holds what arrived for an UNDECIDED instance; recording the
	// decision drops the entry (decideLocked) and later arrivals are
	// answered from decisions without being stored.
	votes map[agreeKey]map[int]agreeMsg
	// started marks instances this rank has entered (called validate_all
	// for). Vote requests arriving earlier are parked in pendingReqs and
	// answered at entry: validate_all is a collective, so a rank must not
	// vote in an instance it has not reached — otherwise the coordinator
	// could decide "no failures" using votes from ranks that die before
	// ever making the call.
	started     map[agreeKey]bool
	pendingReqs map[agreeKey][]agreeMsg
	// reactive marks pre-join instances this engine is already serving as
	// a reactive coordinator (elastic worlds: coordinator succession can
	// land on a revived slot for an instance its previous incarnation was
	// part of — see reactiveCoordinate).
	reactive map[agreeKey]bool
}

func (a *agreementState) init() {
	a.decisions = make(map[agreeKey][]int)
	a.votes = make(map[agreeKey]map[int]agreeMsg)
	a.started = make(map[agreeKey]bool)
	a.pendingReqs = make(map[agreeKey][]agreeMsg)
	a.reactive = make(map[agreeKey]bool)
}

// decideLocked records d as the instance's decision unless one is already
// held, releases the votes collected for it, and returns the decision in
// force. Caller holds mu.
func (e *engine) decideLocked(key agreeKey, d []int) []int {
	if have, ok := e.agree.decisions[key]; ok {
		return have
	}
	e.agree.decisions[key] = d
	delete(e.agree.votes, key)
	return d
}

// preJoin reports that the instance predates this incarnation's join into
// an elastic world: the reincarnation will never reach that validate_all
// call in program order, so it must answer for it reactively. Caller
// holds mu.
func (e *engine) preJoinLocked(key agreeKey) bool {
	return e.joinInst > 0 && key.ctx == ctxWorldInternal && key.inst < e.joinInst
}

// deliverAgreement handles an inbound agreement packet reactively. Runs
// on the delivering goroutine; never blocks; sends replies only after
// releasing the engine lock (lock discipline: one engine lock at a time).
func (e *engine) deliverAgreement(pkt *transport.Packet) {
	msg, err := decodeAgree(pkt.Payload)
	if err != nil {
		return // corrupt internal message: drop
	}
	key := agreeKey{ctx: pkt.Context, inst: msg.Inst}

	var reply *agreeMsg
	var coordGroup []int // non-nil: serve the instance as reactive coordinator
	e.mu.Lock()
	if e.dead.Load() || e.closed.Load() {
		e.mu.Unlock()
		return
	}
	switch msg.Type {
	case agreeReq:
		_, haveDecision := e.agree.decisions[key]
		switch {
		case haveDecision:
			reply = &agreeMsg{Type: agreeVote, Inst: msg.Inst, From: e.arank(),
				Failed: e.agree.decisions[key], Decided: true}
		case e.agree.started[key] || e.preJoinLocked(key):
			// Entered in program order, or a pre-join instance of an
			// elastic reincarnation: either way, vote with the current
			// failure view (the newcomer will never reach pre-join
			// validate_all calls, so parking would starve the coordinator).
			reply = &agreeMsg{Type: agreeVote, Inst: msg.Inst, From: e.arank(),
				Failed: e.knownFailedSnapshotLocked(msg.Group)}
		default:
			// Not in the collective yet: park the request; enterInstance
			// answers it when this rank reaches its validate_all call.
			e.agree.pendingReqs[key] = append(e.agree.pendingReqs[key], msg)
		}
	case agreeVote, agreeTreeVote:
		if d, ok := e.agree.decisions[key]; ok {
			// Reactive decide rule: a vote arriving at a rank that already
			// holds the decision (this rank may have returned from
			// validate_all long ago, or learned it before a DECIDE that
			// was broadcast while the sender had not yet entered) is
			// answered immediately, and not stored: nothing reads the
			// votes of a decided instance.
			typ := agreeDecide
			if msg.Type == agreeTreeVote {
				typ = agreeTreeDecide
			}
			reply = &agreeMsg{Type: typ, Inst: msg.Inst,
				From: e.arank(), Failed: d, Decided: true}
		} else {
			m, ok := e.agree.votes[key]
			if !ok {
				m = make(map[int]agreeMsg)
				e.agree.votes[key] = m
			}
			m[msg.From] = msg
			if e.preJoinLocked(key) && msg.Group != nil && !e.agree.reactive[key] {
				// Elastic corner: coordinator succession landed on this
				// revived slot for an instance that predates its join —
				// every other member is waiting passively and pushed its
				// vote here. The incarnation will never reach that
				// validate_all call, so it coordinates reactively.
				e.agree.reactive[key] = true
				coordGroup = msg.Group
			}
		}
		e.agreeBumpLocked()
	case agreeDecide, agreeTreeDecide:
		e.decideLocked(key, msg.Failed)
		e.agreeBumpLocked()
	case agreeTreePull:
		if d, ok := e.agree.decisions[key]; ok {
			reply = &agreeMsg{Type: agreeTreeDecide, Inst: msg.Inst,
				From: e.arank(), Failed: d, Decided: true}
		} else if e.agree.started[key] || e.preJoinLocked(key) {
			reply = e.treeAggregateVoteLocked(key, msg.Group)
		} else {
			// Not in the collective yet: park; answered at enterInstance.
			e.agree.pendingReqs[key] = append(e.agree.pendingReqs[key], msg)
		}
	}
	e.mu.Unlock()

	if reply != nil {
		// Reply to the sender's LOGICAL rank: in replication mode the reply
		// fans out to every replica of it, so a coordinator replica that
		// dies before reading the reply leaves its successor holding it.
		e.sendAgreement(pkt.Context, reply, e.w.logicalOf(pkt.Src))
	}
	if coordGroup != nil {
		go e.reactiveCoordinate(key, coordGroup)
	}
}

// reactiveCoordinate runs the coordinator role for an instance this
// incarnation never entered in program order (see deliverAgreement). It
// runs on its own goroutine; terminal panics are absorbed because no app
// goroutine is waiting on it.
func (e *engine) reactiveCoordinate(key agreeKey, group []int) {
	defer func() {
		r := recover()
		switch r.(type) {
		case nil, killedPanic, closedPanic, abortPanic:
		default:
			panic(r)
		}
	}()
	_, _ = e.coordinateInstance(key, group)
}

// sendAgreement transmits one agreement message to each LOGICAL rank in
// dsts. The message is encoded once and every frame of the broadcast —
// per destination, and per live replica of it — carries the same payload
// slice: no layer writes a payload in place (chaos clones before it flips
// bits, ARQ and the codecs only read), and deliverAgreement decodes into
// fresh memory without retaining the frame's bytes.
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

func (e *engine) sendAgreementFrame(phys, ctx int, payload []byte) {
	pkt := &transport.Packet{
		Src: e.rank, Dst: phys, Tag: 0, Context: ctx,
		Kind: transport.KindAgreement, Payload: payload,
	}
	e.stampGen(pkt)
	_ = e.w.fabric.Send(pkt)
}

// setJoinInst installs the join fence on a freshly spawned incarnation's
// engine and retroactively applies it: vote requests for pre-join
// instances that were parked before the fence existed are answered now,
// and votes that were already pushed here (coordinator succession onto
// this slot) trigger reactive coordination.
func (e *engine) setJoinInst(inst int) {
	type pendingReply struct {
		dst int
		ctx int
		msg agreeMsg
	}
	var replies []pendingReply
	var coordKeys []agreeKey
	var coordGroups [][]int
	e.mu.Lock()
	e.joinInst = inst
	for key, reqs := range e.agree.pendingReqs {
		if !e.preJoinLocked(key) {
			continue
		}
		delete(e.agree.pendingReqs, key)
		for _, req := range reqs {
			var vote agreeMsg
			if req.Type == agreeTreePull {
				vote = *e.treeAggregateVoteLocked(key, req.Group)
			} else {
				vote = agreeMsg{Type: agreeVote, Inst: key.inst, From: e.arank(),
					Failed: e.knownFailedSnapshotLocked(req.Group)}
			}
			replies = append(replies, pendingReply{dst: req.From, ctx: key.ctx, msg: vote})
		}
	}
	for key, votes := range e.agree.votes {
		if !e.preJoinLocked(key) || e.agree.reactive[key] {
			continue
		}
		if _, ok := e.agree.decisions[key]; ok {
			continue
		}
		for _, v := range votes {
			if v.Group != nil {
				e.agree.reactive[key] = true
				coordKeys = append(coordKeys, key)
				coordGroups = append(coordGroups, v.Group)
				break
			}
		}
	}
	e.mu.Unlock()
	for i := range replies {
		e.sendAgreement(replies[i].ctx, &replies[i].msg, replies[i].dst)
	}
	for i := range coordKeys {
		go e.reactiveCoordinate(coordKeys[i], coordGroups[i])
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
	key := agreeKey{ctx: c.ctxInternal, inst: inst}
	e.enterInstance(key, c)

	if e.w.agreement == AgreementTree {
		return c.treeAgreementDriver(key)
	}

	lastPushed := -1
	for {
		e.mu.Lock()
		if d, ok := e.agree.decisions[key]; ok {
			e.mu.Unlock()
			return d, nil
		}
		if e.dead.Load() {
			e.mu.Unlock()
			panic(killedPanic{rank: e.rank})
		}
		if e.closed.Load() {
			e.mu.Unlock()
			return nil, ErrNoDecision
		}
		e.mu.Unlock()

		coord, ok := e.w.lowestAliveIn(c.group)
		if !ok {
			return nil, ErrNoDecision // unreachable while the caller lives
		}
		if coord == c.proc.rank {
			// Replication mode: only the group's PRIMARY replica coordinates;
			// standbys park in the passive loop below (their votes fan out to
			// the primary, and a promotion wakes them to take over). Two
			// replicas coordinating the same instance would be a split brain.
			if e.w.repl == nil || e.w.repl.isPrimary(e.rank) {
				return c.coordinateAgreement(key)
			}
		} else if coord != lastPushed {
			// Push the vote to (each successive) coordinator instead of waiting
			// to be solicited. A coordinator that solicited before this rank
			// entered still folds the pushed vote in; and in an elastic world a
			// coordinator seat can pass to a revived slot that will never
			// solicit for this pre-join instance — the pushed vote (which
			// carries the group) is what triggers its reactive coordination.
			vote := &agreeMsg{Type: agreeVote, Inst: key.inst, From: e.arank(),
				Failed: e.knownFailedSnapshot(c.group), Group: c.group}
			e.sendAgreement(c.ctxInternal, vote, coord)
			lastPushed = coord
		}

		// Passive role: wait for the decision, the coordinator's death, or
		// shutdown. Vote/decide arrivals and failure notifications bump the
		// agreement generation channel; death/teardown/abort close their
		// dedicated channels.
		e.mu.Lock()
		for {
			if _, ok := e.agree.decisions[key]; ok {
				break
			}
			if e.dead.Load() || e.closed.Load() {
				break
			}
			if e.w.aborted.Load() {
				e.mu.Unlock()
				panic(abortPanic{code: e.w.abortCode()})
			}
			if e.knownFailed[coord] {
				break // coordinator died: re-evaluate
			}
			if e.w.repl != nil && coord == c.proc.rank && e.w.repl.isPrimary(e.rank) {
				break // promoted to primary: re-evaluate and take the coordinator role
			}
			ch := e.agreeCh
			e.mu.Unlock()
			select {
			case <-ch:
			case <-e.downCh:
			case <-e.w.abortCh:
			}
			e.mu.Lock()
		}
		e.mu.Unlock()
	}
}

// enterInstance marks the instance as joined by this rank and answers any
// vote requests that arrived before the rank reached its validate_all
// call.
func (e *engine) enterInstance(key agreeKey, c *Comm) {
	type pendingReply struct {
		dst int
		msg agreeMsg
	}
	var replies []pendingReply
	e.mu.Lock()
	if e.agree.started[key] {
		e.mu.Unlock()
		return
	}
	e.agree.started[key] = true
	parked := e.agree.pendingReqs[key]
	delete(e.agree.pendingReqs, key)
	for _, req := range parked {
		if req.Type == agreeTreePull {
			var vote agreeMsg
			if d, ok := e.agree.decisions[key]; ok {
				vote = agreeMsg{Type: agreeTreeDecide, Inst: key.inst,
					From: e.arank(), Failed: d, Decided: true}
			} else {
				vote = *e.treeAggregateVoteLocked(key, req.Group)
			}
			replies = append(replies, pendingReply{dst: req.From, msg: vote})
			continue
		}
		vote := agreeMsg{Type: agreeVote, Inst: key.inst, From: e.arank()}
		if d, ok := e.agree.decisions[key]; ok {
			vote.Failed, vote.Decided = d, true
		} else {
			vote.Failed = e.knownFailedSnapshotLocked(req.Group)
		}
		replies = append(replies, pendingReply{dst: req.From, msg: vote})
	}
	e.mu.Unlock()
	for i := range replies {
		e.sendAgreement(key.ctx, &replies[i].msg, replies[i].dst)
	}
}

// coordinateAgreement runs the coordinator role for a communicator-level
// validate_all call.
func (c *Comm) coordinateAgreement(key agreeKey) ([]int, error) {
	return c.eng.coordinateInstance(key, c.group)
}

// coordinateInstance runs the coordinator role over group (read, never
// written): gather votes from every alive member, decide, distribute —
// one REQ and one DECIDE encode whatever the group size. It lives on the
// engine so an elastic reincarnation can serve instances that predate its
// join (reactiveCoordinate) without a Comm for them.
func (e *engine) coordinateInstance(key agreeKey, group []int) ([]int, error) {
	me := e.arank()
	if e.w.obs != nil {
		start := time.Now()
		defer func() { e.w.obs.Observe(me, obs.AgreementRound, time.Since(start)) }()
	}

	// Solicit votes from everyone this rank believes alive.
	union := make(map[int]bool)
	pending := make(map[int]bool)
	solicit := make([]int, 0, len(group))
	e.mu.Lock()
	for _, m := range group {
		if e.knownFailed[m] {
			union[m] = true
		} else if m != me {
			pending[m] = true
			solicit = append(solicit, m)
		}
	}
	e.mu.Unlock()

	e.sendAgreement(key.ctx, &agreeMsg{Type: agreeReq, Inst: key.inst, From: me, Group: group}, solicit...)

	var adopted []int
	haveAdopted := false
	e.mu.Lock()
	for {
		if d, ok := e.agree.decisions[key]; ok {
			adopted, haveAdopted = d, true // a previous coordinator's DECIDE raced in
			break
		}
		for from, v := range e.agree.votes[key] {
			if !pending[from] {
				continue
			}
			delete(pending, from)
			if v.Decided {
				adopted, haveAdopted = v.Failed, true
			} else {
				for _, f := range v.Failed {
					union[f] = true
				}
			}
		}
		for m := range pending {
			if e.knownFailed[m] {
				delete(pending, m)
				union[m] = true // died before voting: part of the decision
			}
		}
		if haveAdopted || len(pending) == 0 {
			break
		}
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
		ch := e.agreeCh
		e.mu.Unlock()
		select {
		case <-ch:
		case <-e.downCh:
		case <-e.w.abortCh:
		}
		e.mu.Lock()
	}

	decision := adopted
	if !haveAdopted {
		decision = make([]int, 0, len(union))
		for f := range union {
			decision = append(decision, f)
		}
		sort.Ints(decision)
	}
	decision = e.decideLocked(key, decision)
	e.mu.Unlock()

	// Broadcast the decision to EVERY member, dead or not: a DECIDE to a
	// corpse vanishes harmlessly, while skipping known-failed members
	// loses the decision for an elastic reincarnation whose revive raced
	// the broadcast (its pushed vote was already folded in, so it will
	// never push again and would wait forever).
	// The own logical rank is kept only in replication mode, where
	// sendAgreement's fan-out skips this physical slot and so reaches
	// exactly the standby siblings: a later promotion must find the
	// decision already recorded there.
	dsts := make([]int, 0, len(group))
	for _, m := range group {
		if m != me || e.w.repl != nil {
			dsts = append(dsts, m)
		}
	}
	e.sendAgreement(key.ctx, &agreeMsg{Type: agreeDecide, Inst: key.inst, From: me, Failed: decision}, dsts...)
	return decision, nil
}
