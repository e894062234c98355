package mpi

import (
	"sort"
	"time"

	"repro/internal/obs"
)

// This file implements the tree topology for MPI_Comm_validate_all. The
// coordinator protocol in agreement.go funnels every vote through a
// single rank — O(N) fan-in at the coordinator, which is exactly the
// funnel SWIM-style membership removes from failure detection. Tree mode
// reduces votes up a fault-aware spanning tree instead:
//
//   - The tree is derived from the sorted live view (the communicator
//     group minus this rank's known failures) by heap indexing: the root
//     is view[0] and the children of the rank at index i sit at indices
//     2i+1 and 2i+2. Every rank derives the same tree from the same
//     view, and the tree re-derives itself as the view shrinks — no
//     repair protocol, just recomputation.
//
//   - Each rank pushes its subtree AGGREGATE (the union of failure
//     reports it has seen, plus the set of ranks those reports cover)
//     up to its current parent, re-pushing whenever the aggregate grows
//     or the parent changes. Coverage is a monotone union, so votes
//     received from ranks that are no longer children remain valid.
//
//   - The root decides once its covered set includes the whole live
//     view: every live member's vote is in the aggregate, so the union
//     is the decision. The decision flows down the tree, each rank
//     forwarding to its current children before returning.
//
// Failure handling falls out of monotonicity:
//
//   - An interior node dying mid-round orphans its subtree; the orphans
//     observe the view change, recompute their parent, and re-push
//     their aggregates along the new edges. Whatever the dead node had
//     absorbed but not yet forwarded is reconstructed from below.
//
//   - A root dying after a partial decide broadcast is covered by two
//     rules: the new root PULLs aggregates from live members missing
//     from its covered set whenever the view changes (ranks that
//     already returned no longer push), and any vote or pull arriving
//     at a rank that holds the decision is answered with the decision
//     reactively (agreement.go), even after that rank returned. If no
//     live rank holds the old decision then no alive rank returned it,
//     so the new root deciding fresh is safe — the same uniqueness
//     argument as coordinator succession.
const (
	// AgreementCoordinator funnels votes through the lowest alive rank —
	// the paper-faithful protocol of agreement.go, and the default.
	AgreementCoordinator = "coordinator"
	// AgreementTree reduces votes up the fault-aware spanning tree
	// implemented in this file — O(log N) depth, O(1) fan-in per rank.
	AgreementTree = "tree"
)

// Tree-mode message types, extending the agreeReq/agreeVote/agreeDecide
// enum in agreement.go.
const (
	// agreeTreeVote carries a subtree aggregate up one tree edge:
	// Failed is the union of failure reports, Covered the ranks whose
	// votes the union includes.
	agreeTreeVote uint8 = 3 + iota
	// agreeTreeDecide carries the decision down the tree (and serves as
	// the reactive answer to votes and pulls arriving post-decision).
	agreeTreeDecide
	// agreeTreePull asks a rank for its aggregate directly. Sent only by
	// a root whose view changed mid-round, to re-cover members that
	// already returned and therefore no longer push.
	agreeTreePull
)

// treeViewLocked returns the live view: group minus this rank's known
// failures. group must be sorted; the view inherits the order.
func (e *engine) treeViewLocked(group []int) []int {
	view := make([]int, 0, len(group))
	for _, m := range group {
		if m >= 0 && m < len(e.knownFailed) && !e.knownFailed[m] {
			view = append(view, m)
		}
	}
	return view
}

// treeParent returns the parent of rank r in the heap-indexed tree over
// view, and ok=false when r is the root or not in the view at all.
func treeParent(view []int, r int) (int, bool) {
	for i, m := range view {
		if m == r {
			if i == 0 {
				return 0, false
			}
			return view[(i-1)/2], true
		}
	}
	return 0, false
}

// treeChildren returns the children of rank r in the heap-indexed tree
// over view (empty for leaves and for ranks not in the view).
func treeChildren(view []int, r int) []int {
	for i, m := range view {
		if m == r {
			var kids []int
			if l := 2*i + 1; l < len(view) {
				kids = append(kids, view[l])
			}
			if rt := 2*i + 2; rt < len(view) {
				kids = append(kids, view[rt])
			}
			return kids
		}
	}
	return nil
}

// treeAggregateLocked folds this rank's own vote and every recorded
// subtree vote into (covered set, failed union). If any recorded vote
// carries a prior decision, it is surfaced for verbatim adoption.
func (e *engine) treeAggregateLocked(key agreeKey, group []int) (covered, failed map[int]bool, adopted []int, haveAdopted bool) {
	covered = map[int]bool{e.arank(): true}
	failed = map[int]bool{}
	for _, f := range e.knownFailedSnapshotLocked(group) {
		failed[f] = true
	}
	for _, v := range e.agree.votes[key] {
		covered[v.From] = true
		for _, r := range v.Covered {
			covered[r] = true
		}
		if v.Decided {
			adopted, haveAdopted = v.Failed, true
			continue
		}
		for _, f := range v.Failed {
			failed[f] = true
		}
	}
	return covered, failed, adopted, haveAdopted
}

// treeAggregateVoteLocked packages the current aggregate as a tree vote
// message (used for pull replies; the driver builds its own).
func (e *engine) treeAggregateVoteLocked(key agreeKey, group []int) *agreeMsg {
	covered, failed, adopted, haveAdopted := e.treeAggregateLocked(key, group)
	msg := &agreeMsg{Type: agreeTreeVote, Inst: key.inst, From: e.arank(),
		Covered: sortedKeys(covered)}
	if haveAdopted {
		msg.Failed, msg.Decided = adopted, true
	} else {
		msg.Failed = sortedKeys(failed)
	}
	return msg
}

func sortedKeys(set map[int]bool) []int {
	out := make([]int, 0, len(set))
	for r := range set {
		out = append(out, r)
	}
	sort.Ints(out)
	return out
}

// covers reports whether the covered set includes every view member.
func covers(covered map[int]bool, view []int) bool {
	for _, m := range view {
		if !covered[m] {
			return false
		}
	}
	return true
}

// agreeSend is one message of a driver round with every rank it goes to:
// a pull to all uncovered members or a decide to both children is one
// encode.
type agreeSend struct {
	msg  agreeMsg
	dsts []int
}

// treeAgreementDriver runs one tree-mode agreement instance. The shape
// mirrors validateAllDriver's passive loop: all state changes (vote and
// decide arrivals, failure notifications) bump the engine's agreement
// generation channel, and each wake recomputes the view, the aggregate,
// and this rank's tree position from scratch.
func (c *Comm) treeAgreementDriver(key agreeKey) ([]int, error) {
	e := c.eng
	me := c.proc.rank
	group := append([]int(nil), c.Group()...)
	sort.Ints(group)
	start := time.Now()

	// Push/pull dedup fingerprints, local to this instance. Aggregates
	// are monotone unions, so (parent, |covered|, |failed|) identifies a
	// push; a pull round is re-armed only when the view changes.
	lastParent, lastCovered, lastFailed := -1, -1, -1
	lastPullView := e.fingerprintView(nil)

	for {
		var (
			sends    []agreeSend
			decision []int
			decided  bool
		)

		e.mu.Lock()
		if d, ok := e.agree.decisions[key]; ok {
			decision, decided = d, true
		}
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
		view := e.treeViewLocked(group)
		if !decided {
			covered, failedU, adopted, haveAdopted := e.treeAggregateLocked(key, group)
			switch {
			case haveAdopted:
				// A subtree surfaced a prior root's decision: adopt it
				// verbatim, exactly as a succeeding coordinator would.
				decision, decided = e.decideLocked(key, adopted), true
				e.agreeBumpLocked()
			// Replication mode: only the PRIMARY replica of the root's
			// logical rank acts as root; its standbys fall through to the
			// default case where treeParent reports no parent, so they park
			// until a decision (or their own promotion) bumps agreeCh and
			// this condition is recomputed.
			case len(view) > 0 && view[0] == me &&
				(e.w.repl == nil || e.w.repl.isPrimary(e.rank)):
				if covers(covered, view) {
					decision, decided = e.decideLocked(key, sortedKeys(failedU)), true
					e.agreeBumpLocked()
					if e.w.obs != nil {
						e.w.obs.Observe(me, obs.AgreementRound, time.Since(start))
					}
				} else if fp := e.fingerprintView(view); fp != lastPullView {
					// View changed while members are missing from the
					// aggregate: some may have returned already and will
					// never push again — pull them directly.
					lastPullView = fp
					pull := agreeSend{msg: agreeMsg{Type: agreeTreePull,
						Inst: key.inst, From: me, Group: group}}
					for _, m := range view {
						if m != me && !covered[m] {
							pull.dsts = append(pull.dsts, m)
						}
					}
					sends = append(sends, pull)
				}
			default:
				if parent, ok := treeParent(view, me); ok &&
					(parent != lastParent || len(covered) != lastCovered || len(failedU) != lastFailed) {
					lastParent, lastCovered, lastFailed = parent, len(covered), len(failedU)
					// Group rides along so that a parent that turns out to
					// be a revived slot for a pre-join instance can serve
					// it reactively (see deliverAgreement).
					sends = append(sends, agreeSend{msg: agreeMsg{Type: agreeTreeVote,
						Inst: key.inst, From: me, Group: group,
						Failed: sortedKeys(failedU), Covered: sortedKeys(covered)},
						dsts: []int{parent}})
				}
			}
		}
		if decided {
			// Forward the decision to the current children before
			// returning; duplicates are idempotent at the receiver.
			sends = append(sends, agreeSend{msg: agreeMsg{Type: agreeTreeDecide,
				Inst: key.inst, From: me, Failed: decision, Decided: true},
				dsts: treeChildren(view, me)})
		}
		var ch chan struct{}
		if !decided {
			ch = e.agreeCh
		}
		e.mu.Unlock()

		for i := range sends {
			e.sendAgreement(key.ctx, &sends[i].msg, sends[i].dsts...)
		}
		if decided {
			return decision, nil
		}
		select {
		case <-ch:
		case <-e.downCh:
		case <-e.w.abortCh:
		}
	}
}

// fingerprintView reduces a view to a comparable value for pull-round
// dedup. With elastic worlds a view can shrink and then regrow to a
// previous shape when a slot is revived, so member generations are folded
// in alongside (len, sum): a revival bumps the generation sum even when
// the rank sum repeats.
func (e *engine) fingerprintView(view []int) [3]int {
	sum, gsum := 0, 0
	for _, m := range view {
		sum += m
		// appGeneration speaks the view's identity space: physical slots
		// normally, the primary replica's generation in replication mode.
		gsum += e.w.appGeneration(m)
	}
	return [3]int{len(view), sum, gsum}
}
