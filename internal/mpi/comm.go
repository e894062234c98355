package mpi

import (
	"fmt"
	"sort"
)

// Context identifiers. Every communicator owns two contexts, as real MPI
// implementations separate point-to-point and internal (collective,
// agreement) traffic so that user receives on AnyTag can never swallow
// library messages.
const (
	ctxWorldP2P      = 0
	ctxWorldInternal = 1
)

// Comm is a communicator: an ordered group of world ranks plus isolated
// communication contexts. Comm values are per-process objects (as in
// MPI); communicators with the same contexts on different ranks name the
// same communication universe.
//
// Failure recognition is tracked per communicator, as the proposal
// requires "to guarantee that libraries are able to receive notification
// of the failure, even if the main application has previously recognized
// the failure on a duplicate communicator" (paper Section II).
type Comm struct {
	proc *Proc
	eng  *engine

	group   []int       // world rank by comm rank (immutable)
	indexOf map[int]int // world rank -> comm rank (immutable)
	myRank  int         // this process's comm rank

	ctxP2P      int
	ctxInternal int

	errh Errhandler

	// recognized marks world ranks whose failure this process has
	// recognized on this communicator (MPI_RANK_NULL). Guarded by eng.mu.
	recognized map[int]bool
	// collMembers is the participant list for collective operations: the
	// group minus ranks recognized by the last ValidateAll. Only
	// ValidateAll may shrink it (validate_clear re-enables only
	// point-to-point, per the paper). It is replaced, never edited, and
	// only through setCollMembersLocked, which also rebuilds collComm and
	// collMe: together the three are the participant view CollEnter hands
	// out. Guarded by eng.mu.
	collMembers []int
	collComm    []int // comm rank of each collMembers entry
	collMe      int   // this rank's index in collMembers, -1 if excluded
	// validateEpoch counts completed ValidateAll operations. Guarded by eng.mu.
	validateEpoch int

	// collSeq sequences collective operations into the internal tag
	// space. Guarded by eng.mu: ValidateAll resynchronizes it (possibly
	// from the IvalidateAll driver goroutine), see CollEnter.
	collSeq int
	// validateSeq allocates agreement instances. Guarded by eng.mu:
	// elastic respawn reads it cross-rank to compute the newcomer's join
	// fence (World.captureSeed).
	validateSeq int
}

// collSeqEpochStride spaces the collective tag ranges of successive
// validate epochs. ValidateAll resets the sequence to epoch*stride at
// every rank: ranks that consumed different numbers of collective tags
// inside a failed recovery block (one erroring at the gate, another deep
// inside a tree) re-align here — the concrete form of the paper's remark
// that repairing the communicator lets the implementation re-establish
// its collective machinery.
const collSeqEpochStride = 1 << 20

func newComm(p *Proc, group []int, ctxP2P, ctxInternal int) *Comm {
	c := &Comm{
		proc:        p,
		eng:         p.eng,
		group:       group,
		indexOf:     make(map[int]int, len(group)),
		myRank:      -1,
		ctxP2P:      ctxP2P,
		ctxInternal: ctxInternal,
		errh:        ErrorsAreFatal,
		recognized:  make(map[int]bool),
	}
	for i, wr := range group {
		c.indexOf[wr] = i
		if wr == p.rank {
			c.myRank = i
		}
	}
	c.setCollMembersLocked(func(int) bool { return true }) // c is not shared yet
	// Register with the engine so a peer's revival can repair recognition
	// and collective membership on every communicator that contains it.
	c.eng.mu.Lock()
	c.eng.comms = append(c.eng.comms, c)
	c.eng.mu.Unlock()
	return c
}

// Rank returns the calling process's rank in this communicator.
func (c *Comm) Rank() int { return c.myRank }

// Size returns the communicator size (including failed ranks).
func (c *Comm) Size() int { return len(c.group) }

// Group returns a copy of the communicator's world-rank group, ordered by
// communicator rank.
func (c *Comm) Group() []int { return append([]int(nil), c.group...) }

// WorldRank translates a communicator rank to a world rank.
func (c *Comm) WorldRank(commRank int) (int, error) {
	if commRank < 0 || commRank >= len(c.group) {
		return -1, fmt.Errorf("%w: comm rank %d of %d", ErrInvalidRank, commRank, len(c.group))
	}
	return c.group[commRank], nil
}

// rankOf translates a world rank to a comm rank (-1 if not a member).
// Reads only immutable state, so it is safe under any lock.
func (c *Comm) rankOf(worldRank int) int {
	if r, ok := c.indexOf[worldRank]; ok {
		return r
	}
	return -1
}

// SetErrhandler replaces the communicator's error handler — the paper's
// first required change (Fig. 3 line 10): MPI_ERRORS_RETURN instead of
// the fatal default.
func (c *Comm) SetErrhandler(h Errhandler) { c.errh = h }

// Errhandler returns the communicator's current error handler.
func (c *Comm) Errhandler() Errhandler { return c.errh }

// herr applies the communicator's error handler to err: with
// ErrorsAreFatal any error aborts the world (and does not return); with
// ErrorsReturn the error is handed back.
func (c *Comm) herr(err error) error {
	if err == nil || c.errh == ErrorsReturn {
		return err
	}
	c.proc.Abort(1)
	return err // unreachable
}

// --- recognition state (guarded by eng.mu) ---------------------------------

func (c *Comm) recognizedLocked(worldRank int) bool { return c.recognized[worldRank] }

// memberUnrecognizedLocked reports whether worldRank is a member whose
// failure has not been recognized here.
func (c *Comm) memberUnrecognizedLocked(worldRank int) bool {
	return c.rankOf(worldRank) >= 0 && !c.recognized[worldRank]
}

// collMemberLocked reports whether worldRank is a current collective
// participant (i.e. not excluded by a previous ValidateAll).
func (c *Comm) collMemberLocked(worldRank int) bool {
	for _, wr := range c.collMembers {
		if wr == worldRank {
			return true
		}
	}
	return false
}

// anyCollMemberFailedLocked returns a known-failed collective
// participant, if one exists.
func (c *Comm) anyCollMemberFailedLocked() (int, bool) {
	for _, wr := range c.collMembers {
		if c.eng.knownFailed[wr] {
			return wr, true
		}
	}
	return -1, false
}

// anyUnrecognizedLocked returns some member that is known-failed and
// unrecognized, if one exists.
func (c *Comm) anyUnrecognizedLocked() (int, bool) {
	for _, wr := range c.group {
		if c.eng.knownFailed[wr] && !c.recognized[wr] {
			return wr, true
		}
	}
	return -1, false
}

// --- state queries (the local validate operations, paper Fig. 1) -----------

// RankState is the proposal's three-valued per-rank state.
type RankState int

const (
	// RankOK: running normally (MPI_RANK_OK).
	RankOK RankState = iota
	// RankFailed: failed, not yet recognized here (MPI_RANK_FAILED).
	RankFailed
	// RankNull: failed and recognized; behaves as MPI_PROC_NULL (MPI_RANK_NULL).
	RankNull
)

// String returns the proposal's constant name for the state.
func (s RankState) String() string {
	switch s {
	case RankOK:
		return "MPI_RANK_OK"
	case RankFailed:
		return "MPI_RANK_FAILED"
	case RankNull:
		return "MPI_RANK_NULL"
	default:
		return fmt.Sprintf("RankState(%d)", int(s))
	}
}

// RankInfo mirrors the proposal's MPI_Rank_info object.
type RankInfo struct {
	Rank       int // communicator rank
	Generation int // incarnation (1 until an elastic respawn reoccupies the slot)
	State      RankState
}

// RankState returns the state of a communicator rank as known locally —
// the paper's MPI_Comm_validate_rank. It reflects received failure
// notifications, not instantaneous ground truth.
func (c *Comm) RankState(commRank int) (RankInfo, error) {
	c.eng.checkAlive()
	wr, err := c.WorldRank(commRank)
	if err != nil {
		return RankInfo{}, c.herr(err)
	}
	info := RankInfo{Rank: commRank, Generation: c.proc.w.appGeneration(wr)}
	c.eng.mu.Lock()
	switch {
	case !c.eng.knownFailed[wr]:
		info.State = RankOK
	case c.recognized[wr]:
		info.State = RankNull
	default:
		info.State = RankFailed
	}
	c.eng.mu.Unlock()
	return info, nil
}

// FailedRanks returns RankInfo for every locally known failed member —
// the paper's MPI_Comm_validate (the local array query).
func (c *Comm) FailedRanks() []RankInfo {
	c.eng.checkAlive()
	c.eng.mu.Lock()
	defer c.eng.mu.Unlock()
	var out []RankInfo
	for cr, wr := range c.group {
		if !c.eng.knownFailed[wr] {
			continue
		}
		st := RankFailed
		if c.recognized[wr] {
			st = RankNull
		}
		out = append(out, RankInfo{Rank: cr, Generation: c.proc.w.appGeneration(wr), State: st})
	}
	return out
}

// RecognizeLocal locally recognizes the failures of the given comm ranks —
// the paper's MPI_Comm_validate_clear. It re-enables point-to-point
// operations with those ranks (as MPI_PROC_NULL) but not collectives.
// Recognizing a rank that has not failed is an error: that would violate
// strong accuracy from the application's own viewpoint.
func (c *Comm) RecognizeLocal(commRanks ...int) error {
	c.eng.checkAlive()
	var err error
	c.eng.mu.Lock()
	for _, cr := range commRanks {
		if cr < 0 || cr >= len(c.group) {
			err = fmt.Errorf("%w: comm rank %d", ErrInvalidRank, cr)
			break
		}
		wr := c.group[cr]
		if !c.eng.knownFailed[wr] {
			err = fmt.Errorf("%w: rank %d has not failed", ErrInvalidArg, cr)
			break
		}
		c.recognized[wr] = true
	}
	c.eng.mu.Unlock()
	return c.herr(err)
}

// ValidateEpoch returns how many ValidateAll operations have completed on
// this communicator at this rank.
func (c *Comm) ValidateEpoch() int {
	c.eng.mu.Lock()
	defer c.eng.mu.Unlock()
	return c.validateEpoch
}

// --- collective support ------------------------------------------------------

// CollMembers returns the current collective participant list (world
// ranks, comm-rank order): the group minus ranks recognized by the last
// ValidateAll.
func (c *Comm) CollMembers() []int {
	c.eng.mu.Lock()
	defer c.eng.mu.Unlock()
	return append([]int(nil), c.collMembers...)
}

// CollectiveOK reports whether collective operations are currently
// enabled from this rank's local viewpoint: it returns ErrRankFailStop if
// any collective participant is known-failed (and not yet excluded by a
// ValidateAll), implementing "all collective operations will return an
// error ... until the communicator is repaired" (paper Section II).
func (c *Comm) CollectiveOK() error {
	c.eng.mu.Lock()
	defer c.eng.mu.Unlock()
	return c.collGateLocked()
}

func (c *Comm) collGateLocked() error {
	for _, wr := range c.collMembers {
		if c.eng.knownFailed[wr] {
			return failStop(wr)
		}
	}
	return nil
}

// CollView is the participant view of one collective call: the agreed
// participants in comm-rank order, as world ranks and as comm ranks, and
// the caller's index among them (-1 if it was excluded). Collective
// algorithms work on indices into this list, so they are oblivious to the
// gaps validated failures leave. A view is never edited — a repair
// installs a new one — so a collective may keep it, lock-free, for the
// whole call; it must not modify the slices.
type CollView struct {
	World []int
	Comm  []int
	Me    int
}

// CollEnter opens a collective operation on c in one hold of the engine
// lock. It consumes the collective's internal tag, applies the Section II
// gate (ErrRankFailStop while a participant is known-failed and not yet
// excluded by a ValidateAll), and returns the participant view cached on
// the communicator.
//
// The tag is consumed even when the gate refuses: every alive member calls
// the same collectives in the same program order even when some of them
// return errors, so a rank whose call errors at entry must still advance
// its tag to stay aligned with the ranks whose call proceeds. After a
// failure, ValidateAll re-aligns the sequence (see collSeqEpochStride).
func (c *Comm) CollEnter() (tag int, v CollView, err error) {
	c.eng.mu.Lock()
	defer c.eng.mu.Unlock()
	c.collSeq++
	if err := c.collGateLocked(); err != nil {
		return c.collSeq, CollView{}, err
	}
	return c.collSeq, CollView{World: c.collMembers, Comm: c.collComm, Me: c.collMe}, nil
}

// setCollMembersLocked replaces the collective participant list with the
// group members keep accepts, in comm-rank order, and rebuilds the view
// derived from it. Every change of membership goes through here: the list
// is replaced, never edited, so views already handed out stay valid. A
// list of every member shares the immutable group; otherwise the world
// and comm ranks share one allocation. Caller holds eng.mu, or owns c
// exclusively.
func (c *Comm) setCollMembersLocked(keep func(worldRank int) bool) {
	n := 0
	for _, wr := range c.group {
		if keep(wr) {
			n++
		}
	}
	own := n < len(c.group)
	size := n
	if own {
		size = 2 * n
	}
	buf := make([]int, size)
	world, comm := c.group, buf[:n:n]
	if own {
		world = buf[n:]
	}
	me, i := -1, 0
	for cr, wr := range c.group {
		if !keep(wr) {
			continue
		}
		if own {
			world[i] = wr
		}
		comm[i] = cr
		if cr == c.myRank {
			me = i
		}
		i++
	}
	c.collMembers, c.collComm, c.collMe = world, comm, me
}

// --- communicator management -------------------------------------------------

// Dup duplicates the communicator: same group, fresh contexts, fresh
// recognition state (so libraries can observe failures independently —
// the motivating case for per-communicator recognition). All members must
// call Dup in the same order.
func (c *Comm) Dup() *Comm {
	c.eng.checkAlive()
	p := c.proc
	ctxP2P, ctxInternal := nextCtxPair(p.nextCtxSeq(), 0)
	return newComm(p, c.Group(), ctxP2P, ctxInternal)
}

// nextCtxPair derives the context pair for the seq'th derived
// communicator. Every rank creates derived communicators in the same
// program order (an MPI requirement), so the pair agrees across ranks;
// elastic respawn hands the newcomer the most advanced survivor's
// allocator position so reincarnations stay aligned too. Split mixes in
// the color so sibling sub-communicators get disjoint contexts (colors
// are limited to [0, 4094]).
func nextCtxPair(seq, color int) (int, int) {
	base := 2 * (seq*4096 + color + 1)
	return base, base + 1
}

// Split partitions the communicator by color, ordering members by key
// then by current rank (MPI_Comm_split). Members passing the same color
// get the same new communicator. It is implemented over point-to-point
// internal messages (gather to comm rank 0, then personalized scatter)
// and therefore fails with ErrRankFailStop if a member has failed.
func (c *Comm) Split(color, key int) (*Comm, error) {
	if color < 0 || color > 4094 {
		return nil, c.herr(fmt.Errorf("%w: split color %d outside [0,4094]", ErrInvalidArg, color))
	}
	c.eng.checkAlive()
	p := c.proc
	ctxP2P, ctxInternal := nextCtxPair(p.nextCtxSeq(), color)

	mine := splitEntry{WorldRank: p.rank, Color: color, Key: key}

	const splitTag = -1 // internal context, cannot collide with collectives (positive tags)
	var all []splitEntry
	if c.myRank == 0 {
		all = make([]splitEntry, len(c.group))
		all[0] = mine
		for i := 1; i < len(c.group); i++ {
			pl, _, err := c.recvInternal(AnySource, splitTag)
			if err != nil {
				return nil, c.herr(err)
			}
			got, err := decodeSplit(pl)
			if err != nil {
				return nil, c.herr(err)
			}
			if len(got) != 1 || c.rankOf(got[0].WorldRank) < 0 {
				return nil, c.herr(errWire)
			}
			all[c.rankOf(got[0].WorldRank)] = got[0]
		}
		enc := encodeSplit(all)
		for i := 1; i < len(c.group); i++ {
			if err := c.sendInternal(i, splitTag, enc); err != nil {
				return nil, c.herr(err)
			}
		}
	} else {
		if err := c.sendInternal(0, splitTag, encodeSplit([]splitEntry{mine})); err != nil {
			return nil, c.herr(err)
		}
		pl, _, err := c.recvInternal(0, splitTag)
		if err != nil {
			return nil, c.herr(err)
		}
		if all, err = decodeSplit(pl); err != nil {
			return nil, c.herr(err)
		}
	}

	var members []splitEntry
	for _, e := range all {
		if e.Color == color {
			members = append(members, e)
		}
	}
	sort.Slice(members, func(i, j int) bool {
		if members[i].Key != members[j].Key {
			return members[i].Key < members[j].Key
		}
		return c.rankOf(members[i].WorldRank) < c.rankOf(members[j].WorldRank)
	})
	group := make([]int, len(members))
	for i, e := range members {
		group[i] = e.WorldRank
	}
	return newComm(p, group, ctxP2P, ctxInternal), nil
}
