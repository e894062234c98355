package mpi

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/transport"
)

// runElastic builds a world with the given extra options and runs fn on
// every rank, passing the world handle through so rank bodies can call
// Spawn and inspect registries. The 60s deadline keeps a broken handshake
// from hanging the suite.
func runElastic(t *testing.T, n int, opts []Option, fn func(w *World, p *Proc) error) (*World, *RunResult) {
	t.Helper()
	w, err := NewWorld(n, append([]Option{WithDeadline(60 * time.Second)}, opts...)...)
	if err != nil {
		t.Fatalf("NewWorld: %v", err)
	}
	res, err := w.Run(func(p *Proc) error {
		p.World().SetErrhandler(ErrorsReturn)
		return fn(w, p)
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return w, res
}

// pollUntil spins until pred returns true, surfacing pred errors. Bounded
// so a wedged handshake fails the rank instead of tripping the watchdog.
func pollUntil(what string, pred func() (bool, error)) error {
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		ok, err := pred()
		if err != nil {
			return err
		}
		if ok {
			return nil
		}
		time.Sleep(200 * time.Microsecond)
	}
	return fmt.Errorf("timed out waiting for %s", what)
}

func TestRankIDString(t *testing.T) {
	if s := (RankID{Slot: 3, Gen: 2}).String(); s != "3.2" {
		t.Fatalf("RankID string: %q", s)
	}
	if s := (RankID{Slot: 0, Gen: 1}).String(); s != "0.1" {
		t.Fatalf("RankID string: %q", s)
	}
}

func TestSpawnValidation(t *testing.T) {
	// Non-elastic worlds reject Spawn outright.
	_, _ = runElastic(t, 2, nil, func(w *World, p *Proc) error {
		if p.Rank() != 0 {
			return nil
		}
		if _, err := w.Spawn(1); !errors.Is(err, ErrInvalidArg) {
			return fmt.Errorf("Spawn on non-elastic world: %v", err)
		}
		return nil
	})

	// Elastic worlds validate the slot.
	_, res := runElastic(t, 2, []Option{WithElastic(ElasticOptions{})}, func(w *World, p *Proc) error {
		if p.Rank() != 0 {
			return nil
		}
		if _, err := w.Spawn(-1); !errors.Is(err, ErrInvalidArg) {
			return fmt.Errorf("out-of-range slot: %v", err)
		}
		if _, err := w.Spawn(5); !errors.Is(err, ErrInvalidArg) {
			return fmt.Errorf("out-of-range slot: %v", err)
		}
		if _, err := w.Spawn(1); !errors.Is(err, ErrInvalidArg) {
			return fmt.Errorf("spawning an alive slot: %v", err)
		}
		return nil
	})
	requireNoRankErrors(t, res)

	// Spawn outside a live run is rejected even for a confirmed-dead slot.
	w, err := NewWorld(2, WithElastic(ElasticOptions{}))
	if err != nil {
		t.Fatal(err)
	}
	w.Kill(1)
	if _, err := w.Spawn(1); !errors.Is(err, ErrInvalidArg) {
		t.Fatalf("Spawn outside a run: %v", err)
	}
}

// TestSpawnReincarnatesSlot is the core elastic round trip: a rank dies,
// AutoRespawn reincarnates the slot at generation 2, and the newcomer's
// traffic flows to a survivor that was stuck retrying against the corpse.
func TestSpawnReincarnatesSlot(t *testing.T) {
	w, res := runElastic(t, 3,
		[]Option{WithElastic(ElasticOptions{AutoRespawn: true}), WithMetrics(metrics.NewWorld(3))},
		func(w *World, p *Proc) error {
			c := p.World()
			switch {
			case p.Rank() == 2 && p.Gen() == 1:
				if err := c.Send(0, 5, []byte("dying")); err != nil {
					return err
				}
				p.Die()
				return nil // unreachable
			case p.Rank() == 2: // the reincarnation
				if p.Gen() != 2 {
					return fmt.Errorf("unexpected generation %d", p.Gen())
				}
				if id := p.ID().String(); id != "2.2" {
					return fmt.Errorf("identity %q", id)
				}
				return c.Send(0, 7, []byte("reborn"))
			case p.Rank() == 0:
				if _, _, err := c.Recv(2, 5); err != nil {
					return err
				}
				// The posted receive fails when gen 1 dies and fails fast
				// while the slot is known-failed; once the slot revives the
				// retry blocks and matches the newcomer's send.
				for {
					pl, _, err := c.Recv(2, 7)
					if err == nil {
						if string(pl) != "reborn" {
							return fmt.Errorf("payload %q", pl)
						}
						return nil
					}
					if !IsRankFailStop(err) {
						return err
					}
					time.Sleep(200 * time.Microsecond)
				}
			}
			return nil
		})
	if !res.Ranks[2].Killed {
		t.Fatalf("rank 2 gen 1 should be recorded killed: %+v", res.Ranks[2])
	}
	if len(res.Respawns) != 1 {
		t.Fatalf("respawns: %+v", res.Respawns)
	}
	rr := res.Respawns[0]
	if rr.Slot != 2 || rr.Gen != 2 || !rr.Finished || rr.Err != nil {
		t.Fatalf("respawn result: %+v", rr)
	}
	if got := w.Metrics().Get(2, metrics.Respawns); got != 1 {
		t.Fatalf("respawn counter: %d", got)
	}
	requireNoRankErrors(t, res)
}

// TestSpawnRespawnBudget: MaxRespawns caps reincarnations; a second death
// stays dead.
func TestSpawnRespawnBudget(t *testing.T) {
	_, res := runElastic(t, 3,
		[]Option{WithElastic(ElasticOptions{AutoRespawn: true, MaxRespawns: 1})},
		func(w *World, p *Proc) error {
			c := p.World()
			switch {
			case p.Rank() == 2 && p.Gen() == 1:
				p.Die()
			case p.Rank() == 2: // gen 2: announce, then die again
				if err := c.Send(0, 9, nil); err != nil {
					return err
				}
				p.Die()
			case p.Rank() == 0:
				for {
					_, _, err := c.Recv(2, 9)
					if err == nil {
						break
					}
					if !IsRankFailStop(err) {
						return err
					}
					time.Sleep(200 * time.Microsecond)
				}
				// Wait for gen 2's death to be known, then give a (buggy)
				// third spawn a moment to happen — it must not.
				if err := pollUntil("gen2 death", func() (bool, error) {
					info, err := c.RankState(2)
					if err != nil {
						return false, err
					}
					return info.State != RankOK, nil
				}); err != nil {
					return err
				}
				time.Sleep(20 * time.Millisecond)
				if g := p.Registry().Generation(2); g != 2 {
					return fmt.Errorf("budget exceeded: slot 2 at generation %d", g)
				}
			}
			return nil
		})
	if len(res.Respawns) != 1 {
		t.Fatalf("respawns: %+v", res.Respawns)
	}
	if rr := res.Respawns[0]; rr.Gen != 2 || !rr.Killed {
		t.Fatalf("respawn result: %+v", rr)
	}
	requireNoRankErrors(t, res)
}

// TestShrinkDropsDeadMembers: the basic ULFM MPIX_Comm_shrink analogy — a
// dense survivor communicator over which collectives and p2p work again.
func TestShrinkDropsDeadMembers(t *testing.T) {
	_, res := runElastic(t, 4, nil, func(w *World, p *Proc) error {
		c := p.World()
		if p.Rank() == 3 {
			p.Die()
		}
		if err := pollUntil("death of 3", func() (bool, error) {
			info, err := c.RankState(3)
			if err != nil {
				return false, err
			}
			return info.State != RankOK, nil
		}); err != nil {
			return err
		}
		nc, err := c.Shrink()
		if err != nil {
			return err
		}
		if nc.Size() != 3 {
			return fmt.Errorf("shrunk size %d", nc.Size())
		}
		if nc.Rank() != p.Rank() { // survivors 0,1,2 stay dense in order
			return fmt.Errorf("shrunk rank %d (world %d)", nc.Rank(), p.Rank())
		}
		// The shrunk communicator is fully alive: a ring send works.
		right, left := (nc.Rank()+1)%3, (nc.Rank()+2)%3
		if err := nc.Send(right, 1, []byte{byte(nc.Rank())}); err != nil {
			return err
		}
		pl, _, err := nc.Recv(left, 1)
		if err != nil {
			return err
		}
		if len(pl) != 1 || int(pl[0]) != left {
			return fmt.Errorf("ring payload %v", pl)
		}
		return nil
	})
	requireNoRankErrors(t, res)
}

// TestShrinkRacesConcurrentValidate runs Shrink on the world communicator
// while every rank (including the one about to die) drives validates on a
// duplicate. The two agreement streams are keyed by different contexts and
// must not interfere; the shrink's own validate must wait out the victim's
// vote-or-death.
func TestShrinkRacesConcurrentValidate(t *testing.T) {
	for _, mode := range []string{AgreementCoordinator, AgreementTree} {
		t.Run(mode, func(t *testing.T) {
			_, res := runElastic(t, 5, []Option{WithAgreement(mode)}, func(w *World, p *Proc) error {
				c := p.World()
				d := c.Dup()
				var wg sync.WaitGroup
				errCh := make(chan error, 3)
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < 3; i++ {
						if _, err := d.ValidateAll(); err != nil {
							errCh <- err
							return
						}
					}
				}()
				if p.Rank() == 4 {
					// The victim joins its side goroutine BEFORE dying: an
					// app goroutine must never make MPI calls on a dead rank.
					wg.Wait()
					p.Die()
				}
				nc, err := c.Shrink()
				if err != nil {
					return err
				}
				wg.Wait()
				close(errCh)
				for e := range errCh {
					return e
				}
				if nc.Size() != 4 {
					return fmt.Errorf("shrunk size %d", nc.Size())
				}
				for _, wr := range nc.Group() {
					if wr == 4 {
						return fmt.Errorf("victim survived shrink: %v", nc.Group())
					}
				}
				return nil
			})
			requireNoRankErrors(t, res)
		})
	}
}

// TestShrinkMidSecondFailure: a second rank dies between the shrink's
// agreement and the survivors' use of the result. Per the ULFM contract the
// first shrink may legitimately still contain the second victim — the
// caller's recovery is to shrink again.
func TestShrinkMidSecondFailure(t *testing.T) {
	_, res := runElastic(t, 5, nil, func(w *World, p *Proc) error {
		c := p.World()
		switch p.Rank() {
		case 4: // first victim: dies before any agreement
			p.Die()
		case 3: // second victim: votes in the shrink's validate, then dies
			if err := pollUntil("death of 4", func() (bool, error) {
				info, err := c.RankState(4)
				if err != nil {
					return false, err
				}
				return info.State != RankOK, nil
			}); err != nil {
				return err
			}
			if _, err := c.ValidateAll(); err != nil {
				return err
			}
			p.Die()
		default:
			nc1, err := c.Shrink()
			if err != nil {
				return err
			}
			// Rank 3 voted, so the agreed decision names only rank 4.
			if nc1.Size() != 4 {
				return fmt.Errorf("first shrink size %d", nc1.Size())
			}
			// The second failure lands after the repair: wait for the
			// notification on the shrunk communicator, then shrink again.
			cr3 := -1
			for i, wr := range nc1.Group() {
				if wr == 3 {
					cr3 = i
				}
			}
			if cr3 < 0 {
				return fmt.Errorf("rank 3 missing from first shrink: %v", nc1.Group())
			}
			if err := pollUntil("death of 3", func() (bool, error) {
				info, err := nc1.RankState(cr3)
				if err != nil {
					return false, err
				}
				return info.State != RankOK, nil
			}); err != nil {
				return err
			}
			nc2, err := nc1.Shrink()
			if err != nil {
				return err
			}
			if nc2.Size() != 3 {
				return fmt.Errorf("second shrink size %d", nc2.Size())
			}
			right, left := (nc2.Rank()+1)%3, (nc2.Rank()+2)%3
			if err := nc2.Send(right, 2, []byte{byte(nc2.Rank())}); err != nil {
				return err
			}
			pl, _, err := nc2.Recv(left, 2)
			if err != nil {
				return err
			}
			if len(pl) != 1 || int(pl[0]) != left {
				return fmt.Errorf("ring payload %v", pl)
			}
		}
		return nil
	})
	requireNoRankErrors(t, res)
}

// TestValidateAcrossRevive exercises the reincarnation's join fence: the
// survivors complete agreement instances while the slot is dead, and the
// newcomer's seeded counters align its FIRST validate with the survivors'
// next one — pre-join instances are served reactively, never re-entered.
// The n=8 row revives slot 1, an interior node of the binary tree, while
// instance 2 is still open: its last survivor enters only after the
// revival, so the reincarnation must serve that instance from its join
// fence, in tree mode as the interior node it is again.
func TestValidateAcrossRevive(t *testing.T) {
	forModes(t, func(t *testing.T, mode string) {
		for _, row := range []struct {
			n, victim int
			midRound  bool
		}{{4, 3, false}, {8, 1, true}} {
			t.Run(fmt.Sprintf("n%d-slot%d", row.n, row.victim), func(t *testing.T) {
				validateAcrossRevive(t, mode, row.n, row.victim, row.midRound)
			})
		}
	})
}

func validateAcrossRevive(t *testing.T, mode string, n, victim int, midRound bool) {
	holder := n - 1 // midRound: enters instance 2 only after the revival
	var mu sync.Mutex
	open := map[int]int{} // survivor -> its count for the instance open at the revival
	_, res := runElastic(t, n,
		[]Option{WithAgreement(mode), WithElastic(ElasticOptions{})},
		func(w *World, p *Proc) error {
			c := p.World()
			if p.Rank() == victim && p.Gen() == 2 {
				// The reincarnation runs exactly one validate: its seeded
				// instance counter lines it up with the survivors'
				// post-revive round.
				cnt, err := c.ValidateAll()
				if err != nil {
					return err
				}
				if cnt != 0 {
					return fmt.Errorf("gen2 validate reported %d failures", cnt)
				}
				return nil
			}
			// Instance 0: everyone alive.
			if cnt, err := c.ValidateAll(); err != nil || cnt != 0 {
				return fmt.Errorf("validate#0: count=%d err=%v", cnt, err)
			}
			if p.Rank() == victim {
				p.Die()
			}
			if err := pollUntil("death of the victim", func() (bool, error) {
				info, err := c.RankState(victim)
				if err != nil {
					return false, err
				}
				return info.State != RankOK, nil
			}); err != nil {
				return err
			}
			// Instances 1 and 2 run against the dead slot.
			closed := 2
			if midRound {
				closed = 1
			}
			for i := 1; i <= closed; i++ {
				cnt, err := c.ValidateAll()
				if err != nil {
					return err
				}
				if cnt != 1 {
					return fmt.Errorf("validate#%d reported %d failures", i, cnt)
				}
			}
			var req *Request
			if midRound && p.Rank() != holder {
				req = c.IvalidateAll() // instance 2, open across the revival
			}
			if p.Rank() == 0 {
				gen, err := w.Spawn(victim)
				if err != nil {
					return err
				}
				if gen != 2 {
					return fmt.Errorf("spawned generation %d", gen)
				}
			}
			if err := pollUntil("revival of the victim", func() (bool, error) {
				info, err := c.RankState(victim)
				if err != nil {
					return false, err
				}
				return info.State == RankOK && info.Generation == 2, nil
			}); err != nil {
				return err
			}
			if midRound {
				var cnt int
				if req != nil {
					if _, err := req.Wait(); err != nil {
						return err
					}
					cnt = req.Result()
				} else {
					var err error
					if cnt, err = c.ValidateAll(); err != nil {
						return err
					}
				}
				mu.Lock()
				open[p.Rank()] = cnt
				mu.Unlock()
			}
			// Instance 3: aligned with the reincarnation's first.
			cnt, err := c.ValidateAll()
			if err != nil {
				return err
			}
			if cnt != 0 {
				return fmt.Errorf("post-revive validate reported %d failures", cnt)
			}
			return nil
		})
	requireNoRankErrors(t, res)
	if len(res.Respawns) != 1 || !res.Respawns[0].Finished || res.Respawns[0].Err != nil {
		t.Fatalf("respawns: %+v", res.Respawns)
	}
	for _, cnt := range open {
		if cnt != open[0] {
			t.Fatalf("survivors disagree on the instance open at the revival: %v", open)
		}
	}
}

// TestStaleGenerationFrameRejected injects frames stamped for (and by) a
// wrong incarnation straight into an engine: the generation fence must
// reject them before matching, so a posted receive only ever sees the
// properly stamped payload.
func TestStaleGenerationFrameRejected(t *testing.T) {
	w, res := runElastic(t, 2, []Option{WithMetrics(metrics.NewWorld(2))}, func(w *World, p *Proc) error {
		c := p.World()
		if p.Rank() == 0 {
			r := c.Irecv(1, 42)
			if err := c.Send(1, 1, nil); err != nil {
				return err
			}
			if _, err := r.Wait(); err != nil {
				return err
			}
			if pl := r.Payload(); string(pl) != "good" {
				return fmt.Errorf("fence leaked a stale frame: %q", pl)
			}
			return nil
		}
		if _, _, err := c.Recv(0, 1); err != nil {
			return err
		}
		// Craft frames that would match the posted receive except for the
		// generation stamps. ctxP2P is identical on every rank's world comm.
		for _, pkt := range []*transport.Packet{
			{Src: 1, Dst: 0, Tag: 42, Context: c.ctxP2P, Kind: transport.KindData,
				SrcGen: 7, DstGen: 1, Payload: []byte("stale-src")},
			{Src: 1, Dst: 0, Tag: 42, Context: c.ctxP2P, Kind: transport.KindData,
				SrcGen: 1, DstGen: 7, Payload: []byte("stale-dst")},
		} {
			w.eng(0).deliver(pkt)
		}
		return c.Send(0, 42, []byte("good"))
	})
	requireNoRankErrors(t, res)
	if got := w.Metrics().Get(0, metrics.StaleGenRejected); got != 2 {
		t.Fatalf("stale_gen_rejected = %d, want 2", got)
	}
}

// TestFetchStateProtocol covers the state-recovery RPC: provider bytes,
// the no-provider answer, and argument validation.
func TestFetchStateProtocol(t *testing.T) {
	_, res := runElastic(t, 3, nil, func(w *World, p *Proc) error {
		c := p.World()
		switch p.Rank() {
		case 1:
			p.SetStateProvider(func() []byte { return []byte("state-of-1") })
			if err := c.Send(0, 98, nil); err != nil { // provider is ready
				return err
			}
			_, _, err := c.Recv(0, 99) // keep the provider alive until fetched
			return err
		case 2:
			_, _, err := c.Recv(0, 99)
			return err
		case 0:
			// Release the peers no matter which assertion fails, so the
			// real error surfaces instead of a world deadline.
			defer func() {
				for peer := 1; peer <= 2; peer++ {
					_ = c.Send(peer, 99, nil)
				}
			}()
			if _, _, err := c.Recv(1, 98); err != nil {
				return err
			}
			pl, err := p.FetchState(1)
			if err != nil || string(pl) != "state-of-1" {
				return fmt.Errorf("FetchState(1) = %q, %v", pl, err)
			}
			if _, err := p.FetchState(2); !errors.Is(err, ErrNoState) {
				return fmt.Errorf("FetchState(2) without provider: %v", err)
			}
			if _, err := p.FetchState(0); !errors.Is(err, ErrInvalidRank) {
				return fmt.Errorf("FetchState(self): %v", err)
			}
			if _, err := p.FetchState(9); !errors.Is(err, ErrInvalidRank) {
				return fmt.Errorf("FetchState(9): %v", err)
			}
			return nil
		}
		return nil
	})
	requireNoRankErrors(t, res)
}

// TestFetchStateDeadPeer: a fetch against a known-dead rank fails stop
// instead of hanging.
func TestFetchStateDeadPeer(t *testing.T) {
	_, res := runElastic(t, 2, nil, func(w *World, p *Proc) error {
		c := p.World()
		if p.Rank() == 1 {
			p.Die()
		}
		if err := pollUntil("death of 1", func() (bool, error) {
			info, err := c.RankState(1)
			if err != nil {
				return false, err
			}
			return info.State != RankOK, nil
		}); err != nil {
			return err
		}
		if _, err := p.FetchState(1); !IsRankFailStop(err) {
			return fmt.Errorf("FetchState(dead) = %v", err)
		}
		return nil
	})
	if res.Ranks[0].Err != nil {
		t.Fatal(res.Ranks[0].Err)
	}
}

// TestSpawnConcurrentSingleWinner: many Spawn calls racing for the same
// confirmed-dead slot produce exactly one revival — the losers are refused
// under runMu with ErrInvalidArg instead of reaching Revive on a live rank
// (which panics). Regression for the check-then-lock race between a manual
// Spawn and the AutoRespawn timer, or two survivors reacting to one death.
func TestSpawnConcurrentSingleWinner(t *testing.T) {
	_, res := runElastic(t, 3, []Option{WithElastic(ElasticOptions{})},
		func(w *World, p *Proc) error {
			c := p.World()
			switch {
			case p.Rank() == 2 && p.Gen() == 1:
				p.Die()
			case p.Rank() == 2: // the reincarnation has nothing to prove
				return nil
			case p.Rank() == 0:
				if err := pollUntil("death of 2", func() (bool, error) {
					info, err := c.RankState(2)
					if err != nil {
						return false, err
					}
					return info.State != RankOK, nil
				}); err != nil {
					return err
				}
				const racers = 8
				var wg sync.WaitGroup
				errs := make([]error, racers)
				gens := make([]int, racers)
				for i := 0; i < racers; i++ {
					wg.Add(1)
					go func(i int) {
						defer wg.Done()
						gens[i], errs[i] = w.Spawn(2)
					}(i)
				}
				wg.Wait()
				won := 0
				for i := 0; i < racers; i++ {
					switch {
					case errs[i] == nil:
						won++
						if gens[i] != 2 {
							return fmt.Errorf("winner spawned generation %d", gens[i])
						}
					case !errors.Is(errs[i], ErrInvalidArg):
						return fmt.Errorf("loser error: %v", errs[i])
					}
				}
				if won != 1 {
					return fmt.Errorf("%d racing spawns succeeded, want exactly 1", won)
				}
			}
			return nil
		})
	requireNoRankErrors(t, res)
	if len(res.Respawns) != 1 {
		t.Fatalf("respawns: %+v", res.Respawns)
	}
}

// TestLateFailureNoticeAfterRevive: a failure notification arriving after
// the slot has already been revived (a delayed notification racing a fast
// respawn) must not re-mark the slot failed — but it must still fail the
// state fetches and posted receives aimed at the dead incarnation, whose
// frames were generation-fenced and can never complete. Regression for a
// FetchState that would otherwise block until the world watchdog.
func TestLateFailureNoticeAfterRevive(t *testing.T) {
	_, res := runElastic(t, 3, []Option{WithElastic(ElasticOptions{})},
		func(w *World, p *Proc) error {
			c := p.World()
			if p.Rank() != 0 {
				_, _, err := c.Recv(0, 99) // park until rank 0 is done asserting
				return err
			}
			defer func() {
				for peer := 1; peer <= 2; peer++ {
					_ = c.Send(peer, 99, nil)
				}
			}()
			// Plant a pending FetchState waiter and a posted receive toward
			// rank 1, then deliver a failure notification for a slot the
			// registry reports alive — exactly the engine state after a
			// revive already repaired it.
			e := w.eng(0)
			e.mu.Lock()
			e.stateSeq++
			id := e.stateSeq
			waiter := &stateWaiter{target: 1, ch: make(chan stateReply, 1)}
			e.stateWaiters[id] = waiter
			e.mu.Unlock()
			r := c.Irecv(1, 42)
			e.onPeerFailure(1)
			select {
			case rep := <-waiter.ch:
				if !IsRankFailStop(rep.err) {
					return fmt.Errorf("state waiter completed with %v", rep.err)
				}
			default:
				return fmt.Errorf("late notification left the state waiter pending")
			}
			if _, err := r.Wait(); !IsRankFailStop(err) {
				return fmt.Errorf("posted receive after late notification: %v", err)
			}
			// The alive slot must NOT be marked failed, or it would stay
			// failed forever (onPeerRevive already ran and will not repair).
			if kf := e.knownFailedSnapshot(); len(kf) != 0 {
				return fmt.Errorf("late notification stuck knownFailed=%v", kf)
			}
			return nil
		})
	requireNoRankErrors(t, res)
}

// TestRefillSeedsBeforeNextRevive: two refills back to back, the second
// reviving a slot while the first one's reincarnation is still being
// launched. The second revive repairs every communicator the first
// reincarnation's engine can reach; the first reincarnation's seed must
// already be in place then, or the two write its world communicator
// concurrently (under -race: a data race) and the seed can undo the
// repair. The reincarnations touch no engine lock before the checks, so
// nothing but the launch itself orders the seed before the revive.
func TestRefillSeedsBeforeNextRevive(t *testing.T) {
	for round := 0; round < 5; round++ {
		release := make(chan struct{})
		_, res := runElastic(t, 4, []Option{WithElastic(ElasticOptions{})},
			func(w *World, p *Proc) error {
				c := p.World()
				switch {
				case p.Rank() >= 2 && p.Gen() == 1:
					p.Die()
				case p.Rank() >= 2: // a reincarnation
					<-release
					if got := c.collMembers; len(got) != 4 {
						return fmt.Errorf("reincarnation %v: collective members %v, want all 4", p.ID(), got)
					}
				case p.Rank() == 1:
					<-release
				case p.Rank() == 0:
					defer close(release)
					for _, slot := range []int{2, 3} {
						if err := pollUntil("death", func() (bool, error) {
							return w.registry.Confirmed(slot), nil
						}); err != nil {
							return err
						}
					}
					for _, slot := range []int{2, 3} {
						if _, err := w.Spawn(slot); err != nil {
							return err
						}
					}
				}
				return nil
			})
		requireNoRankErrors(t, res)
		if len(res.Respawns) != 2 {
			t.Fatalf("round %d: respawns %+v", round, res.Respawns)
		}
	}
}
