package mpi

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/reliable"
)

// chainCarriers are the two ways a chain world confirms receipt: explicit
// KindChainAck frames in a world without the reliability layer, the ARQ
// ack itself in a world with it. Chain-mode tests run on both.
var chainCarriers = []struct {
	name string
	opts []Option
}{
	{"explicit", nil},
	{"arq", []Option{WithReliability(reliable.Options{})}},
}

// runRepl builds a replicated world of lsize logical ranks at degree r
// and runs fn on every PHYSICAL replica (all replicas of a logical rank
// execute the same function, distinguishable only via PhysRank/Gen).
func runRepl(t *testing.T, lsize, r int, mode string, opts []Option, fn func(w *World, p *Proc) error) (*World, *RunResult) {
	t.Helper()
	all := append([]Option{
		WithDeadline(60 * time.Second),
		WithReplication(ReplicationOptions{R: r, Mode: mode}),
		WithMetrics(metrics.NewWorld(lsize * r)),
	}, opts...)
	w, err := NewWorld(lsize, all...)
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

// replRing runs a token ring over the logical ranks: rank 0 injects the
// token each lap, everyone else forwards left to right. victimPhys (if
// >= 0) dies at the top of killLap. No recognition, no validate, no
// resend — the point of replication mode is that the application carries
// zero recovery protocol.
func replRing(laps, victimPhys, killLap int) func(w *World, p *Proc) error {
	return func(w *World, p *Proc) error {
		c := p.World()
		me, n := p.Rank(), p.Size()
		right, left := (me+1)%n, (me-1+n)%n
		for lap := 0; lap < laps; lap++ {
			if victimPhys >= 0 && lap == killLap && p.PhysRank() == victimPhys {
				p.Die()
			}
			if me == 0 {
				if err := c.Send(right, lap, []byte{byte(lap)}); err != nil {
					return err
				}
				pl, _, err := c.Recv(left, lap)
				if err != nil {
					return err
				}
				if len(pl) != 1 || pl[0] != byte(lap) {
					return fmt.Errorf("lap %d: token %v", lap, pl)
				}
			} else {
				pl, _, err := c.Recv(left, lap)
				if err != nil {
					return err
				}
				if err := c.Send(right, lap, pl); err != nil {
					return err
				}
			}
		}
		return nil
	}
}

func TestReplicationWorldShape(t *testing.T) {
	if _, err := NewWorld(2, WithReplication(ReplicationOptions{R: 0})); !errors.Is(err, ErrInvalidArg) {
		t.Fatalf("R=0 accepted: %v", err)
	}
	if _, err := NewWorld(2, WithReplication(ReplicationOptions{R: 2, Mode: "quorum"})); !errors.Is(err, ErrInvalidArg) {
		t.Fatalf("bad mode accepted: %v", err)
	}

	seenPhys := make(map[int]bool)
	var mu sync.Mutex
	w, res := runRepl(t, 3, 2, ReplFanout, nil, func(w *World, p *Proc) error {
		if p.Rank() != p.PhysRank()%3 {
			return fmt.Errorf("rank %d / phys %d: logical mapping broken", p.Rank(), p.PhysRank())
		}
		if p.Size() != 3 {
			return fmt.Errorf("app size %d", p.Size())
		}
		mu.Lock()
		seenPhys[p.PhysRank()] = true
		mu.Unlock()
		return nil
	})
	requireNoRankErrors(t, res)
	if w.Size() != 6 || w.LogicalSize() != 3 {
		t.Fatalf("sizes: physical %d logical %d", w.Size(), w.LogicalSize())
	}
	if len(seenPhys) != 6 {
		t.Fatalf("rank function ran on %d physical slots, want 6", len(seenPhys))
	}
}

// TestReplicationTransparentFailover is the tentpole's core property: the
// PRIMARY replica of a logical rank dies mid-ring and the application —
// which carries no recovery protocol at all — never observes it. The
// standby is promoted and the token keeps circulating.
func TestReplicationTransparentFailover(t *testing.T) {
	const laps = 20
	victim := 1 // primary of logical 1 (L=3, R=2: group {1, 4})
	w, res := runRepl(t, 3, 2, ReplFanout, nil, replRing(laps, victim, 5))

	if !res.Ranks[victim].Killed {
		t.Fatalf("victim %d not recorded killed: %+v", victim, res.Ranks[victim])
	}
	for phys, rr := range res.Ranks {
		if phys == victim {
			continue
		}
		if rr.Err != nil || rr.Killed {
			t.Fatalf("phys %d saw the failure: %+v", phys, rr)
		}
	}
	mets := w.Metrics()
	if got := mets.Total(metrics.ReplicaPromotions); got != 1 {
		t.Fatalf("promotions: %d, want 1", got)
	}
	if mets.Total(metrics.ReplicaSends) == 0 {
		t.Fatal("no replica fan-out sends counted")
	}
	if mets.Total(metrics.ReplicaDedupDrops) == 0 {
		t.Fatal("no duplicate drops counted — fan-out copies were not deduped")
	}
	// Zero app-visible recovery: no validate rounds, no app resends.
	if v, r := mets.Total(metrics.Validates), mets.Total(metrics.Resends); v != 0 || r != 0 {
		t.Fatalf("validates=%d resends=%d, want 0/0 (replication must hide the failure)", v, r)
	}
}

// TestReplicationStandbyDeathInvisible: a STANDBY dying must not even
// cause a promotion, let alone an app-visible failure.
func TestReplicationStandbyDeathInvisible(t *testing.T) {
	const laps = 12
	victim := 4 // standby of logical 1
	w, res := runRepl(t, 3, 2, ReplFanout, nil, replRing(laps, victim, 3))
	for phys, rr := range res.Ranks {
		if phys != victim && (rr.Err != nil || rr.Killed) {
			t.Fatalf("phys %d saw the failure: %+v", phys, rr)
		}
	}
	if got := w.Metrics().Total(metrics.ReplicaPromotions); got != 0 {
		t.Fatalf("promotions: %d, want 0 for a standby death", got)
	}
}

// TestReplicationLastReplicaFailStop: when a logical rank's LAST replica
// dies the failure escalates to the ordinary fail-stop path under the
// LOGICAL rank id, and validate_all agrees on it.
func TestReplicationLastReplicaFailStop(t *testing.T) {
	_, res := runRepl(t, 3, 2, ReplFanout, nil, func(w *World, p *Proc) error {
		c := p.World()
		if p.Rank() == 2 {
			p.Die() // both replicas: the logical rank is extinguished
		}
		// Survivors: the receive from logical 2 must fail-stop with the
		// logical id, then everyone agrees on exactly one failure.
		_, _, err := c.Recv(2, 9)
		if !IsRankFailStop(err) {
			return fmt.Errorf("Recv(2): %v, want fail-stop", err)
		}
		if f := FailedRankOf(err); f != 2 {
			return fmt.Errorf("failed rank %d, want logical 2", f)
		}
		n, err := c.ValidateAll()
		if err != nil {
			return fmt.Errorf("ValidateAll: %w", err)
		}
		if n != 1 {
			return fmt.Errorf("agreed failures %d, want 1", n)
		}
		return nil
	})
	for phys, rr := range res.Ranks {
		if phys%3 == 2 {
			if !rr.Killed {
				t.Fatalf("replica %d of logical 2 not killed: %+v", phys, rr)
			}
			continue
		}
		if rr.Err != nil {
			t.Fatalf("phys %d: %v", phys, rr.Err)
		}
	}
}

// TestReplicationChainMode: chain propagation delivers exactly once (the
// primary relays to standbys, duplicates are dropped), and a TAIL
// (standby) death neither promotes nor surfaces.
func TestReplicationChainMode(t *testing.T) {
	for _, carrier := range chainCarriers {
		t.Run(carrier.name, func(t *testing.T) {
			const laps = 12
			victim := 5 // standby of logical 2 (L=3: groups {0,3} {1,4} {2,5})
			w, res := runRepl(t, 3, 2, ReplChain, carrier.opts, replRing(laps, victim, 4))
			for phys, rr := range res.Ranks {
				if phys != victim && (rr.Err != nil || rr.Killed) {
					t.Fatalf("phys %d saw the failure: %+v", phys, rr)
				}
			}
			mets := w.Metrics()
			if got := mets.Total(metrics.ReplicaPromotions); got != 0 {
				t.Fatalf("promotions: %d, want 0 for a tail death", got)
			}
			if mets.Total(metrics.ReplicaSends) == 0 {
				t.Fatal("no chain forwards counted")
			}
		})
	}
}

// TestReplicationSpawnRefillsGroup: with elastic repair enabled, Spawn
// reoccupies a dead replica slot and the replica group regains its
// original degree — restoring the failure budget of the logical rank.
func TestReplicationSpawnRefillsGroup(t *testing.T) {
	const laps = 8
	victim := 2 // standby of logical 0 (L=2, R=2: group {0, 2})
	w, res := runRepl(t, 2, 2, ReplFanout,
		[]Option{WithElastic(ElasticOptions{})},
		func(w *World, p *Proc) error {
			if p.Gen() > 1 {
				// The reincarnated replica joins as a warm standby only: it
				// cannot replay the message history its siblings already
				// consumed, so it simply holds the slot.
				return nil
			}
			if err := replRing(laps, victim, 3)(w, p); err != nil {
				return err
			}
			if p.PhysRank() != 0 {
				return nil
			}
			if err := pollUntil("victim confirmed dead", func() (bool, error) {
				return w.Registry().Confirmed(victim), nil
			}); err != nil {
				return err
			}
			gen, err := w.Spawn(victim)
			if err != nil {
				return fmt.Errorf("Spawn(%d): %w", victim, err)
			}
			if gen != 2 {
				return fmt.Errorf("respawn generation %d, want 2", gen)
			}
			return pollUntil("replica group refilled", func() (bool, error) {
				return len(w.repl.livePhys(0)) == 2, nil
			})
		})
	for phys, rr := range res.Ranks {
		if phys != victim && rr.Err != nil {
			t.Fatalf("phys %d: %v", phys, rr.Err)
		}
	}
	if len(res.Respawns) != 1 || res.Respawns[0].Slot != victim {
		t.Fatalf("respawns: %+v", res.Respawns)
	}
	live := w.repl.livePhys(0)
	if len(live) != 2 || live[0] != 0 || live[1] != victim {
		t.Fatalf("replica group of logical 0 after refill: %v", live)
	}
}

// TestSpawnRacesShrink: World.Spawn and Comm.Shrink racing over the same
// confirmed-dead slot must stay live and coherent — no deadlock, no lost
// agreement, every shrunk communicator's width either excludes the dead
// slot or (when the revive overtook the agreement) still carries it, per
// Shrink's documented shrink-again semantics. Run under -race this
// doubles as the data-race regression for the Spawn/Shrink interplay.
func TestSpawnRacesShrink(t *testing.T) {
	const n = 4
	var mu sync.Mutex
	widths := make(map[int]int)
	_, res := runElastic(t, n, []Option{WithElastic(ElasticOptions{})},
		func(w *World, p *Proc) error {
			c := p.World()
			if p.Gen() > 1 {
				// The reincarnation's collective obligations start at its join
				// fence: a fence of 0 means it is a full member of the very
				// instance the survivors are racing to agree on, so it must
				// enter it in program order; a later fence means that instance
				// is answered reactively and calling again would open a fresh
				// instance nobody else joins.
				c.eng.mu.Lock()
				fence := c.validateSeq
				c.eng.mu.Unlock()
				if fence == 0 {
					if _, err := c.Shrink(); err != nil {
						return fmt.Errorf("reincarnation Shrink: %w", err)
					}
				}
				return nil
			}
			if p.Rank() == 3 {
				p.Die()
			}
			// The racing Spawn un-confirms the slot, so the barrier must also
			// accept the revive's generation bump as proof the death landed.
			if err := pollUntil("slot 3 confirmed or revived", func() (bool, error) {
				return w.Registry().Confirmed(3) || w.Registry().Generation(3) > 1, nil
			}); err != nil {
				return err
			}
			// Rank 0 fires the spawn concurrently with everyone's shrink.
			var spawnErr error
			done := make(chan struct{})
			if p.Rank() == 0 {
				go func() {
					defer close(done)
					if _, err := w.Spawn(3); err != nil && !errors.Is(err, ErrInvalidArg) {
						spawnErr = err
					}
				}()
			} else {
				close(done)
			}
			nc, err := c.Shrink()
			if err != nil {
				return fmt.Errorf("Shrink: %w", err)
			}
			<-done
			if spawnErr != nil {
				return fmt.Errorf("Spawn racing Shrink: %w", spawnErr)
			}
			mu.Lock()
			widths[p.Rank()] = nc.Size()
			mu.Unlock()
			return nil
		})
	requireNoRankErrors(t, res)
	for r, got := range widths {
		if got != n-1 && got != n {
			t.Fatalf("rank %d shrunk to %d members, want %d or %d", r, got, n-1, n)
		}
	}
}

// runReplOpts is runRepl with full control over the replication options
// (refill knobs, mode) instead of just (R, mode).
func runReplOpts(t *testing.T, lsize int, ropts ReplicationOptions, opts []Option, fn func(w *World, p *Proc) error) (*World, *RunResult) {
	t.Helper()
	all := append([]Option{
		WithDeadline(60 * time.Second),
		WithReplication(ropts),
		WithMetrics(metrics.NewWorld(lsize * ropts.R)),
	}, opts...)
	w, err := NewWorld(lsize, all...)
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

// TestChainForwardWindowKill is the tail-ack regression: the primary of a
// logical rank is killed INSIDE the chain forward window — after
// accepting a data frame, before relaying it to its standby — via the
// deterministic HookChainForward placement. Without the sender-side chain
// outbox the relayed frame is simply gone (the sender's ARQ saw the
// primary's link-level ack, the standby never saw the frame) and the ring
// wedges. With it, the promotion re-sends the unconfirmed entry to the
// promoted standby under the same RepSeq, so the fault-unaware ring
// completes exactly once: no drop (every lap's token arrives with the
// right value) and no double-delivery (RepSeq dedup absorbs any copy the
// dying primary did manage to forward).
func TestChainForwardWindowKill(t *testing.T) {
	for _, carrier := range chainCarriers {
		t.Run(carrier.name, func(t *testing.T) {
			const laps = 12
			var fires atomic.Int32
			hook := func(ev HookEvent) Action {
				// Kill the primary of logical 1 immediately before its third
				// standby forward. The promoted standby shares the logical rank,
				// so fire exactly once (Add, not a == comparison on Load).
				if ev.Point == HookChainForward && ev.Rank == 1 && fires.Add(1) == 3 {
					return ActKill
				}
				return ActNone
			}
			opts := append([]Option{WithHook(hook)}, carrier.opts...)
			w, res := runRepl(t, 3, 2, ReplChain, opts, replRing(laps, -1, 0))
			for phys, rr := range res.Ranks {
				if phys == 1 {
					continue // the forward-window victim
				}
				if rr.Err != nil || rr.Killed {
					t.Fatalf("phys %d saw the failure: %+v", phys, rr)
				}
			}
			mets := w.Metrics()
			if got := mets.Total(metrics.ReplicaPromotions); got != 1 {
				t.Fatalf("promotions: %d, want exactly 1", got)
			}
			if got := mets.Total(metrics.ChainResends); got == 0 {
				t.Fatal("no chain resends: the unconfirmed outbox entry was not replayed")
			}
			if mets.Total(metrics.ChainAcks) == 0 {
				t.Fatal("no chain acks counted")
			}
			requireChainOutboxEmpty(t, w)
		})
	}
}

// TestReplicationAutoRefill: with AutoRefill the world itself heals a
// replica group that a detector confirm dropped below R — no app-level
// Spawn anywhere in the rank function. The refilled incarnation joins as
// a warm standby at generation 2 and the group is back at full degree.
func TestReplicationAutoRefill(t *testing.T) {
	for _, mode := range []string{ReplFanout, ReplChain} {
		t.Run(mode, func(t *testing.T) {
			const laps = 8
			victim := 2 // standby of logical 0 (L=2, R=2: group {0, 2})
			w, res := runReplOpts(t, 2,
				ReplicationOptions{R: 2, Mode: mode, AutoRefill: true, RefillBackoff: time.Millisecond},
				nil,
				func(w *World, p *Proc) error {
					if p.Gen() > 1 {
						return nil // warm standby: hold the slot, no history replay
					}
					if err := replRing(laps, victim, 3)(w, p); err != nil {
						return err
					}
					if p.PhysRank() != 0 {
						return nil
					}
					return pollUntil("replica group auto-refilled", func() (bool, error) {
						return len(w.LiveReplicas(0)) == 2 && w.Registry().Generation(victim) == 2, nil
					})
				})
			for phys, rr := range res.Ranks {
				if phys != victim && rr.Err != nil {
					t.Fatalf("phys %d: %v", phys, rr.Err)
				}
			}
			if len(res.Respawns) != 1 || res.Respawns[0].Slot != victim {
				t.Fatalf("respawns: %+v", res.Respawns)
			}
			mets := w.Metrics()
			if got := mets.Total(metrics.ReplicaRefills); got != 1 {
				t.Fatalf("replica_refills: %d, want 1", got)
			}
			live := w.LiveReplicas(0)
			if len(live) != 2 || live[0] != 0 || live[1] != victim {
				t.Fatalf("replica group of logical 0 after refill: %v", live)
			}
		})
	}
}
