package mpi

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/trace"
	"repro/internal/transport"
)

// runRepl builds a replicated world of lsize logical ranks at degree r
// and runs fn on every PHYSICAL replica (all replicas of a logical rank
// execute the same function, distinguishable only via PhysRank/Gen).
func runRepl(t *testing.T, lsize, r int, opts []Option, fn func(w *World, p *Proc) error) (*World, *RunResult) {
	t.Helper()
	all := append([]Option{
		WithDeadline(60 * time.Second),
		WithReplication(ReplicationOptions{R: r}),
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
	for _, mode := range []string{"quorum", "fanout"} {
		if _, err := NewWorld(2, WithReplication(ReplicationOptions{R: 2, Mode: mode})); !errors.Is(err, ErrInvalidArg) {
			t.Fatalf("mode %q accepted: %v", mode, err)
		}
	}

	seenPhys := make(map[int]bool)
	var mu sync.Mutex
	w, res := runRepl(t, 3, 2, nil, func(w *World, p *Proc) error {
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
	w, res := runRepl(t, 3, 2, nil, replRing(laps, victim, 5))

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
		t.Fatal("no standby copies counted")
	}
	// Zero app-visible recovery: no validate rounds, no app resends.
	if v, r := mets.Total(metrics.Validates), mets.Total(metrics.Resends); v != 0 || r != 0 {
		t.Fatalf("validates=%d resends=%d, want 0/0 (replication must hide the failure)", v, r)
	}
	// The promoted standby took over the dead primary's mirror and every
	// live replica confirmed every message.
	requireChainOutboxEmpty(t, w)
}

// TestReplicationStandbyDeathInvisible: a STANDBY dying must not even
// cause a promotion, let alone an app-visible failure.
func TestReplicationStandbyDeathInvisible(t *testing.T) {
	const laps = 12
	victim := 4 // standby of logical 1
	w, res := runRepl(t, 3, 2, nil, replRing(laps, victim, 3))
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
	_, res := runRepl(t, 3, 2, nil, func(w *World, p *Proc) error {
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

// TestReplicationChainMode: mirror pairing delivers exactly once (replica
// i sends to replica i), and a standby death neither promotes nor
// surfaces. The replicas confirm receipt with their ARQ acks, so every
// outbox drains.
func TestReplicationChainMode(t *testing.T) {
	t.Run("arq", func(t *testing.T) {
		const laps = 12
		victim := 5 // standby of logical 2 (L=3: groups {0,3} {1,4} {2,5})
		w, res := runRepl(t, 3, 2, nil, replRing(laps, victim, 4))
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
			t.Fatal("no standby copies counted")
		}
		if w.reliable == nil || mets.Total(metrics.ChainAcks) == 0 {
			t.Fatal("replication built no ARQ layer, or no ack confirmed a replica's receipt")
		}
		requireChainOutboxEmpty(t, w)
	})
}

// TestReplicationSpawnRefillsGroup: with elastic repair enabled, Spawn
// reoccupies a dead replica slot and the replica group regains its
// original degree — restoring the failure budget of the logical rank.
func TestReplicationSpawnRefillsGroup(t *testing.T) {
	const laps = 8
	victim := 2 // standby of logical 0 (L=2, R=2: group {0, 2})
	w, res := runRepl(t, 2, 2,
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
// (refill knobs) instead of just R.
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

// lossyLink drops the data frames of one physical link once armed: the
// sender's ARQ keeps them unacknowledged, in flight, until the link is
// purged.
type lossyLink struct {
	transport.Fabric
	src, dst int
	armed    atomic.Bool
}

func (l *lossyLink) Send(pkt *transport.Packet) error {
	if l.armed.Load() && pkt.Kind == transport.KindData && pkt.Src == l.src && pkt.Dst == l.dst {
		return nil
	}
	return l.Fabric.Send(pkt)
}

// TestSenderKillReplaysInFlight is the tail-ack regression: the primary of
// logical 1 sends a lap's token while its copy to its mirror (the primary
// of logical 2) is lost on the wire, waits until its standby has sent the
// same lap, and dies with the copy still in flight: the ARQ retransmits it
// until the death purges the link. The promoted standby takes the orphaned
// replica over and replays the outbox entry that replica never confirmed,
// under the same RepSeq, so the fault-unaware ring completes exactly once
// on every surviving replica: every lap's token arrives with the right
// value, and no copy is delivered twice.
func TestSenderKillReplaysInFlight(t *testing.T) {
	const lsize, laps, killLap = 3, 12, 4
	const victim, sibling = 1, 1 + lsize
	link := &lossyLink{Fabric: transport.NewLocal(), src: victim, dst: victim + 1}
	ring := replRing(laps, -1, 0)
	w, res := runRepl(t, lsize, 2, []Option{WithFabric(link)}, func(w *World, p *Proc) error {
		if p.PhysRank() != victim {
			return ring(w, p)
		}
		c := p.World()
		for lap := 0; lap < laps; lap++ {
			pl, _, err := c.Recv(0, lap)
			if err != nil {
				return err
			}
			link.armed.Store(lap == killLap)
			if err := c.Send(2, lap, pl); err != nil {
				return err
			}
			if lap == killLap {
				if err := pollUntil("standby sent the lap", func() (bool, error) {
					return w.Metrics().Get(sibling, metrics.Sends) > killLap, nil
				}); err != nil {
					return err
				}
				p.Die()
			}
		}
		return nil
	})
	for phys, rr := range res.Ranks {
		if phys != victim && (rr.Err != nil || rr.Killed) {
			t.Fatalf("phys %d saw the failure: %+v", phys, rr)
		}
	}
	if !res.Ranks[victim].Killed {
		t.Fatalf("victim %d not killed: %+v", victim, res.Ranks[victim])
	}
	mets := w.Metrics()
	if got := mets.Total(metrics.ReplicaPromotions); got != 1 {
		t.Fatalf("promotions: %d, want exactly 1", got)
	}
	if got := mets.Total(metrics.ChainResends); got == 0 {
		t.Fatal("no chain resends: the unconfirmed outbox entry was not replayed")
	}
	requireChainOutboxEmpty(t, w)
}

// TestReplicationAutoRefill: with AutoRefill the world itself heals a
// replica group that a detector confirm dropped below R — no app-level
// Spawn anywhere in the rank function. The refilled incarnation joins as
// a warm standby at generation 2 and the group is back at full degree.
func TestReplicationAutoRefill(t *testing.T) {
	t.Run("chain", func(t *testing.T) {
		const laps = 8
		victim := 2 // standby of logical 0 (L=2, R=2: group {0, 2})
		w, res := runReplOpts(t, 2,
			ReplicationOptions{R: 2, AutoRefill: true, RefillBackoff: time.Millisecond},
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

// TestRefillStopsAtTeardown: a refill still waiting out its delay or
// backoff when Run returns must not outlive the run. The victim dies at
// once and every other replica returns, so Run ends before the refill's
// first attempt, and that attempt would be refused anyway.
func TestRefillStopsAtTeardown(t *testing.T) {
	before := runtime.NumGoroutine()
	_, res := runReplOpts(t, 2,
		ReplicationOptions{R: 2, AutoRefill: true, RefillDelay: 5 * time.Millisecond},
		nil,
		func(w *World, p *Proc) error {
			if p.PhysRank() == 3 {
				p.Die()
			}
			return nil
		})
	if !res.Ranks[3].Killed {
		t.Fatalf("victim 3 not killed: %+v", res.Ranks[3])
	}
	for end := time.Now().Add(50 * time.Millisecond); runtime.NumGoroutine() > before && time.Now().Before(end); {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		buf := make([]byte, 1<<16)
		t.Fatalf("%d goroutines 50ms after Run, %d before the world:\n%s", n, before, buf[:runtime.Stack(buf, true)])
	}
}

// unchangedFabric is the base fabric of a world under test: it checks that
// delivery leaves every data packet it carries field for field as it was
// handed over. Below the reliability layer that packet is the one the ARQ
// keeps for retransmission.
type unchangedFabric struct {
	transport.Fabric
	changed atomic.Int64
	first   atomic.Value
}

func (u *unchangedFabric) Send(pkt *transport.Packet) error {
	if pkt.Kind != transport.KindData {
		return u.Fabric.Send(pkt)
	}
	before := *pkt
	err := u.Fabric.Send(pkt) // Local: delivered by the time it returns
	after := *pkt
	same := len(after.Payload) == len(before.Payload) &&
		(len(before.Payload) == 0 || &after.Payload[0] == &before.Payload[0])
	before.Payload, after.Payload = nil, nil
	if !same || !reflect.DeepEqual(after, before) {
		if u.changed.Add(1) == 1 {
			u.first.Store(fmt.Sprintf("sent %+v, after delivery %+v", before, after))
		}
	}
	return err
}

// TestReplicatedDeliveryKeepsBothIdentities: in a replicated world over
// ARQ the receiving side speaks logical ranks — Status.Source of a directed
// and of an AnySource receive, posted before or after the frame arrived,
// Iprobe's status and the trace's Delivered event — while the packet below
// keeps the physical replica that sent it: the ack retires the frame at
// that replica (its outbox drains through OnAckRetire's physical Src) and
// delivery changes no field of it. Both replicas of logical 1 run the same
// program, as the replication contract requires; replica 1 of logical 0
// hears from replica 1 of logical 1, physical 4, never from slot 1.
func TestReplicatedDeliveryKeepsBothIdentities(t *testing.T) {
	const lsize, r = 3, 2
	base := &unchangedFabric{Fabric: transport.NewLocal()}
	rec := trace.New(0)
	w, res := runRepl(t, lsize, r, []Option{WithFabric(base), WithTracer(rec)}, func(w *World, p *Proc) error {
		c := p.World()
		want := func(what string, st Status) error {
			if st.Source != 1 {
				return fmt.Errorf("phys %d: %s reports source %d, want logical 1", p.PhysRank(), what, st.Source)
			}
			return nil
		}
		switch p.Rank() {
		case 1:
			for tag := 10; tag <= 11; tag++ {
				if err := c.Send(0, tag, []byte{byte(tag)}); err != nil {
					return err
				}
			}
			if _, _, err := c.Recv(0, 20); err != nil { // the receiver posted tag 12
				return err
			}
			return c.Send(0, 12, []byte{12})
		case 0:
			posted := c.Irecv(AnySource, 12)
			for {
				ok, st, err := c.Iprobe(AnySource, 10)
				if err != nil {
					return err
				}
				if ok {
					if err := want("Iprobe", st); err != nil {
						return err
					}
					break
				}
				time.Sleep(100 * time.Microsecond)
			}
			if _, st, err := c.Recv(AnySource, 10); err != nil {
				return err
			} else if err := want("AnySource Recv of a queued message", st); err != nil {
				return err
			}
			if _, st, err := c.Recv(1, 11); err != nil {
				return err
			} else if err := want("directed Recv", st); err != nil {
				return err
			}
			if err := c.Send(1, 20, nil); err != nil {
				return err
			}
			st, err := posted.Wait()
			if err != nil {
				return err
			}
			return want("AnySource Irecv posted before the send", st)
		}
		return nil
	})
	requireNoRankErrors(t, res)
	if n := base.changed.Load(); n != 0 {
		t.Fatalf("delivery changed %d data packets; first: %v", n, base.first.Load())
	}
	requireChainOutboxEmpty(t, w)
	delivered := 0
	for _, ev := range rec.Events() {
		if ev.Kind != trace.Delivered {
			continue
		}
		if ev.Peer >= lsize {
			t.Errorf("phys %d: Delivered event names physical source %d", ev.Rank, ev.Peer)
		}
		if ev.Rank == lsize && ev.Tag >= 10 && ev.Tag <= 12 {
			if ev.Peer != 1 {
				t.Errorf("phys %d: tag %d Delivered from %d, want logical 1", ev.Rank, ev.Tag, ev.Peer)
			}
			delivered++
		}
	}
	if delivered != 3 { // replica 1 of logical 0 takes tags 10 to 12 from physical 4
		t.Fatalf("%d Delivered events of tags 10 to 12 at physical %d, want 3", delivered, lsize)
	}
}
