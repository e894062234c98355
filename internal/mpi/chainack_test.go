package mpi

import (
	"fmt"
	"math/bits"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/metrics"
	"repro/internal/reliable"
	"repro/internal/transport"
)

// requireChainOutboxEmpty fails if a live engine still holds an
// unconfirmed chain send. (A dead sender keeps whatever it had: nobody
// confirms to a corpse, and nobody re-sends from one.)
func requireChainOutboxEmpty(t *testing.T, w *World) {
	t.Helper()
	for i := 0; i < w.size; i++ {
		e := w.eng(i)
		if e.dead.Load() {
			continue
		}
		e.mu.Lock()
		n := len(e.chainPend)
		e.mu.Unlock()
		if n != 0 {
			t.Fatalf("phys %d: %d chain sends still unconfirmed after the run", i, n)
		}
	}
}

// censusFabric counts the frames that reach the base fabric, by kind.
type censusFabric struct {
	transport.Fabric
	kinds [8]atomic.Int64
}

func (c *censusFabric) Send(pkt *transport.Packet) error {
	c.kinds[pkt.Kind].Add(1)
	return c.Fabric.Send(pkt)
}

// TestChainArqFrameCensus: with the reliability layer a failure-free chain
// send costs data frames and their acks, nothing else. Each of the R
// sender replicas reaches the primary, which forwards to R-1 standbys:
// R*R data frames, R*R acks, and every ack is one receipt confirmation.
func TestChainArqFrameCensus(t *testing.T) {
	const lsize, r, laps = 3, 2, 50
	census := &censusFabric{Fabric: transport.NewLocal()}
	w, res := runRepl(t, lsize, r, ReplChain, []Option{
		WithFabric(census),
		// No frame is lost, so a retransmission could only come from a
		// descheduled goroutine outliving the retry timer; rule it out.
		WithReliability(reliable.Options{RetryBase: time.Minute, RetryMax: time.Minute}),
	}, replRing(laps, -1, 0))
	requireNoRankErrors(t, res)

	const sends = lsize * laps // logical sends: every rank forwards the token once a lap
	for kind, want := range map[transport.Kind]int64{
		transport.KindData:     sends * r * r,
		transport.KindAck:      sends * r * r,
		transport.KindChainAck: 0,
	} {
		if got := census.kinds[kind].Load(); got != want {
			t.Errorf("%s frames: %d, want %d (%d logical sends, R=%d)", kind, got, want, sends, r)
		}
	}
	if got := w.Metrics().Total(metrics.ChainAcks); got != sends*r*r {
		t.Errorf("chain_acks: %d, want %d: one confirmation per acked data frame", got, sends*r*r)
	}
	requireChainOutboxEmpty(t, w)
}

// TestChainOutboxBoundedUnderLoss: under 2% frame loss a confirmation can
// be late by a retransmission, so a sender's outbox holds the sends of
// that interval — a depth set by retry time over lap time, not by how
// long the run is. The bound is some ten times what the interval explains
// on a two-core box and far below the lap count a leak would reach.
func TestChainOutboxBoundedUnderLoss(t *testing.T) {
	laps, bound := 10000, 1000
	if testing.Short() {
		laps = 3000
	}
	var peak atomic.Int64
	ring := replRing(laps, -1, 0)
	w, res := runRepl(t, 3, 2, ReplChain, []Option{
		WithChaos(chaos.NewPlan(7).Default(chaos.Rates{Drop: 0.02})),
		WithReliability(reliable.Options{RetryBase: 500 * time.Microsecond, RetryMax: 4 * time.Millisecond, MaxRetries: 40}),
	}, func(w *World, p *Proc) error {
		stop := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			// Sample this replica's outbox depth while the ring runs.
			defer wg.Done()
			e := w.eng(p.PhysRank())
			for {
				select {
				case <-stop:
					return
				default:
				}
				e.mu.Lock()
				n := int64(len(e.chainPend))
				e.mu.Unlock()
				for old := peak.Load(); n > old && !peak.CompareAndSwap(old, n); old = peak.Load() {
				}
				time.Sleep(50 * time.Microsecond)
			}
		}()
		err := ring(w, p)
		if err == nil {
			// The last confirmations may be a retransmission away.
			err = pollUntil("chain outbox drained", func() (bool, error) {
				e := w.eng(p.PhysRank())
				e.mu.Lock()
				defer e.mu.Unlock()
				return len(e.chainPend) == 0, nil
			})
		}
		close(stop)
		wg.Wait()
		return err
	})
	requireNoRankErrors(t, res)
	if w.Metrics().Total(metrics.FramesDropped) == 0 {
		t.Fatal("chaos dropped nothing: the run did not exercise late confirmations")
	}
	if got := peak.Load(); got > int64(bound) {
		t.Fatalf("outbox peaked at %d entries over %d laps, want <= %d", got, laps, bound)
	}
	t.Logf("outbox peak depth %d over %d laps", peak.Load(), laps)
	requireChainOutboxEmpty(t, w)
}

// TestChainOutboxNeverWaitsOnTheDead is the regression for the three-reads
// bug: a send used to pick its target, its epoch and its wait set from
// three separately locked reads of the group, so a death landing between
// them (after pruneChainAcks had swept the outbox) recorded an entry that
// waited on a corpse forever. Confirmations are swallowed here, so every
// entry stays where it was recorded and can be checked against the final
// membership.
func TestChainOutboxNeverWaitsOnTheDead(t *testing.T) {
	const lsize, r, sendsPerDeath = 8, 8, 100
	w, err := NewWorld(lsize, WithReplication(ReplicationOptions{R: r, Mode: ReplChain}))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.fabric.Start(func(int, *transport.Packet) {}); err != nil {
		t.Fatal(err)
	}
	defer w.fabric.Close()

	var sent atomic.Int64
	done := make(chan struct{})
	go func() {
		// Kill every group's standbys from the tail up, one death per
		// sendsPerDeath sends; the primaries survive.
		defer close(done)
		for i := r - 1; i > 0; i-- {
			for l := 1; l < lsize; l++ {
				for mark := sent.Load(); sent.Load() < mark+sendsPerDeath; {
					time.Sleep(10 * time.Microsecond)
				}
				w.repl.handleDeath(l + i*lsize)
			}
		}
	}()
	sender := w.eng(0)
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
		}
		for l := 1; l < lsize; l++ {
			if err := sender.replSend(l, 0, 0, []byte{1}); err != nil {
				t.Fatalf("replSend(%d): %v", l, err)
			}
			sent.Add(1)
		}
	}

	sender.mu.Lock()
	defer sender.mu.Unlock()
	for k, ent := range sender.chainPend {
		if stale := ent.waiting &^ w.repl.group(k.ldst).mask; stale != 0 {
			t.Fatalf("entry %+v waits on dead replicas %#b of logical %d", k, stale, k.ldst)
		}
	}
}

// TestGroupSnapshotHammer races the lock-free group reads against
// membership changes. Readers must only ever see whole snapshots (mask,
// live slice and primary of the same membership, epochs that never go
// back); the writer checks that every promotion picks the lowest live
// replica.
func TestGroupSnapshotHammer(t *testing.T) {
	const lsize, r, changes = 3, 4, 4000
	w, err := NewWorld(lsize, WithReplication(ReplicationOptions{R: r, Mode: ReplChain}))
	if err != nil {
		t.Fatal(err)
	}
	s := w.repl

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for reader := 0; reader < 4; reader++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var lastEpoch [lsize]uint32
			for {
				select {
				case <-stop:
					return
				default:
				}
				for l := 0; l < lsize; l++ {
					g := s.group(l)
					if err := checkGroupView(s, l, g); err != nil {
						t.Errorf("logical %d: torn snapshot %+v: %v", l, *g, err)
						return
					}
					if g.epoch < lastEpoch[l] {
						t.Errorf("logical %d: epoch went back from %d to %d", l, lastEpoch[l], g.epoch)
						return
					}
					lastEpoch[l] = g.epoch
					// The derived reads, for the race detector's benefit.
					_ = s.isPrimary(l)
					_ = s.primaryPhys(l) < 0 && !s.groupDead(l) && len(s.livePhys(l)) == 0
				}
			}
		}()
	}

	rng := rand.New(rand.NewSource(1))
	for i := 0; i < changes; i++ {
		p := rng.Intn(lsize * r)
		l := p % lsize
		before := *s.group(l)
		if before.mask&s.replicaBit(p) == 0 {
			s.onRevive(p)
			continue
		}
		absorbed := s.handleDeath(p)
		after := s.group(l)
		if absorbed != (len(after.live) > 0) {
			t.Fatalf("death of %d: absorbed=%v with %d survivors", p, absorbed, len(after.live))
		}
		if before.primary == p && absorbed && after.primary != after.live[0] {
			t.Fatalf("death of primary %d promoted %d, want the lowest live replica %d", p, after.primary, after.live[0])
		}
		if before.primary != p && after.primary != before.primary {
			t.Fatalf("death of standby %d moved the primary from %d to %d", p, before.primary, after.primary)
		}
	}
	close(stop)
	wg.Wait()
}

// checkGroupView reports how a snapshot of logical rank l contradicts
// itself, if it does.
func checkGroupView(s *replState, l int, g *groupView) error {
	if bits.OnesCount64(g.mask) != len(g.live) {
		return fmt.Errorf("mask has %d members, live slice %d", bits.OnesCount64(g.mask), len(g.live))
	}
	holdsPrimary := false
	for i, m := range g.live {
		if m%s.lsize != l || g.mask&s.replicaBit(m) == 0 {
			return fmt.Errorf("live member %d is not in the mask", m)
		}
		if i > 0 && m <= g.live[i-1] {
			return fmt.Errorf("live slice out of replica order")
		}
		holdsPrimary = holdsPrimary || m == g.primary
	}
	if len(g.live) == 0 && g.primary != -1 {
		return fmt.Errorf("empty group led by %d", g.primary)
	}
	if len(g.live) > 0 && !holdsPrimary {
		return fmt.Errorf("primary %d is not a live member", g.primary)
	}
	return nil
}
