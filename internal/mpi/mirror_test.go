package mpi

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/transport"
)

// TestReplayKeepsChannelOrder: one logical sender streams 10³ back-to-back
// Sends on one channel to a replicated receiver, reusing one buffer, and
// one of its replicas dies right after its m-th send. The replica planes
// run at their own pace, so the survivor may be ahead of the victim (the
// replay carries what the orphaned receiver replica never got) or behind
// it (its own later sends reach the orphan, which drops what it holds).
// Either way every live receiver replica gets messages 1 to 10³ exactly
// once, in order: a send that overtook the replay would make the
// receiver's dedup drop the replayed messages, and an outbox entry that
// kept the caller's buffer would replay what the caller wrote into it
// later. Over a lossy network the victim also dies with copies acked ahead
// of a gap: counting those as confirmed would lose them with the purge.
func TestReplayKeepsChannelOrder(t *testing.T) {
	const n = 1000
	for _, lossy := range []bool{false, true} {
		for _, victim := range []int{0, 2} { // L=2, R=2: the sender group is {0, 2}
			for _, at := range []int{1, 100, 500, n - 1} {
				role := map[int]string{0: "primary", 2: "standby"}[victim]
				var opts []Option
				if lossy {
					opts = []Option{WithChaos(chaos.NewPlan(int64(at)).Default(chaos.Rates{Drop: .05, Dup: .05, Corrupt: .01}))}
				}
				name := fmt.Sprintf("%s/%s/at-%d", map[bool]string{false: "clean", true: "lossy"}[lossy], role, at)
				t.Run(name, func(t *testing.T) { replayOrder(t, opts, victim, at, n) })
			}
		}
	}
}

// replayOrder runs one case of TestReplayKeepsChannelOrder: sender replica
// victim dies right after its at-th of n sends.
func replayOrder(t *testing.T, opts []Option, victim, at, n int) {
	var mu sync.Mutex
	got := make(map[int][]int)
	w, res := runRepl(t, 2, 2, opts, func(w *World, p *Proc) error {
		c := p.World()
		if p.Rank() == 0 {
			buf := make([]byte, 4)
			for i := 1; i <= n; i++ {
				binary.LittleEndian.PutUint32(buf, uint32(i))
				if err := c.Send(1, 7, buf); err != nil {
					return err
				}
				if p.PhysRank() == victim && i == at {
					p.Die()
				}
			}
			// Over a lossy network the last confirmations may be a
			// retransmission away.
			e := w.eng(p.PhysRank())
			return pollUntil("outbox drained", func() (bool, error) { return e.rep.queued.Load() == 0, nil })
		}
		seq := make([]int, 0, n)
		for range n {
			pl, _, err := c.Recv(0, 7)
			if err != nil {
				return err
			}
			seq = append(seq, int(binary.LittleEndian.Uint32(pl)))
		}
		mu.Lock()
		got[p.PhysRank()] = seq
		mu.Unlock()
		return nil
	})
	for phys, rr := range res.Ranks {
		if phys != victim && (rr.Err != nil || rr.Killed) {
			t.Fatalf("phys %d saw the failure: %+v", phys, rr)
		}
	}
	for _, phys := range []int{1, 3} {
		seq := got[phys]
		for i, v := range seq {
			if v != i+1 {
				t.Fatalf("receiver replica %d: message %d is %d, want %d", phys, i+1, v, i+1)
			}
		}
		if len(seq) != n {
			t.Fatalf("receiver replica %d got %d messages, want %d", phys, len(seq), n)
		}
	}
	requireChainOutboxEmpty(t, w)
}

// TestWildcardPinsOneOrder: logical ranks 1 and 2 race 10³ messages each
// into logical 0's AnySource loop. Mirror pairing hands every receiver
// replica the two streams in its own interleaving; the decider's pins make
// every replica take the same source sequence, also when the receiver's
// primary dies mid-loop with a receive matched but not yet reported, and
// its standby resolves the rest itself. At R=3 the primary dies while the
// pin of that receive has reached its first standby and is lost on the way
// to the second: the first, now the decider, must pass it on. Each
// source's messages still arrive in the order they were sent.
func TestWildcardPinsOneOrder(t *testing.T) {
	for _, r := range []int{2, 3} {
		for _, kill := range []bool{false, true} {
			t.Run(fmt.Sprintf("R%d/%s", r, map[bool]string{false: "clean", true: "primary-killed"}[kill]), func(t *testing.T) {
				wildcardOrder(t, r, kill)
			})
		}
	}
	t.Run("cancel", wildcardCancel)
}

// pinDropFabric loses every pin batch from src to dst once drop is set.
type pinDropFabric struct {
	transport.Fabric
	src, dst int
	drop     atomic.Bool
}

func (f *pinDropFabric) Send(pkt *transport.Packet) error {
	if f.drop.Load() && pkt.Src == f.src && pkt.Dst == f.dst && pkt.Kind == transport.KindState && pkt.Context == ctxPin {
		return nil
	}
	return f.Fabric.Send(pkt)
}

// wildcardOrder runs one case of TestWildcardPinsOneOrder at replication
// degree r over three logical ranks.
func wildcardOrder(t *testing.T, r int, kill bool) {
	const n, lsize, victim = 1000, 3, 0
	var mu sync.Mutex
	got := make(map[int][]int)
	record := func(phys int, srcs []int) {
		mu.Lock()
		got[phys] = srcs
		mu.Unlock()
	}
	last := victim + (r-1)*lsize
	fab := &pinDropFabric{Fabric: transport.NewLocal(), src: victim, dst: last}
	_, res := runRepl(t, lsize, r, []Option{WithFabric(fab)}, func(w *World, p *Proc) error {
		c := p.World()
		if p.Rank() != 0 {
			buf := make([]byte, 4)
			for i := range n {
				binary.LittleEndian.PutUint32(buf, uint32(i))
				if err := c.Send(0, 5, buf); err != nil {
					return err
				}
			}
			return nil
		}
		killNow := kill && p.PhysRank() == victim
		srcs := make([]int, 0, 2*n)
		next := map[int]int{1: 0, 2: 0}
		for i := range 2 * n {
			if killNow && i == n && r > 2 {
				fab.drop.Store(true)
			}
			req := c.Irecv(AnySource, 5)
			if killNow && i == n {
				// Matched, its pin on the way (at R=3, held by the first
				// standby, lost to the second), never reported.
				e := w.eng(victim)
				if err := pollUntil("pin under way", func() (bool, error) {
					e.mu.Lock()
					defer e.mu.Unlock()
					return req.done && (r == 2 || e.rep.pinAwait == last), nil
				}); err != nil {
					return err
				}
				record(victim, srcs)
				p.Die()
			}
			st, err := req.Wait()
			if err != nil {
				return err
			}
			pl := req.Payload()
			if v := int(binary.LittleEndian.Uint32(pl)); v != next[st.Source] {
				return fmt.Errorf("phys %d: message %d from %d, want %d", p.PhysRank(), v, st.Source, next[st.Source])
			}
			next[st.Source]++
			srcs = append(srcs, st.Source)
		}
		record(p.PhysRank(), srcs)
		return nil
	})
	for phys, rr := range res.Ranks {
		if (!kill || phys != victim) && (rr.Err != nil || rr.Killed) {
			t.Fatalf("phys %d saw the failure: %+v", phys, rr)
		}
	}
	want := got[victim+lsize]
	if len(want) != 2*n {
		t.Fatalf("replica 1 took %d messages, want %d", len(want), 2*n)
	}
	for i := 0; i < r; i++ {
		phys := victim + i*lsize
		srcs := got[phys]
		if n := map[bool]int{false: 2 * n, true: n}[kill && phys == victim]; len(srcs) != n {
			t.Fatalf("phys %d took %d messages, want %d", phys, len(srcs), n)
		}
		for k := range srcs {
			if srcs[k] != want[k] {
				t.Fatalf("wildcard receive %d: phys %d took source %d, phys %d took %d", k+1, phys, srcs[k], victim+lsize, want[k])
			}
		}
	}
}

// wildcardCancel: logical 0 posts an AnySource receive and cancels it. Its
// primary cancels before any message is there; its standby cancels once
// the message is already queued on it. The standby must not take it: both
// replicas report the receive cancelled, and the next AnySource receive
// takes the message on both.
func wildcardCancel(t *testing.T) {
	cancelled := make(chan struct{})
	var mu sync.Mutex
	got := make(map[int]string)
	_, res := runRepl(t, 2, 2, nil, func(w *World, p *Proc) error {
		c := p.World()
		if p.Rank() == 1 {
			if p.PhysRank() == 1 {
				<-cancelled // the primary's message comes after the primary's cancel
			}
			return c.Send(0, 5, []byte{42})
		}
		if p.PhysRank() == 2 {
			if err := pollUntil("message queued", func() (bool, error) {
				ok, _, err := c.Iprobe(AnySource, 5)
				return ok, err
			}); err != nil {
				return err
			}
		}
		req := c.Irecv(AnySource, 5)
		pl, took := req.CancelOrPayload()
		if p.PhysRank() == 0 {
			close(cancelled)
		}
		next, _, err := c.Recv(AnySource, 5)
		if err != nil {
			return err
		}
		mu.Lock()
		got[p.PhysRank()] = fmt.Sprintf("cancel took %v %v, next %v", took, pl, next)
		mu.Unlock()
		return nil
	})
	for phys, rr := range res.Ranks {
		if rr.Err != nil || rr.Killed {
			t.Fatalf("phys %d: %+v", phys, rr)
		}
	}
	if want := "cancel took false [], next [42]"; got[0] != want || got[2] != want {
		t.Fatalf("primary: %s; standby: %s; want %s on both", got[0], got[2], want)
	}
}

// TestWildcardWaitAcrossOutboxWindow: logical 0 posts an AnySource receive,
// makes 300 replicated sends (more than the outbox window) to logical 1,
// which answers only after receiving them all, and then waits. A standby
// that blocked in Irecv until its pin came would send nothing; its
// primary's outbox, waiting on the confirmations of the standby's mirror,
// would fill, and the two would wait for each other.
func TestWildcardWaitAcrossOutboxWindow(t *testing.T) {
	const sends = 300
	_, res := runRepl(t, 2, 2, []Option{WithDeadline(20 * time.Second)}, func(w *World, p *Proc) error {
		c := p.World()
		if p.Rank() == 1 {
			for range sends {
				if _, _, err := c.Recv(0, 7); err != nil {
					return err
				}
			}
			return c.Send(0, 9, []byte{1})
		}
		req := c.Irecv(AnySource, 9)
		for range sends {
			if err := c.Send(1, 7, []byte{0}); err != nil {
				return err
			}
		}
		st, err := req.Wait()
		if err == nil && st.Source != 1 {
			err = fmt.Errorf("answer from %d, want 1", st.Source)
		}
		return err
	})
	for phys, rr := range res.Ranks {
		if rr.Err != nil || rr.Killed {
			t.Fatalf("phys %d: %+v", phys, rr)
		}
	}
}
