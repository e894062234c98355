package mpi_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"

	"repro/internal/aliastest"
	"repro/internal/chaos"
	"repro/internal/mpi"
	"repro/internal/reliable"
	"repro/internal/transport"
)

// handoffPayload returns the i-th message of TestHandedOffPayloadsNeverAlias:
// 8 to 64 bytes, so it spans several payload size classes, whose every
// byte is a function of i and its offset.
func handoffPayload(i int) []byte {
	b := make([]byte, 8+i*7%57)
	binary.LittleEndian.PutUint64(b, uint64(i))
	for j := 8; j < len(b); j++ {
		b[j] = byte(i*31 + j*7)
	}
	return b
}

// The tags of one round, one per path a payload takes at the receiver.
const (
	tagPosted    = iota + 1 // posted before it arrives; released like the ring's
	tagProbed               // unexpected, seen by Iprobe, then released
	tagRecv                 // Recv: the caller keeps the bytes
	tagStash                // posted, then retired with CancelOrPayload: kept
	tagKept                 // posted, waited on and freed: kept
	tagGo                   // the receiver's go-ahead for the round
	handoffPaths = tagKept
)

// handoffBody has rank 2k send rank 2k+1 rounds of handoffPaths messages,
// every payload distinct, each received through a different path.
// Released payloads go back to the pools, and the next sends take them
// again, so a kept payload that aliases a pooled buffer, or a packet
// recycled while still queued, is overwritten by a later message:
// every payload is checked when it arrives, and every kept one again
// at the end.
func handoffBody(rounds int) func(p *mpi.Proc) error {
	return func(p *mpi.Proc) error {
		c := p.World()
		pair := p.Rank() / 2 * 2
		base := pair * rounds * handoffPaths
		if p.Rank() == pair {
			for r := 0; r < rounds; r++ {
				if _, _, err := c.Recv(pair+1, tagGo); err != nil {
					return err
				}
				// The unexpected ones first: once the posted one has
				// arrived, they are queued (Local delivers in Send, in order).
				for _, tag := range []int{tagProbed, tagRecv, tagPosted, tagStash, tagKept} {
					if err := c.Send(pair+1, tag, handoffPayload(base+r*handoffPaths+tag-1)); err != nil {
						return err
					}
				}
			}
			return nil
		}
		check := func(pl []byte, st mpi.Status, tag, i int) error {
			if st.Tag != tag || st.Len != len(pl) || !bytes.Equal(pl, handoffPayload(i)) {
				return fmt.Errorf("message %d (tag %d): got tag %d len %d payload %x", i, tag, st.Tag, st.Len, pl)
			}
			return nil
		}
		type keptMsg struct {
			i  int
			pl []byte
		}
		var kept []keptMsg
		src := pair
		for r := 0; r < rounds; r++ {
			at := func(tag int) int { return base + r*handoffPaths + tag - 1 }
			posted, stash, keep := c.Irecv(src, tagPosted), c.Irecv(src, tagStash), c.Irecv(src, tagKept)
			if err := c.Send(src, tagGo, nil); err != nil {
				return err
			}
			st, err := posted.Wait()
			if err != nil {
				return err
			}
			runtime.Gosched() // let a buffer handed back too early be taken
			if err := check(posted.Payload(), st, tagPosted, at(tagPosted)); err != nil {
				return fmt.Errorf("posted: %w", err)
			}
			posted.Release()

			ok, st, err := c.Iprobe(src, tagProbed)
			if err != nil || !ok || st.Tag != tagProbed || st.Len != len(handoffPayload(at(tagProbed))) {
				return fmt.Errorf("round %d: Iprobe = %v %+v %v, want the queued message", r, ok, st, err)
			}
			probed := c.Irecv(src, tagProbed)
			if st, err = probed.Wait(); err != nil {
				return err
			}
			if err := check(probed.Payload(), st, tagProbed, at(tagProbed)); err != nil {
				return fmt.Errorf("unexpected: %w", err)
			}
			probed.Release()

			pl, st, err := c.Recv(src, tagRecv)
			if err != nil {
				return err
			}
			if err := check(pl, st, tagRecv, at(tagRecv)); err != nil {
				return fmt.Errorf("Recv: %w", err)
			}
			kept = append(kept, keptMsg{at(tagRecv), pl})

			for !stash.Done() {
				runtime.Gosched()
			}
			pl, ok = stash.CancelOrPayload()
			stash.Free()
			if !ok {
				return fmt.Errorf("round %d: CancelOrPayload lost a completed receive", r)
			}
			kept = append(kept, keptMsg{at(tagStash), pl})

			if st, err = keep.Wait(); err != nil {
				return err
			}
			kept = append(kept, keptMsg{at(tagKept), keep.Payload()})
			keep.Free()
		}
		for _, k := range kept {
			if !bytes.Equal(k.pl, handoffPayload(k.i)) {
				return fmt.Errorf("kept message %d changed after delivery: %x", k.i, k.pl)
			}
		}
		return nil
	}
}

// peekFabric wraps a fabric without declaring transport.HandsOff, and
// reads every packet after the inner Send returned: the sender must
// hand such a wrapper an unmarked packet that nobody recycles.
type peekFabric struct {
	transport.Fabric
	bad atomic.Int64
}

func (f *peekFabric) Send(pkt *transport.Packet) error {
	want, wantPayload := *pkt, bytes.Clone(pkt.Payload)
	err := f.Fabric.Send(pkt)
	got := *pkt
	want.Payload, got.Payload = nil, nil
	if !reflect.DeepEqual(got, want) || !bytes.Equal(pkt.Payload, wantPayload) || pkt.Pooled() {
		f.bad.Add(1)
	}
	return err
}

// TestHandedOffPayloadsNeverAlias runs 10^4 distinct payloads between two
// pairs of ranks on the bare Local fabric, where every data packet is
// built from the packet and payload pools and handed to the receiver,
// which recycles the packet and, on the ring-style paths, the payload:
// posted and unexpected receives released like the ring's, Recv, a
// CancelOrPayload stash, a posted receive whose bytes are kept, and
// Iprobe. Every payload must arrive intact, and every kept one must stay
// intact to the end. The wrapped case puts a fabric that reads each
// packet after its inner Send around Local: it must see the packet as it
// was sent, and unmarked. The consumer cases run the internal consumers
// of a read (aliastest.Consumers): results of Recv, Sendrecv, Bcast and
// two Allreduces, one of whose Op returns the received operand, kept to
// the end, then 10^3 ValidateAll instances. They run on Local and on TCP,
// and on Local under the reliability layer, which hands each frame down
// as a pooled copy the receiver recycles and keeps a pooled copy of its
// own of a frame it may retransmit: alone, over chaos that duplicates
// frames (a pooled twin) and corrupts them (a pooled copy with flipped
// bits, rejected and retransmitted), and under two mirror-paired replicas
// per rank.
func TestHandedOffPayloadsNeverAlias(t *testing.T) {
	const rounds = 1000 // 2 pairs x 1000 rounds x 5 paths = 10^4 payloads
	run := func(t *testing.T, n int, fab transport.Fabric, body func(p *mpi.Proc) error, layers ...mpi.Option) {
		t.Helper()
		if err := aliastest.Run(n, fab, body, layers...); err != nil {
			t.Fatal(err)
		}
	}
	t.Run("local", func(t *testing.T) {
		run(t, 4, transport.NewLocal(), handoffBody(rounds))
	})
	t.Run("wrapped-local", func(t *testing.T) {
		fab := &peekFabric{Fabric: transport.NewLocal()}
		run(t, 4, fab, handoffBody(rounds))
		if n := fab.bad.Load(); n != 0 {
			t.Fatalf("%d packets changed, or were marked, under a wrapper that reads them after Send", n)
		}
	})
	t.Run("consumers/local", func(t *testing.T) {
		run(t, 6, transport.NewLocal(), aliastest.Consumers(200, 1000))
	})
	t.Run("consumers/tcp", func(t *testing.T) {
		run(t, 6, transport.NewTCP(6), aliastest.Consumers(200, 1000))
	})
	t.Run("consumers/local-arq", func(t *testing.T) {
		run(t, 6, transport.NewLocal(), aliastest.Consumers(200, 1000), mpi.WithReliability(reliable.Options{}))
	})
	t.Run("consumers/local-arq-chaos", func(t *testing.T) {
		plan := chaos.NewPlan(5).Default(chaos.Rates{Dup: 0.05, Corrupt: 0.02})
		run(t, 6, transport.NewLocal(), aliastest.Consumers(200, 1000), mpi.WithChaos(plan))
		if plan.Count(chaos.EvDup) == 0 || plan.Count(chaos.EvCorrupt) == 0 {
			t.Fatalf("chaos injected %d duplicates and %d corruptions, want some of each",
				plan.Count(chaos.EvDup), plan.Count(chaos.EvCorrupt))
		}
	})
	t.Run("consumers/local-r2", func(t *testing.T) {
		run(t, 6, transport.NewLocal(), aliastest.Consumers(200, 1000), mpi.WithReplication(mpi.ReplicationOptions{R: 2}))
	})
}
