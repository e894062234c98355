package mpi

import (
	"fmt"
	"testing"

	"repro/internal/transport"
)

// Microbenchmarks for the matching core, run head-to-head against the
// linear-scan reference (matchindex_test.go) that transcribes the
// pre-index engine. The workload is the acceptance shape from the PR
// issue: keys sources × depth posted receives each, matched in steady
// state (every match is immediately reposted so the queue stays deep).
//
// Representative results (Linux, go1.24, -benchtime 1s) are recorded in
// EXPERIMENTS.md E17 alongside the end-to-end large-N runs.

var benchQueueShapes = []struct{ keys, depth int }{
	{16, 8},
	{256, 64},
	{1024, 64},
	{4096, 64},
}

// fillPosted posts keys×depth exact receives in per-source blocks, the
// worst case for a linear scan matching the last source.
func fillPosted(add func(*Request), keys, depth int) []*Request {
	reqs := make([]*Request, 0, keys*depth)
	for s := 0; s < keys; s++ {
		for d := 0; d < depth; d++ {
			r := &Request{srcWorld: s, tag: 0, ctx: 0}
			add(r)
			reqs = append(reqs, r)
		}
	}
	return reqs
}

func BenchmarkPostedMatchIndexed(b *testing.B) {
	for _, shape := range benchQueueShapes {
		b.Run(fmt.Sprintf("keys=%d/depth=%d", shape.keys, shape.depth), func(b *testing.B) {
			ix := newPostedIndex()
			fillPosted(ix.add, shape.keys, shape.depth)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				src := i % shape.keys
				r := ix.match(0, src, 0)
				if r == nil {
					b.Fatal("indexed match returned nil")
				}
				ix.add(r)
			}
		})
	}
}

func BenchmarkPostedMatchLinear(b *testing.B) {
	for _, shape := range benchQueueShapes {
		b.Run(fmt.Sprintf("keys=%d/depth=%d", shape.keys, shape.depth), func(b *testing.B) {
			ref := &linearPosted{}
			fillPosted(ref.add, shape.keys, shape.depth)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				src := i % shape.keys
				r := ref.match(0, src, 0)
				if r == nil {
					b.Fatal("linear match returned nil")
				}
				ref.add(r)
			}
		})
	}
}

// fillUnexpected queues keys×depth packets in per-source blocks.
func fillUnexpected(add func(*transport.Packet, int), keys, depth int) {
	for s := 0; s < keys; s++ {
		for d := 0; d < depth; d++ {
			add(&transport.Packet{Src: s, Tag: 0, Context: 0}, s)
		}
	}
}

func BenchmarkUnexpectedTakeIndexed(b *testing.B) {
	for _, shape := range benchQueueShapes {
		b.Run(fmt.Sprintf("keys=%d/depth=%d", shape.keys, shape.depth), func(b *testing.B) {
			ix := newUnexpectedIndex()
			fillUnexpected(ix.add, shape.keys, shape.depth)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				src := i % shape.keys
				pkt, _ := ix.take(src, 0, 0)
				if pkt == nil {
					b.Fatal("indexed take returned nil")
				}
				ix.add(pkt, src)
			}
		})
	}
}

func BenchmarkUnexpectedTakeLinear(b *testing.B) {
	for _, shape := range benchQueueShapes {
		b.Run(fmt.Sprintf("keys=%d/depth=%d", shape.keys, shape.depth), func(b *testing.B) {
			ref := &linearUnexpected{}
			fillUnexpected(ref.add, shape.keys, shape.depth)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				src := i % shape.keys
				pkt, _ := ref.take(src, 0, 0)
				if pkt == nil {
					b.Fatal("linear take returned nil")
				}
				ref.add(pkt, src)
			}
		})
	}
}

// BenchmarkWaitanyFanIn measures Waitany over width pending receives when
// one completes: with per-request signaling only the completed request's
// waiter channel fires; the pre-index engine broadcast to every blocked
// rank on every delivery.
func BenchmarkWaitanyFanIn(b *testing.B) {
	for _, width := range []int{4, 64} {
		b.Run(fmt.Sprintf("width=%d", width), func(b *testing.B) {
			w, err := NewWorld(2)
			if err != nil {
				b.Fatal(err)
			}
			_, err = w.Run(func(p *Proc) error {
				c := p.World()
				if p.Rank() == 1 {
					for i := 0; i < b.N; i++ {
						if err := c.Send(0, width-1, nil); err != nil {
							return err
						}
						if _, _, err := c.Recv(0, 0); err != nil { // ack: lockstep
							return err
						}
					}
					return nil
				}
				reqs := make([]*Request, width)
				for t := 0; t < width; t++ {
					reqs[t] = c.Irecv(1, t)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					idx, _, err := Waitany(reqs...)
					if err != nil {
						return err
					}
					reqs[idx].Free()
					reqs[idx] = c.Irecv(1, width-1)
					if err := c.Send(1, 0, nil); err != nil {
						return err
					}
				}
				b.StopTimer()
				for _, r := range reqs {
					r.Cancel()
				}
				return nil
			})
			if err != nil {
				b.Fatal(err)
			}
		})
	}
}
