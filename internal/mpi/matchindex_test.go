package mpi

import (
	"math/rand"
	"testing"

	"repro/internal/transport"
)

// This file checks the indexed matching core against a linear-scan
// reference — a direct transcription of the pre-index engine, which kept
// one posted-receive slice in post order and one unexpected-packet slice
// in arrival order and always took the first match. The property test
// drives both through randomized (src, tag, wildcard, failure)
// interleavings and demands identical results at every step, which is
// exactly the MPI non-overtaking guarantee the index must preserve.

// linearPosted is the reference posted-receive queue: post order, first
// match wins.
type linearPosted struct {
	q []*Request
}

func (l *linearPosted) add(r *Request) { l.q = append(l.q, r) }

func (l *linearPosted) match(ctx, src, tag int) *Request {
	for i, r := range l.q {
		if r.ctx == ctx &&
			(r.tag == AnyTag || r.tag == tag) &&
			(r.srcWorld == AnySource || r.srcWorld == src) {
			l.q = append(l.q[:i], l.q[i+1:]...)
			return r
		}
	}
	return nil
}

func (l *linearPosted) remove(r *Request) bool {
	for i, p := range l.q {
		if p == r {
			l.q = append(l.q[:i], l.q[i+1:]...)
			return true
		}
	}
	return false
}

func (l *linearPosted) collect(pred func(*Request) bool) []*Request {
	var out []*Request
	kept := l.q[:0]
	for _, r := range l.q {
		if pred(r) {
			out = append(out, r)
		} else {
			kept = append(kept, r)
		}
	}
	l.q = kept
	return out
}

// linearUnexpected is the reference unexpected-message queue: arrival
// order, first match wins.
type linearUnexpected struct {
	q []*transport.Packet
}

func (l *linearUnexpected) add(pkt *transport.Packet) { l.q = append(l.q, pkt) }

func (l *linearUnexpected) take(srcWorld, tag, ctx int) *transport.Packet {
	for i, pkt := range l.q {
		if pkt.Context == ctx &&
			(tag == AnyTag || tag == pkt.Tag) &&
			(srcWorld == AnySource || srcWorld == pkt.Src) {
			l.q = append(l.q[:i], l.q[i+1:]...)
			return pkt
		}
	}
	return nil
}

func (l *linearUnexpected) probe(srcWorld, tag, ctx int) *transport.Packet {
	for _, pkt := range l.q {
		if pkt.Context == ctx &&
			(tag == AnyTag || tag == pkt.Tag) &&
			(srcWorld == AnySource || srcWorld == pkt.Src) {
			return pkt
		}
	}
	return nil
}

// randSrcTag draws a (src, tag) pair, wildcarded with probability ~1/4
// each so exact/exact, exact/wild, wild/exact and wild/wild receives all
// occur.
func randSrcTag(rng *rand.Rand, nSrc, nTag int) (int, int) {
	src := rng.Intn(nSrc)
	if rng.Intn(4) == 0 {
		src = AnySource
	}
	tag := rng.Intn(nTag)
	if rng.Intn(4) == 0 {
		tag = AnyTag
	}
	return src, tag
}

// TestPostedIndexMatchesLinearReference drives the posted-receive index
// and the linear reference through the same randomized interleaving of
// posts, deliveries, cancels and failure sweeps.
func TestPostedIndexMatchesLinearReference(t *testing.T) {
	const (
		rounds = 200
		steps  = 400
		nSrc   = 5
		nTag   = 4
		nCtx   = 3
	)
	for round := 0; round < rounds; round++ {
		rng := rand.New(rand.NewSource(int64(round)))
		ix := newPostedIndex()
		ref := &linearPosted{}
		for step := 0; step < steps; step++ {
			switch op := rng.Intn(10); {
			case op < 5: // post a receive
				src, tag := randSrcTag(rng, nSrc, nTag)
				r := &Request{srcWorld: src, tag: tag, ctx: rng.Intn(nCtx)}
				ix.add(r)
				ref.add(r)
			case op < 8: // deliver a packet header
				ctx, src, tag := rng.Intn(nCtx), rng.Intn(nSrc), rng.Intn(nTag)
				got, want := ix.match(ctx, src, tag), ref.match(ctx, src, tag)
				if got != want {
					t.Fatalf("round %d step %d: match(%d,%d,%d) = %p, reference %p",
						round, step, ctx, src, tag, got, want)
				}
			case op < 9: // cancel a random still-posted receive
				if len(ref.q) == 0 {
					continue
				}
				r := ref.q[rng.Intn(len(ref.q))]
				gi, gr := ix.remove(r), ref.remove(r)
				if gi != gr {
					t.Fatalf("round %d step %d: remove = %v, reference %v", round, step, gi, gr)
				}
			default: // failure sweep: rank f died, fail receives posted to it
				f := rng.Intn(nSrc)
				wildToo := rng.Intn(2) == 0 // model the AnySource-fails rule
				pred := func(r *Request) bool {
					return r.srcWorld == f || (wildToo && r.srcWorld == AnySource)
				}
				got, want := ix.collect(pred), ref.collect(pred)
				if len(got) != len(want) {
					t.Fatalf("round %d step %d: collect returned %d victims, reference %d",
						round, step, len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("round %d step %d: collect[%d] = %p, reference %p (completion order diverged)",
							round, step, i, got[i], want[i])
					}
				}
			}
			if ix.live != len(ref.q) {
				t.Fatalf("round %d step %d: live = %d, reference holds %d", round, step, ix.live, len(ref.q))
			}
		}
	}
}

// TestUnexpectedIndexMatchesLinearReference does the same for the
// unexpected-packet side: arrivals, takes and probes must agree with the
// arrival-order linear scan packet-for-packet.
func TestUnexpectedIndexMatchesLinearReference(t *testing.T) {
	const (
		rounds = 200
		steps  = 400
		nSrc   = 5
		nTag   = 4
		nCtx   = 3
	)
	for round := 0; round < rounds; round++ {
		rng := rand.New(rand.NewSource(int64(round) + 1e9))
		ix := newUnexpectedIndex()
		ref := &linearUnexpected{}
		for step := 0; step < steps; step++ {
			switch op := rng.Intn(10); {
			case op < 5: // packet arrives
				pkt := &transport.Packet{
					Src: rng.Intn(nSrc), Tag: rng.Intn(nTag), Context: rng.Intn(nCtx),
				}
				ix.add(pkt)
				ref.add(pkt)
			case op < 8: // a receive is posted and shops the queue
				src, tag := randSrcTag(rng, nSrc, nTag)
				ctx := rng.Intn(nCtx)
				got, want := ix.take(src, tag, ctx), ref.take(src, tag, ctx)
				if got != want {
					t.Fatalf("round %d step %d: take(%d,%d,%d) = %p, reference %p",
						round, step, src, tag, ctx, got, want)
				}
			default: // Iprobe
				src, tag := randSrcTag(rng, nSrc, nTag)
				ctx := rng.Intn(nCtx)
				got, want := ix.probe(src, tag, ctx), ref.probe(src, tag, ctx)
				if got != want {
					t.Fatalf("round %d step %d: probe(%d,%d,%d) = %p, reference %p",
						round, step, src, tag, ctx, got, want)
				}
			}
			if ix.live != len(ref.q) {
				t.Fatalf("round %d step %d: live = %d, reference holds %d", round, step, ix.live, len(ref.q))
			}
		}
	}
}

// TestUnexpectedIndexCompaction forces the tombstone-compaction path:
// deep exact consumption inside one context must not disturb wildcard
// matching there or in other contexts.
func TestUnexpectedIndexCompaction(t *testing.T) {
	ix := newUnexpectedIndex()
	ref := &linearUnexpected{}
	const n = 200
	for i := 0; i < n; i++ {
		for _, ctx := range []int{0, 1} {
			pkt := &transport.Packet{Src: i % 3, Tag: 0, Context: ctx}
			ix.add(pkt)
			ref.add(pkt)
		}
	}
	// Exact takes in ctx 0 tombstone its order list past the compaction
	// threshold; ctx 1 must be untouched.
	for i := 0; i < n-10; i++ {
		got, want := ix.take(i%3, 0, 0), ref.take(i%3, 0, 0)
		if got != want {
			t.Fatalf("exact take %d: %p, reference %p", i, got, want)
		}
	}
	for {
		got, want := ix.take(AnySource, AnyTag, 1), ref.take(AnySource, AnyTag, 1)
		if got != want {
			t.Fatalf("wildcard drain: %p, reference %p", got, want)
		}
		if got == nil {
			break
		}
	}
	if rest := ix.take(AnySource, AnyTag, 0); rest == nil || rest != ref.take(AnySource, AnyTag, 0) {
		t.Fatalf("ctx 0 leftovers diverged")
	}
}

// TestMatchIndexesLeaveNoResidue pushes 10^4 distinct (ctx, src, tag)
// keys through both indexes, the way fresh collective tags arrive, and
// empties every bucket by each removal path in turn. An emptied bucket
// must leave its map (kept empty entries would grow without bound), the
// free list of bucket slices must stay within its cap, and a drained
// index holds nothing.
func TestMatchIndexesLeaveNoResidue(t *testing.T) {
	const (
		keys  = 10000
		batch = 16
	)
	posted, unexp := newPostedIndex(), newUnexpectedIndex()
	check := func(at int) {
		t.Helper()
		for k, q := range posted.exact {
			if len(q) == 0 {
				t.Fatalf("key %d: empty posted bucket %+v kept", at, k)
			}
		}
		for k, q := range unexp.exact {
			if len(q) == 0 {
				t.Fatalf("key %d: empty unexpected bucket %+v kept", at, k)
			}
		}
		if n := len(posted.spare.free); n > spareCap {
			t.Fatalf("key %d: posted free list %d > cap %d", at, n, spareCap)
		}
		if n := len(unexp.spare.free); n > spareCap {
			t.Fatalf("key %d: unexpected free list %d > cap %d", at, n, spareCap)
		}
	}
	var reqs []*Request
	for i := 0; i < keys; i++ {
		ctx, src, tag := i%3, i%5, -i // the tag alone makes every key new
		r := &Request{srcWorld: src, tag: tag, ctx: ctx}
		posted.add(r)
		reqs = append(reqs, r)
		unexp.add(&transport.Packet{Src: src, Tag: tag, Context: ctx})
		if len(reqs) < batch {
			continue
		}
		for j, r := range reqs {
			switch j % 3 {
			case 0: // a delivery matches it
				if got := posted.match(r.ctx, r.srcWorld, r.tag); got != r {
					t.Fatalf("key %d: match returned %p, want %p", i, got, r)
				}
			case 1: // Cancel
				if !posted.remove(r) {
					t.Fatalf("key %d: remove missed a posted receive", i)
				}
			default: // a failure sweep
				if got := posted.collect(func(q *Request) bool { return q == r }); len(got) != 1 {
					t.Fatalf("key %d: collect returned %d receives, want 1", i, len(got))
				}
			}
			src, tag := r.srcWorld, r.tag
			if j%2 == 1 {
				src = AnySource // the order-list path, then removeFromBucket
			}
			if pkt := unexp.take(src, tag, r.ctx); pkt == nil || pkt.Tag != r.tag {
				t.Fatalf("key %d: take(%d, %d, %d) = %v", i, src, tag, r.ctx, pkt)
			}
			check(i)
		}
		reqs = reqs[:0]
	}
	if posted.live != 0 || unexp.live != 0 || len(posted.exact) != 0 || len(unexp.exact) != 0 {
		t.Fatalf("drained indexes hold live %d/%d, buckets %d/%d",
			posted.live, unexp.live, len(posted.exact), len(unexp.exact))
	}
	if len(posted.spare.free) == 0 || len(unexp.spare.free) == 0 {
		t.Fatal("no emptied bucket was kept for reuse")
	}
}

// TestRearmedKeyReusesBucket is the ring's receive: the same key posted
// and matched over and over allocates nothing once the bucket exists.
func TestRearmedKeyReusesBucket(t *testing.T) {
	ix := newPostedIndex()
	r := &Request{srcWorld: 3, tag: 1, ctx: 0}
	if allocs := testing.AllocsPerRun(100, func() {
		ix.add(r)
		if ix.match(0, 3, 1) != r {
			t.Fatal("match missed the re-armed receive")
		}
	}); allocs != 0 {
		t.Fatalf("%.1f allocations per re-arm, want 0", allocs)
	}
}

// FuzzBucketKey checks the hash-bucket key discriminates exactly on the
// (context, source, tag) triple: two operations share a bucket iff all
// three fields are equal.
func FuzzBucketKey(f *testing.F) {
	f.Add(0, 0, 0, 0, 0, 0)
	f.Add(1, 2, 3, 1, 2, 3)
	f.Add(0, 1, 2, 0, 1, -4)
	f.Add(-1, AnySource, AnyTag, -1, 0, 0)
	f.Fuzz(func(t *testing.T, ctx1, src1, tag1, ctx2, src2, tag2 int) {
		k1 := bucketKey{ctx1, src1, tag1}
		k2 := bucketKey{ctx2, src2, tag2}
		wantEqual := ctx1 == ctx2 && src1 == src2 && tag1 == tag2
		if (k1 == k2) != wantEqual {
			t.Fatalf("bucketKey equality: %+v == %+v is %v, field-wise %v", k1, k2, k1 == k2, wantEqual)
		}
		m := map[bucketKey]int{k1: 1}
		if _, hit := m[k2]; hit != wantEqual {
			t.Fatalf("map lookup: %+v found under %+v = %v, want %v", k2, k1, hit, wantEqual)
		}
	})
}
