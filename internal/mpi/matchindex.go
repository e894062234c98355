package mpi

import (
	"sort"

	"repro/internal/transport"
)

// This file holds the engine's matching index: posted receives and
// unexpected packets bucketed by their fully-specified (context, source,
// tag) key, with separate per-context wildcard lists for receives using
// AnySource and/or AnyTag. Delivery and Irecv therefore match in ~O(1)
// in the common (no-wildcard) case instead of scanning the whole queue.
//
// MPI's non-overtaking rule is preserved by construction:
//
//   - each bucket is a FIFO, so among receives with the same exact key
//     the earliest-posted one matches first, and among packets with the
//     same key the earliest-arrived one is received first;
//   - every posted receive carries a monotonically increasing postSeq;
//     when a packet could match both the exact bucket's head and a
//     wildcard receive, the smaller postSeq wins — exactly the request
//     the old linear scan (first match in post order) would have picked;
//   - a wildcard receive consumes the earliest queued packet by scanning
//     the per-context arrival-order list, the same packet the old
//     linear scan over the unexpected queue would have returned.
//
// Removal is eager everywhere (no tombstones), so a *Request popped out
// of the index is referenced by no index structure and may be pooled and
// reused immediately. An emptied exact bucket leaves its map, so keys that
// come and go (every collective call has a fresh tag) cannot grow the map,
// but its slice goes to a small free list that the next new key takes from:
// the ring's one receive per hop reuses storage instead of allocating it.
// All methods must be called with the owning engine's mutex held.

// bucketKey is the (context, source, tag) triple that fully determines
// matching for non-wildcard operations. It is the hash-bucket key: Go's
// map hashes the struct, and two operations land in the same bucket iff
// all three fields are equal (see FuzzBucketKey).
type bucketKey struct {
	ctx, src, tag int
}

// spareCap bounds each index's free list of emptied bucket slices.
const spareCap = 8

// spares is a bounded free list of emptied bucket slices. Their elements
// are all nil (the index clears a slot before it shrinks a bucket), so a
// spare holds nothing alive.
type spares[T any] struct{ free [][]T }

// put keeps an emptied bucket's storage unless the list is full.
func (f *spares[T]) put(q []T) {
	if len(f.free) < spareCap {
		f.free = append(f.free, q[:0])
	}
}

// get returns a spare empty slice, or nil when there is none.
func (f *spares[T]) get() []T {
	n := len(f.free)
	if n == 0 {
		return nil
	}
	q := f.free[n-1]
	f.free[n-1] = nil
	f.free = f.free[:n-1]
	return q
}

// isWild reports whether a receive posted with (src, tag) needs the
// wildcard path.
func isWild(srcWorld, tag int) bool { return srcWorld == AnySource || tag == AnyTag }

// --- posted receives ---------------------------------------------------------

// postedIndex indexes the posted-receive queue.
type postedIndex struct {
	exact map[bucketKey][]*Request // fully-specified receives, FIFO per key
	wild  map[int][]*Request       // wildcard receives per context, post order
	spare spares[*Request]         // emptied exact buckets, for the next new key
	live  int
	seq   uint64 // post-order stamp source
}

func newPostedIndex() postedIndex {
	return postedIndex{
		exact: make(map[bucketKey][]*Request),
		wild:  make(map[int][]*Request),
	}
}

// add appends the receive in post order.
func (ix *postedIndex) add(r *Request) {
	ix.seq++
	r.postSeq = ix.seq
	if isWild(r.srcWorld, r.tag) {
		ix.wild[r.ctx] = append(ix.wild[r.ctx], r)
	} else {
		k := bucketKey{r.ctx, r.srcWorld, r.tag}
		q, ok := ix.exact[k]
		if !ok {
			q = ix.spare.get()
		}
		ix.exact[k] = append(q, r)
	}
	ix.live++
}

// match finds, removes and returns the earliest-posted receive matching a
// packet with the given header, or nil.
func (ix *postedIndex) match(ctx, src, tag int) *Request {
	k := bucketKey{ctx, src, tag}
	var exactHit *Request
	if q := ix.exact[k]; len(q) > 0 {
		exactHit = q[0]
	}
	wl := ix.wild[ctx]
	wildAt := -1
	for i, r := range wl {
		if (r.tag == AnyTag || r.tag == tag) && (r.srcWorld == AnySource || r.srcWorld == src) {
			wildAt = i
			break
		}
	}
	switch {
	case exactHit == nil && wildAt < 0:
		return nil
	case wildAt < 0 || (exactHit != nil && exactHit.postSeq < wl[wildAt].postSeq):
		ix.popExact(k)
		return exactHit
	default:
		r := wl[wildAt]
		ix.removeWildAt(ctx, wildAt)
		return r
	}
}

// popExact drops the head of an exact bucket.
func (ix *postedIndex) popExact(k bucketKey) {
	q := ix.exact[k]
	q[0] = nil
	if len(q) == 1 {
		delete(ix.exact, k)
		ix.spare.put(q)
	} else {
		ix.exact[k] = q[1:]
	}
	ix.live--
}

// removeWildAt drops entry i of a wildcard list.
func (ix *postedIndex) removeWildAt(ctx, i int) {
	wl := ix.wild[ctx]
	copy(wl[i:], wl[i+1:])
	wl[len(wl)-1] = nil
	if len(wl) == 1 {
		delete(ix.wild, ctx)
	} else {
		ix.wild[ctx] = wl[:len(wl)-1]
	}
	ix.live--
}

// remove unlinks a specific posted receive (Cancel). It reports whether
// the request was present.
func (ix *postedIndex) remove(r *Request) bool {
	if isWild(r.srcWorld, r.tag) {
		for i, q := range ix.wild[r.ctx] {
			if q == r {
				ix.removeWildAt(r.ctx, i)
				return true
			}
		}
		return false
	}
	k := bucketKey{r.ctx, r.srcWorld, r.tag}
	q := ix.exact[k]
	for i, p := range q {
		if p != r {
			continue
		}
		if i == 0 {
			ix.popExact(k)
			return true
		}
		copy(q[i:], q[i+1:])
		q[len(q)-1] = nil
		ix.exact[k] = q[:len(q)-1]
		ix.live--
		return true
	}
	return false
}

// collect removes and returns every posted receive satisfying pred, in
// post order — the failure-notification sweep. Failures are rare, so the
// full iteration here is off the hot path by design.
func (ix *postedIndex) collect(pred func(*Request) bool) []*Request {
	var out []*Request
	for k, q := range ix.exact {
		kept := q[:0]
		for _, r := range q {
			if pred(r) {
				out = append(out, r)
			} else {
				kept = append(kept, r)
			}
		}
		if len(kept) == len(q) {
			continue
		}
		for i := len(kept); i < len(q); i++ {
			q[i] = nil
		}
		if len(kept) == 0 {
			delete(ix.exact, k)
			ix.spare.put(q)
		} else {
			ix.exact[k] = kept
		}
	}
	for ctx, wl := range ix.wild {
		kept := wl[:0]
		for _, r := range wl {
			if pred(r) {
				out = append(out, r)
			} else {
				kept = append(kept, r)
			}
		}
		if len(kept) == len(wl) {
			continue
		}
		for i := len(kept); i < len(wl); i++ {
			wl[i] = nil
		}
		if len(kept) == 0 {
			delete(ix.wild, ctx)
		} else {
			ix.wild[ctx] = kept
		}
	}
	ix.live -= len(out)
	sort.Slice(out, func(i, j int) bool { return out[i].postSeq < out[j].postSeq })
	return out
}

// --- unexpected packets ------------------------------------------------------

// uEntry is one queued unexpected packet. Entries live in an exact bucket
// AND the per-context arrival-order list. Taking a packet unlinks its
// entry from the bucket at once but leaves the order-list reference as a
// tombstone, which the next compaction drops: the entry's gen moves on, so
// a reference made under an older gen is dead. That lets an entry be
// reused by the next add as soon as its packet is taken.
//
// src is the source the packet matches as: its logical rank in a
// replicated world, where pkt.Src names the physical replica that sent it
// and stays untouched (the reliability layer may still hold the packet).
// It and gen are 32 bits so the entry stays in the 16-byte size class; a
// tombstone is compacted away long before gen could wrap.
type uEntry struct {
	pkt *transport.Packet
	src int32
	gen uint32
}

// orderRef is an order-list reference to an entry as queued under gen.
type orderRef struct {
	e   *uEntry
	gen uint32
}

// queued reports whether the entry still holds the packet r was made for.
func (r orderRef) queued() bool { return r.e.gen == r.gen }

// orderList is one context's arrival-order list with its tombstone count.
type orderList struct {
	entries []orderRef
	stale   int // taken entries not yet compacted away
}

// unexpectedIndex indexes the unexpected-message queue.
type unexpectedIndex struct {
	exact map[bucketKey][]*uEntry // FIFO per key
	order map[int]*orderList      // per-context arrival order, for wildcards
	spare spares[*uEntry]         // emptied exact buckets, for the next new key
	// spareEntry and then free hold taken entries for the next add, and
	// spareOrder an emptied order list with its storage for the next new
	// context: a queue that fills and drains in turn, as a lagging
	// replica's does, allocates only when it grows past what it held
	// before. A queue that never holds more than one packet needs no free
	// slice at all.
	spareEntry *uEntry
	free       []*uEntry
	spareOrder *orderList
	live       int
}

// shiftMax is the longest unexpected bucket whose head is taken by
// shifting the rest down; a longer one is sliced, which keeps deep queues
// O(1) per take.
const shiftMax = 8

// freeEntries bounds the free list of entries (4 KB of them).
const freeEntries = 256

func newUnexpectedIndex() unexpectedIndex {
	return unexpectedIndex{
		exact: make(map[bucketKey][]*uEntry),
		order: make(map[int]*orderList),
	}
}

// add queues a packet from src in arrival order.
func (ix *unexpectedIndex) add(pkt *transport.Packet, src int) {
	var e *uEntry
	if e = ix.spareEntry; e != nil {
		ix.spareEntry = nil
	} else if n := len(ix.free); n > 0 {
		e = ix.free[n-1]
		ix.free[n-1] = nil
		ix.free = ix.free[:n-1]
	} else {
		e = new(uEntry)
	}
	e.pkt, e.src = pkt, int32(src)
	k := bucketKey{pkt.Context, src, pkt.Tag}
	q, ok := ix.exact[k]
	if !ok {
		q = ix.spare.get()
	}
	ix.exact[k] = append(q, e)
	ol := ix.order[pkt.Context]
	if ol == nil {
		if ol = ix.spareOrder; ol != nil {
			ix.spareOrder = nil
		} else {
			ol = &orderList{}
		}
		ix.order[pkt.Context] = ol
	}
	ol.entries = append(ol.entries, orderRef{e, e.gen})
	ix.live++
}

// release ends an entry's hold on its packet, turning every order-list
// reference to it into a tombstone, and keeps it for the next add.
func (ix *unexpectedIndex) release(e *uEntry) {
	e.pkt = nil
	e.gen++
	ix.live--
	switch {
	case ix.spareEntry == nil:
		ix.spareEntry = e
	case len(ix.free) < freeEntries:
		ix.free = append(ix.free, e)
	}
}

// take finds, removes and returns the earliest-arrived packet matching
// the receive criteria and the source it was queued from, or nil.
func (ix *unexpectedIndex) take(srcWorld, tag, ctx int) (*transport.Packet, int) {
	if !isWild(srcWorld, tag) {
		k := bucketKey{ctx, srcWorld, tag}
		q := ix.exact[k]
		if len(q) == 0 {
			return nil, 0
		}
		pkt := q[0].pkt
		ix.popExactLocked(k, q)
		return pkt, srcWorld
	}
	ol := ix.order[ctx]
	if ol == nil {
		return nil, 0
	}
	for i, r := range ol.entries {
		if r.queued() && r.e.matches(srcWorld, tag) {
			pkt, src := r.e.pkt, int(r.e.src)
			ix.removeFromBucket(r.e)
			ix.removeOrderAt(ctx, i)
			ix.release(r.e)
			return pkt, src
		}
	}
	return nil, 0
}

// probe reports the earliest matching packet and its source without
// removing it.
func (ix *unexpectedIndex) probe(srcWorld, tag, ctx int) (*transport.Packet, int) {
	if !isWild(srcWorld, tag) {
		if q := ix.exact[bucketKey{ctx, srcWorld, tag}]; len(q) > 0 {
			return q[0].pkt, srcWorld
		}
		return nil, 0
	}
	ol := ix.order[ctx]
	if ol == nil {
		return nil, 0
	}
	for _, r := range ol.entries {
		if r.queued() && r.e.matches(srcWorld, tag) {
			return r.e.pkt, int(r.e.src)
		}
	}
	return nil, 0
}

// matches reports whether a wildcard receive (srcWorld, tag) takes e.
func (e *uEntry) matches(srcWorld, tag int) bool {
	return (tag == AnyTag || tag == e.pkt.Tag) && (srcWorld == AnySource || srcWorld == int(e.src))
}

// popExactLocked consumes the head of bucket k (already fetched as q),
// tombstoning its order-list reference.
func (ix *unexpectedIndex) popExactLocked(k bucketKey, q []*uEntry) {
	e := q[0]
	switch {
	case len(q) == 1:
		q[0] = nil
		delete(ix.exact, k)
		ix.spare.put(q)
	case len(q) <= shiftMax:
		// Keep the storage: slicing the head off would shrink the capacity,
		// and a bucket that alternates between one and two packets would
		// reallocate on every other arrival.
		copy(q, q[1:])
		q[len(q)-1] = nil
		ix.exact[k] = q[:len(q)-1]
	default:
		q[0] = nil
		ix.exact[k] = q[1:]
	}
	ctx := e.pkt.Context
	ix.release(e)
	if ol := ix.order[ctx]; ol != nil {
		ol.stale++
		ix.maybeCompactOrder(ctx)
	}
}

// removeFromBucket unlinks an entry found via the order list from its
// exact bucket. The caller accounts for the order-list side.
func (ix *unexpectedIndex) removeFromBucket(e *uEntry) {
	k := bucketKey{e.pkt.Context, int(e.src), e.pkt.Tag}
	q := ix.exact[k]
	for i, p := range q {
		if p != e {
			continue
		}
		copy(q[i:], q[i+1:])
		q[len(q)-1] = nil
		if len(q) == 1 {
			delete(ix.exact, k)
			ix.spare.put(q)
		} else {
			ix.exact[k] = q[:len(q)-1]
		}
		return
	}
}

// removeOrderAt drops the reference at position i, whose entry the caller
// already unlinked from its bucket.
func (ix *unexpectedIndex) removeOrderAt(ctx, i int) {
	ol := ix.order[ctx]
	copy(ol.entries[i:], ol.entries[i+1:])
	ol.entries[len(ol.entries)-1] = orderRef{}
	ol.entries = ol.entries[:len(ol.entries)-1]
	if len(ol.entries) == 0 {
		ix.dropOrder(ctx, ol)
	}
}

// maybeCompactOrder rebuilds a context's order list once tombstones
// outnumber live entries, keeping wildcard scans amortized O(live). A list
// of tombstones only is reset in place at once, storage and map entry
// kept: a queue that holds one packet at a time, as a ring's does, then
// never grows its list, however its taken packets interleave.
func (ix *unexpectedIndex) maybeCompactOrder(ctx int) {
	ol := ix.order[ctx]
	if ol.stale == len(ol.entries) {
		clear(ol.entries)
		ol.entries = ol.entries[:0]
		ol.stale = 0
		return
	}
	if ol.stale < 32 || ol.stale*2 < len(ol.entries) {
		return
	}
	kept := ol.entries[:0]
	for _, r := range ol.entries {
		if r.queued() {
			kept = append(kept, r)
		}
	}
	clear(ol.entries[len(kept):])
	ol.entries = kept
	ol.stale = 0
}

// dropOrder takes a context's emptied order list out of the map and keeps
// it as the spare.
func (ix *unexpectedIndex) dropOrder(ctx int, ol *orderList) {
	delete(ix.order, ctx)
	ol.stale = 0
	ix.spareOrder = ol
}
