package reliable

import (
	"slices"
	"sync/atomic"

	"repro/internal/transport"
)

// directory is the fabric's link table. Per rank it keeps one rankLinks:
// the links that rank sends on, the links it receives on, and whether it is
// dead. Links exist only where frames flowed, so a ring of n ranks costs
// O(n) memory however large n is, not the O(n²) of a dense table.
//
// Readers take no lock: they load the directory, then the one row they
// need, and scan it (a rank talks to a handful of peers). Writers hold
// Fabric.wmu and never edit what a reader may be looking at: a row is
// replaced whole, and the directory itself is replaced only when it grows.
// The rankLinks are shared by every generation of the directory, so a
// reader holding an old one still sees the current rows and dead flags.
type directory struct {
	ranks []*rankLinks
}

// rankLinks is one rank's entry in the directory.
type rankLinks struct {
	// dead: the rank was purged by PeerDown or escalation. Set before any
	// link of the rank is purged, cleared after PeerUp purged them all.
	dead atomic.Bool
	// tx holds the links this rank sends on, one per destination; rx the
	// links it receives on, one per source.
	tx atomic.Pointer[[]*txLink]
	rx atomic.Pointer[[]*rxLink]
}

// at returns rank's entry, or nil where the directory has not grown yet.
func (d *directory) at(rank int) *rankLinks {
	if rank < 0 || rank >= len(d.ranks) {
		return nil
	}
	return d.ranks[rank]
}

// isDead reports the dead flag of an entry; a rank the directory has not
// grown to has never been purged.
func (r *rankLinks) isDead() bool { return r != nil && r.dead.Load() }

// txTo returns the link this rank sends to dst on, or nil.
func (r *rankLinks) txTo(dst int) *txLink {
	if r == nil {
		return nil
	}
	if row := r.tx.Load(); row != nil {
		for _, tx := range *row {
			if tx.peer == dst {
				return tx
			}
		}
	}
	return nil
}

// rxFrom returns the link this rank receives from src on, or nil.
func (r *rankLinks) rxFrom(src int) *rxLink {
	if r == nil {
		return nil
	}
	if row := r.rx.Load(); row != nil {
		for _, rx := range *row {
			if rx.peer == src {
				return rx
			}
		}
	}
	return nil
}

// rowWith returns a new row: row and l.
func rowWith[L any](row *[]L, l L) *[]L {
	var next []L
	if row != nil {
		next = slices.Clip(*row)
	}
	next = append(next, l)
	return &next
}

// growLocked returns the directory with an entry for rank, replacing it by
// a larger one first if needed. Callers hold f.wmu.
func (f *Fabric) growLocked(rank int) *directory {
	d := f.dir.Load()
	if rank < len(d.ranks) {
		return d
	}
	n := max(2*len(d.ranks), rank+1)
	ranks := make([]*rankLinks, n)
	copy(ranks, d.ranks)
	fresh := make([]rankLinks, n-len(d.ranks))
	for i := range fresh {
		ranks[len(d.ranks)+i] = &fresh[i]
	}
	d = &directory{ranks: ranks}
	f.dir.Store(d)
	return d
}

// addTx creates the link src -> dst unless it exists or dst is dead.
func (f *Fabric) addTx(src, dst int) {
	f.wmu.Lock()
	defer f.wmu.Unlock()
	d := f.growLocked(max(src, dst))
	if r := d.ranks[src]; !d.ranks[dst].dead.Load() && r.txTo(dst) == nil {
		r.tx.Store(rowWith(r.tx.Load(), &txLink{peer: dst, inflight: make(map[uint64]pending)}))
	}
}

// addRx creates the link src -> dst unless it exists or src is dead.
func (f *Fabric) addRx(src, dst int) {
	f.wmu.Lock()
	defer f.wmu.Unlock()
	d := f.growLocked(max(src, dst))
	if r := d.ranks[dst]; !d.ranks[src].dead.Load() && r.rxFrom(src) == nil {
		r.rx.Store(rowWith(r.rx.Load(), &rxLink{peer: src, next: 1, held: make(map[uint64]*transport.Packet)}))
	}
}

// findTx returns the link src -> dst locked, or nil, with nothing held, if
// there is none. A link purged between the lookup and the lock is gone,
// which is none.
func (f *Fabric) findTx(src, dst int) *txLink {
	tx := f.dir.Load().at(src).txTo(dst)
	if tx == nil {
		return nil
	}
	tx.mu.Lock()
	if tx.gone {
		tx.mu.Unlock()
		return nil
	}
	return tx
}

// findRx is findTx for the receiver half of src -> dst.
func (f *Fabric) findRx(src, dst int) *rxLink {
	rx := f.dir.Load().at(dst).rxFrom(src)
	if rx == nil {
		return nil
	}
	rx.mu.Lock()
	if rx.gone {
		rx.mu.Unlock()
		return nil
	}
	return rx
}

// lockTx is findTx that creates the link on first use; nil if dst is dead.
// The dead flag is read before the link: PeerDown raises it before it
// purges, so a Send that finds its link gone looks again and sees it.
func (f *Fabric) lockTx(src, dst int) *txLink {
	for {
		if f.dir.Load().at(dst).isDead() {
			return nil
		}
		if tx := f.findTx(src, dst); tx != nil {
			return tx
		}
		f.addTx(src, dst)
	}
}

// lockRx is lockTx for the receiver half of src -> dst: nil if src is
// dead, so that stragglers from a fail-stop peer are dropped.
func (f *Fabric) lockRx(src, dst int) *rxLink {
	for {
		if f.dir.Load().at(src).isDead() {
			return nil
		}
		if rx := f.findRx(src, dst); rx != nil {
			return rx
		}
		f.addRx(src, dst)
	}
}

// purgeTx discards a tx link — its sequence numbers, its round-trip
// estimate, its unacknowledged frames and those acknowledged ahead of a
// gap — marks it gone and collects one EvPurged per frame. The caller holds f.wmu and takes the link out of its
// row; the events must be emitted after f.wmu is released.
func (f *Fabric) purgeTx(evs []Event, src int, tx *txLink) []Event {
	tx.mu.Lock()
	defer tx.mu.Unlock()
	for seq, p := range tx.inflight {
		evs = append(evs, Event{
			Kind: EvPurged, Src: src, Dst: tx.peer,
			Seq: seq, Attempt: int(p.attempts), Token: p.pkt.Token,
		})
		if p.watched {
			f.retry.watched.Add(-1)
		}
	}
	// A frame acked ahead of a gap is lost with the gap: no retire.
	for seq, pkt := range tx.early {
		evs = append(evs, Event{Kind: EvPurged, Src: src, Dst: tx.peer, Seq: seq, Token: pkt.Token})
	}
	tx.early = nil
	// A Send that is between its inner Send and its look at the link
	// still holds tx: leave it nothing to find.
	clear(tx.inflight)
	tx.unacked.Store(0)
	tx.gone = true
	return evs
}

// purgeRx discards an rx link — its watermark and the frames it held
// behind a gap — marks it gone and collects one EvPurged per frame it
// drops (acknowledged but undelivered). Called like purgeTx.
func (f *Fabric) purgeRx(evs []Event, dst int, rx *rxLink) []Event {
	rx.mu.Lock()
	defer rx.mu.Unlock()
	// A goroutine still draining the link holds rx, and delivers the frames
	// held in order behind the one it is delivering: they are acked, and
	// once every frame before them is too, their sender counts them
	// delivered (OnAckRetire). Only the frames behind a gap are lost.
	kept := rx.next
	for rx.draining && rx.held[kept] != nil {
		kept++
	}
	for seq, p := range rx.held {
		if seq >= kept {
			evs = append(evs, Event{
				Kind: EvPurged, Src: rx.peer, Dst: dst, Seq: seq, Token: p.Token,
			})
			delete(rx.held, seq)
		}
	}
	rx.gone = true
	return evs
}

// purgeLocked purges every tx link src -> dst that dropTx picks and every
// rx link src -> dst that dropRx picks, and takes them out of their rows.
// Callers hold f.wmu.
func (f *Fabric) purgeLocked(evs []Event, dropTx, dropRx func(src, dst int) bool) []Event {
	for rank, r := range f.dir.Load().ranks {
		cut(&r.tx, func(tx *txLink) bool { return dropTx(rank, tx.peer) },
			func(tx *txLink) { evs = f.purgeTx(evs, rank, tx) })
		cut(&r.rx, func(rx *rxLink) bool { return dropRx(rx.peer, rank) },
			func(rx *rxLink) { evs = f.purgeRx(evs, rank, rx) })
	}
	return evs
}

// cut purges the links of a row that drop picks and replaces the row by
// the rest; a row that loses nothing is left as it is.
func cut[L any](row *atomic.Pointer[[]L], drop func(L) bool, purge func(L)) {
	cur := row.Load()
	if cur == nil {
		return
	}
	var keep []L
	for _, l := range *cur {
		if drop(l) {
			purge(l)
		} else {
			keep = append(keep, l)
		}
	}
	switch {
	case len(keep) == len(*cur):
	case keep == nil:
		row.Store(nil)
	default:
		row.Store(&keep)
	}
}
