package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"repro/internal/metrics"
	"repro/internal/mpi"
	"repro/internal/transport"
)

// instruments is the traced pass's measuring kit, all of it attached from
// outside through public seams: an operation hook (mpi.WithHook), a span
// fabric around the base fabric (mpi.WithFabric) and a counter table
// (mpi.WithMetrics). Every boundary crossing is appended to an in-memory
// buffer; matching events into per-message spans happens after the run.
//
// A nil *instruments is the end-to-end configuration: every method is a
// no-op that adds nothing to the world.
type instruments struct {
	base    time.Time
	logical int
	epoch   int32 // world counter: tokens restart in every world
	hooks   []evBuf[hookEv]
	sends   []evBuf[sendEv]
	delivs  []evBuf[delivEv]
	counts  *metrics.World
	winMu   sync.Mutex
	window  []int64 // timed-region marks, ns since base; first and last bound it
	// ringOnly drops data frames other than the ring's own from the
	// analysis: the stragglers of the warm-up barrier that land after the
	// root's mark.
	ringOnly bool
}

// worldP2P is Packet.Context of Proc.World()'s point-to-point traffic
// (collectives travel on the internal context, where tag 1 also occurs).
const worldP2P = 0

func (ins *instruments) skipped(kind transport.Kind, ctx, tag int32) bool {
	return ins.ringOnly && kind == transport.KindData && (ctx != worldP2P || tag != ringTag)
}

type evBuf[T any] struct {
	mu sync.Mutex
	ev []T
}

func (b *evBuf[T]) add(e T) {
	b.mu.Lock()
	b.ev = append(b.ev, e)
	b.mu.Unlock()
}

// hookEv is one HookBeforeSend or HookAfterRecv on a (logical) rank.
type hookEv struct {
	t     int64
	epoch int32
	peer  int32
	tag   int32
	recv  bool
	used  bool // analysis: already matched to a delivery
}

// sendEv is one call of the base fabric's Send.
type sendEv struct {
	t0, t1 int64
	tok    uint64
	epoch  int32
	src    int32
	dst    int32
	tag    int32
	ctx    int32
	wire   int32
	kind   transport.Kind
}

// delivEv is one call of the delivery callback the base fabric was
// started with (the bottom of the ARQ/engine up-path).
type delivEv struct {
	t0, t1 int64
	tok    uint64
	epoch  int32
	src    int32
	dst    int32
	tag    int32
	ctx    int32
	repSeq uint32
	kind   transport.Kind
	bad    bool // payload CRC mismatch: the ARQ layer will reject it
}

func newInstruments() *instruments { return &instruments{base: time.Now()} }

func (ins *instruments) now() int64 { return int64(time.Since(ins.base)) }

// begin resets the buffers for a pass over worlds of phys physical and
// logical application ranks.
func (ins *instruments) begin(phys, logical int, ringOnly bool) {
	if ins == nil {
		return
	}
	ins.logical, ins.ringOnly = logical, ringOnly
	ins.hooks = make([]evBuf[hookEv], logical)
	ins.sends = make([]evBuf[sendEv], phys)
	ins.delivs = make([]evBuf[delivEv], phys)
	ins.counts = metrics.NewWorld(phys)
	ins.window = nil
}

// mark bounds the timed region from physical rank 0's goroutine.
func (ins *instruments) mark(p *mpi.Proc) {
	if ins != nil && p.PhysRank() == 0 {
		ins.markAll()
	}
}

func (ins *instruments) markAll() {
	if ins == nil {
		return
	}
	ins.winMu.Lock()
	ins.window = append(ins.window, ins.now())
	ins.winMu.Unlock()
}

// options returns the world options the traced pass adds. extra is a hook
// the workload itself needs (the kill schedule); it keeps its verdict.
func (ins *instruments) options(extra mpi.HookFunc) []mpi.Option {
	if ins == nil {
		if extra == nil {
			return nil
		}
		return []mpi.Option{mpi.WithHook(extra)}
	}
	epoch := ins.epoch // the world wrap just opened
	hook := func(ev mpi.HookEvent) mpi.Action {
		if ev.Point == mpi.HookBeforeSend || ev.Point == mpi.HookAfterRecv {
			ins.hooks[ev.Rank].add(hookEv{
				t: ins.now(), epoch: epoch, peer: int32(ev.Peer), tag: int32(ev.Tag),
				recv: ev.Point == mpi.HookAfterRecv,
			})
		}
		if extra != nil {
			return extra(ev)
		}
		return mpi.ActNone
	}
	return []mpi.Option{mpi.WithHook(hook), mpi.WithMetrics(ins.counts)}
}

// spanFabric records one sendEv per Send and one delivEv per delivery of
// the fabric it wraps.
type spanFabric struct {
	ins   *instruments
	inner transport.Fabric
	epoch int32
}

// spanFabricNR keeps the wrapped fabric's NonRetaining promise visible,
// so tracing does not change whether the engine copies payloads.
type spanFabricNR struct{ *spanFabric }

func (spanFabricNR) NonRetainingSend() {}

// wrap puts the span fabric around a world's base fabric and starts a new
// epoch.
func (ins *instruments) wrap(f transport.Fabric) transport.Fabric {
	if ins == nil {
		return f
	}
	ins.epoch++
	sf := &spanFabric{ins: ins, inner: f, epoch: ins.epoch}
	if _, ok := f.(transport.NonRetaining); ok {
		return spanFabricNR{sf}
	}
	return sf
}

func (f *spanFabric) Start(deliver transport.DeliverFunc) error {
	ins := f.ins
	return f.inner.Start(func(dst int, pkt *transport.Packet) {
		e := delivEv{
			tok: pkt.Token, epoch: f.epoch, src: int32(pkt.Src), dst: int32(dst),
			tag: int32(pkt.Tag), ctx: int32(pkt.Context), repSeq: pkt.RepSeq, kind: pkt.Kind,
			bad: pkt.Crc != 0 && pkt.Crc != transport.PayloadCrc(pkt.Payload),
		}
		e.t0 = ins.now()
		deliver(dst, pkt)
		e.t1 = ins.now()
		if dst >= 0 && dst < len(ins.delivs) {
			ins.delivs[dst].add(e)
		}
	})
}

func (f *spanFabric) Send(pkt *transport.Packet) error {
	ins := f.ins
	e := sendEv{
		tok: pkt.Token, epoch: f.epoch, src: int32(pkt.Src), dst: int32(pkt.Dst), tag: int32(pkt.Tag), ctx: int32(pkt.Context),
		wire: int32(transport.FrameHeaderSize + len(pkt.Payload)), kind: pkt.Kind,
	}
	e.t0 = ins.now()
	err := f.inner.Send(pkt)
	e.t1 = ins.now()
	if pkt.Src >= 0 && pkt.Src < len(ins.sends) {
		ins.sends[pkt.Src].add(e)
	}
	return err
}

func (f *spanFabric) Close() error { return f.inner.Close() }

// span is one segment of one message's path, written to -trace-out.
type span struct {
	Name   string `json:"name"`
	ID     uint64 `json:"id"`     // Packet.Token: the spans of one message share it
	Parent string `json:"parent"` // the segment that caused this one
	Rank   int32  `json:"rank"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// layerStats is what the traced pass says about one workload.
type layerStats struct {
	messages  int     // data messages whose whole path was matched
	chainMsgs int     // ... counting each message once, at the replica that observed it first
	appNs     float64 // HookAfterRecv -> next HookBeforeSend on the receiver
	sendNs    float64 // HookBeforeSend -> base-fabric Send entry
	transitNs float64 // base Send entry -> delivery callback entry
	deliverNs float64 // delivery callback entry -> return, or -> HookAfterRecv if that came first
	wakeNs    float64 // delivery callback return -> HookAfterRecv
	sumNs     float64 // the five above added: one message's trip from send hook to send hook
	fabricNs  float64 // base Send entry -> return, less a delivery nested inside it
	frames    int
	wireBytes int64
	ctlFrames int
	rootLaps  []float64 // microseconds between ring arrivals at physical rank 0
	spans     []span
}

type sendKey struct {
	epoch    int32
	src, dst int32 // dst -1: any destination
	tok      uint64
}

// msgKey identifies one application message at one receiving rank; with
// rank reduced to the logical rank it groups a message's replica copies.
type msgKey struct {
	epoch          int32
	rank, ctx, tag int32
	id             uint64 // RepSeq in replicated worlds, else the token
}

// path is one message's trip as the boundaries saw it.
type path struct {
	d      delivEv
	s      sendEv
	tA     int64 // send hook on the sender
	tD     int64 // receive hook on the receiver
	tE     int64 // the receiver's next send hook, -1 if it received again first
	ls, ld int32 // logical sender and receiver
}

// analyze matches the recorded events into per-message paths over the
// timed region. Segment figures are means, so that they add up.
func (ins *instruments) analyze(keepSpans bool) layerStats {
	var st layerStats
	if len(ins.window) < 2 {
		return st
	}
	w0, w1 := ins.window[0], ins.window[len(ins.window)-1]
	in := func(t int64) bool { return t >= w0 && t <= w1 }
	logical := int32(ins.logical)
	replicated := len(ins.sends) > ins.logical

	sendsBy := make(map[sendKey][]sendEv)        // a frame's Sends, by time
	firstSend := make(map[sendKey]int64)         // when a message first entered the fabric, whatever the destination
	ownSends := make([][]sendEv, len(ins.sends)) // each rank's data sends, by time
	for i := range ins.sends {
		for _, s := range ins.sends[i].ev {
			if !in(s.t0) || ins.skipped(s.kind, s.ctx, s.tag) {
				continue
			}
			st.frames++
			st.wireBytes += int64(s.wire)
			if s.kind != transport.KindData {
				st.ctlFrames++
				continue
			}
			k := sendKey{s.epoch, s.src, s.dst, s.tok}
			sendsBy[k] = append(sendsBy[k], s)
			k.dst = -1
			if t, ok := firstSend[k]; !ok || s.t0 < t {
				firstSend[k] = s.t0
			}
			ownSends[i] = append(ownSends[i], s)
		}
		sort.Slice(ownSends[i], func(a, b int) bool { return ownSends[i][a].t0 < ownSends[i][b].t0 })
	}
	for _, ss := range sendsBy {
		sort.Slice(ss, func(i, j int) bool { return ss[i].t0 < ss[j].t0 })
	}
	for i := range ins.hooks {
		h := ins.hooks[i].ev
		sort.SliceStable(h, func(a, b int) bool { return h[a].t < h[b].t })
	}
	var delivs []delivEv
	for i := range ins.delivs {
		for _, d := range ins.delivs[i].ev {
			if d.kind == transport.KindData && !d.bad && in(d.t0) && !ins.skipped(d.kind, d.ctx, d.tag) {
				delivs = append(delivs, d)
			}
		}
	}
	sort.Slice(delivs, func(i, j int) bool { return delivs[i].t0 < delivs[j].t0 })

	// A message reaches a rank once; later copies with the same identity
	// (ARQ duplicates, the second sender replica's copy) are dropped above
	// the fabric and wake nobody.
	seen := make(map[msgKey]bool)
	groups := make(map[msgKey][]path) // a message's copies, one per receiving replica
	var order []msgKey
	var sumFabric float64
	var nFabric int
	for _, d := range delivs {
		id := d.tok
		if d.repSeq != 0 {
			id = uint64(d.repSeq)
		}
		k := msgKey{d.epoch, d.dst, d.ctx, d.tag, id}
		if seen[k] {
			continue
		}
		seen[k] = true

		// The frame's own Send: the latest one entered before the delivery.
		ss := sendsBy[sendKey{d.epoch, d.src, d.dst, d.tok}]
		si := sort.Search(len(ss), func(i int) bool { return ss[i].t0 > d.t0 }) - 1
		if si < 0 {
			continue
		}
		p := path{d: d, s: ss[si], ls: d.src % logical, ld: d.dst % logical, tE: -1}
		fabric := float64(p.s.t1 - p.s.t0)
		if d.t1 <= p.s.t1 {
			fabric -= float64(d.t1 - d.t0) // Local delivers inside Send
		}
		sumFabric += fabric
		nFabric++

		// The send hook: the sender's latest BeforeSend to this rank and tag
		// before the message first entered the fabric (a chain forward
		// enters it a second time, from inside the primary's delivery).
		hs, hd := ins.hooks[p.ls].ev, ins.hooks[p.ld].ev
		entered := firstSend[sendKey{d.epoch, d.src, -1, d.tok}]
		a := sort.Search(len(hs), func(i int) bool { return hs[i].t > entered }) - 1
		for ; a >= 0; a-- {
			if h := hs[a]; !h.recv && h.epoch == d.epoch && h.peer == p.ld && h.tag == d.tag {
				break
			}
		}
		if a < 0 {
			continue
		}
		p.tA = hs[a].t

		match := func(h hookEv) bool {
			return h.recv && h.epoch == d.epoch && (h.peer == p.ls || h.peer < 0) && h.tag == d.tag
		}
		var r, e int
		if replicated {
			// Both replicas of a logical rank fire its hooks and one may run
			// laps behind the other, so "the next receive hook" is
			// ambiguous. Anchor on what is physically identified: this
			// rank's own next Send. The hook just before it is its send
			// hook, and the receive hook just before that is this
			// message's.
			own := ownSends[d.dst]
			n := sort.Search(len(own), func(i int) bool { return own[i].t0 > d.t0 })
			if n == len(own) {
				continue
			}
			e = sort.Search(len(hd), func(i int) bool { return hd[i].t > own[n].t0 }) - 1
			for ; e >= 0 && hd[e].recv; e-- {
			}
			for r = e - 1; r >= 0 && hd[r].t >= d.t0 && !match(hd[r]); r-- {
			}
			if r < 0 || hd[r].t < d.t0 {
				continue
			}
		} else {
			// The receive hook: the earliest unmatched AfterRecv from the
			// sender on this tag after the delivery began. The receiver's
			// own time runs until its next send, if it sends before it
			// receives again.
			r = sort.Search(len(hd), func(i int) bool { return hd[i].t >= d.t0 })
			for ; r < len(hd) && (hd[r].used || !match(hd[r])); r++ {
			}
			if r >= len(hd) {
				continue
			}
			hd[r].used = true
			e = r + 1
			if e >= len(hd) || hd[e].recv || hd[e].epoch != d.epoch {
				e = -1
			}
		}
		p.tD = hd[r].t
		if e >= 0 {
			p.tE = hd[e].t
		}
		k.rank = p.ld
		if groups[k] == nil {
			order = append(order, k)
		}
		groups[k] = append(groups[k], p)
		st.messages++
	}

	// The application moves on when the first replica of the receiving
	// rank observes the message: that copy's path is the critical one.
	var sumApp, sumSend, sumTransit, sumDeliver, sumWake float64
	var nApp int
	var rootArrivals []int64
	for _, k := range order {
		p := groups[k][0]
		for _, q := range groups[k][1:] {
			if q.tD < p.tD {
				p = q
			}
		}
		st.chainMsgs++
		sumSend += float64(p.s.t0 - p.tA)
		sumTransit += float64(p.d.t0 - p.s.t0)
		// On two cores the receiver can observe the message while the
		// delivery callback is still finishing (acks, chain forwards) on
		// the sender's goroutine; only the part before that is on the path.
		observed := min(p.d.t1, p.tD)
		sumDeliver += float64(observed - p.d.t0)
		sumWake += float64(p.tD - observed)
		if p.tE >= 0 {
			sumApp += float64(p.tE - p.tD)
			nApp++
		}
		if p.ld == 0 && p.d.tag == ringTag {
			rootArrivals = append(rootArrivals, p.tD)
		}
		if keepSpans {
			tok := p.d.tok
			st.spans = append(st.spans,
				span{"mpi.send", tok, "core.app", p.ls, p.tA, p.s.t0},
				span{"transport.transit", tok, "mpi.send", p.d.src, p.s.t0, p.d.t0},
				span{"transport.send", tok, "transport.transit", p.d.src, p.s.t0, p.s.t1},
				span{"mpi.deliver", tok, "transport.transit", p.d.dst, p.d.t0, p.d.t1},
				span{"mpi.wake", tok, "mpi.deliver", p.ld, observed, p.tD})
			if p.tE >= 0 {
				st.spans = append(st.spans, span{"core.app", tok, "mpi.wake", p.ld, p.tD, p.tE})
			}
		}
	}
	if st.chainMsgs > 0 {
		n := float64(st.chainMsgs)
		st.sendNs, st.transitNs = sumSend/n, sumTransit/n
		st.deliverNs, st.wakeNs = sumDeliver/n, sumWake/n
	}
	if nApp > 0 {
		st.appNs = sumApp / float64(nApp)
	}
	if nFabric > 0 {
		st.fabricNs = sumFabric / float64(nFabric)
	}
	st.sumNs = st.appNs + st.sendNs + st.transitNs + st.deliverNs + st.wakeNs
	sort.Slice(rootArrivals, func(i, j int) bool { return rootArrivals[i] < rootArrivals[j] })
	for i := 1; i < len(rootArrivals); i++ {
		st.rootLaps = append(st.rootLaps, float64(rootArrivals[i]-rootArrivals[i-1])/1e3)
	}
	return st
}

// writeSpans writes the spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return fmt.Errorf("write %s: %w", path, err)
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}
