package reliable

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"repro/internal/transport"
)

// fakeFabric is a scriptable in-memory fabric: mangle, if set, decides
// per send attempt what actually reaches the wire. Delivery is
// synchronous on the sender's goroutine, like transport.Local — the
// harshest reentrancy case for the reliability layer.
type fakeFabric struct {
	mu      sync.Mutex
	deliver transport.DeliverFunc
	// mangle maps one outbound packet to the packets actually delivered
	// (nil = default pass-through). It sees every attempt, including
	// retransmissions and acks.
	mangle func(pkt *transport.Packet) []*transport.Packet
	sends  int
}

func (f *fakeFabric) Start(d transport.DeliverFunc) error { f.deliver = d; return nil }
func (f *fakeFabric) Close() error                        { return nil }

func (f *fakeFabric) Send(pkt *transport.Packet) error {
	f.mu.Lock()
	f.sends++
	mangle := f.mangle
	f.mu.Unlock()
	out := []*transport.Packet{pkt}
	if mangle != nil {
		out = mangle(pkt)
	}
	for _, p := range out {
		f.deliver(p.Dst, p)
	}
	return nil
}

// sink records upstream deliveries.
type sink struct {
	mu  sync.Mutex
	got []*transport.Packet
}

func (s *sink) deliver(_ int, pkt *transport.Packet) {
	s.mu.Lock()
	s.got = append(s.got, pkt)
	s.mu.Unlock()
}

func (s *sink) packets() []*transport.Packet {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]*transport.Packet(nil), s.got...)
}

func (s *sink) waitFor(t *testing.T, n int) []*transport.Packet {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if got := s.packets(); len(got) >= n {
			return got
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %d packets (have %d)", n, len(s.packets()))
		}
		time.Sleep(time.Millisecond)
	}
}

// fastOpts keeps retransmission tests snappy.
func fastOpts() Options {
	return Options{RetryBase: time.Millisecond, RetryMax: 4 * time.Millisecond, MaxRetries: 8}
}

// inflightFrames counts the unacknowledged frames of the link src -> dst.
func inflightFrames(f *Fabric, src, dst int) int {
	n := 0
	eachLink(f, func(s, d int, tx *txLink) {
		if s == src && d == dst {
			n = len(tx.inflight)
		}
	}, nil)
	return n
}

// assertInOrderTags checks upstream delivery carries tags 0..n-1 exactly
// once, in order.
func assertInOrderTags(t *testing.T, got []*transport.Packet, n int) {
	t.Helper()
	if len(got) != n {
		t.Fatalf("delivered %d packets upstream, want %d", len(got), n)
	}
	for i, pkt := range got {
		if pkt.Tag != i {
			t.Fatalf("position %d holds tag %d — dedup or resequencing failed", i, pkt.Tag)
		}
	}
}

// TestPassThroughInOrder: over a clean fabric the layer is invisible —
// everything arrives exactly once, in order, and all acks retire.
func TestPassThroughInOrder(t *testing.T) {
	inner := &fakeFabric{}
	f := Wrap(inner, fastOpts())
	s := &sink{}
	if err := f.Start(s.deliver); err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	const n = 100
	for i := 0; i < n; i++ {
		if err := f.Send(&transport.Packet{Src: 0, Dst: 1, Tag: i, Payload: []byte{byte(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	assertInOrderTags(t, s.waitFor(t, n), n)
	if inflight := inflightFrames(f, 0, 1); inflight != 0 {
		t.Fatalf("%d frames still inflight after synchronous acks", inflight)
	}
}

// TestRetransmitOnLoss drops the first wire attempt of every data frame:
// retransmission must deliver all of them exactly once, in order.
func TestRetransmitOnLoss(t *testing.T) {
	inner := &fakeFabric{}
	seen := make(map[uint64]bool)
	var mu sync.Mutex
	inner.mangle = func(pkt *transport.Packet) []*transport.Packet {
		if pkt.Kind == transport.KindAck {
			return []*transport.Packet{pkt}
		}
		mu.Lock()
		defer mu.Unlock()
		if !seen[pkt.Seq] {
			seen[pkt.Seq] = true
			return nil // first attempt lost
		}
		return []*transport.Packet{pkt}
	}
	var events []Event
	var evMu sync.Mutex
	f := Wrap(inner, fastOpts())
	f.Observe(func(e Event) {
		evMu.Lock()
		events = append(events, e)
		evMu.Unlock()
	})
	s := &sink{}
	if err := f.Start(s.deliver); err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	const n = 20
	for i := 0; i < n; i++ {
		if err := f.Send(&transport.Packet{Src: 0, Dst: 1, Tag: i, Payload: []byte{byte(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	assertInOrderTags(t, s.waitFor(t, n), n)
	evMu.Lock()
	retries := 0
	for _, e := range events {
		if e.Kind == EvRetry {
			retries++
		}
	}
	evMu.Unlock()
	if retries < n {
		t.Fatalf("observed %d retries, want >= %d (every first attempt was lost)", retries, n)
	}
}

// TestDedupOnDuplicate doubles every wire frame: upstream must still see
// each exactly once.
func TestDedupOnDuplicate(t *testing.T) {
	inner := &fakeFabric{}
	inner.mangle = func(pkt *transport.Packet) []*transport.Packet {
		return []*transport.Packet{pkt, pkt.Clone()}
	}
	f := Wrap(inner, fastOpts())
	s := &sink{}
	if err := f.Start(s.deliver); err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	const n = 50
	for i := 0; i < n; i++ {
		if err := f.Send(&transport.Packet{Src: 0, Dst: 1, Tag: i, Payload: []byte{byte(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(20 * time.Millisecond) // allow any spurious duplicate through
	assertInOrderTags(t, s.waitFor(t, n), n)
}

// TestReorderResequenced swaps adjacent wire frames: upstream delivery
// must still be in sequence order.
func TestReorderResequenced(t *testing.T) {
	inner := &fakeFabric{}
	var held *transport.Packet
	var mu sync.Mutex
	inner.mangle = func(pkt *transport.Packet) []*transport.Packet {
		if pkt.Kind == transport.KindAck {
			return []*transport.Packet{pkt}
		}
		mu.Lock()
		defer mu.Unlock()
		if held == nil {
			held = pkt
			return nil
		}
		out := []*transport.Packet{pkt, held} // newer first: swapped
		held = nil
		return out
	}
	f := Wrap(inner, fastOpts())
	s := &sink{}
	if err := f.Start(s.deliver); err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	const n = 40
	for i := 0; i < n; i++ {
		if err := f.Send(&transport.Packet{Src: 0, Dst: 1, Tag: i, Payload: []byte{byte(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	assertInOrderTags(t, s.waitFor(t, n), n)
}

// TestCorruptionRejectedThenRecovered corrupts the first wire attempt of
// one frame: the CRC check must reject it (no corrupted payload reaches
// upstream) and the retransmission must deliver the intact original.
func TestCorruptionRejectedThenRecovered(t *testing.T) {
	inner := &fakeFabric{}
	corrupted := false
	var mu sync.Mutex
	inner.mangle = func(pkt *transport.Packet) []*transport.Packet {
		mu.Lock()
		defer mu.Unlock()
		if pkt.Kind != transport.KindAck && pkt.Seq == 3 && !corrupted {
			corrupted = true
			bad := pkt.Clone()
			bad.Payload[0] ^= 0xff
			return []*transport.Packet{bad}
		}
		return []*transport.Packet{pkt}
	}
	var rejects int
	var evMu sync.Mutex
	f := Wrap(inner, fastOpts())
	f.Observe(func(e Event) {
		if e.Kind == EvReject {
			evMu.Lock()
			rejects++
			evMu.Unlock()
		}
	})
	s := &sink{}
	if err := f.Start(s.deliver); err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	const n = 5
	want := make([][]byte, n)
	for i := 0; i < n; i++ {
		want[i] = []byte{byte(10 + i), byte(20 + i)}
		if err := f.Send(&transport.Packet{Src: 0, Dst: 1, Tag: i, Payload: want[i]}); err != nil {
			t.Fatal(err)
		}
	}
	got := s.waitFor(t, n)
	assertInOrderTags(t, got, n)
	for i, pkt := range got {
		if !bytes.Equal(pkt.Payload, want[i]) {
			t.Fatalf("payload %d corrupted above the reliability layer: %v", i, pkt.Payload)
		}
	}
	evMu.Lock()
	defer evMu.Unlock()
	if rejects != 1 {
		t.Fatalf("observed %d CRC rejects, want 1", rejects)
	}
}

// TestEscalationOnDeadLink blackholes every frame toward rank 1: the
// retry budget must exhaust and report rank 1 to the escalation callback
// exactly once, after which sends to it drop silently without retrying.
func TestEscalationOnDeadLink(t *testing.T) {
	inner := &fakeFabric{}
	inner.mangle = func(pkt *transport.Packet) []*transport.Packet {
		if pkt.Dst == 1 {
			return nil // partitioned
		}
		return []*transport.Packet{pkt}
	}
	escalated := make(chan int, 4)
	f := Wrap(inner, fastOpts())
	f.Escalate(func(peer int) { escalated <- peer })
	s := &sink{}
	if err := f.Start(s.deliver); err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := f.Send(&transport.Packet{Src: 0, Dst: 1, Tag: 0, Payload: []byte("doomed")}); err != nil {
		t.Fatal(err)
	}
	if err := f.Send(&transport.Packet{Src: 0, Dst: 2, Tag: 0, Payload: []byte("fine")}); err != nil {
		t.Fatal(err)
	}
	select {
	case peer := <-escalated:
		if peer != 1 {
			t.Fatalf("escalated peer %d, want 1", peer)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("retry exhaustion never escalated")
	}
	// The healthy link was unaffected.
	got := s.waitFor(t, 1)
	if got[0].Dst != 2 {
		t.Fatalf("unexpected upstream packet %v", got[0])
	}
	// Post-escalation sends are silent drops: no retries, no 2nd escalation.
	if err := f.Send(&transport.Packet{Src: 0, Dst: 1, Tag: 1}); err != nil {
		t.Fatalf("send to escalated peer must drop silently, got %v", err)
	}
	select {
	case peer := <-escalated:
		t.Fatalf("peer %d escalated twice", peer)
	case <-time.After(50 * time.Millisecond):
	}
}

// TestUnsequencedPassThrough: packets with Seq 0 from a world without the
// sublayer's sender half (defensive robustness) pass straight upstream.
func TestUnsequencedPassThrough(t *testing.T) {
	inner := &fakeFabric{}
	f := Wrap(inner, fastOpts())
	s := &sink{}
	if err := f.Start(s.deliver); err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	inner.deliver(1, &transport.Packet{Src: 0, Dst: 1, Tag: 9})
	if got := s.waitFor(t, 1); got[0].Tag != 9 {
		t.Fatalf("unsequenced packet mangled: %v", got[0])
	}
}

// frameKey names one frame: its link and its ARQ sequence number.
type frameKey struct {
	src, dst int
	seq      uint64
}

// retireLog counts ack-retire callbacks per (src, dst, seq).
type retireLog struct {
	mu    sync.Mutex
	fired map[frameKey]int
}

func (r *retireLog) record(pkt *transport.Packet) {
	r.mu.Lock()
	if r.fired == nil {
		r.fired = make(map[frameKey]int)
	}
	r.fired[frameKey{src: pkt.Src, dst: pkt.Dst, seq: pkt.Seq}]++
	r.mu.Unlock()
}

func (r *retireLog) total() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, c := range r.fired {
		n += c
	}
	return n
}

// waitExactlyOnce waits until frames 1..n of the link 0 -> 1 have each
// retired, then checks none retired twice.
func (r *retireLog) waitExactlyOnce(t *testing.T, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for r.total() < n {
		if time.Now().After(deadline) {
			t.Fatalf("timed out: %d of %d frames retired", r.total(), n)
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(10 * time.Millisecond) // room for a late duplicate ack to misfire
	r.mu.Lock()
	defer r.mu.Unlock()
	for seq := uint64(1); seq <= uint64(n); seq++ {
		if c := r.fired[frameKey{src: 0, dst: 1, seq: seq}]; c != 1 {
			t.Fatalf("frame seq %d retired %d times, want exactly once", seq, c)
		}
	}
	if len(r.fired) != n {
		t.Fatalf("callback fired for %d distinct frames, want %d", len(r.fired), n)
	}
}

// TestAckRetireExactlyOnce: whatever the wire does to a frame and its
// acks, the ack-retire callback sees the frame once.
func TestAckRetireExactlyOnce(t *testing.T) {
	pass := func(pkt *transport.Packet) []*transport.Packet { return []*transport.Packet{pkt} }
	cases := map[string]func() func(*transport.Packet) []*transport.Packet{
		// Every frame, acks included, arrives twice.
		"duplicate delivery": func() func(*transport.Packet) []*transport.Packet {
			return func(pkt *transport.Packet) []*transport.Packet {
				return []*transport.Packet{pkt, pkt.Clone()}
			}
		},
		// The first ack of every frame is lost: the retransmission is a
		// duplicate at the receiver, which re-acks it.
		"lost ack, retransmit, re-ack": func() func(*transport.Packet) []*transport.Packet {
			var mu sync.Mutex
			acked := make(map[uint64]bool)
			return func(pkt *transport.Packet) []*transport.Packet {
				if pkt.Kind != transport.KindAck {
					return pass(pkt)
				}
				mu.Lock()
				defer mu.Unlock()
				if !acked[pkt.Seq] {
					acked[pkt.Seq] = true
					return nil
				}
				return pass(pkt)
			}
		},
		// Adjacent data frames swap on the wire, so acks come back out of
		// sequence order too.
		"reorder": func() func(*transport.Packet) []*transport.Packet {
			var mu sync.Mutex
			var held *transport.Packet
			return func(pkt *transport.Packet) []*transport.Packet {
				if pkt.Kind == transport.KindAck {
					return pass(pkt)
				}
				mu.Lock()
				defer mu.Unlock()
				if held == nil {
					held = pkt
					return nil
				}
				out := []*transport.Packet{pkt, held}
				held = nil
				return out
			}
		},
	}
	for name, mangle := range cases {
		t.Run(name, func(t *testing.T) {
			inner := &fakeFabric{mangle: mangle()}
			f := Wrap(inner, fastOpts())
			var log retireLog
			f.OnAckRetire(log.record)
			s := &sink{}
			if err := f.Start(s.deliver); err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			const n = 40
			for i := 0; i < n; i++ {
				if err := f.Send(&transport.Packet{Src: 0, Dst: 1, Tag: i, Payload: []byte{byte(i)}}); err != nil {
					t.Fatal(err)
				}
			}
			assertInOrderTags(t, s.waitFor(t, n), n)
			log.waitExactlyOnce(t, n)
		})
	}
}

// TestAckRetireNeverForPurgedFrames: a frame that leaves the inflight
// table any other way than by its ack — PeerDown, PeerUp, escalation,
// Close — was not confirmed by anybody and must not be reported as if.
func TestAckRetireNeverForPurgedFrames(t *testing.T) {
	purges := map[string]func(f *Fabric, escalated <-chan int){
		"PeerDown": func(f *Fabric, _ <-chan int) { f.PeerDown(1) },
		"PeerUp":   func(f *Fabric, _ <-chan int) { f.PeerUp(1) },
		"Close":    func(f *Fabric, _ <-chan int) { f.Close() },
		"escalation": func(_ *Fabric, escalated <-chan int) {
			<-escalated
		},
	}
	for name, purge := range purges {
		t.Run(name, func(t *testing.T) {
			inner := &fakeFabric{mangle: func(pkt *transport.Packet) []*transport.Packet {
				if pkt.Dst == 1 {
					return nil // blackhole: nothing toward rank 1 is ever acked
				}
				return []*transport.Packet{pkt}
			}}
			f := Wrap(inner, fastOpts())
			var log retireLog
			f.OnAckRetire(log.record)
			escalated := make(chan int, 1)
			f.Escalate(func(peer int) { escalated <- peer })
			var purged int
			var evMu sync.Mutex
			f.Observe(func(e Event) {
				if e.Kind == EvPurged {
					evMu.Lock()
					purged++
					evMu.Unlock()
				}
			})
			s := &sink{}
			if err := f.Start(s.deliver); err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			const n = 3
			for i := 0; i < n; i++ {
				if err := f.Send(&transport.Packet{Src: 0, Dst: 1, Tag: i, Payload: []byte{byte(i)}}); err != nil {
					t.Fatal(err)
				}
			}
			purge(f, escalated)
			evMu.Lock()
			got := purged
			evMu.Unlock()
			if got != n {
				t.Fatalf("%d frames reported purged, want %d", got, n)
			}
			if c := log.total(); c != 0 {
				t.Fatalf("ack-retire fired %d times for frames that were purged, never acked", c)
			}
		})
	}
}

// TestAckRetireInLinkOrder: a frame acked while an earlier one of its link
// is still unacknowledged is not retired until the gap is: the retransmitted
// first frame retires all three, in sequence order. If the link is purged
// before the gap is filled, the frames acked behind it are
// reported purged and never retired.
func TestAckRetireInLinkOrder(t *testing.T) {
	for _, fill := range []bool{true, false} {
		t.Run(map[bool]string{true: "gap filled", false: "gap purged"}[fill], func(t *testing.T) {
			var mu sync.Mutex
			copies := 0
			inner := &fakeFabric{mangle: func(pkt *transport.Packet) []*transport.Packet {
				mu.Lock()
				defer mu.Unlock()
				if pkt.Kind == transport.KindData && pkt.Seq == 1 {
					if copies++; copies == 1 || !fill {
						return nil // the first frame's first copy is lost (every copy, unfilled)
					}
				}
				return []*transport.Packet{pkt}
			}}
			f := Wrap(inner, fastOpts())
			var order []uint64
			retired := make(chan struct{}, 3)
			f.OnAckRetire(func(pkt *transport.Packet) {
				mu.Lock()
				order = append(order, pkt.Seq)
				mu.Unlock()
				retired <- struct{}{}
			})
			purged := make(chan uint64, 8)
			f.Observe(func(e Event) {
				if e.Kind == EvPurged {
					purged <- e.Seq
				}
			})
			if err := f.Start(func(int, *transport.Packet) {}); err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			for i := 0; i < 3; i++ {
				if err := f.Send(&transport.Packet{Src: 0, Dst: 1, Tag: i, Payload: []byte{byte(i)}}); err != nil {
					t.Fatal(err)
				}
			}
			if !fill {
				f.PeerDown(1)
				got := map[uint64]bool{<-purged: true, <-purged: true, <-purged: true}
				if len(got) != 3 {
					t.Fatalf("purged %v, want frames 1 to 3 once each", got)
				}
				mu.Lock()
				defer mu.Unlock()
				if len(order) != 0 {
					t.Fatalf("retired %v behind a gap the purge left open", order)
				}
				return
			}
			for i := 0; i < 3; i++ {
				select {
				case <-retired:
				case <-time.After(5 * time.Second):
					t.Fatal("the retransmission never retired the link")
				}
			}
			mu.Lock()
			defer mu.Unlock()
			if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
				t.Fatalf("retired in order %v, want [1 2 3]", order)
			}
		})
	}
}

// TestAckRoundTripAllocatesNothing pins the clean Send -> deliver -> ack
// -> retire round trip at zero heap allocations with no ack-retire
// callback registered: the inflight record lives by value in its table
// and ack packets are pooled. This is the path a lossy but unreplicated
// world pays on every frame.
func TestAckRoundTripAllocatesNothing(t *testing.T) {
	inner := &fakeFabric{}
	f := Wrap(inner, fastOpts())
	if err := f.Start(func(int, *transport.Packet) {}); err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	pkt := &transport.Packet{Src: 0, Dst: 1, Payload: []byte("x")}
	roundTrip := func() {
		pkt.Seq = 0 // retired by its synchronous ack: free to send again
		if err := f.Send(pkt); err != nil {
			t.Fatal(err)
		}
	}
	roundTrip() // link state and the first pooled ack are one-time costs
	if allocs := testing.AllocsPerRun(200, roundTrip); allocs != 0 {
		t.Fatalf("clean round trip allocates %.1f objects, want 0", allocs)
	}
	if inflight := inflightFrames(f, 0, 1); inflight != 0 {
		t.Fatalf("%d frames still inflight: the round trip did not complete", inflight)
	}
}
