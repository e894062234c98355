package reliable

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/transport"
)

// awaitLoopState waits for the retry goroutine to reach the given state.
func awaitLoopState(t *testing.T, f *Fabric, want int32) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for f.retry.state.Load() != want {
		if time.Now().After(deadline) {
			t.Fatalf("retry goroutine in state %d, want %d", f.retry.state.Load(), want)
		}
		time.Sleep(50 * time.Microsecond)
	}
}

// TestRetryLoopIdleCostsNothing: with nothing unacknowledged the retry
// goroutine is parked on its wake channel — it never arms a timer in that
// state — and stays there: no wake-up, no pass over the link tables.
func TestRetryLoopIdleCostsNothing(t *testing.T) {
	f := Wrap(&fakeFabric{}, Options{})
	if err := f.Start(func(int, *transport.Packet) {}); err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	awaitLoopState(t, f, loopParked)
	time.Sleep(100 * time.Millisecond)
	if s := f.retry.state.Load(); s != loopParked {
		t.Fatalf("retry goroutine left the parked state (now %d) with nothing to do", s)
	}
	if w, s := f.retry.wakes.Load(), f.retry.scans.Load(); w != 0 || s != 0 {
		t.Fatalf("idle for 100ms: %d wake-ups and %d scans, want none", w, s)
	}
}

// TestCleanPathNeverWakesTheRetryLoop: over the synchronous Local fabric
// a frame's ack is back before Send returns, so ten thousand sends leave
// the retry goroutine parked — also with an ack-retire callback, which is
// what replication runs on every hop.
func TestCleanPathNeverWakesTheRetryLoop(t *testing.T) {
	for _, retire := range []bool{false, true} {
		f := Wrap(transport.NewLocal(), Options{})
		if retire {
			f.OnAckRetire(func(transport.Packet) {})
		}
		if err := f.Start(func(int, *transport.Packet) {}); err != nil {
			t.Fatal(err)
		}
		awaitLoopState(t, f, loopParked)
		for i := 0; i < 10000; i++ {
			if err := f.Send(&transport.Packet{Src: i % 4, Dst: 4 + i%3, Payload: []byte("x")}); err != nil {
				t.Fatal(err)
			}
		}
		if w, s := f.retry.wakes.Load(), f.retry.scans.Load(); w != 0 || s != 0 {
			t.Fatalf("retire=%v: 10000 clean sends caused %d wake-ups and %d scans, want none", retire, w, s)
		}
		if n := f.retry.watched.Load(); n != 0 {
			t.Fatalf("retire=%v: %d frames left for the retry goroutine to watch", retire, n)
		}
		f.Close()
	}
}

// TestLossRecoveredWithinOneMillisecond: at a 100µs timeout, with every
// other goroutine parked — the state in which a Go timer rounds up to a
// millisecond — a frame dropped once is on the wire again well inside one
// millisecond. The fixed 2ms timeout on a 1ms ticker took 2-3ms. RetryBase
// and RetryMax pin the timeout from both sides, so a noisy machine cannot
// measure itself a longer one and the test never has a reason to skip.
func TestLossRecoveredWithinOneMillisecond(t *testing.T) {
	const floor = 100 * time.Microsecond
	inner := &fakeFabric{}
	var mu sync.Mutex
	dropNext := false
	passed := make(chan time.Time, 1)
	inner.mangle = func(pkt *transport.Packet) []*transport.Packet {
		if pkt.Kind != transport.KindData {
			return []*transport.Packet{pkt}
		}
		mu.Lock()
		defer mu.Unlock()
		if dropNext {
			dropNext = false
			return nil
		}
		select {
		case passed <- time.Now():
		default:
		}
		return []*transport.Packet{pkt}
	}
	f := Wrap(inner, Options{RetryBase: floor, RetryMax: floor})
	if err := f.Start(func(int, *transport.Packet) {}); err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	send := func() {
		if err := f.Send(&transport.Packet{Src: 0, Dst: 1, Payload: []byte("x")}); err != nil {
			t.Fatal(err)
		}
	}
	const losses = 50
	took := make([]time.Duration, 0, losses)
	for i := 0; i < losses; i++ {
		// A clean frame between the losses, as on a real lossy link: its ack
		// comes back inside Send, which is what tells the layer the link is
		// synchronous and a frame still unacknowledged is worth spinning for.
		send()
		<-passed
		if rto := f.LinkRTO(0, 1); rto != floor {
			t.Fatalf("RTO %v, want it pinned to %v", rto, floor)
		}
		awaitLoopState(t, f, loopParked)
		mu.Lock()
		dropNext = true
		mu.Unlock()
		start := time.Now()
		send()
		took = append(took, (<-passed).Sub(start)) // parked here until the retransmission
	}
	sort.Slice(took, func(i, j int) bool { return took[i] < took[j] })
	median := took[losses/2]
	t.Logf("retransmission after a loss: median %v, min %v, max %v", median, took[0], took[losses-1])
	if took[0] < floor {
		t.Fatalf("retransmitted after %v, before the %v timeout", took[0], floor)
	}
	if median >= time.Millisecond {
		t.Fatalf("median %v, want under 1ms: the deadline wait is not working", median)
	}
}

// TestCloseDuringSpin: Close while the retry goroutine is spinning
// towards a deadline returns promptly, and every frame it abandons is
// reported purged exactly once.
func TestCloseDuringSpin(t *testing.T) {
	inner := &fakeFabric{}
	f := Wrap(inner, Options{})
	var mu sync.Mutex
	purged := make(map[uint64]int)
	f.Observe(func(e Event) {
		if e.Kind == EvPurged {
			mu.Lock()
			purged[e.Seq]++
			mu.Unlock()
		}
	})
	if err := f.Start(func(int, *transport.Packet) {}); err != nil {
		t.Fatal(err)
	}
	send := func() {
		if err := f.Send(&transport.Packet{Src: 0, Dst: 1, Payload: []byte("x")}); err != nil {
			t.Fatal(err)
		}
	}
	send() // a round-trip sample, so the deadlines below are inside the spin window
	inner.mu.Lock()
	inner.mangle = func(pkt *transport.Packet) []*transport.Packet { return nil }
	inner.mu.Unlock()
	const n = 3
	for i := 0; i < n; i++ {
		send()
	}
	awaitLoopState(t, f, loopSpinning)
	start := time.Now()
	f.Close()
	if took := time.Since(start); took > 100*time.Millisecond {
		t.Fatalf("Close took %v with the retry goroutine spinning", took)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(purged) != n {
		t.Fatalf("%d distinct frames reported purged, want %d: %v", len(purged), n, purged)
	}
	for seq, c := range purged {
		if c != 1 {
			t.Fatalf("frame seq %d reported purged %d times", seq, c)
		}
	}
	if w := f.retry.watched.Load(); w != 0 {
		t.Fatalf("%d frames still counted as watched after Close", w)
	}
}

// asyncFabric delivers from a goroutine of its own, so Send returns before
// the frame has arrived and long before its ack is back: what TCP does.
type asyncFabric struct {
	deliver transport.DeliverFunc
	queue   chan *transport.Packet
	done    chan struct{}
	// drop, if set, is asked once per data frame whether to lose it.
	drop func(pkt *transport.Packet) bool
}

func newAsyncFabric() *asyncFabric {
	return &asyncFabric{queue: make(chan *transport.Packet, 64), done: make(chan struct{})}
}

func (a *asyncFabric) Start(d transport.DeliverFunc) error {
	a.deliver = d
	go func() {
		for {
			select {
			case pkt := <-a.queue:
				a.deliver(pkt.Dst, pkt)
			case <-a.done:
				return
			}
		}
	}()
	return nil
}

func (a *asyncFabric) Close() error { close(a.done); return nil }

func (a *asyncFabric) Send(pkt *transport.Packet) error {
	if pkt.Kind == transport.KindData && a.drop != nil && a.drop(pkt) {
		return nil
	}
	a.queue <- pkt.Clone() // acks are recycled when Send returns
	return nil
}

// TestAsyncLinkIsLeftToTheTimer: on a link whose acks arrive after Send has
// returned every frame is unacknowledged at that point, so it says nothing
// about loss. The retry goroutine must not serve such a link like a lossy
// synchronous one — woken by every Send, spinning until every ack — but
// from a timer: about one scan per millisecond however many frames pass. A
// frame really lost on the link is still retransmitted.
func TestAsyncLinkIsLeftToTheTimer(t *testing.T) {
	inner := newAsyncFabric()
	const warm, n = 4 * lateMax, 5000
	var copies atomic.Int64 // of the frame after those: its first copy is lost
	inner.drop = func(pkt *transport.Packet) bool {
		return pkt.Seq == warm+n+1 && copies.Add(1) == 1
	}
	f := Wrap(inner, Options{})
	acked := make(chan struct{}, 1)
	f.OnAckRetire(func(transport.Packet) { acked <- struct{}{} })
	if err := f.Start(func(int, *transport.Packet) {}); err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	roundTrip := func() {
		if err := f.Send(&transport.Packet{Src: 0, Dst: 1, Payload: []byte("x")}); err != nil {
			t.Fatal(err)
		}
		<-acked
	}
	for i := 0; i < warm; i++ { // let the link show what it is
		roundTrip()
	}
	scans, start := f.retry.scans.Load(), time.Now()
	for i := 0; i < n; i++ {
		roundTrip()
	}
	scans, elapsed := f.retry.scans.Load()-scans, time.Since(start)
	t.Logf("%d round trips in %v: %d scans", n, elapsed, scans)
	if limit := 2*elapsed.Milliseconds() + 20; scans > limit {
		t.Fatalf("%d scans for %d clean round trips in %v, want at most %d: the loop is chasing acks that are merely on their way", scans, n, elapsed, limit)
	}
	roundTrip() // returns only once a retransmission was acknowledged
	if c := copies.Load(); c < 2 {
		t.Fatalf("the lost frame went out %d times, want a retransmission", c)
	}
}

// TestLateScoreClassifiesTheLink drives the score by hand: a link starts
// out synchronous, so a late frame gets a spin deadline; lateAsync late
// Sends in a row make it asynchronous and its frames go to the timer;
// Sends acknowledged inside the inner Send bring it back.
func TestLateScoreClassifiesTheLink(t *testing.T) {
	m := newManual(t, Options{})
	var held []*transport.Packet
	holdAcks := func(hold bool) {
		m.inner.mu.Lock()
		defer m.inner.mu.Unlock()
		m.inner.mangle = nil
		if hold {
			m.inner.mangle = func(pkt *transport.Packet) []*transport.Packet {
				if pkt.Kind == transport.KindAck {
					held = append(held, pkt.Clone())
					return nil
				}
				return []*transport.Packet{pkt}
			}
		}
	}
	lateSend := func() (spin, timer bool) {
		m.send(t, 0, 1)
		spin, timer = m.retry.spinDue.Load() != math.MaxInt64, m.retry.timerDue.Load() != math.MaxInt64
		for _, ack := range held {
			m.onDeliver(ack.Dst, ack)
		}
		held = held[:0]
		m.scan() // nothing is inflight: both deadlines reset
		return spin, timer
	}
	holdAcks(true)
	for i := 0; i < lateAsync; i++ {
		if spin, timer := lateSend(); !spin || timer {
			t.Fatalf("late send %d on a fresh link: spin deadline %v, timer deadline %v", i+1, spin, timer)
		}
	}
	for i := 0; i < 3; i++ {
		if spin, timer := lateSend(); spin || !timer {
			t.Fatalf("late send %d: spin deadline %v, timer deadline %v, want the timer only", lateAsync+i+1, spin, timer)
		}
	}
	holdAcks(false)
	for i := 0; i < 3+1; i++ { // the score is lateAsync+3; one more and it is below
		m.send(t, 0, 1)
	}
	holdAcks(true)
	if spin, timer := lateSend(); !spin || timer {
		t.Fatalf("late send after %d clean ones: spin deadline %v, timer deadline %v", 4, spin, timer)
	}
}
