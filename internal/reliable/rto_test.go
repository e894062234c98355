package reliable

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/transport"
)

// fakeClock is the hand-driven replacement for Fabric.now.
type fakeClock struct{ ns atomic.Int64 }

func (c *fakeClock) now() int64              { return c.ns.Load() }
func (c *fakeClock) advance(d time.Duration) { c.ns.Add(int64(d)) }
func (c *fakeClock) set(ns int64)            { c.ns.Store(ns) }

// manual is a fabric on a fake clock whose retry goroutine is never
// started: the test calls scan, so every retransmission happens at a time
// and in an order the test chose.
type manual struct {
	*Fabric
	clk   *fakeClock
	inner *fakeFabric

	mu     sync.Mutex
	events []Event
}

func newManual(t *testing.T, opts Options) *manual {
	t.Helper()
	m := &manual{clk: &fakeClock{}, inner: &fakeFabric{}}
	m.Fabric = Wrap(m.inner, opts)
	m.Fabric.now = m.clk.now
	m.Observe(func(e Event) {
		m.mu.Lock()
		m.events = append(m.events, e)
		m.mu.Unlock()
	})
	m.deliver = func(int, *transport.Packet) {}
	if err := m.inner.Start(m.onDeliver); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	return m
}

func (m *manual) scan() { m.retransmitOverdue() }

// scanAtDeadline moves the clock to the earliest due time and scans.
func (m *manual) scanAtDeadline() {
	m.clk.set(min(m.retry.spinDue.Load(), m.retry.timerDue.Load()))
	m.scan()
}

func (m *manual) send(t *testing.T, src, dst int) *transport.Packet {
	t.Helper()
	pkt := &transport.Packet{Src: src, Dst: dst, Payload: []byte("x")}
	if err := m.Send(pkt); err != nil {
		t.Fatal(err)
	}
	return pkt
}

func (m *manual) count(kind EventKind) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for _, e := range m.events {
		if e.Kind == kind {
			n++
		}
	}
	return n
}

func (m *manual) backoffs() []time.Duration {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []time.Duration
	for _, e := range m.events {
		if e.Kind == EvRetry {
			out = append(out, e.Backoff)
		}
	}
	return out
}

// roundTrips makes every ack take rtt on the fake clock.
func (m *manual) roundTrips(rtt time.Duration) {
	m.inner.mu.Lock()
	m.inner.mangle = func(pkt *transport.Packet) []*transport.Packet {
		if pkt.Kind == transport.KindAck {
			m.clk.advance(rtt)
		}
		return []*transport.Packet{pkt}
	}
	m.inner.mu.Unlock()
}

// blackhole drops every frame towards dst, acks included.
func (m *manual) blackhole(dst int) {
	m.inner.mu.Lock()
	m.inner.mangle = func(pkt *transport.Packet) []*transport.Packet {
		if pkt.Dst == dst {
			return nil
		}
		return []*transport.Packet{pkt}
	}
	m.inner.mu.Unlock()
}

// within reports whether got is within one part in tol of want.
func within(got, want time.Duration, tol int64) bool {
	d := int64(got - want)
	if d < 0 {
		d = -d
	}
	return d <= int64(want)/tol
}

// TestEstimatorConverges: on a constant round trip the smoothed value
// becomes that constant and the deviation dies out; after a step to a
// longer round trip the timeout overshoots at once (the deviation term)
// and both settle on the new value.
func TestEstimatorConverges(t *testing.T) {
	var e rttEstimator
	timeout := func() time.Duration { return e.srtt + 4*e.rttvar }
	e.observe(40 * time.Microsecond)
	if e.srtt != 40*time.Microsecond || e.rttvar != 20*time.Microsecond {
		t.Fatalf("first sample: srtt %v rttvar %v, want 40µs and half of it", e.srtt, e.rttvar)
	}
	for i := 0; i < 100; i++ {
		e.observe(40 * time.Microsecond)
	}
	if e.srtt != 40*time.Microsecond || e.rttvar > 100*time.Nanosecond {
		t.Fatalf("constant 40µs: srtt %v rttvar %v", e.srtt, e.rttvar)
	}
	e.observe(400 * time.Microsecond)
	if timeout() < 400*time.Microsecond {
		t.Fatalf("one sample after the step the timeout is %v, below the new round trip", timeout())
	}
	for i := 0; i < 100; i++ {
		e.observe(400 * time.Microsecond)
	}
	if !within(e.srtt, 400*time.Microsecond, 100) || !within(timeout(), 400*time.Microsecond, 50) {
		t.Fatalf("stepped to 400µs: srtt %v timeout %v", e.srtt, timeout())
	}
}

// TestLinkRTOFollowsTheAcks: 2ms until the first ack, then SRTT+4*RTTVAR
// of the link's own round trips, never below the default floor, and per
// link.
func TestLinkRTOFollowsTheAcks(t *testing.T) {
	m := newManual(t, Options{})
	if got := m.LinkRTO(0, 1); got != 2*time.Millisecond {
		t.Fatalf("RTO before any sample %v, want 2ms", got)
	}
	m.roundTrips(time.Millisecond)
	m.send(t, 0, 1)
	// First sample: SRTT = R, RTTVAR = R/2.
	if got := m.LinkRTO(0, 1); got != 3*time.Millisecond {
		t.Fatalf("RTO after one 1ms sample %v, want 3ms", got)
	}
	for i := 0; i < 60; i++ {
		m.send(t, 0, 1)
	}
	if got := m.LinkRTO(0, 1); !within(got, time.Millisecond, 50) {
		t.Fatalf("RTO after 61 samples of 1ms %v", got)
	}
	m.roundTrips(time.Microsecond)
	for i := 0; i < 100; i++ {
		m.send(t, 0, 1)
	}
	if got := m.LinkRTO(0, 1); got != defaultRetryBase {
		t.Fatalf("RTO on a 1µs link %v, want the %v floor", got, defaultRetryBase)
	}
	if got := m.LinkRTO(0, 2); got != 2*time.Millisecond {
		t.Fatalf("RTO of a link that never sent %v, want 2ms", got)
	}
}

// TestRetransmittedFrameGivesNoSample is Karn's rule: the ack of a frame
// that was sent twice may answer either copy, so it must not move the
// estimate. The next frame that goes through at once does.
func TestRetransmittedFrameGivesNoSample(t *testing.T) {
	m := newManual(t, Options{})
	dropped := false
	m.inner.mangle = func(pkt *transport.Packet) []*transport.Packet {
		if pkt.Kind == transport.KindData && !dropped {
			dropped = true
			return nil
		}
		return []*transport.Packet{pkt}
	}
	m.send(t, 0, 1)
	m.clk.advance(2*time.Millisecond - time.Nanosecond)
	m.scan()
	if n := m.count(EvRetry); n != 0 {
		t.Fatalf("%d retries before the 2ms initial timeout ran out", n)
	}
	m.clk.advance(time.Nanosecond)
	m.scan() // retransmits; the copy is delivered and acknowledged
	if n := m.count(EvRetry); n != 1 {
		t.Fatalf("%d retries at the timeout, want 1", n)
	}
	if n := inflightFrames(m.Fabric, 0, 1); n != 0 {
		t.Fatalf("%d frames inflight after the retransmission was acknowledged", n)
	}
	if got := m.LinkRTO(0, 1); got != 2*time.Millisecond {
		t.Fatalf("the ack of a retransmitted frame moved the RTO to %v", got)
	}
	m.roundTrips(250 * time.Microsecond)
	m.send(t, 0, 1)
	if got := m.LinkRTO(0, 1); got != 750*time.Microsecond {
		t.Fatalf("RTO after the first clean frame %v, want 750µs", got)
	}
}

// TestBackoffDoublesUpToRetryMax: the first retry waits one more timeout,
// every later one twice the one before, and none longer than RetryMax. The
// estimate does not move meanwhile: nothing is acknowledged.
func TestBackoffDoublesUpToRetryMax(t *testing.T) {
	m := newManual(t, Options{RetryBase: 100 * time.Microsecond, RetryMax: time.Millisecond, MaxRetries: 100})
	m.roundTrips(time.Microsecond)
	m.send(t, 0, 1) // RTO is now the 100µs floor
	m.blackhole(1)
	m.send(t, 0, 1)
	sent := m.clk.now()
	for i := 0; i < 8; i++ {
		m.scanAtDeadline()
	}
	us := time.Microsecond
	want := []time.Duration{100 * us, 200 * us, 400 * us, 800 * us, 1000 * us, 1000 * us, 1000 * us, 1000 * us}
	got := m.backoffs()
	if len(got) != len(want) {
		t.Fatalf("%d retries, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("backoffs %v, want %v", got, want)
		}
	}
	// Retry k happened one timeout plus the first k-1 backoffs after the send.
	if at := time.Duration(m.clk.now() - sent); at != (100+100+200+400+800+3000)*us {
		t.Fatalf("eighth retry %v after the send", at)
	}
	if got := m.LinkRTO(0, 1); got != 100*us {
		t.Fatalf("RTO %v after unanswered retries, want 100µs", got)
	}
}

// TestExplicitRetryBaseIsAHardFloor: whatever the link measures, a frame
// is not retransmitted before RetryBase has passed. One minute is what
// TestChainArqFrameCensus uses to rule retransmission out.
func TestExplicitRetryBaseIsAHardFloor(t *testing.T) {
	for _, base := range []time.Duration{5 * time.Millisecond, time.Minute} {
		m := newManual(t, Options{RetryBase: base})
		if got := m.LinkRTO(0, 1); got != base {
			t.Fatalf("RetryBase %v: RTO before any sample %v", base, got)
		}
		m.roundTrips(time.Microsecond)
		for i := 0; i < 50; i++ {
			m.send(t, 0, 1)
		}
		if got := m.LinkRTO(0, 1); got != base {
			t.Fatalf("RetryBase %v: RTO on a 1µs link %v", base, got)
		}
		m.blackhole(1)
		m.send(t, 0, 1)
		m.clk.advance(base - time.Nanosecond)
		m.scan()
		if n := m.count(EvRetry); n != 0 {
			t.Fatalf("RetryBase %v: retransmitted %v after the send", base, base-time.Nanosecond)
		}
		m.clk.advance(time.Nanosecond)
		m.scan()
		if n := m.count(EvRetry); n != 1 {
			t.Fatalf("RetryBase %v: %d retries once it had passed, want 1", base, n)
		}
	}
}

// TestStallDoesNotEscalate pins the invariant the short timeout must not
// break: under default options a receiver that goes silent for 300ms is
// retried, not declared dead — whether the link's timeout is the floor,
// the initial 2ms, or anything a link might measure in between. A
// receiver that stays silent is escalated within a second.
func TestStallDoesNotEscalate(t *testing.T) {
	for _, rtt := range []time.Duration{0, time.Microsecond, 300 * time.Microsecond, 650 * time.Microsecond, 5 * time.Millisecond} {
		m := newManual(t, Options{})
		var escalated []int
		m.Escalate(func(peer int) { escalated = append(escalated, peer) })
		if rtt > 0 { // rtt 0: the link has no sample yet
			m.roundTrips(rtt)
			for i := 0; i < 50; i++ {
				m.send(t, 0, 1)
			}
		}
		rto := m.LinkRTO(0, 1)
		m.blackhole(1)
		m.send(t, 0, 1)
		stalled := m.clk.now()
		for len(escalated) == 0 {
			m.scanAtDeadline()
			if age := time.Duration(m.clk.now() - stalled); age > time.Second {
				t.Fatalf("RTO %v: no escalation %v into the stall", rto, age)
			}
		}
		age := time.Duration(m.clk.now() - stalled)
		if age <= 300*time.Millisecond {
			t.Fatalf("RTO %v: escalated %v into the stall (%d retries)", rto, age, m.count(EvRetry))
		}
		if len(escalated) != 1 || escalated[0] != 1 || m.count(EvEscalate) != 1 {
			t.Fatalf("RTO %v: escalated %v, want rank 1 once", rto, escalated)
		}
		t.Logf("RTO %v: %d retries, escalated after %v", rto, m.count(EvRetry), age)
	}
}

// TestPeerDownAndUpResetTheEstimate: a link's round-trip estimate belongs
// to the incarnation that measured it and goes when its sequence numbers
// go.
func TestPeerDownAndUpResetTheEstimate(t *testing.T) {
	m := newManual(t, Options{})
	m.roundTrips(time.Microsecond)
	for i := 0; i < 20; i++ {
		m.send(t, 0, 1)
		m.send(t, 1, 0)
	}
	if a, b := m.LinkRTO(0, 1), m.LinkRTO(1, 0); a != defaultRetryBase || b != defaultRetryBase {
		t.Fatalf("RTOs %v and %v on a 1µs link, want the floor", a, b)
	}
	m.PeerDown(1)
	if a, b := m.LinkRTO(0, 1), m.LinkRTO(1, 0); a != 2*time.Millisecond || b != 2*time.Millisecond {
		t.Fatalf("RTOs %v and %v after PeerDown, want the initial 2ms both ways", a, b)
	}
	m.PeerUp(1)
	if pkt := m.send(t, 0, 1); pkt.Seq != 1 {
		t.Fatalf("first frame to the new incarnation has seq %d, want 1", pkt.Seq)
	}
	// That frame was the new link's first sample.
	if got := m.LinkRTO(0, 1); got != defaultRetryBase {
		t.Fatalf("RTO %v after the new link's first 1µs sample, want the floor", got)
	}
	if got := m.LinkRTO(1, 0); got != 2*time.Millisecond {
		t.Fatalf("RTO %v of the reverse link before it carried a frame, want 2ms", got)
	}
}
