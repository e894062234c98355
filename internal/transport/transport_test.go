package transport

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// collector gathers delivered packets per destination.
type collector struct {
	mu   sync.Mutex
	got  map[int][]*Packet
	cond *sync.Cond
}

func newCollector() *collector {
	c := &collector{got: map[int][]*Packet{}}
	c.cond = sync.NewCond(&c.mu)
	return c
}

func (c *collector) deliver(dst int, pkt *Packet) {
	c.mu.Lock()
	c.got[dst] = append(c.got[dst], pkt)
	c.cond.Broadcast()
	c.mu.Unlock()
}

func (c *collector) waitFor(dst, n int, timeout time.Duration) []*Packet {
	deadline := time.Now().Add(timeout)
	c.mu.Lock()
	defer c.mu.Unlock()
	for len(c.got[dst]) < n {
		if time.Now().After(deadline) {
			return c.got[dst]
		}
		c.mu.Unlock()
		time.Sleep(time.Millisecond)
		c.mu.Lock()
	}
	return append([]*Packet(nil), c.got[dst]...)
}

func testFabricBasics(t *testing.T, f Fabric) {
	t.Helper()
	col := newCollector()
	if err := f.Start(col.deliver); err != nil {
		t.Fatalf("start: %v", err)
	}
	defer f.Close()
	const n = 50
	for i := 0; i < n; i++ {
		err := f.Send(&Packet{Src: 0, Dst: 1, Tag: i, Context: 7, Payload: []byte{byte(i)}})
		if err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	got := col.waitFor(1, n, 5*time.Second)
	if len(got) != n {
		t.Fatalf("delivered %d packets, want %d", len(got), n)
	}
	for i, pkt := range got {
		if pkt.Tag != i || pkt.Payload[0] != byte(i) {
			t.Fatalf("packet %d out of order or corrupted: %+v", i, pkt)
		}
		if pkt.Src != 0 || pkt.Dst != 1 || pkt.Context != 7 {
			t.Fatalf("header corrupted: %+v", pkt)
		}
	}
}

func TestLocalFabricFIFO(t *testing.T) { testFabricBasics(t, NewLocal()) }

func TestTCPFabricFIFO(t *testing.T) { testFabricBasics(t, NewTCP(2)) }

func TestLatencyFabricPreservesOrder(t *testing.T) {
	testFabricBasics(t, NewLatency(NewLocal(), 100*time.Microsecond))
}

func TestLocalStartTwiceFails(t *testing.T) {
	f := NewLocal()
	if err := f.Start(func(int, *Packet) {}); err != nil {
		t.Fatal(err)
	}
	if err := f.Start(func(int, *Packet) {}); err == nil {
		t.Fatal("second Start should fail")
	}
}

func TestSendBeforeStartFails(t *testing.T) {
	if err := NewLocal().Send(&Packet{}); err == nil {
		t.Fatal("send before start should fail")
	}
}

func TestSendAfterCloseIsDropped(t *testing.T) {
	f := NewLocal()
	col := newCollector()
	if err := f.Start(col.deliver); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Send(&Packet{Dst: 0}); err != nil {
		t.Fatalf("post-close send must be silently dropped, got %v", err)
	}
	if got := col.waitFor(0, 1, 50*time.Millisecond); len(got) != 0 {
		t.Fatalf("packet delivered after close: %v", got)
	}
}

func TestTCPCrossTraffic(t *testing.T) {
	f := NewTCP(4)
	const ranks = 4
	col := newCollector()
	if err := f.Start(col.deliver); err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var wg sync.WaitGroup
	for src := 0; src < ranks; src++ {
		wg.Add(1)
		go func(src int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				dst := (src + 1 + i) % ranks
				if err := f.Send(&Packet{Src: src, Dst: dst, Tag: i}); err != nil {
					t.Errorf("send: %v", err)
					return
				}
			}
		}(src)
	}
	wg.Wait()
	total := 0
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		total = 0
		col.mu.Lock()
		for _, pkts := range col.got {
			total += len(pkts)
		}
		col.mu.Unlock()
		if total == ranks*20 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if total != ranks*20 {
		t.Fatalf("delivered %d packets, want %d", total, ranks*20)
	}
}

func TestTCPOutOfRangeDestination(t *testing.T) {
	f := NewTCP(2)
	if err := f.Start(func(int, *Packet) {}); err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := f.Send(&Packet{Dst: 5}); err == nil {
		t.Fatal("out-of-range destination should error")
	}
}

func TestPacketClone(t *testing.T) {
	p := &Packet{Src: 1, Dst: 2, Tag: 3, Payload: []byte{9}}
	q := p.Clone()
	q.Payload[0] = 7
	if p.Payload[0] != 9 {
		t.Fatal("clone shares payload storage")
	}
	if q.Src != 1 || q.Dst != 2 || q.Tag != 3 {
		t.Fatalf("clone header %+v", q)
	}
}

func TestLatencyActuallyDelays(t *testing.T) {
	const delay = 30 * time.Millisecond
	f := NewLatency(NewLocal(), delay)
	col := newCollector()
	if err := f.Start(col.deliver); err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	start := time.Now()
	if err := f.Send(&Packet{Src: 0, Dst: 1}); err != nil {
		t.Fatal(err)
	}
	got := col.waitFor(1, 1, 5*time.Second)
	if len(got) != 1 {
		t.Fatal("packet lost")
	}
	if elapsed := time.Since(start); elapsed < delay {
		t.Fatalf("delivered after %v, want >= %v", elapsed, delay)
	}
}

// TestLatencyFIFOMixedDelays is the FIFO property test for size/shape-
// dependent delay functions: zero-delay packets must not overtake earlier
// delayed packets from the same (src,dst) pair. Against the old fast path
// (d <= 0 always bypassed the queue) this fails immediately — the even
// packets land while the odd ones are still sleeping.
func TestLatencyFIFOMixedDelays(t *testing.T) {
	f := NewLatencyFunc(NewLocal(), func(p *Packet) time.Duration {
		if p.Tag%2 == 1 {
			return 3 * time.Millisecond
		}
		return 0
	})
	col := newCollector()
	if err := f.Start(col.deliver); err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	const n = 40
	for i := 0; i < n; i++ {
		if err := f.Send(&Packet{Src: 0, Dst: 1, Tag: i}); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	got := col.waitFor(1, n, 5*time.Second)
	if len(got) != n {
		t.Fatalf("delivered %d packets, want %d", len(got), n)
	}
	for i, pkt := range got {
		if pkt.Tag != i {
			t.Fatalf("FIFO violated: position %d holds tag %d (order %v...)",
				i, pkt.Tag, tags(got[:i+1]))
		}
	}
}

func tags(pkts []*Packet) []int {
	out := make([]int, len(pkts))
	for i, p := range pkts {
		out[i] = p.Tag
	}
	return out
}

// TestLatencyPipelinesDelay: N queued packets model a pipelined link
// (each arrives ~delay after its own send), not a serial one (N×delay
// total). The old forwarder slept the full delay per packet, so 8 packets
// at 25ms took ~200ms; the deadline-stamped forwarder takes ~25ms.
func TestLatencyPipelinesDelay(t *testing.T) {
	const delay = 25 * time.Millisecond
	const n = 8
	f := NewLatency(NewLocal(), delay)
	col := newCollector()
	if err := f.Start(col.deliver); err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	start := time.Now()
	for i := 0; i < n; i++ {
		if err := f.Send(&Packet{Src: 0, Dst: 1, Tag: i}); err != nil {
			t.Fatal(err)
		}
	}
	got := col.waitFor(1, n, 5*time.Second)
	elapsed := time.Since(start)
	if len(got) != n {
		t.Fatalf("delivered %d packets, want %d", len(got), n)
	}
	if elapsed < delay {
		t.Fatalf("delivered in %v, faster than one hop delay %v", elapsed, delay)
	}
	// Serial forwarding would need n*delay = 200ms; allow generous
	// scheduling slack while still rejecting the serial model.
	if limit := time.Duration(n) * delay / 2; elapsed > limit {
		t.Fatalf("delivered in %v, want pipelined (< %v; serial would be %v)",
			elapsed, limit, time.Duration(n)*delay)
	}
	for i, pkt := range got {
		if pkt.Tag != i {
			t.Fatalf("pipelining broke FIFO at %d: %v", i, tags(got))
		}
	}
}

// TestTCPSendCloseRace hammers Send from several goroutines while Close
// runs: per the Fabric contract every racing send must be silently
// dropped (nil error), never surface an encode/write error on the closed
// connection. Run under -race.
func TestTCPSendCloseRace(t *testing.T) {
	f := NewTCP(4)
	col := newCollector()
	if err := f.Start(col.deliver); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				pkt := &Packet{Src: g, Dst: (g + 1) % 4, Tag: i, Payload: []byte{byte(i)}}
				if err := f.Send(pkt); err != nil {
					t.Errorf("send racing close must be dropped silently, got: %v", err)
					return
				}
			}
		}(g)
	}
	time.Sleep(5 * time.Millisecond)
	if err := f.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	close(stop)
	wg.Wait()
	// Sends after Close must keep being silent no-ops.
	if err := f.Send(&Packet{Src: 0, Dst: 1}); err != nil {
		t.Fatalf("post-close send: %v", err)
	}
}

// BenchmarkTCPFabricThroughput pumps packets through a 2-rank TCP fabric
// and waits for delivery — the raw wire path (E15's transport half,
// without the ring engine on top; EXPERIMENTS.md E15 has the record).
func BenchmarkTCPFabricThroughput(b *testing.B) {
	f := NewTCP(2)
	var delivered atomic.Int64
	if err := f.Start(func(int, *Packet) { delivered.Add(1) }); err != nil {
		b.Fatal(err)
	}
	defer f.Close()
	payload := make([]byte, 1024)
	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := f.Send(&Packet{Src: 0, Dst: 1, Tag: i, Payload: payload}); err != nil {
			b.Fatal(err)
		}
	}
	for delivered.Load() < int64(b.N) {
		time.Sleep(50 * time.Microsecond)
	}
}

// TestTCPDialErrorEnriched forces a dial failure (the destination's
// listener is closed before the first send) and asserts the recorded error
// carries rank and address context, not a bare net error.
func TestTCPDialErrorEnriched(t *testing.T) {
	f := NewTCP(2)
	if err := f.Start(func(int, *Packet) {}); err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	// Tear down rank 1's listener so dialing it is refused.
	addr := f.conns[1].addr
	if err := f.listeners[1].Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Send(&Packet{Src: 0, Dst: 1, Payload: []byte("x")}); err != nil {
		t.Fatalf("send to torn-down rank must drop silently, got %v", err)
	}
	errs := f.Errors()
	if len(errs) != 1 {
		t.Fatalf("recorded %d errors, want 1: %v", len(errs), errs)
	}
	msg := errs[0].Error()
	want := fmt.Sprintf("dial rank 0 -> rank 1 (%s)", addr)
	if !strings.Contains(msg, want) {
		t.Fatalf("error %q lacks link context %q", msg, want)
	}
}

// TestTCPReadErrorEnriched writes garbage into a rank's listener and
// asserts the resulting decode failure is recorded with the receiving
// rank's context and wraps ErrFrameCorrupt.
func TestTCPReadErrorEnriched(t *testing.T) {
	f := NewTCP(2)
	if err := f.Start(func(int, *Packet) {}); err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	conn, err := net.Dial("tcp", f.conns[1].addr)
	if err != nil {
		t.Fatal(err)
	}
	junk := bytes.Repeat([]byte{0xa5}, FrameHeaderSize)
	if _, err := conn.Write(junk); err != nil {
		t.Fatal(err)
	}
	conn.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if errs := f.Errors(); len(errs) > 0 {
			msg := errs[0].Error()
			if !strings.Contains(msg, "read for rank 1 (") {
				t.Fatalf("error %q lacks rank context", msg)
			}
			if !errors.Is(errs[0], ErrFrameCorrupt) {
				t.Fatalf("error %v does not wrap ErrFrameCorrupt", errs[0])
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("read error never recorded")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestKindString(t *testing.T) {
	if KindData.String() != "data" || KindAgreement.String() != "agreement" {
		t.Fatal("kind names changed")
	}
	if s := fmt.Sprint(Kind(99)); s == "" {
		t.Fatal("unknown kind should still render")
	}
}
