package reliable

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/transport"
)

// wireCopy marks the token of a frame's copy on the wire, so that what the
// receiving half reports about a frame (it holds the copy) is told apart
// from what the sending half reports (it holds the original).
const wireCopy = 1 << 63

// frameLedger counts, by token, the ways frames left their senders.
type frameLedger struct {
	mu                        sync.Mutex
	retired, purged, deadDrop map[uint64]int
}

func newFrameLedger() *frameLedger {
	return &frameLedger{
		retired: make(map[uint64]int), purged: make(map[uint64]int),
		deadDrop: make(map[uint64]int),
	}
}

func (l *frameLedger) retire(pkt transport.Packet) {
	l.mu.Lock()
	l.retired[pkt.Token]++
	l.mu.Unlock()
}

func (l *frameLedger) observe(e Event) {
	l.mu.Lock()
	switch e.Kind {
	case EvPurged:
		if e.Token&wireCopy == 0 { // the receiver's held copies are its own affair
			l.purged[e.Token]++
		}
	case EvDeadDrop:
		l.deadDrop[e.Token]++
	}
	l.mu.Unlock()
}

// exactlyOnce checks that the frame tok left its sender exactly one way.
func (l *frameLedger) exactlyOnce(tok uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	r, p, d := l.retired[tok], l.purged[tok], l.deadDrop[tok]
	if r+p+d != 1 {
		return fmt.Errorf("frame %#x: retired %d, purged %d, dead-dropped %d times", tok, r, p, d)
	}
	return nil
}

// churn is a run of traffic over links touching rank k while
// PeerDown(k)/PeerUp(k) toggle under it and the first copy of every frame
// with an even tag is lost, so that acks come back ahead of gaps. run
// checks the properties TestPurgeIsAtomicAcrossLinks states.
type churn struct {
	k     int
	links [][2]int
	opts  Options
	// toggles is the least number of PeerDown/PeerUp rounds; the toggling
	// goes on until the other goroutines are done.
	toggles int
	// blackhole, if not -1, is a destination none of whose frames arrives:
	// the run lasts until the retry scan has escalated it.
	blackhole int
	// fresh, if not 0, is how many never-used ranks a goroutine of its own
	// brings in one by one (a frame from each to the next), from one past
	// the largest rank of links: the directory grows while the rest runs.
	fresh int
}

// churnOutcome counts the ways frames left their senders in one run.
type churnOutcome struct{ sent, retired, purged, deadDrop int }

func (c churn) run(t *testing.T) churnOutcome {
	t.Helper()
	k := c.k
	// epoch is odd from the return of PeerDown(k) to just before the next
	// PeerUp(k). Every frame copy on the wire carries, in Context, the
	// epoch it reached the fabric in.
	var epoch atomic.Int64
	var lostMu sync.Mutex
	lost := make(map[uint64]bool)
	inner := &fakeFabric{mangle: func(pkt *transport.Packet) []*transport.Packet {
		if pkt.Kind != transport.KindData {
			return []*transport.Packet{pkt}
		}
		if pkt.Dst == c.blackhole {
			return nil
		}
		if pkt.Tag%2 == 0 {
			lostMu.Lock()
			first := !lost[pkt.Token]
			lost[pkt.Token] = true
			lostMu.Unlock()
			if first {
				return nil // the retransmission fills the gap
			}
		}
		cp := pkt.Clone()
		cp.Context = int(epoch.Load())
		cp.Token |= wireCopy
		return []*transport.Packet{cp}
	}}
	f := Wrap(inner, c.opts)
	ledger := newFrameLedger()
	f.OnAckRetire(ledger.retire)
	f.Observe(ledger.observe)
	escalated := make(chan int, 8)
	f.Escalate(func(peer int) {
		select {
		case escalated <- peer:
		default:
		}
	})

	var violations atomic.Int64
	var firstViolation atomic.Value
	deliver := func(dst int, pkt *transport.Packet) {
		if e := int64(pkt.Context); pkt.Src == k && e%2 == 1 && epoch.Load() == e {
			if violations.Add(1) == 1 {
				firstViolation.Store(fmt.Sprintf("frame %d->%d seq %d entered after PeerDown and was delivered before PeerUp", pkt.Src, dst, pkt.Seq))
			}
		}
	}
	if err := f.Start(deliver); err != nil {
		t.Fatal(err)
	}

	start, stop := make(chan struct{}), make(chan struct{})
	var senders, bounded sync.WaitGroup
	sent := make([][]uint64, len(c.links)+1)
	send := func(i, src, dst int, n uint64) {
		tok := uint64(i+1)<<32 | n
		sent[i] = append(sent[i], tok)
		_ = f.Send(&transport.Packet{Src: src, Dst: dst, Tag: int(n), Token: tok, Payload: []byte{byte(n)}})
		runtime.Gosched() // let the toggling goroutine in
	}
	for i, l := range c.links {
		senders.Add(1)
		go func() {
			defer senders.Done()
			<-start
			for n := uint64(1); ; n++ {
				select {
				case <-stop:
					return
				default:
				}
				send(i, l[0], l[1], n)
			}
		}()
	}
	if c.fresh > 0 {
		base := 0
		for _, l := range c.links {
			base = max(base, l[0]+1, l[1]+1)
		}
		bounded.Add(1)
		go func() {
			defer bounded.Done()
			<-start
			for n := 1; n <= c.fresh; n++ {
				send(len(c.links), base+n-1, base+n, uint64(n))
			}
		}()
	}
	if c.blackhole >= 0 {
		bounded.Add(1)
		go func() {
			defer bounded.Done()
			deadline := time.After(10 * time.Second)
			for {
				select {
				case peer := <-escalated:
					if peer == c.blackhole {
						return
					}
				case <-deadline:
					t.Errorf("rank %d was never escalated", c.blackhole)
					return
				}
			}
		}()
	}
	done := make(chan struct{})
	go func() { bounded.Wait(); close(done) }()
	finished := func() bool {
		select {
		case <-done:
			return true
		default:
			return false
		}
	}

	close(start)
	for round := 0; round < c.toggles || !finished(); round++ {
		f.PeerDown(k)
		epoch.Add(1)
		for i := 0; i < 1+round%8; i++ {
			runtime.Gosched()
		}
		epoch.Add(1)
		f.PeerUp(k)
	}
	close(stop)
	senders.Wait()
	f.Close() // stops the retry loop, whose retransmissions deliver too

	if n := violations.Load(); n != 0 {
		t.Fatalf("%d deliveries from k while it was down; first: %v", n, firstViolation.Load())
	}
	var out churnOutcome
	for i := range sent {
		for _, tok := range sent[i] {
			if err := ledger.exactlyOnce(tok); err != nil {
				t.Fatal(err)
			}
		}
		out.sent += len(sent[i])
	}
	ledger.mu.Lock()
	defer ledger.mu.Unlock()
	out.retired, out.purged, out.deadDrop = len(ledger.retired), len(ledger.purged), len(ledger.deadDrop)
	return out
}

// TestPurgeIsAtomicAcrossLinks: Sends and deliveries run on every link
// touching rank k, with half of the frames lost once so that acks come
// back ahead of gaps, as PeerDown(k)/PeerUp(k) toggle under them. Whatever
// the interleaving,
//   - every frame leaves its sender exactly one way: retired by an ack
//     through OnAckRetire, purged from the link (EvPurged: unacknowledged,
//     or acknowledged ahead of a gap), or dropped at Send because k was
//     dead;
//   - a frame that reaches the fabric after PeerDown(k) returned is not
//     delivered upstream before the next PeerUp(k) is called.
func TestPurgeIsAtomicAcrossLinks(t *testing.T) {
	const k = 2
	opts := fastOpts()
	opts.MaxRetries = 1 << 20 // orphaned frames from k retry until PeerUp, never escalate
	rounds := 1000
	if testing.Short() {
		rounds = 200
	}
	out := churn{
		k: k, links: [][2]int{{0, k}, {k, 0}, {1, k}, {k, 1}, {0, 1}},
		opts: opts, toggles: rounds, blackhole: -1,
	}.run(t)
	t.Logf("%d frames over %d rounds: %d retired, %d purged, %d dropped at Send",
		out.sent, rounds, out.retired, out.purged, out.deadDrop)
	if out.retired == 0 || out.purged == 0 || out.deadDrop == 0 {
		t.Fatal("the run did not exercise every way out of the sender")
	}
}

// arqState counts what the directory holds: links, unacknowledged frames
// and frames acknowledged ahead of a gap, and frames held for
// resequencing.
func arqState(f *Fabric) (links, inflight, held int) {
	var txs, rxs int
	eachLink(f, func(_, _ int, tx *txLink) {
		txs++
		inflight += len(tx.inflight) + len(tx.early)
	}, func(_, _ int, rx *rxLink) {
		rxs++
		held += len(rx.held)
	})
	return max(txs, rxs), inflight, held
}

// TestArqStateBounded pushes 10⁴ frames over every link of a 3-rank world
// on the Local fabric, with an ack-retire callback, then 10³ more per link
// through a chaos wrap that injects nothing: once the traffic is over, no
// frame is left inflight, acknowledged ahead of a gap or held, and there
// is one entry per link.
func TestArqStateBounded(t *testing.T) {
	const n = 3
	fabrics := map[string]struct {
		inner  transport.Fabric
		frames int
	}{
		"local":      {transport.NewLocal(), 10000},
		"zero-chaos": {chaos.Wrap(transport.NewLocal(), chaos.NewPlan(1)), 1000},
	}
	for name, fc := range fabrics {
		t.Run(name, func(t *testing.T) {
			f := Wrap(fc.inner, Options{})
			f.OnAckRetire(func(transport.Packet) {})
			var delivered atomic.Int64
			if err := f.Start(func(int, *transport.Packet) { delivered.Add(1) }); err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			var wg sync.WaitGroup
			for src := 0; src < n; src++ {
				for dst := 0; dst < n; dst++ {
					if src == dst {
						continue
					}
					wg.Add(1)
					go func() {
						defer wg.Done()
						for i := 0; i < fc.frames; i++ {
							_ = f.Send(&transport.Packet{Src: src, Dst: dst, Tag: i, Payload: []byte{byte(i)}})
						}
					}()
				}
			}
			wg.Wait()
			deadline := time.Now().Add(5 * time.Second)
			for {
				links, inflight, held := arqState(f)
				if inflight == 0 && held == 0 {
					if links > n*n {
						t.Fatalf("%d link entries for %d ranks", links, n)
					}
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("state left after the traffic: %d inflight or early, %d held", inflight, held)
				}
				time.Sleep(time.Millisecond)
			}
			if got, want := delivered.Load(), int64(n*(n-1)*fc.frames); got != want {
				t.Fatalf("delivered %d frames upstream, want %d", got, want)
			}
		})
	}
}
