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

func (l *frameLedger) retire(pkt *transport.Packet) {
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

// TestPurgeIsAtomicAcrossLinks: Sends and deliveries run on every link
// touching rank k, with the ack gate withholding half of the acks for a
// while, as PeerDown(k)/PeerUp(k) toggle under them. Whatever the
// interleaving,
//   - every frame leaves its sender exactly one way: retired by an ack
//     through OnAckRetire, purged from the inflight table (EvPurged), or
//     dropped at Send because k was dead;
//   - a frame that reaches the fabric after PeerDown(k) returned is not
//     delivered upstream before the next PeerUp(k) is called;
//   - no ack withheld for a frame to or from k survives PeerDown(k).
func TestPurgeIsAtomicAcrossLinks(t *testing.T) {
	const k = 2
	// epoch is odd from the return of PeerDown(k) to just before the next
	// PeerUp(k). Every frame copy on the wire carries, in Context, the
	// epoch it reached the fabric in.
	var epoch atomic.Int64
	inner := &fakeFabric{mangle: func(pkt *transport.Packet) []*transport.Packet {
		if pkt.Kind != transport.KindData {
			return []*transport.Packet{pkt}
		}
		c := pkt.Clone()
		c.Context = int(epoch.Load())
		c.Token |= wireCopy
		return []*transport.Packet{c}
	}}
	opts := fastOpts()
	opts.MaxRetries = 1 << 20 // orphaned frames from k retry until PeerUp, never escalate
	f := Wrap(inner, opts)
	ledger := newFrameLedger()
	f.OnAckRetire(ledger.retire)
	f.Observe(ledger.observe)
	f.SetAckGate(func(_ int, pkt *transport.Packet) bool { return pkt.Tag%2 == 0 })

	// Withheld acks are released by a goroutine of their own, so that some
	// are still owed when PeerDown runs. The buffer lets a few dozen queue
	// up behind it; a delivery that finds it full releases its ack itself.
	releases := make(chan frameKey, 64)
	var releaser sync.WaitGroup
	releaser.Add(1)
	go func() {
		defer releaser.Done()
		for key := range releases {
			f.ReleaseAck(key.src, key.dst, key.seq)
		}
	}()
	var violations atomic.Int64
	var firstViolation atomic.Value
	deliver := func(dst int, pkt *transport.Packet) {
		if e := int64(pkt.Context); pkt.Src == k && e%2 == 1 && epoch.Load() == e {
			if violations.Add(1) == 1 {
				firstViolation.Store(fmt.Sprintf("frame %d->%d seq %d entered after PeerDown and was delivered before PeerUp", pkt.Src, dst, pkt.Seq))
			}
		}
		if pkt.Tag%2 == 0 {
			select {
			case releases <- frameKey{src: pkt.Src, dst: dst, seq: pkt.Seq}:
			default:
				f.ReleaseAck(pkt.Src, dst, pkt.Seq)
			}
		}
	}
	if err := f.Start(deliver); err != nil {
		t.Fatal(err)
	}

	links := [][2]int{{0, k}, {k, 0}, {1, k}, {k, 1}, {0, 1}}
	stop := make(chan struct{})
	var senders sync.WaitGroup
	var sent [5][]uint64
	for i, l := range links {
		senders.Add(1)
		go func() {
			defer senders.Done()
			for n := uint64(1); ; n++ {
				select {
				case <-stop:
					return
				default:
				}
				tok := uint64(i+1)<<32 | n
				sent[i] = append(sent[i], tok)
				_ = f.Send(&transport.Packet{Src: l[0], Dst: l[1], Tag: int(n), Token: tok, Payload: []byte{byte(n)}})
				runtime.Gosched() // let the toggling goroutine in
			}
		}()
	}

	// owedTo snapshots the withheld acks on links touching k.
	owedTo := func() map[frameKey]bool {
		f.mu.Lock()
		defer f.mu.Unlock()
		owed := make(map[frameKey]bool)
		for key, rx := range f.rx {
			if key[0] == k || key[1] == k {
				for seq := range rx.deferred {
					owed[frameKey{src: key[0], dst: key[1], seq: seq}] = true
				}
			}
		}
		return owed
	}
	rounds := 1000
	if testing.Short() {
		rounds = 200
	}
	for round := 0; round < rounds; round++ {
		before := owedTo()
		f.PeerDown(k)
		epoch.Add(1)
		for key := range owedTo() {
			// A frame toward k that was already on the wire may still be
			// admitted; it is a new entry, never one from before.
			if key.src == k || before[key] {
				t.Fatalf("round %d: withheld ack %+v survived PeerDown(%d)", round, key, k)
			}
		}
		for i := 0; i < 1+round%8; i++ {
			runtime.Gosched()
		}
		epoch.Add(1)
		f.PeerUp(k)
	}
	close(stop)
	senders.Wait()
	close(releases)
	releaser.Wait()
	f.Close()

	if n := violations.Load(); n != 0 {
		t.Fatalf("%d deliveries from k while it was down; first: %v", n, firstViolation.Load())
	}
	total := 0
	for i := range links {
		for _, tok := range sent[i] {
			if err := ledger.exactlyOnce(tok); err != nil {
				t.Fatal(err)
			}
		}
		total += len(sent[i])
	}
	ledger.mu.Lock()
	defer ledger.mu.Unlock()
	t.Logf("%d frames over %d rounds: %d retired, %d purged, %d dropped at Send",
		total, rounds, len(ledger.retired), len(ledger.purged), len(ledger.deadDrop))
	if len(ledger.retired) == 0 || len(ledger.purged) == 0 || len(ledger.deadDrop) == 0 {
		t.Fatal("the run did not exercise every way out of the sender")
	}
}

// arqState counts what the link tables hold: links, unacknowledged frames,
// frames held for resequencing and withheld acks.
func arqState(f *Fabric) (links, inflight, held, deferred int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, tx := range f.tx {
		inflight += len(tx.inflight)
	}
	for _, rx := range f.rx {
		held += len(rx.held)
		deferred += len(rx.deferred)
	}
	return max(len(f.tx), len(f.rx)), inflight, held, deferred
}

// TestArqStateBounded pushes 10⁴ frames over every link of a 3-rank world
// on the Local fabric, with every ack withheld by the gate and released on
// delivery, then 10³ more per link through a chaos wrap that injects
// nothing: once the traffic is over, no frame is left inflight or held, no
// ack is owed, and there is one entry per link.
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
			f.SetAckGate(func(int, *transport.Packet) bool { return true })
			var delivered atomic.Int64
			if err := f.Start(func(dst int, pkt *transport.Packet) {
				delivered.Add(1)
				f.ReleaseAck(pkt.Src, dst, pkt.Seq)
			}); err != nil {
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
				links, inflight, held, deferred := arqState(f)
				if inflight == 0 && held == 0 && deferred == 0 {
					if links > n*n {
						t.Fatalf("%d link entries for %d ranks", links, n)
					}
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("state left after the traffic: %d inflight, %d held, %d withheld acks", inflight, held, deferred)
				}
				time.Sleep(time.Millisecond)
			}
			if got, want := delivered.Load(), int64(n*(n-1)*fc.frames); got != want {
				t.Fatalf("delivered %d frames upstream, want %d", got, want)
			}
		})
	}
}
