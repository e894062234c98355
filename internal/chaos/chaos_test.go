package chaos

import (
	"bytes"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/transport"
)

// sink collects delivered packets.
type sink struct {
	mu  sync.Mutex
	got []*transport.Packet
}

func (s *sink) deliver(_ int, pkt *transport.Packet) {
	s.mu.Lock()
	s.got = append(s.got, pkt)
	s.mu.Unlock()
}

func (s *sink) count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.got)
}

func (s *sink) packets() []*transport.Packet {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]*transport.Packet(nil), s.got...)
}

// sendN pushes n distinct frames over the 0->1 link.
func sendN(t *testing.T, f *Fabric, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		pkt := &transport.Packet{Src: 0, Dst: 1, Tag: i, Seq: uint64(i + 1), Payload: []byte{byte(i), byte(i >> 8)}}
		if err := f.Send(pkt); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
}

// TestZeroPlanIsTransparent: an empty plan must not disturb delivery.
func TestZeroPlanIsTransparent(t *testing.T) {
	f := Wrap(transport.NewLocal(), NewPlan(1))
	s := &sink{}
	if err := f.Start(s.deliver); err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sendN(t, f, 100)
	if s.count() != 100 {
		t.Fatalf("delivered %d, want 100", s.count())
	}
	for i, pkt := range s.packets() {
		if pkt.Tag != i {
			t.Fatalf("order broken at %d: tag %d", i, pkt.Tag)
		}
	}
	if n := len(f.plan.Log()); n != 0 {
		t.Fatalf("empty plan injected %d faults", n)
	}
}

// TestDeterministicLog: the same plan seed and the same per-link send
// sequence must inject the identical fault sequence — the replayability
// contract.
func TestDeterministicLog(t *testing.T) {
	run := func() []Event {
		plan := NewPlan(42).Default(Rates{Drop: 0.2, Dup: 0.2, Corrupt: 0.2})
		f := Wrap(transport.NewLocal(), plan)
		s := &sink{}
		if err := f.Start(s.deliver); err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		sendN(t, f, 200)
		return plan.Log()
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed produced different fault logs:\n%v\n%v", a, b)
	}
	if len(a) == 0 {
		t.Fatal("20%% rates over 200 frames injected nothing")
	}
}

// TestDropAccounting: every frame is either delivered or logged dropped.
func TestDropAccounting(t *testing.T) {
	plan := NewPlan(7).Default(Rates{Drop: 0.5})
	f := Wrap(transport.NewLocal(), plan)
	s := &sink{}
	if err := f.Start(s.deliver); err != nil {
		t.Fatal(err)
	}
	sendN(t, f, 400)
	_ = f.Close()
	dropped := plan.Count(EvDrop)
	if got := s.count(); got+dropped != 400 {
		t.Fatalf("delivered %d + dropped %d != 400", got, dropped)
	}
	if dropped < 100 || dropped > 300 {
		t.Fatalf("drop rate 0.5 dropped %d of 400 frames", dropped)
	}
}

// TestDuplication: at Dup=1 every frame arrives exactly twice.
func TestDuplication(t *testing.T) {
	plan := NewPlan(3).Default(Rates{Dup: 1})
	f := Wrap(transport.NewLocal(), plan)
	s := &sink{}
	if err := f.Start(s.deliver); err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sendN(t, f, 50)
	if got := s.count(); got != 100 {
		t.Fatalf("delivered %d, want 100 (every frame duplicated)", got)
	}
	if n := plan.Count(EvDup); n != 50 {
		t.Fatalf("logged %d dups, want 50", n)
	}
}

// TestCorruptionIsBurstBounded: injected corruption flips payload bits
// of the packet chaos was handed, which it owns (transport.HandsOff), and
// is always confined to a 32-bit window, so the end-to-end CRC provably
// catches it.
func TestCorruptionIsBurstBounded(t *testing.T) {
	plan := NewPlan(11).Default(Rates{Corrupt: 1})
	f := Wrap(transport.NewLocal(), plan)
	s := &sink{}
	if err := f.Start(s.deliver); err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	orig := bytes.Repeat([]byte{0x5a}, 64)
	crc := transport.PayloadCrc(orig)
	pkt := &transport.Packet{Src: 0, Dst: 1, Seq: 1, Crc: crc, Payload: append([]byte(nil), orig...)}
	if err := f.Send(pkt); err != nil {
		t.Fatal(err)
	}
	got := s.packets()
	if len(got) != 1 {
		t.Fatalf("delivered %d packets, want 1", len(got))
	}
	if got[0] != pkt {
		t.Fatal("corruption copied the packet it was handed instead of flipping its bits")
	}
	if bytes.Equal(got[0].Payload, orig) {
		t.Fatal("Corrupt=1 delivered an intact payload")
	}
	if transport.PayloadCrc(got[0].Payload) == crc {
		t.Fatal("corrupted payload passes the end-to-end CRC")
	}
	first, last := -1, -1
	for i := range orig {
		if got[0].Payload[i] != orig[i] {
			if first < 0 {
				first = i
			}
			last = i
		}
	}
	if last-first >= 4 {
		t.Fatalf("corruption spans bytes %d..%d, beyond the 32-bit burst bound", first, last)
	}
}

// TestPartitionWindow: frames inside the scheduled window vanish, frames
// outside pass.
func TestPartitionWindow(t *testing.T) {
	plan := NewPlan(1).Partition(0, 1, 3, 6) // eat frames 3,4,5
	f := Wrap(transport.NewLocal(), plan)
	s := &sink{}
	if err := f.Start(s.deliver); err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sendN(t, f, 10)
	if got := s.count(); got != 7 {
		t.Fatalf("delivered %d, want 7 (3 frames partitioned)", got)
	}
	if n := plan.Count(EvPartition); n != 3 {
		t.Fatalf("logged %d partition drops, want 3", n)
	}
	for _, pkt := range s.packets() {
		if pkt.Seq >= 3 && pkt.Seq < 6 {
			t.Fatalf("frame %d escaped the partition", pkt.Seq)
		}
	}
}

// TestReorderSwapsAndFlushes: a held frame is delivered after the link's
// next frame (an adjacent swap — so a mixed rate breaks FIFO), every
// frame still arrives, and a frame held on a quiet link is flushed by the
// timer rather than starved.
func TestReorderSwapsAndFlushes(t *testing.T) {
	const n = 50
	plan := NewPlan(1).Link(0, 1, Rates{Reorder: 0.5})
	f := Wrap(transport.NewLocal(), plan)
	s := &sink{}
	if err := f.Start(s.deliver); err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sendN(t, f, n)
	deadline := time.Now().Add(2 * time.Second)
	for s.count() < n {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d frames delivered: a held frame starved", s.count(), n)
		}
		time.Sleep(time.Millisecond)
	}
	if k := plan.Count(EvReorder); k == 0 {
		t.Fatal("Reorder=0.5 logged no reorder events")
	}
	seen := make(map[uint64]bool)
	inOrder := true
	var prev uint64
	for _, pkt := range s.packets() {
		if seen[pkt.Seq] {
			t.Fatalf("frame %d delivered twice", pkt.Seq)
		}
		seen[pkt.Seq] = true
		if pkt.Seq < prev {
			inOrder = false
		}
		prev = pkt.Seq
	}
	if len(seen) != n {
		t.Fatalf("delivered %d distinct frames, want %d", len(seen), n)
	}
	if inOrder {
		t.Fatal("Reorder=0.5 over 50 frames delivered strictly in order")
	}
}

// TestDelayJitterDelivers: delayed frames still arrive (after Close waits
// for pending timers).
func TestDelayJitterDelivers(t *testing.T) {
	plan := NewPlan(5).Default(Rates{Delay: 1, Jitter: 2 * time.Millisecond})
	f := Wrap(transport.NewLocal(), plan)
	s := &sink{}
	if err := f.Start(s.deliver); err != nil {
		t.Fatal(err)
	}
	sendN(t, f, 20)
	deadline := time.Now().Add(2 * time.Second)
	for s.count() < 20 {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of 20 delayed frames delivered", s.count())
		}
		time.Sleep(time.Millisecond)
	}
	_ = f.Close()
	if n := plan.Count(EvDelay); n != 20 {
		t.Fatalf("logged %d delay events, want 20", n)
	}
}
