package mpi

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/metrics"
	"repro/internal/transport"
)

// randRankList draws nil, empty, or up to max ranks.
func randRankList(rng *rand.Rand, max int) []int {
	switch rng.Intn(4) {
	case 0:
		return nil
	case 1:
		return []int{}
	}
	l := make([]int, 1+rng.Intn(max))
	for i := range l {
		l[i] = rng.Intn(1 << uint(1+rng.Intn(31)))
	}
	return l
}

func randAgreeMsg(rng *rand.Rand, maxList int) agreeMsg {
	return agreeMsg{
		Type:    uint8(rng.Intn(int(agreePull) + 1)),
		Inst:    rng.Intn(1 << uint(1+rng.Intn(31))),
		From:    rng.Intn(1 << 20),
		Failed:  randRankList(rng, maxList),
		Group:   randRankList(rng, maxList),
		Covered: randRankList(rng, maxList),
	}
}

// TestAgreeCodecRoundTrip: every message survives encode/decode exactly
// (reflect.DeepEqual tells a nil list from an empty one), the encoding is
// one right-sized allocation, and no proper prefix or extension of it
// decodes.
func TestAgreeCodecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for i := 0; i < 2000; i++ {
		maxList := 8
		if i%100 == 0 {
			maxList = 4096 // a PULL carrying a whole large group
		}
		want := randAgreeMsg(rng, maxList)
		enc := want.encode()
		if len(enc) != cap(enc) {
			t.Fatalf("encoding of %+v not right-sized: len %d cap %d", want, len(enc), cap(enc))
		}
		got, err := decodeAgree(enc)
		if err != nil {
			t.Fatalf("decode(%+v): %v", want, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round trip changed the message:\n got %+v\nwant %+v", got, want)
		}
		if maxList > 8 {
			continue // the cut sweep below is quadratic
		}
		for cut := 0; cut < len(enc); cut++ {
			if _, err := decodeAgree(enc[:cut]); err == nil {
				t.Fatalf("truncation to %d of %d bytes decoded", cut, len(enc))
			}
		}
		if _, err := decodeAgree(append(enc[:len(enc):len(enc)], 0)); err == nil {
			t.Fatal("trailing byte accepted")
		}
	}
}

// TestAgreeCodecRejectsOutOfRange: a negative instance, sender or rank
// cannot be encoded into something that decodes as a different value, and
// hand-made frames with unknown types, unknown flags, oversized integers
// or a length prefix the bytes cannot back are rejected.
func TestAgreeCodecRejectsOutOfRange(t *testing.T) {
	for _, m := range []agreeMsg{
		{Type: agreeVote, Inst: -1},
		{Type: agreeVote, From: -1},
		{Type: agreeDecide, Failed: []int{3, -7}},
		{Type: agreePull, Inst: math.MaxInt32 + 1},
	} {
		if got, err := decodeAgree(m.encode()); err == nil {
			t.Errorf("%+v decoded as %+v", m, got)
		}
	}
	valid := (&agreeMsg{Type: agreePull, Inst: 5, From: 1, Group: []int{0, 1, 2}}).encode()
	mutate := func(i int, v byte) []byte {
		b := append([]byte(nil), valid...)
		b[i] = v
		return b
	}
	for name, b := range map[string][]byte{
		"empty":        nil,
		"type only":    {agreePull},
		"unknown type": mutate(0, agreePull+1),
		"unknown flag": mutate(1, valid[1]|agreeFlagCovered<<1),
		"huge list":    {agreeVote, agreeFlagFailed, 0, 0, 0xff, 0xff, 0xff, 0xff, 0x0f},
		"list > bytes": {agreeVote, agreeFlagFailed, 0, 0, 3, 1, 2},
		"varint > u64": append([]byte{agreeVote, 0}, bytes.Repeat([]byte{0xff}, 11)...),
	} {
		if got, err := decodeAgree(b); err == nil {
			t.Errorf("%s: decoded as %+v", name, got)
		}
	}
}

// FuzzAgreeDecode: arbitrary bytes never panic the decoder, a decoded
// message holds no more list elements than the input has bytes (so the
// decoder allocates O(len(input)) whatever the length prefixes claim),
// and whatever decodes re-encodes to an equal message.
func FuzzAgreeDecode(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 32; i++ {
		m := randAgreeMsg(rng, 16)
		f.Add(m.encode())
	}
	group := []int{0, 1, 2, 3, 4, 5, 6, 7}
	for _, m := range []agreeMsg{
		{Type: agreePull, Inst: 3, Group: group},
		{Type: agreeVote, Inst: 3, From: 5, Failed: []int{2}, Group: group},
		{Type: agreeDecide, Inst: 3},
		{Type: agreeVote, Inst: 9, From: 1, Group: group, Failed: []int{4}, Covered: []int{3, 7}},
		{Type: agreeDecide, Inst: 9, Failed: []int{4}},
		{Type: agreeVote, Inst: 9, From: 6, Failed: []int{}},
	} {
		f.Add(m.encode())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := decodeAgree(data)
		if err != nil {
			return
		}
		if n := len(m.Failed) + len(m.Group) + len(m.Covered); n > len(data) {
			t.Fatalf("%d list elements from %d input bytes", n, len(data))
		}
		again, err := decodeAgree(m.encode())
		if err != nil || !reflect.DeepEqual(again, m) {
			t.Fatalf("re-encode of %+v gave %+v, %v", m, again, err)
		}
	})
}

func TestSplitCodecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 500; i++ {
		want := make([]splitEntry, rng.Intn(40))
		for j := range want {
			want[j] = splitEntry{WorldRank: rng.Intn(1 << 16), Color: rng.Intn(4095),
				Key: rng.Intn(1<<31) - 1<<30}
		}
		enc := encodeSplit(want)
		if len(enc) != cap(enc) {
			t.Fatalf("encoding not right-sized: len %d cap %d", len(enc), cap(enc))
		}
		got, err := decodeSplit(enc)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("got %v want %v", got, want)
		}
		for cut := 0; cut < len(enc); cut++ {
			if _, err := decodeSplit(enc[:cut]); err == nil {
				t.Fatalf("truncation to %d of %d bytes decoded", cut, len(enc))
			}
		}
	}
	if _, err := decodeSplit([]byte{0xff, 0xff, 0xff, 0x7f}); err == nil {
		t.Fatal("count far beyond the payload accepted")
	}
}

// agreeTap records every agreement frame that reaches the base fabric:
// its addressing, a copy of its bytes, and the address of its payload's
// backing array (held, so two live encodings never share one).
type agreeTap struct {
	transport.Fabric
	mu     sync.Mutex
	frames []tappedFrame
}

type tappedFrame struct {
	src, dst int
	backing  *byte
	bytes    []byte
}

func (a *agreeTap) Send(pkt *transport.Packet) error {
	if pkt.Kind == transport.KindAgreement && len(pkt.Payload) > 0 {
		a.mu.Lock()
		a.frames = append(a.frames, tappedFrame{src: pkt.Src, dst: pkt.Dst,
			backing: &pkt.Payload[0], bytes: append([]byte(nil), pkt.Payload...)})
		a.mu.Unlock()
	}
	return a.Fabric.Send(pkt)
}

// TestAgreementBroadcastEncodesOnce: the root's DECIDE puts ONE encoded
// buffer behind every destination's frame — all n-1 members in
// coordinator mode, its two children in tree mode — while AgreementMsgs
// still counts a message per destination. A root whose view has lost
// nobody never pulls: members push their votes on entry.
func TestAgreementBroadcastEncodesOnce(t *testing.T) {
	const n = 8
	for _, mode := range []string{AgreementCoordinator, AgreementTree} {
		t.Run(mode, func(t *testing.T) {
			tap := &agreeTap{Fabric: transport.NewLocal()}
			m := metrics.NewWorld(n)
			w, err := NewWorld(n, WithFabric(tap), WithMetrics(m), WithAgreement(mode),
				WithDeadline(30*time.Second))
			if err != nil {
				t.Fatal(err)
			}
			res, err := w.Run(func(p *Proc) error {
				_, err := p.World().ValidateAll()
				return err
			})
			if err != nil {
				t.Fatal(err)
			}
			requireNoRankErrors(t, res)

			// Rank 0's frames grouped by the encoding that backs them: the
			// widest fan-out of each message type, and how many encodings of
			// that type there were in all.
			dstsOf := map[*byte]map[int]bool{}
			typeOf := map[*byte]uint8{}
			for _, f := range tap.frames {
				if f.src != 0 {
					continue
				}
				if dstsOf[f.backing] == nil {
					dstsOf[f.backing] = map[int]bool{}
				}
				if dstsOf[f.backing][f.dst] {
					t.Fatalf("encoding sent to rank %d twice", f.dst)
				}
				dstsOf[f.backing][f.dst] = true
				typeOf[f.backing] = f.bytes[0]
			}
			widest, encodings := map[uint8]int{}, map[uint8]int{}
			for backing, dsts := range dstsOf {
				typ := typeOf[backing]
				encodings[typ]++
				widest[typ] = max(widest[typ], len(dsts))
			}
			children := n - 1
			if mode == AgreementTree {
				children = 2
			}
			if encodings[agreeDecide] != 1 || widest[agreeDecide] != children {
				t.Fatalf("DECIDE fan-out: %d encodings, widest reached %d of %d", encodings[agreeDecide], widest[agreeDecide], children)
			}
			if encodings[agreePull] != 0 || encodings[agreeVote] != 0 {
				t.Fatalf("the root sent %d PULL and %d VOTE encodings", encodings[agreePull], encodings[agreeVote])
			}
			if got, frames := m.Total(metrics.AgreementMsgs), int64(len(tap.frames)); got != frames {
				t.Fatalf("AgreementMsgs = %d, but %d agreement frames reached the fabric", got, frames)
			}
		})
	}
}

// TestCorruptedAgreementFrameLeavesOtherCopiesIntact: the frames of one
// broadcast share a payload, so a layer that damaged it in place would
// damage every destination's copy and every retransmission. Chaos
// corrupts half the frames on link 0->1; every agreement frame to any
// other destination must still reach the base fabric byte-identical to
// its siblings, and rank 1 must still get a clean retransmission (or the
// agreements below would never finish).
func TestCorruptedAgreementFrameLeavesOtherCopiesIntact(t *testing.T) {
	const n, rounds = 4, 40
	tap := &agreeTap{Fabric: transport.NewLocal()}
	plan := chaos.NewPlan(5).Link(0, 1, chaos.Rates{Corrupt: 0.5})
	w, err := NewWorld(n, WithFabric(tap), WithChaos(plan), WithDeadline(60*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	res, err := w.Run(func(p *Proc) error {
		for i := 0; i < rounds; i++ {
			if cnt, err := p.World().ValidateAll(); err != nil || cnt != 0 {
				return fmt.Errorf("round %d: count %d, %v", i, cnt, err)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	requireNoRankErrors(t, res)
	if plan.Count(chaos.EvCorrupt) == 0 {
		t.Fatal("chaos corrupted nothing on link 0->1")
	}
	// Everything rank 0, the root of every round, legitimately says: the
	// DECIDE, which also answers any vote that lands after it.
	clean := map[string]bool{}
	for i := 0; i < rounds; i++ {
		clean[string((&agreeMsg{Type: agreeDecide, Inst: i}).encode())] = true
	}
	mangled := 0
	first := map[*byte]tappedFrame{}
	for _, f := range tap.frames {
		if f.src != 0 {
			continue
		}
		if !clean[string(f.bytes)] {
			if f.dst != 1 {
				t.Fatalf("frame 0->%d reached the fabric damaged: % x", f.dst, f.bytes)
			}
			mangled++
		}
		// Frames cut from one encoding (siblings, and retransmissions of
		// the frame chaos damaged a clone of) all carry the same bytes.
		if g, ok := first[f.backing]; !ok {
			first[f.backing] = f
		} else if !bytes.Equal(f.bytes, g.bytes) {
			t.Fatalf("one encoding reached the fabric as % x (to %d) and % x (to %d)",
				g.bytes, g.dst, f.bytes, f.dst)
		}
	}
	if mangled == 0 {
		t.Fatal("no damaged agreement frame reached the fabric: the test exercised nothing")
	}
}

// TestAgreementStateBounded is the agreement row of the robustness
// budget: over 10^4 instances no engine keeps any state — folded votes,
// the entered mark, a reactive-serving mark — for an instance that is
// over. (decisions is exempt: late arrivals are answered from it.)
func TestAgreementStateBounded(t *testing.T) {
	const n, instances = 8, 10000
	for _, mode := range []string{AgreementCoordinator, AgreementTree} {
		t.Run(mode, func(t *testing.T) {
			w, err := NewWorld(n, WithAgreement(mode), WithDeadline(120*time.Second))
			if err != nil {
				t.Fatal(err)
			}
			res, err := w.Run(func(p *Proc) error {
				for i := 0; i < instances; i++ {
					if _, err := p.World().ValidateAll(); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			requireNoRankErrors(t, res)
			for r := 0; r < n; r++ {
				e := w.eng(r)
				e.mu.Lock()
				insts, decisions := len(e.agree.insts), len(e.agree.decisions)
				e.mu.Unlock()
				if insts != 0 {
					t.Errorf("rank %d: state for %d instances left after %d instances", r, insts, instances)
				}
				if decisions != instances {
					t.Errorf("rank %d: %d decisions for %d instances", r, decisions, instances)
				}
			}
		})
	}
}
