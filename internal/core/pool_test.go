package core

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/aliastest"
	"repro/internal/chaos"
	"repro/internal/metrics"
	"repro/internal/mpi"
	"repro/internal/transport"
)

// ringPattern returns the stamp and verify seams of a ring whose every
// hop fills its whole padding with bytes derived from (world, lap, value):
// byte j of a message is a function of its own header and j, so a buffer
// that another message has (partly) overwritten fails the check.
func ringPattern(world int64) (stamp func([]byte), verify func([]byte) error) {
	at := func(m Message, j int) byte {
		c := world*7919 + m.Marker*131 + m.Value*29
		return byte(c) ^ byte(c>>8) ^ byte(j) ^ byte(j>>8)*7
	}
	stamp = func(msg []byte) {
		m, _ := DecodeMessage(msg)
		for j := msgHeaderLen; j < len(msg); j++ {
			msg[j] = at(m, j)
		}
	}
	verify = func(pl []byte) error {
		// Yield first: a buffer handed back to the pool too early is then
		// likely to be taken and overwritten before the check.
		runtime.Gosched()
		m, err := DecodeMessage(pl)
		if err != nil {
			return err
		}
		for j := msgHeaderLen; j < len(pl); j++ {
			if got, want := pl[j], at(m, j); got != want {
				return fmt.Errorf("lap %d value %d: payload byte %d is %#x, want %#x", m.Marker, m.Value, j, got, want)
			}
		}
		return nil
	}
	return stamp, verify
}

// TestPooledReadsNeverAlias runs two 8-rank rings with 64 KiB payloads at
// once, every hop writing its pattern across the whole payload and every
// receiver checking each byte before it forwards. One ring runs over TCP,
// whose read loops fill pooled buffers that the ring releases after
// decoding. The other runs on the Local fabric with ARQ and chaos (drops
// and duplicates, no corruption), whose payloads are pooled as well: the
// ARQ hands each frame down as a pooled copy that the ring releases after
// decoding, keeps a pooled copy of its own of a lost frame until its ack,
// and chaos sends a duplicate as a pooled twin. A third goroutine keeps
// reading 64 KiB frames into pooled buffers of the same size class and
// handing them back, so a buffer released while still in use is soon
// overwritten: a payload released before its check fails the check, and
// a retransmit copy handed back before its ack corrupts its
// retransmission, which the end-to-end CRC rejects. Either way the test
// fails. Beside the rings, the internal consumers of a read run on Local
// and on TCP (aliastest.Consumers): results of Recv, Sendrecv, Bcast and
// two Allreduces, one of whose Op returns the received operand, are kept
// to the end, and 10^3 ValidateAll instances must each agree. Every
// eighth round's messages are 64 KiB, in the class the third goroutine
// churns.
func TestPooledReadsNeverAlias(t *testing.T) {
	const (
		ranks = 8
		laps  = 60
		pad   = 64<<10 - msgHeaderLen // 64 KiB payloads
	)
	plan := chaos.NewPlan(7).Default(chaos.Rates{Drop: 0.1, Dup: 0.05})
	local := metrics.NewWorld(ranks)
	worlds := []struct {
		name string
		mcfg mpi.Config
	}{
		{"tcp", mpi.Config{Fabric: transport.NewTCP(ranks)}},
		{"local-arq-chaos", mpi.Config{Chaos: plan, Reliable: true, Metrics: local}},
	}

	frame, err := transport.AppendFrame(nil, &transport.Packet{Payload: bytes.Repeat([]byte{0xa5}, pad+msgHeaderLen)})
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	cycled := make(chan struct{})
	go func() {
		defer close(cycled)
		r := bytes.NewReader(nil)
		var hdr [transport.FrameHeaderSize]byte
		var held [4]*transport.Packet // more than one: reach past a P's private slot
		for {
			select {
			case <-stop:
				return
			default:
			}
			for i := range held {
				r.Reset(frame)
				pkt, err := transport.ReadFrame(r, hdr[:])
				if err != nil {
					t.Error(err)
					return
				}
				held[i] = pkt
			}
			for _, pkt := range held {
				pkt.ReleasePayload()
			}
			runtime.Gosched() // move between Ps: each keeps its own free buffers
		}
	}()
	defer func() { close(stop); <-cycled }()

	var wg sync.WaitGroup
	for i, w := range worlds {
		wg.Add(1)
		go func(i int64, name string, mcfg mpi.Config) {
			defer wg.Done()
			mcfg.Size, mcfg.Deadline = ranks, 2*time.Minute
			cfg := Config{Iters: laps, Variant: VariantFull, Padding: pad}
			cfg.stamp, cfg.verify = ringPattern(i)
			world, err := mpi.NewWorld(ranks, func(c *mpi.Config) { *c = mcfg })
			if err != nil {
				t.Errorf("%s: %v", name, err)
				return
			}
			report := NewReport(ranks)
			body := Body(cfg, report)
			res, err := world.Run(func(p *mpi.Proc) error {
				err := body(p)
				if err != nil {
					t.Errorf("%s: rank %d: %v", name, p.Rank(), err)
					p.Abort(1) // the other ranks would wait for this one forever
				}
				return err
			})
			if err != nil || res.FinishedCount() != ranks {
				t.Errorf("%s: %d of %d ranks finished: %v", name, res.FinishedCount(), ranks, err)
				return
			}
			root := report.Rank(0)
			if len(root.RootValues) != laps {
				t.Errorf("%s: root absorbed %d laps, want %d", name, len(root.RootValues), laps)
			}
			for lap, v := range root.RootValues {
				if v != ranks {
					t.Errorf("%s: lap %d accumulated %d, want %d", name, lap, v, ranks)
				}
			}
		}(int64(i), w.name, w.mcfg)
	}
	// The internal consumers of a read, beside the rings: kept results of
	// Recv, Sendrecv, Bcast and Allreduce, and ValidateAll instances.
	for name, fab := range map[string]transport.Fabric{
		"consumers-local": transport.NewLocal(),
		"consumers-tcp":   transport.NewTCP(6),
	} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := aliastest.Run(6, fab, aliastest.Consumers(200, 1000)); err != nil {
				t.Errorf("%s: %v", name, err)
			}
		}()
	}
	wg.Wait()
	if plan.Count(chaos.EvDrop) == 0 || plan.Count(chaos.EvDup) == 0 {
		t.Fatalf("chaos injected %d drops and %d duplicates, want some of each",
			plan.Count(chaos.EvDrop), plan.Count(chaos.EvDup))
	}
	if rej := local.Total(metrics.FramesRejected); rej != 0 {
		t.Fatalf("%d frames rejected on Local with ARQ: a retransmit copy went back to the pool in use", rej)
	}
}
