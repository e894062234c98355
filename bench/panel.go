package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"time"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/reliable"
	"repro/internal/trace"
	"repro/internal/transport"
)

// The reference panel: small ablations and micro-measurements that do not
// depend on the selected workload. Every traced run repeats them, so each
// per-layer figure later issues target (ft_factor, repl_factor,
// echo_ratio, obs.marginal_pct, ...) has a recorded value next to every
// workload's own attribution. Each ring ablation is the 16 B, 8-rank
// Local ring with exactly one layer added or removed.

const panelReps = 3 // per ablation; the median is reported

// panelRings lists the ablation rings with their lap counts (about 0.15 s
// each on the reference box).
var panelRings = []struct {
	key  string
	spec ringSpec
	laps int
}{
	{"unaware", local8(core.VariantUnaware, nil), 12000},
	{"full", local8(core.VariantFull, nil), 10000},
	{"full+obs", local8(core.VariantFull, func(int64) []mpi.Option {
		return []mpi.Option{
			mpi.WithMetrics(metrics.NewWorld(8)), mpi.WithObservability(obs.NewRegistry(8)),
			mpi.WithTracer(trace.New(4096)), // flight-recorder mode: bounded memory
		}
	}), 5000},
	{"full+arq", local8(core.VariantFull, func(int64) []mpi.Option {
		return []mpi.Option{mpi.WithReliability(reliable.Options{})}
	}), 3000},
	{"full+arq+chaos0", local8(core.VariantFull, func(seed int64) []mpi.Option {
		return []mpi.Option{mpi.WithChaos(chaos.NewPlan(seed))} // no rates: injects nothing
	}), 3000},
	{"unaware+arq+r1", chainRing(1), 3000},
	{"unaware+arq+r2", chainRing(2), 1500},
}

// runPanel measures the panel once and returns its per-layer metrics.
func runPanel(seed int64, div int) (map[string]float64, error) {
	out := make(map[string]float64)
	hop := make(map[string][]float64)
	for rep := 0; rep < panelReps; rep++ {
		for _, pr := range panelRings {
			res, err := pr.spec.trial(max(pr.laps/div, 20), seed+int64(rep), nil)
			if err != nil {
				return nil, fmt.Errorf("panel ring %s: %w", pr.key, err)
			}
			if res.failed != 0 {
				return nil, fmt.Errorf("panel ring %s: %d of %d laps wrong", pr.key, res.failed, res.attempted)
			}
			hop[pr.key] = append(hop[pr.key], res.opUs)
		}
	}
	h := func(key string) float64 { return median(hop[key]) }
	out["core.ft_factor"] = h("full") / h("unaware")
	out["obs.marginal_pct"] = (h("full+obs")/h("full") - 1) * 100
	out["reliable.marginal_ns"] = (h("full+arq") - h("full")) * 1e3
	out["chaos.marginal_ns"] = (h("full+arq+chaos0") - h("full+arq")) * 1e3
	out["mpi.repl_factor"] = h("unaware+arq+r2") / h("unaware+arq+r1")

	for _, c := range []struct {
		name           string
		payload, iters int
	}{{"transport.codec_ns.16B", 16, 200000}, {"transport.codec_ns.64KiB", 64 << 10, 4000}} {
		ns, err := codecNs(c.payload, max(c.iters/div, 10))
		if err != nil {
			return nil, fmt.Errorf("panel codec: %w", err)
		}
		out[c.name] = ns
	}

	pings := max(3000/div, 50)
	fabricRTT, err := fabricPingPong(pings)
	if err != nil {
		return nil, fmt.Errorf("panel tcp ping-pong: %w", err)
	}
	rawRTT, err := rawEcho(pings)
	if err != nil {
		return nil, fmt.Errorf("panel raw echo: %w", err)
	}
	out["transport.echo_ratio"] = fabricRTT / rawRTT

	for _, mode := range []string{mpi.AgreementCoordinator, mpi.AgreementTree} {
		var times collTimes
		res, err := collRun(mode, max(800/div, 2*validateEvery), nil, &times)
		if err != nil {
			return nil, fmt.Errorf("panel collectives (%s): %w", mode, err)
		}
		if res.failed != 0 {
			return nil, fmt.Errorf("panel collectives (%s): %d of %d rounds wrong", mode, res.failed, res.attempted)
		}
		out["mpi.validate_us."+mode] = median(times.validate)
		if mode == mpi.AgreementCoordinator {
			out["collective.barrier_us"] = median(times.barrier)
			out["collective.bcast_us"] = median(times.bcast)
			out["collective.allreduce_us"] = median(times.allreduce)
		}
	}
	return out, nil
}

// codecNs times one AppendFrame plus one ReadFrame of a payload-byte data
// frame, in nanoseconds.
func codecNs(payload, iters int) (float64, error) {
	pkt := &transport.Packet{Src: 1, Dst: 2, Tag: core.TagRing, Payload: make([]byte, payload)}
	pkt.Crc = transport.PayloadCrc(pkt.Payload)
	var buf []byte
	var hdr [transport.FrameHeaderSize]byte
	rd := bytes.NewReader(nil)
	begin := time.Now()
	for i := 0; i < iters; i++ {
		var err error
		if buf, err = transport.AppendFrame(buf[:0], pkt); err != nil {
			return 0, err
		}
		rd.Reset(buf)
		if _, err := transport.ReadFrame(rd, hdr[:]); err != nil {
			return 0, err
		}
	}
	return float64(time.Since(begin).Nanoseconds()) / float64(iters), nil
}

// fabricPingPong returns the round-trip time, in microseconds, of a 16 B
// message between two ranks over the TCP fabric.
func fabricPingPong(pings int) (float64, error) {
	run, err := runWorld(2, func() []mpi.Option {
		return []mpi.Option{mpi.WithFabric(transport.NewTCP(2)), mpi.WithDeadline(worldDeadline)}
	}, func(p *mpi.Proc) error {
		c := p.World()
		buf := make([]byte, 16)
		for i := 0; i < pings; i++ {
			if c.Rank() == 0 {
				if err := c.Send(1, core.TagRing, buf); err != nil {
					return err
				}
			}
			if _, _, err := c.Recv(1-c.Rank(), core.TagRing); err != nil {
				return err
			}
			if c.Rank() == 1 {
				if err := c.Send(0, core.TagRing, buf); err != nil {
					return err
				}
			}
		}
		return nil
	})
	return float64(run.elapsed.Nanoseconds()) / 1e3 / float64(pings), err
}

// rawEcho returns the round-trip time, in microseconds, of a frame-sized
// write and read-back over a bare loopback net.Conn: what the socket
// costs with no fabric above it. The wire bytes equal fabricPingPong's.
func rawEcho(pings int) (float64, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	const frame = transport.FrameHeaderSize + 16
	served := make(chan error, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			served <- err
			return
		}
		defer conn.Close()
		buf := make([]byte, frame)
		for {
			if _, err := io.ReadFull(conn, buf); err != nil {
				if errors.Is(err, io.EOF) {
					err = nil // the client hung up: done
				}
				served <- err
				return
			}
			if _, err := conn.Write(buf); err != nil {
				served <- err
				return
			}
		}
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		ln.Close() // unblocks Accept
		<-served
		return 0, err
	}
	buf := make([]byte, frame)
	exchange := func(n int) error {
		for i := 0; i < n; i++ {
			if _, err := conn.Write(buf); err != nil {
				return err
			}
			if _, err := io.ReadFull(conn, buf); err != nil {
				return err
			}
		}
		return nil
	}
	err = exchange(skipLaps)
	begin := time.Now()
	if err == nil {
		err = exchange(pings)
	}
	rtt := float64(time.Since(begin).Nanoseconds()) / 1e3 / float64(pings)
	conn.Close()
	if serr := <-served; err == nil {
		err = serr
	}
	return rtt, err
}
