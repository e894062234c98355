package main

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/chaos"
	"repro/internal/collective"
	"repro/internal/core"
	"repro/internal/inject"
	"repro/internal/mpi"
	"repro/internal/reliable"
	"repro/internal/transport"
)

// trialResult is one trial of a workload: a fixed batch of operations on
// one world (or, for runthrough, one world per operation).
type trialResult struct {
	ops       int       // hops, rounds or runs timed
	opUs      float64   // time of one operation, microseconds
	allocs    float64   // heap objects allocated per operation
	bytes     float64   // heap bytes allocated per operation
	payload   float64   // application payload bytes received per operation
	laps      []float64 // microseconds per lap, round or run (traced trials and runthrough)
	resends   float64   // core: Fig. 7 retransmissions per operation
	failovers float64   // core: neighbour replacements (send and receive side) per operation
	attempted int       // laps, rounds or runs whose output was checked
	failed    int       // ... and found wrong
}

// workload is one row of the benchmark: a name later issues cite, what
// one operation is, and how to run a trial of batch operations. ins is
// nil on the end-to-end trials and carries the hook, span fabric and
// counters on the traced pass.
type workload struct {
	name  string
	why   string
	op    string // what op_us times here: hop, round or run
	batch int    // laps, rounds or runs per trial: the same on every commit
	trace int    // ... per traced pass (fewer: every event is kept in memory)
	trial func(batch int, seed int64, ins *instruments) (trialResult, error)
	// throwaway builds one world like the trial's and returns its set-up
	// time in seconds.
	throwaway func(seed int64) (float64, error)
}

// ringSpec describes a steady-state ring world.
type ringSpec struct {
	n       int // logical ranks
	phys    int // physical ranks (n x replication degree)
	cfg     core.Config
	tcp     bool
	options func(seed int64) []mpi.Option
}

func (s ringSpec) fabric() transport.Fabric {
	if s.tcp {
		return transport.NewTCP(s.phys)
	}
	return transport.NewLocal()
}

// worldOptions assembles the option list of one world: the base fabric
// (wrapped in the span fabric when tracing), the spec's own layers, and
// the traced pass's hook and counters.
func (s ringSpec) worldOptions(seed int64, ins *instruments) func() []mpi.Option {
	return func() []mpi.Option {
		opts := []mpi.Option{mpi.WithFabric(ins.wrap(s.fabric())), mpi.WithDeadline(worldDeadline)}
		if s.options != nil {
			opts = append(opts, s.options(seed)...)
		}
		return append(opts, ins.options(nil)...)
	}
}

// worldDeadline turns a hung world into a failed run, not a hung
// benchmark; no healthy trial comes near it.
const worldDeadline = 60 * time.Second

func (s ringSpec) trial(laps int, seed int64, ins *instruments) (trialResult, error) {
	cfg := s.cfg
	cfg.Iters = laps
	report := core.NewReport(s.n)
	ins.begin(s.phys, s.n, true)
	run, err := runWorld(s.n, s.worldOptions(seed, ins), func(p *mpi.Proc) error {
		ins.mark(p)
		defer ins.mark(p)
		return core.Body(cfg, report)(p)
	})
	if err != nil {
		return trialResult{}, err
	}
	hops := laps * s.n
	out := trialResult{
		ops:       hops,
		opUs:      float64(run.elapsed.Nanoseconds()) / 1e3 / float64(hops),
		allocs:    float64(run.mallocs) / float64(hops),
		bytes:     float64(run.bytes) / float64(hops),
		payload:   float64(cfg.Padding + 16),
		attempted: laps,
	}
	// Output check: the root read back, for every lap, a value equal to
	// the alive ring size, nothing was resent or forwarded twice.
	values := report.Rank(0).RootValues
	for lap := 0; lap < laps; lap++ {
		if values[int64(lap)] != int64(s.n) {
			out.failed++
		}
	}
	if len(values) != laps || report.TotalDupsForwarded() != 0 || report.TotalResends() != 0 {
		out.failed = laps
	}
	return out, nil
}

func (s ringSpec) throwaway(seed int64) (float64, error) {
	return setupSeconds(s.n, s.worldOptions(seed, nil))
}

func (s ringSpec) workload(name, why string, batch, trace int) *workload {
	return &workload{
		name: name, why: why, op: "hop",
		batch: batch, trace: trace, trial: s.trial, throwaway: s.throwaway,
	}
}

// Collective mix: the rank function is the benchmark's own.
const (
	collRanks     = 8
	collBytes     = 128
	validateEvery = 8
)

// collTimes receives rank 0's per-operation times on the traced pass.
type collTimes struct {
	barrier, bcast, allreduce, validate, round []float64 // microseconds
}

// collBody runs rounds of Barrier, Bcast, Allreduce and, every eighth
// round, ValidateAll, checking every output. failed[rank] counts the
// rounds that rank saw go wrong. times is nil except on the traced pass.
func collBody(rounds int, failed []int, times *collTimes) func(p *mpi.Proc) error {
	return func(p *mpi.Proc) error {
		c := p.World()
		me, n := c.Rank(), c.Size()
		vec := make([]int64, collBytes/8)
		timed := times != nil && p.PhysRank() == 0
		times := times // per rank: only rank 0 may write the shared one
		if !timed {
			times = new(collTimes)
		}
		var t time.Time
		lap := func(dst *[]float64) {
			if timed {
				now := time.Now()
				*dst = append(*dst, float64(now.Sub(t).Nanoseconds())/1e3)
				t = now
			}
		}
		for r := 0; r < rounds; r++ {
			ok := true
			var roundStart time.Time
			if timed {
				roundStart = time.Now()
				t = roundStart
			}
			if err := collective.Barrier(c); err != nil {
				return err
			}
			lap(&times.barrier)
			var buf []byte
			if me == 0 {
				buf = make([]byte, collBytes)
				binary.LittleEndian.PutUint64(buf, uint64(r))
			}
			got, err := collective.Bcast(c, 0, buf)
			if err != nil {
				return err
			}
			lap(&times.bcast)
			if len(got) != collBytes || binary.LittleEndian.Uint64(got) != uint64(r) {
				ok = false
			}
			for i := range vec {
				vec[i] = int64(r + i)
			}
			sum, err := collective.Allreduce(c, collective.EncodeInt64s(vec), collective.SumInt64)
			if err != nil {
				return err
			}
			lap(&times.allreduce)
			sums, err := collective.DecodeInt64s(sum)
			if err != nil || len(sums) != len(vec) {
				ok = false
			} else {
				for i, v := range sums {
					if v != int64(n)*int64(r+i) {
						ok = false
					}
				}
			}
			if r%validateEvery == validateEvery-1 {
				dead, err := c.ValidateAll()
				if err != nil {
					return err
				}
				lap(&times.validate)
				if dead != 0 {
					ok = false
				}
			}
			if timed {
				times.round = append(times.round, float64(time.Since(roundStart).Nanoseconds())/1e3)
			}
			if !ok {
				failed[me]++
			}
		}
		return nil
	}
}

// collOptions is the collective world: Local fabric, nothing layered.
// agreement selects the validate_all topology ("" is the default,
// coordinator).
func collOptions(agreement string, ins *instruments) func() []mpi.Option {
	return func() []mpi.Option {
		opts := []mpi.Option{
			mpi.WithFabric(ins.wrap(transport.NewLocal())),
			mpi.WithDeadline(worldDeadline), mpi.WithAgreement(agreement),
		}
		return append(opts, ins.options(nil)...)
	}
}

func collTrial(rounds int, _ int64, ins *instruments) (trialResult, error) {
	var times *collTimes
	if ins != nil {
		times = new(collTimes)
	}
	return collRun("", rounds, ins, times)
}

// collRun runs one collective world. times, when not nil, receives rank
// 0's per-operation times.
func collRun(agreement string, rounds int, ins *instruments, times *collTimes) (trialResult, error) {
	failed := make([]int, collRanks)
	ins.begin(collRanks, collRanks, false)
	body := collBody(rounds, failed, times)
	run, err := runWorld(collRanks, collOptions(agreement, ins), func(p *mpi.Proc) error {
		ins.mark(p)
		defer ins.mark(p)
		return body(p)
	})
	if err != nil {
		return trialResult{}, err
	}
	out := trialResult{
		ops:    rounds,
		opUs:   float64(run.elapsed.Nanoseconds()) / 1e3 / float64(rounds),
		allocs: float64(run.mallocs) / float64(rounds),
		bytes:  float64(run.bytes) / float64(rounds),
		// Bcast hands 128 B to the n-1 non-roots, Allreduce 128 B to all n.
		payload:   float64(collBytes * (2*collRanks - 1)),
		attempted: rounds,
	}
	if times != nil {
		out.laps = times.round
	}
	for _, f := range failed {
		if f > out.failed {
			out.failed = f
		}
	}
	return out, nil
}

func collThrowaway(int64) (float64, error) {
	return setupSeconds(collRanks, collOptions("", nil))
}

// Run-through: the paper's scenario, one fresh world per run.
const (
	rtRanks   = 16
	rtIters   = 16
	rtKills   = 4
	rtOrdinal = 8  // kills land after a rank's 1st..8th receive
	rtSeeds   = 50 // kill schedules per benchmark seed, cycled
)

var rtConfig = core.Config{
	Iters: rtIters, Variant: core.VariantFull,
	Termination: core.TermValidateAll, RootPolicy: core.RootElect,
}

// killSeeds derives the fixed list of kill-schedule seeds from the
// benchmark seed.
func killSeeds(seed int64) []int64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]int64, rtSeeds)
	for i := range out {
		out[i] = rng.Int63()
	}
	return out
}

func nonRoots() []int {
	out := make([]int, 0, rtRanks-1)
	for r := 1; r < rtRanks; r++ {
		out = append(out, r)
	}
	return out
}

// runthroughOnce runs one scenario and reports its wall time from before
// NewWorld to Run's return, the payload bytes its ranks received, and
// whether its outcome was right: four kills fired, the twelve survivors
// finished and terminated, rank 0 absorbed all sixteen laps with values
// between the smallest and the largest alive ring, nothing duplicated.
func runthroughOnce(killSeed int64, ins *instruments, out *trialResult) (us float64, ok bool, err error) {
	plan, _ := inject.RandomPlan(killSeed, nonRoots(), rtKills, rtOrdinal)
	report := core.NewReport(rtRanks)
	begin := time.Now()
	opts := []mpi.Option{mpi.WithFabric(ins.wrap(transport.NewLocal())), mpi.WithDeadline(worldDeadline)}
	opts = append(opts, ins.options(plan.Hook())...)
	w, err := mpi.NewWorld(rtRanks, opts...)
	if err != nil {
		return 0, false, err
	}
	res, err := w.Run(core.Body(rtConfig, report))
	us = float64(time.Since(begin).Nanoseconds()) / 1e3
	if err != nil {
		return us, false, fmt.Errorf("run: %w", err)
	}
	ok = plan.FiredCount() == rtKills && res.FinishedCount() == rtRanks-rtKills &&
		report.TotalDupsForwarded() == 0
	for r := 0; r < rtRanks; r++ {
		if rr := res.Ranks[r]; rr.Finished && !report.Rank(r).Terminated {
			ok = false
		}
	}
	values := report.Rank(0).RootValues
	if len(values) != rtIters {
		ok = false
	}
	for _, v := range values {
		if v < rtRanks-rtKills || v > rtRanks {
			ok = false
		}
	}
	out.payload += float64(report.TotalIterations() * 16)
	out.resends += float64(report.TotalResends())
	for r := 0; r < rtRanks; r++ {
		st := report.Rank(r)
		out.failovers += float64(st.SendFailovers + st.RecvFailovers)
	}
	return us, ok, nil
}

func runthroughTrial(runs int, seed int64, ins *instruments) (trialResult, error) {
	seeds := killSeeds(seed)
	out := trialResult{ops: runs, attempted: runs, laps: make([]float64, 0, runs)}
	ins.begin(rtRanks, rtRanks, false)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	ins.markAll()
	for i := 0; i < runs; i++ {
		us, ok, err := runthroughOnce(seeds[i%len(seeds)], ins, &out)
		if err != nil {
			return out, err
		}
		out.laps = append(out.laps, us)
		if !ok {
			out.failed++
		}
	}
	ins.markAll()
	runtime.ReadMemStats(&m1)
	out.opUs = median(out.laps)
	out.payload /= float64(runs)
	out.resends /= float64(runs)
	out.failovers /= float64(runs)
	out.allocs = float64(m1.Mallocs-m0.Mallocs) / float64(runs)
	out.bytes = float64(m1.TotalAlloc-m0.TotalAlloc) / float64(runs)
	return out, nil
}

// runthroughThrowaway measures the set-up of the run-through world shape
// with a schedule that kills nobody, because the warm-up's receives would
// otherwise advance the kill ordinals.
func runthroughThrowaway(int64) (float64, error) {
	return setupSeconds(rtRanks, func() []mpi.Option {
		return []mpi.Option{mpi.WithDeadline(worldDeadline), mpi.WithHook(inject.NewPlan().Hook())}
	})
}

// lossyRates are the per-frame fault rates of ring.local.lossy.
var lossyRates = chaos.Rates{Drop: .02, Dup: .01, Corrupt: .005}

// local8 is the 16 B, 8-rank ring on the Local fabric with the given
// layers on top; the reference panel varies it one layer at a time.
func local8(v core.Variant, options func(int64) []mpi.Option) ringSpec {
	return ringSpec{n: 8, phys: 8, cfg: core.Config{Variant: v}, options: options}
}

// chainRing is the fault-unaware ring over ARQ with r chain replicas per
// rank.
func chainRing(r int) ringSpec {
	s := local8(core.VariantUnaware, func(int64) []mpi.Option {
		return []mpi.Option{
			mpi.WithReliability(reliable.Options{}),
			mpi.WithReplication(mpi.ReplicationOptions{R: r, Mode: mpi.ReplChain}),
		}
	})
	s.phys = s.n * r
	return s
}

// workloads is the benchmark, in the order it runs. Batches are sized for
// roughly a quarter of a second per trial on the two-core reference box.
var workloads = []*workload{
	local8(core.VariantFull, nil).workload(
		"ring.local.small",
		"16 B full-FT ring on the in-memory fabric: core ring logic and mpi match/request are the whole hop; codec, sockets, ARQ bypassed",
		15000, 15000),
	ringSpec{n: 8, phys: 8, tcp: true, cfg: core.Config{Variant: core.VariantFull}}.workload(
		"ring.tcp.small",
		"same ring over loopback TCP: transport per-frame cost (74 B header, writer/reader goroutines, syscalls) dominates the hop",
		2500, 5000),
	ringSpec{n: 8, phys: 8, tcp: true, cfg: core.Config{Variant: core.VariantFull, Padding: 65536}}.workload(
		"ring.tcp.large",
		"64 KiB payload over TCP: the transport used for bandwidth (copies, CRCs, allocation), catches small-frame tricks that cost throughput",
		250, 600),
	local8(core.VariantFull, func(seed int64) []mpi.Option {
		return []mpi.Option{mpi.WithChaos(chaos.NewPlan(seed).Default(lossyRates))}
	}).workload(
		"ring.local.lossy",
		"2% drop, 1% dup, 0.5% corrupt: reliable retransmit/dedup/CRC-reject and chaos set the hop; ring logic is a few percent",
		400, 1200),
	chainRing(2).workload(
		"ring.local.chain2",
		"fault-unaware ring with R=2 chain replication over ARQ: mpi replication forward, tail-ack outbox and the clean ack path; ring.local.small is its bypass",
		2500, 4000),
	{
		name:  "coll.local.mix",
		why:   "Barrier, Bcast and Allreduce of 128 B each round, ValidateAll every 8th: many posted receives and fan-in at once, the opposite of the ring's single token",
		op:    "round",
		batch: 1500, trace: 2000, trial: collTrial, throwaway: collThrowaway,
	},
	{
		name:  "runthrough.kill4",
		why:   "the paper's scenario whole: 16 ranks, 16 laps, 4 seeded kills, validate_all termination, root election, a fresh world per run with set-up inside the time",
		op:    "run",
		batch: 100, trace: 150, trial: runthroughTrial, throwaway: runthroughThrowaway,
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}
