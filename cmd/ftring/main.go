// Command ftring runs the fault-tolerant ring application (Hursey &
// Graham 2011) over the in-process MPI runtime, with every design variant
// and failure schedule the paper discusses available from flags.
//
// Examples:
//
//	ftring -n 8 -iters 16                         # full FT ring, no failures
//	ftring -n 8 -iters 16 -kill 3:recv:2          # rank 3 dies after 2nd recv
//	ftring -n 4 -variant naive -kill 2:recv:2     # reproduce the Fig. 6 hang
//	ftring -n 8 -term validate-all -root elect -kill 0:recv:3
//	ftring -n 8 -transport tcp -trace             # TCP loopback with a trace dump
//	ftring -n 16 -random-failures 3 -seed 7       # seeded random schedule
//	ftring -n 8 -chaos -chaos-drop 0.1            # lossy links, reliability on
//	ftring -n 4 -chaos-partition 0:1:1:0          # blackhole 0->1 until escalation
//	ftring -n 16 -detector swim -kill 5:recv:2      # real detection, no oracle: probes, gossip, fencing
//	ftring -n 16 -detector swim -swim-period 8ms -agreement tree -term validate-all -kill 5:recv:3
//	ftring -elastic -seed 3                         # elastic repair demo: kill, respawn, resume
//	ftring -elastic -obs 127.0.0.1:9464 -obs-linger 5s   # scrape respawn/shrink counters
//	ftring -replicas 2 -seed 3                      # replication demo: a replica dies, failover is invisible
//	ftring -replicas 2 -rep-refill=false            # leave the killed slot empty (no auto re-replication)
//	ftring -replicas 2 -obs 127.0.0.1:9464 -obs-linger 5s   # scrape promotion/dedup/refill counters
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/ftmpi"
	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/inject"
	"repro/internal/workload"
)

func main() {
	var (
		n         = flag.Int("n", 8, "number of ranks")
		iters     = flag.Int("iters", 16, "ring iterations (the paper's max_iter)")
		variant   = flag.String("variant", "full", "receive design: unaware|naive|no-marker|separate-tag|full")
		term      = flag.String("term", "root-bcast", "termination: none|root-bcast|validate-all")
		rootPol   = flag.String("root", "abort", "root policy: abort|elect")
		kills     killFlags
		randomF   = flag.Int("random-failures", 0, "kill this many random non-root ranks")
		seed      = flag.Int64("seed", 1, "seed for -random-failures")
		fabric    = flag.String("transport", "local", "fabric: local|tcp|latency")
		latency   = flag.Duration("latency", 100*time.Microsecond, "per-hop delay for -transport latency")
		deadline  = flag.Duration("deadline", 15*time.Second, "watchdog (0 = none)")
		padding   = flag.Int("padding", 0, "extra payload bytes per message")
		doTrace   = flag.Bool("trace", false, "print the event timeline")
		doStats   = flag.Bool("stats", true, "print per-rank statistics")
		traceOut  = flag.String("trace-out", "", "stream the event timeline as JSONL to this file (see cmd/traceconv)")
		obsAddr   = flag.String("obs", "", "serve /metrics, /debug/vars, /debug/pprof on this address (e.g. 127.0.0.1:9464)")
		obsHold   = flag.Duration("obs-linger", 0, "keep the -obs endpoint up this long after the run (for scrapers)")
		elastic   = flag.Bool("elastic", false, "run the elastic repair demo instead of the ring: a seeded victim dies holding the token, AutoRespawn reincarnates its slot at the next generation, the ring resumes exactly-once at full size (fixed world size; honors -seed, -obs, -stats)")
		replicas  = flag.Int("replicas", 0, "run the replication demo with this many hot replicas per logical rank: a seeded replica is killed mid-run and a standby is promoted without the fault-unaware ring ever noticing (fixed logical ring size; honors -seed, -obs, -stats, -trace-out; R=1 runs failure-free)")
		repRefill = flag.Bool("rep-refill", true, "with -replicas, automatically re-replicate the killed slot (the run waits until the group is back at full degree)")

		detMode    = flag.String("detector", "oracle", "failure detection: oracle|swim")
		swPeriod   = flag.Duration("swim-period", 0, "SWIM protocol period (0 = default; with -detector swim)")
		swIndirect = flag.Int("swim-indirect", 0, "SWIM indirect-probe fanout k (0 = default; with -detector swim)")
		agreeMode  = flag.String("agreement", "", "validate_all fan-out: coordinator (all children of the root) | tree (binary) (\"\" = coordinator)")

		chaosOn      = flag.Bool("chaos", false, "inject network faults (default rates unless overridden)")
		chaosSeed    = flag.Int64("chaos-seed", 1, "seed for the chaos plan")
		chaosDrop    = flag.Float64("chaos-drop", -1, "per-frame drop probability (implies -chaos)")
		chaosDup     = flag.Float64("chaos-dup", -1, "per-frame duplication probability (implies -chaos)")
		chaosCorrupt = flag.Float64("chaos-corrupt", -1, "per-frame payload corruption probability (implies -chaos)")
		chaosReorder = flag.Float64("chaos-reorder", 0, "per-frame reorder probability (implies -chaos)")
		chaosDelay   = flag.Float64("chaos-delay", 0, "per-frame delay probability (implies -chaos)")
		chaosJitter  = flag.Duration("chaos-jitter", time.Millisecond, "max delay added by -chaos-delay")
		partitions   partitionFlags
	)
	flag.Var(&kills, "kill", "failure spec rank:point:ordinal (point: recv|send|before-send); repeatable")
	flag.Var(&partitions, "chaos-partition", "link partition src:dst:from:to — frame ordinals, 0 = open-ended; repeatable, implies -chaos")
	flag.Parse()

	cfg := core.Config{Iters: *iters, Padding: *padding}
	if err := parseVariant(*variant, &cfg.Variant); err != nil {
		fatal(err)
	}
	if err := parseTermination(*term, &cfg.Termination); err != nil {
		fatal(err)
	}
	if err := parseRootPolicy(*rootPol, &cfg.RootPolicy); err != nil {
		fatal(err)
	}

	plan := inject.NewPlan()
	for _, k := range kills {
		plan.Add(k)
	}
	if *randomF > 0 {
		cands := make([]int, 0, *n-1)
		for r := 1; r < *n; r++ {
			cands = append(cands, r)
		}
		rp, chosen := inject.RandomPlan(*seed, cands, *randomF, *iters/2+1)
		plan = rp
		fmt.Printf("random failure schedule (seed %d): %v\n", *seed, chosen)
	}

	var chaosPlan *ftmpi.ChaosPlan
	if *chaosOn || *chaosDrop >= 0 || *chaosDup >= 0 || *chaosCorrupt >= 0 ||
		*chaosReorder > 0 || *chaosDelay > 0 || len(partitions) > 0 {
		rates := ftmpi.ChaosRates{Drop: 0.05, Dup: 0.02, Corrupt: 0.01}
		if *chaosDrop >= 0 {
			rates.Drop = *chaosDrop
		}
		if *chaosDup >= 0 {
			rates.Dup = *chaosDup
		}
		if *chaosCorrupt >= 0 {
			rates.Corrupt = *chaosCorrupt
		}
		rates.Reorder = *chaosReorder
		rates.Delay = *chaosDelay
		rates.Jitter = *chaosJitter
		chaosPlan = ftmpi.NewChaosPlan(*chaosSeed).Default(rates)
		for _, pt := range partitions {
			chaosPlan.Partition(pt.src, pt.dst, pt.from, pt.to)
		}
		fmt.Printf("chaos plan (seed %d): %s\n", *chaosSeed, chaosPlan)
	}

	rec := ftmpi.NewTracer(0)
	if !*doTrace && *traceOut == "" {
		rec = nil
	}
	var jsonl *ftmpi.TraceJSONLWriter
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fatal(err)
		}
		jsonl = ftmpi.NewTraceJSONLWriter(f)
		rec.SetSink(jsonl.Sink())
	}
	if *elastic {
		// The elastic demo protocol is written for a fixed ring size;
		// the counters and histograms must be sized to match.
		*n = workload.ElasticDemoRanks
	}
	if *replicas > 0 {
		// Replication worlds meter every physical slot: logical ring size
		// times the replication degree.
		*n = workload.ReplicaDemoRanks * *replicas
	}
	mets := ftmpi.NewMetrics(*n)
	reg := ftmpi.NewObsRegistry(*n)
	mcfg := ftmpi.Config{
		Size: *n, Deadline: *deadline, Hook: plan.Hook(),
		Tracer: rec, Metrics: mets, Obs: reg, Chaos: chaosPlan,
		Detector: *detMode,
		Swim: ftmpi.SwimOptions{
			Period: *swPeriod, IndirectK: *swIndirect,
		},
		Agreement: *agreeMode,
	}
	var obsSrv *ftmpi.ObsServer
	if *obsAddr != "" {
		srv, err := ftmpi.ServeObs(*obsAddr, func() ftmpi.ObsSource {
			return ftmpi.ObsSource{Metrics: mets, Obs: reg}
		})
		if err != nil {
			fatal(err)
		}
		obsSrv = srv
		fmt.Printf("observability endpoint: http://%s/metrics\n", srv.Addr())
	}

	if *elastic {
		runElasticDemo(*seed, *n, mets, reg, *doStats, obsSrv, *obsHold)
		return
	}
	if *replicas > 0 {
		runReplicaDemo(*seed, *replicas, *repRefill, rec, mets, reg, *doStats, obsSrv, *obsHold)
		if jsonl != nil {
			if cerr := jsonl.Close(); cerr != nil {
				fatal(cerr)
			}
			fmt.Printf("trace written: %s (%d events, %d truncated)\n",
				*traceOut, rec.Recorded(), rec.Truncated())
		}
		return
	}

	switch *fabric {
	case "local":
	case "tcp":
		mcfg.Fabric = ftmpi.NewTCPFabric(*n)
	case "latency":
		mcfg.Fabric = ftmpi.NewLatencyFabric(ftmpi.NewLocalFabric(), *latency)
	default:
		fatal(fmt.Errorf("unknown transport %q", *fabric))
	}

	report, res, err := core.Run(mcfg, cfg)
	switch {
	case errors.Is(err, ftmpi.ErrTimedOut):
		fmt.Printf("RESULT: DEADLOCK — watchdog expired after %v; stuck ranks %v\n",
			*deadline, res.Stuck)
	case err != nil:
		var ae *ftmpi.AbortError
		if errors.As(err, &ae) {
			fmt.Printf("RESULT: ABORTED with code %d\n", ae.Code)
		} else {
			fatal(err)
		}
	default:
		fmt.Printf("RESULT: completed in %v\n", res.Elapsed)
	}

	if fired := plan.Log(); len(fired) > 0 {
		fmt.Println("injected failures:")
		for _, l := range fired {
			fmt.Printf("  %s\n", l)
		}
	}

	if chaosPlan != nil {
		fmt.Printf("injected faults: %d dropped, %d duplicated, %d corrupted, %d reordered, %d delayed, %d partitioned\n",
			chaosPlan.Count(chaos.EvDrop), chaosPlan.Count(chaos.EvDup),
			chaosPlan.Count(chaos.EvCorrupt), chaosPlan.Count(chaos.EvReorder),
			chaosPlan.Count(chaos.EvDelay), chaosPlan.Count(chaos.EvPartition))
	}

	if *doStats && report != nil {
		printStats(report, res)
		fmt.Println("\nruntime counters:")
		fmt.Print(mets.Render())
		if lat := reg.Snapshot().Render(); lat != "" {
			fmt.Println("\nlatency quantiles:")
			fmt.Print(lat)
		}
	}
	if *doTrace && rec != nil {
		fmt.Println("\nevent timeline:")
		fmt.Print(rec.RenderByRank())
	}
	if jsonl != nil {
		if cerr := jsonl.Close(); cerr != nil {
			fatal(cerr)
		}
		fmt.Printf("trace written: %s (%d events, %d truncated)\n",
			*traceOut, rec.Recorded(), rec.Truncated())
	}
	if obsSrv != nil && *obsHold > 0 {
		fmt.Printf("keeping observability endpoint up for %v\n", *obsHold)
		time.Sleep(*obsHold)
	}
	if obsSrv != nil {
		_ = obsSrv.Close()
	}
	if err != nil {
		os.Exit(1)
	}
}

// runElasticDemo drives the E21 elastic repair protocol once (kill a
// seeded victim holding the ring token, AutoRespawn its slot at the next
// generation, resume exactly-once, epilogue shrink back to full size)
// over ftring's own metrics recorder and histogram registry, so -obs and
// -stats expose the respawn/shrink/stale-generation counters.
func runElasticDemo(seed int64, n int, mets *ftmpi.Metrics, reg *ftmpi.ObsRegistry,
	doStats bool, obsSrv *ftmpi.ObsServer, obsHold time.Duration) {
	fmt.Printf("elastic repair demo (seed %d): %d ranks under chaos, victim dies holding the token\n", seed, n)
	table, err := workload.RunElasticDemo(seed, mets, reg)
	if err != nil {
		fmt.Printf("RESULT: elastic repair FAILED: %v\n", err)
	} else {
		fmt.Printf("RESULT: elastic repair completed\n")
		fmt.Print(table.Render())
	}
	if doStats {
		fmt.Println("\nruntime counters:")
		fmt.Print(mets.Render())
		if lat := reg.Snapshot().Render(); lat != "" {
			fmt.Println("\nlatency quantiles:")
			fmt.Print(lat)
		}
	}
	if obsSrv != nil && obsHold > 0 {
		fmt.Printf("keeping observability endpoint up for %v\n", obsHold)
		time.Sleep(obsHold)
	}
	if obsSrv != nil {
		_ = obsSrv.Close()
	}
	if err != nil {
		os.Exit(1)
	}
}

// runReplicaDemo drives the E22 replication protocol once (a seeded
// replica of the R-way replicated fault-unaware ring is killed mid-run; a
// standby is promoted and the app never sees an error) over ftring's own
// metrics recorder and histogram registry, so -obs and -stats expose the
// promotion/dedup counters and the replica_promotion latency family.
func runReplicaDemo(seed int64, r int, refill bool, rec *ftmpi.Tracer,
	mets *ftmpi.Metrics, reg *ftmpi.ObsRegistry,
	doStats bool, obsSrv *ftmpi.ObsServer, obsHold time.Duration) {
	fmt.Printf("replication demo (seed %d): %d logical ranks x %d replicas under chaos, one replica killed mid-run\n",
		seed, workload.ReplicaDemoRanks, r)
	table, err := workload.RunReplicaDemo(seed, r, refill, rec, mets, reg)
	if err != nil {
		fmt.Printf("RESULT: replication soak FAILED: %v\n", err)
	} else {
		fmt.Printf("RESULT: replication soak completed\n")
		fmt.Print(table.Render())
	}
	if doStats {
		fmt.Println("\nruntime counters:")
		fmt.Print(mets.Render())
		if lat := reg.Snapshot().Render(); lat != "" {
			fmt.Println("\nlatency quantiles:")
			fmt.Print(lat)
		}
	}
	if obsSrv != nil && obsHold > 0 {
		fmt.Printf("keeping observability endpoint up for %v\n", obsHold)
		time.Sleep(obsHold)
	}
	if obsSrv != nil {
		_ = obsSrv.Close()
	}
	if err != nil {
		os.Exit(1)
	}
}

func printStats(report *core.Report, res *ftmpi.RunResult) {
	fmt.Println("\nper-rank outcome:")
	for rank := 0; rank < report.Size(); rank++ {
		s := report.Rank(rank)
		rr := res.Ranks[rank]
		state := "finished"
		switch {
		case rr.Killed:
			state = "KILLED"
		case rr.Aborted:
			state = "aborted"
		case rr.Err != nil:
			state = "error: " + rr.Err.Error()
		case !rr.Finished:
			state = "stuck"
		}
		line := fmt.Sprintf("  rank %2d: %-9s iters=%d", rank, state, s.Iterations)
		if s.Resends > 0 {
			line += fmt.Sprintf(" resends=%d", s.Resends)
		}
		if s.DupsDropped > 0 {
			line += fmt.Sprintf(" dups-dropped=%d", s.DupsDropped)
		}
		if s.DupsForwarded > 0 {
			line += fmt.Sprintf(" dups-forwarded=%d", s.DupsForwarded)
		}
		if s.BecameRoot {
			line += " BECAME-ROOT"
		}
		if len(s.RootValues) > 0 {
			markers := make([]int, 0, len(s.RootValues))
			for m := range s.RootValues {
				markers = append(markers, int(m))
			}
			sort.Ints(markers)
			line += fmt.Sprintf(" absorbed=%v", markers)
		}
		fmt.Println(line)
	}
}

// partitionSpec is one parsed -chaos-partition window.
type partitionSpec struct {
	src, dst int
	from, to uint64
}

// partitionFlags parses repeatable -chaos-partition src:dst:from:to specs.
type partitionFlags []partitionSpec

// String implements flag.Value.
func (p *partitionFlags) String() string { return fmt.Sprintf("%d partitions", len(*p)) }

// Set implements flag.Value.
func (p *partitionFlags) Set(s string) error {
	parts := strings.Split(s, ":")
	if len(parts) != 4 {
		return fmt.Errorf("partition spec %q: want src:dst:from:to", s)
	}
	src, err := strconv.Atoi(parts[0])
	if err != nil {
		return fmt.Errorf("partition spec %q: bad src: %w", s, err)
	}
	dst, err := strconv.Atoi(parts[1])
	if err != nil {
		return fmt.Errorf("partition spec %q: bad dst: %w", s, err)
	}
	from, err := strconv.ParseUint(parts[2], 10, 64)
	if err != nil {
		return fmt.Errorf("partition spec %q: bad from: %w", s, err)
	}
	to, err := strconv.ParseUint(parts[3], 10, 64)
	if err != nil {
		return fmt.Errorf("partition spec %q: bad to: %w", s, err)
	}
	if from == 0 {
		from = 1 // frame ordinals are 1-based; 0 means "from the start"
	}
	if to == 0 {
		to = ^uint64(0) // 0 means "never heals"
	}
	*p = append(*p, partitionSpec{src: src, dst: dst, from: from, to: to})
	return nil
}

// killFlags parses repeatable -kill rank:point:ordinal specs.
type killFlags []inject.Trigger

// String implements flag.Value.
func (k *killFlags) String() string { return fmt.Sprintf("%d kill specs", len(*k)) }

// Set implements flag.Value.
func (k *killFlags) Set(s string) error {
	parts := strings.Split(s, ":")
	if len(parts) != 3 {
		return fmt.Errorf("kill spec %q: want rank:point:ordinal", s)
	}
	rank, err := strconv.Atoi(parts[0])
	if err != nil {
		return fmt.Errorf("kill spec %q: bad rank: %w", s, err)
	}
	ord, err := strconv.Atoi(parts[2])
	if err != nil {
		return fmt.Errorf("kill spec %q: bad ordinal: %w", s, err)
	}
	switch parts[1] {
	case "recv":
		*k = append(*k, inject.AfterNthRecv(rank, ord))
	case "send":
		*k = append(*k, inject.AfterNthSend(rank, ord))
	case "before-send":
		*k = append(*k, inject.BeforeNthSend(rank, ord))
	default:
		return fmt.Errorf("kill spec %q: unknown point %q", s, parts[1])
	}
	return nil
}

func parseVariant(s string, out *core.Variant) error {
	switch s {
	case "unaware":
		*out = core.VariantUnaware
	case "naive":
		*out = core.VariantNaive
	case "no-marker":
		*out = core.VariantNoMarker
	case "separate-tag":
		*out = core.VariantSeparateTag
	case "full":
		*out = core.VariantFull
	default:
		return fmt.Errorf("unknown variant %q", s)
	}
	return nil
}

func parseTermination(s string, out *core.Termination) error {
	switch s {
	case "none":
		*out = core.TermNone
	case "root-bcast":
		*out = core.TermRootBcast
	case "validate-all":
		*out = core.TermValidateAll
	default:
		return fmt.Errorf("unknown termination %q", s)
	}
	return nil
}

func parseRootPolicy(s string, out *core.RootPolicy) error {
	switch s {
	case "abort":
		*out = core.RootAbort
	case "elect":
		*out = core.RootElect
	default:
		return fmt.Errorf("unknown root policy %q", s)
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ftring:", err)
	os.Exit(2)
}
