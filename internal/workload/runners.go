package workload

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/chaos"
	"repro/internal/collective"
	"repro/internal/core"
	"repro/internal/election"
	"repro/internal/inject"
	"repro/internal/membership"
	"repro/internal/metrics"
	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/trace"
	"repro/internal/transport"
)

// runLowestAliveElection kills the k lowest ranks and has every survivor
// run the Fig. 12 election, returning each survivor's choice.
func runLowestAliveElection(n, k int) (map[int]int, time.Duration, error) {
	w, err := mpi.NewWorld(n, mpi.WithDeadline(60*time.Second))
	if err != nil {
		return nil, 0, err
	}
	var mu sync.Mutex
	elected := map[int]int{}
	res, err := w.Run(func(p *mpi.Proc) error {
		c := p.World()
		c.SetErrhandler(mpi.ErrorsReturn)
		if p.Rank() < k {
			p.Die()
		}
		for p.Registry().AliveCount() > n-k {
			time.Sleep(time.Millisecond)
		}
		r := election.LowestAlive(p, c)
		mu.Lock()
		elected[p.Rank()] = r
		mu.Unlock()
		return nil
	})
	if err != nil {
		return nil, 0, err
	}
	for rank, rr := range res.Ranks {
		if rank >= k && rr.Err != nil {
			return nil, 0, fmt.Errorf("rank %d: %w", rank, rr.Err)
		}
	}
	return elected, res.Elapsed, nil
}

// validateCost is what one runValidateBench world measured.
type validateCost struct {
	elapsed time.Duration // rank 0's wall time over every rep
	msgs    int64         // agreement messages, world-wide
	mallocs uint64        // heap allocations, whole process, world built to torn down
	agreed  int           // rank 0's last agreed failure count
}

// runValidateBench measures repeated ValidateAll calls on a world with f
// pre-failed ranks (highest ranks die so rank 0 is the root).
func runValidateBench(n, f, reps int, agreement string) (validateCost, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	mets := metrics.NewWorld(n)
	w, err := mpi.NewWorld(n, mpi.WithDeadline(60*time.Second), mpi.WithMetrics(mets),
		mpi.WithAgreement(agreement))
	if err != nil {
		return validateCost{}, err
	}
	var mu sync.Mutex
	cost := validateCost{agreed: -1}
	res, err := w.Run(func(p *mpi.Proc) error {
		c := p.World()
		c.SetErrhandler(mpi.ErrorsReturn)
		if p.Rank() >= n-f {
			p.Die()
		}
		for p.Registry().AliveCount() > n-f {
			time.Sleep(time.Millisecond)
		}
		start := time.Now()
		cnt := -1
		for i := 0; i < reps; i++ {
			var verr error
			cnt, verr = c.ValidateAll()
			if verr != nil {
				return verr
			}
		}
		if p.Rank() == 0 {
			mu.Lock()
			cost.elapsed = time.Since(start)
			cost.agreed = cnt
			mu.Unlock()
		}
		return nil
	})
	if err != nil {
		return validateCost{}, err
	}
	for rank, rr := range res.Ranks {
		if rank < n-f && rr.Err != nil {
			return validateCost{}, fmt.Errorf("rank %d: %w", rank, rr.Err)
		}
	}
	runtime.ReadMemStats(&after)
	cost.msgs = mets.Total(metrics.AgreementMsgs)
	cost.mallocs = after.Mallocs - before.Mallocs
	return cost, nil
}

// runCollectiveSemantics reproduces the Section II collective rules as a
// table: per-rank broadcast outcomes under a mid-tree death, the
// collective gate, and the post-validate recovery.
func runCollectiveSemantics() ([]*Table, error) {
	const n = 8
	t1 := NewTable("E14a: Bcast return codes with mid-tree death (Section II)",
		"rank", "bcast-outcome")
	t2 := NewTable("E14b: collective gate and repair",
		"phase", "outcome")

	outcomes := make([]string, n)
	w, err := mpi.NewWorld(n,
		mpi.WithDeadline(60*time.Second),
		mpi.WithHook(func(ev mpi.HookEvent) mpi.Action {
			if ev.Rank == 6 && ev.Point == mpi.HookAfterRecv {
				return mpi.ActKill
			}
			return mpi.ActNone
		}))
	if err != nil {
		return nil, err
	}
	var mu sync.Mutex
	gateBefore, gateAfter, allreduceSum := "", "", int64(-1)
	res, err := w.Run(func(p *mpi.Proc) error {
		c := p.World()
		c.SetErrhandler(mpi.ErrorsReturn)
		_, bErr := collective.Bcast(c, 0, []byte("payload"))
		mu.Lock()
		switch {
		case bErr == nil:
			outcomes[p.Rank()] = "success"
		case mpi.IsRankFailStop(bErr):
			outcomes[p.Rank()] = "MPI_ERR_RANK_FAIL_STOP"
		default:
			outcomes[p.Rank()] = bErr.Error()
		}
		mu.Unlock()

		// Gate: once the failure notification lands, collectives are
		// disabled until validate_all repairs the communicator. (The root
		// can leave the broadcast before rank 6 dies, so wait for the
		// notification before sampling the gate.)
		for p.Registry().AliveCount() > n-1 {
			time.Sleep(time.Millisecond)
		}
		if gerr := c.CollectiveOK(); p.Rank() == 0 {
			mu.Lock()
			if mpi.IsRankFailStop(gerr) {
				gateBefore = "disabled (MPI_ERR_RANK_FAIL_STOP)"
			} else {
				gateBefore = fmt.Sprint(gerr)
			}
			mu.Unlock()
		}
		if _, verr := c.ValidateAll(); verr != nil {
			return verr
		}
		out, aerr := collective.Allreduce(c, collective.EncodeInt64s([]int64{1}), collective.SumInt64)
		if aerr != nil {
			return aerr
		}
		v, derr := collective.DecodeInt64s(out)
		if derr != nil {
			return derr
		}
		if p.Rank() == 0 {
			mu.Lock()
			gateAfter = "re-enabled"
			allreduceSum = v[0]
			mu.Unlock()
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for rank := 0; rank < n; rank++ {
		if rank == 6 {
			t1.Add(rank, "killed mid-tree (after receiving, before forwarding)")
			continue
		}
		if res.Ranks[rank].Err != nil {
			return nil, fmt.Errorf("rank %d: %w", rank, res.Ranks[rank].Err)
		}
		t1.Add(rank, outcomes[rank])
	}
	t1.Note("return codes are intentionally inconsistent: the root left the tree before the death")
	t2.Add("collective gate after failure", gateBefore)
	t2.Add("gate after MPI_Comm_validate_all", gateAfter)
	t2.Add("allreduce(+1) over survivors", fmt.Sprintf("%d (want %d)", allreduceSum, n-1))
	return []*Table{t1, t2}, nil
}

// runPlacementSweep answers the paper's Section III-E question ("how can
// a developer know when they have addressed ALL of the problematic fault
// scenarios?") by brute force over a small ring: every (victim, hook
// point, ordinal) single-failure placement — and, with the root as the
// victim, every placement under RootElect — is executed; the table
// reports how many placements the design survived.
func runPlacementSweep(opt Options) ([]*Table, error) {
	t := NewTable("E16: exhaustive single-failure placement sweep (Sec. III-E)",
		"victim", "placements", "survived", "resends-total", "dups-dropped-total")
	n, iters := 4, 4
	if opt.Quick {
		iters = 3
	}
	points := []func(rank, ord int) inject.Trigger{
		func(r, o int) inject.Trigger { return inject.AfterNthRecv(r, o) },
		func(r, o int) inject.Trigger { return inject.AfterNthSend(r, o) },
		func(r, o int) inject.Trigger { return inject.BeforeNthSend(r, o) },
	}
	for victim := 0; victim < n; victim++ {
		placements, survived := 0, 0
		resends, dropped := 0, 0
		for _, mk := range points {
			for ord := 1; ord <= iters; ord++ {
				placements++
				plan := inject.NewPlan().Add(mk(victim, ord))
				cfg := core.Config{Iters: iters, Variant: core.VariantFull, Termination: core.TermValidateAll}
				if victim == 0 {
					cfg.RootPolicy = core.RootElect
				}
				report, res, _, err := ringOnce(opt, n, cfg,
					func(m *mpi.Config) { m.Hook = plan.Hook() })
				if err != nil {
					continue
				}
				ok := true
				for rank, rr := range res.Ranks {
					if rr.Killed {
						continue
					}
					if !rr.Finished || rr.Err != nil || !report.Rank(rank).Terminated {
						ok = false
					}
				}
				if ok {
					survived++
					resends += report.TotalResends()
					dropped += report.TotalDupsDropped()
				}
			}
		}
		label := fmt.Sprint(victim)
		if victim == 0 {
			label = "0 (root, elect)"
		}
		t.Add(label, placements, survived, resends, dropped)
	}
	t.Note("survived == placements means no single-failure placement breaks the design")
	return []*Table{t}, nil
}

// runLargeN scales the two matching-heavy workloads — the full FT ring
// and a world-wide validate_all — to world sizes far beyond the paper's
// examples, over the Local fabric. It exists to demonstrate that the
// indexed matching engine keeps per-operation cost flat as the number of
// (source, tag) keys grows; the linear-scan engine it replaced degraded
// quadratically here (EXPERIMENTS.md E17 has head-to-head numbers).
func runLargeN(opt Options) ([]*Table, error) {
	t := NewTable("E17: large-N scaling over the indexed matching engine",
		"ranks", "ring-iters", "ring-elapsed", "us/hop", "validate-elapsed", "agreement-msgs")
	iters := 4
	for _, n := range opt.sizes([]int{256, 1024, 4096}) {
		report, res, _, err := ringOnce(opt, n, core.Config{Iters: iters, Variant: core.VariantFull}, nil)
		if err != nil {
			return nil, fmt.Errorf("ring n=%d: %w", n, err)
		}
		if got := len(report.Rank(0).RootValues); got != iters {
			return nil, fmt.Errorf("ring n=%d: root absorbed %d/%d iterations", n, got, iters)
		}
		v, err := runValidateBench(n, 0, 1, "")
		if err != nil {
			return nil, fmt.Errorf("validate n=%d: %w", n, err)
		}
		hops := iters * n
		t.Add(n, iters, res.Elapsed,
			float64(res.Elapsed.Microseconds())/float64(hops), v.elapsed, v.msgs)
	}
	t.Note("us/hop flat in ranks = O(1) matching; the pre-index engine grew linearly with queue depth")
	return []*Table{t}, nil
}

// soakRates is the E18 fault mix — the acceptance-criteria 10% drop, 5%
// duplication, 1% payload corruption on every link.
var soakRates = chaos.Rates{Drop: 0.10, Dup: 0.05, Corrupt: 0.01}

// latTally merges latency histograms family-by-family across runs.
type latTally map[obs.Family]obs.HistSnapshot

func (l latTally) merge(reg *obs.Registry) {
	if reg == nil {
		return
	}
	for _, fs := range reg.Snapshot().Families {
		l[fs.Family] = l[fs.Family].Merge(fs.Merged)
	}
}

// addRows renders the non-empty histogram families as quantile rows.
func (l latTally) addRows(t *Table, workload string) {
	for _, f := range obs.Families() {
		if snap := l[f]; snap.Count != 0 {
			t.Add(append([]any{workload}, quantileRow(f, snap)...)...)
		}
	}
}

// table renders the given families that have samples as a quantile table
// of its own.
func (l latTally) table(title string, families ...obs.Family) *Table {
	t := NewTable(title, "family", "samples", "p50", "p95", "p99", "max")
	for _, f := range families {
		if snap := l[f]; snap.Count != 0 {
			t.Add(quantileRow(f, snap)...)
		}
	}
	return t
}

// quantileRow is one family's cells: name, samples, p50, p95, p99, max.
func quantileRow(f obs.Family, s obs.HistSnapshot) []any {
	return []any{f.String(), s.Count, time.Duration(s.Quantile(0.50)), time.Duration(s.Quantile(0.95)),
		time.Duration(s.Quantile(0.99)), time.Duration(s.Max)}
}

// auditTrace holds a recorded run to the forensic standard: the
// conservation audit must reconcile every send and the HLC/token check
// must find no causal violation. A clean audit is absorbed into the
// collector; the events are returned for further analysis.
func auditTrace(opt Options, rec *trace.Recorder) ([]trace.Event, error) {
	events := rec.Events()
	rep := trace.Audit(events)
	if !rep.Clean() {
		return nil, fmt.Errorf("conservation audit failed: %d unaccounted send(s), %d orphan delivery(ies)",
			len(rep.Unaccounted), len(rep.OrphanDelivers))
	}
	if v := trace.CheckCausal(events); len(v) > 0 {
		return nil, fmt.Errorf("causal violation: %s", v[0])
	}
	opt.Collector.AbsorbAudit(rep)
	return events, nil
}

// ringLap runs one lap of the paper's Fig. 2 fault-UNAWARE ring on c:
// fixed peers, blocking calls, no failure handling of any kind. Rank 0
// sends lap (encoded in buf) to its right and returns what comes back
// from its left; every other rank forwards from left to right and
// returns -1.
func ringLap(c *mpi.Comm, tag, lap int, buf []byte) (int64, error) {
	me, n := c.Rank(), c.Size()
	if me != 0 {
		pl, _, err := c.Recv(me-1, tag)
		if err != nil {
			return -1, err
		}
		return -1, c.Send((me+1)%n, tag, pl)
	}
	binary.LittleEndian.PutUint64(buf, uint64(lap))
	if err := c.Send(1%n, tag, buf); err != nil {
		return -1, err
	}
	pl, _, err := c.Recv(n-1, tag)
	if err != nil {
		return -1, err
	}
	return int64(binary.LittleEndian.Uint64(pl)), nil
}

// runChaosSoak sweeps seeds over three workloads — the full FT ring,
// validate_all with a pre-failed rank, and the lowest-alive election —
// each on a fabric injecting the soakRates fault mix on every link. A run
// counts as ok only when the workload's application-level invariant holds
// (all iterations absorbed exactly once / agreement on the failed count /
// unanimous leader), which is what "no duplicate delivery, no corrupted
// payload above the codec" means observable from the application.
func runChaosSoak(opt Options) ([]*Table, error) {
	t := NewTable("E18: chaos soak — 10% drop, 5% dup, 1% corrupt on every link",
		"workload", "seeds", "ok", "dropped", "duplicated", "corrupted",
		"retried", "deduped", "rejected", "elapsed")
	tLat := NewTable("E18b: latency quantiles under chaos (merged over seeds)",
		"workload", "family", "samples", "p50", "p95", "p99", "max")
	opt.Detector = mpi.DetectorOracle // the soak measures the network, not detection
	const n = 4
	rows := []soakRow{
		// Workload 1: the paper's full FT ring with validate_all termination.
		{"ft ring (Fig. 5)", func(int64) soakWorld {
			return ringWorld(n, soakRates, core.Config{Termination: core.TermValidateAll})
		}},
		// Workload 2: validate_all consensus with one pre-failed rank.
		{"validate_all", func(int64) soakWorld {
			return decideWorld(n, soakRates, n-1, dieFirst(n-1), validateAll, 1)
		}},
		// Workload 3: Chang-Roberts ring election after the lowest rank
		// dies — unlike the message-free Fig. 12 scan, its circulating
		// tokens give the chaos fabric traffic to attack.
		{"election", func(int64) soakWorld {
			return decideWorld(n, soakRates, 0, dieFirst(0), election.ChangRoberts, 1)
		}},
	}
	err := opt.runTallied(t, tLat, []metrics.Counter{metrics.FramesDropped, metrics.FramesDuplicated,
		metrics.FramesCorrupted, metrics.FramesRetried, metrics.FramesDeduped, metrics.FramesRejected}, rows)
	if err != nil {
		return nil, err
	}
	t.Note("ok must equal seeds: every run completes with exact-once app-level delivery")
	t.Note("rejected = corrupted frames caught by the end-to-end CRC before reaching matching")
	tLat.Note("retry_backoff/chaos_delay sample the reliability sublayer pacing and injected jitter")
	return []*Table{t, tLat}, nil
}

// ringWorld is the soaks' full FT ring: n ranks, 8 iterations, cfg's
// termination and root policy. Each marker must be absorbed exactly once
// and have crossed every rank alive at the time; a root election may
// move the absorptions to a new root, and ranks the run killed shrink
// the crossing count.
func ringWorld(n int, rates chaos.Rates, cfg core.Config) soakWorld {
	cfg.Iters, cfg.Variant = 8, core.VariantFull
	report := core.NewReport(n)
	return soakWorld{size: n, rates: rates,
		body: func(*mpi.World) func(*mpi.Proc) error { return core.Body(cfg, report) },
		check: func(run *soakRun) error {
			killed := 0
			for _, rr := range run.Ranks {
				if rr.Killed {
					killed++
				}
			}
			seen := map[int64]bool{}
			for rank := 0; rank < n; rank++ {
				for marker, v := range report.Rank(rank).RootValues {
					if seen[marker] {
						return fmt.Errorf("marker %d absorbed twice", marker)
					}
					seen[marker] = true
					if v < int64(n-killed) || v > int64(n) {
						return fmt.Errorf("marker %d crossed %d ranks, want %d..%d", marker, v, n-killed, n)
					}
				}
			}
			if len(seen) != cfg.Iters {
				return fmt.Errorf("%d of %d markers absorbed", len(seen), cfg.Iters)
			}
			return nil
		}}
}

// dieFirst is the prologue that fails victim before the workload starts:
// the victim dies, every other rank waits until its engine knows.
func dieFirst(victim int) func(*mpi.Proc) {
	return func(p *mpi.Proc) {
		if p.Rank() == victim {
			p.Die()
		}
		mpi.AwaitKnownFailed(p, 1)
	}
}

// validateAll is the validate_all workload's decision: the agreed count.
func validateAll(_ *mpi.Proc, c *mpi.Comm) (int, error) { return c.ValidateAll() }

// decideWorld is the soaks' agreement workload on n ranks, victim the
// rank it must kill: every rank runs prologue (a scripted death, say;
// nil for none), then decide, and every rank the run did not kill must
// have decided the same value — want, unless want is -1.
func decideWorld(n int, rates chaos.Rates, victim int, prologue func(*mpi.Proc),
	decide func(*mpi.Proc, *mpi.Comm) (int, error), want int) soakWorld {
	vals := make([]int, n)
	return soakWorld{size: n, rates: rates, victims: []int{victim},
		body: func(*mpi.World) func(*mpi.Proc) error {
			return func(p *mpi.Proc) error {
				c := p.World()
				c.SetErrhandler(mpi.ErrorsReturn)
				if prologue != nil {
					prologue(p)
				}
				v, err := decide(p, c)
				if err != nil {
					return err
				}
				vals[p.Rank()] = v
				return nil
			}
		},
		check: func(run *soakRun) error {
			agreed := want
			for rank, rr := range run.Ranks {
				if rr.Killed {
					continue
				}
				if agreed == -1 {
					agreed = vals[rank]
				}
				if vals[rank] != agreed {
					return fmt.Errorf("rank %d decided %d, want %d", rank, vals[rank], agreed)
				}
			}
			return nil
		}}
}

// detectSoakOptions is the SWIM tuning for the E19 soak: fast enough to
// keep the sweep short, a suspicion timeout wide enough that the 4 ms
// delay jitter rarely fences a healthy rank, and the self-fence horizon
// pushed out so only the partition workload (which tunes it down) ever
// self-fences.
func detectSoakOptions() membership.Options {
	return membership.Options{
		Period:         2 * time.Millisecond,
		SuspectAfter:   15 * time.Millisecond,
		SelfFenceAfter: 2 * time.Second,
	}
}

// runDetectorSoak sweeps seeds over three workloads running on the SWIM
// detector — no oracle shortcut anywhere:
//
//  1. the full FT ring under delay jitter with a scripted mid-run kill
//     (detection happens through unanswered probes while the jitter
//     makes the monitors earn their keep),
//  2. validate_all with a scheduled full partition of one healthy rank
//     (a guaranteed FALSE suspicion whose fences can never arrive — the
//     victim must self-fence before anyone may report it failed), and
//  3. the Chang-Roberts election with a victim dying mid-election.
//
// Delay jitter can make a probe time out on a healthy rank; that is not
// a bug but the detector's contract at work — the fence kills the
// suspect before the failure is reported, so the app only ever sees
// fail-stop. The ok-criteria therefore tolerate extra fenced ranks but
// never a wrong answer: markers absorbed exactly once, survivors agree,
// and nobody unfenced is reported failed (Registry.Confirm panics the
// world on an accuracy violation, so mere completion certifies it).
func runDetectorSoak(opt Options) ([]*Table, error) {
	t := NewTable("E19: SWIM detector soak — delay jitter, kills, scheduled partitions",
		"workload", "seeds", "ok", "swim_probes", "suspicions", "false-susp",
		"cleared", "fences", "self-fences", "confirms", "elapsed")
	tLat := NewTable("E19b: detection latency quantiles (merged over seeds)",
		"workload", "family", "samples", "p50", "p95", "p99", "max")
	jitter := chaos.Rates{Delay: 0.25, Jitter: 4 * time.Millisecond}
	opt.Detector, opt.Swim = mpi.DetectorSwim, detectSoakOptions()
	const n, victim = 4, 2
	rows := []soakRow{
		// Workload 1: FT ring, delay jitter on every link, rank 2 killed
		// after its second receive. RootElect so a falsely fenced root
		// cannot wedge the run.
		{"ft ring + jitter + kill", func(int64) soakWorld {
			sw := ringWorld(n, jitter, core.Config{Termination: core.TermValidateAll, RootPolicy: core.RootElect})
			sw.victims, sw.killable = []int{victim}, true
			sw.opts = []mpi.Option{mpi.WithHook(inject.NewPlan().Add(inject.AfterNthRecv(victim, 2)).Hook())}
			return sw
		}},
		// Workload 2: validate_all with rank n-1 fully partitioned from the
		// start. Its peers falsely suspect it, their fences cannot cross the
		// partition, and the victim's own ack silence makes it self-fence —
		// only then may the survivors' agreement count it failed.
		{"validate_all + partition", func(seed int64) soakWorld {
			plan := chaos.NewPlan(seed).
				Partition(n-1, -1, 1, ^uint64(0)).
				Partition(-1, n-1, 1, ^uint64(0))
			swim := detectSoakOptions()
			swim.SelfFenceAfter = 150 * time.Millisecond // beat ARQ escalation (~400ms)
			sw := decideWorld(n, chaos.Rates{}, n-1, nil, validateAll, 1)
			sw.opts = []mpi.Option{mpi.WithChaos(plan), mpi.WithSwim(swim)}
			return sw
		}},
		// Workload 3: Chang-Roberts under jitter with rank 2 dying shortly
		// after the election starts — tokens it held die with it, and the
		// re-initiation on (SWIM-detected) notification must drain the
		// ring to a leader every survivor agrees on.
		{"election + jitter + kill", func(int64) soakWorld {
			sw := decideWorld(n, jitter, victim, func(p *mpi.Proc) {
				if p.Rank() == victim {
					time.Sleep(5 * time.Millisecond)
					p.Die()
				}
			}, election.ChangRoberts, -1)
			sw.killable = true
			return sw
		}},
	}
	err := opt.runTallied(t, tLat, []metrics.Counter{metrics.SwimProbes, metrics.Suspicions,
		metrics.FalseSuspicions, metrics.SuspicionsCleared, metrics.Fences, metrics.SelfFences,
		metrics.Confirms}, rows)
	if err != nil {
		return nil, err
	}
	t.Note("ok must equal seeds: every run terminates with the app-level invariant intact")
	t.Note("false-susp > 0 is expected (jitter, partitions); each one was fenced before being reported")
	tLat.Note("suspicion_latency = ground-truth death to first suspicion; fence_rtt = suspicion to confirmed")
	return []*Table{t, tLat}, nil
}

// runTransportComparison runs the same FT ring over the in-memory fabric,
// TCP loopback and a latency-model fabric.
func runTransportComparison(opt Options) ([]*Table, error) {
	t := NewTable("E15: same ring, different fabrics",
		"fabric", "ranks", "iters", "elapsed", "us/iter")
	n, iters := 8, 64
	if opt.Quick {
		iters = 16
	}
	fabrics := []struct {
		name string
		make func() transport.Fabric
	}{
		{"local (in-memory)", func() transport.Fabric { return transport.NewLocal() }},
		{"tcp (binary codec)", func() transport.Fabric { return transport.NewTCP(n) }},
		{"local + 100us latency", func() transport.Fabric {
			return transport.NewLatency(transport.NewLocal(), 100*time.Microsecond)
		}},
	}
	for _, f := range fabrics {
		_, res, _, err := ringOnce(opt, n, core.Config{Iters: iters, Variant: core.VariantFull},
			func(m *mpi.Config) { m.Fabric = f.make() })
		if err != nil {
			return nil, fmt.Errorf("%s: %w", f.name, err)
		}
		t.Add(f.name, n, iters, res.Elapsed,
			float64(res.Elapsed.Microseconds())/float64(iters))
	}
	t.Note("identical engine semantics over all three; only the wire differs")
	return []*Table{t}, nil
}
