package workload

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/chaos"
	"repro/internal/collective"
	"repro/internal/core"
	"repro/internal/detector"
	"repro/internal/election"
	"repro/internal/inject"
	"repro/internal/metrics"
	"repro/internal/mpi"
	"repro/internal/obs"
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

// runValidateBench measures repeated ValidateAll calls on a world with f
// pre-failed ranks (highest ranks die so rank 0 coordinates).
func runValidateBench(n, f, reps int, agreement string) (time.Duration, int64, int, error) {
	mets := metrics.NewWorld(n)
	w, err := mpi.NewWorld(n, mpi.WithDeadline(60*time.Second), mpi.WithMetrics(mets),
		mpi.WithAgreement(agreement))
	if err != nil {
		return 0, 0, 0, err
	}
	var mu sync.Mutex
	var elapsed time.Duration
	agreed := -1
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
		var cnt int
		for i := 0; i < reps; i++ {
			var verr error
			cnt, verr = c.ValidateAll()
			if verr != nil {
				return verr
			}
		}
		if p.Rank() == 0 {
			mu.Lock()
			elapsed = time.Since(start)
			agreed = cnt
			mu.Unlock()
		}
		return nil
	})
	if err != nil {
		return 0, 0, 0, err
	}
	for rank, rr := range res.Ranks {
		if rank < n-f && rr.Err != nil {
			return 0, 0, 0, fmt.Errorf("rank %d: %w", rank, rr.Err)
		}
	}
	return elapsed, mets.Total(metrics.AgreementMsgs), agreed, nil
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
		vElapsed, vMsgs, _, err := runValidateBench(n, 0, 1, "")
		if err != nil {
			return nil, fmt.Errorf("validate n=%d: %w", n, err)
		}
		hops := iters * n
		t.Add(n, iters, res.Elapsed,
			float64(res.Elapsed.Microseconds())/float64(hops), vElapsed, vMsgs)
	}
	t.Note("us/hop flat in ranks = O(1) matching; the pre-index engine grew linearly with queue depth")
	return []*Table{t}, nil
}

// soakRates is the E18 fault mix — the acceptance-criteria 10% drop, 5%
// duplication, 1% payload corruption on every link.
func soakRates() chaos.Rates {
	return chaos.Rates{Drop: 0.10, Dup: 0.05, Corrupt: 0.01}
}

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
		snap := l[f]
		if snap.Count == 0 {
			continue
		}
		t.Add(workload, f.String(), snap.Count,
			time.Duration(snap.Quantile(0.50)), time.Duration(snap.Quantile(0.95)),
			time.Duration(snap.Quantile(0.99)), time.Duration(snap.Max))
	}
}

// soakTally aggregates one workload's results across the seed sweep,
// including the merged latency histograms of every run.
type soakTally struct {
	ok, runs                       int
	dropped, duplicated, corrupted int
	retried, deduped, rejected     int64
	elapsed                        time.Duration
	lat                            latTally
}

func (s *soakTally) absorb(ok bool, plan *chaos.Plan, mets *metrics.World, reg *obs.Registry, elapsed time.Duration) {
	s.runs++
	if ok {
		s.ok++
	}
	s.dropped += plan.Count(chaos.EvDrop)
	s.duplicated += plan.Count(chaos.EvDup)
	s.corrupted += plan.Count(chaos.EvCorrupt)
	s.retried += mets.Total(metrics.FramesRetried)
	s.deduped += mets.Total(metrics.FramesDeduped)
	s.rejected += mets.Total(metrics.FramesRejected)
	s.elapsed += elapsed
	if s.lat == nil {
		s.lat = latTally{}
	}
	s.lat.merge(reg)
}

func (s *soakTally) addRow(t *Table, workload string) {
	t.Add(workload, s.runs, s.ok, s.dropped, s.duplicated, s.corrupted,
		s.retried, s.deduped, s.rejected, s.elapsed)
}

// addLatencyRows renders the workload's non-empty histogram families as
// quantile rows of the E18 latency table.
func (s *soakTally) addLatencyRows(t *Table, workload string) {
	s.lat.addRows(t, workload)
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
	nSeeds := 20
	if opt.Quick {
		nSeeds = 4
	}

	var ring, validate, elect soakTally
	for s := 0; s < nSeeds; s++ {
		seed := opt.Seed + int64(s)

		// Workload 1: the paper's full FT ring with validate_all termination.
		{
			const n, iters = 4, 8
			plan := chaos.NewPlan(seed).Default(soakRates())
			mets := metrics.NewWorld(n)
			reg := obs.NewRegistry(n)
			opt.Collector.Attach(mets, reg)
			report, res, err := core.Run(mpi.Config{
				Size: n, Deadline: 60 * time.Second, Metrics: mets, Chaos: plan, Obs: reg,
			}, core.Config{Iters: iters, Variant: core.VariantFull, Termination: core.TermValidateAll})
			if err != nil {
				return nil, fmt.Errorf("ring seed %d: %w", seed, err)
			}
			ok := len(report.Rank(0).RootValues) == iters
			for _, v := range report.Rank(0).RootValues {
				ok = ok && v == int64(n) // each marker absorbed exactly once per rank
			}
			for _, rr := range res.Ranks {
				ok = ok && rr.Err == nil && rr.Finished
			}
			ring.absorb(ok, plan, mets, reg, res.Elapsed)
			opt.Collector.Absorb(mets, reg)
		}

		// Workload 2: validate_all consensus with one pre-failed rank.
		{
			const n = 4
			plan := chaos.NewPlan(seed).Default(soakRates())
			mets := metrics.NewWorld(n)
			reg := obs.NewRegistry(n)
			opt.Collector.Attach(mets, reg)
			w, err := mpi.NewWorld(n, mpi.WithDeadline(60*time.Second),
				mpi.WithMetrics(mets), mpi.WithChaos(plan), mpi.WithObservability(reg))
			if err != nil {
				return nil, err
			}
			counts := make([]int, n)
			res, err := w.Run(func(p *mpi.Proc) error {
				c := p.World()
				c.SetErrhandler(mpi.ErrorsReturn)
				if p.Rank() == n-1 {
					p.Die()
				}
				for p.Registry().AliveCount() > n-1 {
					time.Sleep(time.Millisecond)
				}
				cnt, verr := c.ValidateAll()
				if verr != nil {
					return verr
				}
				counts[p.Rank()] = cnt
				return nil
			})
			if err != nil {
				return nil, fmt.Errorf("validate seed %d: %w", seed, err)
			}
			ok := true
			for rank := 0; rank < n-1; rank++ {
				ok = ok && res.Ranks[rank].Err == nil && counts[rank] == 1
			}
			validate.absorb(ok, plan, mets, reg, res.Elapsed)
			opt.Collector.Absorb(mets, reg)
		}

		// Workload 3: Chang-Roberts ring election after the lowest rank
		// dies — unlike the message-free Fig. 12 scan, its circulating
		// tokens give the chaos fabric traffic to attack.
		{
			const n = 4
			plan := chaos.NewPlan(seed).Default(soakRates())
			mets := metrics.NewWorld(n)
			reg := obs.NewRegistry(n)
			opt.Collector.Attach(mets, reg)
			w, err := mpi.NewWorld(n, mpi.WithDeadline(60*time.Second),
				mpi.WithMetrics(mets), mpi.WithChaos(plan), mpi.WithObservability(reg))
			if err != nil {
				return nil, err
			}
			elected := make([]int, n)
			res, err := w.Run(func(p *mpi.Proc) error {
				c := p.World()
				c.SetErrhandler(mpi.ErrorsReturn)
				if p.Rank() == 0 {
					p.Die()
				}
				for p.Registry().AliveCount() > n-1 {
					time.Sleep(time.Millisecond)
				}
				leader, eerr := election.ChangRoberts(p, c)
				if eerr != nil {
					return eerr
				}
				elected[p.Rank()] = leader
				return nil
			})
			if err != nil {
				return nil, fmt.Errorf("election seed %d: %w", seed, err)
			}
			ok := true
			for rank := 1; rank < n; rank++ {
				ok = ok && res.Ranks[rank].Err == nil && elected[rank] == 1
			}
			elect.absorb(ok, plan, mets, reg, res.Elapsed)
			opt.Collector.Absorb(mets, reg)
		}
	}

	ring.addRow(t, "ft ring (Fig. 5)")
	validate.addRow(t, "validate_all")
	elect.addRow(t, "election")
	t.Note("ok must equal seeds: every run completes with exact-once app-level delivery")
	t.Note("rejected = corrupted frames caught by the end-to-end CRC before reaching matching")
	ring.addLatencyRows(tLat, "ft ring (Fig. 5)")
	validate.addLatencyRows(tLat, "validate_all")
	elect.addLatencyRows(tLat, "election")
	tLat.Note("retry_backoff/chaos_delay sample the reliability sublayer pacing and injected jitter")
	return []*Table{t, tLat}, nil
}

// hbTally aggregates one heartbeat-soak workload across the seed sweep.
type hbTally struct {
	ok, runs                          int
	heartbeats, suspicions, falseSusp int64
	cleared, fences, selfFences       int64
	confirms                          int64
	elapsed                           time.Duration
	lat                               latTally
}

func (s *hbTally) absorb(ok bool, mets *metrics.World, reg *obs.Registry, elapsed time.Duration) {
	s.runs++
	if ok {
		s.ok++
	}
	s.heartbeats += mets.Total(metrics.Heartbeats)
	s.suspicions += mets.Total(metrics.Suspicions)
	s.falseSusp += mets.Total(metrics.FalseSuspicions)
	s.cleared += mets.Total(metrics.SuspicionsCleared)
	s.fences += mets.Total(metrics.Fences)
	s.selfFences += mets.Total(metrics.SelfFences)
	s.confirms += mets.Total(metrics.Confirms)
	s.elapsed += elapsed
	if s.lat == nil {
		s.lat = latTally{}
	}
	s.lat.merge(reg)
}

func (s *hbTally) addRow(t *Table, workload string) {
	t.Add(workload, s.runs, s.ok, s.heartbeats, s.suspicions, s.falseSusp,
		s.cleared, s.fences, s.selfFences, s.confirms, s.elapsed)
}

// hbSoakOptions is the heartbeat tuning for the E19 soak: fast enough to
// keep the sweep short, with the self-fence horizon pushed out so only
// the partition workload (which tunes it down) ever self-fences.
func hbSoakOptions() detector.HeartbeatOptions {
	return detector.HeartbeatOptions{
		Interval:       2 * time.Millisecond,
		Timeout:        30 * time.Millisecond,
		SelfFenceAfter: 2 * time.Second,
	}
}

// runHeartbeatSoak sweeps seeds over three workloads running on the
// heartbeat detector — no oracle shortcut anywhere:
//
//  1. the full FT ring under delay jitter with a scripted mid-run kill
//     (detection happens through missed heartbeats while the jitter makes
//     the monitors earn their keep),
//  2. validate_all with a scheduled full partition of one healthy rank
//     (a guaranteed FALSE suspicion whose fences can never arrive — the
//     victim must self-fence before anyone may report it failed), and
//  3. the Chang-Roberts election with a victim dying mid-election.
//
// Delay jitter can make the phi estimator falsely suspect a healthy rank;
// that is not a bug but the detector's contract at work — the fence kills
// the suspect before the failure is reported, so the app only ever sees
// fail-stop. The ok-criteria therefore tolerate extra fenced ranks but
// never a wrong answer: markers absorbed exactly once, survivors agree,
// and nobody unfenced is reported failed (Registry.Confirm panics the
// world on an accuracy violation, so mere completion certifies it).
func runHeartbeatSoak(opt Options) ([]*Table, error) {
	t := NewTable("E19: heartbeat soak — delay jitter, kills, scheduled partitions",
		"workload", "seeds", "ok", "heartbeats", "suspicions", "false-susp",
		"cleared", "fences", "self-fences", "confirms", "elapsed")
	tLat := NewTable("E19b: detection latency quantiles (merged over seeds)",
		"workload", "family", "samples", "p50", "p95", "p99", "max")
	nSeeds := 20
	if opt.Quick {
		nSeeds = 4
	}
	jitter := chaos.Rates{Delay: 0.25, Jitter: 4 * time.Millisecond}

	var ring, validate, elect hbTally
	for s := 0; s < nSeeds; s++ {
		seed := opt.Seed + int64(s)

		// Workload 1: FT ring, delay jitter on every link, rank 2 killed
		// after its second receive. RootElect so a falsely fenced root
		// cannot wedge the run.
		{
			const n, iters, victim = 4, 8, 2
			plan := chaos.NewPlan(seed).Default(jitter)
			kill := inject.NewPlan().Add(inject.AfterNthRecv(victim, 2))
			mets := metrics.NewWorld(n)
			reg := obs.NewRegistry(n)
			opt.Collector.Attach(mets, reg)
			report, res, err := core.Run(mpi.Config{
				Size: n, Deadline: 60 * time.Second, Metrics: mets, Chaos: plan,
				Obs: reg, Hook: kill.Hook(),
				Detector: mpi.DetectorHeartbeat, Heartbeat: hbSoakOptions(),
			}, core.Config{Iters: iters, Variant: core.VariantFull,
				Termination: core.TermValidateAll, RootPolicy: core.RootElect})
			if err != nil {
				return nil, fmt.Errorf("ring seed %d: %w", seed, err)
			}
			killed := 0
			for _, rr := range res.Ranks {
				if rr.Killed {
					killed++
				}
			}
			ok := !res.TimedOut && res.Ranks[victim].Killed
			seen := map[int64]bool{}
			total := 0
			for rank := 0; rank < n; rank++ {
				for marker, v := range report.Rank(rank).RootValues {
					if seen[marker] {
						ok = false // a marker absorbed twice
					}
					seen[marker] = true
					total++
					ok = ok && v >= int64(n-killed) && v <= int64(n)
				}
			}
			ok = ok && total == iters
			for _, rr := range res.Ranks {
				if !rr.Killed {
					ok = ok && rr.Finished && rr.Err == nil
				}
			}
			ring.absorb(ok, mets, reg, res.Elapsed)
			opt.Collector.Absorb(mets, reg)
		}

		// Workload 2: validate_all with rank n-1 fully partitioned from the
		// start. Its peers falsely suspect it, their fences cannot cross the
		// partition, and the victim's own ack silence makes it self-fence —
		// only then may the survivors' agreement count it failed.
		{
			const n = 4
			plan := chaos.NewPlan(seed).
				Partition(n-1, -1, 1, ^uint64(0)).
				Partition(-1, n-1, 1, ^uint64(0))
			hb := hbSoakOptions()
			hb.SelfFenceAfter = 150 * time.Millisecond // beat ARQ escalation (~400ms)
			mets := metrics.NewWorld(n)
			reg := obs.NewRegistry(n)
			opt.Collector.Attach(mets, reg)
			w, err := mpi.NewWorld(n, mpi.WithDeadline(60*time.Second),
				mpi.WithMetrics(mets), mpi.WithChaos(plan), mpi.WithObservability(reg),
				mpi.WithHeartbeat(hb))
			if err != nil {
				return nil, err
			}
			counts := make([]int, n)
			res, err := w.Run(func(p *mpi.Proc) error {
				c := p.World()
				c.SetErrhandler(mpi.ErrorsReturn)
				cnt, verr := c.ValidateAll()
				if verr != nil {
					return verr
				}
				counts[p.Rank()] = cnt
				return nil
			})
			if err != nil {
				return nil, fmt.Errorf("validate seed %d: %w", seed, err)
			}
			ok := !res.TimedOut && res.Ranks[n-1].Killed
			for rank := 0; rank < n-1; rank++ {
				rr := res.Ranks[rank]
				ok = ok && !rr.Killed && rr.Err == nil && counts[rank] == 1
			}
			validate.absorb(ok, mets, reg, res.Elapsed)
			opt.Collector.Absorb(mets, reg)
		}

		// Workload 3: Chang-Roberts under jitter with rank 2 dying shortly
		// after the election starts — tokens it held die with it, and the
		// re-initiation on (heartbeat-detected) notification must drain the
		// ring to a leader every survivor agrees on.
		{
			const n, victim = 4, 2
			plan := chaos.NewPlan(seed).Default(jitter)
			mets := metrics.NewWorld(n)
			reg := obs.NewRegistry(n)
			opt.Collector.Attach(mets, reg)
			w, err := mpi.NewWorld(n, mpi.WithDeadline(60*time.Second),
				mpi.WithMetrics(mets), mpi.WithChaos(plan), mpi.WithObservability(reg),
				mpi.WithHeartbeat(hbSoakOptions()))
			if err != nil {
				return nil, err
			}
			elected := make([]int, n)
			res, err := w.Run(func(p *mpi.Proc) error {
				c := p.World()
				c.SetErrhandler(mpi.ErrorsReturn)
				if p.Rank() == victim {
					time.Sleep(5 * time.Millisecond)
					p.Die()
				}
				leader, eerr := election.ChangRoberts(p, c)
				if eerr != nil {
					return eerr
				}
				elected[p.Rank()] = leader
				return nil
			})
			if err != nil {
				return nil, fmt.Errorf("election seed %d: %w", seed, err)
			}
			ok := !res.TimedOut && res.Ranks[victim].Killed
			leader := -1
			for rank, rr := range res.Ranks {
				if rr.Killed {
					continue
				}
				ok = ok && rr.Err == nil && rr.Finished
				if leader == -1 {
					leader = elected[rank]
				}
				ok = ok && elected[rank] == leader
			}
			ok = ok && leader >= 0
			elect.absorb(ok, mets, reg, res.Elapsed)
			opt.Collector.Absorb(mets, reg)
		}
	}

	ring.addRow(t, "ft ring + jitter + kill")
	validate.addRow(t, "validate_all + partition")
	elect.addRow(t, "election + jitter + kill")
	t.Note("ok must equal seeds: every run terminates with the app-level invariant intact")
	t.Note("false-susp > 0 is expected (jitter, partitions); each one was fenced before being reported")
	ring.lat.addRows(tLat, "ft ring + jitter + kill")
	validate.lat.addRows(tLat, "validate_all + partition")
	elect.lat.addRows(tLat, "election + jitter + kill")
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
