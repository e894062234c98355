package workload

import (
	"encoding/binary"
	"fmt"
	"sync"
	"time"

	"repro/internal/chaos"
	"repro/internal/metrics"
	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/trace"
)

// ReplicaDemoRanks is the LOGICAL ring size of the replication protocol;
// cmd/ftring multiplies it by -replicas to size its metrics recorder and
// histogram registry (replication worlds meter every physical slot).
const ReplicaDemoRanks = replicaRingRanks

// RunReplicaDemo runs one seeded replication world (the E22 protocol)
// with R replicas per logical rank in the given replication mode
// (mpi.ReplFanout or mpi.ReplChain) over the caller's metrics recorder
// and histogram registry — both sized to ReplicaDemoRanks*R — and returns
// the one-row result table. This is the entry point behind cmd/ftring's
// -replicas mode, so a live -obs endpoint scrapes the promotion and
// dedup counters as a replica is killed mid-run. With refill set, the
// world re-replicates the killed slot automatically and the run does not
// return until the group is back at degree R. A non-nil rec records the
// causal trace (for -trace-out / traceconv -audit). With R == 1 there is
// no replica to absorb a failure, so the run is failure-free.
func RunReplicaDemo(seed int64, r int, mode string, refill bool,
	rec *trace.Recorder, mets *metrics.World, reg *obs.Registry) (*Table, error) {
	t := NewTable("replication demo — hot replicas, transparent failover under chaos",
		"seed", "R", "mode", "victim-phys", "role", "kill-lap", "laps", "promotions",
		"dedup-drops", "replica-sends", "refills", "elapsed")
	cfg := replicaCfg{r: r, mode: mode, kill: r >= 2,
		laps: replicaBaseLaps, chaos: true, autoRefill: refill && r >= 2}
	run, err := runReplicaWorld(Options{Tracer: rec}, cfg, seed, mets, reg)
	if err != nil {
		return nil, err
	}
	t.Add(seed, r, mode, run.victim, run.role, run.killLap, run.laps, run.promotions,
		run.dedupDrops, run.replicaSends, run.refills, run.elapsed)
	return t, nil
}

// E22 — the replication soak. The paper's answer to failure is an ABFT
// protocol: the application recognizes failures, resends past corpses and
// deduplicates by marker. Replication is the opposite trade: each logical
// rank is backed by R hot replicas, every send fans out to all of them,
// receives are deduplicated below the matching layer, and a replica death
// promotes a standby — so the application needs NO recovery protocol at
// all. E22 proves that claim by running the fault-UNAWARE ring (plain
// Send/Recv, fixed peers, no RecognizeLocal, no resend, no validate) over
// an R=2 replicated world under chaos, killing one replica per seed:
//
//	kill -> detector Confirm -> promotion of the standby (invisible to the
//	app) -> the ring completes every lap exactly once with zero app-level
//	recovery actions.
//
// Exactly-once is asserted structurally: every surviving replica of
// logical rank 0 recorded lap 0,1,2,... with no gap, duplicate or
// reordering, and the Validates/Resends counters — the ABFT protocol's
// fingerprints — are zero.
const (
	replicaRingRanks = 4
	// replicaBaseLaps is how many laps the token makes while the kill and
	// promotion play out; the kill lap is always well inside this.
	replicaBaseLaps = 16
	// replicaOverheadLaps sizes the failure-free overhead measurement
	// (R=1 vs R=2): long enough that per-lap cost dominates world setup.
	replicaOverheadLaps = 64
	replicaTagTok       = 1
)

// replicaRates is the chaos the soak runs under — the elastic-soak mix,
// so E21 and E22 absorb their kills under identical network weather.
func replicaRates() chaos.Rates {
	return chaos.Rates{Drop: 0.05, Dup: 0.05, Corrupt: 0.01}
}

// replicaCfg selects one replication-world configuration.
type replicaCfg struct {
	r     int    // replicas per logical rank
	mode  string // mpi.ReplFanout or mpi.ReplChain
	kill  bool   // kill one seeded replica mid-run
	laps  int
	chaos bool
	// waitRepair parks the logical-0 replicas between the base and the
	// final verify laps until the detector has confirmed the kill and any
	// due promotion has landed. With real (non-oracle) detectors the
	// unaware ring can outrun detection entirely; E23's forensics need
	// the repair — and a post-repair delivery — inside the run.
	waitRepair bool
	// autoRefill turns on automatic re-replication: the world respawns
	// the killed slot itself and the run's epilogue waits until every
	// replica group is back at degree r.
	autoRefill bool
}

// replicaWaitLaps is how many laps run after the repair wait-point when
// waitRepair is set: they traverse the repaired world, giving the trace
// its post-repair deliveries.
const replicaWaitLaps = 2

// waitForRepair polls the world counters until the kill is confirmed
// (and, when the victim was a primary, until the standby promotion
// landed), bounded well inside the world deadline. A timeout falls
// through: the promotion assertions after the run report the failure.
func waitForRepair(mets *metrics.World, needProm bool) {
	for end := time.Now().Add(30 * time.Second); time.Now().Before(end); time.Sleep(2 * time.Millisecond) {
		if mets.Total(metrics.Confirms) >= 1 &&
			(!needProm || mets.Total(metrics.ReplicaPromotions) >= 1) {
			return
		}
	}
}

// replicaRun is the measured outcome of one seeded E22 world.
type replicaRun struct {
	victim       int    // physical slot killed (-1 when cfg.kill is false)
	role         string // "primary" or "standby" (what the victim was)
	killLap      int
	laps         int // laps the longest-lived root replica completed
	promotions   int64
	dedupDrops   int64
	replicaSends int64
	refills      int64
	validates    int64
	resends      int64
	elapsed      time.Duration
}

// runReplicaWorld runs one seeded replication ring world and checks the
// transparent-failover contract end to end: the app is the fault-unaware
// ring, a seeded replica dies, and the run must still deliver every lap
// exactly once with zero app-level recovery. The victim physical slot and
// kill lap derive from the seed, so twenty seeds cover primaries,
// standbys, the root's own replicas, and different phases of the ring.
func runReplicaWorld(opt Options, cfg replicaCfg, seed int64, mets *metrics.World, reg *obs.Registry) (*replicaRun, error) {
	lsize := replicaRingRanks
	nphys := lsize * cfg.r
	run := &replicaRun{victim: -1, killLap: -1, role: "none"}
	if cfg.kill {
		run.victim = int(seed) % nphys
		run.killLap = 2 + int(seed)%8
		run.role = "standby"
		if run.victim < lsize { // prefix-striped: replica 0 of logical l is slot l
			run.role = "primary"
		}
	}

	if mets == nil {
		mets = metrics.NewWorld(nphys)
	}
	if reg == nil {
		// Always metered: the soak's promotion-latency quantiles come from
		// this registry even when no collector is attached.
		reg = obs.NewRegistry(nphys)
	}
	opt.Collector.Attach(mets, reg)
	wopts := []mpi.Option{
		mpi.WithMetrics(mets),
		mpi.WithObservability(reg),
		mpi.WithDeadline(120 * time.Second),
		mpi.WithReplication(mpi.ReplicationOptions{
			R: cfg.r, Mode: cfg.mode,
			AutoRefill: cfg.autoRefill, RefillBackoff: time.Millisecond,
		}),
	}
	if cfg.chaos {
		wopts = append(wopts, mpi.WithChaos(chaos.NewPlan(seed).Default(replicaRates())))
	}
	if opt.Tracer != nil {
		wopts = append(wopts, mpi.WithTracer(opt.Tracer))
	}
	wopts = append(wopts, opt.detectorOption())
	w, err := mpi.NewWorld(lsize, wopts...)
	if err != nil {
		return nil, err
	}

	// Every replica of logical rank 0 records the laps it observed; the
	// exactly-once assertion below runs per replica record.
	var mu sync.Mutex
	rootLaps := map[int][]int64{}

	res, err := w.Run(func(p *mpi.Proc) error {
		c := p.World()
		c.SetErrhandler(mpi.ErrorsReturn)
		if p.Gen() > 1 {
			// An automatic refill joins as a warm standby: it cannot replay
			// the message history its siblings already consumed, so it holds
			// the slot and restores the failure budget.
			return nil
		}
		me, L, phys := p.Rank(), p.Size(), p.PhysRank()

		// The entire application: the paper's Fig. 2 fault-UNAWARE ring.
		// Fixed peers, blocking calls, no failure handling of any kind —
		// the replication layer beneath is what absorbs the kill.
		buf := make([]byte, 8)
		for lap := 0; lap < cfg.laps; lap++ {
			if cfg.kill && phys == run.victim && lap == run.killLap {
				p.Die()
			}
			if cfg.waitRepair && me == 0 && lap == cfg.laps-replicaWaitLaps {
				waitForRepair(mets, run.role == "primary")
			}
			if me == 0 {
				binary.LittleEndian.PutUint64(buf, uint64(lap))
				if serr := c.Send(1%L, replicaTagTok, buf); serr != nil {
					return serr
				}
				pl, _, rerr := c.Recv(L-1, replicaTagTok)
				if rerr != nil {
					return rerr
				}
				got := int64(binary.LittleEndian.Uint64(pl))
				mu.Lock()
				rootLaps[phys] = append(rootLaps[phys], got)
				mu.Unlock()
			} else {
				pl, _, rerr := c.Recv(me-1, replicaTagTok)
				if rerr != nil {
					return rerr
				}
				if serr := c.Send((me+1)%L, replicaTagTok, pl); serr != nil {
					return serr
				}
			}
		}
		if cfg.autoRefill && cfg.kill {
			// Epilogue: survivors hold the world open until the automatic
			// refill has restored every replica group to full degree.
			for end := time.Now().Add(30 * time.Second); ; time.Sleep(2 * time.Millisecond) {
				healed := true
				for l := 0; l < L; l++ {
					if len(w.LiveReplicas(l)) != cfg.r {
						healed = false
						break
					}
				}
				if healed {
					break
				}
				if !time.Now().Before(end) {
					return fmt.Errorf("phys %d: replica groups not refilled to R=%d", phys, cfg.r)
				}
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if res.TimedOut {
		return nil, fmt.Errorf("seed %d: wedged, stuck ranks %v", seed, res.Stuck)
	}
	for rank, rr := range res.Ranks {
		if cfg.kill && rank == run.victim {
			if !rr.Killed {
				return nil, fmt.Errorf("seed %d: victim %d not recorded killed", seed, rank)
			}
			continue
		}
		// Zero app-visible failures: every other replica ran the unaware
		// ring to completion without ever seeing an error.
		if rr.Err != nil {
			return nil, fmt.Errorf("seed %d: phys %d saw the failure: %w", seed, rank, rr.Err)
		}
		if !rr.Finished {
			return nil, fmt.Errorf("seed %d: phys %d did not finish", seed, rank)
		}
	}

	// Exactly-once per surviving root replica: laps 0,1,2,... complete, in
	// order. The victim's own record (when it backed logical 0) is a clean
	// prefix — it died at a lap boundary, never mid-duplicate.
	full := 0
	for phys, laps := range rootLaps {
		for i, lap := range laps {
			if lap != int64(i) {
				return nil, fmt.Errorf("seed %d: root replica %d arrival %d carried lap %d — not exactly-once: %v",
					seed, phys, i, lap, laps)
			}
		}
		if cfg.kill && phys == run.victim {
			continue
		}
		if len(laps) != cfg.laps {
			return nil, fmt.Errorf("seed %d: root replica %d recorded %d laps, want %d",
				seed, phys, len(laps), cfg.laps)
		}
		full++
		run.laps = len(laps)
	}
	if want := cfg.r - boolInt(cfg.kill && run.victim%lsize == 0); full != want {
		return nil, fmt.Errorf("seed %d: %d complete root records, want %d", seed, full, want)
	}

	run.promotions = mets.Total(metrics.ReplicaPromotions)
	run.dedupDrops = mets.Total(metrics.ReplicaDedupDrops)
	run.replicaSends = mets.Total(metrics.ReplicaSends)
	run.refills = mets.Total(metrics.ReplicaRefills)
	run.validates = mets.Total(metrics.Validates)
	run.resends = mets.Total(metrics.Resends)
	run.elapsed = res.Elapsed
	if cfg.autoRefill && cfg.kill && run.refills == 0 {
		return nil, fmt.Errorf("seed %d: auto re-replication never refilled the killed slot", seed)
	}

	// The kill is absorbed below the app: a dead primary promotes exactly
	// one standby, a dead standby promotes nobody.
	wantProm := int64(0)
	if cfg.kill && run.role == "primary" {
		wantProm = 1
	}
	if run.promotions != wantProm {
		return nil, fmt.Errorf("seed %d: %d promotions, want %d (victim %d was a %s)",
			seed, run.promotions, wantProm, run.victim, run.role)
	}
	// Zero recovery protocol: the ABFT counters never move.
	if run.validates != 0 || run.resends != 0 {
		return nil, fmt.Errorf("seed %d: app-level recovery ran (validates=%d resends=%d) — replication must absorb the kill",
			seed, run.validates, run.resends)
	}
	if cfg.r > 1 && cfg.mode == mpi.ReplFanout {
		if run.replicaSends == 0 {
			return nil, fmt.Errorf("seed %d: replica_sends is zero with R=%d", seed, cfg.r)
		}
		if run.dedupDrops == 0 {
			return nil, fmt.Errorf("seed %d: replica_dedup_drops is zero with R=%d fan-out", seed, cfg.r)
		}
	}
	opt.Collector.Absorb(mets, reg)
	return run, nil
}

// runReplicaSoak is E22: twenty seeded replication runs (six in quick
// mode), each asserting transparent failover of the fault-unaware ring,
// followed by the failure-free overhead table (R=1 baseline vs R=2
// fan-out vs R=2 chain) and the promotion-latency quantiles merged over
// the sweep.
func runReplicaSoak(opt Options) ([]*Table, error) {
	mode := opt.RepMode
	if mode == "" {
		mode = mpi.ReplFanout
	}
	t := NewTable(fmt.Sprintf("E22: replication soak — one replica killed per seed, fault-unaware ring, R=2 %s", mode),
		"seed", "victim-phys", "role", "kill-lap", "laps", "promotions",
		"dedup-drops", "replica-sends", "elapsed")
	seeds := 20
	if opt.Quick {
		seeds = 6
	}
	lat := latTally{}
	for s := 0; s < seeds; s++ {
		seed := opt.Seed + int64(s)
		reg := obs.NewRegistry(replicaRingRanks * 2)
		cfg := replicaCfg{r: 2, mode: mode, kill: true,
			laps: replicaBaseLaps, chaos: true}
		r, err := runReplicaWorld(opt, cfg, seed, nil, reg)
		if err != nil {
			return nil, err
		}
		lat.merge(reg)
		t.Add(seed, r.victim, r.role, r.killLap, r.laps, r.promotions,
			r.dedupDrops, r.replicaSends, r.elapsed)
	}
	t.Note("asserted in-run per seed: every surviving replica of rank 0 saw every lap exactly once in order,")
	t.Note("no rank function ever observed an error, validates=resends=0 (the app has NO recovery protocol),")
	t.Note("promotions=1 iff the victim was a primary")

	tOv, err := runReplicaOverhead(opt)
	if err != nil {
		return nil, err
	}

	tLat := NewTable("E22c: replication latency quantiles (merged over seeds)",
		"family", "samples", "p50", "p95", "p99", "max")
	for _, f := range []obs.Family{obs.ReplicaPromotion, obs.ReplicationOverhead,
		obs.NotifyLatency, obs.SendComplete} {
		snap := lat[f]
		if snap.Count == 0 {
			continue
		}
		tLat.Add(f.String(), snap.Count,
			time.Duration(snap.Quantile(0.50)), time.Duration(snap.Quantile(0.95)),
			time.Duration(snap.Quantile(0.99)), time.Duration(snap.Max))
	}
	tLat.Note("replica_promotion = detector Confirm to standby promoted; replication_overhead = extra fan-out copies per send")
	return []*Table{t, tOv, tLat}, nil
}

// runReplicaOverhead measures what replication costs when nothing fails:
// the same ring, same lap count, no chaos and no kill, over the plain
// world (the R=1 baseline), R=2 fan-out and R=2 chain. This is the other
// half of the FT-strategy trade: replication buys app-invisible failover
// with every message sent R times and every rank run R times.
func runReplicaOverhead(opt Options) (*Table, error) {
	t := NewTable("E22b: failure-free overhead — same ring, same laps, no faults",
		"config", "phys-ranks", "laps", "elapsed", "us/lap", "overhead-x", "replica-sends")
	laps := replicaOverheadLaps
	if opt.Quick {
		laps = replicaOverheadLaps / 4
	}

	// R=1 baseline: the plain (non-replicated) runtime path.
	base, err := runPlainRing(laps)
	if err != nil {
		return nil, fmt.Errorf("R=1 baseline: %w", err)
	}
	t.Add("R=1 (no replication)", replicaRingRanks, laps, base,
		float64(base.Microseconds())/float64(laps), 1.0, 0)

	for _, cfg := range []struct {
		name string
		mode string
	}{
		{"R=2 fan-out", mpi.ReplFanout},
		{"R=2 chain", mpi.ReplChain},
	} {
		c := replicaCfg{r: 2, mode: cfg.mode, kill: false, laps: laps, chaos: false}
		r, err := runReplicaWorld(opt, c, opt.Seed, nil, nil)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", cfg.name, err)
		}
		t.Add(cfg.name, replicaRingRanks*2, laps, r.elapsed,
			float64(r.elapsed.Microseconds())/float64(laps),
			float64(r.elapsed)/float64(base), r.replicaSends)
	}
	t.Note("overhead-x vs the plain runtime: the price of every send fanned out and every rank duplicated")
	return t, nil
}

// runPlainRing times the identical fault-unaware ring on the plain
// (non-replicated) runtime — the honest R=1 baseline for E22b.
func runPlainRing(laps int) (time.Duration, error) {
	n := replicaRingRanks
	w, err := mpi.NewWorld(n, mpi.WithDeadline(120*time.Second))
	if err != nil {
		return 0, err
	}
	res, err := w.Run(func(p *mpi.Proc) error {
		c := p.World()
		c.SetErrhandler(mpi.ErrorsReturn)
		me := p.Rank()
		buf := make([]byte, 8)
		for lap := 0; lap < laps; lap++ {
			if me == 0 {
				binary.LittleEndian.PutUint64(buf, uint64(lap))
				if serr := c.Send(1%n, replicaTagTok, buf); serr != nil {
					return serr
				}
				if _, _, rerr := c.Recv(n-1, replicaTagTok); rerr != nil {
					return rerr
				}
			} else {
				pl, _, rerr := c.Recv(me-1, replicaTagTok)
				if rerr != nil {
					return rerr
				}
				if serr := c.Send((me+1)%n, replicaTagTok, pl); serr != nil {
					return serr
				}
			}
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	for rank, rr := range res.Ranks {
		if rr.Err != nil {
			return 0, fmt.Errorf("rank %d: %w", rank, rr.Err)
		}
	}
	return res.Elapsed, nil
}

// boolInt is 1 when b is true (table/assertion arithmetic helper).
func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}
