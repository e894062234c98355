package workload

import (
	"fmt"
	"time"

	"repro/internal/chaos"
	"repro/internal/metrics"
	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/reliable"
	"repro/internal/trace"
)

// ReplicaDemoRanks is the LOGICAL ring size of the replication protocol;
// cmd/ftring multiplies it by -replicas to size its metrics recorder and
// histogram registry (replication worlds meter every physical slot).
const ReplicaDemoRanks = replicaRingRanks

// RunReplicaDemo runs one seeded replication world (the E22 protocol)
// with R replicas per logical rank over the caller's metrics recorder
// and histogram registry — both sized to ReplicaDemoRanks*R — and returns
// the one-row result table, R in its title. This is the entry
// point behind cmd/ftring's -replicas mode, so a live -obs endpoint
// scrapes the promotion and dedup counters as a replica is killed
// mid-run. With refill set, the world re-replicates the killed slot
// automatically and the run does not return until the group is back at
// degree R. A non-nil rec records the causal trace (for -trace-out /
// traceconv -audit). With R == 1 there is no replica to absorb a
// failure, so the run is failure-free, on the plain runtime.
func RunReplicaDemo(seed int64, r int, refill bool,
	rec *trace.Recorder, mets *metrics.World, reg *obs.Registry) (*Table, error) {
	t := replicaTable(fmt.Sprintf("replication demo — R=%d, hot replicas, transparent failover under chaos", r))
	cfg := replicaCfg{r: r, kill: r >= 2,
		laps: replicaBaseLaps, rates: repairRates, autoRefill: refill && r >= 2}
	run, err := runReplicaWorld(Options{Tracer: rec}, cfg, seed, mets, reg)
	if err != nil {
		return nil, err
	}
	run.addRow(t, seed)
	return t, nil
}

// E22 — the replication soak. The paper's answer to failure is an ABFT
// protocol: the application recognizes failures, resends past corpses and
// deduplicates by marker. Replication is the opposite trade: each logical
// rank is backed by R hot replicas, replica i of a sender sends to
// replica i of the destination, the copies a failover replays are
// deduplicated below the matching layer, and a replica death promotes a
// standby — so the application needs NO recovery protocol at all. E22 proves that claim by running the fault-UNAWARE ring (plain
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

// replicaCfg selects one replication-world configuration.
type replicaCfg struct {
	r     int  // replicas per logical rank
	kill  bool // kill one seeded replica mid-run
	laps  int
	rates chaos.Rates // network weather; the zero value is a clean network
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
	*soakRun
	victim  int    // physical slot killed (-1 when cfg.kill is false)
	role    string // "primary" or "standby" (what the victim was)
	killLap int
	laps    int // laps every surviving root replica completed
}

// replicaTable is the E22 table shape, shared by the soak and the
// cmd/ftring demo; addRow fills one seed's row.
func replicaTable(title string) *Table {
	return NewTable(title, "seed", "victim-phys", "role", "kill-lap", "laps", "promotions",
		"dedup-drops", "replica-sends", "elapsed")
}

func (r *replicaRun) addRow(t *Table, seed int64) {
	total := r.mets.Total
	t.Add(seed, r.victim, r.role, r.killLap, r.laps, total(metrics.ReplicaPromotions),
		total(metrics.ReplicaDedupDrops), total(metrics.ReplicaSends), r.Elapsed)
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
	run := &replicaRun{victim: -1, killLap: -1, role: "none", laps: cfg.laps}
	var victims []int
	if cfg.kill {
		run.victim = int(seed) % nphys
		run.killLap = 2 + int(seed)%8
		run.role = "standby"
		if run.victim < lsize { // prefix-striped: replica 0 of logical l is slot l
			run.role = "primary"
		}
		victims = []int{run.victim}
	}

	// A replicated run with a kill is audited: a caller that records the
	// trace itself audits it itself.
	var audit *trace.Recorder
	if cfg.kill && opt.Tracer == nil {
		audit = trace.New(0)
		opt.Tracer = audit
	}
	// Every replica of logical rank 0 records the laps it observed; the
	// exactly-once assertion below runs per replica record.
	root := make(rootLaps, nphys)
	// One replica is the plain runtime, over the ARQ a replicated world
	// implies, so that an R=1 baseline prices replication alone.
	opts := []mpi.Option{mpi.WithReliability(reliable.Options{})}
	if cfg.r > 1 {
		opts = append(opts, mpi.WithReplication(mpi.ReplicationOptions{
			R: cfg.r, AutoRefill: cfg.autoRefill, RefillBackoff: time.Millisecond,
		}))
	}
	var err error
	run.soakRun, err = opt.runWorld(seed, soakWorld{size: lsize, slots: nphys, rates: cfg.rates,
		victims: victims, mets: mets, reg: reg, opts: opts,
		body: func(w *mpi.World) func(*mpi.Proc) error {
			return func(p *mpi.Proc) error {
				c := p.World()
				c.SetErrhandler(mpi.ErrorsReturn)
				if p.Gen() > 1 {
					// An automatic refill joins as a warm standby: it cannot replay
					// the message history its siblings already consumed, so it holds
					// the slot and restores the failure budget.
					return nil
				}
				me, phys := p.Rank(), p.PhysRank()

				// The entire application: the fault-unaware ring. The replication
				// layer beneath is what absorbs the kill.
				buf := make([]byte, 8)
				for lap := 0; lap < cfg.laps; lap++ {
					if cfg.kill && phys == run.victim && lap == run.killLap {
						p.Die()
					}
					if cfg.waitRepair && me == 0 && lap == cfg.laps-replicaWaitLaps {
						waitForRepair(w.Metrics(), run.role == "primary")
					}
					got, err := ringLap(c, replicaTagTok, lap, buf)
					if err != nil {
						return err
					}
					if me == 0 {
						root[phys] = append(root[phys], got)
					}
				}
				if cfg.autoRefill && cfg.kill {
					// Epilogue: survivors hold the world open until the automatic
					// refill has restored every replica group to full degree.
					return waitHealed(w, cfg.r, nil)
				}
				return nil
			}
		}})
	if err == nil {
		// Zero app-visible failures: every other replica ran the unaware ring
		// to completion without ever seeing an error (the verdict), and laps
		// came back exactly once on every surviving root replica.
		err = root.exactlyOnce(cfg.laps, lsize, victims)
	}
	if err != nil {
		return nil, fmt.Errorf("seed %d: %w", seed, err)
	}

	total := run.mets.Total
	if cfg.autoRefill && cfg.kill && total(metrics.ReplicaRefills) == 0 {
		return nil, fmt.Errorf("seed %d: auto re-replication never refilled the killed slot", seed)
	}

	// The kill is absorbed below the app: a dead primary promotes exactly
	// one standby, a dead standby promotes nobody.
	wantProm := int64(0)
	if cfg.kill && run.role == "primary" {
		wantProm = 1
	}
	if p := total(metrics.ReplicaPromotions); p != wantProm {
		return nil, fmt.Errorf("seed %d: %d promotions, want %d (victim %d was a %s)",
			seed, p, wantProm, run.victim, run.role)
	}
	// Zero recovery protocol: the ABFT counters never move.
	if v, rs := total(metrics.Validates), total(metrics.Resends); v != 0 || rs != 0 {
		return nil, fmt.Errorf("seed %d: app-level recovery ran (validates=%d resends=%d) — replication must absorb the kill",
			seed, v, rs)
	}
	// Mirror pairing: replica i of a sender sends to replica i of the
	// destination. Without a failure every sender replica puts exactly one
	// copy of each logical send on the wire, so the standbys' copies are
	// R-1 of every R physical sends and no replica ever sees a duplicate.
	// A kill moves copies to the promoted primary and replays what the
	// orphaned replica never confirmed; the conservation audit accounts for
	// every one of them.
	if cfg.r > 1 {
		sends, extra := total(metrics.Sends), total(metrics.ReplicaSends)
		switch {
		case extra == 0:
			return nil, fmt.Errorf("seed %d: replica_sends is zero with R=%d", seed, cfg.r)
		case !cfg.kill && extra*int64(cfg.r) != sends*int64(cfg.r-1):
			return nil, fmt.Errorf("seed %d: replica_sends %d of %d sends, want (R-1)/R with R=%d", seed, extra, sends, cfg.r)
		case !cfg.kill && total(metrics.ReplicaDedupDrops)+total(metrics.ChainResends) != 0:
			return nil, fmt.Errorf("seed %d: %d dedup drops and %d chain resends without a failure, want none",
				seed, total(metrics.ReplicaDedupDrops), total(metrics.ChainResends))
		}
	}
	if audit != nil {
		if _, err := auditTrace(opt, audit); err != nil {
			return nil, fmt.Errorf("seed %d: %w", seed, err)
		}
	}
	return run, nil
}

// runReplicaSoak is E22: twenty seeded replication runs (six in quick
// mode), each asserting transparent failover of the fault-unaware ring,
// followed by the failure-free overhead table (R=1 baseline vs R=2) and
// the promotion-latency quantiles merged over the sweep.
func runReplicaSoak(opt Options) ([]*Table, error) {
	t := replicaTable("E22: replication soak — one replica killed per seed, fault-unaware ring, R=2")
	lat := latTally{}
	err := opt.eachSeed(6, func(seed int64) error {
		reg := obs.NewRegistry(replicaRingRanks * 2)
		cfg := replicaCfg{r: 2, kill: true, laps: replicaBaseLaps, rates: repairRates}
		r, err := runReplicaWorld(opt, cfg, seed, nil, reg)
		if err == nil {
			lat.merge(reg)
			r.addRow(t, seed)
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	t.Note("asserted in-run per seed: every surviving replica of rank 0 saw every lap exactly once in order,")
	t.Note("no rank function ever observed an error, validates=resends=0 (the app has NO recovery protocol),")
	t.Note("promotions=1 iff the victim was a primary, replica-sends>0, conservation audit unaccounted=0")

	tOv, err := runReplicaOverhead(opt)
	if err != nil {
		return nil, err
	}

	tLat := lat.table("E22c: replication latency quantiles (merged over seeds)",
		obs.ReplicaPromotion, obs.ReplicationOverhead, obs.NotifyLatency, obs.SendComplete)
	tLat.Note("replica_promotion = detector Confirm to standby promoted; replication_overhead = a standby's copy to its mirror")
	return []*Table{t, tOv, tLat}, nil
}

// runReplicaOverhead measures what replication costs when nothing fails:
// the same ring, same lap count, no chaos and no kill, over the plain
// world (the R=1 baseline) and R=2, both over ARQ. This is the other half
// of the FT-strategy trade: replication buys app-invisible failover with
// every message delivered R times and every rank run R times.
func runReplicaOverhead(opt Options) (*Table, error) {
	t := NewTable("E22b: failure-free overhead — same ring, same laps, no faults",
		"config", "phys-ranks", "laps", "elapsed", "us/lap", "overhead-x", "replica-sends")
	laps := replicaOverheadLaps
	if opt.Quick {
		laps = replicaOverheadLaps / 4
	}

	var base time.Duration
	for _, cfg := range []struct {
		name string
		r    int
	}{
		{"R=1 (no replication)", 1}, // the baseline: the plain runtime path
		{"R=2", 2},
	} {
		r, err := runReplicaWorld(opt, replicaCfg{r: cfg.r, laps: laps}, opt.Seed, nil, nil)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", cfg.name, err)
		}
		if base == 0 {
			base = r.Elapsed
		}
		t.Add(cfg.name, replicaRingRanks*cfg.r, laps, r.Elapsed,
			float64(r.Elapsed.Microseconds())/float64(laps),
			float64(r.Elapsed)/float64(base), r.mets.Total(metrics.ReplicaSends))
	}
	t.Note("overhead-x vs the plain runtime over the same ARQ: the price of every rank and every send duplicated")
	t.Note("asserted in-run for R=2: replica-sends = (R-1)/R of all sends, zero dedup drops and chain resends")
	return t, nil
}
