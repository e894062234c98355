package workload

import (
	"fmt"
	"time"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/detector"
	"repro/internal/inject"
	"repro/internal/membership"
	"repro/internal/metrics"
	"repro/internal/mpi"
	"repro/internal/trace"
)

// E23 — recovery forensics. Every prior experiment measures recovery as
// one opaque number (kill -> done). This soak uses the causal trace to
// DECOMPOSE it: each seeded world runs with an in-memory recorder, the
// kill produces a trace incident, and trace.Recoveries splits the
// incident into detection (kill -> first suspicion), agreement/fence
// (suspicion -> confirmation), repair (confirmation -> resend past the
// corpse / respawn / standby promotion) and resume (repair -> first
// post-repair delivery). The sweep crosses all three repair strategies
// the runtime implements with all three failure detectors:
//
//	resend    — the paper's ABFT ring: survivors re-route around the corpse
//	respawn   — elastic worlds: the slot reincarnates at generation+1
//	promotion — replication: a hot standby takes over transparently
//
// Every run is also a conservation check: the audit must account for
// every send (delivered, chaos-dropped, deduplicated, purged or
// dead-dropped — anything else is a runtime bug), CheckCausal must find
// no HLC or token violation, and the kill must leave at least one
// reconstructable incident. Any violation fails the experiment.

// recoveryChaosRates is the network weather the forensics run under:
// lossy enough to exercise the ARQ (so the audit sees drops, dedups and
// purges, not just clean deliveries) without destabilizing the
// millisecond-scale detectors.
func recoveryChaosRates() chaos.Rates {
	return chaos.Rates{Drop: 0.03, Dup: 0.03, Corrupt: 0.01}
}

// recoveryTally accumulates per-phase durations over the seeds of one
// (repair, detector) cell.
type recoveryTally struct {
	seeds, incidents                     int
	detect, agree, repair, resume, total []time.Duration
}

func (t *recoveryTally) absorb(ins []*trace.Incident) {
	t.seeds++
	t.incidents += len(ins)
	for _, in := range ins {
		if in.HasSuspected {
			t.detect = append(t.detect, in.Detection)
		}
		if in.HasConfirmed {
			t.agree = append(t.agree, in.Agreement)
		}
		if in.HasRepair {
			t.repair = append(t.repair, in.RepairTime)
		}
		if in.HasResume {
			t.resume = append(t.resume, in.ResumeTime)
		}
		t.total = append(t.total, in.Total)
	}
}

// runRecoveryForensics is E23's entry point.
func runRecoveryForensics(opt Options) ([]*Table, error) {
	t := NewTable("E23: recovery forensics — trace-derived phase decomposition under chaos",
		"repair", "detector", "seeds", "incidents",
		"detect-p50", "agree-p50", "repair-p50", "resume-p50",
		"total-p50", "total-p95", "unaccounted")
	nSeeds := 20
	if opt.Quick {
		nSeeds = 2
	}
	repairs := []string{"resend", "respawn", "promotion"}
	detectors := []string{mpi.DetectorOracle, mpi.DetectorHeartbeat, mpi.DetectorSwim}
	for _, repair := range repairs {
		for _, det := range detectors {
			var tally recoveryTally
			for s := 0; s < nSeeds; s++ {
				seed := opt.Seed + int64(s)
				rec := trace.New(0)
				if err := runRecoveryWorld(opt, repair, det, seed, rec); err != nil {
					return nil, fmt.Errorf("e23 %s/%s seed %d: %w", repair, det, seed, err)
				}
				events := rec.Events()
				rep := trace.Audit(events)
				if !rep.Clean() {
					return nil, fmt.Errorf(
						"e23 %s/%s seed %d: conservation audit failed: %d unaccounted send(s), %d orphan delivery(ies)",
						repair, det, seed, len(rep.Unaccounted), len(rep.OrphanDelivers))
				}
				if v := trace.CheckCausal(events); len(v) > 0 {
					return nil, fmt.Errorf("e23 %s/%s seed %d: causal violation: %s",
						repair, det, seed, v[0])
				}
				incidents := trace.Recoveries(events)
				if len(incidents) == 0 {
					return nil, fmt.Errorf("e23 %s/%s seed %d: kill left no recovery incident in the trace",
						repair, det, seed)
				}
				tally.absorb(incidents)
				opt.Collector.AbsorbAudit(rep)
			}
			t.Add(repair, det, tally.seeds, tally.incidents,
				durQuantile(tally.detect, 0.50), durQuantile(tally.agree, 0.50),
				durQuantile(tally.repair, 0.50), durQuantile(tally.resume, 0.50),
				durQuantile(tally.total, 0.50), durQuantile(tally.total, 0.95), 0)
		}
	}
	t.Note("detect/agree are 0 under the oracle: deaths confirm instantly, the whole latency lands in repair+resume")
	t.Note("unaccounted is asserted zero in-run: any send the audit cannot reconcile fails the experiment")
	return []*Table{t}, nil
}

// runRecoveryWorld runs one seeded world of the given repair strategy
// under the given detector, recording its causal trace into rec.
func runRecoveryWorld(opt Options, repair, det string, seed int64, rec *trace.Recorder) error {
	// Thread the recorder and detector into the soak worlds; the
	// millisecond-scale monitor tunings keep detection latency visible
	// but small next to the 120s world deadlines.
	opt.Tracer = rec
	opt.Detector = det
	opt.Heartbeat = hbSoakOptions()
	opt.Swim = swimSoakOptions()
	switch repair {
	case "resend":
		return runResendRecovery(opt, seed, rec)
	case "respawn":
		// The elastic world respawns ANY confirmed-dead slot, so a false
		// suspicion (a reincarnation's first heartbeats delayed under CI
		// load) becomes respawn churn, not just a mislabeled row. Run
		// these cells' monitors with wide margins; the longer detection
		// phase lands honestly in the table.
		opt.Heartbeat = detector.HeartbeatOptions{
			Interval: 5 * time.Millisecond, Timeout: 150 * time.Millisecond,
			SelfFenceAfter: 10 * time.Second,
		}
		opt.Swim = membership.Options{
			Period: 40 * time.Millisecond, SelfFenceAfter: 10 * time.Second, Seed: 7,
		}
		_, err := runElasticWorld(opt, seed, nil, nil)
		return err
	case "promotion":
		cfg := replicaCfg{r: 2, mode: mpi.ReplFanout, kill: true,
			laps: replicaBaseLaps, chaos: true,
			waitRepair: det != mpi.DetectorOracle}
		_, err := runReplicaWorld(opt, cfg, seed, nil, nil)
		return err
	default:
		return fmt.Errorf("unknown repair strategy %q", repair)
	}
}

// runResendRecovery runs the paper's ABFT ring under chaos with a seeded
// mid-iteration kill: the survivors must recognize the failure, resend
// past the corpse, and revalidate — the trace captures every phase.
func runResendRecovery(opt Options, seed int64, rec *trace.Recorder) error {
	const n, iters = 4, 8
	victim := 1 + int(seed)%(n-1) // never rank 0
	plan := chaos.NewPlan(seed).Default(recoveryChaosRates())
	kill := inject.NewPlan().Add(inject.AfterNthRecv(victim, 2))
	mets := metrics.NewWorld(n)
	reg := opt.newObs(n)
	opt.Collector.Attach(mets, reg)
	mcfg := mpi.Config{
		Size: n, Deadline: 60 * time.Second, Metrics: mets, Chaos: plan,
		Obs: reg, Hook: kill.Hook(), Tracer: rec,
		Detector: opt.Detector, Heartbeat: opt.Heartbeat, Swim: opt.Swim,
	}
	_, res, err := core.Run(mcfg, core.Config{Iters: iters, Variant: core.VariantFull,
		Termination: core.TermValidateAll, RootPolicy: core.RootElect})
	opt.Collector.Absorb(mets, reg)
	if err != nil {
		return err
	}
	if res.TimedOut {
		return fmt.Errorf("ring timed out")
	}
	if !res.Ranks[victim].Killed {
		return fmt.Errorf("victim %d not killed", victim)
	}
	return nil
}
