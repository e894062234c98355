package workload

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/chaos"
	"repro/internal/collective"
	"repro/internal/metrics"
	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/trace"
)

// E24 — the replication DURABILITY soak. E22 proved transparent failover
// for the easy kills: a replica dies at a lap boundary and the fan-out
// absorbs it. This soak attacks the three durability gaps that survive
// E22:
//
//  1. The chain forward window. In ReplChain mode the primary relays each
//     accepted frame to its standbys; killing it between acceptance and
//     relay used to lose a frame the SENDER believed delivered (its ARQ
//     saw the link-level ack). The tail-ack protocol closes this: the
//     sender holds every chain send in an outbox until all live group
//     members confirm, and a promotion replays the unconfirmed entries.
//     E24 seeds kills INSIDE the window via the deterministic
//     HookChainForward placement.
//  2. Collectives over replica groups. A primary dies while every other
//     participant is inside a Bcast/Allreduce; the promotion must happen
//     below the collective layer with no aborted op.
//  3. Replica-group depletion. Every kill permanently lowered the failure
//     budget. With AutoRefill the world respawns the lost member itself;
//     E24 drives a full depletion cycle — kill the primary, wait for the
//     automatic refill, kill the REFILL too — and requires every group
//     back at degree R by the epilogue, with zero app-level Spawn calls.
//
// Each seeded world also records a causal trace and must pass the
// conservation audit (every send delivered, dropped, deduplicated, purged
// or dead-dropped — unaccounted=0) and the HLC/token causality check, so
// the tail-ack replay path is held to the same forensic standard as
// normal traffic.
const (
	durRingRanks = 3 // logical ring size
	durR         = 2 // replicas per logical rank
	durLaps      = 18
	durCollEvery = 3 // collective phase every N laps
	durTagTok    = 2
)

// durRates is the E22 network weather: lossy enough to exercise the ARQ
// under the chain-ack traffic without destabilizing the run.
func durRates() chaos.Rates {
	return chaos.Rates{Drop: 0.05, Dup: 0.05, Corrupt: 0.01}
}

// durRun is the measured outcome of one seeded E24 world.
type durRun struct {
	primVictim    int    // physical slot of the primary victim
	killPlacement string // "forward-window" or "mid-collective"
	standbyVictim int    // physical slot of the standby victim
	laps          int
	promotions    int64
	refills       int64
	chainResends  int64
	chainAcks     int64
	elapsed       time.Duration
}

// runDurabilityWorld runs one seeded E24 world in the given replication
// mode and checks the durability contract end to end.
func runDurabilityWorld(opt Options, mode string, seed int64, rec *trace.Recorder, reg *obs.Registry) (*durRun, error) {
	lsize, r := durRingRanks, durR
	nphys := lsize * r
	run := &durRun{}

	// Seed-derived kill schedule. The primary victim's group takes the
	// full depletion cycle (primary kill -> auto refill -> kill the refill
	// -> second refill); the standby victim belongs to a DIFFERENT group
	// so two groups heal concurrently.
	run.primVictim = int(seed) % lsize // primary of logical l is phys l
	run.standbyVictim = lsize + (run.primVictim+1)%lsize
	standbyKillLap := 2 + int(seed)%6
	// Primary kill placement: in chain mode, even seeds kill inside the
	// forward window (the tail-ack gap); odd seeds — and all fan-out
	// seeds — kill between a Bcast and the Allreduce of a collective
	// phase, so the promotion lands mid-collective for the other ranks.
	forwardWindowKill := mode == mpi.ReplChain && seed%2 == 0
	forwardKillOrdinal := int32(2 + seed%4)
	collKillLap := durCollEvery - 1 + (int(seed)%2)*durCollEvery // lap 2 or 5
	run.killPlacement = "mid-collective"
	if forwardWindowKill {
		run.killPlacement = "forward-window"
	}

	mets := metrics.NewWorld(nphys)
	if reg == nil {
		reg = obs.NewRegistry(nphys)
	}
	opt.Collector.Attach(mets, reg)
	var fired atomic.Int32
	var forwards atomic.Int32
	wopts := []mpi.Option{
		mpi.WithMetrics(mets),
		mpi.WithObservability(reg),
		mpi.WithDeadline(120 * time.Second),
		mpi.WithReplication(mpi.ReplicationOptions{
			R: r, Mode: mode, AutoRefill: true, RefillBackoff: time.Millisecond,
		}),
		mpi.WithChaos(chaos.NewPlan(seed).Default(durRates())),
	}
	if rec != nil {
		wopts = append(wopts, mpi.WithTracer(rec))
	}
	if forwardWindowKill {
		wopts = append(wopts, mpi.WithHook(func(ev mpi.HookEvent) mpi.Action {
			// Fell the primary of the victim logical rank immediately
			// before its Nth standby forward — the frame is accepted but
			// not yet relayed. Fire once: the promoted standby (and any
			// refill) shares the logical rank.
			if ev.Point == mpi.HookChainForward && ev.Rank == run.primVictim {
				if forwards.Add(1) == forwardKillOrdinal && fired.Add(1) == 1 {
					return mpi.ActKill
				}
			}
			return mpi.ActNone
		}))
	}
	w, err := mpi.NewWorld(lsize, wopts...)
	if err != nil {
		return nil, err
	}

	// Depletion watcher: once the automatic refill restores the primary
	// victim's slot at generation 2, kill it again — the world must refill
	// a second time. This runs outside any rank function (the app makes
	// zero Spawn/Kill calls).
	watcherDone := make(chan struct{})
	go func() {
		defer close(watcherDone)
		for end := time.Now().Add(60 * time.Second); time.Now().Before(end); time.Sleep(2 * time.Millisecond) {
			if w.Registry().Generation(run.primVictim) == 2 {
				w.Kill(run.primVictim)
				return
			}
		}
	}()

	var mu sync.Mutex
	rootLaps := map[int][]int64{}

	res, err := w.Run(func(p *mpi.Proc) error {
		c := p.World()
		c.SetErrhandler(mpi.ErrorsReturn)
		if p.Gen() > 1 {
			// Automatic refills join as warm standbys: they cannot replay
			// the message history their siblings already consumed, so they
			// hold the slot and restore the failure budget.
			return nil
		}
		me, L, phys := p.Rank(), p.Size(), p.PhysRank()

		buf := make([]byte, 8)
		for lap := 0; lap < durLaps; lap++ {
			if phys == run.standbyVictim && lap == standbyKillLap {
				p.Die()
			}
			// Ring phase: the fault-unaware token pass.
			got, err := ringLap(c, durTagTok, lap, buf)
			if err != nil {
				return err
			}
			if me == 0 {
				mu.Lock()
				rootLaps[phys] = append(rootLaps[phys], got)
				mu.Unlock()
			}
			// Collective phase every durCollEvery laps: Bcast + Allreduce
			// over the replica groups.
			if lap%durCollEvery == durCollEvery-1 {
				want := []byte(fmt.Sprintf("coll-%d", lap))
				var in []byte
				if me == 0 {
					in = want
				}
				got, berr := collective.Bcast(c, 0, in)
				if berr != nil {
					return fmt.Errorf("lap %d Bcast: %w", lap, berr)
				}
				if string(got) != string(want) {
					return fmt.Errorf("lap %d Bcast got %q, want %q", lap, got, want)
				}
				if !forwardWindowKill && phys == run.primVictim && lap == collKillLap {
					p.Die() // others are entering the Allreduce: mid-collective promotion
				}
				sum, aerr := collective.Allreduce(c,
					collective.EncodeInt64s([]int64{int64(me)}), collective.SumInt64)
				if aerr != nil {
					return fmt.Errorf("lap %d Allreduce: %w", lap, aerr)
				}
				vals, derr := collective.DecodeInt64s(sum)
				if derr != nil {
					return derr
				}
				if len(vals) != 1 || vals[0] != int64(L*(L-1)/2) {
					return fmt.Errorf("lap %d Allreduce got %v, want [%d]", lap, vals, L*(L-1)/2)
				}
			}
		}

		// Epilogue: every gen-1 survivor waits for the world to heal every
		// replica group back to full degree — the primary victim's slot
		// through TWO refill generations, the standby victim's through one.
		for end := time.Now().Add(60 * time.Second); ; time.Sleep(2 * time.Millisecond) {
			healed := w.Registry().Generation(run.primVictim) >= 3 &&
				w.Registry().Generation(run.standbyVictim) >= 2
			for l := 0; healed && l < L; l++ {
				healed = len(w.LiveReplicas(l)) == r
			}
			if healed {
				return nil
			}
			if !time.Now().Before(end) {
				gens := []int{w.Registry().Generation(run.primVictim), w.Registry().Generation(run.standbyVictim)}
				return fmt.Errorf("phys %d: groups not healed to R=%d (victim gens %v)", phys, r, gens)
			}
		}
	})
	if err != nil {
		return nil, err
	}
	<-watcherDone
	if res.TimedOut {
		return nil, fmt.Errorf("wedged, stuck ranks %v", res.Stuck)
	}

	victims := map[int]bool{run.primVictim: true, run.standbyVictim: true}
	for rank, rr := range res.Ranks {
		if victims[rank] {
			continue // killed, or their parked refills
		}
		if rr.Err != nil {
			return nil, fmt.Errorf("phys %d saw the failure: %w", rank, rr.Err)
		}
		if !rr.Finished {
			return nil, fmt.Errorf("phys %d did not finish", rank)
		}
	}

	// Exactly-once per replica of logical rank 0: laps 0,1,2,... in order;
	// a victim's own record is a clean prefix (it died between laps or
	// inside a collective, never mid-duplicate).
	full := 0
	for phys, laps := range rootLaps {
		for i, lap := range laps {
			if lap != int64(i) {
				return nil, fmt.Errorf("root replica %d arrival %d carried lap %d — not exactly-once: %v",
					phys, i, lap, laps)
			}
		}
		if victims[phys] {
			continue
		}
		if len(laps) != durLaps {
			return nil, fmt.Errorf("root replica %d recorded %d laps, want %d", phys, len(laps), durLaps)
		}
		full++
	}
	wantFull := r
	for v := range victims {
		if v%lsize == 0 {
			wantFull--
		}
	}
	if full != wantFull {
		return nil, fmt.Errorf("%d complete root records, want %d", full, wantFull)
	}

	run.laps = durLaps
	run.promotions = mets.Total(metrics.ReplicaPromotions)
	run.refills = mets.Total(metrics.ReplicaRefills)
	run.chainResends = mets.Total(metrics.ChainResends)
	run.chainAcks = mets.Total(metrics.ChainAcks)
	run.elapsed = res.Elapsed

	// The primary kill promotes exactly one standby; the standby kill and
	// the depletion kill (a parked gen-2 standby) promote nobody.
	if run.promotions != 1 {
		return nil, fmt.Errorf("%d promotions, want 1", run.promotions)
	}
	// Three automatic refills: primary victim gen 1->2 and 2->3, standby
	// victim gen 1->2 — all world-driven, the app never calls Spawn.
	if run.refills != 3 {
		return nil, fmt.Errorf("%d replica refills, want 3", run.refills)
	}
	if len(res.Respawns) != 3 {
		return nil, fmt.Errorf("%d respawns recorded, want 3: %+v", len(res.Respawns), res.Respawns)
	}
	// Zero app-level recovery protocol, as in E22.
	if v, rs := mets.Total(metrics.Validates), mets.Total(metrics.Resends); v != 0 || rs != 0 {
		return nil, fmt.Errorf("app-level recovery ran (validates=%d resends=%d)", v, rs)
	}
	if mode == mpi.ReplChain {
		if run.chainAcks == 0 {
			return nil, fmt.Errorf("chain mode sent no chain acks")
		}
		if forwardWindowKill && run.chainResends == 0 {
			return nil, fmt.Errorf("forward-window kill produced no chain resend: the outbox replay did not run")
		}
	}
	opt.Collector.Absorb(mets, reg)
	return run, nil
}

// runDurabilitySoak is E24: twenty seeds (four in quick mode) per
// replication mode, each a full durability gauntlet with an in-run
// conservation audit, followed by the re-replication latency quantiles.
func runDurabilitySoak(opt Options) ([]*Table, error) {
	t := NewTable("E24: durability soak — tail-acked chain, auto re-replication, replicated collectives",
		"mode", "seed", "prim-victim", "kill-placement", "standby-victim", "laps",
		"promotions", "refills", "chain-resends", "chain-acks", "elapsed")
	seeds := 20
	if opt.Quick {
		seeds = 4
	}
	lat := latTally{}
	for _, mode := range []string{mpi.ReplFanout, mpi.ReplChain} {
		for s := 0; s < seeds; s++ {
			seed := opt.Seed + int64(s)
			rec := trace.New(0)
			reg := obs.NewRegistry(durRingRanks * durR)
			run, err := runDurabilityWorld(opt, mode, seed, rec, reg)
			if err != nil {
				return nil, fmt.Errorf("e24 %s seed %d: %w", mode, seed, err)
			}
			if _, err := auditTrace(opt, rec); err != nil {
				return nil, fmt.Errorf("e24 %s seed %d: %w", mode, seed, err)
			}
			lat.merge(reg)
			t.Add(mode, seed, run.primVictim, run.killPlacement, run.standbyVictim,
				run.laps, run.promotions, run.refills, run.chainResends, run.chainAcks,
				run.elapsed)
		}
	}
	t.Note("asserted in-run per seed: every lap exactly-once, conservation audit unaccounted=0, causality clean,")
	t.Note("promotions=1, refills=3 (primary victim heals twice, standby victim once) with ZERO app Spawn calls,")
	t.Note("every replica group back at degree R by the epilogue, validates=resends=0")
	t.Note("forward-window kills (chain, even seeds) additionally assert chain-resends>0: the tail-ack outbox replayed")

	tLat := lat.table("E24b: durability latency quantiles (merged over seeds, both modes)",
		obs.RereplicationLatency, obs.ReplicaPromotion, obs.RecoveryTotal)
	tLat.Note("rereplication_latency = detector confirm of the lost replica to the automatic Spawn restoring the slot")
	return []*Table{t, tLat}, nil
}
