package workload

import (
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/collective"
	"repro/internal/metrics"
	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/trace"
)

// E24 — the replication DURABILITY soak. E22 proved transparent failover
// for the easy kills: a replica dies at a lap boundary and the replica
// group absorbs it. This soak attacks the three durability gaps that survive
// E22:
//
//  1. A sender replica dying with messages its mirror never got. Replica i
//     of a sender sends only to replica i of the destination, and the two
//     replica planes run at their own pace, so when a sender replica dies
//     its sibling may already have sent messages the dead one never will.
//     The tail-ack protocol closes this: every replicated send is held in
//     the sender group's outboxes until all live destination replicas
//     confirm, and the promoted primary replays the unconfirmed entries to
//     the orphaned replica. E24 kills the primary victim right after a ring
//     send once its sibling is a lap ahead (the sender-in-flight
//     placement), so the replay has entries to replay on every such seed.
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

// durRun is the measured outcome of one seeded E24 world.
type durRun struct {
	*soakRun
	primVictim    int    // physical slot of the primary victim
	killPlacement string // "sender-in-flight" or "mid-collective"
	standbyVictim int    // physical slot of the standby victim
}

// runDurabilityWorld runs one seeded E24 world and checks the durability
// contract end to end, its causal trace included; its histograms land in
// reg.
func runDurabilityWorld(opt Options, seed int64, reg *obs.Registry) (*durRun, error) {
	opt.Tracer = trace.New(0)
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
	// Primary kill placement: even seeds kill the victim right after its
	// ring send of an early lap, once its sibling has sent the next lap:
	// the sibling's outbox then holds entries the victim's mirror never got
	// (the tail-ack gap). Odd seeds kill between a Bcast and the Allreduce
	// of a collective phase, so the promotion lands mid-collective for the
	// other ranks.
	// The sibling gets ahead in its own replica plane, which the standby
	// victim belongs to: the lap it waits for must come before that death.
	inFlightKill := seed%2 == 0
	inFlightKillLap := min(1, standbyKillLap-2)
	collKillLap := durCollEvery - 1 + (int(seed)%2)*durCollEvery // lap 2 or 5
	run.killPlacement = "mid-collective"
	if inFlightKill {
		run.killPlacement = "sender-in-flight"
	}
	// sent[p] is the number of ring laps physical slot p has sent.
	sent := make([]atomic.Int32, nphys)

	opts := []mpi.Option{mpi.WithReplication(mpi.ReplicationOptions{
		R: r, AutoRefill: true, RefillBackoff: time.Millisecond,
	})}
	// Both victims die; their refills are reported under Respawns.
	victims := []int{run.primVictim, run.standbyVictim}
	sw := soakWorld{size: lsize, slots: nphys, rates: repairRates, opts: opts, victims: victims, reg: reg}
	root := make(rootLaps, nphys)
	var watcherDone chan struct{}
	sw.body = func(w *mpi.World) func(*mpi.Proc) error {
		// Depletion watcher: once the automatic refill restores the primary
		// victim's slot at generation 2, kill it again — the world must refill
		// a second time. This runs outside any rank function (the app makes
		// zero Spawn/Kill calls).
		watcherDone = make(chan struct{})
		go func() {
			defer close(watcherDone)
			for end := time.Now().Add(60 * time.Second); time.Now().Before(end); time.Sleep(2 * time.Millisecond) {
				if w.Registry().Generation(run.primVictim) == 2 {
					w.Kill(run.primVictim)
					return
				}
			}
		}()

		return func(p *mpi.Proc) error {
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
				sent[phys].Add(1)
				if me == 0 {
					root[phys] = append(root[phys], got)
				}
				if inFlightKill && phys == run.primVictim && lap == inFlightKillLap {
					// The replica planes run independently, so the sibling gets
					// one lap ahead while the victim waits here.
					sibling := phys + lsize
					for end := time.Now().Add(10 * time.Second); sent[sibling].Load() <= int32(lap+1) && time.Now().Before(end); {
						time.Sleep(100 * time.Microsecond)
					}
					p.Die()
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
					if !inFlightKill && phys == run.primVictim && lap == collKillLap {
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
			return waitHealed(w, r, map[int]int{run.primVictim: 3, run.standbyVictim: 2})
		}
	}
	var err error
	run.soakRun, err = opt.runWorld(seed, sw)
	if watcherDone != nil {
		<-watcherDone
	}
	if err == nil {
		// Exactly-once per replica of logical rank 0, after zero app-visible
		// failures on every other replica (the verdict).
		err = root.exactlyOnce(durLaps, lsize, victims)
	}
	if err != nil {
		return nil, err
	}

	total := run.mets.Total

	// The primary kill promotes exactly one standby; the standby kill and
	// the depletion kill (a parked gen-2 standby) promote nobody.
	if p := total(metrics.ReplicaPromotions); p != 1 {
		return nil, fmt.Errorf("%d promotions, want 1", p)
	}
	// Three automatic refills: primary victim gen 1->2 and 2->3, standby
	// victim gen 1->2 — all world-driven, the app never calls Spawn.
	if rf := total(metrics.ReplicaRefills); rf != 3 {
		return nil, fmt.Errorf("%d replica refills, want 3", rf)
	}
	if len(run.Respawns) != 3 {
		return nil, fmt.Errorf("%d respawns recorded, want 3: %+v", len(run.Respawns), run.Respawns)
	}
	// Zero app-level recovery protocol, as in E22.
	if v, rs := total(metrics.Validates), total(metrics.Resends); v != 0 || rs != 0 {
		return nil, fmt.Errorf("app-level recovery ran (validates=%d resends=%d)", v, rs)
	}
	if total(metrics.ChainAcks) == 0 {
		return nil, fmt.Errorf("no chain acks: no replica confirmed receipt")
	}
	if inFlightKill && total(metrics.ChainResends) == 0 {
		return nil, fmt.Errorf("sender-in-flight kill produced no chain resend: the outbox replay did not run")
	}
	if _, err := auditTrace(opt, opt.Tracer); err != nil {
		return nil, err
	}
	return run, nil
}

// runDurabilitySoak is E24: twenty seeds (four in quick mode), each a
// full durability gauntlet with an in-run conservation audit, followed by
// the re-replication latency quantiles.
func runDurabilitySoak(opt Options) ([]*Table, error) {
	t := NewTable("E24: durability soak — tail-acked mirror pairs, auto re-replication, replicated collectives",
		"seed", "prim-victim", "kill-placement", "standby-victim", "laps",
		"promotions", "refills", "chain-resends", "chain-acks", "elapsed")
	opt.Detector = mpi.DetectorOracle // durability, not detection: E23 runs promotion under the monitors
	lat := latTally{}
	err := opt.eachSeed(4, func(seed int64) error {
		reg := obs.NewRegistry(durRingRanks * durR)
		run, err := runDurabilityWorld(opt, seed, reg)
		if err != nil {
			return fmt.Errorf("e24 seed %d: %w", seed, err)
		}
		lat.merge(reg)
		total := run.mets.Total
		t.Add(seed, run.primVictim, run.killPlacement, run.standbyVictim, durLaps,
			total(metrics.ReplicaPromotions), total(metrics.ReplicaRefills),
			total(metrics.ChainResends), total(metrics.ChainAcks), run.Elapsed)
		return nil
	})
	if err != nil {
		return nil, err
	}
	t.Note("asserted in-run per seed: every lap exactly-once, conservation audit unaccounted=0, causality clean,")
	t.Note("promotions=1, refills=3 (primary victim heals twice, standby victim once) with ZERO app Spawn calls,")
	t.Note("every replica group back at degree R by the epilogue, validates=resends=0")
	t.Note("sender-in-flight kills (even seeds) additionally assert chain-resends>0: the tail-ack outbox replayed")

	tLat := lat.table("E24b: durability latency quantiles (merged over seeds)",
		obs.RereplicationLatency, obs.ReplicaPromotion, obs.RecoveryTotal)
	tLat.Note("rereplication_latency = detector confirm of the lost replica to the automatic Spawn restoring the slot")
	return []*Table{t, tLat}, nil
}
