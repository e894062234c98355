package mpi

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/membership"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/transport"
)

// swimFast is the SWIM tuning used across these tests: tight enough to
// detect within tens of milliseconds, with a self-fence horizon far
// enough out that tests controlling the death stay deterministic.
func swimFast() membership.Options {
	return membership.Options{
		Period:         4 * time.Millisecond,
		SelfFenceAfter: 2 * time.Second,
		Seed:           1,
	}
}

// awaitRankFailed polls RankState until the failure notification lands.
func awaitRankFailed(c *Comm, rank int) error {
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		info, err := c.RankState(rank)
		if err != nil {
			return err
		}
		if info.State == RankFailed {
			return nil
		}
		time.Sleep(time.Millisecond)
	}
	return fmt.Errorf("rank %d failure never surfaced", rank)
}

// TestSwimDetectsInjectedKill is the swim-mode smoke test: survivors
// learn of an injected kill only through missed probes, fencing, and
// confirmation — and the full metrics/obs pipeline lights up.
func TestSwimDetectsInjectedKill(t *testing.T) {
	const n = 5
	m := metrics.NewWorld(n)
	o := obs.NewRegistry(n)
	w, err := NewWorld(n, WithSwim(swimFast()), WithMetrics(m),
		WithObservability(o), WithDeadline(60*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	res, err := w.Run(func(p *Proc) error {
		c := p.World()
		c.SetErrhandler(ErrorsReturn)
		if p.Rank() == 3 {
			p.Die()
		}
		return awaitRankFailed(c, 3)
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Ranks[3].Killed {
		t.Fatal("rank 3 did not die")
	}
	for _, rank := range []int{0, 1, 2, 4} {
		if res.Ranks[rank].Err != nil {
			t.Fatalf("rank %d: %v", rank, res.Ranks[rank].Err)
		}
	}
	if m.Total(metrics.SwimProbes) == 0 {
		t.Fatal("no probes counted")
	}
	if m.Total(metrics.ControlFrames) == 0 {
		t.Fatal("no control frames counted")
	}
	if m.Total(metrics.Suspicions) == 0 || m.Total(metrics.Confirms) == 0 {
		t.Fatalf("detection pipeline incomplete: suspicions=%d confirms=%d",
			m.Total(metrics.Suspicions), m.Total(metrics.Confirms))
	}
	if m.Total(metrics.FalseSuspicions) != 0 {
		t.Fatalf("%d false suspicions on a quiet fabric", m.Total(metrics.FalseSuspicions))
	}
	if o.Merged(obs.SwimProbeRTT).Count == 0 {
		t.Fatal("probe RTT never observed")
	}
	if o.Merged(obs.SuspicionLatency).Count == 0 {
		t.Fatal("suspicion latency never observed")
	}
	if o.Merged(obs.FenceRTT).Count == 0 {
		t.Fatal("fence RTT (suspicion-to-confirmation) never observed")
	}
	if m.Total(metrics.GossipEvents) == 0 {
		t.Fatal("confirm was never gossiped")
	}
}

// TestHeartbeatDetectsInjectedKill is the smoke test in the smallest
// world with an indirect prober: survivors learn of an injected kill only
// through unanswered probes (SWIM's heartbeat), fencing and confirmation,
// and the detection latency lands in the suspicion_latency histogram.
func TestHeartbeatDetectsInjectedKill(t *testing.T) {
	const n = 3
	m := metrics.NewWorld(n)
	o := obs.NewRegistry(n)
	w, err := NewWorld(n, WithSwim(swimFast()), WithMetrics(m),
		WithObservability(o), WithDeadline(60*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	res, err := w.Run(func(p *Proc) error {
		c := p.World()
		c.SetErrhandler(ErrorsReturn)
		if p.Rank() == 2 {
			p.Die()
		}
		return awaitRankFailed(c, 2)
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Ranks[2].Killed {
		t.Fatal("rank 2 did not die")
	}
	for _, rank := range []int{0, 1} {
		if res.Ranks[rank].Err != nil {
			t.Fatalf("rank %d: %v", rank, res.Ranks[rank].Err)
		}
	}
	if m.Total(metrics.SwimProbes) == 0 {
		t.Fatal("no probes counted")
	}
	if m.Total(metrics.Suspicions) == 0 || m.Total(metrics.Confirms) == 0 {
		t.Fatalf("detection pipeline incomplete: suspicions=%d confirms=%d",
			m.Total(metrics.Suspicions), m.Total(metrics.Confirms))
	}
	if m.Total(metrics.FalseSuspicions) != 0 {
		t.Fatalf("%d false suspicions on a quiet fabric", m.Total(metrics.FalseSuspicions))
	}
	if o.Merged(obs.SuspicionLatency).Count == 0 {
		t.Fatal("suspicion latency never observed")
	}
	if o.Merged(obs.FenceRTT).Count == 0 {
		t.Fatal("fence RTT (suspicion-to-confirmation) never observed")
	}
}

// TestSwimGossipConvergenceObserved: with enough ranks, the confirm of a
// death must reach ranks that did not fence it through gossip alone, and
// each first learn lands one sample in the gossip_convergence histogram.
func TestSwimGossipConvergenceObserved(t *testing.T) {
	const n = 8
	m := metrics.NewWorld(n)
	o := obs.NewRegistry(n)
	w, err := NewWorld(n, WithSwim(swimFast()), WithMetrics(m),
		WithObservability(o), WithDeadline(60*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	res, err := w.Run(func(p *Proc) error {
		c := p.World()
		c.SetErrhandler(ErrorsReturn)
		if p.Rank() == 5 {
			p.Die()
		}
		if err := awaitRankFailed(c, 5); err != nil {
			return err
		}
		// Give gossip a few periods to fan the confirm out everywhere.
		time.Sleep(100 * time.Millisecond)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for rank := 0; rank < n; rank++ {
		if rank == 5 {
			continue
		}
		if res.Ranks[rank].Err != nil {
			t.Fatalf("rank %d: %v", rank, res.Ranks[rank].Err)
		}
	}
	if m.Total(metrics.GossipLearns) == 0 {
		t.Fatal("no rank learned the confirm through gossip")
	}
	if o.Merged(obs.GossipConvergence).Count == 0 {
		t.Fatal("gossip convergence latency never observed")
	}
	if m.Total(metrics.GossipDecodeErrors) != 0 {
		t.Fatalf("%d gossip decode errors on a clean fabric", m.Total(metrics.GossipDecodeErrors))
	}
}

// TestSwimConvergenceTrackedOnlyWithObs: the convergence tracker keeps
// one entry per (event, learner) for the life of the world, and only the
// obs registry reads its samples, so a world without one builds none.
func TestSwimConvergenceTrackedOnlyWithObs(t *testing.T) {
	w, err := NewWorld(4, WithSwim(swimFast()))
	if err != nil {
		t.Fatal(err)
	}
	if w.swim.conv != nil {
		t.Fatal("a SWIM world without obs built a convergence tracker")
	}
	w, err = NewWorld(4, WithSwim(swimFast()), WithObservability(obs.NewRegistry(4)))
	if err != nil {
		t.Fatal(err)
	}
	if w.swim.conv == nil {
		t.Fatal("a SWIM world with obs has no convergence tracker")
	}
}

// TestSwimValidateAllWithTreeAgreement runs the full PR stack end to
// end: SWIM membership below, tree agreement above, one injected death.
func TestSwimValidateAllWithTreeAgreement(t *testing.T) {
	const n = 8
	m := metrics.NewWorld(n)
	w, err := NewWorld(n, WithSwim(swimFast()), WithAgreement(AgreementTree),
		WithMetrics(m), WithDeadline(60*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, n)
	res, err := w.Run(func(p *Proc) error {
		c := p.World()
		c.SetErrhandler(ErrorsReturn)
		if p.Rank() == 2 {
			p.Die()
		}
		if err := awaitRankFailed(c, 2); err != nil {
			return err
		}
		cnt, err := c.ValidateAll()
		if err != nil {
			return err
		}
		counts[p.Rank()] = cnt
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.TimedOut {
		t.Fatalf("validate_all wedged; stuck ranks %v", res.Stuck)
	}
	for rank := 0; rank < n; rank++ {
		if rank == 2 {
			continue
		}
		if res.Ranks[rank].Err != nil {
			t.Fatalf("rank %d: %v", rank, res.Ranks[rank].Err)
		}
		if counts[rank] != 1 {
			t.Fatalf("rank %d agreed on %d failures, want 1: %v", rank, counts[rank], counts)
		}
	}
}

// isolate cuts every link into and out of rank from frame 1 onward.
func isolate(plan *chaos.Plan, rank int) *chaos.Plan {
	return plan.Partition(rank, -1, 1, ^uint64(0)).Partition(-1, rank, 1, ^uint64(0))
}

// TestSwimValidateAllSurvivesSuspectFenceGapDeath: rank 2 enters
// validate_all fully partitioned, is suspected (a FALSE suspicion — it is
// alive), and then dies in the window between suspicion and fence-ack
// (the fence can never reach it). The fencers must converge via ground
// truth, the collective must complete, and no healthy rank may be
// reported failed.
func TestSwimValidateAllSurvivesSuspectFenceGapDeath(t *testing.T) {
	const n = 4
	plan := isolate(chaos.NewPlan(42), 2)
	w, err := NewWorld(n, WithChaos(plan), WithSwim(swimFast()), WithDeadline(60*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, n)
	res, err := w.Run(func(p *Proc) error {
		c := p.World()
		c.SetErrhandler(ErrorsReturn)
		if p.Rank() == 2 {
			// Enter the collective, outlive the suspicion deadline, then
			// die before any fence (or ack) can cross the partition.
			c.IvalidateAll()
			time.Sleep(60 * time.Millisecond)
			p.Die()
		}
		cnt, err := c.ValidateAll()
		if err != nil {
			return err
		}
		counts[p.Rank()] = cnt
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.TimedOut {
		t.Fatalf("validate_all wedged; stuck ranks %v", res.Stuck)
	}
	if !res.Ranks[2].Killed {
		t.Fatal("rank 2 did not die")
	}
	for _, rank := range []int{0, 1, 3} {
		if res.Ranks[rank].Err != nil {
			t.Fatalf("rank %d: %v", rank, res.Ranks[rank].Err)
		}
		if counts[rank] != 1 {
			t.Fatalf("rank %d agreed on %d failed, want 1 (rank 2): %v", rank, counts[rank], counts)
		}
	}
	// Exactly the partitioned rank died: nobody fenced a healthy survivor.
	if failed := w.registry.Snapshot(); len(failed) != 1 || failed[0] != 2 {
		t.Fatalf("failed set %v, want [2]", failed)
	}
}

// controlAudit is a Local fabric that checks every marked control frame
// it delivers went back to the packet pool by the time delivery returned:
// PutPacket clears a packet, so one that still holds its header was kept.
// A released packet may be reused at once by another goroutine, which
// the race detector would report against the check's read, so the check
// runs only without it.
type controlAudit struct {
	*transport.Local
	marked, kept atomic.Int64
}

func (a *controlAudit) Start(deliver transport.DeliverFunc) error {
	return a.Local.Start(func(dst int, pkt *transport.Packet) {
		if raceEnabled || pkt.Kind != transport.KindControl || !pkt.Pooled() {
			deliver(dst, pkt)
			return
		}
		src, seq := pkt.Src, pkt.Seq
		deliver(dst, pkt)
		a.marked.Add(1)
		if pkt.Kind == transport.KindControl && pkt.Src == src && pkt.Seq == seq {
			a.kept.Add(1)
		}
	})
}

// TestSwimFencesPartitionedRank: rank 2 is healthy by its own lights but
// partitioned, so its peers' suspicion is false. The detector must kill
// it before reporting it failed, keeping the fail-stop contract intact.
// Cut one way (its outbound), the fence gets in and kills it; cut both
// ways, no fence can reach it and its own unacknowledged probes make it
// fence itself. Either way the survivors then confirm from ground truth.
// Every control frame crosses the reliability layer and chaos as a pooled
// copy, which the receiving engine hands back once its monitor has
// decoded it (controlAudit).
func TestSwimFencesPartitionedRank(t *testing.T) {
	for _, tc := range []struct {
		name       string
		plan       *chaos.Plan
		selfFences int64
	}{
		{"one-way", chaos.NewPlan(11).Partition(2, -1, 1, ^uint64(0)), 0},
		{"isolated", isolate(chaos.NewPlan(7), 2), 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const n = 3
			opts := swimFast()
			if tc.selfFences > 0 {
				opts.SelfFenceAfter = 120 * time.Millisecond
			}
			m := metrics.NewWorld(n)
			audit := &controlAudit{Local: transport.NewLocal()}
			w, err := NewWorld(n, WithFabric(audit), WithChaos(tc.plan), WithSwim(opts),
				WithMetrics(m), WithDeadline(60*time.Second))
			if err != nil {
				t.Fatal(err)
			}
			res, err := w.Run(func(p *Proc) error {
				c := p.World()
				c.SetErrhandler(ErrorsReturn)
				if p.Rank() == 2 {
					// Loop until fenced: RankState's liveness check unwinds
					// the goroutine.
					for {
						if _, err := c.RankState(0); err != nil {
							return err
						}
						time.Sleep(time.Millisecond)
					}
				}
				return awaitRankFailed(c, 2)
			})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Ranks[2].Killed {
				t.Fatal("rank 2 was reported failed without being fenced")
			}
			for _, rank := range []int{0, 1} {
				if res.Ranks[rank].Err != nil {
					t.Fatalf("rank %d: %v", rank, res.Ranks[rank].Err)
				}
			}
			if failed := w.registry.Snapshot(); len(failed) != 1 || failed[0] != 2 {
				t.Fatalf("failed set %v, want [2]", failed)
			}
			if got := m.Total(metrics.SelfFences); got != tc.selfFences {
				t.Fatalf("self-fences %d, want %d", got, tc.selfFences)
			}
			if m.Total(metrics.FalseSuspicions) == 0 {
				t.Fatal("suspecting a healthy rank must count as a false suspicion")
			}
			if m.Total(metrics.Fences) == 0 || m.Total(metrics.Confirms) == 0 {
				t.Fatalf("fence pipeline incomplete: fences=%d confirms=%d",
					m.Total(metrics.Fences), m.Total(metrics.Confirms))
			}
			if kept := audit.kept.Load(); kept != 0 {
				t.Fatalf("%d of %d pooled control frames never went back to the pool", kept, audit.marked.Load())
			}
			if !raceEnabled && audit.marked.Load() == 0 {
				t.Fatal("no pooled control frame reached the base fabric")
			}
		})
	}
}

// TestDetectorModeValidation: unknown detector and agreement names —
// the retired "heartbeat" mode among them — must be rejected at
// construction, and the error must name the valid modes.
func TestDetectorModeValidation(t *testing.T) {
	for _, mode := range []string{"telepathy", "heartbeat"} {
		_, err := NewWorld(2, WithDetector(mode))
		if !errors.Is(err, ErrInvalidArg) {
			t.Fatalf("detector mode %q: err %v, want ErrInvalidArg", mode, err)
		}
		for _, valid := range []string{DetectorOracle, DetectorSwim} {
			if !strings.Contains(err.Error(), valid) {
				t.Fatalf("detector mode %q: error %q does not name %q", mode, err, valid)
			}
		}
	}
	for _, mode := range []string{"", DetectorOracle, DetectorSwim} {
		if _, err := NewWorld(2, WithDetector(mode)); err != nil {
			t.Fatalf("mode %q rejected: %v", mode, err)
		}
	}
	if _, err := NewWorld(2, WithAgreement("gossip-only")); err == nil {
		t.Fatal("bogus agreement mode accepted")
	}
	for _, mode := range []string{"", AgreementCoordinator, AgreementTree} {
		if _, err := NewWorld(2, WithAgreement(mode)); err != nil {
			t.Fatalf("agreement mode %q rejected: %v", mode, err)
		}
	}
}
