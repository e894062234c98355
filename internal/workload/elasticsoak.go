package workload

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/chaos"
	"repro/internal/metrics"
	"repro/internal/mpi"
	"repro/internal/obs"
)

// ElasticDemoRanks is the fixed world size of the elastic ring protocol;
// cmd/ftring sizes its metrics recorder to it for the -elastic demo.
const ElasticDemoRanks = elasticRingRanks

// RunElasticDemo runs one seeded elastic repair world (the E21 protocol)
// over the caller's metrics recorder and histogram registry — both sized
// to ElasticDemoRanks — and returns the one-row result table. This is the
// entry point behind cmd/ftring's -elastic mode, so a live -obs endpoint
// scrapes the respawn/shrink/stale-generation counters of the world as it
// repairs itself.
func RunElasticDemo(seed int64, mets *metrics.World, reg *obs.Registry) (*Table, error) {
	t := NewTable("elastic repair demo — kill, respawn, exactly-once resumption under chaos",
		"seed", "victim", "kill-lap", "laps", "resends", "recovered-lap",
		"stale-rejected", "shrinks", "elapsed")
	r, err := runElasticWorld(Options{}, seed, mets, reg)
	if err != nil {
		return nil, err
	}
	t.Add(seed, r.victim, r.killLap, len(r.laps), r.resends, r.fetched,
		r.staleRejected, r.shrinks, r.elapsed)
	return t, nil
}

// E21 — the elastic-worlds soak. One token circulates a ring of
// elasticRingRanks ranks; a seeded victim dies HOLDING the token (the
// worst case: the message is lost with the process). The run must then
// demonstrate the full elastic repair chain:
//
//	kill -> failure notification -> left neighbor resends past the corpse
//	-> AutoRespawn reincarnates the slot at generation 2 -> the newcomer
//	recovers its position from a neighbor's state provider -> the ring
//	resumes at full size, exactly once per lap.
//
// Exactly-once is asserted structurally: rank 0 records every token
// arrival and the lap sequence must be 0,1,2,... with no gap and no
// duplicate, under seeded chaos (drops, duplicates, corruption) the
// reliability sublayer runs through. The final verification laps must
// carry a hop count proving every slot — including the reincarnation —
// forwarded them.
const (
	elasticRingRanks = 8
	// elasticBaseLaps is how many laps the token makes while the failure
	// and repair play out; the kill lap is always well inside this.
	elasticBaseLaps = 16
	// elasticVerifyLaps run after rank 0 has seen the slot revive: they
	// must traverse the FULL ring (hops == n-1), proving the
	// reincarnation is back in the data path.
	elasticVerifyLaps = 2
	elasticTagTok     = 1
)

// elasticRates is the chaos the soak runs under: lossy and duplicating
// enough to exercise the ARQ under the repair protocol without turning
// the run into a reliability benchmark.
func elasticRates() chaos.Rates {
	return chaos.Rates{Drop: 0.05, Dup: 0.05, Corrupt: 0.01}
}

// tokMsg is the ring token: the lap counter, the number of forwards it
// took this lap, and the stop flag that drains the ring at the end.
type tokMsg struct {
	lap  int64
	hops int64
	stop bool
}

func (m tokMsg) encode() []byte {
	b := make([]byte, 17)
	binary.LittleEndian.PutUint64(b[0:8], uint64(m.lap))
	binary.LittleEndian.PutUint64(b[8:16], uint64(m.hops))
	if m.stop {
		b[16] = 1
	}
	return b
}

func decodeTok(b []byte) (tokMsg, error) {
	if len(b) != 17 {
		return tokMsg{}, fmt.Errorf("token payload %d bytes", len(b))
	}
	return tokMsg{
		lap:  int64(binary.LittleEndian.Uint64(b[0:8])),
		hops: int64(binary.LittleEndian.Uint64(b[8:16])),
		stop: b[16] == 1,
	}, nil
}

// lapRec is one token arrival at rank 0.
type lapRec struct {
	lap, hops int64
}

// elasticRun is the measured outcome of one seeded E21 world.
type elasticRun struct {
	victim, killLap int
	laps            []lapRec // rank 0's arrivals, in order
	fetched         int64    // lap recovered by the reincarnation's FetchState
	resends         int64
	staleRejected   int64
	respawns        int64
	shrinks         int64
	elapsed         time.Duration
}

// runElasticWorld runs one seeded elastic ring world and checks the
// repair chain end to end. The victim rank and kill lap derive from the
// seed, so twenty seeds cover different ring positions and phases. The
// caller may supply its own metrics recorder and histogram registry
// (cmd/ftring's -elastic demo does, to feed its -obs endpoint); nil
// means fresh ones sized to the ring.
func runElasticWorld(opt Options, seed int64, mets *metrics.World, reg *obs.Registry) (*elasticRun, error) {
	n := elasticRingRanks
	run := &elasticRun{
		victim:  1 + int(seed)%(n-1), // never rank 0: the root must survive
		killLap: 3 + int(seed)%8,
		fetched: -1,
	}
	totalLaps := elasticBaseLaps + elasticVerifyLaps

	if mets == nil {
		mets = metrics.NewWorld(n)
	}
	if reg == nil {
		reg = opt.newObs(n)
	}
	opt.Collector.Attach(mets, reg)
	wopts := []mpi.Option{
		mpi.WithMetrics(mets),
		mpi.WithDeadline(120 * time.Second),
		mpi.WithChaos(chaos.NewPlan(seed).Default(elasticRates())),
		mpi.WithElastic(mpi.ElasticOptions{AutoRespawn: true, RespawnDelay: time.Millisecond}),
	}
	if reg != nil {
		wopts = append(wopts, mpi.WithObservability(reg))
	}
	if opt.Tracer != nil {
		wopts = append(wopts, mpi.WithTracer(opt.Tracer))
	}
	wopts = append(wopts, opt.detectorOption())
	w, err := mpi.NewWorld(n, wopts...)
	if err != nil {
		return nil, err
	}

	var mu sync.Mutex // guards run.laps / run.fetched / run.resends

	res, err := w.Run(func(p *mpi.Proc) error {
		c := p.World()
		c.SetErrhandler(mpi.ErrorsReturn)
		me := p.Rank()

		// Every incarnation publishes the last lap it drove, so a
		// reincarnated neighbor can rejoin at the ring's current position
		// instead of a checkpoint (the paper's "natural fault tolerance").
		var lastLap atomic.Int64
		lastLap.Store(-1)
		p.SetStateProvider(func() []byte {
			b := make([]byte, 8)
			binary.LittleEndian.PutUint64(b, uint64(lastLap.Load()))
			return b
		})

		if p.Gen() > 1 {
			// The reincarnation recovers its ring position from its left
			// neighbor (alive by construction: one victim per seed).
			b, ferr := p.FetchState((me - 1 + n) % n)
			if ferr != nil {
				return fmt.Errorf("gen%d FetchState: %w", p.Gen(), ferr)
			}
			if len(b) != 8 {
				return fmt.Errorf("state payload %d bytes", len(b))
			}
			mu.Lock()
			run.fetched = int64(binary.LittleEndian.Uint64(b))
			mu.Unlock()
			// Deliberately do NOT fast-forward lastLap: the in-flight
			// token may be resent to this incarnation and must still be
			// forwarded, not deduplicated away.
		}

		// sendTok forwards to the first alive rank to the right, skipping
		// known-dead slots (paper Fig. 7's "send past the failure").
		var lastMsg []byte
		lastSentTo := -1
		resent := true // nothing outstanding yet
		sendTok := func(msg []byte) error {
			for off := 1; off < n; off++ {
				to := (me + off) % n
				info, rerr := c.RankState(to)
				if rerr != nil {
					return rerr
				}
				if info.State != mpi.RankOK {
					continue
				}
				if serr := c.Send(to, elasticTagTok, msg); serr != nil {
					if mpi.IsRankFailStop(serr) {
						continue // died between the check and the send
					}
					return serr
				}
				lastMsg, lastSentTo, resent = msg, to, false
				return nil
			}
			return fmt.Errorf("rank %d: no alive right neighbor", me)
		}

		// recvTok blocks for the next token. A peer death completes the
		// posted receive with a fail-stop error: recognize the failure to
		// re-arm wildcard receives, and if the dead rank was the last one
		// we handed the token to, the token died with it — resend it past
		// the corpse.
		recvTok := func() (tokMsg, error) {
			for {
				pl, _, rerr := c.Recv(mpi.AnySource, elasticTagTok)
				if rerr == nil {
					return decodeTok(pl)
				}
				if !mpi.IsRankFailStop(rerr) {
					return tokMsg{}, rerr
				}
				f := mpi.FailedRankOf(rerr)
				if f >= 0 {
					_ = c.RecognizeLocal(f) // may race a revive; best effort
				}
				if f == lastSentTo && !resent {
					resent = true
					mu.Lock()
					run.resends++
					mu.Unlock()
					if serr := sendTok(lastMsg); serr != nil {
						return tokMsg{}, serr
					}
				}
			}
		}

		if me == 0 {
			for lap := 0; lap < totalLaps; lap++ {
				if lap == elasticBaseLaps {
					// Verification laps only count once the reincarnation
					// is installed and every slot reports alive.
					deadline := time.Now().Add(60 * time.Second)
					for {
						full := p.Registry().Generation(run.victim) == 2
						for r := 1; r < n && full; r++ {
							info, rerr := c.RankState(r)
							if rerr != nil {
								return rerr
							}
							full = info.State == mpi.RankOK
						}
						if full {
							break
						}
						if time.Now().After(deadline) {
							return fmt.Errorf("ring never returned to full size")
						}
						time.Sleep(200 * time.Microsecond)
					}
				}
				lastLap.Store(int64(lap))
				if serr := sendTok(tokMsg{lap: int64(lap)}.encode()); serr != nil {
					return serr
				}
				for {
					m, rerr := recvTok()
					if rerr != nil {
						return rerr
					}
					mu.Lock()
					run.laps = append(run.laps, lapRec{lap: m.lap, hops: m.hops})
					mu.Unlock()
					if m.lap == int64(lap) {
						break
					}
				}
			}
			// Drain the ring: the stop token makes one full pass.
			if serr := sendTok(tokMsg{stop: true}.encode()); serr != nil {
				return serr
			}
			if _, rerr := recvTok(); rerr != nil {
				return rerr
			}
		} else {
			for {
				m, rerr := recvTok()
				if rerr != nil {
					return rerr
				}
				if m.stop {
					if serr := sendTok(m.encode()); serr != nil {
						return serr
					}
					break
				}
				if m.lap <= lastLap.Load() {
					continue // duplicate of a lap this slot already drove
				}
				if me == run.victim && p.Gen() == 1 && m.lap == int64(run.killLap) {
					p.Die() // dies HOLDING the token: the message is lost
				}
				lastLap.Store(m.lap)
				m.hops++
				if serr := sendTok(m.encode()); serr != nil {
					return serr
				}
			}
		}

		// Epilogue: the whole world — reincarnation included — agrees on
		// the membership and shrinks. Everyone is alive, so the agreed
		// failure set is empty and the "shrunk" communicator is full-size:
		// elasticity undoes the shrink that run-through stabilization
		// would otherwise make permanent.
		nf, verr := c.ValidateAll()
		if verr != nil {
			return verr
		}
		if nf != 0 {
			return fmt.Errorf("rank %d: epilogue validate reported %d failures", me, nf)
		}
		nc, serr := c.Shrink()
		if serr != nil {
			return serr
		}
		if nc.Size() != n {
			return fmt.Errorf("rank %d: epilogue shrink size %d, want %d", me, nc.Size(), n)
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
		if rank == run.victim {
			if !rr.Killed {
				return nil, fmt.Errorf("seed %d: victim %d not recorded killed", seed, rank)
			}
			continue
		}
		if rr.Err != nil {
			return nil, fmt.Errorf("seed %d: rank %d: %w", seed, rank, rr.Err)
		}
	}
	if len(res.Respawns) != 1 {
		return nil, fmt.Errorf("seed %d: %d respawns, want 1", seed, len(res.Respawns))
	}
	if rr := res.Respawns[0]; rr.Slot != run.victim || rr.Gen != 2 || !rr.Finished || rr.Err != nil {
		return nil, fmt.Errorf("seed %d: respawn %+v", seed, rr)
	}

	// Exactly-once resumption: rank 0 saw lap 0,1,2,... with no gap, no
	// duplicate, no reordering — even though one lap's token was lost with
	// the victim and resent, under chaos.
	if len(run.laps) != totalLaps {
		return nil, fmt.Errorf("seed %d: rank 0 recorded %d arrivals, want %d: %v",
			seed, len(run.laps), totalLaps, run.laps)
	}
	for i, lr := range run.laps {
		if lr.lap != int64(i) {
			return nil, fmt.Errorf("seed %d: arrival %d carried lap %d — not exactly-once: %v",
				seed, i, lr.lap, run.laps)
		}
	}
	for _, lr := range run.laps[elasticBaseLaps:] {
		if lr.hops != int64(n-1) {
			return nil, fmt.Errorf("seed %d: verification lap %d crossed %d hops, want %d — the reincarnation is not in the data path",
				seed, lr.lap, lr.hops, n-1)
		}
	}
	// The reincarnation recovered state at least as fresh as the kill lap:
	// its left neighbor had already driven the lap the victim died holding.
	if run.fetched < int64(run.killLap) {
		return nil, fmt.Errorf("seed %d: recovered lap %d older than kill lap %d",
			seed, run.fetched, run.killLap)
	}

	run.staleRejected = mets.Total(metrics.StaleGenRejected)
	run.respawns = mets.Total(metrics.Respawns)
	run.shrinks = mets.Total(metrics.Shrinks)
	run.elapsed = res.Elapsed
	if run.respawns != 1 {
		return nil, fmt.Errorf("seed %d: respawn counter %d", seed, run.respawns)
	}
	if run.shrinks != int64(n) {
		return nil, fmt.Errorf("seed %d: shrink counter %d, want %d", seed, run.shrinks, n)
	}
	opt.Collector.Absorb(mets, reg)
	return run, nil
}

// runElasticSoak is E21: twenty seeded elastic repair runs (six in quick
// mode), each asserting the kill -> respawn -> exactly-once-resumption
// chain in-run. The table records per-seed facts for EXPERIMENTS.md.
func runElasticSoak(opt Options) ([]*Table, error) {
	t := NewTable("E21: elastic soak — kill, respawn, exactly-once resumption under chaos",
		"seed", "victim", "kill-lap", "laps", "resends", "recovered-lap",
		"stale-rejected", "shrinks", "elapsed")
	seeds := 20
	if opt.Quick {
		seeds = 6
	}
	for s := 0; s < seeds; s++ {
		seed := opt.Seed + int64(s)
		r, err := runElasticWorld(opt, seed, nil, nil)
		if err != nil {
			return nil, err
		}
		t.Add(seed, r.victim, r.killLap, len(r.laps), r.resends, r.fetched,
			r.staleRejected, r.shrinks, r.elapsed)
	}
	t.Note("asserted in-run per seed: victim respawned at gen 2, rank 0 saw every lap exactly once in order,")
	t.Note("verification laps crossed all %d ranks, recovered state >= kill lap, epilogue shrink returned to full size",
		elasticRingRanks)
	return []*Table{t}, nil
}
