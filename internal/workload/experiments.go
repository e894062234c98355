package workload

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/inject"
	"repro/internal/metrics"
	"repro/internal/mpi"
)

// ringOnce runs one ring configuration over a fresh world and returns the
// report, run result, elapsed time and metrics. When opt carries a
// Collector, the world also gets a latency-histogram registry and both
// are absorbed into the sweep-wide aggregate (and exposed live for
// ftbench -obs scrapes).
func ringOnce(opt Options, size int, cfg core.Config, mut func(*mpi.Config)) (*core.Report, *mpi.RunResult, *metrics.World, error) {
	mets := metrics.NewWorld(size)
	mcfg := mpi.Config{Size: size, Deadline: 60 * time.Second, Metrics: mets,
		Detector: opt.Detector, Heartbeat: opt.Heartbeat,
		Swim: opt.Swim, Agreement: opt.Agreement}
	if reg := opt.newObs(size); reg != nil {
		mcfg.Obs = reg
		opt.Collector.Attach(mets, reg)
	}
	if mut != nil {
		mut(&mcfg)
	}
	report, res, err := core.Run(mcfg, cfg)
	opt.Collector.Absorb(mets, mcfg.Obs)
	return report, res, mets, err
}

// All returns every experiment in DESIGN.md order.
func All() []Experiment {
	return []Experiment{
		e1(), e2(), e3(), e4(), e5(), e6(), e7(), e8(),
		e9(), e10(), e11(), e12(), e13(), e14(), e15(), e16(), e17(),
		e18(), e19(), e20(), e21(), e22(), e23(), e24(),
	}
}

// ByID finds an experiment by its identifier ("e1".."e24").
func ByID(id string) (Experiment, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

func e1() Experiment {
	return Experiment{
		ID: "e1", Title: "Fault-unaware ring baseline", PaperRef: "Fig. 2",
		Run: func(opt Options) ([]*Table, error) {
			t := NewTable("E1: fault-unaware ring (Fig. 2)",
				"ranks", "iters", "elapsed", "us/iter", "msgs", "value-ok")
			for _, n := range opt.sizes([]int{4, 8, 16, 32, 64}) {
				iters := 128
				report, res, mets, err := ringOnce(opt, n, core.Config{Iters: iters, Variant: core.VariantUnaware}, nil)
				if err != nil {
					return nil, err
				}
				ok := len(report.Rank(0).RootValues) == iters
				for _, v := range report.Rank(0).RootValues {
					ok = ok && v == int64(n)
				}
				t.Add(n, iters, res.Elapsed,
					float64(res.Elapsed.Microseconds())/float64(iters),
					mets.Total(metrics.Sends), ok)
			}
			return []*Table{t}, nil
		},
	}
}

func e2() Experiment {
	return Experiment{
		ID: "e2", Title: "FT ring failure-free overhead", PaperRef: "Figs. 3-5, 9, 10",
		Run: func(opt Options) ([]*Table, error) {
			t := NewTable("E2: full FT ring vs unaware, failure-free",
				"ranks", "iters", "unaware", "ft", "overhead-x", "ft-msgs/unaware-msgs")
			for _, n := range opt.sizes([]int{4, 8, 16, 32, 64}) {
				iters := 128
				_, resU, metsU, err := ringOnce(opt, n, core.Config{Iters: iters, Variant: core.VariantUnaware}, nil)
				if err != nil {
					return nil, err
				}
				_, resF, metsF, err := ringOnce(opt, n, core.Config{Iters: iters, Variant: core.VariantFull}, nil)
				if err != nil {
					return nil, err
				}
				t.Add(n, iters, resU.Elapsed, resF.Elapsed,
					float64(resF.Elapsed)/float64(resU.Elapsed),
					float64(metsF.Total(metrics.Sends))/float64(metsU.Total(metrics.Sends)))
			}
			t.Note("expected shape: small constant-factor overhead (marker field, detector management)")
			return []*Table{t}, nil
		},
	}
}

func e3() Experiment {
	return Experiment{
		ID: "e3", Title: "Naive receive deadlocks", PaperRef: "Fig. 6",
		Run: func(opt Options) ([]*Table, error) {
			t := NewTable("E3: naive receive under mid-ring failure (Fig. 6)",
				"ranks", "kill", "outcome", "stuck-ranks", "iters-done")
			plan := inject.NewPlan().Add(inject.AfterNthRecv(2, 2))
			report, res, _, err := ringOnce(opt, 4, core.Config{Iters: 6, Variant: core.VariantNaive},
				func(m *mpi.Config) { m.Hook = plan.Hook(); m.Deadline = 500 * time.Millisecond })
			outcome := "completed"
			if errors.Is(err, mpi.ErrTimedOut) {
				outcome = "DEADLOCK (watchdog)"
			} else if err != nil {
				return nil, err
			}
			t.Add(4, "rank 2 after recv #2", outcome, fmt.Sprint(res.Stuck), report.TotalIterations())
			t.Note("the control was lost with P2; P1 never notices and P3 waits forever (paper Fig. 6)")
			return []*Table{t}, nil
		},
	}
}

func e4() Experiment {
	return Experiment{
		ID: "e4", Title: "Irecv failure detector recovers via resend", PaperRef: "Fig. 7",
		Run: func(opt Options) ([]*Table, error) {
			t := NewTable("E4: Fig. 9 receive under the same failure (Fig. 7)",
				"ranks", "kill", "outcome", "resends", "root-absorbed", "elapsed")
			plan := inject.NewPlan().Add(inject.AfterNthRecv(2, 2))
			report, res, _, err := ringOnce(opt, 4, core.Config{Iters: 6, Variant: core.VariantFull},
				func(m *mpi.Config) { m.Hook = plan.Hook() })
			if err != nil {
				return nil, err
			}
			t.Add(4, "rank 2 after recv #2", "completed", report.TotalResends(),
				len(report.Rank(0).RootValues), res.Elapsed)
			return []*Table{t}, nil
		},
	}
}

func e5() Experiment {
	return Experiment{
		ID: "e5", Title: "Duplicate completions without markers", PaperRef: "Fig. 8",
		Run: func(opt Options) ([]*Table, error) {
			t := NewTable("E5: resend without marker check (Fig. 8)",
				"ranks", "kill", "dups-forwarded", "root-absorptions", "distinct-markers", "markers-absorbed")
			plan := inject.NewPlan().Add(inject.AfterNthSend(2, 2))
			report, _, _, err := ringOnce(opt, 4, core.Config{Iters: 4, Variant: core.VariantNoMarker},
				func(m *mpi.Config) { m.Hook = plan.Hook() })
			if err != nil {
				return nil, err
			}
			// The root counts 4 absorptions but some are duplicates of the
			// same marker: distinct-markers < root-absorptions is Fig. 8's
			// "multiple completions of the same ring iteration" — and the
			// last real iterations are silently lost.
			root := report.Rank(0)
			t.Add(4, "rank 2 after send #2", report.TotalDupsForwarded(),
				root.Iterations, len(root.RootValues),
				fmt.Sprint(sortedKeys(root.RootValues)))
			t.Note("root counted %d completions but only %d distinct iterations circulated",
				root.Iterations, len(root.RootValues))
			return []*Table{t}, nil
		},
	}
}

func e6() Experiment {
	return Experiment{
		ID: "e6", Title: "Markers suppress duplicates", PaperRef: "Fig. 10",
		Run: func(opt Options) ([]*Table, error) {
			t := NewTable("E6: same failure schedule with markers (Fig. 10)",
				"ranks", "kill", "dups-dropped", "dups-forwarded", "root-absorbed")
			plan := inject.NewPlan().Add(inject.AfterNthSend(2, 2))
			report, _, _, err := ringOnce(opt, 4, core.Config{Iters: 4, Variant: core.VariantFull},
				func(m *mpi.Config) { m.Hook = plan.Hook() })
			if err != nil {
				return nil, err
			}
			t.Add(4, "rank 2 after send #2", report.TotalDupsDropped(),
				report.TotalDupsForwarded(), len(report.Rank(0).RootValues))
			return []*Table{t}, nil
		},
	}
}

func e7() Experiment {
	return Experiment{
		ID: "e7", Title: "Root-broadcast termination", PaperRef: "Fig. 11",
		Run: func(opt Options) ([]*Table, error) {
			t := NewTable("E7: root-broadcast termination (Fig. 11)",
				"ranks", "failures", "elapsed", "terminated", "resends")
			for _, n := range opt.sizes([]int{4, 8, 16, 32, 64}) {
				for _, f := range []int{0, 1, 3} {
					if f >= n-1 {
						continue
					}
					plan, _ := inject.RandomPlan(opt.Seed+int64(n*10+f), nonRoots(n), f, 4)
					report, res, _, err := ringOnce(opt, n,
						core.Config{Iters: 8, Variant: core.VariantFull, Termination: core.TermRootBcast},
						func(m *mpi.Config) { m.Hook = plan.Hook() })
					if err != nil {
						return nil, fmt.Errorf("n=%d f=%d: %w", n, f, err)
					}
					term := 0
					for r := 0; r < n; r++ {
						if report.Rank(r).Terminated {
							term++
						}
					}
					t.Add(n, f, res.Elapsed, fmt.Sprintf("%d/%d", term, n-f), report.TotalResends())
				}
			}
			return []*Table{t}, nil
		},
	}
}

func e8() Experiment {
	return Experiment{
		ID: "e8", Title: "Leader election", PaperRef: "Fig. 12",
		Run: func(opt Options) ([]*Table, error) {
			t := NewTable("E8: lowest-alive leader election (Fig. 12)",
				"ranks", "failed-prefix", "elected", "unanimous", "elapsed")
			for _, n := range opt.sizes([]int{4, 16, 64, 256}) {
				for _, k := range []int{0, 1, n / 2} {
					elected, elapsed, err := runLowestAliveElection(n, k)
					if err != nil {
						return nil, err
					}
					unanimous := true
					for _, e := range elected {
						if e != k {
							unanimous = false
						}
					}
					t.Add(n, k, k, unanimous, elapsed)
				}
			}
			return []*Table{t}, nil
		},
	}
}

func e9() Experiment {
	return Experiment{
		ID: "e9", Title: "validate_all termination", PaperRef: "Fig. 13",
		Run: func(opt Options) ([]*Table, error) {
			t := NewTable("E9: validate_all termination (Fig. 13)",
				"ranks", "failures", "root-died", "elapsed", "terminated")
			for _, n := range opt.sizes([]int{4, 8, 16, 32, 64}) {
				for _, rootDies := range []bool{false, true} {
					plan := inject.NewPlan()
					f := 1
					if rootDies {
						plan.Add(inject.AfterNthRecv(0, 3))
					} else {
						plan.Add(inject.AfterNthRecv(n/2, 2))
					}
					report, res, _, err := ringOnce(opt, n,
						core.Config{Iters: 8, Variant: core.VariantFull,
							Termination: core.TermValidateAll, RootPolicy: core.RootElect},
						func(m *mpi.Config) { m.Hook = plan.Hook() })
					if err != nil {
						return nil, fmt.Errorf("n=%d rootDies=%v: %w", n, rootDies, err)
					}
					term := 0
					for r := 0; r < n; r++ {
						if report.Rank(r).Terminated {
							term++
						}
					}
					t.Add(n, f, rootDies, res.Elapsed, fmt.Sprintf("%d/%d", term, n-f))
				}
			}
			t.Note("root death needs no special casing: the agreement's coordinator fails over internally")
			return []*Table{t}, nil
		},
	}
}

func e10() Experiment {
	return Experiment{
		ID: "e10", Title: "Run-through multiple failures", PaperRef: "Section III claim",
		Run: func(opt Options) ([]*Table, error) {
			t := NewTable("E10: run-through f failures, 16 ranks, 16 iterations",
				"failures", "elapsed", "resends", "dups-dropped", "root-absorbed", "survivors-done")
			n := 16
			maxF := 6
			if opt.Quick {
				maxF = 2
			}
			for f := 0; f <= maxF; f += 2 {
				plan, _ := inject.RandomPlan(opt.Seed+int64(f), nonRoots(n), f, 8)
				report, res, _, err := ringOnce(opt, n,
					core.Config{Iters: 16, Variant: core.VariantFull, Termination: core.TermValidateAll},
					func(m *mpi.Config) { m.Hook = plan.Hook() })
				if err != nil {
					return nil, fmt.Errorf("f=%d: %w", f, err)
				}
				done := 0
				for r := 0; r < n; r++ {
					if res.Ranks[r].Finished {
						done++
					}
				}
				t.Add(f, res.Elapsed, report.TotalResends(), report.TotalDupsDropped(),
					len(report.Rank(0).RootValues), fmt.Sprintf("%d/%d", done, n-f))
			}
			return []*Table{t}, nil
		},
	}
}

func e11() Experiment {
	return Experiment{
		ID: "e11", Title: "Duplicate-control ablation", PaperRef: "Section III-B",
		Run: func(opt Options) ([]*Table, error) {
			t := NewTable("E11: marker vs separate-tag duplicate control",
				"scheme", "elapsed", "msgs", "bytes", "root-absorbed")
			for _, v := range []core.Variant{core.VariantFull, core.VariantSeparateTag} {
				plan := inject.NewPlan().Add(inject.AfterNthSend(2, 2))
				report, res, mets, err := ringOnce(opt, 8, core.Config{Iters: 16, Variant: v},
					func(m *mpi.Config) { m.Hook = plan.Hook() })
				if err != nil {
					return nil, fmt.Errorf("%v: %w", v, err)
				}
				t.Add(v.String(), res.Elapsed, mets.Total(metrics.Sends),
					mets.Total(metrics.BytesSent), len(report.Rank(0).RootValues))
			}
			t.Note("both schemes complete; separate-tag posts an extra receive per iteration")
			return []*Table{t}, nil
		},
	}
}

func e12() Experiment {
	return Experiment{
		ID: "e12", Title: "Root failure and control regain", PaperRef: "Section III-D",
		Run: func(opt Options) ([]*Table, error) {
			t := NewTable("E12: root dies mid-run; new root regains control",
				"ranks", "kill", "new-root", "became-root", "absorbed-old", "absorbed-new", "survivors-terminated")
			for _, n := range opt.sizes([]int{5, 9, 17}) {
				plan := inject.NewPlan().Add(inject.AfterNthRecv(0, 3))
				report, res, _, err := ringOnce(opt, n,
					core.Config{Iters: 8, Variant: core.VariantFull,
						Termination: core.TermValidateAll, RootPolicy: core.RootElect},
					func(m *mpi.Config) { m.Hook = plan.Hook() })
				if err != nil {
					return nil, err
				}
				term := 0
				for r := 1; r < n; r++ {
					if report.Rank(r).Terminated {
						term++
					}
				}
				_ = res
				t.Add(n, "root after recv #3", report.Rank(1).FinalRoot,
					report.Rank(1).BecameRoot, len(report.Rank(0).RootValues),
					len(report.Rank(1).RootValues), fmt.Sprintf("%d/%d", term, n-1))
			}
			return []*Table{t}, nil
		},
	}
}

func e13() Experiment {
	return Experiment{
		ID: "e13", Title: "validate_all cost", PaperRef: "Section II (consensus)",
		Run: func(opt Options) ([]*Table, error) {
			t := NewTable("E13: MPI_Comm_validate_all cost",
				"ranks", "failures", "per-validate", "agreement-msgs/validate", "agreed-count")
			reps := 20
			if opt.Quick {
				reps = 5
			}
			for _, n := range opt.sizes([]int{4, 8, 16, 32, 64}) {
				for _, f := range []int{0, 2} {
					if f >= n-1 {
						continue
					}
					elapsed, msgs, count, err := runValidateBench(n, f, reps, opt.Agreement)
					if err != nil {
						return nil, err
					}
					t.Add(n, f, elapsed/time.Duration(reps), msgs/int64(reps), count)
				}
			}
			return []*Table{t}, nil
		},
	}
}

func e14() Experiment {
	return Experiment{
		ID: "e14", Title: "Collective failure semantics", PaperRef: "Section II",
		Run: func(opt Options) ([]*Table, error) {
			return runCollectiveSemantics()
		},
	}
}

func e15() Experiment {
	return Experiment{
		ID: "e15", Title: "Transport comparison", PaperRef: "substrate",
		Run: func(opt Options) ([]*Table, error) {
			return runTransportComparison(opt)
		},
	}
}

func e16() Experiment {
	return Experiment{
		ID: "e16", Title: "Exhaustive fault-placement sweep", PaperRef: "Section III-E",
		Run: func(opt Options) ([]*Table, error) {
			return runPlacementSweep(opt)
		},
	}
}

func e17() Experiment {
	return Experiment{
		ID: "e17", Title: "Large-N matching scalability", PaperRef: "engine",
		Run: func(opt Options) ([]*Table, error) {
			return runLargeN(opt)
		},
	}
}

func e18() Experiment {
	return Experiment{
		ID: "e18", Title: "Chaos soak under lossy links", PaperRef: "robustness",
		Run: func(opt Options) ([]*Table, error) {
			return runChaosSoak(opt)
		},
	}
}

func e19() Experiment {
	return Experiment{
		ID: "e19", Title: "Heartbeat detector soak", PaperRef: "Sec. III detector, made real",
		Run: func(opt Options) ([]*Table, error) {
			return runHeartbeatSoak(opt)
		},
	}
}

func e20() Experiment {
	return Experiment{
		ID: "e20", Title: "SWIM membership scaling soak", PaperRef: "Sec. III detector, at scale",
		Run: func(opt Options) ([]*Table, error) {
			return runSwimSoak(opt)
		},
	}
}

func e21() Experiment {
	return Experiment{
		ID: "e21", Title: "Elastic shrink/respawn soak", PaperRef: "beyond run-through: ULFM-style repair",
		Run: func(opt Options) ([]*Table, error) {
			return runElasticSoak(opt)
		},
	}
}

func e22() Experiment {
	return Experiment{
		ID: "e22", Title: "Replication soak: transparent failover", PaperRef: "the other FT strategy: hot replicas vs ABFT",
		Run: func(opt Options) ([]*Table, error) {
			return runReplicaSoak(opt)
		},
	}
}

func e23() Experiment {
	return Experiment{
		ID: "e23", Title: "Recovery forensics: trace-derived phase decomposition", PaperRef: "recovery time, decomposed causally",
		Run: func(opt Options) ([]*Table, error) {
			return runRecoveryForensics(opt)
		},
	}
}

func e24() Experiment {
	return Experiment{
		ID: "e24", Title: "Durability soak: chain tail-acks, auto re-replication, replicated collectives", PaperRef: "replication durability under seeded worst-case kills",
		Run: func(opt Options) ([]*Table, error) {
			return runDurabilitySoak(opt)
		},
	}
}

// nonRoots lists all comm ranks except 0 (failure candidates when the
// root must survive).
func nonRoots(n int) []int {
	out := make([]int, 0, n-1)
	for r := 1; r < n; r++ {
		out = append(out, r)
	}
	return out
}

// sortedKeys returns map keys in ascending order (test/table helper).
func sortedKeys(m map[int64]int64) []int64 {
	out := make([]int64, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
