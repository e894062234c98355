package workload

import (
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/mpi"
)

func TestTableRender(t *testing.T) {
	tab := NewTable("demo", "a", "b")
	tab.Add(1, 2*time.Millisecond)
	tab.Add("x", 3.14159)
	tab.Note("footnote %d", 7)
	out := tab.Render()
	for _, want := range []string{"== demo ==", "a", "b", "2ms", "3.142", "note: footnote 7"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

func TestByID(t *testing.T) {
	for _, e := range All() {
		got, ok := ByID(e.ID)
		if !ok || got.Title != e.Title {
			t.Fatalf("ByID(%q) failed", e.ID)
		}
	}
	if _, ok := ByID("e99"); ok {
		t.Fatal("unknown id should not resolve")
	}
}

func TestAllHaveMetadata(t *testing.T) {
	ids := map[string]bool{}
	for _, e := range All() {
		if e.ID == "" || e.Title == "" || e.PaperRef == "" || e.Run == nil {
			t.Fatalf("experiment %+v incomplete", e)
		}
		if ids[e.ID] {
			t.Fatalf("duplicate id %s", e.ID)
		}
		ids[e.ID] = true
	}
	if len(ids) != 24 {
		t.Fatalf("have %d experiments, want 24", len(ids))
	}
}

// TestEveryExperimentRunsQuick executes the full suite in quick mode —
// the same code path cmd/ftbench uses — and sanity-checks each table.
func TestEveryExperimentRunsQuick(t *testing.T) {
	opt := Options{Quick: true, Seed: 1}
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			tables, err := e.Run(opt)
			if err != nil {
				t.Fatalf("%s (%s): %v", e.ID, e.PaperRef, err)
			}
			if len(tables) == 0 {
				t.Fatalf("%s produced no tables", e.ID)
			}
			for _, tab := range tables {
				if len(tab.Rows) == 0 {
					t.Fatalf("%s table %q has no rows", e.ID, tab.Title)
				}
				if out := tab.Render(); !strings.Contains(out, tab.Title) {
					t.Fatalf("%s render broken", e.ID)
				}
			}
		})
	}
}

// TestSoak is the acceptance gate of every seeded soak but E23 (which
// runs under TestEveryExperimentRunsQuick): each subtest runs its
// experiment through ftbench's code path and checks that the sweep was
// the size it claims and exercised what it claims to. -short shrinks
// every sweep to its quick size; race builds do too, except E18 and E19.
func TestSoak(t *testing.T) {
	for _, tc := range []struct {
		id        string
		raceQuick bool // race builds run the quick sweep
		check     func(t *testing.T, quick bool, tabs []*Table)
	}{
		// E18, the chaos fabric: every seed of every workload keeps its
		// application invariant, and chaos really dropped frames.
		{"e18", false, func(t *testing.T, quick bool, tabs []*Table) {
			tallied(t, tabs[0], quick)
			nonZero(t, tabs[0], 0, 3, "dropped")
		}},
		// E19, the SWIM detector: failures are detected only through
		// probes, fencing and confirmation (no oracle), and the detection
		// latency families reach the quantile table.
		{"e19", false, func(t *testing.T, quick bool, tabs []*Table) {
			tallied(t, tabs[0], quick)
			nonZero(t, tabs[0], 0, 3, "swim_probes")
			nonZero(t, tabs[0], 0, 4, "suspicions")
			nonZero(t, tabs[0], 0, 9, "confirms")
			hasValues(t, tabs[1], 1, "suspicion_latency", "fence_rtt")
		}},
		// E20, the SWIM detector: the run itself asserts detection p99
		// flat vs N and O(1) control frames per rank per period. Quick
		// sweeps end at N=1024, race builds at N=256: under race
		// instrumentation the N=4096 world measures the instrumentation.
		{"e20", true, func(t *testing.T, quick bool, tabs []*Table) {
			wantRows := 3 // N = 64, 256, 1024
			if raceEnabled {
				wantRows = 2 // race builds cap the sweep at 256
			}
			if len(tabs[0].Rows) < wantRows {
				t.Fatalf("want >=%d world sizes, got %d rows\n%s", wantRows, len(tabs[0].Rows), tabs[0].Render())
			}
			nonZero(t, tabs[0], 0, 1, "samples")
			nonZero(t, tabs[0], 0, 7, "confirms")
			// Confirms reach non-fencing ranks only through the piggyback
			// channel, so every row must gossip.
			nonZero(t, tabs[0], 0, 6, "gossip-learns")
		}},
		// E21, elastic worlds: in-run, the victim respawned at generation
		// 2, rank 0 saw every lap exactly once in order, the verification
		// laps crossed the reincarnation and the recovered state was at
		// least as fresh as the kill lap. The sweep must vary the victim.
		{"e21", true, func(t *testing.T, quick bool, tabs []*Table) {
			seedRows(t, tabs[0], quick, 20, 6)
			victims := map[string]bool{}
			for _, row := range tabs[0].Rows {
				victims[row[1]] = true
			}
			if len(victims) < 2 {
				t.Fatalf("seeds covered only victim(s) %v — the sweep is not exercising ring positions\n%s",
					victims, tabs[0].Render())
			}
		}},
		// E22, replication: in-run, every kill is absorbed with zero
		// recovery protocol in the app. The sweep must kill both roles,
		// and the overhead table shows R=1 first, then an R=2 row that
		// forwarded replica copies (replication is not free).
		{"e22", true, func(t *testing.T, quick bool, tabs []*Table) {
			seedRows(t, tabs[0], quick, 20, 6)
			hasValues(t, tabs[0], 2, "primary", "standby")
			ov := tabs[1].Rows
			if len(ov) != 2 || !strings.Contains(ov[0][0], "R=1") {
				t.Fatalf("overhead table should be R=1 baseline + one R=2 row\n%s", tabs[1].Render())
			}
			nonZero(t, tabs[1], 1, 6, "replica-sends")
			hasValues(t, tabs[2], 0, "replica_promotion", "replication_overhead")
		}},
		// E24, the durability gauntlet: in-run,
		// exactly-once delivery, a clean audit, zero app Spawn calls and
		// every group healed. Kills must land both on a sender with
		// messages its mirror never got and mid-collective.
		{"e24", true, func(t *testing.T, quick bool, tabs []*Table) {
			seedRows(t, tabs[0], quick, 20, 4)
			hasValues(t, tabs[0], 2, "sender-in-flight", "mid-collective")
			hasValues(t, tabs[1], 0, "rereplication_latency")
		}},
	} {
		t.Run(tc.id, func(t *testing.T) {
			e, _ := ByID(tc.id)
			quick := testing.Short() || (raceEnabled && tc.raceQuick)
			tabs, err := e.Run(Options{Quick: quick, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			tc.check(t, quick, tabs)
		})
	}
}

// tallied checks a tallied soak table: three workload rows, each over the
// sweep's seed count with ok == seeds.
func tallied(t *testing.T, tab *Table, quick bool) {
	t.Helper()
	seeds := "20"
	if quick {
		seeds = "4"
	}
	if len(tab.Rows) != 3 {
		t.Fatalf("want 3 workload rows, got %d\n%s", len(tab.Rows), tab.Render())
	}
	for _, row := range tab.Rows {
		if row[1] != seeds || row[2] != row[1] {
			t.Fatalf("workload %q: %s of %s seeds ok, want %s\n%s", row[0], row[2], row[1], seeds, tab.Render())
		}
	}
}

// seedRows checks a per-seed soak table has full rows, or quickRows in
// quick mode.
func seedRows(t *testing.T, tab *Table, quick bool, full, quickRows int) {
	t.Helper()
	want := full
	if quick {
		want = quickRows
	}
	if len(tab.Rows) != want {
		t.Fatalf("want %d seed rows, got %d\n%s", want, len(tab.Rows), tab.Render())
	}
}

// nonZero fails when column col of any row from the from'th on reads 0.
func nonZero(t *testing.T, tab *Table, from, col int, name string) {
	t.Helper()
	for _, row := range tab.Rows[from:] {
		if row[col] == "0" {
			t.Fatalf("row %q: %s is zero\n%s", row[0], name, tab.Render())
		}
	}
}

// hasValues fails unless every one of want appears in column col.
func hasValues(t *testing.T, tab *Table, col int, want ...string) {
	t.Helper()
	seen := map[string]bool{}
	for _, row := range tab.Rows {
		seen[row[col]] = true
	}
	for _, w := range want {
		if !seen[w] {
			t.Fatalf("%q missing from column %d\n%s", w, col, tab.Render())
		}
	}
}

// TestVerdict holds the post-run check every soak world shares to
// hand-made results.
func TestVerdict(t *testing.T) {
	done, killed := mpi.RankResult{Finished: true}, mpi.RankResult{Killed: true}
	boom := errors.New("boom")
	for _, tc := range []struct {
		name     string
		res      mpi.RunResult
		killable bool
		victims  []int
		want     string // a substring of the error; "" means the result passes
	}{
		{"clean", mpi.RunResult{Ranks: []mpi.RankResult{done, killed, done}}, false, []int{1}, ""},
		{"timed out names stuck ranks", mpi.RunResult{TimedOut: true, Stuck: []int{2, 3},
			Ranks: []mpi.RankResult{done, killed, {}, {}}}, false, []int{1}, "stuck ranks [2 3]"},
		{"victim not killed", mpi.RunResult{Ranks: []mpi.RankResult{done, done}}, false, []int{1}, "victim 1 not killed"},
		{"survivor unfinished", mpi.RunResult{Ranks: []mpi.RankResult{done, {}}}, false, nil, "rank 1 did not finish"},
		{"survivor aborted", mpi.RunResult{Ranks: []mpi.RankResult{{Aborted: true}, done}}, false, nil, "rank 0 did not finish"},
		{"survivor error", mpi.RunResult{Ranks: []mpi.RankResult{done, {Finished: true, Err: boom}}}, false, nil, "rank 1: boom"},
		{"non-victim killed", mpi.RunResult{Ranks: []mpi.RankResult{done, killed}}, false, nil, "rank 1 killed"},
		{"killable non-victim", mpi.RunResult{Ranks: []mpi.RankResult{done, killed}}, true, nil, ""},
		{"killable survivor error", mpi.RunResult{Ranks: []mpi.RankResult{killed, {Err: boom}}}, true, nil, "rank 1: boom"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := verdict(&tc.res, tc.killable, tc.victims)
			if tc.want == "" {
				if err != nil {
					t.Fatalf("verdict = %v, want nil", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("verdict = %v, want an error containing %q", err, tc.want)
			}
			if strings.Contains(tc.want, "boom") && !errors.Is(err, boom) {
				t.Fatalf("verdict = %v does not wrap the rank's error", err)
			}
		})
	}
}

func TestSortedKeys(t *testing.T) {
	m := map[int64]int64{3: 1, 1: 1, 2: 1}
	got := sortedKeys(m)
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("sortedKeys %v", got)
	}
}
