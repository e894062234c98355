// Package workload is the experiment harness behind cmd/ftbench and
// EXPERIMENTS.md: it programmatically re-runs every experiment in the
// per-experiment index of DESIGN.md (E1–E24) — one per figure or claim of
// the paper — and renders the result tables.
package workload

import (
	"fmt"
	"strings"
	"text/tabwriter"
	"time"

	"repro/internal/membership"
	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/trace"
)

// Table is an ordered result table for one experiment.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, columns ...string) *Table {
	return &Table{Title: title, Columns: columns}
}

// Add appends a row, formatting each value with %v (durations are
// rendered rounded to the microsecond, floats to three decimals).
func (t *Table) Add(vals ...any) {
	row := make([]string, len(vals))
	for i, v := range vals {
		switch x := v.(type) {
		case time.Duration:
			row[i] = x.Round(time.Microsecond).String()
		case float64:
			row[i] = fmt.Sprintf("%.3f", x)
		default:
			row[i] = fmt.Sprint(v)
		}
	}
	t.Rows = append(t.Rows, row)
}

// Note appends a free-form footnote rendered under the table.
func (t *Table) Note(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// Render formats the table for terminals and EXPERIMENTS.md code blocks.
func (t *Table) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", t.Title)
	tw := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, strings.Join(t.Columns, "\t"))
	for _, row := range t.Rows {
		fmt.Fprintln(tw, strings.Join(row, "\t"))
	}
	_ = tw.Flush()
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Experiment is one reproducible unit of the evaluation.
type Experiment struct {
	// ID is the DESIGN.md experiment identifier (e.g. "e7").
	ID string
	// Title is a one-line description.
	Title string
	// PaperRef names the figure/section being reproduced.
	PaperRef string
	// Run executes the experiment and returns its tables.
	Run func(opt Options) ([]*Table, error)
}

// Options tune experiment scale.
type Options struct {
	// Quick shrinks sweeps for CI-speed runs.
	Quick bool
	// Seed drives the randomized failure schedules.
	Seed int64
	// Collector, when non-nil, aggregates counters and latency histograms
	// across every world the experiments create, for -json output and the
	// live -obs exposition.
	Collector *Collector
	// Detector overrides the failure-detection mode of the generic ring
	// worlds ("" keeps the oracle default). E18 and E24 always run the
	// oracle, E19 and E20 SWIM monitors, regardless.
	Detector string
	// Swim tunes the monitors when Detector is "swim".
	Swim membership.Options
	// Agreement selects the validate_all fan-out for the generic ring
	// worlds ("" keeps the coordinator default).
	Agreement string
	// Tracer, when non-nil, records every world's causal event stream
	// (E23's recovery forensics run one recorder per seeded world and
	// audit it for message conservation).
	Tracer *trace.Recorder
}

// detectorOption carries o's detector mode and monitor tunings into a
// world ("" keeps the oracle default; the tunings of other modes are inert).
func (o Options) detectorOption() mpi.Option {
	return func(c *mpi.Config) { c.Detector, c.Swim = o.Detector, o.Swim }
}

// obsMaxRanks caps the world size that gets a histogram registry: each
// (family, rank) histogram is ~2KB of atomics, so the E17 large-N worlds
// (4096 ranks) would pay tens of MB for timings nobody reads per rank.
const obsMaxRanks = 1024

// newObs returns a fresh histogram registry for a world of n ranks, or
// nil when no collector wants it (or the world is too large).
func (o Options) newObs(n int) *obs.Registry {
	if o.Collector == nil || n > obsMaxRanks {
		return nil
	}
	return obs.NewRegistry(n)
}

// sizes returns the world-size sweep, shrunk in quick mode.
func (o Options) sizes(full []int) []int {
	if !o.Quick {
		return full
	}
	if len(full) > 2 {
		return full[:2]
	}
	return full
}
