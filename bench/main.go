// Command bench is the repository's performance benchmark: seven
// workloads over the fault-tolerant ring runtime, measured end to end with
// every instrument off, plus a separate traced pass that attributes the
// time to layers. README.md in this directory describes the workloads,
// the metrics and how to read the output.
//
//	go run -C bench .                                  # every workload, both passes
//	go run -C bench . -workload ring.tcp.small -trace 1
//	go run -C bench . -repeat 2                        # self-calibration
//	go run -C bench . -compare old.json new.json       # regression gate
//
// With -workload the last line of standard output is one JSON object with
// the keys correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
)

const ringTag = core.TagRing

// metricDef is one metric's contract: BENCHMARK.json carries the same
// table (bench_test.go checks they agree). bound is the share of the old
// median an end-to-end metric may worsen by; per-layer metrics have none.
type metricDef struct {
	name, unit, better string
	bound              float64
}

var endToEnd = []metricDef{
	{"op_us", "us", "lower", 0.25},
	{"goodput_MBps", "MB/s", "higher", 0.25},
	{"allocs_per_op", "count", "lower", 0.02},
	{"alloc_bytes_per_op", "B", "lower", 0.05},
	{"setup_s", "s", "lower", 0.25},
}

var perLayer = []metricDef{
	// The traced pass of the selected workload.
	{name: "core.app_ns", unit: "ns", better: "lower"},
	{name: "mpi.send_ns", unit: "ns", better: "lower"},
	{name: "transport.transit_ns", unit: "ns", better: "lower"},
	{name: "transport.send_ns", unit: "ns", better: "lower"},
	{name: "mpi.deliver_ns", unit: "ns", better: "lower"},
	{name: "mpi.wake_ns", unit: "ns", better: "lower"},
	{name: "trace.segments_sum_ns", unit: "ns", better: "lower"},
	{name: "trace.segments_pct", unit: "%", better: "higher"},
	{name: "trace.op_us", unit: "us", better: "lower"},
	{name: "trace.overhead_pct", unit: "%", better: "lower"},
	{name: "transport.frames_per_op", unit: "count", better: "lower"},
	{name: "transport.wire_bytes_per_op", unit: "B", better: "lower"},
	{name: "transport.ctl_frame_share", unit: "%", better: "lower"},
	{name: "reliable.retries_per_kop", unit: "count", better: "lower"},
	{name: "reliable.dedups_per_kop", unit: "count", better: "lower"},
	{name: "chaos.drops_per_kop", unit: "count", better: "lower"},
	{name: "mpi.chain_acks_per_op", unit: "count", better: "lower"},
	{name: "mpi.chain_resends", unit: "count", better: "lower"},
	{name: "mpi.agreement_msgs_per_op", unit: "count", better: "lower"},
	{name: "core.resends_per_op", unit: "count", better: "lower"},
	{name: "core.failovers_per_op", unit: "count", better: "lower"},
	{name: "core.lap_p50_us", unit: "us", better: "lower"},
	{name: "core.lap_p99_us", unit: "us", better: "lower"},
	// The reference panel (panel.go), the same whatever the workload.
	{name: "core.ft_factor", unit: "ratio", better: "lower"},
	{name: "mpi.repl_factor", unit: "ratio", better: "lower"},
	{name: "obs.marginal_pct", unit: "%", better: "lower"},
	{name: "reliable.marginal_ns", unit: "ns", better: "lower"},
	{name: "chaos.marginal_ns", unit: "ns", better: "lower"},
	{name: "transport.codec_ns.16B", unit: "ns", better: "lower"},
	{name: "transport.codec_ns.64KiB", unit: "ns", better: "lower"},
	{name: "transport.echo_ratio", unit: "ratio", better: "lower"},
	{name: "collective.barrier_us", unit: "us", better: "lower"},
	{name: "collective.bcast_us", unit: "us", better: "lower"},
	{name: "collective.allreduce_us", unit: "us", better: "lower"},
	{name: "mpi.validate_us.coordinator", unit: "us", better: "lower"},
	{name: "mpi.validate_us.tree", unit: "us", better: "lower"},
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is what the driver reads from the last line: exactly these
// four keys.
type outcome struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// result is one workload's outcome in one mode, plus what -compare and
// people need.
type result struct {
	outcome
	Workload string               `json:"workload,omitempty"`
	Trace    int                  `json:"trace"`
	Set      int                  `json:"set,omitempty"`
	Trials   map[string][]float64 `json:"trials,omitempty"` // per-trial values behind each median
	Notes    []string             `json:"notes,omitempty"`  // tails with their sample counts
}

// environment is recorded in every document: numbers from different
// boxes, toolchains or settings are not comparable.
type environment struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Link       string `json:"link"`
}

// document is what -out writes and -compare reads.
type document struct {
	Env     environment `json:"env"`
	Seed    int64       `json:"seed"`
	Seconds int         `json:"seconds"`
	Quick   bool        `json:"quick"` // shrunken batches: not comparable with full runs
	Results []*result   `json:"results"`
}

func currentEnv() environment {
	env := environment{
		Commit: "unknown", GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Link:       "in-memory fabric or host loopback; no real link crossed",
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				env.Commit = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					env.Commit += "+dirty"
				}
			}
		}
	}
	return env
}

// settings are the knobs of one measurement.
type settings struct {
	seed     int64
	seconds  int
	quick    bool
	traceOut string
}

// quickDiv is how much -quick shrinks every batch.
const quickDiv = 50

func (s settings) div() int {
	if s.quick {
		return quickDiv
	}
	return 1
}

// Throw-away worlds per end-to-end run: set-up is the median over these.
// The trial worlds are left out on purpose: their number varies with how
// fast the trials are, so counting them in would let a faster hot path
// move setup_s.
const (
	throwaways      = 200
	quickThrowaways = 5
	minTrials       = 3
)

// measure runs one workload end to end, every instrument off: throw-away
// worlds for set-up, then trials of the fixed batch until the time budget
// is used (at least three). Each metric is the median over trials.
func measure(w *workload, s settings) (*result, error) {
	begin := time.Now()
	budget := time.Duration(s.seconds) * time.Second
	batch := max(w.batch/s.div(), 3)
	res := &result{Workload: w.name, outcome: outcome{Metrics: map[string]metric{}}, Trials: map[string][]float64{}}

	add := func(name string, v float64) { res.Trials[name] = append(res.Trials[name], v) }
	n := throwaways
	if s.quick {
		n = quickThrowaways
	}
	for i := 0; i < n; i++ {
		runtime.GC() // like a trial world: built on a collected heap
		sec, err := w.throwaway(s.seed + int64(i))
		if err != nil {
			return nil, fmt.Errorf("%s: throw-away world: %w", w.name, err)
		}
		add("setup_s", sec)
	}

	var laps []float64
	for trial := 0; ; trial++ {
		runtime.GC() // every trial starts from a collected heap
		t0 := time.Now()
		tr, err := w.trial(batch, s.seed+int64(1000*(trial+1)), nil)
		if err != nil {
			return nil, fmt.Errorf("%s: trial %d: %w", w.name, trial, err)
		}
		took := time.Since(t0)
		res.Attempted += tr.attempted
		res.Failed += tr.failed
		add("op_us", tr.opUs)
		add("goodput_MBps", tr.payload/tr.opUs) // bytes per microsecond = MB/s
		add("allocs_per_op", tr.allocs)
		add("alloc_bytes_per_op", tr.bytes)
		laps = append(laps, tr.laps...)
		if trial+1 < minTrials {
			continue
		}
		if s.quick || time.Since(begin)+took > budget {
			break
		}
	}
	for _, def := range endToEnd {
		res.Metrics[def.name] = metric{median(res.Trials[def.name]), def.unit}
	}
	res.Correct = res.Failed == 0
	alias, scale := w.alias()
	res.Notes = append(res.Notes, fmt.Sprintf("%s=%.4g (op_us x %g), %d trials of %d %ss",
		alias, res.Metrics["op_us"].Value*scale, scale, len(res.Trials["op_us"]), batch, lapName(w)))
	if note := tailNote(alias, laps); note != "" {
		res.Notes = append(res.Notes, note)
	}
	return res, nil
}

// alias returns the issue's name for op_us on this workload and the
// factor from microseconds to its unit.
func (w *workload) alias() (string, float64) {
	if w.op == "hop" {
		return "hop_ns", 1e3
	}
	return w.op + "_us", 1
}

func lapName(w *workload) string {
	if w.op == "hop" {
		return "lap"
	}
	return w.op
}

// tailNote reports the median and the highest supported percentile of the
// per-lap (round, run) times, with the sample count. Tails are printed,
// never gated: they move by tens of percent between identical runs.
func tailNote(what string, laps []float64) string {
	p := supportedTail(len(laps))
	if p == 0 {
		return ""
	}
	return fmt.Sprintf("%s per lap/round/run: p50=%.4g us, p%g=%.4g us (n=%d)",
		what, median(laps), p, percentile(laps, p), len(laps))
}

// traced runs the per-layer pass of one workload: the workload itself
// with hook, span fabric and counters attached, an untraced trial of the
// same batch for the tracing overhead, and the reference panel; repeated
// while the time budget lasts, medians reported.
func traced(w *workload, s settings) (*result, error) {
	begin := time.Now()
	budget := time.Duration(s.seconds) * time.Second
	batch := max(w.trace/s.div(), 3)
	res := &result{Workload: w.name, Trace: 1, outcome: outcome{Metrics: map[string]metric{}}, Trials: map[string][]float64{}}
	add := func(name string, v float64) { res.Trials[name] = append(res.Trials[name], v) }
	var laps []float64
	var first layerStats // the first round's: its spans go to -trace-out
	for round := 0; ; round++ {
		t0 := time.Now()
		seed := s.seed + int64(1000*(round+1))
		ins := newInstruments()
		tr, err := w.trial(batch, seed, ins)
		if err != nil {
			return nil, fmt.Errorf("%s: traced pass: %w", w.name, err)
		}
		st := ins.analyze(s.traceOut != "" && round == 0)
		if round == 0 {
			first = st
		}
		plain, err := w.trial(batch, seed, nil)
		if err != nil {
			return nil, fmt.Errorf("%s: untraced reference: %w", w.name, err)
		}
		res.Attempted += tr.attempted + plain.attempted
		res.Failed += tr.failed + plain.failed

		ops := float64(tr.ops)
		add("core.app_ns", st.appNs)
		add("mpi.send_ns", st.sendNs)
		add("transport.transit_ns", st.transitNs)
		add("transport.send_ns", st.fabricNs)
		add("mpi.deliver_ns", st.deliverNs)
		add("mpi.wake_ns", st.wakeNs)
		add("trace.segments_sum_ns", st.sumNs)
		add("trace.segments_pct", 100*st.sumNs*float64(st.chainMsgs)/ops/(tr.opUs*1e3))
		add("trace.op_us", tr.opUs)
		add("trace.overhead_pct", (tr.opUs/plain.opUs-1)*100)
		add("transport.frames_per_op", float64(st.frames)/ops)
		add("transport.wire_bytes_per_op", float64(st.wireBytes)/ops)
		add("transport.ctl_frame_share", 100*float64(st.ctlFrames)/float64(max(st.frames, 1)))
		count := func(c metrics.Counter) float64 { return float64(ins.counts.Total(c)) }
		add("reliable.retries_per_kop", 1e3*count(metrics.FramesRetried)/ops)
		add("reliable.dedups_per_kop", 1e3*count(metrics.FramesDeduped)/ops)
		add("chaos.drops_per_kop", 1e3*count(metrics.FramesDropped)/ops)
		add("mpi.chain_acks_per_op", count(metrics.ChainAcks)/ops)
		add("mpi.chain_resends", count(metrics.ChainResends))
		add("mpi.agreement_msgs_per_op", count(metrics.AgreementMsgs)/ops)
		add("core.resends_per_op", tr.resends)
		add("core.failovers_per_op", tr.failovers)
		if tr.laps != nil {
			laps = append(laps, tr.laps...)
		} else {
			laps = append(laps, st.rootLaps...)
		}

		panel, err := runPanel(seed, s.div())
		if err != nil {
			return nil, err
		}
		for name, v := range panel {
			add(name, v)
		}
		if s.quick || time.Since(begin)+time.Since(t0) > budget {
			break
		}
	}
	add("core.lap_p50_us", median(laps))
	tail := min(supportedTail(len(laps)), 99)
	if tail == 0 {
		tail = 99 // too few samples to support any tail: nearest rank, flagged in the note
	}
	add("core.lap_p99_us", percentile(laps, tail))
	res.Notes = append(res.Notes, fmt.Sprintf("core.lap_p99_us is p%g of %d laps (highest percentile <= 99 with 10 samples beyond it)", tail, len(laps)))
	res.Notes = append(res.Notes, fmt.Sprintf("traced %d %ss per pass; %d data messages matched, %d on the critical chain",
		batch, lapName(w), first.messages, first.chainMsgs))
	for _, def := range perLayer {
		vs, ok := res.Trials[def.name]
		if !ok {
			return nil, fmt.Errorf("%s: per-layer metric %s was not measured", w.name, def.name)
		}
		res.Metrics[def.name] = metric{median(vs), def.unit}
	}
	res.Correct = res.Failed == 0
	if s.traceOut != "" {
		if err := writeSpans(s.traceOut, first.spans); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// printResult writes the human-readable lines of one result.
func printResult(r *result, defs []metricDef) {
	fmt.Printf("%s  trace=%d  correct=%v  failed %d of %d\n", r.Workload, r.Trace, r.Correct, r.Failed, r.Attempted)
	for _, def := range defs {
		m := r.Metrics[def.name]
		line := fmt.Sprintf("  %-30s %14.6g %-6s", def.name, m.Value, m.Unit)
		if vs := r.Trials[def.name]; len(vs) > 1 && def.bound > 0 {
			line += fmt.Sprintf("  (%d samples, spread %.1f%%, bound %.0f%%, %s is better)",
				len(vs), 100*spread(vs), 100*def.bound, def.better)
		}
		fmt.Println(line)
	}
	for _, n := range r.Notes {
		fmt.Println("  # " + n)
	}
}

func writeDocument(path string, doc *document) error {
	b, err := json.Marshal(doc) // one line: the per-trial arrays would swamp an indented file
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readDocument(path string) (*document, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc document
	if err := json.Unmarshal(b, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &doc, nil
}

// runAll measures every workload `repeat` times, alternating the order
// between sets so that drift does not favour one end of the list, and the
// traced pass once. With repeat > 1 it prints the calibration table.
func runAll(s settings, repeat int) (*document, error) {
	doc := &document{Env: currentEnv(), Seed: s.seed, Seconds: s.seconds, Quick: s.quick}
	for set := 1; set <= repeat; set++ {
		order := append([]*workload(nil), workloads...)
		if set%2 == 0 {
			for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
				order[i], order[j] = order[j], order[i]
			}
		}
		for _, w := range order {
			r, err := measure(w, s)
			if err != nil {
				return doc, err
			}
			r.Set = set
			printResult(r, endToEnd)
			doc.Results = append(doc.Results, r)
		}
	}
	for _, w := range workloads {
		r, err := traced(w, s)
		if err != nil {
			return doc, err
		}
		r.Set = 1
		printResult(r, perLayer)
		doc.Results = append(doc.Results, r)
	}
	if repeat > 1 {
		printCalibration(doc)
	}
	return doc, nil
}

// printCalibration compares the first two sets of one invocation, metric
// by metric: a ratio beyond the bound means the trials are too short for
// that bound (lengthen them; only setup_s gets a wider bound instead).
func printCalibration(doc *document) {
	fmt.Println("\nself-calibration: set 2 against set 1 of the same commit")
	fmt.Printf("%-20s %-20s %14s %14s %9s %7s  %s\n", "workload", "metric", "set 1", "set 2", "2/1", "bound", "verdict")
	for _, w := range workloads {
		a, b := doc.find(w.name, 1), doc.find(w.name, 2)
		if a == nil || b == nil {
			continue
		}
		for _, def := range endToEnd {
			va, vb := a.Metrics[def.name].Value, b.Metrics[def.name].Value
			verdict := "ok"
			if worsening(def, va, vb) > def.bound || worsening(def, vb, va) > def.bound {
				verdict = "beyond the bound: lengthen the trials"
			}
			fmt.Printf("%-20s %-20s %14.6g %14.6g %9.4f %6.0f%%  %s\n",
				w.name, def.name, va, vb, vb/va, 100*def.bound, verdict)
		}
	}
}

// find returns the end-to-end result of a workload in a set.
func (d *document) find(workload string, set int) *result {
	for _, r := range d.Results {
		if r.Workload == workload && r.Trace == 0 && (r.Set == set || set == 1 && r.Set == 0) {
			return r
		}
	}
	return nil
}

func main() {
	// Pinned so that a box with more cores does not change what is
	// measured; recorded in every document.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 4))

	var s settings
	workloadName := flag.String("workload", "", "run one workload (default: all, both passes): "+strings.Join(workloadNames(), ", "))
	flag.Int64Var(&s.seed, "seed", 1, "derives the chaos plan seeds and the kill-schedule seeds")
	flag.IntVar(&s.seconds, "seconds", 10, "time budget of one workload in one mode")
	trace := flag.Int("trace", 0, "with -workload: 0 prints the end-to-end metrics, 1 the per-layer metrics of the traced pass")
	flag.BoolVar(&s.quick, "quick", false, "shrink every batch ~50x for a smoke run; the output is marked not comparable")
	flag.StringVar(&s.traceOut, "trace-out", "", "write the traced pass's spans to this file as JSON lines")
	out := flag.String("out", "", "write the results as a JSON document to this file (the input of -compare)")
	compare := flag.Bool("compare", false, "compare two documents: bench -compare old.json new.json; exit 1 on a regression")
	repeat := flag.Int("repeat", 1, "without -workload: measure the whole set this many times and print the calibration table")
	flag.Parse()

	if err := run(s, *workloadName, *trace, *out, *compare, *repeat, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

var errRegressed = errors.New("at least one metric regressed")

func run(s settings, name string, trace int, out string, compare bool, repeat int, args []string) error {
	if compare {
		if len(args) != 2 {
			return errors.New("-compare needs two files: old.json new.json")
		}
		return compareFiles(args[0], args[1])
	}
	if len(args) != 0 {
		return fmt.Errorf("unexpected arguments %q", args)
	}
	if s.seconds < 1 || trace < 0 || trace > 1 || repeat < 1 {
		return errors.New("-seconds and -repeat must be at least 1, -trace 0 or 1")
	}
	if s.quick {
		fmt.Println("QUICK RUN: batches shrunk ~50x; numbers are not comparable with full runs")
	}
	if name == "" {
		doc, err := runAll(s, repeat)
		if err != nil {
			return err
		}
		if out != "" {
			if err := writeDocument(out, doc); err != nil {
				return err
			}
		}
		for _, r := range doc.Results {
			if !r.Correct {
				return fmt.Errorf("%s: %d of %d operations failed their output check", r.Workload, r.Failed, r.Attempted)
			}
		}
		return nil
	}
	w := findWorkload(name)
	if w == nil {
		return fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloadNames(), ", "))
	}
	var r *result
	var err error
	defs := endToEnd
	if trace == 1 {
		r, err = traced(w, s)
		defs = perLayer
	} else {
		r, err = measure(w, s)
	}
	if err != nil {
		return err
	}
	printResult(r, defs)
	if out != "" {
		doc := &document{Env: currentEnv(), Seed: s.seed, Seconds: s.seconds, Quick: s.quick, Results: []*result{r}}
		if err := writeDocument(out, doc); err != nil {
			return err
		}
	}
	line, err := json.Marshal(r.outcome)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !r.Correct {
		return fmt.Errorf("%s: %d of %d operations failed their output check", r.Workload, r.Failed, r.Attempted)
	}
	return nil
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}
