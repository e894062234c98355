package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"sort"
	"testing"
)

func TestSupportedTail(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{0, 0}, {99, 0}, {100, 90}, {199, 90}, {200, 95}, {999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9}} {
		if got := supportedTail(c.n); got != c.want {
			t.Errorf("supportedTail(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

func TestPercentileAndMedian(t *testing.T) {
	vs := make([]float64, 100)
	for i := range vs {
		vs[i] = float64(100 - i) // unsorted on purpose
	}
	if got := percentile(vs, 90); got != 90 {
		t.Errorf("p90 of 1..100 = %g, want 90 (nearest rank: ten samples beyond it)", got)
	}
	if got := percentile(vs, 99.9); got != 100 {
		t.Errorf("p99.9 of 1..100 = %g, want 100", got)
	}
	if got := median(vs); got != 50.5 {
		t.Errorf("median of 1..100 = %g, want 50.5", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median of 3 values = %g, want 2", got)
	}
}

// TestSpreadMatchesDriver pins spread to what the driver computes:
// Python's statistics.quantiles(values, n=4), q3 - q1 over the median.
func TestSpreadMatchesDriver(t *testing.T) {
	for _, c := range []struct {
		vs   []float64
		want float64
	}{
		// python3 -c "import statistics as s; v=[...]; q=s.quantiles(v,n=4); print((q[2]-q[0])/s.median(v))"
		{[]float64{10, 12, 11, 13, 9, 10.5, 11.5, 12.5, 9.5, 14}, 0.24444444444444444},
		{[]float64{1, 2, 4}, 1.5},
		{[]float64{5, 5}, 0},
	} {
		if got := spread(c.vs); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("spread(%v) = %.16g, want %.16g", c.vs, got, c.want)
		}
	}
}

// TestSegmentsTile checks the span fabric's invariant on a 200-lap traced
// ring: every hop's message is matched, and the five segments between
// consecutive send hooks add up to the traced hop time.
func TestSegmentsTile(t *testing.T) {
	const laps = 200
	w := findWorkload("ring.local.small")
	ins := newInstruments()
	tr, err := w.trial(laps, 1, ins)
	if err != nil {
		t.Fatal(err)
	}
	if tr.failed != 0 {
		t.Fatalf("%d of %d laps wrong", tr.failed, tr.attempted)
	}
	st := ins.analyze(true)
	if st.chainMsgs != tr.ops {
		t.Errorf("matched %d messages, want one per hop (%d)", st.chainMsgs, tr.ops)
	}
	if ratio := st.sumNs / (tr.opUs * 1e3); ratio < 0.95 || ratio > 1.05 {
		t.Errorf("segments sum to %.0f ns, traced hop is %.0f ns: ratio %.3f outside 5%%", st.sumNs, tr.opUs*1e3, ratio)
	}
	if st.frames != tr.ops || st.ctlFrames != 0 {
		t.Errorf("counted %d frames (%d control), want %d data frames", st.frames, st.ctlFrames, tr.ops)
	}
	if want := 6*tr.ops - 1; len(st.spans) != want {
		t.Errorf("kept %d spans, want %d (six per hop, the last hop has no next send)", len(st.spans), want)
	}
}

func keys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func names(defs []metricDef) []string {
	out := make([]string, len(defs))
	for i, d := range defs {
		out[i] = d.name
	}
	sort.Strings(out)
	return out
}

// TestEveryWorkloadQuick runs each workload by name, both passes, with
// shrunken batches: no operation may fail and the metric key sets must be
// exactly the declared ones.
func TestEveryWorkloadQuick(t *testing.T) {
	s := settings{seed: 3, seconds: 1, quick: true}
	for _, w := range workloads {
		r, err := measure(w, s)
		if err != nil {
			t.Fatal(err)
		}
		if r.Failed != 0 || r.Attempted < 1 || !r.Correct {
			t.Errorf("%s: failed %d of %d", w.name, r.Failed, r.Attempted)
		}
		if got, want := keys(r.Metrics), names(endToEnd); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: end-to-end keys %v, want %v", w.name, got, want)
		}
		for name, m := range r.Metrics {
			if !(m.Value > 0) {
				t.Errorf("%s: %s = %g, want a positive value", w.name, name, m.Value)
			}
		}
		r, err = traced(w, s)
		if err != nil {
			t.Fatal(err)
		}
		if r.Failed != 0 || !r.Correct {
			t.Errorf("%s traced: failed %d of %d", w.name, r.Failed, r.Attempted)
		}
		if got, want := keys(r.Metrics), names(perLayer); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: per-layer keys %v, want %v", w.name, got, want)
		}
	}
}

// TestBenchmarkJSON checks that BENCHMARK.json declares exactly what the
// program prints: workloads, metrics, units, directions and bounds.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type def struct {
		Name, Unit, Better string
		Bound              float64
	}
	var doc struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []def `json:"end_to_end"`
		PerLayer   []def `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	var top map[string]json.RawMessage
	if err := json.Unmarshal(raw, &top); err != nil {
		t.Fatal(err)
	}
	if got, want := keys(top), []string{"command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads"}; !reflect.DeepEqual(got, want) {
		t.Errorf("top-level keys %v, want %v", got, want)
	}
	if !reflect.DeepEqual(doc.Paths, []string{"bench"}) || !reflect.DeepEqual(doc.Command, []string{"bash", "bench/run.sh"}) {
		t.Errorf("paths %v, command %v", doc.Paths, doc.Command)
	}
	if doc.RunSeconds < 1 || doc.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", doc.RunSeconds)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d implemented", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: declared %q (%q), implemented %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
		if len(w.Why) > 200 {
			t.Errorf("%s: why has %d characters, limit 200", w.Name, len(w.Why))
		}
	}
	check := func(kind string, got []def, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d declared, %d implemented", kind, len(got), len(want))
		}
		for i, g := range got {
			w := want[i]
			if g.Name != w.name || g.Unit != w.unit || g.Better != w.better || g.Bound != w.bound {
				t.Errorf("%s %d: declared %+v, implemented %+v", kind, i, g, w)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd)
	check("per_layer", doc.PerLayer, perLayer)
	for _, d := range endToEnd {
		if d.bound <= 0 || d.bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", d.name, d.bound)
		}
	}
}

func TestVerdict(t *testing.T) {
	def := metricDef{"op_us", "us", "lower", 0.10}
	mk := func(median float64, trials ...float64) *result {
		return &result{
			outcome: outcome{Metrics: map[string]metric{"op_us": {median, "us"}}},
			Trials:  map[string][]float64{"op_us": trials},
		}
	}
	tight := []float64{10, 10.1, 9.9, 10, 10.05}
	loose := []float64{8, 12, 10, 7, 13}
	for _, c := range []struct {
		name     string
		old, new *result
		want     string
	}{
		{"same", mk(10, tight...), mk(10.5, tight...), "ok"},
		{"slower beyond the bound", mk(10, tight...), mk(11.5, tight...), "regressed"},
		{"faster", mk(10, tight...), mk(5, tight...), "ok"},
		{"noisy", mk(10, loose...), mk(10.2, tight...), "unresolved"},
		{"noisy but clearly slower", mk(10, loose...), mk(12, tight...), "regressed"},
	} {
		if got := verdict(def, c.old, c.new); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
	failing := mk(10, tight...)
	failing.Failed = 1
	if got := verdict(def, mk(10, tight...), failing); got != "regressed" {
		t.Errorf("more failed operations: verdict %q, want regressed", got)
	}
	higher := metricDef{"goodput_MBps", "MB/s", "higher", 0.10}
	if w := worsening(higher, 100, 80); math.Abs(w-0.2) > 1e-12 {
		t.Errorf("worsening of a higher-is-better metric falling 100 -> 80 = %g, want 0.2", w)
	}
}
