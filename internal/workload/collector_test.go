package workload

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/trace"
)

// TestCollectorCoversAllFamilies is the observability-plumbing gate: one
// swim-mode detection world, one replication world and one E24
// durability world absorbed into a Collector must surface EVERY
// histogram family and EVERY counter in the -json output — the schema is
// complete and stable — and the families recent PRs added
// (swim_probe_rtt, gossip_convergence, replica_promotion,
// replication_overhead, and now rereplication_latency) must carry real
// samples, proving the new hooks flow end to end through obs -> World ->
// Collector -> JSON.
func TestCollectorCoversAllFamilies(t *testing.T) {
	c := NewCollector()
	opt := Options{Quick: true, Seed: 1, Collector: c}
	if _, err := runDetectionWorld(opt, 16); err != nil {
		t.Fatal(err)
	}
	// Seed 1 kills physical slot 1 — a primary, so the run exercises a
	// promotion and its latency sample, not just the chain counters.
	rcfg := replicaCfg{r: 2, kill: true, laps: replicaBaseLaps, rates: repairRates}
	if _, err := runReplicaWorld(opt, rcfg, 1, nil, nil); err != nil {
		t.Fatal(err)
	}
	// One durability world with a forward-window kill (seed 2 is even)
	// lights the tail-ack counters (chain_acks, a guaranteed
	// chain_resends) and the auto re-replication pipeline (replica_refills
	// + rereplication_latency samples).
	if _, err := runDurabilityWorld(opt, 2, nil); err != nil {
		t.Fatal(err)
	}
	if c.Runs() < 3 {
		t.Fatalf("collector absorbed %d worlds, want 3", c.Runs())
	}

	var buf bytes.Buffer
	if err := c.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var out struct {
		Runs       int                 `json:"runs"`
		Counters   map[string]int64    `json:"counters"`
		Histograms map[string]histJSON `json:"histograms"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("ftbench -json output is not valid JSON: %v", err)
	}

	// Schema completeness: every family and counter appears by name even
	// when it has no samples in this particular run.
	for _, f := range obs.Families() {
		if _, ok := out.Histograms[f.String()]; !ok {
			t.Errorf("histogram family %q missing from JSON output", f)
		}
	}
	for _, ctr := range metrics.Counters() {
		if _, ok := out.Counters[ctr.String()]; !ok {
			t.Errorf("counter %q missing from JSON output", ctr)
		}
	}

	// The families and counters these worlds must actually light up.
	// message_e2e_latency comes from the HLC stamps every tokened data
	// message carries; recovery_total from the kill -> promotion incident.
	for _, name := range []string{"swim_probe_rtt", "gossip_convergence", "suspicion_latency",
		"replica_promotion", "replication_overhead", "rereplication_latency",
		"message_e2e_latency", "recovery_total"} {
		if out.Histograms[name].Count == 0 {
			t.Errorf("family %q has no samples after the swim + replication + durability runs\n%s", name, buf.String())
		}
	}
	for _, name := range []string{"control_frames", "swim_probes", "gossip_events", "gossip_learns",
		"replica_sends", "replica_promotions", "replica_dedup_drops",
		"replica_refills", "chain_resends", "chain_acks"} {
		if out.Counters[name] == 0 {
			t.Errorf("counter %q is zero after the swim + replication + durability runs", name)
		}
	}
	if out.Counters["gossip_decode_errors"] != 0 {
		t.Errorf("%d gossip decode errors on a clean fabric", out.Counters["gossip_decode_errors"])
	}
}

// TestCollectorEmitsAuditBlock: the -json audit summary appears exactly
// when a run contributed a conservation audit, with the totals summed.
func TestCollectorEmitsAuditBlock(t *testing.T) {
	c := NewCollector()
	var buf bytes.Buffer
	if err := c.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var out struct {
		Audit *auditJSON `json:"audit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if out.Audit != nil {
		t.Fatal("audit block must be omitted when no run was audited")
	}

	c.AbsorbAudit(&trace.AuditReport{Sends: 10, Delivers: 8, Accounted: 2})
	c.AbsorbAudit(&trace.AuditReport{Sends: 5, Delivers: 5, Unaccounted: []uint64{7}})
	buf.Reset()
	if err := c.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if out.Audit == nil {
		t.Fatal("audit block missing after AbsorbAudit")
	}
	want := auditJSON{AuditedRuns: 2, Sends: 15, Delivers: 13, Accounted: 2, Unaccounted: 1}
	if *out.Audit != want {
		t.Fatalf("audit block %+v, want %+v", *out.Audit, want)
	}
}
