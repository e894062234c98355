package workload

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/mpi"
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
	// promotion and its latency sample, not just the tail-ack counters.
	rcfg := replicaCfg{r: 2, kill: true, laps: replicaBaseLaps, rates: repairRates}
	if _, err := runReplicaWorld(opt, rcfg, 1, nil, nil); err != nil {
		t.Fatal(err)
	}
	// One durability world with a sender-in-flight kill (seed 2 is even)
	// lights the tail-ack counters (chain_acks, a guaranteed
	// chain_resends) and the auto re-replication pipeline (replica_refills
	// + rereplication_latency samples).
	if _, err := runDurabilityWorld(opt, 2, nil); err != nil {
		t.Fatal(err)
	}
	// Mirror pairing duplicates a message only when a failover does, and
	// the worlds above leave it to timing; this one makes it certain.
	if err := runFailoverDuplicate(opt); err != nil {
		t.Fatal(err)
	}
	if c.Runs() < 4 {
		t.Fatalf("collector absorbed %d worlds, want 4", c.Runs())
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

// runFailoverDuplicate runs a replicated world whose failover certainly
// duplicates a message: logical 0's primary sends to logical 1 and dies
// once logical 1's primary took the message; its standby sends only after
// the death is handled, so it also covers logical 1's primary, which
// drops that second copy by its replication sequence.
func runFailoverDuplicate(opt Options) error {
	var took atomic.Bool
	wait := func(what string, done func() bool) error {
		for end := time.Now().Add(soakDeadline); !done(); time.Sleep(100 * time.Microsecond) {
			if time.Now().After(end) {
				return fmt.Errorf("timed out waiting for %s", what)
			}
		}
		return nil
	}
	_, err := opt.runWorld(1, soakWorld{size: 2, slots: 4, victims: []int{0},
		opts: []mpi.Option{mpi.WithReplication(mpi.ReplicationOptions{R: 2})},
		body: func(w *mpi.World) func(*mpi.Proc) error {
			return func(p *mpi.Proc) error {
				c := p.World()
				c.SetErrhandler(mpi.ErrorsReturn)
				if p.Rank() == 1 {
					_, _, err := c.Recv(0, 1)
					if p.PhysRank() == 1 {
						took.Store(true)
					}
					return err
				}
				if p.PhysRank() == 2 {
					if err := wait("the primary's death", func() bool { return len(w.LiveReplicas(0)) == 1 }); err != nil {
						return err
					}
				}
				if err := c.Send(1, 1, []byte{1}); err != nil {
					return err
				}
				if p.PhysRank() == 0 {
					if err := wait("the receiver's primary", took.Load); err != nil {
						return err
					}
					p.Die()
				}
				return nil
			}
		}})
	return err
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
