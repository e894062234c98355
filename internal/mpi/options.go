package mpi

import (
	"time"

	"repro/internal/chaos"
	"repro/internal/membership"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/reliable"
	"repro/internal/trace"
	"repro/internal/transport"
)

// Option configures a World under construction; pass options to NewWorld.
// Options compose left to right, so a later option overrides an earlier
// one for the same field.
type Option func(*Config)

// WithFabric selects the transport that moves packets between ranks.
// The default (nil) is the in-memory Local fabric.
func WithFabric(f transport.Fabric) Option {
	return func(cfg *Config) { cfg.Fabric = f }
}

// WithTracer attaches an event recorder to the world.
func WithTracer(t *trace.Recorder) Option {
	return func(cfg *Config) { cfg.Tracer = t }
}

// WithMetrics attaches a per-rank operation counter table to the world.
func WithMetrics(m *metrics.World) Option {
	return func(cfg *Config) { cfg.Metrics = m }
}

// WithObservability attaches a latency-histogram registry: per-rank
// send-completion, receive-wait, validate_all, agreement-round, election,
// retry-backoff, chaos-delay and failure-notification timings, cheap
// enough to stay on under benchmark load. The registry should be sized to
// the world (obs.NewRegistry(size)).
func WithObservability(r *obs.Registry) Option {
	return func(cfg *Config) { cfg.Obs = r }
}

// WithHook installs an operation-boundary observer, the attachment point
// for deterministic fault injection.
func WithHook(h HookFunc) Option {
	return func(cfg *Config) { cfg.Hook = h }
}

// WithDeadline bounds Run's wall-clock time; on expiry the world is torn
// down and Run reports ErrTimedOut with the still-running ranks. Zero
// means no limit.
func WithDeadline(d time.Duration) Option {
	return func(cfg *Config) { cfg.Deadline = d }
}

// WithNotifyDelay delays failure notifications to surviving ranks,
// modelling failure-detection latency. Zero delivers synchronously.
func WithNotifyDelay(d time.Duration) Option {
	return func(cfg *Config) { cfg.NotifyDelay = d }
}

// WithDetector selects the failure-detection mode: DetectorOracle (the
// default — failures are known the instant they are injected) or
// DetectorSwim (failures are detected by SWIM-style randomized probing
// with gossip dissemination, O(1) control traffic per rank, and converted
// to fail-stop by fencing before being reported).
func WithDetector(mode string) Option {
	return func(cfg *Config) { cfg.Detector = mode }
}

// WithSwim selects the SWIM membership detector and tunes its monitors;
// zero option fields take the membership package defaults.
func WithSwim(opts membership.Options) Option {
	return func(cfg *Config) {
		cfg.Detector = DetectorSwim
		cfg.Swim = opts
	}
}

// WithAgreement selects the fan-out of validate_all's spanning tree:
// AgreementCoordinator (the default — the lowest alive rank is every
// member's parent, the paper-faithful single coordinator) or
// AgreementTree (at most two children per rank). The protocol is the same.
func WithAgreement(mode string) Option {
	return func(cfg *Config) { cfg.Agreement = mode }
}

// WithChaos injects seeded network faults from the plan between the
// engines and the fabric. It implies the reliability sublayer
// (WithReliability), which is what lets the runtime run through the
// injected drop/duplication/corruption rather than hang on them.
func WithChaos(plan *chaos.Plan) Option {
	return func(cfg *Config) { cfg.Chaos = plan }
}

// WithReliability enables the reliability sublayer — per-link sequence
// numbers, acks, receiver-side dedup, bounded retransmission, and
// escalation of exhausted links to fail-stop — without a chaos plan.
// Zero option fields take the reliable package defaults.
func WithReliability(opts reliable.Options) Option {
	return func(cfg *Config) {
		cfg.Reliable = true
		cfg.ReliableOptions = opts
	}
}

// WithElastic enables elastic-world repair: confirmed-dead slots may be
// reoccupied at the next generation via World.Spawn, and automatically
// when opts.AutoRespawn is set. See ElasticOptions.
func WithElastic(opts ElasticOptions) Option {
	return func(cfg *Config) {
		o := opts
		cfg.Elastic = &o
	}
}

// WithReplication enables replication mode: Config.Size is interpreted as
// the LOGICAL world size and every logical rank is backed by opts.R
// physical replicas that all run the rank function. Replica deaths are
// absorbed by promotion; the application sees a failure only when a
// logical rank's last replica dies. See ReplicationOptions.
func WithReplication(opts ReplicationOptions) Option {
	return func(cfg *Config) {
		o := opts
		cfg.Replication = &o
	}
}
