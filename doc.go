// Package repro is a Go reproduction of "Building a Fault Tolerant MPI
// Application: A Ring Communication Example" (Joshua Hursey and Richard
// L. Graham, Oak Ridge National Laboratory, 2011).
//
// The repository builds, from scratch and on the standard library only:
//
//   - a message-passing runtime with MPI-1-style point-to-point matching,
//     non-blocking requests, communicators and collectives
//     (internal/mpi, internal/collective, internal/transport);
//   - the MPI Forum Fault Tolerance Working Group's run-through
//     stabilization extensions the paper is written against: per-rank
//     validate operations, per-communicator failure recognition,
//     MPI_ERR_RANK_FAIL_STOP semantics, and validate_all as a built-in
//     fault-tolerant consensus (internal/mpi, internal/detector);
//   - a deterministic fault injector (internal/inject) and an event
//     tracer (internal/trace) that replay the paper's failure-scenario
//     figures exactly;
//   - the paper's contribution — the fault-tolerant ring in every variant
//     discussed (internal/core) — plus leader election
//     (internal/election) and two further applications built on the same
//     checklist: heat diffusion (internal/heat) and a Gropp-Lusk
//     manager/worker (internal/managerworker);
//   - an experiment harness regenerating each figure as a table
//     (internal/workload, cmd/ftbench) and traced scenario replays
//     (cmd/scenario).
//
// See DESIGN.md for the system inventory and the per-experiment index,
// and EXPERIMENTS.md for the paper-vs-measured record. Every experiment
// is an `ftbench -exp eN` table; steady-state timing is the bench module's
// job (`go run -C bench .`).
package repro
