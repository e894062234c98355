// Package mpitest holds helpers for tests that drive an mpi world from
// outside package mpi.
package mpitest

import "repro/internal/mpi"

// AwaitKnownAlive blocks until p's own engine believes at most alive ranks
// are left, or p itself goes down. It replaces
//
//	for p.Registry().AliveCount() > alive { time.Sleep(time.Millisecond) }
//
// which races the failure notification: the registry's count drops before
// the engines are told, so the loop can exit while p still believes a dead
// rank alive (see mpi.AwaitKnownFailed).
func AwaitKnownAlive(p *mpi.Proc, alive int) { mpi.AwaitKnownFailed(p, p.Size()-alive) }
