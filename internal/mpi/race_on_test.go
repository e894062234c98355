//go:build race

package mpi

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = true
