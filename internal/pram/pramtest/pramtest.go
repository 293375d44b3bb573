// Package pramtest builds runtime-backed PRAM machines for tests, so that
// tests exercising concurrent loop bodies run them on the same
// internal/par runtime the concurrent backend uses.
package pramtest

import (
	"testing"

	"parcc/internal/par"
	"parcc/internal/pram"
)

// New returns a machine built with opts whose loops run on a fresh
// runtime of the given parallelism (procs < 1 selects runtime.NumCPU()).
// The runtime is closed when the test ends.
func New(tb testing.TB, procs int, opts ...pram.Option) *pram.Machine {
	rt := par.New(par.Procs(procs))
	tb.Cleanup(rt.Close)
	return pram.New(append(opts, pram.OnRuntime(rt))...)
}
