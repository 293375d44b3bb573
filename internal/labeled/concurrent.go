package labeled

import "parcc/internal/par"

// LabelsOnInto returns component labels exactly like (*Forest).LabelsInto
// — the root of every vertex's tree, written into dst when it has the
// capacity (a short dst is replaced by a fresh array) — but computes them
// by concurrent pointer jumping on the given runtime.  Like Labels it is
// an uncharged output helper, so routing it through the runtime changes
// wall clock only, never the model costs.  A nil or single-proc runtime
// runs the sequential memoized chase instead.  The forest itself is not
// mutated.  The zero-alloc serving path of Solver.SolveInto.
func LabelsOnInto(rt *par.Runtime, f *Forest, dst []int32) []int32 {
	if rt.Procs() <= 1 {
		return f.LabelsInto(dst)
	}
	out := dst
	if cap(out) < len(f.P) {
		out = make([]int32, len(f.P))
	}
	out = out[:len(f.P)]
	rt.Run(len(out), func(v int) { out[v] = f.P[v] })
	par.Compress(rt, out)
	return out
}
