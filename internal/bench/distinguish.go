package bench

import (
	"parcc/internal/graph"
	"parcc/internal/graph/gen"
	"parcc/internal/labeled"
	"parcc/internal/ltz"
	"parcc/internal/pram"
	"parcc/internal/prim"
	"parcc/internal/solve"
)

// Decision is the outcome of a round-budgeted connectivity probe.
type Decision int

// Probe outcomes.
const (
	Unknown      Decision = iota // budget exhausted before full contraction
	OneComponent                 // instance fully contracted to one root
	ManyComponents
)

// BudgetedDecide runs the Theorem-2 contraction for at most `rounds`
// EXPAND-MAXLINK rounds and reports whether it can already certify the
// component count.  A contraction algorithm certifies only at fixpoint —
// before that, remaining non-loop edges could still merge roots — which is
// exactly the information constraint behind the 2-CYCLE conjecture
// (Appendix A): distinguishing one n-cycle from two n/2-cycles requires
// enough rounds for information to travel the cycle.
func BudgetedDecide(g *graph.Graph, rounds int, seed uint64) Decision {
	m := pram.New(pram.Seed(seed))
	f := labeled.New(g.N)
	V := make([]int32, g.N)
	m.Iota32(V)
	p := ltz.DefaultParams(g.N)
	p.Seed = seed
	st := ltz.NewState(solve.New(m), f, V, g.Edges, p)
	st.Run(rounds)
	if !st.Done() {
		return Unknown
	}
	if graph.NumLabels(f.Labels()) == 1 {
		return OneComponent
	}
	return ManyComponents
}

// RoundsToDistinguish returns the minimal round budget at which the probe
// resolves both 2-CYCLE instances of size n correctly, averaged over the
// given seeds (it returns the mean of the per-seed minima).  The Appendix-A
// lower bound predicts growth proportional to log n.
func RoundsToDistinguish(n int, seeds []uint64) float64 {
	one := gen.Cycle(n)
	two := gen.TwoCycles(n)
	var total float64
	for _, s := range seeds {
		r := 1
		for ; r < 4*int(prim.Log2Ceil(n))+64; r++ {
			d1 := BudgetedDecide(one, r, s)
			d2 := BudgetedDecide(two, r, s)
			if d1 == OneComponent && d2 == ManyComponents {
				break
			}
		}
		total += float64(r)
	}
	return total / float64(len(seeds))
}
