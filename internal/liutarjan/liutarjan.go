// Package liutarjan implements the Liu–Tarjan family of simple concurrent
// connected-components algorithms [LT19, LT22] — the framework the paper's
// SHORTCUT and ALTER primitives come from (§5.2.1 cites it directly) and
// the conceptual ancestor of [LTZ20].
//
// An algorithm in the framework is a round that composes primitive steps on
// the parent forest and edge set:
//
//   - connect steps direct edges at parents and hook the larger root onto
//     the smaller: parent-connect (hook p(u) of an edge end), extreme-
//     connect (hook using the minimum parent over each vertex's incident
//     edges), or root-connect (hook only when the end's parent is a root);
//   - shortcut: p(v) ← p(p(v));
//   - alter: replace each edge (u,v) by (p(u), p(v)).
//
// Rounds repeat until no parent changes and every edge is a loop.  All
// variants run in O(log² n) CRCW time with O(m) work per round; their
// simplicity (each round is a constant number of full passes) is the
// baseline the sophisticated Stage-1/2 machinery is measured against.
package liutarjan

import (
	"fmt"
	"slices"

	"parcc/internal/graph"
	"parcc/internal/labeled"
	"parcc/internal/pram"
)

// Variant names a connect rule.
type Variant int

// Connect rules.
const (
	// ParentConnect hooks via each edge independently ("P" in [LT19]).
	ParentConnect Variant = iota
	// ExtremeConnect aggregates the minimum candidate parent per vertex
	// before hooking ("E").
	ExtremeConnect
	// RootConnect hooks only roots ("R").
	RootConnect
)

func (v Variant) String() string {
	switch v {
	case ParentConnect:
		return "parent-connect"
	case ExtremeConnect:
		return "extreme-connect"
	case RootConnect:
		return "root-connect"
	default:
		return fmt.Sprintf("Variant(%d)", int(v))
	}
}

// Config selects a framework algorithm.
type Config struct {
	Connect Variant
	// Alter replaces edge endpoints by parents each round (the "A"
	// suffix); without it edges are re-read through the parent array.
	Alter bool
	// MaxRounds is a safety bound (0: 8·log²n + 64).
	MaxRounds int
}

// Solve runs the selected variant to fixpoint and returns the forest and
// the number of rounds used.
func Solve(m *pram.Machine, g *graph.Graph, cfg Config) (*labeled.Forest, int) {
	n := g.N
	f := labeled.New(n)
	p := f.P
	E := slices.Clone(g.Edges)

	maxRounds := cfg.MaxRounds
	if maxRounds <= 0 {
		l := 1
		for 1<<l < n+2 {
			l++
		}
		maxRounds = 8*l*l + 64
	}

	old := make([]int32, n)
	cand := make([]int64, n) // extreme-connect aggregation
	changed := []int32{1}
	rounds := 0
	for changed[0] != 0 && rounds < maxRounds {
		rounds++
		changed[0] = 0
		// Snapshot: connect steps read the pre-round state.
		m.For(n, func(v int) { old[v] = pram.Load32(p, v) })

		switch cfg.Connect {
		case ParentConnect:
			m.For(len(E), func(i int) {
				e := E[i]
				connect(p, old, e.U, e.V, changed)
				connect(p, old, e.V, e.U, changed)
			})
		case RootConnect:
			m.For(len(E), func(i int) {
				e := E[i]
				if old[old[e.U]] == old[e.U] {
					connect(p, old, e.U, e.V, changed)
				}
				if old[old[e.V]] == old[e.V] {
					connect(p, old, e.V, e.U, changed)
				}
			})
		case ExtremeConnect:
			m.For(n, func(v int) { cand[v] = int64(old[v]) })
			m.For(len(E), func(i int) {
				e := E[i]
				pram.Min64(cand, int(old[e.U]), int64(old[e.V]))
				pram.Min64(cand, int(old[e.V]), int64(old[e.U]))
			})
			m.For(n, func(v int) {
				c := int32(cand[v])
				if c < old[v] && old[v] == int32(v) { // v is a root label target
					pram.Store32(p, v, c)
					pram.SetFlag(changed, 0)
				}
			})
		}

		// Shortcut (synchronous two-pass).
		tmp := old // reuse as gather buffer
		m.For(n, func(v int) {
			pv := pram.Load32(p, v)
			gp := pram.Load32(p, int(pv))
			if gp != pv {
				pram.SetFlag(changed, 0)
			}
			tmp[v] = gp
		})
		m.For(n, func(v int) { pram.Store32(p, v, tmp[v]) })

		if cfg.Alter {
			E = labeled.Alter(m, f, E)
			if len(E) == 0 && changed[0] == 0 {
				break
			}
		}
	}
	labeled.FlattenAll(m, f)
	return f, rounds
}

// connect hooks the parent of u onto the parent of v when that lowers it,
// reading the pre-round snapshot and writing the live array (minimum
// resolution keeps the forest acyclic under any write interleaving).
func connect(p, old []int32, u, v int32, changed []int32) {
	pu, pv := old[u], old[v]
	if pv < pu {
		// Hook monotonically: only ever lower a parent pointer.
		for {
			cur := pram.Load32(p, int(pu))
			if pv >= cur {
				return
			}
			if casInt32(p, int(pu), cur, pv) {
				pram.SetFlag(changed, 0)
				return
			}
		}
	}
}

// casInt32 is a compare-and-swap on a plain int32 slice cell.
func casInt32(a []int32, i int, oldv, newv int32) bool {
	return pram.CAS32(a, i, oldv, newv)
}

// Name renders a config like "parent-connect+alter".
func Name(cfg Config) string {
	s := cfg.Connect.String()
	if cfg.Alter {
		s += "+alter"
	}
	return s
}
