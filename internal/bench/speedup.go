package bench

import (
	"fmt"
	"runtime"
	"time"

	"parcc/internal/baseline"
	"parcc/internal/core"
	"parcc/internal/graph/gen"
	"parcc/internal/par"
	"parcc/internal/pram"
	"parcc/internal/solve"
)

// SPSelfSpeedup measures the concurrent backend's self-speedup T1/TP: the
// same algorithm, same seed, same charged PRAM costs, run on the
// internal/par pool at increasing procs.  The graph is an expander (the
// paper's best case, λ = Θ(1)), n = 2^18 at full scale.  Per procs
// setting: the paper's CONNECTIVITY executing its charged steps on the
// pool, the barrier-free cas-unite kernel as the wall-clock reference
// point, the one-worker union-find pass that cas-unite must beat for the
// pool to pay (it ignores procs, so its wall is the bar for cas-unite's at
// every width, and its T1/TP reads ≈1), and min-label propagation (E10's
// label-propagation baseline, charged on the machine).
func SPSelfSpeedup(c Config) *Table {
	n := 1 << 16
	if c.Scale == Full {
		n = 1 << 18
	}
	d := 8
	g := gen.RandomRegular(n, d, c.seed())

	maxP := c.procs()
	var plist []int
	for p := 1; p < maxP; p *= 2 {
		plist = append(plist, p)
	}
	plist = append(plist, maxP)

	t := &Table{
		ID:    "SP",
		Title: "concurrent backend self-speedup (T1/TP)",
		Claim: "executing the charged PRAM steps on real goroutines yields wall-clock " +
			"self-speedup on an expander while the charged costs stay model-level " +
			"(work/(m+n) flat; rounds may vary slightly with the arbitrary-write winners)",
		Columns: []string{"algorithm", "procs", "wall", "T1/TP", "steps", "work/(m+n)"},
	}
	t.Note("expander RandomRegular(n=%d, d=%d); times are single runs on %d CPUs",
		n, d, runtime.NumCPU())
	if runtime.NumCPU() < 2 {
		t.Note("this host exposes a single CPU: goroutines timeshare one core, so " +
			"T1/TP cannot exceed 1 here; on a P-core machine the same command " +
			"reports real self-speedup")
	}

	type runner struct {
		name string
		run  func(rt *par.Runtime, m *pram.Machine) (steps, work int64)
	}
	runners := []runner{
		{"fls", func(rt *par.Runtime, m *pram.Machine) (int64, int64) {
			p := core.Default(g.N)
			p.Seed ^= c.seed()
			core.Connectivity(solve.New(m), g, p, nil)
			return m.Steps(), m.Work()
		}},
		{"cas-unite", func(rt *par.Runtime, m *pram.Machine) (int64, int64) {
			par.Components(rt, g, nil)
			return -1, -1 // charged on the parcc facade, not here
		}},
		{"union-find", func(rt *par.Runtime, m *pram.Machine) (int64, int64) {
			par.Components(nil, g, nil)
			return -1, -1 // uncharged, like the sequential baselines
		}},
		{"min-label", func(rt *par.Runtime, m *pram.Machine) (int64, int64) {
			baseline.LabelProp(m, g)
			return m.Steps(), m.Work()
		}},
	}

	norm := float64(g.M() + g.N)
	for _, r := range runners {
		var t1 time.Duration
		for _, p := range plist {
			rt := par.New(par.Procs(p), par.Seed(c.seed()))
			m := pram.New(pram.Seed(c.seed()), pram.OnRuntime(rt))
			t0 := time.Now()
			steps, work := r.run(rt, m)
			wall := time.Since(t0)
			rt.Close()
			if p == 1 {
				t1 = wall
			}
			sp := float64(t1) / float64(wall)
			stepCell, workCell := "-", "-"
			if steps >= 0 {
				stepCell = fmt.Sprint(steps)
			}
			if work >= 0 {
				workCell = fmt.Sprintf("%.4g", float64(work)/norm)
			}
			t.Add(r.name, p, wall.Round(time.Microsecond), fmt.Sprintf("%.2fx", sp),
				stepCell, workCell)
		}
	}
	return t
}
