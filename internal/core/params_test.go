package core

import (
	"testing"

	"parcc/internal/graph/gen"
	"parcc/internal/pram"
	"parcc/internal/pram/pramtest"
	"parcc/internal/solve"
)

func TestDefaultParamsSane(t *testing.T) {
	for _, n := range []int{0, 1, 100, 1 << 20} {
		p := Default(n)
		if p.B0 < 4 {
			t.Errorf("n=%d: B0=%d too small", n, p.B0)
		}
		if p.BGrowth <= 1 {
			t.Errorf("n=%d: BGrowth=%f must exceed 1", n, p.BGrowth)
		}
		if p.MaxPhases < 1 {
			t.Errorf("n=%d: MaxPhases=%d", n, p.MaxPhases)
		}
		if p.SampleP64 == 0 {
			t.Errorf("n=%d: zero sampling probability", n)
		}
	}
}

func TestPaperParamsStructure(t *testing.T) {
	p := Paper(1 << 16)
	if p.BGrowth != 1.1 {
		t.Errorf("paper growth = %f, want 1.1", p.BGrowth)
	}
	if p.FilterGrowth != 1.1 {
		t.Errorf("paper filter growth = %f", p.FilterGrowth)
	}
	if p.B0 > 4096 {
		t.Errorf("paper B0 must be clamped, got %d", p.B0)
	}
	d := Default(1 << 16)
	if p.MaxPhases < d.MaxPhases {
		t.Error("paper runs at least as many phases")
	}
}

func TestBScheduleCaps(t *testing.T) {
	p := Default(1 << 16)
	if b := p.bSchedule(1000); b != 1<<20 {
		t.Errorf("runaway schedule should cap at 2^20, got %d", b)
	}
	p.B0 = 0
	if b := p.bSchedule(0); b < 4 {
		t.Errorf("schedule floor violated: %d", b)
	}
}

func TestFilterRoundsGrowAndCap(t *testing.T) {
	p := Default(1 << 12)
	r0 := filterRounds(p, 0, 1<<12)
	r3 := filterRounds(p, 3, 1<<12)
	if r3 <= r0 {
		t.Errorf("filter rounds must grow per phase: %d -> %d", r0, r3)
	}
	if r := filterRounds(p, 1000, 1<<12); r > 4096 {
		t.Errorf("filter rounds cap violated: %d", r)
	}
	p.FilterRoundsBase = 0
	if r := filterRounds(p, 0, 16); r < 1 {
		t.Errorf("filter rounds floor violated: %d", r)
	}
}

func TestSolveRoundsCDefaultInInterweave(t *testing.T) {
	// SolveRoundsC ≤ 0 must fall back to a positive default rather than an
	// unlimited in-phase solve.
	g := gen.Cycle(256)
	p := Default(g.N)
	p.SolveRoundsC = 0
	m := pramtest.New(t, 0, pram.Seed(1))
	res := Connectivity(solve.New(m), g, p, nil)
	if res.NumComponents != 1 {
		t.Fatal("wrong result with zero SolveRoundsC")
	}
}
