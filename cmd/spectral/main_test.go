package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"parcc"
	"parcc/internal/cli"
	"parcc/internal/cmdtest"
	"parcc/internal/graph"
)

func TestMain(m *testing.M) { cmdtest.Main(m, main) }

// TestOutputMatchesLibrary: the λ line, the -per-component lines and the
// diameter bound equal parcc.SpectralGap, parcc.ComponentSpectralGaps and
// parcc.DiameterApprox on the same graph, read from an edge-list file
// through -graph or built from a -gen spec.
func TestOutputMatchesLibrary(t *testing.T) {
	union := parcc.UnionGraphs(parcc.Path(30), parcc.RandomRegular(64, 4, 1), parcc.Cycle(20))
	file := filepath.Join(t.TempDir(), "g.txt")
	var text bytes.Buffer
	if err := graph.WriteEdgeList(&text, union); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(file, text.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	hypercube, err := cli.LoadGraph("", "hypercube:d=6")
	if err != nil {
		t.Fatal(err)
	}

	for _, c := range []struct {
		args []string
		g    *parcc.Graph
	}{
		{[]string{"-graph", file, "-per-component"}, union},
		{[]string{"-gen", "hypercube:d=6"}, hypercube},
	} {
		out, stderr, code := cmdtest.Run(t, c.args...)
		if code != 0 {
			t.Fatalf("%s: exit %d: %s", c.args, code, stderr)
		}
		if got, want := cmdtest.Field(t, out, "lambda:"), fmt.Sprintf("%.6g (min over components)", parcc.SpectralGap(c.g)); got != want {
			t.Errorf("%s: lambda %q, library says %q", c.args, got, want)
		}
		if got, want := cmdtest.Field(t, out, "diameter:"), fmt.Sprintf("≥ %d (double sweep)", parcc.DiameterApprox(c.g)); got != want {
			t.Errorf("%s: diameter %q, library says %q", c.args, got, want)
		}
		var want strings.Builder
		if c.args[len(c.args)-1] == "-per-component" {
			for i, l := range parcc.ComponentSpectralGaps(c.g) {
				fmt.Fprintf(&want, "component %d: λ = %.6g\n", i, l)
			}
		}
		var got strings.Builder
		for _, line := range strings.SplitAfter(out, "\n") {
			if strings.HasPrefix(line, "component ") {
				got.WriteString(line)
			}
		}
		if got.String() != want.String() {
			t.Errorf("%s: component lines\n%s\nlibrary says\n%s", c.args, got.String(), want.String())
		}
	}
}
