package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"parcc"
	"parcc/internal/cli"
	"parcc/internal/cmdtest"
	"parcc/internal/graph"
)

func TestMain(m *testing.M) { cmdtest.Main(m, main) }

// TestAlgoFlag: -algo accepts the public algorithms and refuses the
// classical baselines with the library's unknown-algorithm error.
func TestAlgoFlag(t *testing.T) {
	for _, algo := range []string{"fls", "fls-known-gap", "union-find", "cas", "sample", "frontier", "auto"} {
		if _, stderr, code := cmdtest.Run(t, "-gen", "cycle:n=64", "-verify", "-algo", algo); code != 0 {
			t.Errorf("-algo %s: exit %d: %s", algo, code, stderr)
		}
	}
	for _, algo := range []string{"ltz", "sv", "random-mate", "label-prop", "liu-tarjan", "parallel-bfs", "bfs"} {
		_, stderr, code := cmdtest.Run(t, "-gen", "cycle:n=64", "-algo", algo)
		if want := `unknown algorithm "` + algo + `"`; code != 1 || !strings.Contains(stderr, want) {
			t.Errorf("-algo %s: exit %d, stderr %q; want exit 1 with %s", algo, code, stderr, want)
		}
	}
}

// TestOutputMatchesLibrary: on the sequential backend, ccrun's components,
// rounds and work lines and its -components listing equal
// parcc.ConnectedComponents run with the options its -algo, -seed and -b
// flags name, whether the graph comes from -gen or from an edge-list file
// through -graph.
func TestOutputMatchesLibrary(t *testing.T) {
	const spec = "gnm:n=3000,m=2400,seed=5"
	g, err := cli.LoadGraph("", spec)
	if err != nil {
		t.Fatal(err)
	}
	res, err := parcc.ConnectedComponents(g, &parcc.Options{
		Algorithm: parcc.FLSKnownGap, Backend: parcc.BackendSequential, Seed: 7, KnownGapB: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	file := filepath.Join(t.TempDir(), "g.txt")
	var text bytes.Buffer
	if err := graph.WriteEdgeList(&text, g); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(file, text.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	for _, src := range [][]string{{"-gen", spec}, {"-graph", file}} {
		out, stderr, code := cmdtest.Run(t, append(src,
			"-algo", "fls-known-gap", "-backend", "sequential", "-seed", "7", "-b", "8", "-components")...)
		if code != 0 {
			t.Fatalf("%s: exit %d: %s", src, code, stderr)
		}
		for prefix, want := range map[string]string{
			"components:": strconv.Itoa(res.NumComponents),
			"pram time:":  fmt.Sprintf("%d rounds", res.Steps),
			"pram work:":  fmt.Sprintf("%d ops (%.2f per edge+vertex)", res.Work, float64(res.Work)/float64(g.M()+g.N)),
		} {
			if got := cmdtest.Field(t, out, prefix); got != want {
				t.Errorf("%s: %s %q, library says %q", src, prefix, got, want)
			}
		}
		var listed []string
		for _, line := range strings.Split(out, "\n") {
			if strings.HasPrefix(line, "component ") {
				listed = append(listed, line)
			}
		}
		comps := res.Components()
		if len(listed) != len(comps) {
			t.Fatalf("%s: -components listed %d components, library has %d", src, len(listed), len(comps))
		}
		for i, comp := range comps {
			if want := fmt.Sprintf("component %d (%d vertices): %v", i, len(comp), comp); listed[i] != want {
				t.Errorf("%s: listed %q, library has %q", src, listed[i], want)
			}
		}
	}
}

// TestProcsAndTrace: a negative -procs fails with parcc's
// ProcsRangeError, and -trace on the concurrent backend at -procs 1
// prints the backend line and the auto dispatch decision the library's
// trace records for the same options.
func TestProcsAndTrace(t *testing.T) {
	const spec = "grid:r=40,c=50"
	_, stderr, code := cmdtest.Run(t, "-gen", spec, "-procs", "-1")
	if want := (&parcc.ProcsRangeError{Procs: -1}).Error(); code != 1 || !strings.Contains(stderr, want) {
		t.Errorf("-procs -1: exit %d, stderr %q; want exit 1 with %q", code, stderr, want)
	}

	g, err := cli.LoadGraph("", spec)
	if err != nil {
		t.Fatal(err)
	}
	res, err := parcc.ConnectedComponents(g, &parcc.Options{
		Algorithm: parcc.Auto, Backend: parcc.BackendConcurrent, Procs: 1, Seed: 1, Trace: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	var trace strings.Builder
	res.Trace.WriteText(&trace)
	out, stderr, code := cmdtest.Run(t, "-gen", spec, "-algo", "auto", "-backend", "concurrent", "-procs", "1", "-trace")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	if got, want := cmdtest.Field(t, out, "backend:"), fmt.Sprintf("%s (procs=%d)", res.Backend, res.Procs); got != want {
		t.Errorf("backend: %q, library says %q", got, want)
	}
	if got, want := cmdtest.Field(t, out, "  dispatch:"), cmdtest.Field(t, trace.String(), "  dispatch:"); got != want {
		t.Errorf("dispatch: %q, library trace says %q", got, want)
	}
}
