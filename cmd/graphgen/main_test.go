package main

import (
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"parcc/internal/cli"
	"parcc/internal/cmdtest"
	"parcc/internal/graph"
)

func TestMain(m *testing.M) { cmdtest.Main(m, main) }

// TestOutputIsSpecGraph: the edge list graphgen prints on stdout, and the
// one it writes to -out, read back with graph.ReadEdgeList, is the spec's
// graph edge for edge; without -gen it exits 1.
func TestOutputIsSpecGraph(t *testing.T) {
	const spec = "gnm:n=500,m=1500,seed=9"
	s, err := cli.ParseSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	want, err := s.Build()
	if err != nil {
		t.Fatal(err)
	}
	same := func(where, text string) {
		t.Helper()
		got, err := graph.ReadEdgeList(strings.NewReader(text))
		if err != nil {
			t.Fatalf("%s: %v", where, err)
		}
		if got.N != want.N || !slices.Equal(got.Edges, want.Edges) {
			t.Errorf("%s: read back n=%d m=%d, spec builds n=%d m=%d (or the edges differ)",
				where, got.N, got.M(), want.N, want.M())
		}
	}

	out, stderr, code := cmdtest.Run(t, "-gen", spec)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	same("stdout", out)

	file := filepath.Join(t.TempDir(), "g.txt")
	if out, stderr, code := cmdtest.Run(t, "-gen", spec, "-out", file); code != 0 || out != "" {
		t.Fatalf("-out: exit %d, stdout %q: %s", code, out, stderr)
	}
	text, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	same("-out", string(text))

	if _, stderr, code := cmdtest.Run(t); code != 1 || !strings.Contains(stderr, "-gen SPEC is required") {
		t.Errorf("no -gen: exit %d, stderr %q; want exit 1", code, stderr)
	}
}
