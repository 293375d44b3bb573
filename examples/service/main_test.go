package main

import (
	"regexp"
	"strconv"
	"testing"

	"parcc"
	"parcc/internal/cmdtest"
)

func TestMain(m *testing.M) { cmdtest.Main(m, main) }

// TestConnectedAnswers: the walkthrough's four connected(0,5) answers —
// two triangles, bridged by 2-3, with the bridge retracted, then joined by
// 0-3 and 1-4 in the NDJSON batch — equal a library solve of each graph.
func TestConnectedAnswers(t *testing.T) {
	triangles := []parcc.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 0}, {U: 3, V: 4}, {U: 4, V: 5}, {U: 5, V: 3}}
	var want []string
	for _, extra := range [][]parcc.Edge{nil, {{U: 2, V: 3}}, nil, {{U: 0, V: 3}, {U: 1, V: 4}}} {
		g := parcc.NewGraph(6)
		g.Edges = append(append(g.Edges, triangles...), extra...)
		res, err := parcc.ConnectedComponents(g, nil)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, strconv.FormatBool(res.SameComponent(0, 5)))
	}

	out, stderr, code := cmdtest.Run(t)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	var got []string
	for _, m := range regexp.MustCompile(`"connected":(true|false)`).FindAllStringSubmatch(out, -1) {
		got = append(got, m[1])
	}
	if len(got) != len(want) {
		t.Fatalf("%d connected answers %v, want %v in:\n%s", len(got), got, want, out)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("connected answer %d is %s, a library solve says %s", i+1, got[i], want[i])
		}
	}
}
