package main

import (
	"fmt"
	"testing"

	"parcc"
	"parcc/internal/cmdtest"
)

func TestMain(m *testing.M) { cmdtest.Main(m, main) }

// TestOutputMatchesLibrary: the walkthrough's component count and FLS
// round count equal parcc.ConnectedComponents on its graph with the same
// options, and its verification and session lines report agreement.
func TestOutputMatchesLibrary(t *testing.T) {
	res, err := parcc.ConnectedComponents(input(), &parcc.Options{Seed: 42, Backend: parcc.BackendSequential})
	if err != nil {
		t.Fatal(err)
	}
	out, stderr, code := cmdtest.Run(t)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	for prefix, want := range map[string]string{
		"components:": fmt.Sprint(res.NumComponents),
		"pram time:":  fmt.Sprintf("%d rounds", res.Steps),
		"verified:":   "true",
		"session:": fmt.Sprintf("%d components after 3 reused solves (steps=%d, same as one-shot: true)",
			res.NumComponents, res.Steps),
	} {
		if got := cmdtest.Field(t, out, prefix); got != want {
			t.Errorf("%s %q, want %q", prefix, got, want)
		}
	}
}
