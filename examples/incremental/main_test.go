package main

import (
	"strconv"
	"strings"
	"testing"

	"parcc"
	"parcc/internal/cmdtest"
)

func TestMain(m *testing.M) { cmdtest.Main(m, main) }

// TestLastBatchMatchesColdSolve: the table's last row — every edge of the
// stream applied, retractions re-added — reports the stream's edge count
// and the component count of a cold solve of the whole stream.
func TestLastBatchMatchesColdSolve(t *testing.T) {
	full := stream()
	res, err := parcc.ConnectedComponents(full, nil)
	if err != nil {
		t.Fatal(err)
	}
	out, stderr, code := cmdtest.Run(t)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	var row []string
	for _, line := range strings.Split(out, "\n") {
		if f := strings.Fields(line); len(f) == 6 && f[0] == strconv.Itoa(batches-1) {
			row = f
		}
	}
	if row == nil {
		t.Fatalf("no row for batch %d in:\n%s", batches-1, out)
	}
	if got, want := row[2], strconv.Itoa(full.M()); got != want {
		t.Errorf("last batch reports %s live edges, the stream has %s", got, want)
	}
	if got, want := row[3], strconv.Itoa(res.NumComponents); got != want {
		t.Errorf("last batch reports %s components, a cold solve finds %s", got, want)
	}
}
