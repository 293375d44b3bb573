package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"parcc"
	"parcc/internal/bench"
	"parcc/internal/cmdtest"
)

func TestMain(m *testing.M) { cmdtest.Main(m, main) }

// table runs experiment id under cfg through the library.
func table(t *testing.T, id string, cfg bench.Config) *bench.Table {
	t.Helper()
	e, ok := bench.Find(id)
	if !ok {
		t.Fatalf("no experiment %s", id)
	}
	return e.Run(cfg)
}

// TestRunMatchesLibrary: `-run E2 -scale small -seed 3` prints, in every
// -format, exactly what the library renders for the same Config (the CSV
// is the table TestAllExperimentsRunSmall pins by hash); -backend and
// -procs reach the Config; -out writes the same body to <id>.<format>.
// E2 compares FLS's charged work with the classical baselines and has no
// wall-clock cell, so the two runs agree byte for byte.
func TestRunMatchesLibrary(t *testing.T) {
	seq := bench.Config{Scale: bench.Small, Seed: 3}
	tab := table(t, "E2", seq)
	for format, want := range map[string]string{"csv": tab.CSV(), "md": tab.Markdown(), "json": tab.JSON()} {
		out, stderr, code := cmdtest.Run(t, "-run", "E2", "-scale", "small", "-seed", "3", "-format", format)
		if code != 0 {
			t.Fatalf("-format %s: exit %d: %s", format, code, stderr)
		}
		if out != want+"\n" {
			t.Errorf("-format %s printed\n%s\nlibrary renders\n%s", format, out, want)
		}
	}

	conc := bench.Config{Scale: bench.Small, Seed: 3, Backend: "concurrent", Procs: 1}
	out, stderr, code := cmdtest.Run(t, "-run", "E2", "-seed", "3", "-format", "csv", "-backend", "concurrent", "-procs", "1")
	if want := table(t, "E2", conc).CSV(); code != 0 || out != want+"\n" {
		t.Errorf("-backend concurrent -procs 1: exit %d (%s), printed\n%s\nlibrary renders\n%s", code, stderr, out, want)
	}

	dir := t.TempDir()
	if _, stderr, code := cmdtest.Run(t, "-run", "E3", "-seed", "3", "-format", "csv", "-out", dir); code != 0 {
		t.Fatalf("-out: exit %d: %s", code, stderr)
	}
	got, err := os.ReadFile(filepath.Join(dir, "e3.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if want := table(t, "E3", seq).CSV(); string(got) != want {
		t.Errorf("-out wrote\n%s\nlibrary renders\n%s", got, want)
	}
}

// TestListAndBadFlags: -list prints every experiment of bench.All, and a
// negative -procs, an unknown backend, scale, format or experiment each
// exit 1 before running anything.
func TestListAndBadFlags(t *testing.T) {
	var want strings.Builder
	for _, e := range bench.All() {
		fmt.Fprintf(&want, "%-4s %s\n", e.ID, e.Title)
	}
	if out, stderr, code := cmdtest.Run(t, "-list"); code != 0 || out != want.String() {
		t.Errorf("-list: exit %d (%s), printed\n%s\nwant\n%s", code, stderr, out, want.String())
	}

	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-run", "E3", "-procs", "-1"}, (&parcc.ProcsRangeError{Procs: -1}).Error()},
		{[]string{"-run", "E3", "-backend", "gpu"}, `unknown backend "gpu"`},
		{[]string{"-run", "E3", "-scale", "huge"}, "-scale must be small or full"},
		{[]string{"-run", "E3", "-format", "xml"}, "-format must be md, csv, or json"},
		{[]string{"-run", "E3,E99"}, `unknown experiment "E99"`},
	} {
		out, stderr, code := cmdtest.Run(t, c.args...)
		if code != 1 || out != "" || !strings.Contains(stderr, c.want) {
			t.Errorf("%s: exit %d, stdout %q, stderr %q; want exit 1 with %q and no table", c.args, code, out, stderr, c.want)
		}
	}
}
