package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// stamp identifies the code and the machine a run measured.
type stamp struct {
	Workload   string  `json:"workload"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Commit     string  `json:"commit"`
	SourceHash string  `json:"source_sha256"`
	GoVersion  string  `json:"go_version"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"nproc"`
	Procs      int     `json:"solver_procs"`
	CPUModel   string  `json:"cpu_model"`
	L3         string  `json:"l3_reported"`
	FsyncUS    float64 `json:"env_fsync_us"`
	Note       string  `json:"note"`
}

// printStamp prints the run's stamp as one JSON line ahead of the result.
func printStamp(workload string, cfg *config, fsyncUS float64) {
	model, l3 := cpuInfo()
	st := stamp{
		Workload:   workload,
		Seed:       cfg.seed,
		Seconds:    cfg.seconds,
		Commit:     vcsRevision(),
		SourceHash: sourceHash("."),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Procs:      cfg.procs,
		CPUModel:   model,
		L3:         l3,
		FsyncUS:    fsyncUS,
		Note: "working sets fit in the reported L3; no figure here is an out-of-cache " +
			"measurement",
	}
	b, _ := json.Marshal(map[string]stamp{"stamp": st})
	fmt.Println(string(b))
}

// vcsRevision is the commit the binary was built from, when the build saw
// a git checkout; "unknown" otherwise (the source hash identifies the
// code either way).
func vcsRevision() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// sourceHash hashes every Go source and go.mod file under root, skipping
// dot directories (build outputs live there), so two runs can tell
// whether they measured the same code.
func sourceHash(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		fmt.Fprintf(h, "%s\x00", filepath.ToSlash(path))
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}

// cpuInfo reads the CPU model and the reported last-level cache size.
func cpuInfo() (model, cache string) {
	model, cache = "unknown", "unknown"
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		key, val, ok := strings.Cut(sc.Text(), ":")
		if !ok {
			continue
		}
		switch strings.TrimSpace(key) {
		case "model name":
			if model == "unknown" {
				model = strings.TrimSpace(val)
			}
		case "cache size":
			if cache == "unknown" {
				cache = strings.TrimSpace(val)
			}
		}
	}
	return
}

// measureFsync times a raw 4 KiB write+fsync in dir — the floor under
// every durable write ack — and returns the median in microseconds.
func measureFsync(dir string) (float64, error) {
	f, err := os.CreateTemp(dir, "fsync-probe-")
	if err != nil {
		return 0, fmt.Errorf("fsync probe: %w", err)
	}
	defer os.Remove(f.Name())
	defer f.Close()
	buf := make([]byte, 4096)
	var us []float64
	for i := 0; i < 15; i++ {
		t0 := time.Now()
		if _, err := f.Write(buf); err != nil {
			return 0, fmt.Errorf("fsync probe: %w", err)
		}
		if err := f.Sync(); err != nil {
			return 0, fmt.Errorf("fsync probe: %w", err)
		}
		us = append(us, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	return quantile(us, 0.5), nil
}
