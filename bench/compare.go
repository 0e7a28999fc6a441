package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
)

// runRecord is one run as the result file keeps it.
type runRecord struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Traced   bool   `json:"traced"`
	result
}

// resultFile is one set of runs of one build: what `go run ./bench` appends
// to and what -compare reads.
type resultFile struct {
	Header header      `json:"header"`
	Runs   []runRecord `json:"runs"`
}

// load reads path into f; a file that does not exist yet leaves f empty.
func (f *resultFile) load(path string) error {
	raw, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	if err := json.Unmarshal(raw, f); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

func (f *resultFile) save(path string) error {
	raw, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// values collects one end-to-end metric of one workload over the file's
// untraced runs.
func (f *resultFile) values(workload, name string) []float64 {
	var out []float64
	for _, r := range f.Runs {
		if m, ok := r.Metrics[name]; ok && r.Workload == workload && !r.Traced {
			out = append(out, m.Value)
		}
	}
	return out
}

// verdict judges set b against baseline a on one metric: "worse" when b's
// median is worse than a's by more than the bound, "ok" otherwise — unless
// either set's own spread exceeds the bound, in which case the medians
// settle nothing and only a clean separation counts: every run of b better
// than every run of a is "ok", every run worse (and the medians apart by
// more than the bound) is "worse", anything else "unresolved". noise is the
// larger of the two spreads.
func verdict(d metricDef, a, b []float64) (v string, noise float64) {
	_, ma, _ := quartiles(a)
	_, mb, _ := quartiles(b)
	worsening := (mb - ma) / ma // b's change in the bad direction, as a share of a's median
	if d.Better == "higher" {
		worsening = -worsening
	}
	noise = max(spread(a), spread(b))
	if noise <= d.Bound {
		if worsening > d.Bound {
			return "worse", noise
		}
		return "ok", noise
	}
	allBetter, allWorse := true, true
	for _, x := range b {
		for _, y := range a {
			lo, hi := x, y // b's run is better when lo < hi
			if d.Better == "higher" {
				lo, hi = y, x
			}
			allBetter = allBetter && lo < hi
			allWorse = allWorse && lo > hi
		}
	}
	switch {
	case allBetter:
		return "ok", noise
	case allWorse && worsening > d.Bound:
		return "worse", noise
	}
	return "unresolved", noise
}

// compareFiles prints, per workload and end-to-end metric, both medians,
// the change with its base, the bound and the verdict; it returns 1 when
// any row is worse.
func compareFiles(w io.Writer, pathA, pathB string) int {
	var a, b resultFile
	for _, side := range []struct {
		path string
		f    *resultFile
	}{{pathA, &a}, {pathB, &b}} {
		if err := side.f.load(side.path); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
		if len(side.f.Runs) == 0 {
			fmt.Fprintf(os.Stderr, "bench: %s holds no runs\n", side.path)
			return 2
		}
	}
	fmt.Fprintf(w, "A = %s (rev %s, %d CPU)   B = %s (rev %s, %d CPU)\n",
		pathA, a.Header.Revision, a.Header.NumCPU, pathB, b.Header.Revision, b.Header.NumCPU)
	fmt.Fprintf(w, "%-14s %-16s %12s %12s  %-22s %6s %7s  %s\n",
		"workload", "metric", "A median", "B median", "change (base A)", "bound", "spread", "verdict")
	code := 0
	for _, wl := range workloadNames {
		for _, d := range endToEnd {
			va, vb := a.values(wl, d.Name), b.values(wl, d.Name)
			if len(va) == 0 || len(vb) == 0 {
				fmt.Fprintf(w, "%-14s %-16s missing from one side (A %d runs, B %d runs)\n", wl, d.Name, len(va), len(vb))
				code = 1
				continue
			}
			v, noise := verdict(d, va, vb)
			_, ma, _ := quartiles(va)
			_, mb, _ := quartiles(vb)
			change := fmt.Sprintf("%+.2f%% of %.4g %s", 100*(mb-ma)/ma, ma, d.Unit)
			fmt.Fprintf(w, "%-14s %-16s %12.4f %12.4f  %-22s %5.0f%% %6.1f%%  %s\n",
				wl, d.Name, ma, mb, change, 100*d.Bound, 100*noise, v)
			if v == "worse" {
				code = 1
			}
		}
	}
	return code
}
