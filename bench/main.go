// Command bench is the end-to-end benchmark of cornetd: it builds the real
// binary, starts a fresh child per workload on a free loopback port, drives
// it over HTTP with two closed-loop clients on two keep-alive connections,
// checks every answer, and prints every metric by name and unit.
//
//	go run ./bench -seed 1                      # all workloads, both runs
//	go run ./bench -workload plan_hit -seed 1   # one workload while developing
//	go run ./bench -workload plan_hit -seed 1 -seconds 20 -trace 1
//	go run ./bench -compare A.json B.json
//
// With -workload the last line of standard output is one JSON object with
// the keys correct, attempted, failed and metrics: the end-to-end metrics
// with -trace 0, the per-layer metrics with -trace 1. See README.md.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// setupReps is how many times an end-to-end run sets a child up; setup_s is
// the median and the last child is the one measured.
const setupReps = 3

func main() { os.Exit(run()) }

func run() int {
	var (
		name    = flag.String("workload", "", "run one workload (plan_hit|plan_miss|exec_plain|exec_composed); empty runs all four, traced and untraced")
		seed    = flag.Int64("seed", 1, "workload generator seed; cornetd keeps its own -seed 1")
		seconds = flag.Int("seconds", 20, "length of the measured window")
		trace   = flag.Int("trace", 0, "with -workload: 0 reports the end-to-end metrics, 1 the per-layer metrics")
		out     = flag.String("out", filepath.Join(outDir, "results.json"), "without -workload: file the runs are appended to, for -compare")
		compare = flag.Bool("compare", false, "compare two result files: -compare A.json B.json")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: bench -compare A.json B.json")
			return 2
		}
		return compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
	}
	if runtime.NumCPU() < 2 {
		fmt.Fprintf(os.Stderr, "bench: %d CPU: two clients and cornetd need at least 2; refusing to report degraded numbers\n", runtime.NumCPU())
		return 1
	}
	if *seconds < 1 || *trace < 0 || *trace > 1 {
		fmt.Fprintln(os.Stderr, "bench: want -seconds >= 1 and -trace 0 or 1")
		return 2
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	bin, err := buildCornetd(ctx)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	window := time.Duration(*seconds) * time.Second
	hdr := newHeader(*seed, *seconds)
	hdr.print()

	if *name != "" {
		w, err := newWorkload(*name, *seed)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
		res, err := runOne(ctx, bin, w, *seed, window, *trace == 1)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		printResult(w.name, *trace == 1, res)
		line, _ := json.Marshal(res)
		fmt.Println(string(line))
		return 0
	}

	// All four workloads, untraced then traced, appended to the result file.
	var file resultFile
	if err := file.load(*out); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	file.Header = hdr
	code := 0
	for _, n := range workloadNames {
		for _, traced := range []bool{false, true} {
			w, _ := newWorkload(n, *seed)
			res, err := runOne(ctx, bin, w, *seed, window, traced)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				return 1
			}
			printResult(n, traced, res)
			if !res.Correct {
				code = 1
			}
			file.Runs = append(file.Runs, runRecord{Workload: n, Seed: *seed, Traced: traced, result: *res})
		}
	}
	if err := file.save(*out); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Printf("runs appended to %s\n", *out)
	return code
}

// header is the context a number needs to be compared with another.
type header struct {
	Revision   string              `json:"revision"`
	GoVersion  string              `json:"go_version"`
	GOMAXPROCS int                 `json:"gomaxprocs"`
	NumCPU     int                 `json:"num_cpu"`
	Seed       int64               `json:"seed"`
	Seconds    int                 `json:"window_seconds"`
	SetupReps  int                 `json:"setup_repetitions"`
	Clients    int                 `json:"clients"`
	Flags      map[string][]string `json:"cornetd_flags"`
}

func newHeader(seed int64, seconds int) header {
	rev := "unknown" // the acceptance checkout is not a git repository
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		rev = strings.TrimSpace(string(out))
	}
	h := header{Revision: rev, GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU: runtime.NumCPU(), Seed: seed, Seconds: seconds, SetupReps: setupReps, Clients: clients,
		Flags: map[string][]string{}}
	for _, n := range workloadNames {
		w, _ := newWorkload(n, seed)
		h.Flags[n] = append([]string{}, w.flags...)
	}
	return h
}

func (h header) print() {
	fmt.Printf("cornetd bench: rev %s, %s, GOMAXPROCS %d, NumCPU %d, seed %d, window %d s, %d set-ups per run, %d closed-loop clients\n",
		h.Revision, h.GoVersion, h.GOMAXPROCS, h.NumCPU, h.Seed, h.Seconds, h.SetupReps, h.Clients)
	for _, n := range workloadNames {
		fmt.Printf("  %-13s cornetd %s\n", n, strings.Join(h.Flags[n], " "))
	}
}

// printResult prints one run's metrics by name and unit. A traced run of
// all workloads repeats the layer table; each row shows under its home.
func printResult(name string, traced bool, r *result) {
	defs, kind := endToEnd, "end-to-end"
	if traced {
		defs, kind = perLayer, "per-layer"
	}
	fmt.Printf("%s (%s): correct=%t attempted=%d failed=%d\n", name, kind, r.Correct, r.Attempted, r.Failed)
	for _, d := range defs {
		m := r.Metrics[d.Name]
		home := ""
		if d.Home != "" && d.Home != name {
			home = "  (measured on the " + d.Home + " shape)"
		}
		fmt.Printf("  %-32s %14.4f %s%s\n", d.Name, m.Value, m.Unit, home)
	}
}

// runOne measures one workload once, untraced or traced.
func runOne(ctx context.Context, bin string, w *workload, seed int64, window time.Duration, traced bool) (*result, error) {
	if traced {
		return runTraced(ctx, bin, w, seed, window)
	}
	return runEndToEnd(ctx, bin, w, window)
}

// finish folds the tally and the post-window validation into a result.
func finish(ctx context.Context, s *session, t tally, defs []metricDef, values map[string]float64) (*result, error) {
	res, err := newResult(defs, values)
	if err != nil {
		return nil, err
	}
	res.Attempted, res.Failed = t.attempted, t.failed
	if t.firstErr != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: first failed answer: %v\n", s.w.name, t.firstErr)
	}
	if s.w.post != nil {
		bad, err := s.w.post(ctx)
		if err != nil {
			return nil, fmt.Errorf("%s: post-window validation: %w", s.w.name, err)
		}
		if bad > 0 {
			fmt.Fprintf(os.Stderr, "bench: %s: %d kept answers violate their intent\n", s.w.name, bad)
		}
		res.Failed += bad
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	return res, nil
}

// runEndToEnd is the untraced run: several set-ups, then one measured
// window on the last child, its CPU time read at the window's edges.
func runEndToEnd(ctx context.Context, bin string, w *workload, window time.Duration) (*result, error) {
	var s *session
	var setups []float64
	for i := 0; i < setupReps; i++ {
		if s != nil {
			if _, err := s.child.stop(); err != nil {
				return nil, err
			}
		}
		var took time.Duration
		var err error
		if s, took, err = setUp(ctx, bin, w); err != nil {
			return nil, err
		}
		setups = append(setups, took.Seconds())
	}
	cpu0, err0 := s.child.cpuSeconds()
	t := s.drive(ctx, false, nil, forDuration(window))
	cpu1, err1 := s.child.cpuSeconds()
	_, err := s.child.stop()
	if err = errors.Join(err0, err1, err, ctx.Err()); err != nil {
		return nil, err
	}
	if t.correct() == 0 {
		return nil, fmt.Errorf("%s: no correct answer in the window: %v", w.name, t.firstErr)
	}
	fmt.Printf("%s: %d correct answers in %.2f s (p90 leaves %d samples beyond it)\n",
		w.name, t.correct(), t.busy.Seconds(), t.correct()/10)
	return finish(ctx, s, t, endToEnd, map[string]float64{
		"setup_s":        percentile(setups, 50),
		"throughput_rps": float64(t.correct()) / t.busy.Seconds(),
		"latency_p50_ms": percentile(t.latencyMS, 50),
		"latency_p90_ms": percentile(t.latencyMS, 90),
		"cpu_ms_per_req": (cpu1 - cpu0) * 1e3 / float64(t.correct()),
	})
}

// runTraced is the traced run: an untraced reference pass and a ?trace=1
// pass against one child, then the in-process layer replay. The window is
// split a quarter, a quarter, and an eighth per replayed workload shape.
func runTraced(ctx context.Context, bin string, w *workload, seed int64, window time.Duration) (*result, error) {
	s, _, err := setUp(ctx, bin, w)
	if err != nil {
		return nil, err
	}
	rec := newRecorder()
	ref := s.drive(ctx, false, nil, forDuration(window/4))
	sum0, n0, err0 := s.child.routeTime(w.route)
	traced := s.drive(ctx, true, rec, forDuration(window/4))
	sum1, n1, err1 := s.child.routeTime(w.route)
	rss, err := s.child.stop()
	if err = errors.Join(err0, err1, err, ctx.Err()); err != nil {
		return nil, err
	}
	if ref.correct() == 0 || traced.correct() == 0 || n1 == n0 {
		return nil, fmt.Errorf("%s: no correct answer in a traced-run pass: %v %v", w.name, ref.firstErr, traced.firstErr)
	}

	cnt, err := replayAll(ctx, seed, rec, window/8)
	if err != nil {
		return nil, err
	}
	spans := rec.snapshot()
	tracePath := filepath.Join(outDir, "trace-"+w.name+".json")
	if err := writeSpans(tracePath, spans); err != nil {
		return nil, err
	}
	fmt.Printf("%s: %d spans written to %s\n", w.name, len(spans), tracePath)

	values := layerValues(spans, cnt)
	handlerUS := (sum1 - sum0) / (n1 - n0) * 1e6
	refP50, tracedP50 := percentile(ref.latencyMS, 50), percentile(traced.latencyMS, 50)
	values["cornetd.handler_us"] = handlerUS
	values["cornetd.http_overhead_us"] = mean(traced.latencyMS)*1e3 - handlerUS
	values["cornetd.trace_overhead_pct"] = 100 * (tracedP50 - refP50) / refP50
	values["cornetd.response_bytes"] = float64(traced.bytes) / float64(traced.correct())
	values["cornetd.latency_p99_ms"] = percentile(ref.latencyMS, 99)
	values["cornetd.peak_rss_mb"] = rss

	root := "replay." + w.name
	requestUS := percentile(spansOf(spans, root, ""), 50) / nsPerUS
	values["replay.request_us"] = requestUS
	values["replay.vs_handler_pct"] = 100 * (requestUS - handlerUS) / handlerUS
	self := selfTimes(spans)
	for _, n := range workloadNames {
		r := residualPct(spans, self, "replay."+n)
		if r >= 5 {
			return nil, fmt.Errorf("replay.%s: %.1f%% of the request span is not covered by layer spans (limit 5%%)", n, r)
		}
		if n == w.name {
			values["replay.residual_pct"] = r
		}
	}
	if v := values["replay.vs_handler_pct"]; v > 25 || v < -25 {
		fmt.Fprintf(os.Stderr, "bench: warning: %s: the replayed request takes %+.0f%% of the handler's time; the outside view is loose here\n", w.name, v)
	}
	ref.add(traced)
	return finish(ctx, s, ref, perLayer, values)
}
