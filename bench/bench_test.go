package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"

	"cornet/internal/plan/intent"
	"cornet/internal/plan/translate"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6} // unsorted on purpose
	for _, c := range []struct{ p, want float64 }{
		{50, 5}, {90, 9}, {99, 10}, {100, 10}, {1, 1}, {10, 1}, {11, 2},
	} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(p=%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile(nil) = %v, want 0", got)
	}
	if xs[0] != 5 {
		t.Error("percentile sorted its argument in place")
	}
}

// The expected cut points are statistics.quantiles(xs, n=4) from Python 3.11.
func TestQuartilesMatchPythonExclusive(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{10.0, 10.4, 9.8, 10.1, 10.2, 9.9, 10.3, 10.0, 10.6, 9.7}, [3]float64{9.875, 10.05, 10.325}},
		{[]float64{7}, [3]float64{7, 7, 7}},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if !near(q1, c.want[0]) || !near(q2, c.want[1]) || !near(q3, c.want[2]) {
			t.Errorf("quartiles(%v) = %v %v %v, want %v", c.xs, q1, q2, q3, c.want)
		}
	}
	if got := spread([]float64{10.0, 10.4, 9.8, 10.1, 10.2, 9.9, 10.3, 10.0, 10.6, 9.7}); !near(got, 0.45/10.05) {
		t.Errorf("spread = %v, want %v", got, 0.45/10.05)
	}
}

func TestCoveredAndSelfTime(t *testing.T) {
	for _, c := range []struct {
		name     string
		children []span
		want     int64
	}{
		{"empty", nil, 0},
		{"disjoint", []span{{Start: 10, End: 20}, {Start: 30, End: 50}}, 30},
		{"overlapping", []span{{Start: 10, End: 40}, {Start: 30, End: 50}}, 40},
		{"nested", []span{{Start: 10, End: 90}, {Start: 20, End: 30}, {Start: 40, End: 50}}, 80},
		{"clipped to the parent", []span{{Start: -20, End: 10}, {Start: 95, End: 150}}, 15},
		{"unsorted and touching", []span{{Start: 50, End: 60}, {Start: 40, End: 50}}, 20},
		{"zero length", []span{{Start: 50, End: 50}}, 0},
	} {
		if got := covered(0, 100, c.children); got != c.want {
			t.Errorf("%s: covered = %d, want %d", c.name, got, c.want)
		}
	}

	// root [0,100) > a [10,60) > b [20,30); c [50,80) overlaps a.
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 60},
		{ID: 3, Parent: 2, Name: "b", Start: 20, End: 30},
		{ID: 4, Parent: 1, Name: "c", Start: 50, End: 80},
	}
	want := map[int]int64{1: 30, 2: 40, 3: 10, 4: 30}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
	if got := residualPct(spans, want, "root"); !near(got, 30) {
		t.Errorf("residualPct = %v, want 30", got)
	}
	if got := residualPct(spans, want, "absent"); got != 0 {
		t.Errorf("residualPct of no spans = %v, want 0", got)
	}
}

// take draws client c's first n requests of workload name under seed.
func take(t *testing.T, name string, seed int64, c, n int) []request {
	t.Helper()
	w, err := newWorkload(name, seed)
	if err != nil {
		t.Fatal(err)
	}
	w.api = "/api/wf/software-upgrade/vCE/test"
	next := w.stream(c)
	out := make([]request, n)
	for i := range out {
		out[i] = next()
	}
	return out
}

func TestGeneratorsAreDeterministic(t *testing.T) {
	for _, name := range workloadNames {
		for c := 0; c < clients; c++ {
			a, b := take(t, name, 7, c, 64), take(t, name, 7, c, 64)
			if !reflect.DeepEqual(a, b) {
				t.Errorf("%s client %d: same seed, different request sequences", name, c)
			}
		}
	}
	// The seed must matter where the workload has something to draw.
	for _, name := range []string{"plan_hit", "plan_miss", "exec_plain"} {
		a, b := take(t, name, 1, 0, 64), take(t, name, 2, 0, 64)
		same := true
		for i := range a {
			same = same && bytes.Equal(a[i].body, b[i].body)
		}
		if same {
			t.Errorf("%s: seeds 1 and 2 generate the same bodies", name)
		}
	}
	if _, err := newWorkload("nope", 1); err == nil {
		t.Error("unknown workload accepted")
	}
}

func TestExecPlainClientsNeverShareAnInstance(t *testing.T) {
	seen := map[string]int{}
	for c := 0; c < clients; c++ {
		for _, r := range take(t, "exec_plain", 3, c, 3*teamSize) {
			var body struct {
				Inputs map[string]string `json:"inputs"`
			}
			if err := json.Unmarshal(r.body, &body); err != nil {
				t.Fatal(err)
			}
			inst := body.Inputs["instance"]
			if owner, ok := seen[inst]; ok && owner != c {
				t.Fatalf("instance %s upgraded by clients %d and %d", inst, owner, c)
			}
			seen[inst] = c
		}
	}
	if len(seen) != vnfs {
		t.Errorf("%d instances touched, want all %d", len(seen), vnfs)
	}
}

func TestPlanMissFingerprintsNeverRepeat(t *testing.T) {
	net, err := cornetdNetwork()
	if err != nil {
		t.Fatal(err)
	}
	sub := edgeSubset(net)
	if sub.Len() != planItems {
		t.Fatalf("edge subset holds %d elements, planItems says %d", sub.Len(), planItems)
	}
	seen := map[string]string{}
	for _, seed := range []int64{1, 2} {
		for c := 0; c < clients; c++ {
			for _, r := range take(t, "plan_miss", seed, c, 12) {
				req, err := intent.Parse(r.body)
				if err != nil {
					t.Fatal(err)
				}
				tr, err := translate.Translate(req, sub, translate.Options{Topology: net.Topo})
				if err != nil {
					t.Fatal(err)
				}
				fp := tr.Model.Fingerprint()
				if prev, dup := seen[fp]; dup {
					t.Fatalf("requests %s and %s share fingerprint %s", prev, r.id, fp)
				}
				seen[fp] = r.id
			}
		}
	}
}

func TestVerdictTable(t *testing.T) {
	lower := metricDef{Name: "latency_p50_ms", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "throughput_rps", Better: "higher", Bound: 0.10}
	for _, c := range []struct {
		name string
		d    metricDef
		a, b []float64
		want string
	}{
		{"unchanged", lower, []float64{10, 10.1}, []float64{10.05, 10.1}, "ok"},
		{"worse beyond the bound", lower, []float64{10, 10.1}, []float64{11.5, 11.6}, "worse"},
		{"worse within the bound", lower, []float64{10, 10.1}, []float64{10.8, 10.9}, "ok"},
		{"better", lower, []float64{10, 10.1}, []float64{5, 5.1}, "ok"},
		{"throughput drop", higher, []float64{100, 101}, []float64{80, 81}, "worse"},
		{"throughput gain", higher, []float64{100, 101}, []float64{150, 151}, "ok"},
		{"noisy and overlapping", lower, []float64{10, 14}, []float64{11, 15}, "unresolved"},
		{"noisy but every run better", lower, []float64{10, 14}, []float64{5, 7}, "ok"},
		{"noisy but every run worse", lower, []float64{10, 14}, []float64{20, 28}, "worse"},
		{"noisy throughput, every run better", higher, []float64{100, 140}, []float64{200, 280}, "ok"},
		{"single runs", lower, []float64{10}, []float64{12}, "worse"},
	} {
		if got, _ := verdict(c.d, c.a, c.b); got != c.want {
			t.Errorf("%s: verdict = %q, want %q", c.name, got, c.want)
		}
	}
}

func TestCompareFilesExitCode(t *testing.T) {
	write := func(name string, p50 float64) string {
		f := resultFile{}
		for _, w := range workloadNames {
			r := runRecord{Workload: w, Seed: 1, result: result{Correct: true, Attempted: 1, Metrics: map[string]metric{}}}
			for _, d := range endToEnd {
				r.Metrics[d.Name] = metric{Value: 10, Unit: d.Unit}
			}
			r.Metrics["latency_p50_ms"] = metric{Value: p50, Unit: "ms"}
			f.Runs = append(f.Runs, r, r)
		}
		path := t.TempDir() + "/" + name
		if err := f.save(path); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base, same, slow := write("a.json", 10), write("b.json", 10.2), write("c.json", 13)
	var out strings.Builder
	if code := compareFiles(&out, base, same); code != 0 {
		t.Errorf("equal sets: exit %d\n%s", code, out.String())
	}
	out.Reset()
	if code := compareFiles(&out, base, slow); code != 1 || !strings.Contains(out.String(), "worse") {
		t.Errorf("slower set: exit %d\n%s", code, out.String())
	}
}

// BENCHMARK.json is the contract the acceptance driver reads; the tables in
// metrics.go and workload.go are what the benchmark prints. They must agree.
func TestBenchmarkJSONMatchesTheTables(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type m struct {
		Name, Unit, Better string
		Bound              float64
	}
	var doc struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []m `json:"end_to_end"`
		PerLayer   []m `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(doc.Command, []string{"go", "run", "./bench"}) || !reflect.DeepEqual(doc.Paths, []string{"bench"}) {
		t.Errorf("command %v paths %v", doc.Command, doc.Paths)
	}
	if len(doc.Workloads) != len(workloadNames) {
		t.Fatalf("%d workloads, want %d", len(doc.Workloads), len(workloadNames))
	}
	for i, w := range doc.Workloads {
		built, err := newWorkload(w.Name, 1)
		if err != nil || w.Name != workloadNames[i] || w.Why != built.why {
			t.Errorf("workload %d %q: does not match workload.go (%v)", i, w.Name, err)
		}
	}
	check := func(kind string, got []m, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in metrics.go", kind, len(got), len(want))
		}
		for i, d := range want {
			if got[i] != (m{d.Name, d.Unit, d.Better, d.Bound}) {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, metrics.go has %+v", kind, i, got[i], d)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd)
	check("per_layer", doc.PerLayer, perLayer)

	// Every per-layer definition gets a value, and only those.
	values := layerValues(nil, &counts{})
	for _, name := range []string{"cornetd.handler_us", "cornetd.http_overhead_us", "cornetd.trace_overhead_pct",
		"cornetd.response_bytes", "cornetd.latency_p99_ms", "cornetd.peak_rss_mb",
		"replay.request_us", "replay.residual_pct", "replay.vs_handler_pct"} {
		values[name] = 0
	}
	if _, err := newResult(perLayer, values); err != nil {
		t.Error(err)
	}
}
