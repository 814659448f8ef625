package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for the benchmark binary when
// runBench starts child samples.
func TestMain(m *testing.M) {
	if len(os.Args) == 3 && os.Args[1] == "-child" {
		os.Exit(childMain(os.Args[2], os.Stdout))
	}
	os.Exit(m.Run())
}

func TestSelfTimes(t *testing.T) {
	// root [0,100) has children a [10,40) and b [30,60) (overlapping:
	// their union covers 50) and c [90,120), which overhangs the root by
	// 20. a has one child [15,25). d is a separate root with no
	// children.
	spans := []Span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 60},
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120},
		{ID: 5, Parent: 2, Name: "a1", Start: 15, End: 25},
		{ID: 6, Name: "d", Start: 200, End: 207},
	}
	want := map[int64]int64{1: 100 - 50 - 10, 2: 30 - 10, 3: 30, 4: 30, 5: 10, 6: 7}
	got := selfTimes(spans)
	for id, w := range want {
		if got[id] != w {
			t.Errorf("span %d: self %d, want %d", id, got[id], w)
		}
	}
	sum := summarizeSpans(append(spans, Span{ID: 7, Parent: 6, Name: "a", Start: 201, End: 203}))
	for _, s := range sum {
		if s.Name == "a" && (s.Count != 2 || math.Abs(s.SelfS-22e-9) > 1e-18) {
			t.Errorf("summary of a: %+v", s)
		}
	}
}

func TestMedianAndTail(t *testing.T) {
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Errorf("median = %g", m)
	}
	// Samples 0..n-1 in reverse order: the nearest-rank p90 of 400 is
	// 359 with 40 beyond it; 99 samples are too few for p90.
	for _, c := range []struct {
		n         int
		want, pct float64
	}{{400, 359, 90}, {100, 89, 90}, {99, 49, 50}, {2000, 1979, 99}} {
		xs := make([]float64, c.n)
		for i := range xs {
			xs[c.n-1-i] = float64(i)
		}
		if v, pct, ok := tail(xs); !ok || v != c.want || pct != c.pct {
			t.Errorf("tail of %d samples = %g at p%g ok=%v, want %g at p%g", c.n, v, pct, ok, c.want, c.pct)
		}
	}
	if _, _, ok := tail(make([]float64, 10)); ok {
		t.Error("a tail of 10 samples has nothing beyond it and must be unresolved")
	}
}

// benchmarkJSON is the part of BENCHMARK.json the tests check.
type benchmarkJSON struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func TestDeclaredMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloads, ",") {
		t.Errorf("BENCHMARK.json workloads %v, code %v", names, workloads)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	check := func(kind, name, unit, better string) {
		if !nameRE.MatchString(name) {
			t.Errorf("%s metric %q: bad name", kind, name)
		}
		if unit != unitOf(name) || better != betterOf(name) {
			t.Errorf("%s metric %s: json says %s/%s, code %s/%s", kind, name, unit, better, unitOf(name), betterOf(name))
		}
	}
	inJSON := map[string]bool{}
	for _, m := range bj.EndToEnd {
		check("end-to-end", m.Name, m.Unit, m.Better)
		inJSON["e2e/"+m.Name] = true
	}
	for _, m := range bj.PerLayer {
		check("per-layer", m.Name, m.Unit, m.Better)
		inJSON["layer/"+m.Name] = true
	}
	inCode := map[string]bool{}
	for _, n := range endToEnd {
		inCode["e2e/"+n] = true
	}
	for _, n := range perLayer {
		inCode["layer/"+n] = true
	}
	if a, b := keys(inJSON), keys(inCode); a != b {
		t.Errorf("BENCHMARK.json declares\n%s\nthe workloads emit\n%s", a, b)
	}
}

func keys(m map[string]bool) string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return strings.Join(out, "\n")
}

// runSmall runs one test-size invocation and returns its result line
// and every metric it measured, printed-only ones included.
func runSmall(t *testing.T, workload string, trace bool) (resultLine, map[string]float64) {
	t.Helper()
	var out bytes.Buffer
	o := options{workload: workload, seed: 7, seconds: 0.2, trace: trace, root: t.TempDir(), small: true}
	rep, err := measure(o)
	if err != nil {
		t.Fatalf("%s trace=%v: %v", workload, trace, err)
	}
	rep.print(&out)
	if !rep.correct() {
		t.Fatalf("%s trace=%v failed its checks:\n%s", workload, trace, out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: last line is not the result: %v", workload, err)
	}
	return res, rep.metrics
}

// countMetrics are the metrics that are exact counts or virtual times:
// two runs of one seed must report them bit for bit.
var countMetrics = []string{
	"spectral.transpose_bytes", "spectral.flops_per_step",
	"blas.flops_per_step", "blas.bytes_per_step",
	"sim_step_s",
	"farm.wal_records_per_job", "farm.attempts_per_job",
}

// TestWorkloadsEmitDeclaredMetricsAndRepeatCounts runs every workload at
// test size, untraced and traced, twice each: every run must pass its
// output checks and put exactly the declared metrics, each nonzero, on
// its result line, and the count metrics must repeat exactly.
func TestWorkloadsEmitDeclaredMetricsAndRepeatCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload four times")
	}
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			a, ma := runSmall(t, w, trace)
			b, mb := runSmall(t, w, trace)
			want := endToEnd
			if trace {
				want = perLayer
			}
			for _, r := range []resultLine{a, b} {
				if !r.Correct || r.Failed != 0 || r.Attempted < 1 || len(r.Metrics) != len(want) {
					t.Errorf("%s trace=%v: %+v", w, trace, r)
				}
			}
			for _, n := range want {
				if v, ok := a.Metrics[n]; !ok || v.Value == 0 || v.Unit != unitOf(n) {
					t.Errorf("%s trace=%v: %s emitted as %+v (present %v)", w, trace, n, v, ok)
				}
			}
			for _, n := range countMetrics {
				if va, ok := ma[n]; ok && va != mb[n] {
					t.Errorf("%s: count metric %s differs between runs: %v vs %v", w, n, va, mb[n])
				}
			}
		}
	}
}

// TestRefusesSchedulerOverride pins the refusal to run with the
// simulator's scheduler override set.
func TestRefusesSchedulerOverride(t *testing.T) {
	t.Setenv("NEKTAR_SIMNET_SCHED", "serial")
	var out bytes.Buffer
	if code := parentMain([]string{"--workload", "turb2d-serial"}, &out); code == 0 || out.Len() != 0 {
		t.Fatalf("ran with the override set: code %d, output %q", code, out.String())
	}
}
