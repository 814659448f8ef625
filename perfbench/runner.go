package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"
)

// baseSpec derives a workload's sample from the seed. The seed picks
// the initial field (turb2d phases, the Nektar-F spanwise
// perturbation, the farm jobs' seeds) and the timed step count, so
// runs of different seeds differ in both.
func baseSpec(o options) sampleSpec {
	u := uint64(o.seed)
	sp := sampleSpec{Workload: o.workload, Seed: o.seed, Sched: "default", Warm: 2}
	switch o.workload {
	case "turb2d-serial":
		sp.N, sp.Steps = 256, 30+int(u%8)
	case "turb2d-slab":
		sp.N, sp.P, sp.Steps = 256, 8, 20+int(u%8)
	case "nektarf-cluster":
		sp.P, sp.Steps = 32, 8+int(u%4)
	case "farm-turb2d":
		sp.Warm = 0
		sp.Clients, sp.Workers = 2, 2
		sp.JobN, sp.JobSteps, sp.CkptEvery = farmJobN, 10, 2
		sp.SetupReps = 11
		sp.Seconds = o.seconds
		sp.Dir = o.workdir
	}
	if o.small {
		sp.Warm, sp.Steps = 1, 10+int(u%2)
		switch o.workload {
		case "turb2d-serial":
			sp.N = 32
		case "turb2d-slab":
			sp.N, sp.P = 32, 4
		case "nektarf-cluster":
			sp.P = 4
		case "farm-turb2d":
			sp.Warm, sp.Steps = 0, 0
			sp.JobN, sp.JobSteps, sp.CkptEvery, sp.SetupReps = 16, 6, 3, 2
		}
	}
	return sp
}

// farmJobN is the grid of a farm-turb2d job; the checkpoint probe
// writes a state of this size on every workload.
const farmJobN = 64

// minSamples is the fewest child samples an untraced run takes, however
// long they last: the cross-sample checks need two.
const minSamples = 2

// report collects one run's checks and metrics.
type report struct {
	workload  string
	trace     bool
	attempted int
	failed    int
	failures  []string
	metrics   map[string]float64
	notes     []string
	spans     []spanSummary
}

func newReport(o options) *report {
	return &report{workload: o.workload, trace: o.trace, metrics: map[string]float64{}}
}

func (r *report) fail(ops int, format string, args ...any) {
	r.failed += ops
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func (r *report) correct() bool { return r.failed == 0 && len(r.failures) == 0 }

// declared is the metric list this run puts on its result line.
func (r *report) declared() []string {
	if r.trace {
		return perLayer
	}
	return endToEnd
}

// printed is the metric list this run prints above its result line.
func (r *report) printed() []string {
	if r.trace {
		return slices.Concat(layerPrinted[r.workload], probePrinted)
	}
	return printedOnly[r.workload]
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// finish checks that exactly the declared and printed-only metrics
// were measured.
func (r *report) finish() {
	want := slices.Concat(r.declared(), r.printed())
	for _, name := range want {
		v, ok := r.metrics[name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			r.fail(0, "metric %s was not measured", name)
		}
	}
	if len(r.metrics) != len(want) {
		r.fail(0, "measured %d metrics, declared %d", len(r.metrics), len(want))
	}
}

// print writes the human-readable report and, last, the JSON result
// line. Metrics appear only when every check passed.
func (r *report) print(w io.Writer) {
	r.finish()
	for _, n := range r.notes {
		fmt.Fprintf(w, "# %s\n", n)
	}
	frac := 0.0
	if r.attempted > 0 {
		frac = float64(r.failed) / float64(r.attempted)
	}
	fmt.Fprintf(w, "# failed_frac = %g (%d of %d operations)\n", frac, r.failed, r.attempted)
	for _, f := range r.failures {
		fmt.Fprintf(w, "# FAILED: %s\n", f)
	}
	line := resultLine{Correct: r.correct(), Attempted: max(r.attempted, 1), Failed: r.failed,
		Metrics: map[string]metricValue{}}
	if line.Correct {
		for _, name := range r.declared() {
			v := r.metrics[name]
			line.Metrics[name] = metricValue{Value: v, Unit: unitOf(name)}
			fmt.Fprintf(w, "%-28s %16.9g %s\n", name, v, unitOf(name))
		}
		for _, name := range r.printed() {
			fmt.Fprintf(w, "# %-26s %16.9g %s (printed only, see README)\n", name, r.metrics[name], unitOf(name))
		}
	}
	if len(r.spans) > 0 {
		fmt.Fprintf(w, "# %-24s %7s %12s %12s %12s\n", "span", "count", "total_s", "self_s", "self_s/span")
		for _, s := range r.spans {
			fmt.Fprintf(w, "# %-24s %7d %12.6f %12.6f %12.9f\n", s.Name, s.Count, s.TotalS, s.SelfS, s.SelfS/float64(s.Count))
		}
	}
	b, _ := json.Marshal(line) // plain maps of floats and strings always marshal
	fmt.Fprintln(w, string(b))
}

// hostStamp names the host and configuration a result was measured on.
func hostStamp(o options) string {
	s := fmt.Sprintf("go=%s GOMAXPROCS=%d NumCPU=%d git=%s", runtime.Version(),
		runtime.GOMAXPROCS(0), runtime.NumCPU(), gitRev())
	if sp := baseSpec(o); sp.P > 1 {
		mach := clusterMachine(o.workload)
		model := clusterModel(mach, sp.Sched)
		s += fmt.Sprintf(" machine=%s P=%d sched=%s", mach.Name, sp.P, resolvedScheduler(&model, sp.P))
	}
	return s
}

// gitRev is the checkout's commit, or "none" outside a git work tree.
func gitRev() string {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	var out bytes.Buffer
	cmd := exec.CommandContext(ctx, "git", "rev-parse", "--short=12", "HEAD")
	cmd.Stdout = &out
	if err := cmd.Run(); err != nil {
		return "none"
	}
	return strings.TrimSpace(out.String())
}

// untraced is the end-to-end pass: child samples until the time budget
// is spent, then the output checks against untimed references, then
// the metrics.
func untraced(o options) (*report, error) {
	sp := baseSpec(o)
	rep := newReport(o)
	var samples []*sampleResult
	pooled := 0 // timed steps or jobs so far
	start := time.Now()
	for len(samples) < minSamples || pooled < tailMinSamples || time.Since(start).Seconds() < o.seconds {
		if sp.Workload == "farm-turb2d" {
			// Each farm sample gets a fresh directory and a slice of the
			// budget; the closed loop ends once that slice is spent.
			sp.Sample = len(samples)
			sp.Dir = filepath.Join(o.workdir, fmt.Sprintf("sample-%d", sp.Sample))
			sp.Seconds = min(farmSampleSeconds, max(o.seconds-time.Since(start).Seconds(), 1))
		}
		res, err := child(sp)
		if err != nil {
			return nil, err
		}
		samples = append(samples, res)
		pooled += len(res.StepS) + len(res.Jobs)
	}
	if sp.Workload == "farm-turb2d" {
		if err := checkFarm(rep, sp, samples); err != nil {
			return nil, err
		}
		farmMetrics(rep, sp, samples)
		return rep, nil
	}
	if err := checkSolver(rep, sp, samples); err != nil {
		return nil, err
	}
	solverMetrics(rep, sp, samples)
	return rep, nil
}

// checkSolver compares every sample's final state with the workload's
// reference: the first sample for turb2d-serial; for turb2d-slab, an
// untimed one-rank run for the field (the serial-vs-slab contract) and
// the first sample for the virtual clocks; for nektarf-cluster, an
// untimed SchedSerial run for the virtual clocks and per-rank state.
func checkSolver(rep *report, sp sampleSpec, samples []*sampleResult) error {
	ref, fieldRef := samples[0], samples[0]
	switch sp.Workload {
	case "turb2d-slab":
		rsp := sp
		rsp.Workload, rsp.P = "turb2d-serial", 0
		r, err := child(rsp)
		if err != nil {
			return fmt.Errorf("serial reference: %w", err)
		}
		fieldRef = r
	case "nektarf-cluster":
		rsp := sp
		rsp.Sched = "serial"
		r, err := child(rsp)
		if err != nil {
			return fmt.Errorf("SchedSerial reference: %w", err)
		}
		ref, fieldRef = r, r
	}
	for i, s := range samples {
		n := len(s.StepS)
		rep.attempted += n
		switch {
		case s.Tripped:
			rep.fail(n, "sample %d: the watchdog tripped", i)
		case s.Hash != fieldRef.Hash:
			rep.fail(n, "sample %d: final field hash %.12s differs from the reference %.12s", i, s.Hash, fieldRef.Hash)
		case !equalBits(s.Wall, ref.Wall) || !equalBits(s.CPU, ref.CPU):
			rep.fail(n, "sample %d: virtual clocks differ from the reference", i)
		case !slices.Equal(s.RankHash, ref.RankHash):
			rep.fail(n, "sample %d: per-rank state differs from the reference", i)
		}
	}
	return nil
}

func equalBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// simStep is the virtual seconds per step: the slowest rank's virtual
// wall clock over the steps of the run.
func simStep(s *sampleResult) float64 {
	var w float64
	for _, x := range s.Wall {
		w = max(w, x)
	}
	return w / float64(s.Steps)
}

func solverMetrics(rep *report, sp sampleSpec, samples []*sampleResult) {
	var steps, cpus, setups, setupCPU, mems []float64
	for _, s := range samples {
		steps = append(steps, s.StepS...)
		cpus = append(cpus, s.StepCPU...)
		setups = append(setups, s.SetupS...)
		setupCPU = append(setupCPU, s.SetupCPU...)
		mems = append(mems, s.MemMB)
	}
	tailV, pct, ok := tail(steps)
	rep.metrics["step_s"] = median(steps)
	rep.metrics["step_s_tail"] = tailV
	rep.metrics["step_cpu_s"] = median(cpus)
	rep.metrics["setup_s"] = median(setupCPU)
	rep.metrics["setup_wall_s"] = median(setups)
	rep.metrics["mem_mb"] = median(mems)
	if sp.P > 1 {
		rep.metrics["sim_step_s"] = simStep(samples[0])
		rep.note("scheduler %s; sim_step_s over %d steps of %d ranks", samples[0].Sched, samples[0].Steps, sp.P)
	}
	rep.note("%d samples x (%d warm-up + %d timed steps); %d step times; tail at p%.1f (resolved=%v); %d set-ups",
		len(samples), sp.Warm, sp.Steps, len(steps), pct, ok, len(setups))
	per := make([]string, len(samples))
	for i, s := range samples {
		per[i] = fmt.Sprintf("%.4g(cpu %.4g)", median(s.StepS), median(s.StepCPU))
	}
	rep.note("per-sample step_s medians: %s", strings.Join(per, " "))
}

// farmSampleSeconds is the closed-loop length of one farm sample: long
// enough for dozens of jobs, short enough that a run holds several.
const farmSampleSeconds = 2.5

// checkFarm audits the farm samples: every job done exactly once, none
// lost or answered from the cache, each result equal to an untimed
// farm.RunSpec of the same spec.
func checkFarm(rep *report, sp sampleSpec, samples []*sampleResult) error {
	var jobs []jobRecord
	for _, s := range samples {
		jobs = append(jobs, s.Jobs...)
		if s.Lost != 0 {
			rep.attempted += s.Lost
			rep.fail(s.Lost, "%d submitted jobs are not accounted for", s.Lost)
		}
	}
	rsp := sp
	rsp.RefSeeds = make([]int64, len(jobs))
	for i, j := range jobs {
		rsp.RefSeeds[i] = j.Seed
	}
	ref, err := child(rsp)
	if err != nil {
		return fmt.Errorf("farm reference: %w", err)
	}
	rep.attempted += len(jobs)
	seen := map[int64]bool{}
	for i, j := range jobs {
		switch {
		case j.State != "done":
			rep.fail(1, "job %s (seed %d) ended %s", j.ID, j.Seed, j.State)
		case j.Cached || seen[j.Seed]:
			rep.fail(1, "job %s (seed %d) was answered twice", j.ID, j.Seed)
		case j.Hash != ref.RefHash[i]:
			rep.fail(1, "job %s (seed %d): result hash differs from farm.RunSpec", j.ID, j.Seed)
		}
		seen[j.Seed] = true
	}
	return nil
}

func farmMetrics(rep *report, sp sampleSpec, samples []*sampleResult) {
	var lat, setups, setupCPU, mems []float64
	var loopS, loopCPU float64
	for _, s := range samples {
		for _, j := range s.Jobs {
			lat = append(lat, j.LatencyS)
		}
		setups = append(setups, s.SetupS...)
		setupCPU = append(setupCPU, s.SetupCPU...)
		mems = append(mems, s.MemMB)
		loopS += s.HostS
		loopCPU += s.LoopCPU
	}
	tailV, pct, ok := tail(lat)
	rep.metrics["jobs_per_s"] = float64(len(lat)) / loopS
	rep.metrics["job_s"] = median(lat)
	rep.metrics["job_s_tail"] = tailV
	rep.metrics["job_cpu_s"] = loopCPU / float64(len(lat))
	rep.metrics["step_cpu_s"] = loopCPU / float64(len(lat)*sp.JobSteps)
	rep.metrics["setup_s"] = median(setupCPU)
	rep.metrics["setup_wall_s"] = median(setups)
	rep.metrics["mem_mb"] = median(mems)
	rep.note("%d samples, %d jobs in %.2f s of closed loop; tail at p%.1f (resolved=%v); %d set-ups",
		len(samples), len(lat), loopS, pct, ok, len(setups))
}

// traced is the per-layer pass. It runs the workload once untraced and
// once traced (the difference is the tracing overhead), plus, on the
// cluster workloads, once under SchedSerial for the scheduler speedup.
func traced(o options) (*report, error) {
	rep := newReport(o)
	sp := baseSpec(o)
	tsp := sp
	tsp.Trace, tsp.Probes = true, true
	traceDir := filepath.Join(o.root, "traces")
	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		return nil, err
	}
	traceOut := filepath.Join(traceDir, fmt.Sprintf("%s-seed%d.jsonl", o.workload, o.seed))
	tsp.TraceOut = traceOut
	tsp.Dir = filepath.Join(o.workdir, "traced")

	if o.workload == "farm-turb2d" {
		sp.Seconds, tsp.Seconds = o.seconds/2, o.seconds/2
		sp.Dir = filepath.Join(o.workdir, "plain")
		plain, err := child(sp)
		if err != nil {
			return nil, err
		}
		tr, err := child(tsp)
		if err != nil {
			return nil, err
		}
		checkFarmPair(rep, plain, tr)
		copyLayer(rep, []*sampleResult{tr})
		rep.metrics["trace.overhead_s"] = jobMedian(tr) - jobMedian(plain)
		rep.note("spans written to %s", tsp.TraceOut)
		return rep, nil
	}

	// Untraced and traced samples alternate until the budget is spent,
	// so drift on the host hits both sides alike; only the first traced
	// sample runs the layer probes and writes its spans out.
	var plain, trs []*sampleResult
	start := time.Now()
	for len(plain) == 0 || time.Since(start).Seconds() < o.seconds {
		p, err := child(sp)
		if err != nil {
			return nil, err
		}
		t, err := child(tsp)
		if err != nil {
			return nil, err
		}
		plain, trs = append(plain, p), append(trs, t)
		tsp.Probes, tsp.TraceOut = false, ""
	}
	samples := append(append([]*sampleResult(nil), plain...), trs...)
	ref := plain[0]
	if sp.P > 1 {
		ssp := sp
		ssp.Sched = "serial"
		ser, err := child(ssp)
		if err != nil {
			return nil, err
		}
		samples = append(samples, ser)
		var hosts []float64
		for _, p := range plain {
			hosts = append(hosts, p.HostS)
		}
		host := median(hosts)
		rep.metrics["simnet.sched_speedup"] = ser.HostS / host
		rep.note("host s per run: SchedSerial %.3f, default (%s) %.3f", ser.HostS, ref.Sched, host)
	}
	for i, s := range samples {
		n := len(s.StepS)
		rep.attempted += n
		if s.Tripped || s.Hash != ref.Hash || !equalBits(s.Wall, ref.Wall) || !slices.Equal(s.RankHash, ref.RankHash) {
			rep.fail(n, "traced-pass sample %d disagrees with the first untraced sample", i)
		}
	}
	copyLayer(rep, trs)
	stepsOf := func(ss []*sampleResult) []float64 {
		var out []float64
		for _, s := range ss {
			out = append(out, s.StepS...)
		}
		return out
	}
	untr, trd := median(stepsOf(plain)), median(stepsOf(trs))
	rep.metrics["trace.overhead_s"] = trd - untr
	rep.note("%d untraced + %d traced samples; step_s untraced %.6f, traced %.6f; spans written to %s",
		len(plain), len(trs), untr, trd, traceOut)
	return rep, nil
}

// copyLayer takes the traced samples' layer metrics (the median over
// samples of each) and merges their span summaries by name.
func copyLayer(rep *report, trs []*sampleResult) {
	vals := map[string][]float64{}
	by := map[string]*spanSummary{}
	for _, t := range trs {
		for k, v := range t.Layer {
			vals[k] = append(vals[k], v)
		}
		for _, s := range t.Spans {
			a := by[s.Name]
			if a == nil {
				a = &spanSummary{Name: s.Name}
				by[s.Name] = a
			}
			a.Count += s.Count
			a.TotalS += s.TotalS
			a.SelfS += s.SelfS
		}
	}
	for k, v := range vals {
		rep.metrics[k] = median(v)
	}
	for _, a := range by {
		rep.spans = append(rep.spans, *a)
	}
	sort.Slice(rep.spans, func(i, j int) bool { return rep.spans[i].Name < rep.spans[j].Name })
	want := map[string]bool{}
	for _, n := range slices.Concat(rep.declared(), rep.printed()) {
		want[n] = true
	}
	for _, s := range rep.spans {
		if name := "self_s." + s.Name; want[name] {
			rep.metrics[name] = s.SelfS / float64(s.Count)
		}
	}
}

func jobMedian(s *sampleResult) float64 {
	var lat []float64
	for _, j := range s.Jobs {
		lat = append(lat, j.LatencyS)
	}
	return median(lat)
}

// checkFarmPair audits the traced pass's two farm runs: all jobs done,
// and the jobs both runs submitted (they share a seed sequence) agree.
func checkFarmPair(rep *report, a, b *sampleResult) {
	hash := map[int64]string{}
	for _, run := range []*sampleResult{a, b} {
		rep.attempted += len(run.Jobs) + run.Lost
		if run.Lost != 0 {
			rep.fail(run.Lost, "%d submitted jobs are not accounted for", run.Lost)
		}
		for _, j := range run.Jobs {
			if j.State != "done" || j.Cached {
				rep.fail(1, "job %s (seed %d) ended %s cached=%v", j.ID, j.Seed, j.State, j.Cached)
				continue
			}
			if h, ok := hash[j.Seed]; ok && h != j.Hash {
				rep.fail(1, "job seed %d: traced and untraced results differ", j.Seed)
			}
			hash[j.Seed] = j.Hash
		}
	}
}
