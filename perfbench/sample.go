package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"sync"
	"syscall"
	"time"

	"nektar/internal/bench"
	"nektar/internal/blas"
	"nektar/internal/core"
	"nektar/internal/engine"
	"nektar/internal/farm"
	"nektar/internal/machine"
	"nektar/internal/mpi"
	"nektar/internal/simnet"
	"nektar/internal/spectral"
)

// sampleSpec is everything one child process needs to run one sample.
// The parent derives it from the workload and the seed; the child
// receives nothing else.
type sampleSpec struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Sched    string `json:"sched"` // "default" or "serial" (cluster runs)
	Trace    bool   `json:"trace"`
	Probes   bool   `json:"probes,omitempty"` // traced runs: also run the layer probes
	TraceOut string `json:"trace_out,omitempty"`

	// Solver workloads.
	N     int `json:"n,omitempty"`
	P     int `json:"p,omitempty"` // 0: one host rank, comm nil
	Warm  int `json:"warm,omitempty"`
	Steps int `json:"steps,omitempty"`

	// Farm workload.
	Seconds   float64 `json:"seconds,omitempty"`
	Sample    int     `json:"sample,omitempty"` // index of this farm sample in the run
	Clients   int     `json:"clients,omitempty"`
	Workers   int     `json:"workers,omitempty"`
	JobN      int     `json:"job_n,omitempty"`
	JobSteps  int     `json:"job_steps,omitempty"`
	CkptEvery int     `json:"ckpt_every,omitempty"`
	SetupReps int     `json:"setup_reps,omitempty"`
	Dir       string  `json:"dir,omitempty"`

	// RefSeeds asks a farm child for untimed farm.RunSpec reference
	// hashes of these job seeds instead of a timed sample.
	RefSeeds []int64 `json:"ref_seeds,omitempty"`
}

// sampleResult is what a child reports back.
type sampleResult struct {
	SetupS   []float64 `json:"setup_s"`              // set-up host wall seconds
	SetupCPU []float64 `json:"setup_cpu_s"`          // process CPU seconds of the same set-ups
	StepS    []float64 `json:"step_s,omitempty"`     // timed steps, rank 0
	StepCPU  []float64 `json:"step_cpu_s,omitempty"` // process CPU seconds of the same steps
	HostS    float64   `json:"host_s"`               // whole run (simnet.Run or Loop.Run)
	Steps    int       `json:"steps"`                // steps run, warm-up included
	MemMB    float64   `json:"mem_mb"`
	Sched    string    `json:"sched,omitempty"` // resolved scheduler

	Hash     string    `json:"hash,omitempty"`      // whole final field
	RankHash []string  `json:"rank_hash,omitempty"` // per-rank final state
	Wall     []float64 `json:"wall,omitempty"`      // virtual clocks
	CPU      []float64 `json:"cpu,omitempty"`
	Tripped  bool      `json:"tripped,omitempty"`

	Jobs     []jobRecord `json:"jobs,omitempty"`
	LoopCPU  float64     `json:"loop_cpu_s,omitempty"` // process CPU seconds of the closed loop
	Lost     int         `json:"lost,omitempty"`
	RefHash  []string    `json:"ref_hash,omitempty"`
	Attempts int64       `json:"attempts,omitempty"`
	WAL      int         `json:"wal,omitempty"`

	Layer map[string]float64 `json:"layer,omitempty"`
	Spans []spanSummary      `json:"spans,omitempty"`
}

// jobRecord is one farm job as the closed-loop client saw it.
type jobRecord struct {
	Seed     int64   `json:"seed"`
	ID       string  `json:"id"`
	State    string  `json:"state"`
	Hash     string  `json:"hash"`
	Cached   bool    `json:"cached,omitempty"`
	SubmitS  float64 `json:"submit_s"`  // Submit call latency
	QueueS   float64 `json:"queue_s"`   // submit to first seen running
	RunS     float64 `json:"run_s"`     // first seen running to done
	LatencyS float64 `json:"latency_s"` // submit to done
}

func runSample(sp sampleSpec) (*sampleResult, error) {
	var rec *recorder
	if sp.Trace {
		rec = newRecorder()
	}
	var res *sampleResult
	var err error
	switch sp.Workload {
	case "turb2d-serial":
		res, err = runTurbSerial(sp, rec)
	case "turb2d-slab", "nektarf-cluster":
		res, err = runCluster(sp, rec)
	case "farm-turb2d":
		if sp.RefSeeds != nil {
			return farmReference(sp)
		}
		res, err = runFarm(sp, rec)
	default:
		err = fmt.Errorf("unknown workload %q", sp.Workload)
	}
	if err != nil {
		return nil, err
	}
	if sp.Probes {
		if err := runProbes(sp, res, rec); err != nil {
			return nil, err
		}
	}
	if sp.Trace {
		spans := rec.all()
		res.Spans = summarizeSpans(spans)
		if sp.TraceOut != "" {
			if err := writeSpans(sp.TraceOut, spans); err != nil {
				return nil, err
			}
		}
	}
	return res, nil
}

// procCPU is the process's user+system CPU seconds so far.
func procCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// memMB is the Go runtime's peak memory obtained from the OS.
func memMB() float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / 1e6
}

// turbConfig is the decaying 2D turbulence configuration every turb2d
// workload runs; the seed picks the PAO phases.
func turbConfig(n int, seed int64) spectral.Config {
	return spectral.Config{N: n, Re: 500, Dt: 2e-3, Seed: uint64(seed)}
}

// hashField digests a spectral field by its float bits.
func hashField(w []complex128) string {
	h := sha256.New()
	var b [16]byte
	for _, v := range w {
		binary.LittleEndian.PutUint64(b[0:8], math.Float64bits(real(v)))
		binary.LittleEndian.PutUint64(b[8:16], math.Float64bits(imag(v)))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// timedSolver wraps a solver to time each Step from the outside: the
// engine-overhead probe subtracts the summed Step time from Loop.Run.
type timedSolver struct {
	engine.Solver
	total      time.Duration
	start, end time.Time // the latest Step
}

func (t *timedSolver) Step() {
	t.start = time.Now()
	t.Solver.Step()
	t.end = time.Now()
	t.total += t.end.Sub(t.start)
}

// stepClock records rank 0's per-step host times through Loop.OnStep:
// a step is the interval between consecutive OnStep calls, so it holds
// the whole loop iteration the caller waits for. With a recorder it
// also emits one engine.step span per step, with the timed Step call
// as its child.
type stepClock struct {
	warm    int
	ts      *timedSolver
	rec     *recorder
	root    int64
	last    time.Time
	lastCPU float64
	steps   []float64
	cpu     []float64 // process CPU seconds per timed step
	onEnd   func()    // called once, when the warm-up ends
}

func (c *stepClock) start() { c.last, c.lastCPU = time.Now(), procCPU() }

func (c *stepClock) onStep(step int) {
	now, cpu := time.Now(), procCPU()
	if step > c.warm {
		c.steps = append(c.steps, now.Sub(c.last).Seconds())
		c.cpu = append(c.cpu, cpu-c.lastCPU)
	} else if step == c.warm && c.onEnd != nil {
		c.onEnd()
	}
	c.lastCPU = cpu
	if c.rec != nil {
		trace := fmt.Sprintf("step-%d", step)
		id := c.rec.add("engine.step", trace, c.root, c.last, now)
		c.rec.add("solver.step", trace, id, c.ts.start, c.ts.end)
	}
	c.last = now
}

// stageDelta snapshots per-stage seconds and counts at the end of the
// warm-up so the traced run reports timed steps only.
type stageDelta struct {
	seconds, wall []float64
	flops, bytes  int64
}

func snapStages(s engine.Solver) stageDelta {
	st := s.Stages()
	tot := st.Total()
	return stageDelta{
		seconds: append([]float64(nil), st.Seconds...),
		wall:    append([]float64(nil), st.Wall...),
		flops:   tot.TotalFlops(),
		bytes:   tot.TotalBytes(),
	}
}

func (d stageDelta) since(s engine.Solver) stageDelta {
	now := snapStages(s)
	for i := range now.seconds {
		now.seconds[i] -= d.seconds[i]
		now.wall[i] -= d.wall[i]
	}
	now.flops -= d.flops
	now.bytes -= d.bytes
	return now
}

// runTurbSerial is turb2d-serial: one host rank (comm nil) through
// engine.Loop, no checkpoints.
func runTurbSerial(sp sampleSpec, rec *recorder) (*sampleResult, error) {
	res := &sampleResult{}
	t0, c0 := time.Now(), procCPU()
	s, err := spectral.NewTurb2D(turbConfig(sp.N, sp.Seed), nil, nil)
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	res.SetupS, res.SetupCPU = []float64{t1.Sub(t0).Seconds()}, []float64{procCPU() - c0}
	rec.add("setup", "setup", 0, t0, t1)

	if rec != nil {
		// The serial solver is unpriced, so counts reach its stages only
		// through the global recorder.
		s.Stages().Attach()
		defer s.Stages().Detach()
	}
	ts := &timedSolver{Solver: s}
	var warm stageDelta
	clk := &stepClock{warm: sp.Warm, ts: ts, rec: rec, onEnd: func() { warm = snapStages(s) }}
	loop := engine.Loop{Solver: ts, Steps: sp.Warm + sp.Steps, OnStep: clk.onStep}
	clk.start()
	lt0 := time.Now()
	out, err := loop.Run()
	if err != nil {
		return nil, err
	}
	res.HostS = time.Since(lt0).Seconds()
	res.MemMB = memMB()
	res.StepS, res.StepCPU = clk.steps, clk.cpu
	res.Steps = out.StepsRun
	res.Tripped = out.Outcome == engine.Tripped
	res.Hash = hashField(s.Field())
	if rec != nil {
		res.Layer = turbLayer(sp, warm.since(s), res.HostS, ts.total, out.StepsRun)
	}
	return res, nil
}

// turbLayer turns a turb2d run's stage deltas into per-layer metrics.
// flops_per_step is the global count; in a slab run the caller passes
// the sum over ranks.
func turbLayer(sp sampleSpec, d stageDelta, loopS float64, stepTotal time.Duration, stepsRun int) map[string]float64 {
	m := map[string]float64{
		"spectral.flops_per_step": float64(d.flops) / float64(sp.Steps),
		"engine.overhead_us":      (loopS - stepTotal.Seconds()) / float64(stepsRun) * 1e6,
	}
	keys := []string{"to_phys", "convolve", "to_spec", "update", "diag"}
	for i, k := range keys {
		m["spectral."+k+"_s"] = d.seconds[i] / float64(sp.Steps)
	}
	return m
}

// clusterMachine is the simulated cluster each cluster workload runs
// on: turb2d-slab on Muses Fast Ethernet, nektarf-cluster on the
// RoadRunner Myrinet model.
func clusterMachine(workload string) *machine.Machine {
	if workload == "nektarf-cluster" {
		return machine.RoadRunnerMyr()
	}
	return machine.Muses()
}

// clusterModel copies the machine's network model with the scheduler
// the sample asks for ("serial" forces SchedSerial; anything else keeps
// the default).
func clusterModel(mach *machine.Machine, sched string) simnet.Model {
	model := *mach.Net
	if sched == "serial" {
		model.Scheduler = simnet.SchedSerial
	}
	return model
}

// resolvedScheduler mirrors simnet's scheduler choice for a run the
// benchmark starts: the environment override is refused up front, so
// the model's mode, the rank count, thread-keyed recording support and
// GOMAXPROCS decide it.
func resolvedScheduler(model *simnet.Model, p int) string {
	if model.Scheduler == simnet.SchedSerial || p < 2 || !blas.ThreadRecordingSupported() {
		return "serial"
	}
	if model.Scheduler == simnet.SchedAuto && runtime.GOMAXPROCS(0) < 2 {
		return "serial"
	}
	return "parallel"
}

// newClusterSolver builds one rank of a cluster workload: the decaying
// turb2d solver on its slab, or the registered nsf workload with a
// seeded three-dimensional perturbation.
func newClusterSolver(sp sampleSpec, comm *mpi.Comm, cpu *machine.CPU) (engine.Solver, error) {
	if sp.Workload == "turb2d-slab" {
		return spectral.NewTurb2D(turbConfig(sp.N, sp.Seed), comm, cpu)
	}
	wl, err := bench.WorkloadByName("nsf")
	if err != nil {
		return nil, err
	}
	s, err := wl.New(comm, cpu)
	if err != nil {
		return nil, err
	}
	ns, ok := s.(*core.NSF)
	if !ok {
		return nil, fmt.Errorf("workload nsf built %T, not *core.NSF", s)
	}
	ns.PerturbMode(nsfPerturbation(sp.Seed))
	return ns, nil
}

// nsfPerturbation maps a seed to the amplitude of the spanwise
// disturbance seeded into every nonzero Fourier mode.
func nsfPerturbation(seed int64) float64 {
	return 1e-3 * (1 + float64(uint64(seed)%1000)/1000)
}

// runCluster is turb2d-slab and nektarf-cluster: P simulated ranks,
// each constructing its solver and stepping it through engine.Loop;
// rank 0 reads the setup time after a Barrier that follows
// construction and records the step times.
func runCluster(sp sampleSpec, rec *recorder) (*sampleResult, error) {
	mach := clusterMachine(sp.Workload)
	model := clusterModel(mach, sp.Sched)
	p := sp.P
	res := &sampleResult{
		Sched:    resolvedScheduler(&model, p),
		RankHash: make([]string, p),
	}
	slabs := make([][]complex128, p)
	errs := make([]error, p)
	var (
		clk      *stepClock
		ts0      *timedSolver
		loopS    float64
		delta0   stageDelta
		stepsRun int
		mu       sync.Mutex
		flops    int64
		bytes    int64
		tripped  bool
	)
	var runID int64
	t0, c0 := time.Now(), procCPU()
	if rec != nil {
		runID = rec.open("simnet.run", "run", 0)
	}
	wall, cpu, err := simnet.Run(p, &model, func(n *simnet.Node) {
		comm := mpi.World(n)
		s, err := newClusterSolver(sp, comm, &mach.CPU)
		if err != nil {
			// Every rank fails alike (same config), so none is left
			// waiting in the Barrier.
			errs[n.Rank] = err
			return
		}
		comm.Barrier()
		ts := &timedSolver{Solver: s}
		var warm stageDelta
		c := &stepClock{warm: sp.Warm, ts: ts, onEnd: func() { warm = snapStages(s) }}
		if n.Rank == 0 {
			t1 := time.Now()
			res.SetupS, res.SetupCPU = []float64{t1.Sub(t0).Seconds()}, []float64{procCPU() - c0}
			rec.add("setup", "setup", runID, t0, t1)
			c.rec, c.root = rec, runID
			clk, ts0 = c, ts
		}
		loop := engine.Loop{Solver: ts, Steps: sp.Warm + sp.Steps, Rank: n.Rank, OnStep: c.onStep}
		c.start()
		lt0 := time.Now()
		out, err := loop.Run()
		if err != nil {
			errs[n.Rank] = err
			return
		}
		d := warm.since(s)
		mu.Lock()
		flops += d.flops
		bytes += d.bytes
		tripped = tripped || out.Outcome == engine.Tripped
		mu.Unlock()
		if n.Rank == 0 {
			loopS = time.Since(lt0).Seconds()
			delta0, stepsRun = d, out.StepsRun
		}
		res.RankHash[n.Rank] = farm.HashState(out.Final)
		if t, ok := s.(*spectral.Turb2D); ok {
			slabs[n.Rank] = t.Field()
		}
	})
	res.HostS = time.Since(t0).Seconds()
	rec.close(runID)
	if err != nil {
		return nil, fmt.Errorf("simnet.Run: %w", err)
	}
	for _, e := range errs {
		if e != nil {
			return nil, e
		}
	}
	res.MemMB = memMB()
	res.StepS, res.StepCPU = clk.steps, clk.cpu
	res.Steps = stepsRun
	res.Wall, res.CPU = wall, cpu
	res.Tripped = tripped
	if slabs[0] != nil {
		var all []complex128
		for _, sl := range slabs {
			all = append(all, sl...)
		}
		res.Hash = hashField(all)
	}
	if rec != nil {
		res.Layer = clusterLayer(sp, delta0, flops, bytes, loopS, ts0.total, stepsRun, wall, cpu)
	}
	return res, nil
}

// clusterLayer is the per-layer view of one traced cluster run.
func clusterLayer(sp sampleSpec, d0 stageDelta, flops, bytes int64, loopS float64,
	stepTotal time.Duration, stepsRun int, wall, cpu []float64) map[string]float64 {
	var sw, sc float64
	for i := range wall {
		sw += wall[i]
		sc += cpu[i]
	}
	steps := float64(sp.Steps)
	var m map[string]float64
	if sp.Workload == "turb2d-slab" {
		d0.flops = flops
		m = turbLayer(sp, d0, loopS, stepTotal, stepsRun)
	} else {
		m = map[string]float64{
			"blas.flops_per_step": float64(flops) / steps,
			"blas.bytes_per_step": float64(bytes) / steps,
			"engine.overhead_us":  (loopS - stepTotal.Seconds()) / float64(stepsRun) * 1e6,
		}
		for i := range d0.seconds {
			m[fmt.Sprintf("core.stage%d_s", i+1)] = d0.seconds[i] / steps
			m[fmt.Sprintf("core.stage%d_wall_s", i+1)] = d0.wall[i] / steps
		}
	}
	m["simnet.wait_frac"] = 1 - sc/sw
	return m
}
