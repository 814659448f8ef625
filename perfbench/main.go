// Command perfbench is the repository's benchmark: four workloads driven
// through the public entry points of the solver, simulator, engine and
// farm layers, with end-to-end metrics from untraced runs and a separate
// traced pass for the per-layer breakdown. See README.md.
//
// Usage (from the repository root, through run.sh, which builds it):
//
//	bash perfbench/run.sh --workload turb2d-serial --seed 1 --seconds 10 --trace 0
//
// Every sample runs in a fresh child process of this binary, so no
// pinned OS thread, heap growth or scheduler state from one sample can
// bleed into the next. The last line of standard output is the JSON
// result; it carries metrics only when every output check passed.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"slices"
	"time"

	"nektar/internal/simnet"
)

func main() {
	if len(os.Args) == 3 && os.Args[1] == "-child" {
		os.Exit(childMain(os.Args[2], os.Stdout))
	}
	os.Exit(parentMain(os.Args[1:], os.Stdout))
}

// childMain runs one sample and prints its result as one JSON line.
func childMain(arg string, out io.Writer) int {
	var sp sampleSpec
	if err := json.Unmarshal([]byte(arg), &sp); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench child: bad spec:", err)
		return 2
	}
	res, err := runSample(sp)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench child %s: %v\n", sp.Workload, err)
		return 1
	}
	if err := json.NewEncoder(out).Encode(res); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench child:", err)
		return 1
	}
	return 0
}

// options are the command-line inputs of one benchmark run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	root     string // directory for the run's scratch space and span files
	workdir  string // this run's scratch space, removed at exit
	small    bool   // shrink every workload to test size
}

func parentMain(args []string, out io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	wl := fs.String("workload", "", "workload name: turb2d-serial, turb2d-slab, nektarf-cluster, farm-turb2d")
	seed := fs.Int64("seed", 1, "input seed")
	secs := fs.Float64("seconds", 10, "measured seconds")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if !slices.Contains(workloads, *wl) {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (valid: %v)\n", *wl, workloads)
		return 2
	}
	if *secs <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be > 0 and --trace 0 or 1")
		return 2
	}
	if v, set := os.LookupEnv(simnet.SchedulerEnv); set {
		fmt.Fprintf(os.Stderr,
			"perfbench: refusing to run with %s=%q set: it would override the default scheduler the numbers are meant to measure\n",
			simnet.SchedulerEnv, v)
		return 2
	}
	o := options{workload: *wl, seed: *seed, seconds: *secs, trace: *trace == 1, root: ".bench_build"}
	return runBench(o, out)
}

// runBench runs one benchmark invocation and returns the exit code.
func runBench(o options, out io.Writer) int {
	fmt.Fprintf(out, "# %s seed=%d seconds=%g trace=%v\n", o.workload, o.seed, o.seconds, o.trace)
	fmt.Fprintf(out, "# host: %s\n", hostStamp(o))
	rep, err := measure(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	rep.print(out)
	if !rep.correct() {
		return 1
	}
	return 0
}

// measure runs the untraced or traced pass in a scratch directory of
// its own, removed when it returns.
func measure(o options) (*report, error) {
	if err := os.MkdirAll(o.root, 0o755); err != nil {
		return nil, err
	}
	work, err := os.MkdirTemp(o.root, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)
	o.workdir = work
	if o.trace {
		return traced(o)
	}
	return untraced(o)
}

// childTimeout bounds one child, so a hung sample cannot keep the
// benchmark past its own time limit.
const childTimeout = 150 * time.Second

// child runs one sample in a fresh process of this binary.
func child(sp sampleSpec) (*sampleResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	arg, err := json.Marshal(sp)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, "-child", string(arg))
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s sample (sched %s): %w", sp.Workload, sp.Sched, err)
	}
	var res sampleResult
	if err := json.Unmarshal(stdout.Bytes(), &res); err != nil {
		return nil, fmt.Errorf("%s sample: bad result: %w", sp.Workload, err)
	}
	return &res, nil
}
