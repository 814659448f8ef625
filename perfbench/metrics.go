package main

import (
	"fmt"
	"slices"
	"strings"
)

// workloads are the benchmark's four workloads, in report order.
var workloads = []string{"turb2d-serial", "turb2d-slab", "nektarf-cluster", "farm-turb2d"}

// endToEnd lists the end-to-end metrics every workload reports on the
// result line of an untraced run. A later change is judged against
// their medians, so each must mean the same on every workload and hold
// steady from run to run on a shared 2-core host: where wall time does
// not, the gated host cost is the process CPU time of the same
// interval (see printedOnly). step_cpu_s is per solver step on every
// workload; the farm's is its closed loop's CPU over the steps its jobs
// ran.
var endToEnd = []string{"step_cpu_s", "setup_s", "mem_mb"}

// printedOnly are measured and printed by an untraced run but kept off
// its result line: either they exist on some workloads only, or their
// run-to-run spread on a shared 2-core host is wider than any usable
// bound. sim_step_s is a virtual time, so only the cluster workloads
// have it. Wall time follows how much of the machine other load leaves
// free: a parallel-scheduler step needs the second core for every rank
// handoff, the farm's workers need both cores and the disk's fsync
// latency, and set-up is dominated by page faults and fsyncs. Tails
// move the most. failed_frac is 0 on a correct run; the result line
// carries it as the attempted and failed counts.
var printedOnly = map[string][]string{
	"turb2d-serial":   {"step_s", "step_s_tail", "setup_wall_s"},
	"turb2d-slab":     {"step_s", "step_s_tail", "sim_step_s", "setup_wall_s"},
	"nektarf-cluster": {"step_s", "step_s_tail", "sim_step_s", "setup_wall_s"},
	"farm-turb2d":     {"job_cpu_s", "jobs_per_s", "job_s", "job_s_tail", "setup_wall_s"},
}

// perLayer lists the per-layer metrics every workload reports on the
// result line of a traced run. The layer probes (probes.go) time each
// layer's public functions at fixed sizes, whatever the workload, so
// every traced run measures every layer; engine.overhead_us,
// self_s.setup and trace.overhead_s come from the workload's own
// traced samples.
var perLayer = []string{
	"fft.row_ns.n256", "fft.row_ns.m384", "fft.gflops",
	"spectral.transpose_us", "spectral.transpose_bytes",
	"mpi.alltoall_host_us",
	"blas.daxpy_ns.rec", "blas.daxpy_ns.norec", "blas.dgemm_gflops",
	"ckpt.put_ms", "farm.journal_append_ms",
	"engine.overhead_us", "self_s.setup", "trace.overhead_s",
}

var (
	turbLayerNames = []string{
		"spectral.to_phys_s", "spectral.convolve_s", "spectral.to_spec_s",
		"spectral.update_s", "spectral.diag_s", "spectral.flops_per_step",
	}
	clusterLayerNames = []string{"simnet.wait_frac", "simnet.sched_speedup", "self_s.simnet.run"}
	stepSpanNames     = []string{"self_s.engine.step", "self_s.solver.step"}
)

// layerPrinted are the per-layer metrics a traced run of one workload
// measures from that workload's own run and prints above the result
// line: the breakdown of its step or job, which the other workloads do
// not have.
var layerPrinted = map[string][]string{
	"turb2d-serial":   slices.Concat(turbLayerNames, stepSpanNames),
	"turb2d-slab":     slices.Concat(turbLayerNames, clusterLayerNames, stepSpanNames),
	"nektarf-cluster": slices.Concat([]string{"blas.flops_per_step", "blas.bytes_per_step"}, coreStageNames(), clusterLayerNames, stepSpanNames),
	"farm-turb2d": {
		"ckpt.bytes_per_job", "farm.submit_ms", "farm.queue_wait_s", "farm.run_s",
		"farm.attempts_per_job", "farm.wal_records_per_job",
		"self_s.farm.job", "self_s.farm.submit", "self_s.farm.queue", "self_s.farm.run",
	},
}

// probePrinted are probe metrics every traced run prints but keeps off
// its result line: the Alltoall probe's virtual time is the same on
// every run.
var probePrinted = []string{"mpi.alltoall_sim_us"}

func coreStageNames() []string {
	var out []string
	for i := 1; i <= 7; i++ {
		out = append(out, fmt.Sprintf("core.stage%d_s", i))
	}
	for i := 1; i <= 7; i++ {
		out = append(out, fmt.Sprintf("core.stage%d_wall_s", i))
	}
	return out
}

// unitOf names a metric's unit from its name.
func unitOf(name string) string {
	switch {
	case name == "mem_mb":
		return "MB"
	case name == "jobs_per_s":
		return "1/s"
	case name == "simnet.wait_frac":
		return "fraction"
	case name == "simnet.sched_speedup":
		return "x"
	case strings.HasSuffix(name, "gflops"):
		return "GFlop/s"
	case strings.HasSuffix(name, "flops_per_step"):
		return "flop"
	case strings.HasSuffix(name, "bytes_per_step"), name == "spectral.transpose_bytes",
		name == "ckpt.bytes_per_job":
		return "B"
	case strings.HasSuffix(name, "_per_job"):
		return "count"
	case strings.HasSuffix(name, "_ns"), strings.Contains(name, "_ns."):
		return "ns"
	case strings.HasSuffix(name, "_us"):
		return "us"
	case strings.HasSuffix(name, "_ms"):
		return "ms"
	}
	return "s"
}

// betterOf says which direction of a metric is an improvement.
func betterOf(name string) string {
	switch {
	case name == "jobs_per_s", name == "simnet.sched_speedup", strings.HasSuffix(name, "gflops"):
		return "higher"
	}
	return "lower"
}
