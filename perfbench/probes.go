package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"nektar/internal/blas"
	"nektar/internal/ckpt"
	"nektar/internal/core"
	"nektar/internal/engine"
	"nektar/internal/farm"
	"nektar/internal/fft"
	"nektar/internal/machine"
	"nektar/internal/mpi"
	"nektar/internal/simnet"
	"nektar/internal/spectral"
	"nektar/internal/timing"
)

// Layer probes time calls into one layer's public functions from the
// outside, in the traced run only, after the workload's own run so they
// cannot perturb it. Each probe repeats its call in batches, records a
// span per batch, and reports the median per-call time over batches.

const (
	probeBatches = 7
	probeBatch   = 20 * time.Millisecond // target length of one batch
)

// probeCalls times op in probeBatches batches of about probeBatch each
// and returns the median seconds per call. prep, when set, runs before
// every call outside the timed interval.
func probeCalls(rec *recorder, name string, prep, op func()) float64 {
	per := make([]float64, 0, probeBatches)
	for b := 0; b < probeBatches; b++ {
		var busy time.Duration
		calls := 0
		t0 := time.Now()
		for busy < probeBatch || calls == 0 {
			if prep != nil {
				prep()
			}
			c0 := time.Now()
			op()
			busy += time.Since(c0)
			calls++
		}
		rec.add("probe."+name, fmt.Sprintf("probe-%s-%d", name, b), 0, t0, time.Now())
		per = append(per, busy.Seconds()/float64(calls))
	}
	return median(per)
}

// runProbes runs every layer probe at its fixed size, so a traced run
// of any workload reports every layer; on the farm workload, whose
// engine.Loop runs inside the farm, it also times the loop's overhead.
func runProbes(sp sampleSpec, res *sampleResult, rec *recorder) error {
	if res.Layer == nil {
		res.Layer = map[string]float64{}
	}
	m := res.Layer
	if err := fftProbes(m, rec); err != nil {
		return err
	}
	pl, err := spectral.NewPlan2D(fftN, true, nil)
	if err != nil {
		return err
	}
	// The decaying step runs four padded inverses and one padded
	// forward transform, each one N x M transpose.
	m["spectral.transpose_bytes"] = float64(5 * pl.PadTransposeBytes())
	if err := transposeProbe(m, rec); err != nil {
		return err
	}
	if err := alltoallProbe(m, rec); err != nil {
		return err
	}
	shape, err := nsfDgemmShape()
	if err != nil {
		return err
	}
	if err := blasProbes(m, rec, shape); err != nil {
		return err
	}
	if err := storageProbes(sp, m, rec); err != nil {
		return err
	}
	if sp.Workload == "farm-turb2d" {
		return loopProbe(sp, m)
	}
	return nil
}

// fftN is the turb2d workloads' spectral length; the FFT probes time
// it and its 3/2-padded length whatever grid a run uses, so the metric
// names stay fixed.
const fftN = 256

// fftProbes times fft.Plan.Many over an N-row slab at the spectral
// length N and at the padded length M = 3N/2.
func fftProbes(m map[string]float64, rec *recorder) error {
	var flops, secs float64
	for _, l := range []int{fftN, 3 * fftN / 2} {
		plan, err := fft.NewPlan(l)
		if err != nil {
			return err
		}
		rows := fftN
		src := make([]complex128, rows*l)
		for i := range src {
			src[i] = complex(math.Sin(float64(i)), math.Cos(float64(3*i)))
		}
		x := make([]complex128, len(src))
		per := probeCalls(rec, fmt.Sprintf("fft.many.%d", l),
			func() { copy(x, src) }, func() { plan.Many(x, rows, false) })
		name := fmt.Sprintf("fft.row_ns.n%d", l)
		if l != fftN {
			name = fmt.Sprintf("fft.row_ns.m%d", l)
		}
		m[name] = per / float64(rows) * 1e9
		flops += float64(rows) * 5 * float64(l) * math.Log2(float64(l))
		secs += per
	}
	m["fft.gflops"] = flops / secs / 1e9
	return nil
}

// transposeProbe times the one-rank Transposer at the padded N x M
// shape of the turb2d workloads.
func transposeProbe(m map[string]float64, rec *recorder) error {
	mm := 3 * fftN / 2
	tr, err := spectral.NewTransposer(fftN, mm, nil)
	if err != nil {
		return err
	}
	in := make([]complex128, fftN*mm)
	out := make([]complex128, fftN*mm)
	for i := range in {
		in[i] = complex(float64(i), 1)
	}
	m["spectral.transpose_us"] = probeCalls(rec, "transpose", nil, func() { tr.Transpose(in, out) }) * 1e6
	return nil
}

// alltoallP is the rank count of the Alltoall probe: the turb2d-slab
// cluster (Muses Fast Ethernet, P=8) under the default scheduler.
const alltoallP = 8

// alltoallProbe times, on rank 0, a raw mpi.Comm.Alltoall whose
// per-destination block is the turb2d-slab padded transpose payload:
// host and virtual microseconds per call.
func alltoallProbe(m map[string]float64, rec *recorder) error {
	const reps = 10
	block := 2 * (fftN / alltoallP) * (3 * fftN / 2 / alltoallP)
	model := clusterModel(machine.Muses(), "default")
	var host, virt float64
	_, _, err := simnet.Run(alltoallP, &model, func(n *simnet.Node) {
		comm := mpi.World(n)
		send := make([][]float64, alltoallP)
		for j := range send {
			send[j] = make([]float64, block)
		}
		comm.Barrier()
		t0, v0 := time.Now(), comm.Wtime()
		for i := 0; i < reps; i++ {
			comm.Alltoall(send, mpi.AlgAuto)
		}
		comm.Barrier()
		if n.Rank == 0 {
			rec.add("probe.alltoall", "probe-alltoall", 0, t0, time.Now())
			host, virt = time.Since(t0).Seconds()/reps, (comm.Wtime()-v0)/reps
		}
	})
	if err != nil {
		return fmt.Errorf("alltoall probe: %w", err)
	}
	m["mpi.alltoall_host_us"] = host * 1e6
	m["mpi.alltoall_sim_us"] = virt * 1e6
	return nil
}

// nsfDgemmShape is the (m, n, k) of the Nektar-F elemental operator's
// first factorized dgemm at the registered nsf mesh's polynomial order
// p: the (p+1) x (p+1) coefficient block times the (p+1) x q basis
// table. It builds the workload on one simulated rank to read it.
func nsfDgemmShape() ([3]int, error) {
	var shape [3]int
	var buildErr error
	model := clusterModel(machine.RoadRunnerMyr(), "serial")
	_, _, err := simnet.Run(1, &model, func(n *simnet.Node) {
		s, err := newClusterSolver(sampleSpec{Workload: "nektarf-cluster"}, mpi.World(n), nil)
		if err != nil {
			buildErr = err
			return
		}
		ref := s.(*core.NSF).M.Elems[0].Ref
		shape = [3]int{ref.P + 1, ref.QDim[1], ref.P + 1}
	})
	if err == nil {
		err = buildErr
	}
	return shape, err
}

// blasProbes times blas.Daxpy at n=16 with recording off and on, and
// blas.Dgemm at the Nektar-F elemental operator size.
func blasProbes(m map[string]float64, rec *recorder, shape [3]int) error {
	const n = 16
	x, y := make([]float64, n), make([]float64, n)
	for i := range x {
		x[i] = float64(i)
	}
	// Calls this short are timed in runs of inner, so the clock reads
	// do not swamp them; alpha alternates sign so y stays bounded.
	const inner = 1000
	daxpy := func() {
		alpha := 1e-3
		for i := 0; i < inner; i++ {
			blas.Daxpy(n, alpha, x, 1, y, 1)
			alpha = -alpha
		}
	}
	m["blas.daxpy_ns.norec"] = probeCalls(rec, "daxpy.norec", nil, daxpy) / inner * 1e9
	st := timing.NewStages("probe")
	st.Attach()
	st.Begin(0)
	m["blas.daxpy_ns.rec"] = probeCalls(rec, "daxpy.rec", nil, daxpy) / inner * 1e9
	st.End()
	st.Detach()

	mm, nn, kk := shape[0], shape[1], shape[2]
	a, b, c := make([]float64, mm*kk), make([]float64, kk*nn), make([]float64, mm*nn)
	for i := range a {
		a[i] = 1 / float64(i+1)
	}
	for i := range b {
		b[i] = 1 / float64(i+2)
	}
	per := probeCalls(rec, "dgemm", nil, func() {
		for i := 0; i < inner; i++ {
			blas.Dgemm(blas.NoTrans, blas.NoTrans, mm, nn, kk, 1, a, kk, b, nn, 0, c, nn)
		}
	}) / inner
	m["blas.dgemm_gflops"] = 2 * float64(mm*nn*kk) / per / 1e9
	return nil
}

// storageProbes times one durable checkpoint write of a farm-turb2d job
// state (ckpt.DirStore.Put) and one fsynced farm journal append.
func storageProbes(sp sampleSpec, m map[string]float64, rec *recorder) error {
	if err := os.MkdirAll(sp.Dir, 0o755); err != nil {
		return err
	}
	s, err := spectral.NewTurb2D(turbConfig(farmJobN, sp.Seed), nil, nil)
	if err != nil {
		return err
	}
	state, err := engine.Marshal(s)
	if err != nil {
		return err
	}
	dir := filepath.Join(sp.Dir, "probe-store")
	store, err := ckpt.NewDirStore(dir)
	if err != nil {
		return err
	}
	step := 0
	var putErr error
	per := probeCalls(rec, "ckpt.put", nil, func() {
		step++
		if _, err := store.Put(ckpt.Meta{Kind: "turb2d", Step: step}, state); err != nil && putErr == nil {
			putErr = err
		}
	})
	if putErr != nil {
		return fmt.Errorf("ckpt probe: %w", putErr)
	}
	m["ckpt.put_ms"] = per * 1e3
	if err := os.RemoveAll(dir); err != nil {
		return err
	}

	jl, _, err := farm.OpenJournal(filepath.Join(sp.Dir, "probe.nkj"))
	if err != nil {
		return err
	}
	var appendErr error
	per = probeCalls(rec, "journal.append", nil, func() {
		if err := jl.Append(&farm.Entry{Job: "probe", Ev: farm.EvSubmitted}); err != nil && appendErr == nil {
			appendErr = err
		}
	})
	if err := jl.Close(); err != nil {
		return err
	}
	if appendErr != nil {
		return fmt.Errorf("journal probe: %w", appendErr)
	}
	m["farm.journal_append_ms"] = per * 1e3
	return nil
}

// loopProbe times engine.Loop over the farm job's solver (turb2d at the
// job's grid) from the outside: Loop.Run host time minus the summed
// Solver.Step time, per step.
func loopProbe(sp sampleSpec, m map[string]float64) error {
	const steps = 200
	s, err := spectral.NewTurb2D(turbConfig(sp.JobN, sp.Seed), nil, nil)
	if err != nil {
		return err
	}
	ts := &timedSolver{Solver: s}
	loop := engine.Loop{Solver: ts, Steps: steps}
	t0 := time.Now()
	out, err := loop.Run()
	if err != nil {
		return err
	}
	m["engine.overhead_us"] = (time.Since(t0) - ts.total).Seconds() / float64(out.StepsRun) * 1e6
	return nil
}
