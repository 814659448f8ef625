package blas

import (
	"sync"
	"sync/atomic"
)

// Kernel identifies a class of BLAS operation for accounting purposes.
// The classes mirror the kernels the paper benchmarks in Figures 1-6;
// routines not benchmarked individually are folded into the class with
// the same arithmetic-intensity profile.
type Kernel int

const (
	// KernelDcopy covers pure data movement (dcopy, dswap, fill).
	KernelDcopy Kernel = iota
	// KernelDaxpy covers streaming multiply-add kernels
	// (daxpy, dscal, element-wise multiply/add).
	KernelDaxpy
	// KernelDdot covers reduction kernels (ddot, dnrm2, dasum, idamax).
	KernelDdot
	// KernelDgemv covers matrix-vector kernels (dgemv, dger, dtrsv,
	// banded solves).
	KernelDgemv
	// KernelDgemm covers matrix-matrix kernels (dgemm, dtrsm, banded
	// factorizations).
	KernelDgemm
	numKernels
)

// String returns the reference-BLAS name of the kernel class.
func (k Kernel) String() string {
	switch k {
	case KernelDcopy:
		return "dcopy"
	case KernelDaxpy:
		return "daxpy"
	case KernelDdot:
		return "ddot"
	case KernelDgemv:
		return "dgemv"
	case KernelDgemm:
		return "dgemm"
	}
	return "unknown"
}

// Kernels lists all kernel classes in a stable order.
func Kernels() []Kernel {
	return []Kernel{KernelDcopy, KernelDaxpy, KernelDdot, KernelDgemv, KernelDgemm}
}

// Op is one recorded operation-count bucket.
type Op struct {
	Calls int64 // number of BLAS calls
	N     int64 // total problem size (sum over calls of the size metric)
	Flops int64 // total floating-point operations
	Bytes int64 // total bytes moved (load + store, ideal traffic)
}

// Counts accumulates operation counts per kernel class. The zero value
// is ready to use.
type Counts struct {
	Ops [numKernels]Op
}

// Add merges other into c.
func (c *Counts) Add(other *Counts) {
	for i := range c.Ops {
		c.Ops[i].Calls += other.Ops[i].Calls
		c.Ops[i].N += other.Ops[i].N
		c.Ops[i].Flops += other.Ops[i].Flops
		c.Ops[i].Bytes += other.Ops[i].Bytes
	}
}

// Sub subtracts other from c (used to compute per-stage deltas).
func (c *Counts) Sub(other *Counts) {
	for i := range c.Ops {
		c.Ops[i].Calls -= other.Ops[i].Calls
		c.Ops[i].N -= other.Ops[i].N
		c.Ops[i].Flops -= other.Ops[i].Flops
		c.Ops[i].Bytes -= other.Ops[i].Bytes
	}
}

// Scale multiplies every accumulated quantity by f (used to
// extrapolate measured per-element counts to larger meshes).
func (c *Counts) Scale(f float64) {
	for i := range c.Ops {
		c.Ops[i].Calls = int64(float64(c.Ops[i].Calls) * f)
		c.Ops[i].N = int64(float64(c.Ops[i].N) * f)
		c.Ops[i].Flops = int64(float64(c.Ops[i].Flops) * f)
		c.Ops[i].Bytes = int64(float64(c.Ops[i].Bytes) * f)
	}
}

// TotalFlops returns the total floating point operations across all
// kernel classes.
func (c *Counts) TotalFlops() int64 {
	var t int64
	for i := range c.Ops {
		t += c.Ops[i].Flops
	}
	return t
}

// TotalBytes returns the total ideal memory traffic across all kernel
// classes.
func (c *Counts) TotalBytes() int64 {
	var t int64
	for i := range c.Ops {
		t += c.Ops[i].Bytes
	}
	return t
}

// recording state: a single process-global recorder. The disabled path
// is one atomic load; an active session is guarded by recMu. Simulated
// MPI ranks never overlap on host threads (simnet runs one rank at a
// time), so a rank's StartRecording/StopRecording bracket sees only its
// own BLAS calls.
var (
	recMu     sync.Mutex
	recCounts *Counts // guarded by recMu

	// recActive is 1 while a session is open, so the disabled-path
	// check stays one atomic load.
	recActive atomic.Int32
)

// ThreadRecordingSupported reports whether recording sessions can be
// keyed per OS thread. They cannot: there is one global recorder, and
// simnet's single scheduler runs one rank at a time, so nothing needs
// per-thread sessions. Always false; kept so callers that stamp the
// scheduler in use (they print sched=serial) keep building.
func ThreadRecordingSupported() bool { return false }

// StartRecording directs all subsequent BLAS calls to accumulate into
// c until StopRecording is called. The session is process-global and
// must not be enabled concurrently from multiple goroutines.
func StartRecording(c *Counts) {
	recMu.Lock()
	if recCounts == nil {
		recActive.Add(1)
	}
	recCounts = c
	recMu.Unlock()
}

// StopRecording ends the recording session.
func StopRecording() {
	recMu.Lock()
	if recCounts != nil {
		recActive.Add(-1)
	}
	recCounts = nil
	recMu.Unlock()
}

// Snapshot returns a copy of the currently accumulating counts, or a
// zero Counts if recording is disabled.
func Snapshot() Counts {
	recMu.Lock()
	defer recMu.Unlock()
	if recCounts == nil {
		return Counts{}
	}
	return *recCounts
}

// RecordExternal merges externally computed counts (e.g. from the
// banded LAPACK routines, whose inner loops do not call back into
// BLAS) into the active recording session, if any.
func RecordExternal(c *Counts) {
	if recActive.Load() == 0 {
		return
	}
	recMu.Lock()
	if recCounts != nil {
		recCounts.Add(c)
	}
	recMu.Unlock()
}

func record(k Kernel, n, flops, bytes int) {
	if recActive.Load() == 0 {
		return
	}
	recMu.Lock()
	if recCounts != nil {
		op := &recCounts.Ops[k]
		op.Calls++
		op.N += int64(n)
		op.Flops += int64(flops)
		op.Bytes += int64(bytes)
	}
	recMu.Unlock()
}
