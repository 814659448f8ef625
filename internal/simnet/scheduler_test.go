package simnet

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"math"
	"sort"
	"strings"
	"testing"
)

// Scheduler regression tests. The bodies below deliberately hit every
// primitive — eager and rendezvous sends, nonblocking Wait, self-sends,
// wildcard and deadline receives, Compute/Sleep — and the fault plans
// cover drops, link degradation, NIC stalls, rank stalls, and crashes
// (including the induced survivor deadlock). Every case must replay
// bit for bit, and the per-rank clocks and error text of all cases are
// pinned by one digest per test. The digests were recorded from the
// linear-scan election this scheduler's heap election replaced, so
// they also pin that the (virtual time, rank) admission order — and
// with it every virtual clock — did not move.

// runPinned runs body twice, asserts exactly equal per-rank wall/cpu
// clocks and identical error text, and folds the result into h.
func runPinned(t *testing.T, h hash.Hash, label string, p int, model Model, inj Injector, body func(*Node)) {
	t.Helper()
	wall, cpu, err := RunWithFaults(p, &model, inj, body)
	wall2, cpu2, err2 := RunWithFaults(p, &model, inj, body)
	if e1, e2 := fmt.Sprint(err), fmt.Sprint(err2); e1 != e2 {
		t.Fatalf("%s: error changed on replay:\nfirst:  %s\nsecond: %s", label, e1, e2)
	}
	fmt.Fprintf(h, "%s|%v|", label, err)
	for r := 0; r < p; r++ {
		if math.Float64bits(wall[r]) != math.Float64bits(wall2[r]) || math.Float64bits(cpu[r]) != math.Float64bits(cpu2[r]) {
			t.Errorf("%s: rank %d clocks changed on replay: wall %v/%v cpu %v/%v", label, r, wall[r], wall2[r], cpu[r], cpu2[r])
		}
		binary.Write(h, binary.LittleEndian, [2]uint64{math.Float64bits(wall[r]), math.Float64bits(cpu[r])})
	}
}

// checkDigest compares the folded clocks of a whole test against the
// pinned reference digest.
func checkDigest(t *testing.T, h hash.Hash, want string) {
	t.Helper()
	if got := fmt.Sprintf("%x", h.Sum(nil))[:16]; got != want {
		t.Errorf("virtual-clock digest %s, want %s: the admission order or a clock moved", got, want)
	}
}

// sortedModels returns diffModels' names in a stable order, so the
// digest does not depend on map iteration.
func sortedModels() []string {
	var names []string
	for name := range diffModels() {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// diffModels returns network models spanning the simulator's feature
// space: pure eager, rendezvous, SMP nodes with a shared backplane,
// and a half-duplex shared wire.
func diffModels() map[string]Model {
	return map[string]Model{
		"eager": {
			Name:  "diff-eager",
			Inter: LinkModel{LatencyUS: 100, BandwidthMBs: 12, OverheadUS: 30, CPUCopyMBs: 50},
		},
		"rendezvous": {
			Name:  "diff-rendezvous",
			Inter: LinkModel{LatencyUS: 20, BandwidthMBs: 100, OverheadUS: 5, CPUCopyMBs: 0, EagerLimit: 4096},
		},
		"smp-backplane": {
			Name:         "diff-smp",
			Inter:        LinkModel{LatencyUS: 80, BandwidthMBs: 10, OverheadUS: 25, CPUCopyMBs: 40, EagerLimit: 8192},
			Intra:        LinkModel{LatencyUS: 2, BandwidthMBs: 300, OverheadUS: 1},
			RanksPerNode: 2,
			BackplaneMBs: 15,
		},
		"half-duplex": {
			Name:  "diff-half",
			Inter: LinkModel{LatencyUS: 120, BandwidthMBs: 10, OverheadUS: 35, CPUCopyMBs: 45, HalfDuplex: true},
		},
	}
}

// diffBody is the primitive-coverage program: every rank computes,
// exchanges eager and rendezvous rings, self-sends, probes a deadline
// that times out, sleeps, and finishes with a lossy send acknowledged
// under a deadline (the reliability-layer shape).
func diffBody(n *Node) {
	p := n.P
	next := (n.Rank + 1) % p
	prev := (n.Rank + p - 1) % p

	n.Compute(1e-4 * float64(n.Rank+1))

	// Eager ring.
	n.Send(next, 1, []float64{float64(n.Rank)})
	n.Recv(prev, 1)

	// Rendezvous-sized ring with an overlapped Wait.
	big := make([]float64, 1500)
	for i := range big {
		big[i] = float64(n.Rank*3 + i)
	}
	r := n.Isend(next, 2, big)
	n.Compute(5e-5)
	n.Recv(prev, 2)
	n.Wait(r)

	// Self-send and a wildcard receive.
	n.Send(n.Rank, 3, []float64{42})
	n.Recv(AnySource, 3)

	// A deadline that always expires (nobody sends tag 9).
	if _, ok := n.RecvDeadline(prev, 9, n.Clock()+2e-4); ok {
		panic("unexpected message on tag 9")
	}
	n.Compute(1e-5)
	n.Sleep(3e-5)

	// Lossy payload with a deadline-based ack, retried once: the shape
	// the mpi reliability layer drives, including the drop path when a
	// plan is installed.
	for attempt := 0; attempt < 2; attempt++ {
		n.SendLossy(next, 4, []float64{float64(attempt)})
		if _, ok := n.RecvDeadline(next, 5, n.Clock()+8e-4); ok {
			break
		}
	}
	for {
		m, ok := n.RecvDeadline(prev, 4, n.Clock()+8e-4)
		if !ok {
			break
		}
		n.SendControl(prev, 5, m)
	}

	// Final eager ring so post-fault clocks keep interacting.
	n.Send(next, 6, []float64{n.Clock()})
	n.Recv(prev, 6)
}

func TestSchedulerDifferentialFaultFree(t *testing.T) {
	h := sha256.New()
	models := diffModels()
	for _, name := range sortedModels() {
		for _, p := range []int{2, 3, 5} {
			runPinned(t, h, fmt.Sprintf("%s/p=%d", name, p), p, models[name], nil, diffBody)
		}
	}
	checkDigest(t, h, "a8f0af51173659d3")
}

func TestSchedulerDifferentialWithFaults(t *testing.T) {
	mkInj := func(p int) Injector {
		return &testStaller{
			testInjector: testInjector{
				drop: func(src, dst, n int, t float64) bool {
					// Lose the first lossy payload on one ring edge.
					return src == 0 && dst == 1%p && n == 2
				},
				factors: func(src, dst int, t float64) (float64, float64) {
					if src == 0 && t > 1e-4 {
						return 2.5, 3
					}
					return 1, 1
				},
				stall: func(node int, t float64) float64 {
					if node == 0 && t < 3e-4 {
						return 3e-4
					}
					return 0
				},
			},
			rank:  p - 1,
			start: 2e-4,
			dur:   4e-4,
		}
	}
	h := sha256.New()
	models := diffModels()
	for _, name := range sortedModels() {
		for _, p := range []int{2, 3, 5} {
			runPinned(t, h, fmt.Sprintf("%s/p=%d", name, p), p, models[name], mkInj(p), diffBody)
		}
	}
	checkDigest(t, h, "d56e2cce801727f8")
}

func TestSchedulerDifferentialWithCrash(t *testing.T) {
	// Rank 1 dies mid-run; depending on the model the survivors either
	// ride their deadline receives to completion or deadlock on the
	// plain receives. Both outcomes — clocks, crash report, deadlock
	// diagnosis — must replay identically and match the reference.
	mkInj := func() Injector {
		return &testInjector{crash: func(rank int) float64 {
			if rank == 1 {
				return 6e-4
			}
			return math.Inf(1)
		}}
	}
	h := sha256.New()
	models := diffModels()
	for _, name := range sortedModels() {
		for _, p := range []int{2, 3} {
			runPinned(t, h, fmt.Sprintf("%s/p=%d", name, p), p, models[name], mkInj(), diffBody)
		}
	}
	checkDigest(t, h, "584719de15ee198b")
}

// TestResolveScheduler: every accepted spelling of the one scheduler —
// both Model.Scheduler values, with and without an environment
// override — resolves without error and runs.
func TestResolveScheduler(t *testing.T) {
	for _, env := range []string{"", "auto", "serial"} {
		for _, mode := range []Scheduler{SchedAuto, SchedSerial} {
			t.Setenv(SchedulerEnv, env)
			m := &Model{Scheduler: mode}
			if err := resolveScheduler(m); err != nil {
				t.Errorf("resolveScheduler(env=%q, mode=%v) unexpected error: %v", env, mode, err)
			}
			if _, _, err := Run(2, m, func(n *Node) { n.Compute(1e-6) }); err != nil {
				t.Errorf("Run(env=%q, mode=%v) unexpected error: %v", env, mode, err)
			}
		}
	}
}

func TestResolveSchedulerErrors(t *testing.T) {
	cases := []struct {
		name string
		env  string
		m    Model
		want string // substring the error must carry
	}{
		{"bogus-env", "concurrent", Model{}, "not a scheduler mode"},
		{"bogus-env-spaces", " parallel", Model{}, "not a scheduler mode"},
		{"bogus-mode", "", Model{Scheduler: Scheduler(99)}, "unknown Model.Scheduler 99"},
		{"removed-mode-parallel", "", Model{Scheduler: Scheduler(2)}, "unknown Model.Scheduler 2"},
		{"removed-mode-relaxed", "", Model{Scheduler: Scheduler(3)}, "unknown Model.Scheduler 3"},
		{"removed-env-parallel", "parallel", Model{}, "parallel scheduler was removed"},
		{"removed-env-relaxed", "relaxed", Model{}, "relaxed scheduler was removed"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			t.Setenv(SchedulerEnv, c.env)
			m := c.m
			err := resolveScheduler(&m)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("resolveScheduler(env=%q, mode=%v) = %v, want an error containing %q",
					c.env, m.Scheduler, err, c.want)
			}
			// The validation error must also surface from the public
			// entry point, before any goroutine is launched.
			if _, _, err := RunWithFaults(2, &m, nil, func(n *Node) {}); err == nil {
				t.Errorf("RunWithFaults(env=%q, mode=%v) = nil error, want error",
					c.env, m.Scheduler)
			}
		})
	}
}

// TestSchedulerDifferentialBatchBurst drives the batched-admission fast
// path hard: rank clumps issue long runs of consecutive shared-state
// events at nearly identical virtual times, so the same rank is
// repeatedly the global minimum and must carry on without a goroutine
// switch — while still interleaving exactly as the reference did with
// the other ranks' eager traffic.
func TestSchedulerDifferentialBatchBurst(t *testing.T) {
	body := func(n *Node) {
		next := (n.Rank + 1) % n.P
		prev := (n.Rank + n.P - 1) % n.P
		for round := 0; round < 4; round++ {
			// A burst of cheap sends: consecutive events from one rank
			// with tiny clock increments (the batch fast path).
			for i := 0; i < 12; i++ {
				n.Send(next, 10+i, []float64{float64(i)})
			}
			for i := 0; i < 12; i++ {
				n.Recv(prev, 10+i)
			}
			// Skew the clocks so a different rank owns the next burst.
			n.Compute(1e-5 * float64((n.Rank+round)%n.P+1))
		}
	}
	h := sha256.New()
	models := diffModels()
	for _, name := range sortedModels() {
		for _, p := range []int{2, 4, 7} {
			runPinned(t, h, fmt.Sprintf("%s/p=%d", name, p), p, models[name], nil, body)
		}
	}
	checkDigest(t, h, "93c95e5915c84577")
}
