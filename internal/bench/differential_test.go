package bench

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"testing"

	"nektar/internal/engine"
	"nektar/internal/fault"
	"nektar/internal/machine"
	"nektar/internal/mpi"
	"nektar/internal/simnet"
)

// Replay determinism over the real solvers: every registered workload,
// run twice under a fault plan, must produce bit-identical per-rank
// virtual wall/cpu clocks and bit-identical solver trajectories
// (compared as hashes of the checkpoint stream — pure slices and ints,
// so equal state encodes to equal bytes within one process). The fault
// plan is the interesting half: degradation factors and stall windows
// fire at virtual instants, so any host-order dependence in when they
// are consulted would show up as a clock or trajectory difference.

type diffRun struct {
	wall, cpu []float64
	hashes    []string
	errStr    string
}

func runWorkloadDiff(t *testing.T, wlName string, p, steps int, plan *fault.Plan) diffRun {
	t.Helper()
	wl, err := WorkloadByName(wlName)
	if err != nil {
		t.Fatal(err)
	}
	mach := machine.Muses()
	hashes := make([]string, p)
	wall, cpu, runErr := simnet.RunWithFaults(p, mach.Net, plan, func(n *simnet.Node) {
		comm := mpi.World(n)
		s, err := wl.New(comm, &mach.CPU)
		if err != nil {
			panic(err)
		}
		for i := 0; i < steps; i++ {
			s.Step()
		}
		b, err := engine.Marshal(s)
		if err != nil {
			panic(err)
		}
		sum := sha256.Sum256(b)
		hashes[n.Rank] = hex.EncodeToString(sum[:])
	})
	return diffRun{wall: wall, cpu: cpu, hashes: hashes, errStr: fmt.Sprint(runErr)}
}

// diffPlan builds the fault plan for the faulty half of the matrix:
// link degradation, a NIC stall window, and a rank stall — faults the
// raw-mode solver communicators survive (drops and crashes are pinned
// at the primitive level in internal/simnet's scheduler tests).
func diffPlan(p int) *fault.Plan {
	plan := fault.NewPlan(11).
		DegradeLink(0, 1, 1e-3, 1e9, 2, 2.5).
		StallNIC(0, 2e-3, 6e-3).
		StallRank(p-1, 1e-3, 4e-3)
	if err := plan.Err(); err != nil {
		panic(err)
	}
	return plan
}

func TestSchedulerDifferentialWorkloads(t *testing.T) {
	ranks := map[string]int{"nsf": 4, "nsale": 3}
	for _, name := range WorkloadNames() {
		p, ok := ranks[name]
		if !ok {
			p = 4 // power-of-two default for workloads registered later
		}
		label := fmt.Sprintf("%s/p=%d", name, p)
		const steps = 2
		first := runWorkloadDiff(t, name, p, steps, diffPlan(p))
		second := runWorkloadDiff(t, name, p, steps, diffPlan(p))
		if first.errStr != second.errStr {
			t.Fatalf("%s: error changed on replay:\nfirst:  %s\nsecond: %s", label, first.errStr, second.errStr)
		}
		for r := 0; r < p; r++ {
			if math.Float64bits(first.wall[r]) != math.Float64bits(second.wall[r]) {
				t.Errorf("%s: rank %d wall clock changed on replay: %v then %v",
					label, r, first.wall[r], second.wall[r])
			}
			if math.Float64bits(first.cpu[r]) != math.Float64bits(second.cpu[r]) {
				t.Errorf("%s: rank %d cpu clock changed on replay: %v then %v",
					label, r, first.cpu[r], second.cpu[r])
			}
			if first.hashes[r] != second.hashes[r] {
				t.Errorf("%s: rank %d trajectory hash changed on replay:\nfirst:  %s\nsecond: %s",
					label, r, first.hashes[r], second.hashes[r])
			}
		}
	}
}
