package simnet

import (
	"runtime"
	"testing"
	"time"
)

// TestSimnetManyRanks is the capacity smoke test behind the scheduler
// rework: P=2048 ranks running a trivial ring workload must complete in
// seconds, not minutes, and without the O(P²) memory churn per-event
// map rebuilds used to cause.
func TestSimnetManyRanks(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: P=2048 capacity test skipped")
	}
	const p = 2048
	model := Model{
		Name:  "manyranks",
		Inter: LinkModel{LatencyUS: 20, BandwidthMBs: 110, OverheadUS: 2, EagerLimit: 8192},
	}
	body := func(n *Node) {
		next := (n.Rank + 1) % n.P
		prev := (n.Rank + n.P - 1) % n.P
		for s := 0; s < 3; s++ {
			n.Compute(1e-6)
			n.Send(next, s, []float64{float64(n.Rank)})
			n.Recv(prev, s)
		}
	}

	t.Setenv(SchedulerEnv, "")
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	if _, _, err := Run(p, &model, body); err != nil {
		t.Fatalf("P=%d run failed: %v", p, err)
	}
	dSerial := time.Since(start)
	runtime.ReadMemStats(&after)
	allocSerial := after.TotalAlloc - before.TotalAlloc

	// Latency smoke: a trivial 3-step ring at P=2048 has ~18k events;
	// anything beyond a minute means a superlinear election came back.
	const latencyBudget = time.Minute
	if dSerial > latencyBudget {
		t.Errorf("P=%d run took %v, budget %v", p, dSerial, latencyBudget)
	}
	// Memory smoke: pooled messages and head-index inboxes keep the
	// per-event footprint bounded; ~1 GB total allocation for ~18k tiny
	// events would mean per-rank structures are being rebuilt per event.
	const allocBudget = 1 << 30
	if allocSerial > allocBudget {
		t.Errorf("P=%d run allocated %d bytes, budget %d", p, allocSerial, allocBudget)
	}
}
