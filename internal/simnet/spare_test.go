package simnet

import (
	"math"
	"strings"
	"testing"
)

func TestSparePoolReplaceFlow(t *testing.T) {
	p, err := NewSparePool(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if p.Ranks() != 3 || p.Available() != 2 {
		t.Fatalf("pool = %d ranks, %d spares", p.Ranks(), p.Available())
	}
	if got := p.NodeMap(); len(got) != 3 || got[0] != 0 || got[1] != 1 || got[2] != 2 {
		t.Fatalf("initial NodeMap = %v, want identity", got)
	}

	nn, err := p.Replace(1)
	if err != nil || nn != 3 {
		t.Fatalf("Replace(1) = (%d, %v), want first spare (3)", nn, err)
	}
	if p.NodeOf(1) != 3 || p.Available() != 1 {
		t.Fatalf("after replace: NodeOf(1)=%d, Available=%d", p.NodeOf(1), p.Available())
	}
	// The retired node never comes back; a second failure of the same
	// rank consumes the next spare.
	nn, err = p.Replace(1)
	if err != nil || nn != 4 {
		t.Fatalf("second Replace(1) = (%d, %v), want spare 4", nn, err)
	}
	if _, err := p.Replace(0); err == nil {
		t.Fatal("Replace with an empty pool succeeded")
	} else if !strings.Contains(err.Error(), "spare pool exhausted") {
		t.Fatalf("exhaustion error = %v", err)
	}

	log := p.Replacements()
	want := []Replacement{{Rank: 1, OldNode: 1, NewNode: 3}, {Rank: 1, OldNode: 3, NewNode: 4}}
	if len(log) != 2 || log[0] != want[0] || log[1] != want[1] {
		t.Fatalf("replacement log = %v, want %v", log, want)
	}
}

func TestSparePoolValidation(t *testing.T) {
	if _, err := NewSparePool(0, 1); err == nil {
		t.Error("zero ranks accepted")
	}
	if _, err := NewSparePool(2, -1); err == nil {
		t.Error("negative spares accepted")
	}
	p, err := NewSparePool(2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, rerr := p.Replace(5); rerr == nil || !strings.Contains(rerr.Error(), "unknown rank") {
		t.Errorf("Replace of unknown rank: %v", rerr)
	}
}

func TestSparePoolNodeMapIsACopy(t *testing.T) {
	p, err := NewSparePool(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	m := p.NodeMap()
	m[0] = 99
	if p.NodeOf(0) != 0 {
		t.Fatal("mutating the returned NodeMap changed the pool")
	}
}

func TestNodeMapOverridesPlacement(t *testing.T) {
	// The same two ranks exchange the same message; only NodeMap
	// changes whether they share a node (fast Intra path) or sit on
	// separate nodes (slow Inter path).
	model := &Model{
		Name:  "smp",
		Inter: LinkModel{LatencyUS: 100, BandwidthMBs: 10, OverheadUS: 5},
		Intra: LinkModel{LatencyUS: 5, BandwidthMBs: 200, OverheadUS: 1},
	}
	run := func(nodeMap []int) float64 {
		m := *model
		m.NodeMap = nodeMap
		var arr float64
		_, _, err := Run(2, &m, func(n *Node) {
			if n.Rank == 0 {
				n.Send(1, 0, make([]float64, 1000))
			} else {
				n.Recv(0, 0)
				arr = n.Clock()
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return arr
	}
	shared := run([]int{0, 0})
	split := run([]int{0, 1})
	if shared >= split {
		t.Fatalf("shared-node delivery %v not faster than split %v", shared, split)
	}
	// Sparse node ids are fine: only equality matters for routing.
	sparse := run([]int{3, 7})
	if sparse != split {
		t.Fatalf("sparse split placement %v, want %v (same Inter path)", sparse, split)
	}
}

func TestNodeMapValidation(t *testing.T) {
	model := fastModel()
	body := func(n *Node) { n.Compute(1e-6) }

	m := *model
	m.NodeMap = []int{0} // wrong length for 2 ranks
	if _, _, err := Run(2, &m, body); err == nil || !strings.Contains(err.Error(), "NodeMap") {
		t.Errorf("short NodeMap: err = %v", err)
	}
	m2 := *model
	m2.NodeMap = []int{0, -1}
	if _, _, err := Run(2, &m2, body); err == nil || !strings.Contains(err.Error(), "NodeMap") {
		t.Errorf("negative node id: err = %v", err)
	}
}

// testStaller adds the RankStaller hook to the basic test injector.
type testStaller struct {
	testInjector
	start, dur float64
	rank       int
}

func (ts *testStaller) RankStall(rank int) (float64, float64) {
	if rank == ts.rank {
		return ts.start, ts.dur
	}
	return math.Inf(1), 0
}

func TestRankStallFreezesProcessOnce(t *testing.T) {
	// Rank 1 freezes for 10 virtual seconds at t=0.05: its clock jumps
	// past the stall exactly once, and it stays alive (no CrashError).
	inj := &testStaller{rank: 1, start: 0.05, dur: 10}
	wall, _, err := RunWithFaults(2, fastModel(), inj, func(n *Node) {
		for i := 0; i < 10; i++ {
			n.Compute(0.01)
		}
	})
	if err != nil {
		t.Fatalf("RunWithFaults: %v", err)
	}
	if math.Abs(wall[0]-0.1) > 1e-12 {
		t.Errorf("unstalled rank wall = %v, want 0.1", wall[0])
	}
	// 0.1s of compute plus one 10s freeze — not two.
	if wall[1] < 10.1 || wall[1] >= 20 {
		t.Errorf("stalled rank wall = %v, want exactly one 10s freeze on top of 0.1s compute", wall[1])
	}
}

func TestRankStallDelaysDelivery(t *testing.T) {
	// A frozen sender goes silent: the receiver's deadline poll sees
	// nothing until the stall ends.
	inj := &testStaller{rank: 0, start: 1e-4, dur: 5}
	var got bool
	var lateData bool
	_, _, err := RunWithFaults(2, fastModel(), inj, func(n *Node) {
		if n.Rank == 0 {
			n.Compute(1e-3) // freezes at the first yield past 1e-4
			n.Send(1, 1, []float64{42})
			return
		}
		_, got = n.RecvDeadline(0, 1, 1.0) // expires during the freeze
		data, ok := n.RecvDeadline(0, 1, 10.0)
		lateData = ok && len(data) == 1 && data[0] == 42
	})
	if err != nil {
		t.Fatalf("RunWithFaults: %v", err)
	}
	if got {
		t.Error("message arrived while the sender was frozen")
	}
	if !lateData {
		t.Error("message never arrived after the freeze ended")
	}
}

func TestRankStallAbsorbedByBlockedWait(t *testing.T) {
	// Rank 1's clock passes its freeze instant inside a RecvDeadline
	// timeout, which returns without yielding, so the freeze is still
	// pending when the rank blocks in Recv. It must fire when the
	// message wakes the rank, before the receive completes: the 1ms
	// freeze then ends while the rank is still waiting for a message
	// that arrives after 2ms, and costs it nothing. Firing it only
	// after the receive would wrongly add the full 1ms.
	body := func(n *Node) {
		if n.Rank == 0 {
			n.Compute(2e-3)
			n.Send(1, 1, []float64{42})
			return
		}
		n.RecvDeadline(0, 9, 1e-3) // nobody sends tag 9
		n.Recv(0, 1)
	}
	free, _, err := Run(2, fastModel(), body)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	stalled, _, err := RunWithFaults(2, fastModel(), &testStaller{rank: 1, start: 5e-4, dur: 1e-3}, body)
	if err != nil {
		t.Fatalf("RunWithFaults: %v", err)
	}
	if free[1] <= 2e-3 {
		t.Fatalf("fault-free receive completed at %v, want after the 2ms send", free[1])
	}
	if stalled[1] != free[1] {
		t.Errorf("stalled rank 1 wall = %v, want %v: a freeze inside a blocked wait must be absorbed", stalled[1], free[1])
	}
}

// rejectingPlan implements PlanValidator and always refuses.
type rejectingPlan struct {
	testInjector
}

func (rp *rejectingPlan) ValidatePlan(ranks int) error {
	return errUnvalidatable(ranks)
}

type errUnvalidatable int

func (e errUnvalidatable) Error() string { return "plan invalid for this run shape" }

func TestInstallTimePlanRejection(t *testing.T) {
	// A plan that fails validation must reject the run before any rank
	// executes — the body must never start.
	ran := false
	_, _, err := RunWithFaults(2, fastModel(), &rejectingPlan{}, func(n *Node) {
		ran = true
	})
	if err == nil || !strings.Contains(err.Error(), "rejecting fault plan") {
		t.Fatalf("err = %v, want install-time rejection", err)
	}
	if !strings.Contains(err.Error(), "plan invalid for this run shape") {
		t.Fatalf("err = %v, want the validator's reason included", err)
	}
	if ran {
		t.Fatal("body ran despite a rejected plan")
	}
}
