package bench

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

// TestSpectralBenchQuick runs the budget-limited sweep on every test
// pass: the bit-identity enforcement inside RunSpectralBench (one-rank
// reference vs slab) is the assertion; the numbers are incidental here.
func TestSpectralBenchQuick(t *testing.T) {
	res, tbl, err := RunSpectralBench(QuickSpectral)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 2 {
		t.Fatalf("quick sweep produced %d cells, want 2 (turb2d + turbforce at P=4)", len(res.Cells))
	}
	for _, c := range res.Cells {
		if c.VirtualWallS <= 0 {
			t.Errorf("%s P=%d: non-positive virtual wall %g", c.Workload, c.Procs, c.VirtualWallS)
		}
	}
	var buf bytes.Buffer
	tbl.Write(&buf)
	if !strings.Contains(buf.String(), "turbforce") {
		t.Fatalf("bench table missing turbforce row:\n%s", buf.String())
	}
}

// TestSpectralPadAB: the exact-3/2 vs power-of-two A/B cell. The byte
// and flop reductions are analytic and exact (M shrinks 2N -> 3N/2, a
// 25% cut in transpose payload); the host-time reduction is measured,
// so the assertion is only that the exact grid is not slower — the
// >= 25% target is checked against the recorded baseline, not a
// CI-flaky wall-clock race.
func TestSpectralPadAB(t *testing.T) {
	ab, err := runPadAB(16, 6)
	if err != nil {
		t.Fatal(err)
	}
	if ab.MExact != 24 || ab.MPow2 != 32 {
		t.Fatalf("A/B grids M=%d/%d, want 24/32", ab.MExact, ab.MPow2)
	}
	if ab.ExactBytesPerEval*4 != ab.Pow2BytesPerEval*3 {
		t.Fatalf("transpose payloads %d vs %d are not in the 3:4 ratio", ab.ExactBytesPerEval, ab.Pow2BytesPerEval)
	}
	if ab.ByteReduction != 0.25 {
		t.Fatalf("byte reduction %g, want exactly 0.25", ab.ByteReduction)
	}
	if ab.ExactFlopsPerEval >= ab.Pow2FlopsPerEval {
		t.Fatalf("exact grid models more transform flops (%d) than pow2 (%d)", ab.ExactFlopsPerEval, ab.Pow2FlopsPerEval)
	}
	if ab.HostReduction <= 0 {
		t.Errorf("exact-3/2 leg was not faster: reduction %.3f (exact %.4fs, pow2 %.4fs)",
			ab.HostReduction, ab.ExactHostS, ab.Pow2HostS)
	}
	var buf bytes.Buffer
	ab.Table().Write(&buf)
	for _, want := range []string{"exact 3N/2", "pow2 legacy", "reduction", "25.0%"} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("A/B table missing %q:\n%s", want, buf.String())
		}
	}
}

// TestWriteSpectralBaseline regenerates BENCH_spectral.json (the
// committed serial-vs-slab baseline) when BENCH_SPECTRAL=1 is set;
// `make bench-spectral` runs it.
func TestWriteSpectralBaseline(t *testing.T) {
	if os.Getenv("BENCH_SPECTRAL") == "" {
		t.Skip("set BENCH_SPECTRAL=1 to regenerate BENCH_spectral.json")
	}
	res, _, err := RunSpectralBench(PaperSpectral)
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteBaseline("../../BENCH_spectral.json", res); err != nil {
		t.Fatal(err)
	}
}
