package bench

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"time"

	"nektar/internal/machine"
	"nektar/internal/mpi"
	"nektar/internal/report"
	"nektar/internal/simnet"
	"nektar/internal/spectral"
)

// Spectral bench: the slab-decomposed pseudospectral solvers against
// their serial selves. Each cell runs one variant two ways — a plain
// one-rank host run (no simnet) and the P-rank slab run on the
// simulated cluster — and requires the two trajectories to be
// bit-identical, slab for slab, before any number is recorded: the
// one-rank run is the physics reference. BENCH_spectral.json stamps
// GOMAXPROCS and the host core count next to the host seconds.

// SpectralBenchConfig parametrizes the sweep.
type SpectralBenchConfig struct {
	N      int   // grid size (>= 8, divisible by 4, 5-smooth)
	Steps  int   // steps per run
	Procs  []int // slab rank counts (each must divide N and 3N/2)
	ABReps int   // de-aliased evaluations per leg of the pad A/B cell
}

// PaperSpectral is the committed-baseline configuration.
var PaperSpectral = SpectralBenchConfig{N: 32, Steps: 4, Procs: []int{4, 8}, ABReps: 40}

// QuickSpectral is the budget-limited variant.
var QuickSpectral = SpectralBenchConfig{N: 16, Steps: 2, Procs: []int{4}, ABReps: 8}

// SpectralCellResult is one variant x rank-count measurement.
type SpectralCellResult struct {
	Workload string
	Procs    int

	SerialHostS float64 // one-rank reference run, real host seconds
	SlabHostS   float64 // P-rank slab run on the simulated cluster

	// VirtualWallS is the max per-rank virtual wall clock of the slab
	// run.
	VirtualWallS float64

	// TransformFlopsPerStep is the modeled transform work of one step
	// (5 L log2 L per length-L row FFT, summed over the step's
	// pipeline), and TransposeBytesPerStep the global Alltoall payload
	// the step's distributed transposes move. For turb2d these are the
	// padded-pipeline numbers the 2N -> 3N/2 change shrinks.
	TransformFlopsPerStep int64
	TransposeBytesPerStep int64
}

// SpectralPadAB is the radix-2/2N vs mixed-radix/3N/2 comparison at
// fixed N: the same de-aliased convective evaluation (4 padded inverse
// transforms, the pointwise products, 1 padded forward transform) run
// on the exact-3/2 pipeline and on the legacy power-of-two pipeline.
type SpectralPadAB struct {
	N      int
	MExact int // 3N/2
	MPow2  int // next power of two >= 3N/2 (2N for power-of-two N)
	Reps   int

	ExactHostS float64 // reps de-aliased evaluations, exact-3/2 grid
	Pow2HostS  float64 // same work on the pow2 grid
	// HostReduction is 1 - Exact/Pow2: the fraction of padded-pipeline
	// host time the exact grid saves (the tentpole target is >= 0.25).
	HostReduction float64

	// Per-evaluation transpose payloads and modeled transform flops on
	// each grid; the byte ratio is exactly 3:4.
	ExactBytesPerEval int64
	Pow2BytesPerEval  int64
	ByteReduction     float64
	ExactFlopsPerEval int64
	Pow2FlopsPerEval  int64
}

// SpectralBenchResult is the schema of BENCH_spectral.json.
type SpectralBenchResult struct {
	GoMaxProcs int
	NumCPU     int
	N          int
	// PadM stamps the de-aliasing grid the decaying pipeline ran on, so
	// the 2N -> 3N/2 change is visible in the baseline itself.
	PadM  int
	Steps int
	Cells []SpectralCellResult

	// PadAB is the exact-3/2 vs power-of-two padded-pipeline A/B cell.
	PadAB *SpectralPadAB `json:",omitempty"`
}

// fftModelFlops is the 5 L log2 L transform cost model, matching what
// internal/fft records into the machine pricing.
func fftModelFlops(l int) int64 {
	if l <= 1 {
		return 0
	}
	return int64(5 * float64(l) * math.Log2(float64(l)))
}

// stepCosts returns the modeled transform flops and global transpose
// bytes of one solver step. The decaying variant runs 4 InversePad + 1
// ForwardPad per step, each moving an N x M matrix through Alltoall
// and transforming N rows + M rows of length M; the forced variant
// runs 2 Inverse + 2 Forward on the unpadded N x N pipeline.
func stepCosts(variant string, n int) (flops, bytes int64) {
	if variant == "turb2d" {
		m := 3 * n / 2
		perHalf := int64(n+m) * fftModelFlops(m)
		return 5 * perHalf, 5 * 16 * int64(n) * int64(m)
	}
	perTransform := int64(2*n) * fftModelFlops(n)
	return 4 * perTransform, 4 * 16 * int64(n) * int64(n)
}

// padABSpectrum builds a deterministic band-limited Hermitian spectrum
// on the n-grid by borrowing a solver's PAO initializer.
func padABSpectrum(n int, seed uint64) ([]complex128, error) {
	s, err := spectral.NewTurb2D(spectral.Config{N: n, Re: 500, Dt: 2e-3, Seed: seed}, nil, nil)
	if err != nil {
		return nil, err
	}
	out := make([]complex128, n*n)
	copy(out, s.Field())
	return out, nil
}

// runPadAB times the de-aliased convective evaluation shape — four
// padded inverse transforms, the pointwise products, one padded forward
// transform — on the exact-3/2 grid and on the legacy power-of-two
// grid, reps times each. Same plan code, same spectra; only M differs.
func runPadAB(n, reps int) (*SpectralPadAB, error) {
	specA, err := padABSpectrum(n, 33)
	if err != nil {
		return nil, err
	}
	specB, err := padABSpectrum(n, 77)
	if err != nil {
		return nil, err
	}
	leg := func(mode spectral.PadMode) (float64, *spectral.Plan2D, error) {
		pl, err := spectral.NewPlan2DPad(n, mode, nil)
		if err != nil {
			return 0, nil, err
		}
		rows := pl.PadRows() * pl.M
		pa, pb := make([]float64, rows), make([]float64, rows)
		ua, ub := make([]float64, rows), make([]float64, rows)
		out := make([]complex128, n*n)
		eval := func() {
			pl.InversePad(specA, pa)
			pl.InversePad(specB, pb)
			pl.InversePad(specA, ua)
			pl.InversePad(specB, ub)
			for i := range pa {
				pa[i] = pa[i]*pb[i] + ua[i]*ub[i]
			}
			pl.ForwardPad(pa, out)
		}
		eval() // warm the plan and the page cache before timing
		t0 := time.Now()
		for r := 0; r < reps; r++ {
			eval()
		}
		return time.Since(t0).Seconds(), pl, nil
	}
	exactS, exactPl, err := leg(spectral.PadExact)
	if err != nil {
		return nil, err
	}
	pow2S, pow2Pl, err := leg(spectral.PadPow2)
	if err != nil {
		return nil, err
	}
	evalFlops := func(m int) int64 { return 5 * int64(n+m) * fftModelFlops(m) }
	return &SpectralPadAB{
		N: n, MExact: exactPl.M, MPow2: pow2Pl.M, Reps: reps,
		ExactHostS: exactS, Pow2HostS: pow2S,
		HostReduction:     1 - exactS/pow2S,
		ExactBytesPerEval: 5 * exactPl.PadTransposeBytes(),
		Pow2BytesPerEval:  5 * pow2Pl.PadTransposeBytes(),
		ByteReduction:     1 - float64(exactPl.M)/float64(pow2Pl.M),
		ExactFlopsPerEval: evalFlops(exactPl.M),
		Pow2FlopsPerEval:  evalFlops(pow2Pl.M),
	}, nil
}

// Table renders the A/B cell the way BENCH_spectral.json records it.
func (ab *SpectralPadAB) Table() *report.Table {
	tbl := report.NewTable(
		fmt.Sprintf("Padded-pipeline A/B at N=%d: exact 3/2-rule grid vs legacy power-of-two round-up (%d de-aliased evaluations per leg)",
			ab.N, ab.Reps),
		"pipeline", "M", "host s", "xpose B/eval", "Mflop/eval")
	tbl.AddRow("exact 3N/2", fmt.Sprintf("%d", ab.MExact), fmt.Sprintf("%.4f", ab.ExactHostS),
		fmt.Sprintf("%d", ab.ExactBytesPerEval), fmt.Sprintf("%.3f", float64(ab.ExactFlopsPerEval)/1e6))
	tbl.AddRow("pow2 legacy", fmt.Sprintf("%d", ab.MPow2), fmt.Sprintf("%.4f", ab.Pow2HostS),
		fmt.Sprintf("%d", ab.Pow2BytesPerEval), fmt.Sprintf("%.3f", float64(ab.Pow2FlopsPerEval)/1e6))
	tbl.AddRow("reduction", "", fmt.Sprintf("%.1f%%", 100*ab.HostReduction),
		fmt.Sprintf("%.1f%%", 100*ab.ByteReduction),
		fmt.Sprintf("%.1f%%", 100*(1-float64(ab.ExactFlopsPerEval)/float64(ab.Pow2FlopsPerEval))))
	return tbl
}

// spectralVariants names the two solver builds the bench sweeps.
var spectralVariants = []struct {
	name string
	mk   func(cfg spectral.Config, comm *mpi.Comm, cpu *machine.CPU) (*spectral.Turb2D, error)
}{
	{"turb2d", spectral.NewTurb2D},
	{"turbforce", spectral.NewForced},
}

// hashField canonicalizes a spectral state slab to its float bits.
func hashField(w []complex128) string {
	h := sha256.New()
	var b [16]byte
	for _, v := range w {
		putBits(b[0:8], real(v))
		putBits(b[8:16], imag(v))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

func putBits(dst []byte, f float64) {
	u := math.Float64bits(f)
	for i := 0; i < 8; i++ {
		dst[i] = byte(u >> (8 * i))
	}
}

// runSpectralSlab runs one variant at p ranks and returns per-rank slab
// hashes, the max virtual wall, and host seconds.
func runSpectralSlab(cfg spectral.Config, mk func(spectral.Config, *mpi.Comm, *machine.CPU) (*spectral.Turb2D, error),
	p, steps int) ([]string, float64, float64, error) {
	mach := machine.Muses()
	hashes := make([]string, p)
	t0 := time.Now()
	wall, _, err := simnet.Run(p, mach.Net, func(n *simnet.Node) {
		s, err := mk(cfg, mpi.World(n), &mach.CPU)
		if err != nil {
			panic(err)
		}
		for i := 0; i < steps; i++ {
			s.Step()
		}
		hashes[n.Rank] = hashField(s.Field())
	})
	hostS := time.Since(t0).Seconds()
	if err != nil {
		return nil, 0, 0, err
	}
	var maxWall float64
	for _, w := range wall {
		maxWall = max(maxWall, w)
	}
	return hashes, maxWall, hostS, nil
}

// RunSpectralBench executes the sweep and renders the comparison table.
func RunSpectralBench(cfg SpectralBenchConfig) (*SpectralBenchResult, *report.Table, error) {
	res := &SpectralBenchResult{
		GoMaxProcs: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		N:          cfg.N,
		PadM:       3 * cfg.N / 2,
		Steps:      cfg.Steps,
	}
	for _, v := range spectralVariants {
		scfg := spectral.Config{N: cfg.N, Re: 500, Dt: 2e-3, Seed: 33}

		// One-rank physics reference: per-slab hashes of the serial field,
		// so the slab runs compare slab-for-slab.
		ser, err := v.mk(scfg, nil, nil)
		if err != nil {
			return nil, nil, fmt.Errorf("bench: spectral %s: %w", v.name, err)
		}
		t0 := time.Now()
		for i := 0; i < cfg.Steps; i++ {
			ser.Step()
		}
		serialS := time.Since(t0).Seconds()
		field := ser.Field()

		for _, p := range cfg.Procs {
			if p < 1 || cfg.N%p != 0 {
				return nil, nil, fmt.Errorf("bench: spectral: P=%d does not divide N=%d", p, cfg.N)
			}
			nloc := cfg.N / p
			want := make([]string, p)
			for r := 0; r < p; r++ {
				want[r] = hashField(field[r*nloc*cfg.N : (r+1)*nloc*cfg.N])
			}
			hs, wallS, slabS, err := runSpectralSlab(scfg, v.mk, p, cfg.Steps)
			if err != nil {
				return nil, nil, fmt.Errorf("bench: spectral %s P=%d: %w", v.name, p, err)
			}
			for r := 0; r < p; r++ {
				if hs[r] != want[r] {
					return nil, nil, fmt.Errorf(
						"bench: spectral %s P=%d: slab trajectory diverged from the serial reference at rank %d", v.name, p, r)
				}
			}
			flops, bytes := stepCosts(v.name, cfg.N)
			res.Cells = append(res.Cells, SpectralCellResult{
				Workload:              v.name,
				Procs:                 p,
				SerialHostS:           serialS,
				SlabHostS:             slabS,
				VirtualWallS:          wallS,
				TransformFlopsPerStep: flops,
				TransposeBytesPerStep: bytes,
			})
		}
	}

	if cfg.ABReps > 0 {
		ab, err := runPadAB(cfg.N, cfg.ABReps)
		if err != nil {
			return nil, nil, fmt.Errorf("bench: spectral pad A/B: %w", err)
		}
		res.PadAB = ab
	}

	tbl := report.NewTable(
		fmt.Sprintf("Spectral bench: serial vs slab-parallel pseudospectral solvers, bit-identity enforced (GOMAXPROCS=%d, host cores=%d, N=%d, M=%d, %d steps)",
			res.GoMaxProcs, res.NumCPU, res.N, res.PadM, res.Steps),
		"workload", "P", "1-rank host s", "slab host s", "virtual wall s", "Mflop/step", "xpose B/step")
	for _, c := range res.Cells {
		tbl.AddRow(c.Workload, fmt.Sprintf("%d", c.Procs),
			fmt.Sprintf("%.3f", c.SerialHostS), fmt.Sprintf("%.3f", c.SlabHostS),
			fmt.Sprintf("%.4f", c.VirtualWallS),
			fmt.Sprintf("%.3f", float64(c.TransformFlopsPerStep)/1e6),
			fmt.Sprintf("%d", c.TransposeBytesPerStep))
	}
	return res, tbl, nil
}
