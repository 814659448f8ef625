// Command repro runs the reproduction: every table and figure of the
// paper's evaluation section, written to stdout (or a directory with
// -outdir). With no arguments every experiment runs in order; naming
// experiments (e.g. "repro supervise trace") runs just those. Unknown
// names print the registered list. Budget-limited modes (-quick) skip
// the largest processor counts.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"strings"
	"time"

	"nektar/internal/bench"
	"nektar/internal/cliutil"
	"nektar/internal/engine"
	"nektar/internal/farm"
	"nektar/internal/report"
	"nektar/internal/spectral"
)

// experiment is one runnable section of the reproduction.
type experiment struct {
	name string
	desc string
	run  func(w io.Writer, quick bool) error
}

// experiments is the registry, in paper order. Names double as the
// CLI selectors and the -outdir file names.
var experiments = []experiment{
	{"fig1-6_kernels", "BLAS kernel figures on the priced machines", func(w io.Writer, quick bool) error {
		bench.Fig1Dcopy().Write(w)
		bench.Fig2Daxpy().Write(w)
		bench.Fig3Ddot().Write(w)
		bench.Fig4Dgemv().Write(w)
		bench.Fig5Dgemm().Write(w)
		bench.Fig6DgemmSmall().Write(w)
		return nil
	}},
	{"fig7_pingpong", "MPI ping-pong latency/bandwidth", func(w io.Writer, quick bool) error {
		lat, bw, err := bench.Fig7PingPong()
		if err != nil {
			return err
		}
		lat.Write(w)
		bw.Write(w)
		return nil
	}},
	{"fig8_alltoall", "MPI all-to-all exchange", func(w io.Writer, quick bool) error {
		for _, p := range []int{4, 8} {
			fig, err := bench.Fig8Alltoall(p)
			if err != nil {
				return err
			}
			fig.Write(w)
		}
		return nil
	}},
	{"table1_fig12_serial", "serial DNS: Table 1 + Figure 12", func(w io.Writer, quick bool) error {
		cfg := bench.PaperSerial
		if quick {
			cfg = bench.SerialConfig{Nt: 24, Nr: 6, Order: 6, Steps: 1}
		}
		res, _, err := bench.RunSerial(cfg)
		if err != nil {
			return err
		}
		bench.Table1(res).Write(w)
		txt, err := bench.Fig12(res, "Onyx2", "Muses")
		if err != nil {
			return err
		}
		fmt.Fprintln(w)
		fmt.Fprint(w, txt)
		return nil
	}},
	{"table2_fig13-14_nektarf", "Nektar-F weak scaling: Table 2 + Figures 13-14", func(w io.Writer, quick bool) error {
		cfg := bench.PaperFourier
		if quick {
			cfg.Procs = []int{2, 4, 8, 16}
			cfg.Steps = 1
		}
		res, err := bench.RunFourier(cfg)
		if err != nil {
			return err
		}
		bench.Table2(res, cfg.Procs, cfg.Machines).Write(w)
		for _, cell := range []struct {
			m string
			p int
		}{{"NCSA", 4}, {"SP2-Silver", 4}, {"RoadRunner-eth", 4}, {"RoadRunner-myr", 4}} {
			txt, err := bench.Fig1314(res, cell.m, cell.p)
			if err != nil {
				return err
			}
			fmt.Fprintln(w)
			fmt.Fprint(w, txt)
		}
		return nil
	}},
	{"faultbench", "checkpoint-interval sweep + measured crash recovery", func(w io.Writer, quick bool) error {
		cfg := bench.PaperFaultbench
		if quick {
			cfg.Procs = 2
			cfg.ProbeNt, cfg.ProbeNr = 6, 2
			cfg.Order = 3
			cfg.Steps = 1
		}
		_, tbl, err := bench.RunFaultbench(cfg)
		if err != nil {
			return err
		}
		tbl.Write(w)
		demo, err := bench.RunFaultbenchRecovery(cfg, 1)
		if err != nil {
			return err
		}
		fmt.Fprintln(w)
		demo.Write(w)
		return nil
	}},
	{"ckptbench", "durable checkpoint store: async vs sync, local vs striped", func(w io.Writer, quick bool) error {
		cfg := bench.PaperCkptbench
		if quick {
			cfg.Nt, cfg.Nr, cfg.Order = 12, 3, 4
			cfg.Steps = 6
			cfg.Procs = 2
		}
		_, tables, err := bench.RunCkptbench(cfg)
		if err != nil {
			return err
		}
		for i, tbl := range tables {
			if i > 0 {
				fmt.Fprintln(w)
			}
			tbl.Write(w)
		}
		return nil
	}},
	{"supervise", "self-healing runtime: crash+freeze campaign", func(w io.Writer, quick bool) error {
		cfg := bench.PaperSupervise
		if quick {
			cfg.Procs = 2
			cfg.Spares = 2
			cfg.Steps = 6
		}
		tbl, err := bench.RunSupervise(cfg)
		if tbl != nil {
			tbl.Write(w)
		}
		return err
	}},
	{"adaptbench", "adaptive resilience vs static checkpoint cadence, fault-swept", func(w io.Writer, quick bool) error {
		cfg := bench.PaperAdaptbench
		if quick {
			cfg = bench.QuickAdaptbench
		}
		res, tbl, err := bench.RunAdaptbench(cfg)
		if err != nil {
			return err
		}
		tbl.Write(w)
		fmt.Fprintf(w, "\nadaptive vs best static, worst cell: %+.1f%%; vs worst static, best cell: %.1f%% faster\n",
			100*(res.MaxVsBest-1), 100*res.MaxGainVsWorst)
		return nil
	}},
	{"trace", "engine per-step JSONL trace of a crash-recovery run", func(w io.Writer, quick bool) error {
		cfg := bench.PaperTrace
		if quick {
			cfg.Procs = 2
			cfg.CrashNode = 1
			cfg.Steps = 6
		}
		// The raw JSONL stream is the artifact; the breakdown table that
		// follows is internal/report's offline aggregation of it.
		var buf bytes.Buffer
		if _, err := bench.RunTrace(cfg, &buf); err != nil {
			return err
		}
		evs, err := engine.ReadEvents(bytes.NewReader(buf.Bytes()))
		if err != nil {
			return err
		}
		if _, err := w.Write(buf.Bytes()); err != nil {
			return err
		}
		fmt.Fprintln(w)
		report.TraceBreakdown(evs, fmt.Sprintf(
			"Trace: engine event stream — %s, %s, P=%d, %d steps, ckpt every %d (%d events)",
			cfg.Machine, cfg.Workload, cfg.Procs, cfg.Steps, cfg.CheckpointEvery, len(evs))).Write(w)
		return nil
	}},
	{"farmbench", "job-farm chaos campaign: SIGKILL the daemon, audit the ledger", func(w io.Writer, quick bool) error {
		cfg := bench.PaperFarmbench
		if quick {
			cfg = bench.QuickFarmbench
		}
		res, tbl, err := bench.RunFarmbench(cfg)
		if err != nil {
			return err
		}
		tbl.Write(w)
		if res.LostAcked != 0 || res.DupResults != 0 || res.HashMismatches != 0 {
			return fmt.Errorf("farmbench: crash-safety audit failed: lost=%d dup=%d mismatch=%d",
				res.LostAcked, res.DupResults, res.HashMismatches)
		}
		return nil
	}},
	{"spectral", "pseudospectral turbulence: serial vs slab bit-identity + online spectra", func(w io.Writer, quick bool) error {
		cfg := bench.PaperSpectral
		if quick {
			cfg = bench.QuickSpectral
		}
		if err := cliutil.SpectralFlags(cfg.N, 500, true, 3, 5); err != nil {
			return err
		}
		sres, tbl, err := bench.RunSpectralBench(cfg)
		if err != nil {
			return err
		}
		tbl.Write(w)
		if sres.PadAB != nil {
			fmt.Fprintln(w)
			sres.PadAB.Table().Write(w)
		}
		// A short forced run with the tracer on, to show the online
		// spectrum/dissipation stream and its offline aggregation.
		var buf bytes.Buffer
		s, err := spectral.NewForced(spectral.Config{
			N: cfg.N, Re: 500, Dt: 2e-3, Seed: 33, DiagEvery: 2,
		}, nil, nil)
		if err != nil {
			return err
		}
		s.Trace = engine.NewTracer(&buf)
		loop := engine.Loop{Solver: s, Steps: 8, Trace: s.Trace}
		if _, err := loop.Run(); err != nil {
			return err
		}
		evs, err := engine.ReadEvents(bytes.NewReader(buf.Bytes()))
		if err != nil {
			return err
		}
		if _, err := w.Write(buf.Bytes()); err != nil {
			return err
		}
		fmt.Fprintln(w)
		report.TraceBreakdown(evs, fmt.Sprintf(
			"Spectral trace: forced 2D turbulence event stream — N=%d, 8 steps, diag every 2 (%d events)",
			cfg.N, len(evs))).Write(w)
		return nil
	}},
	{"table3_fig15-16_nektarale", "Nektar-ALE flapping wing: Table 3 + Figures 15-16", func(w io.Writer, quick bool) error {
		cfg := bench.PaperALE
		if quick {
			cfg.Procs = []int{16, 32}
		}
		res, err := bench.RunALE(cfg)
		if err != nil {
			return err
		}
		bench.Table3(res, cfg.Procs, cfg.Machines).Write(w)
		for _, cell := range []struct {
			m string
			p int
		}{{"NCSA", 16}, {"RoadRunner-myr", 16}, {"NCSA", 64}, {"RoadRunner-myr", 64}} {
			txt, err := bench.Fig1516(res, cell.m, cell.p)
			if err != nil {
				continue // quick mode may not include 64
			}
			fmt.Fprintln(w)
			fmt.Fprint(w, txt)
		}
		return nil
	}},
}

// experimentNames lists the registry, in run order.
func experimentNames() []string {
	names := make([]string, len(experiments))
	for i, e := range experiments {
		names[i] = e.name
	}
	return names
}

func main() {
	farm.MaybeDaemon() // farmbench re-execs this binary as its daemon image
	outdir := flag.String("outdir", "", "write per-experiment files to this directory instead of stdout")
	quick := flag.Bool("quick", false, "limit processor counts and steps for a fast pass")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(),
			"usage: repro [flags] [experiment ...]\n\nexperiments (default: all, in order):\n")
		for _, e := range experiments {
			fmt.Fprintf(flag.CommandLine.Output(), "  %-26s %s\n", e.name, e.desc)
		}
		fmt.Fprintf(flag.CommandLine.Output(), "\nflags:\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	selected := experiments
	if args := flag.Args(); len(args) > 0 {
		byName := map[string]experiment{}
		for _, e := range experiments {
			byName[e.name] = e
		}
		selected = nil
		for _, name := range args {
			e, ok := byName[name]
			if !ok {
				log.Fatalf("unknown experiment %q: registered experiments are %s",
					name, strings.Join(experimentNames(), ", "))
			}
			selected = append(selected, e)
		}
	}

	out := func(name string) (io.WriteCloser, error) {
		if *outdir == "" {
			fmt.Printf("\n===== %s =====\n", name)
			return nopCloser{os.Stdout}, nil
		}
		if err := os.MkdirAll(*outdir, 0o755); err != nil {
			return nil, err
		}
		return os.Create(filepath.Join(*outdir, name+".txt"))
	}
	for _, e := range selected {
		t0 := time.Now()
		w, err := out(e.name)
		if err != nil {
			log.Fatal(err)
		}
		if err := e.run(w, *quick); err != nil {
			log.Fatalf("%s: %v", e.name, err)
		}
		w.Close()
		log.Printf("%s done in %v", e.name, time.Since(t0).Round(time.Millisecond))
	}
}

type nopCloser struct{ io.Writer }

func (nopCloser) Close() error { return nil }
