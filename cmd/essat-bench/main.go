// Command essat-bench regenerates the data behind every figure of the
// paper's evaluation (Figures 2-9 plus the §4.2.3 overhead measurement)
// and prints each as an aligned text table. Performance is measured by
// the perfbench module, not here (see BENCHMARKS.md); -cpuprofile and
// -memprofile profile a figure run.
//
// Examples:
//
//	essat-bench                            # every figure, quick setting
//	essat-bench -paper                     # the paper's full 200s × 5-seed setting
//	essat-bench -fig 3 -fig 6              # just Figures 3 and 6
//	essat-bench -parallel 8                # bound the worker pool at 8
//	essat-bench -fig 3 -cpuprofile cpu.prof -memprofile mem.prof
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"github.com/essat/essat"
)

type figList []string

func (f *figList) String() string { return strings.Join(*f, ",") }

func (f *figList) Set(v string) error {
	*f = append(*f, v)
	return nil
}

func main() {
	var figs figList
	var (
		paper    = flag.Bool("paper", false, "use the paper's full setting (200s runs, 5 seeds) instead of the quick one")
		duration = flag.Duration("duration", 0, "override run duration")
		seeds    = flag.Int("seeds", 0, "override seeds per point")
		parallel = flag.Int("parallel", 0, "max concurrent simulation runs (0 = GOMAXPROCS)")
		topo     = flag.String("topology", "", "topology generator for every run (empty = the paper's uniform placement; see essat-sim -list)")
		channel  = flag.String("channel", "", "channel propagation model for every run (empty = the paper's unit disc; see essat-sim -list)")
		radioPr  = flag.String("radio", "", "radio energy profile for every run (empty = the paper's cost model; see essat-sim -list)")
		seed     = flag.Int64("seed", 0, "base seed; every point runs seeds seed..seed+seeds-1 (0 = 1, the paper's range)")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf  = flag.String("memprofile", "", "write a heap profile (after the run) to this file")
		audit    = flag.Bool("audit", false, "run every scenario under the cross-layer invariant auditor (results unchanged; violations abort)")
	)
	ablations := flag.Bool("ablations", false, "also run the ablation and robustness studies (see ARCHITECTURE.md, \"Ablations\")")
	flag.Var(&figs, "fig", "figure to regenerate (2-9, 'overhead' or any essat-sim -list ID); repeatable, default all")
	flag.Parse()

	o := essat.QuickOptions()
	if *paper {
		o = essat.PaperOptions()
	}
	if *duration > 0 {
		o.Duration = *duration
	}
	if *seeds > 0 {
		o.Seeds = *seeds
	}
	o.Parallelism = *parallel
	o.Topology = *topo
	o.Channel = *channel
	o.RadioProfile = *radioPr
	o.BaseSeed = *seed
	o.Audit = *audit

	// Resolve every ID before running anything, so a typo fails fast.
	run, err := selectFigures(essat.FigureCatalog(), figs, *ablations)
	if err != nil {
		fatal(err)
	}

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer pprof.StopCPUProfile()
	}

	start := time.Now()
	for _, f := range run {
		fig, err := f.Run(o)
		if err != nil {
			fatal(err)
		}
		essat.PrintFigure(os.Stdout, fig)
		fmt.Println()
	}
	fmt.Printf("total wall time: %v\n", time.Since(start).Round(time.Second))

	if *memProf != "" {
		f, err := os.Create(*memProf)
		if err != nil {
			fatal(err)
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fatal(err)
		}
		f.Close()
	}
}

// selectFigures resolves the -fig IDs and -ablations into the entries
// to run: explicit IDs first, then (with no -fig) the paper figures,
// then (with -ablations) the studies, in catalog order.
func selectFigures(catalog []essat.FigureInfo, ids []string, ablations bool) ([]essat.FigureInfo, error) {
	var run []essat.FigureInfo
	for _, id := range ids {
		f, ok := lookup(catalog, id)
		if !ok {
			return nil, fmt.Errorf("unknown figure %q", id)
		}
		run = append(run, f)
	}
	for _, f := range catalog {
		if (len(ids) == 0 && !f.Study) || (f.Study && ablations) {
			run = append(run, f)
		}
	}
	return run, nil
}

// lookup finds a catalog entry by ID, accepting the short form of a
// paper figure ("3" for "fig3") as well as the ID essat-sim -list prints.
func lookup(catalog []essat.FigureInfo, id string) (essat.FigureInfo, bool) {
	for _, f := range catalog {
		if f.ID == id || f.ID == "fig"+id {
			return f, true
		}
	}
	return essat.FigureInfo{}, false
}

func fatal(err error) {
	// os.Exit skips deferred handlers; flush any active CPU profile so a
	// late error does not truncate -cpuprofile output (no-op otherwise).
	pprof.StopCPUProfile()
	fmt.Fprintln(os.Stderr, "essat-bench:", err)
	os.Exit(1)
}
