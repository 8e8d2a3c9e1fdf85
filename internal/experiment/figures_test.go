package experiment

import (
	"math/rand"
	"strings"
	"testing"
	"time"

	"github.com/essat/essat/internal/topology"
)

func TestFigureFprint(t *testing.T) {
	f := &Figure{
		ID:     "test",
		Title:  "A test figure",
		XLabel: "x",
		YLabel: "y",
		Series: []Series{
			{Name: "a", Points: []Point{{X: 1, Mean: 10, CI90: 0.5, N: 3}, {X: 2, Mean: 20, CI90: 1, N: 3}}},
			{Name: "b", Points: []Point{{X: 2, Mean: 5, CI90: 0.1, N: 3}}},
		},
		Notes: []string{"a note"},
	}
	var sb strings.Builder
	f.Fprint(&sb)
	out := sb.String()
	for _, want := range []string{"test", "A test figure", "a note", "10.000", "20.000", "5.000"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendering missing %q:\n%s", want, out)
		}
	}
	// Row for x=1 must leave series b's cell empty, not misaligned.
	lines := strings.Split(out, "\n")
	var x1 string
	for _, l := range lines {
		if strings.HasPrefix(l, "1") {
			x1 = l
		}
	}
	if strings.Contains(x1, "5.000") {
		t.Errorf("x=1 row contains series b's x=2 value: %q", x1)
	}
}

func TestOptionsNormalization(t *testing.T) {
	o := Options{}.normalized()
	if o.Duration <= 0 || o.Seeds <= 0 || o.Nodes <= 0 || o.Parallelism <= 0 {
		t.Fatalf("normalized zero options invalid: %+v", o)
	}
	p := PaperOptions()
	if p.Duration != 200*time.Second || p.Seeds != 5 || p.Nodes != 80 {
		t.Fatalf("PaperOptions = %+v", p)
	}
}

// TestFigureCatalogRuns runs every catalog entry's driver at a tiny
// scale: the catalog is the one list essat-bench and essat-sim -list
// read, so each entry must run and return the figure it names.
func TestFigureCatalogRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every figure driver")
	}
	o := Options{Duration: 5 * time.Second, Seeds: 1, Nodes: 20}
	for _, f := range FigureCatalog() {
		fig, err := f.Run(o)
		if err != nil {
			t.Errorf("%s: %v", f.ID, err)
			continue
		}
		if fig.ID != f.ID {
			t.Errorf("catalog entry %s returned figure %s", f.ID, fig.ID)
		}
	}
}

func TestRunMatrixParallelAggregation(t *testing.T) {
	o := Options{Duration: 6 * time.Second, Seeds: 3, Nodes: 25, Parallelism: 3}.normalized()
	results, err := runMatrix(o, 1, func(i int, seed int64) Scenario {
		sc := DefaultScenario(DTSSS, seed)
		sc.Topology = topology.Config{NumNodes: o.Nodes, AreaSide: 300, Range: 125}
		sc.Duration = o.Duration
		sc.MeasureFrom = time.Second
		rng := rand.New(rand.NewSource(seed))
		sc.Queries = QueryClasses(rng, 1, 1, time.Second)
		return sc
	})
	if err != nil {
		t.Fatal(err)
	}
	pt := pointFrom(42, results[0], func(r *Result) float64 { return r.DutyCycle })
	if pt.X != 42 || pt.N != 3 {
		t.Fatalf("point = %+v", pt)
	}
	if pt.Mean <= 0 || pt.Mean > 1 {
		t.Fatalf("mean duty = %v", pt.Mean)
	}
}

// TestParallelSweepDeterminism is the worker-count invariance regression:
// the figure-sweep runner must produce byte-identical output whether the
// job grid runs on one worker or eight, because aggregation happens in
// job order after all runs complete and each run is seed-deterministic.
func TestParallelSweepDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the Fig. 3 sweep twice; skipped with -short")
	}
	render := func(workers int) string {
		o := QuickOptions()
		o.Parallelism = workers
		fig, err := Fig3DutyVsRate(o, []float64{1, 5})
		if err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		fig.Fprint(&sb)
		return sb.String()
	}
	seq := render(1)
	par := render(8)
	if seq != par {
		t.Fatalf("figure output differs between workers=1 and workers=8:\n--- workers=1 ---\n%s\n--- workers=8 ---\n%s", seq, par)
	}
}

// TestRunGridFirstErrorInJobOrder checks runGrid's error contract at one
// worker and at several: every job runs, even after an earlier one
// failed, and the error returned is the failing job's that comes first
// in job order, whichever worker finished first.
func TestRunGridFirstErrorInJobOrder(t *testing.T) {
	valid := func() Scenario {
		sc := DefaultScenario(DTSSS, 1)
		sc.Topology = topology.Config{NumNodes: 10, AreaSide: 200, Range: 125}
		sc.Duration = 2 * time.Second
		sc.MeasureFrom = time.Second
		sc.Queries = QueryClasses(rand.New(rand.NewSource(1)), 1, 1, time.Second)
		return sc
	}
	noQueries := func() Scenario { sc := valid(); sc.Queries = nil; return sc }
	noDuration := func() Scenario { sc := valid(); sc.Duration = 0; return sc }
	for _, workers := range []int{1, 4} {
		jobs := []*runJob{{build: valid}, {build: noQueries}, {build: noDuration}, {build: valid}}
		err := runGrid(Options{Parallelism: workers}, jobs)
		if err == nil || !strings.Contains(err.Error(), "no queries") {
			t.Errorf("workers=%d: err = %v, want job 1's no-queries error", workers, err)
		}
		if jobs[2].err == nil {
			t.Errorf("workers=%d: job 2 did not run", workers)
		}
		for _, i := range []int{0, 3} {
			if jobs[i].err != nil || jobs[i].res == nil {
				t.Errorf("workers=%d: valid job %d: res %v, err %v", workers, i, jobs[i].res, jobs[i].err)
			}
		}
	}
}

func TestDisableSafeSleepAblation(t *testing.T) {
	sc := DefaultScenario(DTSSS, 1)
	sc.Topology = topology.Config{NumNodes: 30, AreaSide: 350, Range: 125}
	sc.Duration = 15 * time.Second
	sc.MeasureFrom = 3 * time.Second
	rng := rand.New(rand.NewSource(5))
	sc.Queries = QueryClasses(rng, 1, 1, 3*time.Second)
	sc.DisableSafeSleep = true
	res, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	// Shaping without sleeping: radios stay on the whole time.
	if res.DutyCycle < 0.99 {
		t.Fatalf("duty = %.3f with Safe Sleep disabled, want ~1.0", res.DutyCycle)
	}
	// But latency is unaffected (still shaped, still delivered).
	if res.Latency.N == 0 || res.Latency.Mean > time.Second {
		t.Fatalf("latency broken without SS: %+v", res.Latency)
	}
}

func TestBFSTreeScenario(t *testing.T) {
	sc := DefaultScenario(STSSS, 1)
	sc.Topology = topology.Config{NumNodes: 30, AreaSide: 350, Range: 125}
	sc.Duration = 15 * time.Second
	sc.MeasureFrom = 3 * time.Second
	sc.BFSTree = true
	rng := rand.New(rand.NewSource(5))
	sc.Queries = QueryClasses(rng, 1, 1, 3*time.Second)
	res, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if res.Latency.N == 0 {
		t.Fatal("BFS-tree scenario produced no results")
	}
}
