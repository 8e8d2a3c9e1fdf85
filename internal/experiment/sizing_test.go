package experiment

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"github.com/essat/essat/internal/node"
	"github.com/essat/essat/internal/protocol"
)

// The per-node tables (Safe Sleep's expectation rows, the shapers' and
// the query agent's per-query and per-child rows) are sized at build time
// from the node's tree children and the scenario's query count. These
// tests read them through reflection, so the tables stay unexported.

// field returns the named field of the struct v points to (or is).
func field(t *testing.T, v reflect.Value, name string) reflect.Value {
	t.Helper()
	if v.Kind() == reflect.Pointer || v.Kind() == reflect.Interface {
		v = v.Elem()
	}
	f := v.FieldByName(name)
	if !f.IsValid() {
		t.Fatalf("%s has no field %q", v.Type(), name)
	}
	return f
}

// tableCaps returns the capacity of every build-sized table at node n,
// and the capacity each should have: the rows a static tree needs (-1:
// set from the shaper's deadline, checked only for growth).
func tableCaps(t *testing.T, n *node.Node, queries, children int) (got, want map[string]int) {
	t.Helper()
	got, want = map[string]int{}, map[string]int{}
	put := func(name string, v reflect.Value, rows int) {
		got[name], want[name] = v.Cap(), rows
	}
	agent := reflect.ValueOf(n.Agent)
	put("query.ids", field(t, agent, "ids"), queries)
	put("query.queries", field(t, agent, "queries"), queries)
	rts := field(t, agent, "queries")
	for i := 0; i < rts.Len(); i++ {
		put(fmt.Sprintf("query.rt[%d].miss", i), field(t, rts.Index(i), "consecMiss"), children)
		put(fmt.Sprintf("query.rt[%d].intervals", i), field(t, rts.Index(i), "intervals"), -1)
	}
	if n.SS == nil {
		return got, want
	}
	ss := reflect.ValueOf(n.SS)
	put("core.ss.send", field(t, ss, "nextSend"), queries)
	put("core.ss.recv", field(t, ss, "nextRecv"), queries*children)
	shaper := reflect.ValueOf(n.Agent.Shaper())
	switch shaper.Elem().Type().Name() {
	case "DTS":
		put("core.dts.ids", field(t, shaper, "ids"), queries)
		put("core.dts.q", field(t, shaper, "q"), queries)
		states := field(t, shaper, "q")
		for i := 0; i < states.Len(); i++ {
			put(fmt.Sprintf("core.dts.q[%d].children", i), field(t, states.Index(i), "children"), children)
		}
	case "NTS", "STS":
		put("core.specs", field(t, shaper, "specs"), queries)
	default:
		t.Fatalf("unexpected shaper %s", shaper.Elem().Type())
	}
	return got, want
}

// checkIntervalRows checks every interval the agent at n holds, open or
// recycled: its expected/got rows were sized to the node's children and
// never grew.
func checkIntervalRows(t *testing.T, id node.NodeID, n *node.Node, children int) {
	t.Helper()
	check := func(iv reflect.Value) {
		for _, name := range []string{"expected", "got"} {
			if c := field(t, iv, name).Cap(); c != children {
				t.Errorf("node %d: interval %s has capacity %d, want %d (one per child)", id, name, c, children)
			}
		}
	}
	agent := reflect.ValueOf(n.Agent)
	rts := field(t, agent, "queries")
	for i := 0; i < rts.Len(); i++ {
		ivs := field(t, rts.Index(i), "intervals")
		for j := 0; j < ivs.Len(); j++ {
			check(ivs.Index(j))
		}
	}
	for iv := field(t, agent, "ivFree"); !iv.IsNil(); iv = field(t, iv, "nextFree") {
		check(iv)
	}
}

// checkSizing builds sc, checks every table was sized to the rows the
// tree needs, runs it, and checks no table grew.
func checkSizing(t *testing.T, sc Scenario) {
	t.Helper()
	s, err := Build(sc)
	if err != nil {
		t.Fatal(err)
	}
	type key struct {
		id   node.NodeID
		name string
	}
	built := map[key]int{}
	for id, n := range s.Nodes {
		got, want := tableCaps(t, n, len(sc.Queries), len(s.Tree.Children(id)))
		for name, c := range got {
			if want[name] >= 0 && c != want[name] {
				t.Errorf("%s node %d: %s capacity %d after build, want %d", sc.Protocol, id, name, c, want[name])
			}
			built[key{id, name}] = c
		}
	}
	s.Simulate()
	for id, n := range s.Nodes {
		children := len(s.Tree.Children(id))
		got, _ := tableCaps(t, n, len(sc.Queries), children)
		for name, c := range got {
			if c != built[key{id, name}] {
				t.Errorf("%s node %d: %s grew mid-run from %d to %d", sc.Protocol, id, name, built[key{id, name}], c)
			}
		}
		checkIntervalRows(t, id, n, children)
	}
}

// TestTablesSizedFromTree covers fig4's largest workload (10 queries per
// class) at paper scale and fig3's highest rate (5 Hz), where the
// baselines' hop-scaled deadlines keep several rounds open, on every
// protocol, and the 10k-node tier.
func TestTablesSizedFromTree(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale and 10k-node runs")
	}
	for _, p := range protocol.All() {
		sc := PaperOptions().normalized().scenario(p, 1)
		sc.Queries = QueryClasses(rand.New(rand.NewSource(104729)), 0.2, 10, 10*time.Second)
		checkSizing(t, sc)
		sc = QuickOptions().normalized().scenario(p, 1)
		sc.Queries = QueryClasses(rand.New(rand.NewSource(7919)), 5, 1, 10*time.Second)
		checkSizing(t, sc)
	}
	spec, err := LoadSpec("../../testdata/huge.json")
	if err != nil {
		t.Fatal(err)
	}
	spec.Duration = Dur(4 * time.Second)
	sc, err := spec.Scenario()
	if err != nil {
		t.Fatal(err)
	}
	checkSizing(t, sc)
}

// warmHugeAllocs is the allocation count of a warm-arena rerun of the
// 10k-node tier at 4 sim-s (build, simulate, collect) while every node
// still took fixed 8- and 16-row tables: 99,357. Sizing the tables from
// the tree must not raise it.
const warmHugeAllocs = 99_357

func TestWarmArenaRerunAllocations(t *testing.T) {
	if testing.Short() {
		t.Skip("10k-node runs")
	}
	spec, err := LoadSpec("../../testdata/huge.json")
	if err != nil {
		t.Fatal(err)
	}
	spec.Duration = Dur(4 * time.Second)
	spec.MeasureFrom = nil
	sc, err := spec.Scenario()
	if err != nil {
		t.Fatal(err)
	}
	a := NewArenaWithCache(NewDeployCache(0))
	allocs := testing.AllocsPerRun(1, func() {
		s, err := BuildWith(a, sc)
		if err != nil {
			t.Fatal(err)
		}
		s.Simulate()
		s.Collect()
	})
	t.Logf("warm rerun: %.0f allocations", allocs)
	if allocs > warmHugeAllocs {
		t.Fatalf("warm-arena rerun allocates %.0f times, more than %d", allocs, warmHugeAllocs)
	}
}
