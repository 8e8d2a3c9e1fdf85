package phy

import (
	"math"
	"math/rand"
	"testing"

	"github.com/essat/essat/internal/geom"
	"github.com/essat/essat/internal/radio"
	"github.com/essat/essat/internal/sim"
	"github.com/essat/essat/internal/topology"
)

func newTestEngineTopo(t *testing.T) (*sim.Engine, *topology.Topology) {
	t.Helper()
	topo, err := topology.FromPositions(geom.LinePlacement(2, 100), 125)
	if err != nil {
		t.Fatal(err)
	}
	return sim.New(1), topo
}

func TestPropagationRegistry(t *testing.T) {
	names := PropagationNames()
	want := []string{Disc, Shadowing, DualDisc}
	if len(names) < len(want) {
		t.Fatalf("PropagationNames() = %v, want at least %v", names, want)
	}
	for i, w := range want {
		if names[i] != w {
			t.Errorf("PropagationNames()[%d] = %q, want %q", i, names[i], w)
		}
	}
	if _, err := NewPropagation("warp", nil); err == nil {
		t.Error("unknown model did not error")
	}
	m, err := NewPropagation("", nil)
	if err != nil {
		t.Fatalf("empty name: %v", err)
	}
	if m.Name() != Disc {
		t.Errorf("empty name resolved to %q, want disc", m.Name())
	}
}

func TestPropagationUnknownParamsRejected(t *testing.T) {
	for _, name := range []string{Disc, Shadowing, DualDisc} {
		if _, err := NewPropagation(name, map[string]float64{"bogus": 1}); err == nil {
			t.Errorf("%s accepted unknown param", name)
		}
	}
}

func TestPropagationParamValidation(t *testing.T) {
	bad := []struct {
		model  string
		params map[string]float64
	}{
		{Shadowing, map[string]float64{"sigma": 0}},
		{Shadowing, map[string]float64{"sigma": -1}},
		{Shadowing, map[string]float64{"pathloss": 0}},
		{DualDisc, map[string]float64{"inner": 0}},
		{DualDisc, map[string]float64{"inner": 1.5, "outer": 1.0}},
	}
	for _, b := range bad {
		if _, err := NewPropagation(b.model, b.params); err == nil {
			t.Errorf("%s accepted %v", b.model, b.params)
		}
	}
}

func TestDiscModel(t *testing.T) {
	m, err := NewPropagation(Disc, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.MaxRange(125); got != 125 {
		t.Errorf("MaxRange(125) = %g, want 125", got)
	}
	if p := m.DeliveryProb(125, 125); p != 1 {
		t.Errorf("in-range prob = %g, want 1", p)
	}
	if p := m.DeliveryProb(125.01, 125); p != 0 {
		t.Errorf("out-of-range prob = %g, want 0", p)
	}
}

func TestShadowingModel(t *testing.T) {
	m, err := NewPropagation(Shadowing, map[string]float64{"sigma": 4, "pathloss": 3})
	if err != nil {
		t.Fatal(err)
	}
	// At the nominal range the decode margin is zero: a coin flip.
	if p := m.DeliveryProb(125, 125); math.Abs(p-0.5) > 1e-12 {
		t.Errorf("prob at nominal range = %g, want 0.5", p)
	}
	// Monotone non-increasing in distance, bounded in [0,1].
	last := 1.0
	for d := 1.0; d < 400; d += 1 {
		p := m.DeliveryProb(d, 125)
		if p < 0 || p > 1 {
			t.Fatalf("prob(%g) = %g out of [0,1]", d, p)
		}
		if p > last+1e-12 {
			t.Fatalf("prob increased at %g: %g > %g", d, p, last)
		}
		last = p
	}
	// The candidate cutoff is where PDR ≈ 1%: just inside, the link must
	// still be plausible; the cutoff grows with sigma.
	max := m.MaxRange(125)
	if max <= 125 {
		t.Errorf("MaxRange = %g, want beyond the nominal range", max)
	}
	if p := m.DeliveryProb(max, 125); math.Abs(p-0.01) > 1e-3 {
		t.Errorf("prob at MaxRange = %g, want ~0.01", p)
	}
	wide, _ := NewPropagation(Shadowing, map[string]float64{"sigma": 8})
	if wide.MaxRange(125) <= max {
		t.Error("larger sigma did not widen MaxRange")
	}
}

func TestDualDiscModel(t *testing.T) {
	m, err := NewPropagation(DualDisc, map[string]float64{"inner": 0.6, "outer": 1.2})
	if err != nil {
		t.Fatal(err)
	}
	const r = 100.0
	if got := m.MaxRange(r); got != 120 {
		t.Errorf("MaxRange = %g, want 120", got)
	}
	if p := m.DeliveryProb(60, r); p != 1 {
		t.Errorf("inner prob = %g, want 1", p)
	}
	if p := m.DeliveryProb(120, r); p != 0 {
		t.Errorf("outer prob = %g, want 0", p)
	}
	if p := m.DeliveryProb(90, r); math.Abs(p-0.5) > 1e-12 {
		t.Errorf("band midpoint prob = %g, want 0.5", p)
	}
}

func TestNewChannelConfigErrors(t *testing.T) {
	eng, topoDummy := newTestEngineTopo(t)
	if _, err := NewChannel(eng, topoDummy, Config{BitRate: 0}); err == nil {
		t.Error("zero bitrate did not error")
	}
	if _, err := NewChannel(eng, topoDummy, Config{BitRate: 1_000_000, LossRate: 1}); err == nil {
		t.Error("loss rate 1 did not error")
	}
	ch, err := NewChannel(eng, topoDummy, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := ch.SetLinkLoss(0, 1, 1.0); err == nil {
		t.Error("link loss 1 did not error")
	}
	if err := ch.SetLinkLoss(0, 1, 0.5); err != nil {
		t.Errorf("valid link loss errored: %v", err)
	}
}

// linkTableNet attaches every station of a 40-node random deployment to
// a channel running model, on eng, with candidate neighbors out to the
// model's MaxRange.
func linkTableNet(t *testing.T, eng *sim.Engine, model string) *Channel {
	t.Helper()
	prop, err := NewPropagation(model, nil)
	if err != nil {
		t.Fatal(err)
	}
	topo, err := topology.New(rand.New(rand.NewSource(7)), topology.Config{
		NumNodes: 40, AreaSide: 300, Range: 125, NeighborRange: prop.MaxRange(125),
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Propagation = prop
	ch, err := NewChannel(eng, topo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < topo.NumNodes(); i++ {
		ch.Attach(NodeID(i), radio.New(eng, radio.Config{}), &mockRx{})
	}
	return ch
}

// TestLinkProbTableMatchesModel checks the per-link delivery table the
// channel builds at Attach: every entry is exactly the model's verdict
// for that (station, neighbor) link, so deliveries draw against the same
// floats as evaluating the model per frame. The disc model builds none.
func TestLinkProbTableMatchesModel(t *testing.T) {
	for _, model := range []string{Shadowing, DualDisc, Disc} {
		t.Run(model, func(t *testing.T) {
			ch := linkTableNet(t, sim.New(1), model)
			if model == Disc {
				if ch.linkProb != nil {
					t.Fatal("disc channel built a link table")
				}
				return
			}
			links, gray := 0, 0
			for id := range ch.stations {
				nbs := ch.Neighbors(NodeID(id))
				probs := ch.linkProb[id]
				if len(probs) != len(nbs) {
					t.Fatalf("station %d: %d link entries for %d neighbors", id, len(probs), len(nbs))
				}
				for j, nb := range nbs {
					d := ch.topo.Position(NodeID(id)).Dist(ch.topo.Position(nb))
					want := ch.prop.DeliveryProb(d, ch.topo.Range())
					if got := probs[j]; got != want {
						t.Fatalf("link %d→%d: table %v, model %v", id, nb, got, want)
					}
					links++
					if want > 0 && want < 1 {
						gray++
					}
				}
			}
			if gray == 0 {
				t.Fatalf("%d links, none in the gray zone: the table was not exercised", links)
			}
		})
	}
}

// TestLinkProbTableReusesArena checks the link table comes from the
// engine's arena: a rebuild after Reset reuses the first run's backing
// arrays and allocates no more than the disc model, which has no table.
func TestLinkProbTableReusesArena(t *testing.T) {
	eng := sim.New(1)
	eng.SetArena(sim.NewArena())
	first := linkTableNet(t, eng, Shadowing).linkProb[0]
	eng.Reset(1)
	again := linkTableNet(t, eng, Shadowing).linkProb[0]
	if &first[0] != &again[0] {
		t.Fatal("link table after Reset did not reuse the arena's backing array")
	}
	rebuild := func(model string) float64 {
		linkTableNet(t, eng, model) // warm the arena for this shape
		return testing.AllocsPerRun(10, func() {
			eng.Reset(1)
			linkTableNet(t, eng, model)
		})
	}
	if disc, shadow := rebuild(Disc), rebuild(Shadowing); shadow > disc {
		t.Fatalf("rebuild allocates %.0f objects under shadowing, %.0f under disc: the table is not arena-backed", shadow, disc)
	}
}
