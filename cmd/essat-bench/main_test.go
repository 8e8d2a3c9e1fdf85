package main

import (
	"reflect"
	"testing"

	"github.com/essat/essat"
)

// TestSelectFigures pins how -fig and -ablations pick catalog entries:
// the short and full form of a paper figure ID resolve alike, explicit
// IDs run first, and the studies run only with -ablations.
func TestSelectFigures(t *testing.T) {
	catalog := []essat.FigureInfo{
		{ID: "fig3"},
		{ID: "overhead"},
		{ID: "ablation-guard", Study: true},
		{ID: "lifetime", Study: true},
	}
	cases := []struct {
		name      string
		ids       []string
		ablations bool
		want      []string
		wantErr   bool
	}{
		{"default", nil, false, []string{"fig3", "overhead"}, false},
		{"default ablations", nil, true, []string{"fig3", "overhead", "ablation-guard", "lifetime"}, false},
		{"short id", []string{"3"}, false, []string{"fig3"}, false},
		{"full id", []string{"fig3"}, false, []string{"fig3"}, false},
		{"explicit order", []string{"overhead", "3"}, false, []string{"overhead", "fig3"}, false},
		{"explicit then ablations", []string{"3"}, true, []string{"fig3", "ablation-guard", "lifetime"}, false},
		{"study by id", []string{"lifetime"}, false, []string{"lifetime"}, false},
		{"unknown id", []string{"fig3", "nope"}, false, nil, true},
		{"study short form", []string{"guard"}, false, nil, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			run, err := selectFigures(catalog, c.ids, c.ablations)
			if c.wantErr {
				if err == nil {
					t.Fatalf("selectFigures(%q) = %v, want an error", c.ids, run)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			var got []string
			for _, f := range run {
				got = append(got, f.ID)
			}
			if !reflect.DeepEqual(got, c.want) {
				t.Fatalf("selectFigures(%q, ablations=%v) = %q, want %q", c.ids, c.ablations, got, c.want)
			}
		})
	}
}

// TestLookupRealCatalog checks that every paper figure in the real
// catalog answers to both its short and full -fig form.
func TestLookupRealCatalog(t *testing.T) {
	catalog := essat.FigureCatalog()
	for _, id := range []string{"2", "3", "4", "5", "6", "7", "8", "9"} {
		short, ok1 := lookup(catalog, id)
		full, ok2 := lookup(catalog, "fig"+id)
		if !ok1 || !ok2 || short.ID != "fig"+id || full.ID != "fig"+id {
			t.Errorf("-fig %s → %q (%v), -fig fig%s → %q (%v)", id, short.ID, ok1, id, full.ID, ok2)
		}
	}
}
