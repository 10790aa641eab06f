package core

import (
	"strings"
	"testing"

	"repro/internal/hw"
)

func f64(v float64) *float64 { return &v }

// TestQueryResolveErrorsNameTheField pins the one validation rule set every
// front end shares: each malformed field is rejected, and the error names it.
func TestQueryResolveErrorsNameTheField(t *testing.T) {
	ok := []string{"Resnet50"}
	for _, tc := range []struct {
		name, field string
		q           Query
	}{
		{"unknown model", "models", Query{Models: []string{"NoSuchNet"}}},
		{"no models", "models", Query{}},
		{"bad space", "space", Query{Models: ok, Space: "bogus"}},
		{"bad search kind", "search", Query{Models: ok, Search: "bogus"}},
		{"bad search param", "search", Query{Models: ok, Search: "anneal:t0=-1"}},
		{"negative budget", "budget", Query{Models: ok, Budget: -1}},
		{"negative budget under search", "budget", Query{Models: ok, Search: "anneal", Budget: -1}},
		{"unknown fidelity", "fidelity", Query{Models: ok, Fidelity: "exact"}},
		{"negative slack", "constraints", Query{Models: ok, Constraints: ConstraintOverrides{LatencySlack: f64(-0.5)}}},
		{"zero area limit", "constraints", Query{Models: ok, Constraints: ConstraintOverrides{MaxChipAreaMM2: f64(0)}}},
		{"negative power density", "constraints", Query{Models: ok, Constraints: ConstraintOverrides{MaxPowerDensityWPerMM2: f64(-1)}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, _, err := tc.q.Resolve(nil)
			if err == nil {
				t.Fatalf("Resolve(%+v) accepted an invalid query", tc.q)
			}
			if !strings.Contains(err.Error(), "query "+tc.field+":") {
				t.Errorf("error %q does not name field %q", err, tc.field)
			}
		})
	}
}

// TestQueryResolveApplies pins what a valid query resolves to.
func TestQueryResolveApplies(t *testing.T) {
	q := Query{
		Models: []string{"Resnet50", "BERT-base"}, Space: "fine",
		Constraints: ConstraintOverrides{LatencySlack: f64(0.5)},
		Search:      "genetic:pop=48", Budget: 900, Seed: 3, Fidelity: "staged",
	}
	models, o, err := q.Resolve(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(models) != 2 || models[0].Name != "Resnet50" || models[1].Name != "BERT-base" {
		t.Fatalf("models resolved out of order: %v", models)
	}
	if o.Space.Len() != hw.FineSpace().Len() || o.Catalogue != hw.Default() {
		t.Errorf("space %s / catalogue %p not resolved", o.Space.Desc(), o.Catalogue)
	}
	want := DefaultOptions().Constraints
	want.LatencySlack = 0.5
	if o.Constraints != want {
		t.Errorf("constraints %+v, want %+v", o.Constraints, want)
	}
	if s := o.Search; s == nil || s.Spec.Kind != "genetic" || s.Spec.Genetic.Pop != 48 || s.Budget != 900 || s.Seed != 3 {
		t.Errorf("search options %+v", o.Search)
	}
	if o.Fidelity.String() != "staged" {
		t.Errorf("fidelity %v, want staged", o.Fidelity)
	}
	if err := o.Validate(); err != nil {
		t.Errorf("resolved options do not validate: %v", err)
	}
}

// TestQueryKey pins the canonical encoding claired coalesces on: equivalent
// spellings of one computation share a key, and any field that can change
// the result separates keys.
func TestQueryKey(t *testing.T) {
	alt, err := hw.LoadCatalogue("../../examples/catalogue/mobile-7nm.json")
	if err != nil {
		t.Fatal(err)
	}
	key := func(q Query, cat *hw.Catalogue) string {
		t.Helper()
		models, o, err := q.Resolve(cat)
		if err != nil {
			t.Fatal(err)
		}
		return QueryKey(models, o)
	}
	one := []string{"Resnet50"}
	two := []string{"Resnet50", "BERT-base"}
	annealSpelled := "anneal:restarts=8,batch=8,t0=0.05,t1=0.001"

	for _, tc := range []struct {
		name string
		a, b Query
	}{
		{"space case", Query{Models: one, Space: "Paper"}, Query{Models: one, Space: "paper"}},
		{"space whitespace", Query{Models: one, Space: " fine "}, Query{Models: one, Space: "fine"}},
		{"space default", Query{Models: one}, Query{Models: one, Space: "paper"}},
		{"axis spelling", Query{Models: one, Space: "4X4x2x2"}, Query{Models: one, Space: "4x4x2x2"}},
		{"fidelity default", Query{Models: one}, Query{Models: one, Fidelity: "analytical"}},
		{"search defaults spelled", Query{Models: one, Search: "anneal"}, Query{Models: one, Search: annealSpelled}},
		{"search case", Query{Models: one, Search: " Anneal"}, Query{Models: one, Search: "anneal"}},
		{"seed and budget without search", Query{Models: one, Seed: 7, Budget: 100}, Query{Models: one}},
		{"explicit default constraints", Query{Models: one, Constraints: ConstraintOverrides{
			MaxChipAreaMM2: f64(100), MaxPowerDensityWPerMM2: f64(0.8), LatencySlack: f64(1)}}, Query{Models: one}},
	} {
		if ka, kb := key(tc.a, nil), key(tc.b, nil); ka != kb {
			t.Errorf("%s: equivalent queries keyed apart:\n%s\n%s", tc.name, ka, kb)
		}
	}

	base := Query{Models: two, Search: "anneal", Budget: 200, Seed: 1}
	baseKey := key(base, nil)
	for _, tc := range []struct {
		name string
		edit func(*Query)
		cat  *hw.Catalogue
	}{
		{"model order", func(q *Query) { q.Models = []string{"BERT-base", "Resnet50"} }, nil},
		{"model set", func(q *Query) { q.Models = one }, nil},
		{"space", func(q *Query) { q.Space = "fine" }, nil},
		{"catalogue", func(q *Query) {}, alt},
		{"area limit", func(q *Query) { q.Constraints.MaxChipAreaMM2 = f64(90) }, nil},
		{"power density limit", func(q *Query) { q.Constraints.MaxPowerDensityWPerMM2 = f64(0.7) }, nil},
		{"latency slack", func(q *Query) { q.Constraints.LatencySlack = f64(0.5) }, nil},
		{"search kind", func(q *Query) { q.Search = "genetic" }, nil},
		{"search params", func(q *Query) { q.Search = "anneal:batch=4" }, nil},
		{"exhaustive", func(q *Query) { q.Search = "" }, nil},
		{"budget", func(q *Query) { q.Budget = 300 }, nil},
		{"seed", func(q *Query) { q.Seed = 2 }, nil},
		{"fidelity", func(q *Query) { q.Fidelity = "staged" }, nil},
	} {
		q := base
		q.Models = append([]string(nil), base.Models...)
		tc.edit(&q)
		if k := key(q, tc.cat); k == baseKey {
			t.Errorf("%s: result-changing edit kept the key %s", tc.name, k)
		}
	}
}
