package search

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/dse"
	"repro/internal/eval"
)

var update = flag.Bool("update", false, "rewrite testdata/traces.golden from the current output")

// goldenRun is one pinned search: its inputs, the full Trace and the winner.
type goldenRun struct {
	Strategy string
	Space    string
	Seed     int64
	Winner   string
	Trace    Trace
}

// TestSearchTraceGolden pins every search decision, not just the winner: both
// strategies on the full fine space (13 training nets) and the mixfine space
// (AlexNet, ViT-base, ResNet-18) at a 5% budget, seeds 7 and 1000, must
// reproduce testdata/traces.golden byte for byte — the full Trace (budget
// ledger, cache hits, evaluations-to-win, the incumbent trajectory) and the
// winner's point. Coordinator optimizations must leave the RNG stream and
// every decision unchanged, so this file never moves for them. Regenerate
// with `go test ./internal/search -run TestSearchTraceGolden -update`, and
// only for a change that is meant to alter search output.
func TestSearchTraceGolden(t *testing.T) {
	var runs []goldenRun
	ev := eval.New(eval.Options{})
	for _, tc := range fivePercentCases(t) {
		budget := tc.space.Len() * len(tc.models) / 20
		for _, kind := range []string{"anneal", "genetic"} {
			spec, err := ParseSpec(kind)
			if err != nil {
				t.Fatal(err)
			}
			for _, seed := range []int64{7, 1000} {
				opt, err := New(spec, Options{Seed: seed, Evaluator: ev})
				if err != nil {
					t.Fatal(err)
				}
				res, tr, err := opt.Run(context.Background(), tc.models, tc.space, dse.DefaultConstraints(), budget)
				if err != nil {
					t.Fatalf("%s/%s seed %d: %v", tc.name, kind, seed, err)
				}
				runs = append(runs, goldenRun{
					Strategy: kind, Space: tc.name, Seed: seed,
					Winner: fmt.Sprintf("%+v", res.Config.Point), Trace: tr,
				})
			}
		}
	}
	got, err := json.MarshalIndent(runs, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	path := filepath.Join("testdata", "traces.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("search traces differ from %s (rerun with -update only for an intended output change):\n%s", path, got)
	}
}
