package main

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/eval"
)

// expectedJSON is the oracle recorded from the commit that introduced the
// benchmark with `go run . --record` (run in this directory). A change that
// alters a winner, a feasibility count, a refinement count or one byte of the
// rendered pipeline output makes every run fail until it is re-recorded.
//
//go:embed expected.json
var expectedJSON []byte

// queryExpect is what one exhaustive explore query must return.
type queryExpect struct {
	Point         string `json:"point"`
	Feasible      int    `json:"feasible"`
	Explored      int    `json:"explored"`
	RefinedPoints int    `json:"refined_points"`
	// SelectionAreaMM2 is the winner's summed per-model area, the quantity
	// budgeted search minimizes and measures its optimality gap against.
	SelectionAreaMM2 float64 `json:"selection_area_mm2"`
}

// expected is the whole oracle.
type expected struct {
	// Queries holds the exhaustive queries of the explore workload and of the
	// layer probe by name.
	Queries map[string]queryExpect `json:"queries"`
	// PipelineSHA256 digests Tables I-VI and Figures 2-4 as rendered by one
	// pipeline iteration.
	PipelineSHA256 string `json:"pipeline_sha256"`
}

func loadExpected() (*expected, error) {
	var e expected
	dec := json.NewDecoder(bytes.NewReader(expectedJSON))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&e); err != nil {
		return nil, fmt.Errorf("expected.json: %w", err)
	}
	for _, q := range append(exploreQueries, probeQueries...) {
		if _, ok := e.Queries[q]; !ok {
			return nil, fmt.Errorf("expected.json: no entry for query %q", q)
		}
	}
	return &e, nil
}

// check compares an explore query's outcome with the oracle.
func (q queryExpect) check(name string, got queryExpect) error {
	if got.Point != q.Point || got.Feasible != q.Feasible || got.Explored != q.Explored ||
		got.RefinedPoints != q.RefinedPoints {
		return fmt.Errorf("%s: got winner %s feasible %d explored %d refined %d, want %s %d %d %d",
			name, got.Point, got.Feasible, got.Explored, got.RefinedPoints,
			q.Point, q.Feasible, q.Explored, q.RefinedPoints)
	}
	return nil
}

// recordExpected runs each exhaustive query and one pipeline iteration once
// and writes the oracle.
func recordExpected(w io.Writer) error {
	b := &bench{workload: "record", nproc: 1, layer: make(map[string]metric)}
	env, err := setupExplore()
	if err != nil {
		return err
	}
	e := expected{Queries: make(map[string]queryExpect)}
	for _, name := range append(exploreQueries, probeQueries...) {
		q := env.queries[name]
		got, run, err := b.exploreQuery(q, env)
		if err != nil {
			return err
		}
		got.SelectionAreaMM2, err = selectionArea(eval.New(eval.Options{}), q.models, q.space, run.point)
		if err != nil {
			return err
		}
		e.Queries[name] = got
	}
	penv, err := setupPipeline()
	if err != nil {
		return err
	}
	text, _, err := b.pipelineIteration(penv)
	if err != nil {
		return err
	}
	e.PipelineSHA256 = digest(text)
	out, err := json.MarshalIndent(e, "", "  ")
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", out)
	return err
}
