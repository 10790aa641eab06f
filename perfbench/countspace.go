package main

import (
	"fmt"
	"sync/atomic"

	"repro/internal/hw"
)

// fullSpace is every optional view the library looks for on a design space:
// the catalogue (dse stamps it into configs), coordinates (search moves over
// them), monotone corners (dse early exit, search seeding) and the corner
// indices search seeds from.
type fullSpace interface {
	hw.CatalogueSpace
	hw.CoordSpace
	hw.CornerSpace
	LatencyCornerIndices() []int
}

// countingSpace forwards a design space and counts At calls: the number of
// points the library visited, which is 2n+1 for a cache-bypassed analytical
// explore (scan, feasibility recount, winner). Only traced runs use it.
type countingSpace struct {
	fullSpace
	visits atomic.Int64
}

// countPoints wraps s. It refuses spaces without every optional view, since a
// wrapper that hid one would change what the library does with the space.
func countPoints(s hw.DesignSpace) (*countingSpace, error) {
	fs, ok := s.(fullSpace)
	if !ok {
		return nil, fmt.Errorf("perfbench: space %q lacks a view the counting wrapper must forward", s.Desc())
	}
	return &countingSpace{fullSpace: fs}, nil
}

// At counts the visit and forwards it.
func (c *countingSpace) At(i int) hw.Point {
	c.visits.Add(1)
	return c.fullSpace.At(i)
}
