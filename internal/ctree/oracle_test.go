package ctree

import (
	"fmt"
	"math"
)

// insertPerPoint is the reference oracle of the build engine: the
// plainly written per-point descent of Algorithm 1. It validates and
// quantizes the point at level H, then walks from the root to the
// deepest stored level, creating missing cells and bumping N and the
// half-space counters one level at a time. Equivalence tests pin every
// build path against it.
func insertPerPoint(t *Tree, p []float64) error {
	if len(p) != t.D {
		return fmt.Errorf("ctree: point has %d values, want %d", len(p), t.D)
	}
	if t.Eta >= MaxPoints {
		return fmt.Errorf("ctree: tree already counts %d points (MaxPoints)", t.Eta)
	}
	var qs [MaxDims]uint64
	scale := float64(uint64(1) << uint(t.H))
	for j, v := range p {
		if v < 0 || v >= 1 || math.IsNaN(v) {
			return fmt.Errorf("ctree: axis %d value %g outside [0,1): dataset must be normalized", j, v)
		}
		qs[j] = uint64(v * scale)
	}
	t.invalidateIndexes()
	cur := rootRef
	prev := NilRef
	for h := 1; h <= t.H-1; h++ {
		var loc uint64
		for j := 0; j < t.D; j++ {
			loc |= ((qs[j] >> uint(t.H-h)) & 1) << uint(j)
		}
		c, _ := t.ensureChild(cur, loc)
		t.n[c]++
		if prev >= 0 {
			popcountLower(t.PRow(prev), loc, t.dmask)
		}
		cur, prev = c, c
	}
	var leaf uint64
	for j := 0; j < t.D; j++ {
		leaf |= (qs[j] & 1) << uint(j)
	}
	popcountLower(t.PRow(prev), leaf, t.dmask)
	t.Eta++
	return nil
}

// perPointTree builds the oracle tree of points, one descent each.
func perPointTree(d, H int, points [][]float64) (*Tree, error) {
	t := New(d, H)
	for i, p := range points {
		if err := insertPerPoint(t, p); err != nil {
			return nil, fmt.Errorf("point %d: %w", i, err)
		}
	}
	return t, nil
}
