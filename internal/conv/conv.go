// Package conv applies spatial convolution masks over one level of a
// Counting-tree (Section III-B of the paper). The default mask is the
// integer approximation of the Laplacian filter with non-zero values
// only at the center (2d) and the 2d face elements (-1 each), which
// makes one application O(d) instead of O(3^d). The full order-3 mask
// (center 3^d-1, every other element -1) is also provided for the
// ablation study that justifies the face-only choice.
package conv

import "mrcc/internal/ctree"

// FaceValue returns the face-only Laplacian convolution value for the
// cell r addressed by path p: 2d·n(c) − Σ_j [n(lower_j) + n(upper_j)],
// where absent neighbors contribute zero.
func FaceValue(t *ctree.Tree, p ctree.Path, r ctree.Ref) int64 {
	return FaceValueScratch(t, p, r, make(ctree.Path, 0, p.Level()))
}

// FaceValueScratch is FaceValue with caller-owned path scratch (grown
// as needed), so the convolution scan — which applies the mask once per
// eligible cell per pass — allocates nothing per evaluation. buf must
// not alias p; each scan worker owns its own scratch.
func FaceValueScratch(t *ctree.Tree, p ctree.Path, r ctree.Ref, buf ctree.Path) int64 {
	d := t.D
	v := int64(2*d) * int64(t.N(r))
	for j := 0; j < d; j++ {
		for _, upper := range [2]bool{false, true} {
			np, ok := p.NeighborInto(buf, j, upper)
			if ok {
				if nc := t.CellAt(np); nc != ctree.NilRef {
					v -= int64(t.N(nc))
				}
			}
			buf = np[:0]
		}
	}
	return v
}

// FaceValuesSerial fills vals — one slot per entry of the level index —
// with the face-mask value of every entry: the 2d·n(i) center term,
// then SubtractFaceNeighbors for every axis.
func FaceValuesSerial(ix *ctree.LevelIndex, vals []int64) {
	twoD := int64(2 * ix.Dims())
	for i := range vals {
		vals[i] = twoD * int64(ix.N(i))
	}
	for j := 0; j < ix.Dims(); j++ {
		SubtractFaceNeighbors(ix, j, vals)
	}
}

// SubtractFaceNeighbors applies the face-mask terms of axis j to out,
// which spans the whole level: for every pair of stored face neighbours
// along j, each one's count comes off the other's slot. The pairs come
// from the level index's sequential run-merge sweep
// (LevelIndex.FaceAdjacencies), so each adjacency is found once, with
// no hashing. Parallel callers give each worker a private out slab and
// a disjoint set of axes and sum the slabs; integer addition commutes
// exactly, so any split yields the values of FaceValuesSerial.
func SubtractFaceNeighbors(ix *ctree.LevelIndex, j int, out []int64) {
	ix.FaceAdjacencies(j, func(lower, upper int) {
		out[lower] -= int64(ix.N(upper))
		out[upper] -= int64(ix.N(lower))
	})
}

// FaceNeighborCounts returns, for each axis j, the point counts of the
// lower and upper face neighbors of the cell at path p (zero when the
// neighbor is absent or outside the cube), plus the number of index
// lookups it made. The clustering phase reuses this both for the
// statistical test and for bound refinement. Each in-grid neighbor is
// one binary search in the level's index (materializing the tree's
// level indexes on first use).
func FaceNeighborCounts(t *ctree.Tree, p ctree.Path) (lower, upper []int32, lookups int64) {
	d := t.D
	lower = make([]int32, d)
	upper = make([]int32, d)
	ix := t.LevelIndex(p.Level())
	buf := make(ctree.Path, 0, p.Level())
	for j := 0; j < d; j++ {
		for _, up := range [2]bool{false, true} {
			np, ok := p.NeighborInto(buf, j, up)
			if !ok {
				continue
			}
			buf = np
			lookups++
			var n int32
			if i := ix.Find(np); i >= 0 {
				n = ix.N(i)
			}
			if up {
				upper[j] = n
			} else {
				lower[j] = n
			}
		}
	}
	return lower, upper, lookups
}

// FullValue returns the full order-3 Laplacian convolution value:
// (3^d−1)·n(c) − Σ over the stored cells of c's 3×…×3 neighbourhood.
// The neighbours come from a range walk down the tree
// (Tree.VisitBox) that prunes every subtree outside the
// neighbourhood, so the cost is O(stored neighbours · h) tree steps
// instead of one descent per each of the 3^d−1 offsets. It exists only
// for the mask ablation (experiment A-mask).
func FullValue(t *ctree.Tree, p ctree.Path, r ctree.Ref) int64 {
	d := t.D
	total := int64(1)
	for i := 0; i < d; i++ {
		total *= 3
	}
	v := (total - 1) * int64(t.N(r))
	h := p.Level()
	lo := make([]uint64, d)
	hi := make([]uint64, d)
	for j := 0; j < d; j++ {
		c := p.Coord(j)
		lo[j], hi[j] = c, c
		if c > 0 {
			lo[j]--
		}
		if c < uint64(1)<<uint(h)-1 {
			hi[j]++
		}
	}
	t.VisitBox(h, lo, hi, func(nc ctree.Ref) {
		if nc != r {
			v -= int64(t.N(nc))
		}
	})
	return v
}
