// One-shot convolution cache for the β-search (phase two).
//
// Mask values are pure functions of the immutable Counting-tree: the
// restart loop of Algorithm 2 mutates only the Used flags and the
// β-cluster overlap set, never a cell count. So instead of
// re-convolving every cell of every level on every restart pass (the
// naive scan, kept behind Config.NaiveScan for the equivalence suite
// and the phase-two benchmark), the searcher computes each level's
// values ONCE into a flat slab — fanned out across Config.Workers,
// trivially deterministic since the values do not depend on evaluation
// order — sorts the entries once under the scan's existing total order
// (value descending, lexicographic path ascending), and turns every
// subsequent densestCell call into an eligibility skip-scan: walk the
// cached order and return the first entry that is neither Used nor
// β-overlapping. Because the cached order IS the argmax order, the
// first eligible entry is exactly the cell the naive scan would pick,
// so the serial-equivalence guarantee survives unchanged (pinned by
// internal/core/scan_equiv_test.go).
//
// Restart passes drop from O(cells · d) re-convolution to O(skips)
// eligibility checks, and the overlap check computes bounds from the
// level index's coordinate key instead of re-deriving Path.Bounds
// (O(d·h)) per cell per pass.
package core

import (
	"mrcc/internal/conv"
	"mrcc/internal/ctree"
	"mrcc/internal/fault"
)

// levelScan is one level's cached, ordered convolution snapshot.
//
// start is the incremental-repair cursor: order[:start] is the prefix
// of entries already observed ineligible. Within one searcher lifetime
// ineligibility is monotone — the restart loop only ever SETS Used
// flags (ResetUsed runs before the searcher exists) and the β-cluster
// list is append-only, so a cell that overlaps any β-cluster overlaps
// it forever. A retired entry can therefore never become eligible
// again, and each restart pass resumes the skip-scan at start instead
// of re-deriving the whole prefix's eligibility: the per-pass cost is
// O(newly flipped cells), not O(all previously skipped cells).
// Config.NoCacheRepair restores the full re-walk for the equivalence
// sweep.
type levelScan struct {
	ix    *ctree.LevelIndex
	vals  []int64 // mask value per index entry
	order []int32 // entry indices, (value desc, path asc) order
	start int32   // repair cursor: order[:start] is permanently ineligible
}

// levelScan returns the cached snapshot for level h, building it on
// first use. An aborted build is NOT cached: the slab would be
// incomplete, and a caller that retries after clearing the abort (none
// does today) must get a fresh, complete build.
func (s *searcher) levelScan(h int) (*levelScan, error) {
	if s.scans == nil {
		s.scans = make([]*levelScan, s.tree.H)
	}
	if sc := s.scans[h]; sc != nil {
		return sc, nil
	}
	sc, err := s.buildLevelScan(h)
	if err != nil {
		return nil, err
	}
	s.scans[h] = sc
	return sc, nil
}

// buildLevelScan computes level h's mask values and the total-order
// permutation over them. The face mask starts from the 2d·n(i) center
// terms and subtracts each axis's adjacencies with one run-merge sweep
// over the level index (conv.SubtractFaceNeighbors); for Workers > 1
// the axes are split across workers, each with a private slab, and the
// slabs are summed — integer sums, so any split yields the serial
// values. The full 3^d mask keeps the per-entry range walk, in
// parallel ranges of entries.
//
// Every worker — and the serial path — polls the run's abort
// checkpoint once per axis sweep (face mask) or every scanCheckEvery
// entries (full mask), so a cancelled context stops the one-shot cache
// build, the run's single largest scan-side computation, within one
// sweep.
func (s *searcher) buildLevelScan(h int) (*levelScan, error) {
	ix := s.tree.LevelIndex(h)
	n := ix.Len()
	d := s.tree.D
	vals := make([]int64, n)
	parallel := s.workers > 1 && n >= minParallelCells
	var err error
	if s.cfg.FullMask {
		compute := func(lo, hi int) error {
			for seg := lo; seg < hi; seg += scanCheckEvery {
				if err := s.abort.check(fault.ScanChunk); err != nil {
					return err
				}
				for i := seg; i < min(seg+scanCheckEvery, hi); i++ {
					vals[i] = conv.FullValue(s.tree, ix.PathOf(i), ix.Ref(i))
				}
			}
			return nil
		}
		if parallel {
			err = parallelRangesErr(n, s.workers, compute)
		} else {
			err = compute(0, n)
		}
	} else {
		workers := 1
		if parallel {
			workers = min(s.workers, d)
		}
		slabs := make([][]int64, workers)
		sweep := func(w, j0, j1 int) error {
			slab := vals // serial: subtract straight into the result
			if workers > 1 {
				slab = make([]int64, n)
				slabs[w] = slab
			}
			for j := j0; j < j1; j++ {
				if err := s.abort.check(fault.ScanChunk); err != nil {
					return err
				}
				conv.SubtractFaceNeighbors(ix, j, slab)
			}
			return nil
		}
		if workers > 1 {
			err = parallelRangesIndexedErr(d, workers, sweep)
		} else {
			err = sweep(0, 0, d)
		}
		if err == nil {
			twoD := int64(2 * d)
			for i := range vals {
				vals[i] += twoD * int64(ix.N(i))
			}
			for _, slab := range slabs {
				for i, v := range slab {
					vals[i] += v
				}
			}
		}
	}
	if err != nil {
		return nil, err
	}
	s.col.AddValueCacheBuild(int64(n))
	s.col.AddMaskEvals(int64(n))
	return &levelScan{ix: ix, vals: vals, order: ix.ScanOrder(vals)}, nil
}

// densestCellCached returns the first eligible entry of level h's
// cached order — by construction the same (cell, value) the naive
// per-pass argmax scan selects — or (nil, NilRef, 0) when every entry
// is Used or β-overlapping.
//
// The default path resumes at the level's repair cursor and retires
// every ineligible entry it passes (see levelScan): entries whose Used
// flag or β-overlap status did not change since the previous pass are
// never re-examined, so the pass costs O(changed) eligibility checks.
// With Config.NoCacheRepair the scan re-walks the order from the top
// — the full-rebuild baseline the equivalence sweep compares against —
// and the cursor is neither read nor advanced.
func (s *searcher) densestCellCached(h int) (ctree.Path, ctree.Ref, int64) {
	sc, err := s.levelScan(h)
	if err != nil {
		// The abort is already recorded in the shared aborter (check
		// failures) or must be routed there (contained panics);
		// findBetaClusters picks it up right after this scan returns.
		s.failWorker(err)
		return nil, ctree.NilRef, 0
	}
	repair := !s.cfg.NoCacheRepair
	from := int(sc.start)
	if !repair {
		from = 0
		s.col.AddCacheFullRebuild()
	}
	var skips int64
	for pos := from; pos < len(sc.order); pos++ {
		idx := sc.order[pos]
		if sc.ix.Used(int(idx)) || s.overlapsBetaIndexed(sc.ix, int(idx)) {
			skips++
			continue
		}
		if repair && pos > from {
			s.col.AddCacheRepair(int64(pos - from))
			sc.start = int32(pos)
		}
		s.col.AddScanProbe(skips, int64(pos-from+1))
		return sc.ix.PathOf(int(idx)), sc.ix.Ref(int(idx)), sc.vals[idx]
	}
	if repair && len(sc.order) > from {
		s.col.AddCacheRepair(int64(len(sc.order) - from))
		sc.start = int32(len(sc.order))
	}
	s.col.AddScanProbe(skips, int64(len(sc.order)-from))
	return nil, ctree.NilRef, 0
}

// overlapsBetaIndexed reports whether index entry i overlaps any found
// β-cluster in every axis, computing the bounds from the entry's key
// instead of materializing its path. The float arithmetic is
// bit-identical to BetaCluster.SharesSpace over Path.Bounds: both are
// float64(coord)·side and (float64(coord)+1)·side.
func (s *searcher) overlapsBetaIndexed(ix *ctree.LevelIndex, i int) bool {
	d := s.tree.D
	for bi := range s.betas {
		b := &s.betas[bi]
		overlap := true
		for j := 0; j < d; j++ {
			lo, hi := ix.Bounds(i, j)
			if hi < b.L[j] || lo > b.U[j] {
				overlap = false
				break
			}
		}
		if overlap {
			return true
		}
	}
	return false
}
