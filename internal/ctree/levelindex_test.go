package ctree

import (
	"math/rand"
	"testing"

	"mrcc/internal/dataset"
)

// indexTestTree builds a tree over pseudo-random points.
func indexTestTree(t *testing.T, d, n, H int, seed int64) (*Tree, *dataset.Dataset) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	ds := &dataset.Dataset{Dims: d}
	for i := 0; i < n; i++ {
		p := make([]float64, d)
		for j := range p {
			p[j] = rng.Float64()
		}
		ds.Points = append(ds.Points, p)
	}
	tr, err := Build(ds, H)
	if err != nil {
		t.Fatal(err)
	}
	return tr, ds
}

// TestLevelIndexMatchesWalk pins the flat snapshot against the tree
// walk: the same cells, entries in strictly ascending key order (the
// lexicographic order of their coordinate vectors), paths, coords and
// bounds identical to the Path methods, parents equal to ParentCell,
// and Find the inverse of PathOf.
func TestLevelIndexMatchesWalk(t *testing.T) {
	tr, _ := indexTestTree(t, 6, 3000, 5, 1)
	for h := 1; h <= tr.H-1; h++ {
		ix := tr.LevelIndex(h)
		if ix == nil {
			t.Fatalf("no index for level %d", h)
		}
		if ix.Len() != tr.LevelCellCount(h) {
			t.Fatalf("level %d: index has %d entries, walk counts %d", h, ix.Len(), tr.LevelCellCount(h))
		}
		for i := 1; i < ix.Len(); i++ {
			if compareCoords(ix, i-1, i) >= 0 {
				t.Fatalf("level %d: entries %d and %d out of coordinate order", h, i-1, i)
			}
		}
		seen := 0
		tr.WalkLevel(h, func(p Path, r Ref) {
			i := ix.Find(p)
			if i < 0 {
				t.Fatalf("level %d: Find(%v) missed a stored cell", h, p)
			}
			seen++
			if ix.Ref(i) != r {
				t.Fatalf("level %d entry %d: Ref %d, walk %d", h, i, ix.Ref(i), r)
			}
			if ix.N(i) != tr.N(r) || ix.Used(i) != tr.Used(r) {
				t.Fatalf("level %d entry %d: N/Used differ from the arena", h, i)
			}
			if ix.PathOf(i).Compare(p) != 0 {
				t.Fatalf("level %d entry %d: path %v, walk %v", h, i, ix.PathOf(i), p)
			}
			for j := 0; j < tr.D; j++ {
				if ix.Coord(i, j) != p.Coord(j) {
					t.Fatalf("level %d entry %d axis %d: coord %d, want %d", h, i, j, ix.Coord(i, j), p.Coord(j))
				}
				lo, hi := ix.Bounds(i, j)
				wl, wh := p.Bounds(j)
				if lo != wl || hi != wh {
					t.Fatalf("level %d entry %d axis %d: bounds (%v,%v), want (%v,%v)", h, i, j, lo, hi, wl, wh)
				}
			}
			if got, want := ix.Parent(i), tr.ParentCell(p); got != want {
				t.Fatalf("level %d entry %d: parent %d, want %d", h, i, got, want)
			}
		})
		if seen != ix.Len() {
			t.Fatalf("level %d: walk found %d cells, index holds %d", h, seen, ix.Len())
		}
	}
}

// compareCoords orders entries a and b by their coordinate vectors,
// axis 0 first.
func compareCoords(ix *LevelIndex, a, b int) int {
	for j := 0; j < ix.Dims(); j++ {
		ca, cb := ix.Coord(a, j), ix.Coord(b, j)
		if ca != cb {
			if ca < cb {
				return -1
			}
			return 1
		}
	}
	return 0
}

// TestLevelIndexNeighborLookup pins Find over Path.Neighbor against
// the CellAt reference for every entry, axis and side — absent
// neighbours included.
func TestLevelIndexNeighborLookup(t *testing.T) {
	tr, _ := indexTestTree(t, 5, 2000, 4, 2)
	for h := 1; h <= tr.H-1; h++ {
		ix := tr.LevelIndex(h)
		for i := 0; i < ix.Len(); i++ {
			p := ix.PathOf(i)
			for j := 0; j < tr.D; j++ {
				for _, upper := range []bool{false, true} {
					np, ok := p.Neighbor(j, upper)
					if !ok {
						continue
					}
					want := tr.CellAt(np)
					got := NilRef
					if ni := ix.Find(np); ni >= 0 {
						got = ix.Ref(ni)
					}
					if got != want {
						t.Fatalf("level %d entry %d axis %d upper=%v: neighbor %d, want %d", h, i, j, upper, got, want)
					}
				}
			}
		}
	}
}

// TestLevelIndexLookupAbsent pins the miss path: paths addressing
// unstored cells, another level, or positions beyond the last axis
// must return -1, not a false positive.
func TestLevelIndexLookupAbsent(t *testing.T) {
	ds := &dataset.Dataset{Dims: 2, Points: [][]float64{{0.1, 0.1}, {0.12, 0.11}}}
	tr, err := Build(ds, 4)
	if err != nil {
		t.Fatal(err)
	}
	ix := tr.LevelIndex(2)
	if got := ix.Find(Path{3, 3}); got != -1 {
		t.Errorf("Find(absent) = %d, want -1", got)
	}
	if got := ix.Find(Path{0}); got != -1 {
		t.Errorf("Find(wrong level) = %d, want -1", got)
	}
	if got := ix.Find(Path{4, 0}); got != -1 {
		t.Errorf("Find(position beyond the last axis) = %d, want -1", got)
	}
}

// TestLevelCellCountsOneWalk pins the single-walk level counting
// against the per-level walks it replaces, both before and after the
// indexes exist.
func TestLevelCellCountsOneWalk(t *testing.T) {
	tr, _ := indexTestTree(t, 4, 1500, 5, 3)
	for _, phase := range []string{"pre-index", "post-index"} {
		counts := tr.LevelCellCounts()
		if len(counts) != tr.H {
			t.Fatalf("%s: LevelCellCounts length %d, want %d", phase, len(counts), tr.H)
		}
		for h := 1; h <= tr.H-1; h++ {
			if counts[h] != tr.LevelCellCount(h) {
				t.Errorf("%s: level %d count %d, want %d", phase, h, counts[h], tr.LevelCellCount(h))
			}
		}
		tr.EnsureLevelIndexes()
	}
}

// TestMemoryBytesExcludesLevelIndexes is the footprint accounting
// test: with the arena layout, MemoryBytes is the tree's EXACT slab
// footprint and is disjoint from IndexMemoryBytes, so the pipeline's
// authoritative check (MemoryBytes + IndexMemoryBytes) never double
// counts. Materializing the indexes must not change the tree's own
// figure, and the load-shedding estimate must equal the exact figure.
func TestMemoryBytesExcludesLevelIndexes(t *testing.T) {
	tr, _ := indexTestTree(t, 6, 2000, 4, 4)
	before := tr.MemoryBytes()
	if got := tr.ApproxMemoryBytes(); got != before {
		t.Errorf("ApproxMemoryBytes = %d, want the exact MemoryBytes %d", got, before)
	}
	tr.EnsureLevelIndexes()
	after := tr.MemoryBytes()
	idx := tr.IndexMemoryBytes()
	if idx == 0 {
		t.Fatal("IndexMemoryBytes() == 0 after EnsureLevelIndexes")
	}
	if after != before {
		t.Errorf("index build changed the tree's own MemoryBytes: %d -> %d", before, after)
	}
	if got := tr.ApproxMemoryBytes(); got != after {
		t.Errorf("post-index ApproxMemoryBytes = %d, want %d", got, after)
	}
}

// TestLevelIndexInvalidation pins that mutating the tree's cell set
// (Insert, MergeFrom) drops the snapshots, so a rebuilt index sees the
// new cells.
func TestLevelIndexInvalidation(t *testing.T) {
	tr, _ := indexTestTree(t, 3, 500, 4, 5)
	n := tr.LevelIndex(3).Len()
	if err := tr.Insert([]float64{0.9999, 0.0001, 0.5001}); err != nil {
		t.Fatal(err)
	}
	if tr.IndexMemoryBytes() != 0 {
		t.Fatal("Insert did not invalidate the level indexes")
	}
	rebuilt := tr.LevelIndex(3).Len()
	if rebuilt < n {
		t.Errorf("rebuilt index has %d entries, want >= %d", rebuilt, n)
	}
	other, _ := indexTestTree(t, 3, 500, 4, 6)
	if err := tr.MergeFrom(other); err != nil {
		t.Fatal(err)
	}
	if tr.IndexMemoryBytes() != 0 {
		t.Fatal("MergeFrom did not invalidate the level indexes")
	}
	if got := tr.LevelIndex(3).Len(); got != tr.LevelCellCount(3) {
		t.Errorf("post-merge index has %d entries, walk counts %d", got, tr.LevelCellCount(3))
	}
}
