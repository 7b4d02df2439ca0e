package conv

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"mrcc/internal/ctree"
	"mrcc/internal/dataset"
)

// sweepShapes generates the point sets of the sweep property test:
// uniform points, points pinned to the grid border on random axes
// (coordinate 0 and 2^h-1 at every level), a lattice of face-adjacent
// cells, a duplicate-heavy set of a few distinct points, and a single
// repeated point (one cell per level).
var sweepShapes = map[string]func(rng *rand.Rand, d int) []float64{
	"uniform": func(rng *rand.Rand, d int) []float64 {
		p := make([]float64, d)
		for j := range p {
			p[j] = rng.Float64()
		}
		return p
	},
	"border": func(rng *rand.Rand, d int) []float64 {
		p := make([]float64, d)
		for j := range p {
			switch rng.Intn(3) {
			case 0:
				p[j] = 0
			case 1:
				p[j] = 1 - 1e-12
			default:
				p[j] = rng.Float64()
			}
		}
		return p
	},
	"duplicates": func(rng *rand.Rand, d int) []float64 {
		p := make([]float64, d)
		seed := rand.New(rand.NewSource(int64(rng.Intn(5))))
		for j := range p {
			p[j] = seed.Float64()
		}
		return p
	},
	"lattice": func(rng *rand.Rand, d int) []float64 {
		// Two grid-adjacent positions per axis at every level, mostly
		// the lower one, so cells that differ on one axis abound.
		p := make([]float64, d)
		for j := range p {
			p[j] = 0.5 - 1e-9
			if rng.Float64() < min(0.5, 2/float64(d)) {
				p[j] = 0.5
			}
		}
		return p
	},
	"single": func(_ *rand.Rand, d int) []float64 {
		p := make([]float64, d)
		for j := range p {
			p[j] = 0.3
		}
		return p
	},
}

// TestFaceSweepProperty pins the level index against brute force on
// random trees: the run-merge sweep's face values (serial, and with the
// axes split over private slabs) against a map-keyed reference built
// from Path.NeighborInto, the binary-search Find against CellAt for
// every stored cell and every in-grid neighbour (absent ones included),
// ScanOrder against a comparison sort under (value desc, Path.Compare
// asc), and, for d <= 5, FullValue against enumerating all 3^d
// offsets. d·(H-1) exceeds 64 for d=18, H=5 and d=30, H=4,
// which covers the multi-word keys; d=30 also needs two path words.
func TestFaceSweepProperty(t *testing.T) {
	geoms := []struct{ d, H int }{{1, 6}, {2, 5}, {5, 4}, {15, 4}, {18, 5}, {30, 4}}
	for _, g := range geoms {
		for name, gen := range sweepShapes {
			t.Run(fmt.Sprintf("d%d_H%d_%s", g.d, g.H, name), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(g.d*100 + g.H)))
				ds := dataset.New(g.d, 1500)
				for i := 0; i < 1500; i++ {
					ds.Append(gen(rng, g.d))
				}
				tr, err := ctree.Build(ds, g.H)
				if err != nil {
					t.Fatal(err)
				}
				adjacent := false
				for h := 1; h <= g.H-1; h++ {
					adjacent = checkLevelSweep(t, tr, h) || adjacent
				}
				if name == "lattice" && !adjacent {
					t.Fatal("lattice tree has no face-adjacent cells; the case checks nothing")
				}
			})
		}
	}
}

// checkLevelSweep runs the property checks on level h and reports
// whether any two stored cells there are face neighbours.
func checkLevelSweep(t *testing.T, tr *ctree.Tree, h int) (adjacent bool) {
	t.Helper()
	d := tr.D
	ix := tr.LevelIndex(h)
	counts := map[string]int32{}
	stored := 0
	tr.WalkLevel(h, func(p ctree.Path, r ctree.Ref) {
		counts[fmt.Sprint(p)] = tr.N(r)
		stored++
		i := ix.Find(p)
		if i < 0 || ix.Ref(i) != r {
			t.Fatalf("level %d: Find(%v) = %d, want the entry of ref %d", h, p, i, r)
		}
	})
	if stored != ix.Len() {
		t.Fatalf("level %d: %d stored cells, index holds %d", h, stored, ix.Len())
	}
	vals := make([]int64, ix.Len())
	FaceValuesSerial(ix, vals)
	split := make([]int64, ix.Len())
	for j0 := 0; j0 < d; j0 += 3 {
		slab := make([]int64, ix.Len())
		for j := j0; j < min(j0+3, d); j++ {
			SubtractFaceNeighbors(ix, j, slab)
		}
		for i, v := range slab {
			split[i] += v
		}
	}
	var buf ctree.Path
	for i := 0; i < ix.Len(); i++ {
		p := ix.PathOf(i)
		want := int64(2*d) * int64(counts[fmt.Sprint(p)])
		for j := 0; j < d; j++ {
			for _, up := range [2]bool{false, true} {
				np, ok := p.NeighborInto(buf, j, up)
				buf = np
				if !ok {
					continue
				}
				n, present := counts[fmt.Sprint(np)]
				want -= int64(n)
				adjacent = adjacent || present
				ref := tr.CellAt(np)
				if present != (ref != ctree.NilRef) {
					t.Fatalf("level %d: map and CellAt disagree on %v", h, np)
				}
				got := ix.Find(np)
				if (got >= 0) != present || (present && ix.Ref(got) != ref) {
					t.Fatalf("level %d: Find(%v) = %d, CellAt = %d", h, np, got, ref)
				}
			}
		}
		if vals[i] != want {
			t.Fatalf("level %d entry %d (%v): sweep %d, brute force %d", h, i, p, vals[i], want)
		}
		if got := split[i] + int64(2*d)*int64(ix.N(i)); got != want {
			t.Fatalf("level %d entry %d: split sweep %d, brute force %d", h, i, got, want)
		}
		if d <= 5 {
			if got, want := FullValue(tr, p, ix.Ref(i)), bruteFullValue(counts, p, d); got != want {
				t.Fatalf("level %d entry %d (%v): FullValue %d, brute force %d", h, i, p, got, want)
			}
		}
	}
	order := ix.ScanOrder(vals)
	ref := make([]int, ix.Len())
	for i := range ref {
		ref[i] = i
	}
	sort.Slice(ref, func(a, b int) bool {
		if vals[ref[a]] != vals[ref[b]] {
			return vals[ref[a]] > vals[ref[b]]
		}
		return ix.PathOf(ref[a]).Compare(ix.PathOf(ref[b])) < 0
	})
	for k := range ref {
		if int(order[k]) != ref[k] {
			t.Fatalf("level %d: scan order position %d holds entry %d, want %d", h, k, order[k], ref[k])
		}
	}
	return adjacent
}

// bruteFullValue is the full order-3 mask at the cell p by enumerating
// all 3^d offsets and looking each in-grid one up in counts.
func bruteFullValue(counts map[string]int32, p ctree.Path, d int) int64 {
	total := int64(1)
	for j := 0; j < d; j++ {
		total *= 3
	}
	v := (total - 1) * int64(counts[fmt.Sprint(p)])
	var rec func(j int, q ctree.Path, moved bool)
	rec = func(j int, q ctree.Path, moved bool) {
		if j == d {
			if moved {
				v -= int64(counts[fmt.Sprint(q)])
			}
			return
		}
		rec(j+1, q, moved)
		for _, up := range [2]bool{false, true} {
			if nq, ok := q.Neighbor(j, up); ok {
				rec(j+1, nq, true)
			}
		}
	}
	rec(0, p.Clone(), false)
	return v
}
