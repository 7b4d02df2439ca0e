package ctree_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"mrcc/internal/ctree"
	"mrcc/internal/dataset"
	"mrcc/internal/treeio"
)

// TestEveryBuildPathSameLayout is the one-engine property: every way
// of building a tree from one dataset — Build, several worker counts,
// 1, 2 and 7 spilled runs, one InsertBatch into an empty tree — yields
// the same arena row for row, a byte-identical snapshot and the same
// MemoryBytes; batches inserted piecemeal and the per-point oracle
// yield an Equal tree. d = 22 and 30 at H = 4 take the multi-word key
// layout.
func TestEveryBuildPathSameLayout(t *testing.T) {
	type shape struct {
		name string
		ds   *dataset.Dataset
		H    int
	}
	var shapes []shape
	for _, d := range []int{1, 2, 6, 15, 22, 30} {
		for _, H := range []int{3, 4, 6} {
			shapes = append(shapes, shape{fmt.Sprintf("d=%d/H=%d", d, H), randomDataset(d, 1500, int64(d*10+H), 0), H})
		}
	}
	// Few distinct points, spread over several poll intervals.
	shapes = append(shapes, shape{"duplicates/d=5/H=5", randomDataset(5, 20000, 7, 40), 5})
	for _, s := range shapes {
		t.Run(s.name, func(t *testing.T) {
			want, err := ctree.Build(s.ds, s.H)
			if err != nil {
				t.Fatal(err)
			}
			wantSnap := snapshot(t, want)
			same := func(path string, got *ctree.Tree) {
				t.Helper()
				if !sameColumns(want.Columns(), got.Columns()) {
					t.Fatalf("%s: arena columns differ from Build", path)
				}
				if !bytes.Equal(wantSnap, snapshot(t, got)) {
					t.Fatalf("%s: snapshot bytes differ from Build", path)
				}
				if want.MemoryBytes() != got.MemoryBytes() {
					t.Fatalf("%s: MemoryBytes %d, Build %d", path, got.MemoryBytes(), want.MemoryBytes())
				}
			}
			if canon, err := ctree.Canonicalize(want); err != nil || canon != want {
				t.Fatalf("Build is not in canonical arena order (err=%v)", err)
			}
			for _, w := range []int{2, 3, 8} {
				got, err := ctree.BuildParallelOpts(s.ds, s.H, ctree.BuildOptions{Workers: w})
				if err != nil {
					t.Fatal(err)
				}
				same(fmt.Sprintf("workers=%d", w), got)
			}
			n := s.ds.Len()
			for _, runs := range []int{1, 2, 7} {
				opt := ctree.WithRunPoints(ctree.BuildOptions{SpillDir: t.TempDir()}, (n+runs-1)/runs)
				got, err := ctree.BuildParallelOpts(s.ds, s.H, opt)
				if err != nil {
					t.Fatal(err)
				}
				if r, _ := got.SpillStats(); r != int64(runs) {
					t.Fatalf("spilled %d runs, want %d", r, runs)
				}
				same(fmt.Sprintf("spill runs=%d", runs), got)
			}
			one := ctree.New(s.ds.Dims, s.H)
			if err := one.InsertBatch(s.ds.Points); err != nil {
				t.Fatal(err)
			}
			same("one InsertBatch", one)

			batched := ctree.New(s.ds.Dims, s.H)
			for lo := 0; lo < n; lo += 333 {
				if err := batched.InsertBatch(s.ds.Points[lo:min(lo+333, n)]); err != nil {
					t.Fatal(err)
				}
			}
			if !ctree.Equal(want, batched) {
				t.Fatal("piecemeal InsertBatch is not Equal to Build")
			}
			oracle, err := ctree.PerPointTree(s.ds.Dims, s.H, s.ds.Points)
			if err != nil {
				t.Fatal(err)
			}
			if !ctree.Equal(want, oracle) {
				t.Fatal("per-point oracle is not Equal to Build")
			}
		})
	}
}

// randomDataset returns n uniform points in [0,1)^d; with distinct > 0
// the points cycle through that many random prototypes.
func randomDataset(d, n int, seed int64, distinct int) *dataset.Dataset {
	rng := rand.New(rand.NewSource(seed))
	point := func() []float64 {
		p := make([]float64, d)
		for j := range p {
			p[j] = rng.Float64()
		}
		return p
	}
	ds := dataset.New(d, n)
	var protos [][]float64
	for i := 0; i < distinct; i++ {
		protos = append(protos, point())
	}
	for i := 0; i < n; i++ {
		if distinct > 0 {
			ds.Append(protos[rng.Intn(distinct)])
		} else {
			ds.Append(point())
		}
	}
	return ds
}

func snapshot(t *testing.T, tr *ctree.Tree) []byte {
	t.Helper()
	var b bytes.Buffer
	if _, err := treeio.Save(&b, tr); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

func sameColumns(a, b ctree.Columns) bool {
	return slices.Equal(a.Loc, b.Loc) && slices.Equal(a.N, b.N) && slices.Equal(a.Used, b.Used) &&
		slices.Equal(a.Level, b.Level) && slices.Equal(a.Parent, b.Parent) && slices.Equal(a.P, b.P)
}
