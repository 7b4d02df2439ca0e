package ctree

import (
	"context"
	"runtime"
	"sync/atomic"
	"testing"

	"mrcc/internal/dataset"
)

// TestBuildValidationOnePoint pins the engine's single validation
// point: every worker count, spilled or not, refuses an out-of-range H
// or dimensionality with exactly the error text Build gives.
func TestBuildValidationOnePoint(t *testing.T) {
	wide := uniformDataset(t, 3, 20, 1)
	wide.Dims = MaxDims + 1
	for i := range wide.Points {
		wide.Points[i] = make([]float64, MaxDims+1)
	}
	cases := []struct {
		name string
		ds   *dataset.Dataset
		H    int
	}{
		{"H=1", uniformDataset(t, 3, 20, 2), 1},
		{"H=2", uniformDataset(t, 3, 20, 2), 2},
		{"H=61", uniformDataset(t, 3, 20, 2), 61},
		{"H=70", uniformDataset(t, 3, 20, 2), 70},
		{"d=64", wide, 4},
	}
	for _, tc := range cases {
		_, want := Build(tc.ds, tc.H)
		if want == nil {
			t.Fatalf("%s: Build accepted the input", tc.name)
		}
		for _, workers := range []int{1, 2, 8} {
			for _, spill := range []bool{false, true} {
				opt := BuildOptions{Workers: workers}
				if spill {
					opt.SpillDir = t.TempDir()
				}
				_, err := BuildParallelOpts(tc.ds, tc.H, opt)
				if err == nil || err.Error() != want.Error() {
					t.Errorf("%s workers=%d spill=%v: got %v, want %q", tc.name, workers, spill, err, want)
				}
			}
		}
	}
}

// goroutineProbe is a context that records the largest goroutine count
// seen while the build polls it.
type goroutineProbe struct {
	context.Context
	max atomic.Int64
}

func (p *goroutineProbe) Err() error {
	n := int64(runtime.NumGoroutine())
	for {
		cur := p.max.Load()
		if n <= cur || p.max.CompareAndSwap(cur, n) {
			return nil
		}
	}
}

// TestBuildHugeWorkerCount pins that the shard count derives from the
// input: an absurd Workers value on 100 points builds the same tree as
// Build without allocating per requested worker or starting more
// goroutines than there are points.
func TestBuildHugeWorkerCount(t *testing.T) {
	ds := uniformDataset(t, 4, 100, 3)
	want, err := Build(ds, 4)
	if err != nil {
		t.Fatal(err)
	}
	base := runtime.NumGoroutine()
	probe := &goroutineProbe{Context: context.Background()}
	got, err := BuildParallelOpts(ds, 4, BuildOptions{Workers: 1 << 61, Ctx: probe})
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(want, got) || want.MemoryBytes() != got.MemoryBytes() {
		t.Fatal("huge worker count changed the tree")
	}
	if extra := probe.max.Load() - int64(base); extra > int64(ds.Len()) {
		t.Fatalf("build ran %d goroutines beyond the baseline, want <= %d", extra, ds.Len())
	}
}
