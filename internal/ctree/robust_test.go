package ctree

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"mrcc/internal/dataset"
)

// randDataset returns n uniform points in [0,1)^d, deterministic per
// seed.
func randDataset(t *testing.T, n, d int, seed int64) *dataset.Dataset {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	ds := dataset.New(d, n)
	for i := 0; i < n; i++ {
		p := make([]float64, d)
		for j := range p {
			p[j] = rng.Float64()
		}
		ds.Append(p)
	}
	return ds
}

// TestBuildParallelOptsMatchesBuild proves the robust entry point with
// zero options produces the same tree as the plain build, for several
// worker counts.
func TestBuildParallelOptsMatchesBuild(t *testing.T) {
	ds := randDataset(t, 5000, 6, 1)
	want, err := Build(ds, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 8} {
		got, err := BuildParallelOpts(ds, 4, BuildOptions{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if got.Eta != want.Eta || got.CellCount() != want.CellCount() {
			t.Fatalf("workers=%d: tree (η=%d, cells=%d) != serial (η=%d, cells=%d)",
				workers, got.Eta, got.CellCount(), want.Eta, want.CellCount())
		}
		if got.MemoryBytes() != want.MemoryBytes() {
			t.Fatalf("workers=%d: MemoryBytes %d != %d", workers, got.MemoryBytes(), want.MemoryBytes())
		}
	}
}

// TestBuildCancelled proves a cancelled context aborts the build on
// every worker count and surfaces context.Canceled.
func TestBuildCancelled(t *testing.T) {
	ds := randDataset(t, 20000, 8, 2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already cancelled: the first checkpoint must observe it
	for _, workers := range []int{1, 2, 8} {
		_, err := BuildParallelOpts(ds, 4, BuildOptions{Workers: workers, Ctx: ctx})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: want context.Canceled, got %v", workers, err)
		}
	}
}

// TestBuildMemoryLimit proves a tiny budget is refused with a
// *LimitError on every worker count, and that a generous budget builds
// the identical tree.
func TestBuildMemoryLimit(t *testing.T) {
	ds := randDataset(t, 20000, 8, 3)
	for _, workers := range []int{1, 2, 8} {
		_, err := BuildParallelOpts(ds, 4, BuildOptions{Workers: workers, MemoryLimitBytes: 1024})
		var le *LimitError
		if !errors.As(err, &le) {
			t.Fatalf("workers=%d: want *LimitError, got %v", workers, err)
		}
		if le.LimitBytes != 1024 || le.EstimateBytes <= 1024 || le.H != 4 {
			t.Fatalf("workers=%d: malformed LimitError %+v", workers, le)
		}
	}
	want, err := Build(ds, 4)
	if err != nil {
		t.Fatal(err)
	}
	got, err := BuildParallelOpts(ds, 4, BuildOptions{Workers: 4, MemoryLimitBytes: 1 << 40})
	if err != nil {
		t.Fatalf("generous limit refused: %v", err)
	}
	if got.CellCount() != want.CellCount() || got.Eta != want.Eta {
		t.Fatalf("limited build differs: (η=%d, cells=%d) != (η=%d, cells=%d)",
			got.Eta, got.CellCount(), want.Eta, want.CellCount())
	}
}

// TestCellCountMatchesLevels proves the incrementally maintained cell
// counter agrees with a full level walk, including after merges and
// inserts.
func TestCellCountMatchesLevels(t *testing.T) {
	ds := randDataset(t, 3000, 5, 4)
	tr, err := BuildParallelOpts(ds, 4, BuildOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	counts := tr.LevelCellCounts()
	var total int64
	for _, n := range counts {
		total += int64(n)
	}
	if tr.CellCount() != total {
		t.Fatalf("CellCount %d != level-walk total %d", tr.CellCount(), total)
	}
	if err := tr.Insert([]float64{0.123, 0.456, 0.789, 0.321, 0.654}); err != nil {
		t.Fatal(err)
	}
	counts = tr.LevelCellCounts()
	total = 0
	for _, n := range counts {
		total += int64(n)
	}
	if tr.CellCount() != total {
		t.Fatalf("after Insert: CellCount %d != level-walk total %d", tr.CellCount(), total)
	}
	if tr.ApproxMemoryBytes() == 0 {
		t.Fatal("ApproxMemoryBytes is zero on a populated tree")
	}
}

// TestApproxMemoryBytesTracksExact sanity-checks the O(1) estimate
// against the exact walk: same order of magnitude, never zero.
func TestApproxMemoryBytesTracksExact(t *testing.T) {
	ds := randDataset(t, 8000, 10, 5)
	tr, err := Build(ds, 4)
	if err != nil {
		t.Fatal(err)
	}
	approx, exact := tr.ApproxMemoryBytes(), tr.MemoryBytes()
	if approx == 0 || exact == 0 {
		t.Fatalf("zero estimate: approx=%d exact=%d", approx, exact)
	}
	ratio := float64(approx) / float64(exact)
	if ratio < 0.3 || ratio > 3 {
		t.Fatalf("ApproxMemoryBytes %d is not within 3x of MemoryBytes %d (ratio %.2f)",
			approx, exact, ratio)
	}
}
