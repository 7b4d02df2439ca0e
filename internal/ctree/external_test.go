package ctree

import (
	"context"
	"errors"
	"os"
	"testing"

	"mrcc/internal/dataset"
)

// externalRunCount derives how many spill runs a dataset of n points
// produces at the given run size.
func externalRunCount(n, runPoints int) int {
	return (n + runPoints - 1) / runPoints
}

// spilled is the out-of-core build with the run size forced to
// runPoints (0 derives it from opt.MemoryLimitBytes).
func spilled(ds *dataset.Dataset, H int, dir string, runPoints int, opt BuildOptions) (*Tree, error) {
	opt.SpillDir = dir
	opt.runPoints = runPoints
	return BuildParallelOpts(ds, H, opt)
}

// TestBuildExternalEqualsBuildParallel pins the out-of-core
// equivalence: the build from 1, 2 and 7 spilled runs produces a tree
// cell-for-cell identical to the in-memory build, with identical
// MemoryBytes — on both the packed single-word key layout and the
// multi-word layout (d·(H-1) > 64).
func TestBuildExternalEqualsBuildParallel(t *testing.T) {
	shapes := []struct {
		d, H, n int
	}{
		{4, 4, 20_000},  // packed keys
		{15, 6, 20_000}, // 15·5 = 75 > 64: multi-word keys
	}
	for _, s := range shapes {
		ds := uniformDataset(t, s.d, s.n, int64(s.d))
		want, err := BuildParallelOpts(ds, s.H, BuildOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for _, runs := range []int{1, 2, 7} {
			runPoints := (s.n + runs - 1) / runs
			if got := externalRunCount(s.n, runPoints); got != runs {
				t.Fatalf("test setup: runPoints %d gives %d runs, want %d", runPoints, got, runs)
			}
			got, err := spilled(ds, s.H, t.TempDir(), runPoints, BuildOptions{})
			if err != nil {
				t.Fatalf("d=%d runs=%d: %v", s.d, runs, err)
			}
			if !treesEqual(t, want, got) {
				t.Fatalf("d=%d: external build with %d runs diverged from the in-memory build", s.d, runs)
			}
			if !Equal(want, got) {
				t.Fatalf("d=%d runs=%d: ctree.Equal disagrees with treesEqual", s.d, runs)
			}
			if wm, gm := want.MemoryBytes(), got.MemoryBytes(); wm != gm {
				t.Fatalf("d=%d runs=%d: MemoryBytes diverged: in-memory %d, external %d", s.d, runs, wm, gm)
			}
			if sr, sb := got.SpillStats(); sr != int64(runs) || sb <= 0 {
				t.Fatalf("d=%d: SpillStats = (%d, %d), want (%d, >0)", s.d, sr, sb, runs)
			}
			if sr, sb := want.SpillStats(); sr != 0 || sb != 0 {
				t.Fatalf("in-memory build reports spill stats (%d, %d)", sr, sb)
			}
		}
	}
}

// TestBuildExternalDuplicateHeavy forces long equal-path groups that
// span run boundaries and the group-flush window.
func TestBuildExternalDuplicateHeavy(t *testing.T) {
	base := uniformDataset(t, 3, 5, 99)
	ds := dataset.New(3, 30_000)
	for i := 0; i < 30_000; i++ {
		ds.Append(base.Points[i%len(base.Points)])
	}
	want, err := Build(ds, 4)
	if err != nil {
		t.Fatal(err)
	}
	got, err := spilled(ds, 4, t.TempDir(), 9000, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !treesEqual(t, want, got) {
		t.Fatal("duplicate-heavy external build diverged")
	}
	if wm, gm := want.MemoryBytes(), got.MemoryBytes(); wm != gm {
		t.Fatalf("MemoryBytes diverged: %d vs %d", wm, gm)
	}
}

// TestBuildExternalMemoryBudget pins the MemoryLimitBytes derivation:
// a budget of ~1/10 of the record stream yields multiple runs and the
// build still completes with the exact in-memory tree.
func TestBuildExternalMemoryBudget(t *testing.T) {
	const n = 60_000
	ds := uniformDataset(t, 5, n, 31)
	want, err := BuildParallelOpts(ds, 4, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	streamBytes := uint64(n * ExternalRecordBytes(5, 4))
	got, err := BuildParallelOpts(ds, 4, BuildOptions{
		MemoryLimitBytes: streamBytes / 10,
		SpillDir:         t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if sr, _ := got.SpillStats(); sr < 2 {
		t.Fatalf("budget of 1/10 the stream produced %d runs, want several", sr)
	}
	if !treesEqual(t, want, got) {
		t.Fatal("budgeted external build diverged from the in-memory build")
	}
	if wm, gm := want.MemoryBytes(), got.MemoryBytes(); wm != gm {
		t.Fatalf("MemoryBytes diverged: %d vs %d", wm, gm)
	}
}

// TestBuildExternalCleansSpillDir pins the no-orphan contract on the
// success path: after the build the caller's spill directory is empty
// again.
func TestBuildExternalCleansSpillDir(t *testing.T) {
	dir := t.TempDir()
	ds := uniformDataset(t, 4, 10_000, 17)
	if _, err := spilled(ds, 4, dir, 2500, BuildOptions{}); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("spill dir holds %d orphan entries after a successful build", len(entries))
	}
}

// TestBuildExternalCancel pins cooperative cancellation in both
// stages: a pre-cancelled context aborts while encoding the first run,
// a context cancelled from the progress callback aborts mid-merge;
// both leave the spill directory empty.
func TestBuildExternalCancel(t *testing.T) {
	dir := t.TempDir()
	ds := uniformDataset(t, 4, 30_000, 23)

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := BuildParallelOpts(ds, 4, BuildOptions{Ctx: cancelled, SpillDir: dir})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled context: got %v, want context.Canceled", err)
	}

	ctx, cancelMid := context.WithCancel(context.Background())
	_, err = BuildParallelOpts(ds, 4, BuildOptions{
		Ctx: ctx,
		// Progress only fires from the merge loop: cancelling here
		// aborts mid-merge.
		Progress: func(done, total int) { cancelMid() },
		SpillDir: dir,
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-merge cancel: got %v, want context.Canceled", err)
	}

	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("spill dir holds %d orphan entries after cancelled builds", len(entries))
	}
}

// TestBuildExternalValidation mirrors the in-memory build's input
// validation.
func TestBuildExternalValidation(t *testing.T) {
	dir := t.TempDir()
	opt := BuildOptions{SpillDir: dir}
	if _, err := BuildParallelOpts(nil, 4, opt); err == nil {
		t.Error("nil dataset accepted")
	}
	if _, err := BuildParallelOpts(dataset.New(3, 0), 4, opt); err == nil {
		t.Error("empty dataset accepted")
	}
	ds := uniformDataset(t, 3, 10, 1)
	if _, err := BuildParallelOpts(ds, 2, opt); err == nil {
		t.Error("H below MinLevels accepted")
	}
	bad := dataset.New(2, 1)
	bad.Append([]float64{0.5, 1.5})
	if _, err := BuildParallelOpts(bad, 4, opt); err == nil {
		t.Error("out-of-cube point accepted")
	}
	if _, err := BuildParallelOpts(ds, 4, BuildOptions{SpillDir: "/nonexistent/dir/for/mrcc"}); err == nil {
		t.Error("unwritable spill parent accepted")
	}
}

// TestBuildExternalProgress pins that Progress reaches (n, n) exactly
// once the merge completes.
func TestBuildExternalProgress(t *testing.T) {
	const n = 20_000
	ds := uniformDataset(t, 3, n, 41)
	last, calls := 0, 0
	_, err := spilled(ds, 4, t.TempDir(), 6000, BuildOptions{Progress: func(done, total int) {
		if total != n {
			t.Fatalf("progress total %d, want %d", total, n)
		}
		if done < last {
			t.Fatalf("progress went backwards: %d after %d", done, last)
		}
		last = done
		calls++
	}})
	if err != nil {
		t.Fatal(err)
	}
	if last != n || calls == 0 {
		t.Fatalf("progress ended at %d/%d after %d calls, want %d", last, n, calls, n)
	}
}
