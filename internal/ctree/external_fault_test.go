//go:build fault

package ctree

import (
	"errors"
	"os"
	"testing"

	"mrcc/internal/fault"
)

// TestBuildExternalFaultLeavesNoOrphans arms the build's two injection
// points in turn on the out-of-core path — while encoding runs (the
// first run and a later one) and mid-merge — and demands the aborted
// build surface the armed cause as a *fault.Error and leave the spill
// directory empty: no orphan run files, no leftover temp directory.
func TestBuildExternalFaultLeavesNoOrphans(t *testing.T) {
	ds := uniformDataset(t, 4, 30_000, 51)
	boom := errors.New("injected failure")
	for _, tc := range []struct {
		point string
		after int
	}{
		{fault.BuildChunk, 1},
		{fault.BuildChunk, 3},
		{fault.BuildMerge, 1},
		{fault.BuildMerge, 2},
	} {
		t.Run(tc.point, func(t *testing.T) {
			t.Cleanup(fault.Reset)
			dir := t.TempDir()
			fault.SetAfter(tc.point, tc.after, func() error { return boom })
			// 3 runs: the merge is multi-way when it aborts.
			_, err := spilled(ds, 4, dir, 10_000, BuildOptions{})
			if !errors.Is(err, boom) {
				t.Fatalf("got %v, want the injected cause", err)
			}
			var fe *fault.Error
			if !errors.As(err, &fe) || fe.Point != tc.point {
				t.Fatalf("error %v is not a *fault.Error for %s", err, tc.point)
			}
			if hits := fault.Hits(tc.point); hits < tc.after {
				t.Fatalf("point %s polled %d times, want >= %d", tc.point, hits, tc.after)
			}
			entries, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			if len(entries) != 0 {
				names := make([]string, 0, len(entries))
				for _, e := range entries {
					names = append(names, e.Name())
				}
				t.Fatalf("aborted build left orphans in the spill dir: %v", names)
			}
		})
	}
}

// TestBuildExternalUnfiredFault pins the harness no-op property for
// the out-of-core path: an armed-but-unfired trigger (count beyond the
// build's checkpoints) changes nothing about the output.
func TestBuildExternalUnfiredFault(t *testing.T) {
	t.Cleanup(fault.Reset)
	ds := uniformDataset(t, 4, 9_000, 52)
	want, err := BuildParallelOpts(ds, 4, BuildOptions{SpillDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	fault.SetAfter(fault.BuildChunk, 1_000_000, func() error { return errors.New("never") })
	fault.SetAfter(fault.BuildMerge, 1_000_000, func() error { return errors.New("never") })
	got, err := BuildParallelOpts(ds, 4, BuildOptions{SpillDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if !treesEqual(t, want, got) {
		t.Fatal("armed-but-unfired fault changed the external build")
	}
}
