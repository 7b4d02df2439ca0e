// The Counting-tree build engine (Algorithm 1, DESIGN.md §12): every
// build — serial, parallel, out-of-core, and InsertBatch into a live
// tree — runs the same three stages.
//
//  1. Encode. A slice of points is validated, quantized to the level-H
//     grid, keyed by its root-to-leaf path (codec.go) and sorted into
//     a run: (key, level-H parity) columns in (key, arrival) order. It
//     touches no tree, so shards encode concurrently, and an invalid
//     point fails the build before any counter moves.
//  2. Merge. One k-way merge over run cursors orders the records by
//     (key, run index). Runs are consecutive slices of the input, so
//     that order is the (key, arrival) order of the whole input,
//     whatever the shard split: every build of one dataset creates the
//     same cells in the same (canonical) arena order. A cursor reads an
//     in-memory run or a spilled run file (spill.go).
//  3. Count. Records sharing one key form a group counted by one
//     descent, resumed at the level where the group's path diverges
//     from the previous group's: N at every level and the half-space
//     counters of levels 1..H-2 move by the group size at once; only
//     the deepest level's half-space update, which depends on each
//     point's level-H parity, stays per point (popcountLower).
//
// Robustness (DESIGN.md §8): one buildControl is polled every
// buildReportEvery points while encoding (fault point BuildChunk) and
// while counting (BuildMerge, plus the memory cap against the tree's
// monotone footprint), so cancellation is observed within one chunk of
// work. Encoding goroutines recover their own panics, so a poisoned
// shard becomes an error instead of crashing the host.
package ctree

import (
	"context"
	"fmt"
	"math/bits"
	"os"
	"runtime"
	"sync"
	"sync/atomic"

	"mrcc/internal/dataset"
	"mrcc/internal/fault"
	"mrcc/internal/panics"
)

// buildReportEvery is the poll interval of a build, in points: the
// encoders and the counting loop poll the build control (and report
// progress) once per this many points.
const buildReportEvery = 8192

// minShardPoints bounds the encoding shard count to one shard per
// minShardPoints points (rounded up), so a goroutine's start-up and
// its run's allocations stay small next to its work, and however large
// Workers is, a build starts at most n/minShardPoints+1 goroutines.
const minShardPoints = 256

// ProgressFunc reports build progress: done of total points have been
// counted into the tree. Only the build's counting loop invokes it, so
// calls never overlap.
type ProgressFunc func(done, total int)

// LimitError reports that a build (or the index construction that
// follows it) exceeded the caller's memory budget. The core layer
// converts it into the facade's *ResourceError, after optionally
// degrading to a smaller H.
type LimitError struct {
	// LimitBytes is the configured budget.
	LimitBytes uint64
	// EstimateBytes is the footprint estimate that tripped the limit
	// (ApproxMemoryBytes during the build, MemoryBytes afterwards).
	EstimateBytes uint64
	// H is the resolution count of the refused build.
	H int
}

func (e *LimitError) Error() string {
	return fmt.Sprintf("ctree: counting-tree at H=%d needs ~%d bytes, over the %d-byte memory limit",
		e.H, e.EstimateBytes, e.LimitBytes)
}

// BuildOptions configures a Counting-tree build.
type BuildOptions struct {
	// Workers is the number of goroutines encoding shards of the
	// dataset; <= 0 selects GOMAXPROCS, 1 encodes serially. Small inputs
	// use fewer (one per minShardPoints points). The tree does not
	// depend on it.
	Workers int
	// Progress receives cumulative counted-point totals (see
	// ProgressFunc); nil adds no overhead.
	Progress ProgressFunc
	// Ctx cancels the build cooperatively: it is polled every
	// buildReportEvery points while encoding and while counting. nil
	// means no cancellation.
	Ctx context.Context
	// MemoryLimitBytes caps the tree's estimated footprint during
	// construction (ApproxMemoryBytes, polled while counting); 0 means
	// unlimited. The authoritative post-build MemoryBytes check is the
	// caller's job, since only the caller knows whether level indexes
	// will be materialized on top. With SpillDir set it bounds the
	// in-memory run buffer instead (see ExternalRecordBytes) and the
	// tree is not capped.
	MemoryLimitBytes uint64
	// SpillDir, when non-empty, builds out of core: the input is
	// encoded one run at a time, each sorted run is written to a file,
	// and the counting merge reads the files back. Run files live in a
	// private directory created under SpillDir (which must exist and be
	// writable) and removed on every exit path. Workers is ignored.
	SpillDir string

	// runPoints overrides the spilled run size derived from
	// MemoryLimitBytes; in-package tests use it to force run counts.
	runPoints int
}

// buildControl is the shared abort channel of one build: the first
// failure wins, every later poll observes it through one atomic load,
// and the coordinator reports it after all encoders drained. A nil
// control polls nothing (InsertBatch).
type buildControl struct {
	ctx     context.Context
	limit   uint64
	stopped atomic.Bool
	mu      sync.Mutex
	err     error
}

// fail records the first error, raises the stop flag and returns the
// recorded (winning) error.
func (bc *buildControl) fail(err error) error {
	bc.mu.Lock()
	if bc.err == nil {
		bc.err = err
	}
	err = bc.err
	bc.mu.Unlock()
	bc.stopped.Store(true)
	return err
}

// firstErr returns the recorded failure, or nil.
func (bc *buildControl) firstErr() error {
	bc.mu.Lock()
	defer bc.mu.Unlock()
	return bc.err
}

// poll is the build's one checkpoint. It observes, in order: a failure
// already recorded, the armed fault-injection point, context
// cancellation, and — when t is the tree being counted into — the
// memory cap against the tree's monotone footprint estimate.
func (bc *buildControl) poll(point string, t *Tree) error {
	if bc == nil {
		return nil
	}
	if bc.stopped.Load() {
		return bc.firstErr()
	}
	if err := fault.Inject(point); err != nil {
		return bc.fail(err)
	}
	if bc.ctx != nil {
		if err := bc.ctx.Err(); err != nil {
			return bc.fail(err)
		}
	}
	if t != nil && bc.limit > 0 {
		if est := t.ApproxMemoryBytes(); est > bc.limit {
			return bc.fail(&LimitError{LimitBytes: bc.limit, EstimateBytes: est, H: t.H})
		}
	}
	return nil
}

// checkBuild is the one validation point of every dataset build.
func checkBuild(ds *dataset.Dataset, H int) error {
	if ds == nil || ds.Len() == 0 {
		return fmt.Errorf("ctree: empty dataset")
	}
	if ds.Dims > MaxDims {
		return fmt.Errorf("ctree: dimensionality %d exceeds the maximum %d", ds.Dims, MaxDims)
	}
	if H < MinLevels {
		return fmt.Errorf("ctree: H must be >= %d, got %d", MinLevels, H)
	}
	if H > MaxLevels {
		return fmt.Errorf("ctree: H must be <= %d, got %d", MaxLevels, H)
	}
	if ds.Len() > MaxPoints {
		return fmt.Errorf("ctree: %d points exceed the per-tree maximum %d (MaxPoints)", ds.Len(), MaxPoints)
	}
	return nil
}

// BuildParallelOpts builds the Counting-tree for a dataset normalized
// to [0,1)^d with H resolutions: one scan over the data, O(η·H·d) time.
// Every option combination produces the same tree, cell for cell and
// byte for byte (the three stages of this file).
func BuildParallelOpts(ds *dataset.Dataset, H int, opt BuildOptions) (*Tree, error) {
	if err := checkBuild(ds, H); err != nil {
		return nil, err
	}
	c := newKeyCodec(ds.Dims, H)
	t := New(ds.Dims, H)
	bc := &buildControl{ctx: opt.Ctx, limit: opt.MemoryLimitBytes}
	var (
		curs []*cursor
		err  error
	)
	if opt.SpillDir != "" {
		bc.limit = 0 // the budget sized the runs; the tree is not capped
		dir, derr := os.MkdirTemp(opt.SpillDir, "mrcc-spill-*")
		if derr != nil {
			return nil, fmt.Errorf("ctree: creating spill directory: %w", derr)
		}
		// Every exit path — success included — removes the private
		// spill directory: run files only matter until the merge ends.
		defer os.RemoveAll(dir)
		curs, err = spillRuns(ds, c, t, dir, opt.spillRunPoints(c, ds.Len()), bc)
		defer closeCursors(curs)
	} else {
		curs, err = encodeShards(ds, c, t, opt.Workers, bc)
	}
	if err != nil {
		return nil, err
	}
	var report func(done int)
	if opt.Progress != nil {
		total := ds.Len()
		report = func(done int) { opt.Progress(done, total) }
	}
	if err := countMerged(t, c, curs, bc, report); err != nil {
		return nil, err
	}
	return t, nil
}

// encodeShards encodes the dataset as up to workers runs of
// consecutive points (at most one per minShardPoints points), one
// goroutine per run, and returns their cursors in input order.
func encodeShards(ds *dataset.Dataset, c *keyCodec, t *Tree, workers int, bc *buildControl) ([]*cursor, error) {
	n := ds.Len()
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	shards := min(workers, (n+minShardPoints-1)/minShardPoints)
	curs := make([]*cursor, shards)
	var wg sync.WaitGroup
	for s := 0; s < shards; s++ {
		// Balanced bounds: with shards <= n no shard is empty.
		lo, hi := s*n/shards, (s+1)*n/shards
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Contain panics inside the goroutine: the WaitGroup always
			// drains and the poisoned shard becomes the build's error.
			defer func() {
				if r := recover(); r != nil {
					bc.fail(panics.New(r))
				}
			}()
			cu, err := encodeRun(c, ds.Points[lo:hi], lo, bc)
			if err != nil {
				bc.fail(err)
				return
			}
			curs[s] = cu
		}()
	}
	wg.Wait()
	// The first recorded failure wins; peers that stopped on the flag
	// only echo it.
	if err := bc.firstErr(); err != nil {
		return nil, err
	}
	return curs, nil
}

// encodeRun is stage 1: it validates, quantizes, keys and sorts points
// into one in-memory run. base is the index of points[0] in the slice
// errors are reported against ("point %d"). It polls bc (BuildChunk)
// every buildReportEvery points.
func encodeRun(c *keyCodec, points [][]float64, base int, bc *buildControl) (*cursor, error) {
	m, w := len(points), c.words
	keys := make([]uint64, m*w)
	leaf := make([]uint64, m)
	qi := make([]uint64, c.d)
	for i, p := range points {
		if i%buildReportEvery == 0 {
			if err := bc.poll(fault.BuildChunk, nil); err != nil {
				return nil, err
			}
		}
		lf, ok := c.encode(p, qi, keys[i*w:(i+1)*w])
		if !ok {
			return nil, c.pointError(p, base+i)
		}
		leaf[i] = lf
	}
	keys, leaf = c.sortRun(keys, leaf)
	return &cursor{keys: keys, leaf: leaf, words: w}, nil
}

// cursor reads one sorted run for the merge: a block of records in
// memory — the whole run for an in-memory run, refilled from the run
// file for a spilled one.
type cursor struct {
	keys, leaf []uint64 // current block: record i is keys[i*words:(i+1)*words], leaf[i]
	words      int
	pos        int
	file       *runFile // nil for in-memory runs
}

// key returns the current record's key words.
func (cu *cursor) key() []uint64 { return cu.keys[cu.pos*cu.words : (cu.pos+1)*cu.words] }

// next advances to the run's next record; false when the run is done.
func (cu *cursor) next() (bool, error) {
	cu.pos++
	if cu.pos < len(cu.leaf) {
		return true, nil
	}
	if cu.file == nil {
		return false, nil
	}
	return cu.file.fill(cu)
}

// countMerged is stages 2 and 3: it merges the runs in (key, run
// index) order and counts the merged stream into t, polling bc
// (BuildMerge and the memory cap) and reporting progress every
// buildReportEvery points and once at the end.
func countMerged(t *Tree, c *keyCodec, curs []*cursor, bc *buildControl, report func(done int)) error {
	t.invalidateIndexes()
	if c.words == 1 {
		t.radixChunks += int64(len(curs)) // codec.sortRun radix-sorts packed runs
	}
	// heap holds the indexes of the live cursors, ordered by (current
	// key, cursor index) — the run index is the arrival tie-break.
	heap := make([]int, 0, len(curs))
	for i, cu := range curs {
		if len(cu.leaf) > 0 {
			heap = append(heap, i)
		}
	}
	less := func(a, b int) bool {
		if x := c.compare(curs[a].key(), curs[b].key()); x != 0 {
			return x < 0
		}
		return a < b
	}
	down := func(i int) {
		for {
			m := 2*i + 1
			if m >= len(heap) {
				return
			}
			if r := m + 1; r < len(heap) && less(heap[r], heap[m]) {
				m = r
			}
			if !less(heap[m], heap[i]) {
				return
			}
			heap[i], heap[m] = heap[m], heap[i]
			i = m
		}
	}
	for i := len(heap)/2 - 1; i >= 0; i-- {
		down(i)
	}
	g := newGroupCounter(t, c)
	done := 0
	for len(heap) > 0 {
		cu := curs[heap[0]]
		g.add(cu.key(), cu.leaf[cu.pos])
		more, err := cu.next()
		if err != nil {
			return fmt.Errorf("ctree: spill run %d: %w", heap[0], err)
		}
		if !more {
			heap[0] = heap[len(heap)-1]
			heap = heap[:len(heap)-1]
		}
		down(0)
		if done++; done%buildReportEvery == 0 {
			if err := bc.poll(fault.BuildMerge, t); err != nil {
				return err
			}
			if report != nil {
				report(done)
			}
		}
	}
	g.close()
	t.Eta += done
	if err := bc.poll(fault.BuildMerge, t); err != nil {
		return err
	}
	if report != nil && done%buildReportEvery != 0 {
		report(done)
	}
	return nil
}

// groupCounter is stage 3: it groups the merged record stream into
// runs of equal keys and counts each group with one descent, resumed
// at the level where its path diverges from the previous group's
// (sorted order makes that carry-over exact).
type groupCounter struct {
	t    *Tree
	c    *keyCodec
	refs []Ref    // refs[h] is the group's level-h cell; refs[0] the root sentinel
	cur  []uint64 // the group's key
	deep []int32  // the half-space row of the group's deepest cell
	n    int32    // points in the group so far; 0 before the first record
}

func newGroupCounter(t *Tree, c *keyCodec) *groupCounter {
	g := &groupCounter{t: t, c: c, refs: make([]Ref, t.H), cur: make([]uint64, c.words)}
	g.refs[0] = rootRef
	return g
}

// add counts one record into the current group, or closes the group
// and opens the next when the key changes.
func (g *groupCounter) add(key []uint64, leaf uint64) {
	t, H := g.t, g.t.H
	div := 1
	if g.n > 0 {
		div = g.c.diverge(g.cur, key)
	}
	if div < H {
		g.close()
		for h := div; h <= H-1; h++ {
			g.refs[h], _ = t.ensureChild(g.refs[h-1], g.c.loc(key, h))
		}
		copy(g.cur, key)
		g.deep = t.PRow(g.refs[H-1])
	}
	popcountLower(g.deep, leaf, t.dmask)
	g.n++
}

// close adds the finished group to N at every level and to the
// half-space counters of levels 1..H-2, whose update depends only on
// the group's shared next-level loc.
func (g *groupCounter) close() {
	if g.n == 0 {
		return
	}
	t, H := g.t, g.t.H
	for h := 1; h <= H-1; h++ {
		t.n[g.refs[h]] += g.n
	}
	for h := 1; h <= H-2; h++ {
		row := t.PRow(g.refs[h])
		for ms := ^g.c.loc(g.cur, h+1) & t.dmask; ms != 0; ms &= ms - 1 {
			row[bits.TrailingZeros64(ms)] += g.n
		}
	}
	t.runs++
	t.runPoints += int64(g.n)
	g.n = 0
}
