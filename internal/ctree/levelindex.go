// Level indexes: flat, immutable snapshots of the Counting-tree's
// levels for the β-search. Each level keeps three slabs — the arena
// Ref, the point count and one packed coordinate key per stored cell —
// with the entries sorted by key. Axis j owns its own (H-1)-bit field of the
// key, holding the cell's grid coordinate along j, so:
//
//   - grid coordinates and bounds are a shift and a mask away;
//   - a cell is found by binary search on the sorted keys;
//   - the face neighbours along axis j of a run of cells that share
//     fields 0..j are the next run, so the face mask is a sequential
//     run-merge sweep per axis (FaceAdjacencies) with no hashing.
//
// One linear pass over the arena builds every level's keys at once
// (parents precede children in the arena, so a child's key is its
// parent's key shifted up one bit per field plus its own position
// bits), followed by one LSD radix sort per level. The snapshots copy
// the cell counts, so they stay valid only while the tree is not
// mutated — every insert path and MergeFrom invalidates them. Mutating
// the tree concurrently with index access is not supported (the
// pipeline never does: indexes are built before the scan workers fan
// out, and scan workers only read).
package ctree

import (
	"cmp"
	"math"
	"math/bits"
	"slices"
	"sort"
	"unsafe"
)

// keyLayout places the d coordinate fields of a level key. Each field
// is W = H-1 bits wide (enough for the deepest stored level) and never
// straddles a word; a word holds 64/W fields from the top down, and
// keys wider than one word — d·(H-1) > 64 — take as many words as the
// fields need, most significant word first. The lower axis always sits
// higher, so the key order is the lexicographic order of
// (c_0, c_1, ..., c_{d-1}).
type keyLayout struct {
	words int    // uint64 words per key
	word  []int  // word[j]: the key word holding axis j's field
	shift []uint // shift[j]: the field's bit offset within that word
}

func newKeyLayout(d, H int) *keyLayout {
	w := uint(H - 1)
	per := int(64 / w)
	lay := &keyLayout{words: (d + per - 1) / per, word: make([]int, d), shift: make([]uint, d)}
	for j := range lay.word {
		lay.word[j] = j / per
		lay.shift[j] = 64 - w*uint(j%per+1)
	}
	return lay
}

// childKey writes to dst the key of the child at position loc under
// the cell keyed parent (dst may alias parent): every field gains one
// low bit, the child's position along that axis.
func (lay *keyLayout) childKey(dst, parent []uint64, loc uint64) {
	for k := range dst {
		dst[k] = parent[k] << 1
	}
	for m := loc; m != 0; m &= m - 1 {
		j := bits.TrailingZeros64(m)
		dst[lay.word[j]] |= 1 << lay.shift[j]
	}
}

// LevelIndex is the flat snapshot of one tree level: the stored cells'
// arena Refs, counts and packed coordinate keys, sorted by key. Used
// flags and parents are read through the owning tree's arena columns.
type LevelIndex struct {
	// Level is the tree level the index covers (1 <= Level <= H-1).
	Level int

	t   *Tree
	lay *keyLayout
	n   int

	refs   []Ref    // entry i's arena Ref
	counts []int32  // entry i's point count (the arena's N, copied for sequential reads)
	keys   []uint64 // entry i's key at keys[i*words : (i+1)*words]
}

// Len returns the number of stored cells at the level.
func (ix *LevelIndex) Len() int { return ix.n }

// Dims returns the dataset dimensionality.
func (ix *LevelIndex) Dims() int { return ix.t.D }

// Ref returns entry i's arena Ref in the owning tree.
func (ix *LevelIndex) Ref(i int) Ref { return ix.refs[i] }

// Parent returns entry i's parent Ref (NilRef for level-1 entries).
func (ix *LevelIndex) Parent(i int) Ref { return ix.t.ParentOf(ix.refs[i]) }

// N returns entry i's point count.
func (ix *LevelIndex) N(i int) int32 { return ix.counts[i] }

// Used reports entry i's usedCell flag, read through the owning tree's
// arena (so SetUsed during the scan is visible without a rebuild).
func (ix *LevelIndex) Used(i int) bool { return ix.t.used[ix.refs[i]] }

// key returns entry i's key words.
func (ix *LevelIndex) key(i int) []uint64 {
	w := ix.lay.words
	return ix.keys[i*w : (i+1)*w : (i+1)*w]
}

// Coord returns entry i's integer grid coordinate along axis j,
// identical to PathOf(i).Coord(j). At level h a field holds h bits.
func (ix *LevelIndex) Coord(i, j int) uint64 {
	lay := ix.lay
	return (ix.keys[i*lay.words+lay.word[j]] >> lay.shift[j]) & (1<<uint(ix.Level) - 1)
}

// Bounds returns entry i's bounds along axis j, computed exactly as
// Path.Bounds does (float64(coord)·side and (float64(coord)+1)·side,
// both exact in float64), so the two agree bit for bit.
func (ix *LevelIndex) Bounds(i, j int) (lo, hi float64) {
	side := SideLen(ix.Level)
	c := float64(ix.Coord(i, j))
	return c * side, (c + 1) * side
}

// PathOf returns a fresh copy of entry i's root path.
func (ix *LevelIndex) PathOf(i int) Path {
	h := ix.Level
	p := make(Path, h)
	for j := 0; j < ix.t.D; j++ {
		c := ix.Coord(i, j)
		for l := range p {
			p[l] |= ((c >> uint(h-1-l)) & 1) << uint(j)
		}
	}
	return p
}

// ScanOrder returns the entry indices ordered by vals (one value per
// entry) descending, ties broken by root path ascending (Path.Compare)
// — the β-search's total scan order. It is a chain of stable LSD radix
// passes: the packed path, least significant word first, then the
// value. A path word packs the locs of up to 64/d consecutive levels,
// shallowest level highest; the loc of level l holds bit h-l of every
// coordinate, so coordinate bit b of axis j lands at (b-lo)·d + j in
// the word covering bits [lo, lo+64/d).
func (ix *LevelIndex) ScanOrder(vals []int64) []int32 {
	d, h := ix.t.D, ix.Level
	var spread [256]uint64 // spread[x]: bit b of x moved to bit b·d
	for x := range spread {
		for b := 0; b < 8; b++ {
			spread[x] |= uint64(x>>b&1) << uint(b*d)
		}
	}
	ps := newPermSort(ix.n)
	for lo, per := 0, 64/d; lo < h; lo += per {
		mask := uint64(1)<<uint(min(per, h-lo)) - 1
		ps.by(func(e int) uint64 {
			var k uint64
			for j := 0; j < d; j++ {
				c := ix.Coord(e, j) >> uint(lo) & mask
				for sh := uint(j); c != 0; sh, c = sh+uint(8*d), c>>8 {
					k |= spread[c&0xff] << sh
				}
			}
			return k
		})
	}
	// Descending value: key top-v, so the pass only pays for the byte
	// lanes the values' spread occupies.
	top := int64(math.MinInt64)
	for _, v := range vals {
		top = max(top, v)
	}
	ps.by(func(e int) uint64 { return uint64(top - vals[e]) })
	order := make([]int32, ix.n)
	for i, p := range ps.perm {
		order[i] = int32(p)
	}
	return order
}

// permSort carries an entry permutation through a chain of stable LSD
// radix passes (radixSortPairs): each pass re-sorts it by one key
// column, so the last pass decides the primary order and earlier
// passes break its ties.
type permSort struct {
	perm, permTmp, col, colTmp []uint64
}

func newPermSort(n int) *permSort {
	ps := &permSort{
		perm:    make([]uint64, n),
		permTmp: make([]uint64, n),
		col:     make([]uint64, n),
		colTmp:  make([]uint64, n),
	}
	for i := range ps.perm {
		ps.perm[i] = uint64(i)
	}
	return ps
}

// by stably re-sorts the permutation by key(entry), ascending.
func (ps *permSort) by(key func(e int) uint64) {
	if len(ps.perm) < 2 {
		return
	}
	for i, p := range ps.perm {
		ps.col[i] = key(int(p))
	}
	if _, sorted := radixSortPairs(ps.col, ps.perm, ps.colTmp, ps.permTmp); &sorted[0] != &ps.perm[0] {
		ps.perm, ps.permTmp = ps.permTmp, ps.perm
	}
}

// Find returns the entry index of the cell with the given root path,
// or -1 when no such cell is stored (or p does not address this
// index's level). It is a binary search over the sorted keys.
func (ix *LevelIndex) Find(p Path) int {
	if len(p) != ix.Level {
		return -1
	}
	k := make([]uint64, ix.lay.words)
	for _, loc := range p {
		if loc&^ix.t.dmask != 0 {
			return -1
		}
		ix.lay.childKey(k, k, loc)
	}
	i, found := sort.Find(ix.n, func(i int) int { return slices.Compare(k, ix.key(i)) })
	if !found {
		return -1
	}
	return i
}

// FaceAdjacencies calls fn(lower, upper) once for every pair of stored
// entries that are face neighbours along axis j, upper being lower's
// +1 neighbour. It is one sequential sweep over the key order: entries
// sharing fields 0..j form a run, sorted within by fields j+1..d-1;
// the +1 neighbours of a run with coordinate c along j lie in the next
// run exactly when that run shares fields 0..j-1 and has coordinate
// c+1, and a two-pointer merge pairs them up (a pair's keys differ by
// exactly one unit of field j).
func (ix *LevelIndex) FaceAdjacencies(j int, fn func(lower, upper int)) {
	lay := ix.lay
	n, w := ix.n, lay.words
	wj, s := lay.word[j], lay.shift[j]
	unit := uint64(1) << s
	maxC := uint64(1)<<uint(ix.Level) - 1
	keys := ix.keys
	// samePrefix reports whether entry a's key, plus raise in axis j's
	// word, agrees with entry b's key on fields 0..j.
	samePrefix := func(a, b int, raise uint64) bool {
		for k := 0; k < wj; k++ {
			if keys[a*w+k] != keys[b*w+k] {
				return false
			}
		}
		return (keys[a*w+wj]+raise^keys[b*w+wj])>>s == 0
	}
	// compareUp orders entry a's key, raised one unit along axis j,
	// against entry b's key.
	compareUp := func(a, b int) int {
		for k := 0; k < w; k++ {
			x := keys[a*w+k]
			if k == wj {
				x += unit
			}
			if c := cmp.Compare(x, keys[b*w+k]); c != 0 {
				return c
			}
		}
		return 0
	}
	runEnd := func(a int) int {
		e := a + 1
		for e < n && samePrefix(a, e, 0) {
			e++
		}
		return e
	}
	if n == 0 {
		return
	}
	a0, aEnd := 0, runEnd(0)
	for aEnd < n {
		b0, bEnd := aEnd, runEnd(aEnd)
		// Run B holds run A's +1 neighbours when its prefix is A's raised
		// one unit — unless A's coordinate is already the last one, where
		// the raise would carry into the next field up.
		if ix.Coord(a0, j) != maxC && samePrefix(a0, b0, unit) {
			for a, b := a0, b0; a < aEnd && b < bEnd; {
				switch c := compareUp(a, b); {
				case c == 0:
					fn(a, b)
					a++
					b++
				case c < 0:
					a++
				default:
					b++
				}
			}
		}
		a0, aEnd = b0, bEnd
	}
}

// MemoryBytes is the exact footprint of the index: the Ref and key
// slabs.
func (ix *LevelIndex) MemoryBytes() uint64 {
	return uint64(unsafe.Sizeof(*ix)) +
		uint64(cap(ix.refs))*uint64(unsafe.Sizeof(NilRef)) +
		uint64(cap(ix.counts))*4 +
		uint64(cap(ix.keys))*8
}

// EnsureLevelIndexes materializes the level indexes for every stored
// level (1..H-1) in one pass over the arena and returns them
// (indexes[h-1] is level h). The call is idempotent and cheap after
// the first build; Insert and MergeFrom invalidate the cache.
// Concurrent calls are safe; calling concurrently with tree mutation
// is not.
func (t *Tree) EnsureLevelIndexes() []*LevelIndex {
	t.idxMu.Lock()
	defer t.idxMu.Unlock()
	if t.indexes != nil {
		return t.indexes
	}
	counts := t.LevelCellCounts()
	lay := newKeyLayout(t.D, t.H)
	w := lay.words
	idxs := make([]*LevelIndex, t.H-1)
	for h := 1; h <= t.H-1; h++ {
		n := counts[h]
		idxs[h-1] = &LevelIndex{
			Level: h,
			t:     t,
			lay:   lay,
			n:     n,
			refs:  make([]Ref, 0, n),
			keys:  make([]uint64, 0, n*w),
		}
	}
	// Parents precede children in the arena (pushCell appends a cell
	// only under an existing parent, and snapshot loading enforces the
	// same order), so one forward pass derives every cell's key from
	// its parent's.
	all := make([]uint64, len(t.loc)*w)
	for r := 1; r < len(t.loc); r++ {
		kr := all[r*w : (r+1)*w]
		lay.childKey(kr, all[int(t.parent[r])*w:], t.loc[r])
		ix := idxs[t.level[r]-1]
		ix.refs = append(ix.refs, Ref(r))
		ix.keys = append(ix.keys, kr...)
	}
	for _, ix := range idxs {
		ix.sortByKey()
	}
	t.indexes = idxs
	return idxs
}

// sortByKey orders the entries by key, one radix pass per key word
// (least significant first), and fills the count slab in that order.
func (ix *LevelIndex) sortByKey() {
	n, w := ix.n, ix.lay.words
	ps := newPermSort(n)
	for k := w - 1; k >= 0; k-- {
		ps.by(func(e int) uint64 { return ix.keys[e*w+k] })
	}
	keys := make([]uint64, n*w)
	refs := make([]Ref, n)
	ix.counts = make([]int32, n)
	for i, p := range ps.perm {
		copy(keys[i*w:(i+1)*w], ix.keys[int(p)*w:(int(p)+1)*w])
		refs[i] = ix.refs[p]
		ix.counts[i] = ix.t.n[refs[i]]
	}
	ix.keys, ix.refs = keys, refs
}

// LevelIndex returns the flat index of level h (building all level
// indexes on first use), or nil when h is outside the stored levels.
func (t *Tree) LevelIndex(h int) *LevelIndex {
	if h < 1 || h > t.H-1 {
		return nil
	}
	return t.EnsureLevelIndexes()[h-1]
}

// invalidateIndexes drops the materialized level indexes after a
// mutation of the tree. Mutation never races index access
// (see the package comment above), so a plain check suffices and the
// per-insert cost is one nil comparison (no write while none exist).
func (t *Tree) invalidateIndexes() {
	if t.indexes != nil {
		t.indexes = nil
	}
}

// LevelCellCounts returns the number of stored cells per level:
// counts[h] is level h's cell count (index 0 unused, length H), in one
// linear pass over the arena's level column.
func (t *Tree) LevelCellCounts() []int {
	counts := make([]int, t.H)
	for i := 1; i < len(t.level); i++ {
		counts[t.level[i]]++
	}
	return counts
}

// IndexMemoryBytes returns the footprint of the materialized level
// indexes, or 0 when none are built. It is disjoint from the tree's
// own MemoryBytes, so the pipeline's authoritative memory check sums
// the two without double counting.
func (t *Tree) IndexMemoryBytes() uint64 {
	t.idxMu.Lock()
	defer t.idxMu.Unlock()
	var total uint64
	for _, ix := range t.indexes {
		total += ix.MemoryBytes()
	}
	return total
}
