// Path-key codec of the Counting-tree build (DESIGN.md §12): the one
// place that knows how wide a key is.
//
// A point's key is its root-to-leaf cell path, level-major: the level-1
// loc (d bits, bit j = upper half of axis j) is the most significant
// part. When d·(H-1) <= 64 the whole path packs into one uint64 (the
// packed layout); otherwise each of the H-1 levels takes its own word
// (the multi-word layout). In both layouts unsigned word order,
// lexicographic over the words, is the DFS preorder of the cells with
// siblings ascending by loc, so counting points in key order creates
// cells in the canonical arena order (tournament.go).
//
// Quantization at level H is bit-exact with per-level arithmetic:
// v·2^H is an exact float64 product (power-of-two scale), so
// floor(v·2^h) == floor(v·2^H) >> (H-h) for every level h.
package ctree

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
)

// f64OneBits is the bit pattern of float64(1.0): a float is a valid
// normalized coordinate exactly when its bits are below this (covering
// [+0, 1) — NaNs, infinities and values >= 1 all compare higher) or
// equal to f64NegZeroBits.
const f64OneBits = 0x3FF0000000000000

// f64NegZeroBits is the bit pattern of -0.0, the single sign-bit
// pattern that still quantizes into the grid (uint64(-0.0 · 2^H) == 0,
// identical to +0.0 — the slow validator accepts it, so the fast one
// must too).
const f64NegZeroBits = uint64(1) << 63

// keyCodec encodes, compares and splits the path keys of one (d, H)
// tree shape.
type keyCodec struct {
	d, H  int
	words int // key words per point: 1 when packed, H-1 otherwise
	dmask uint64
	scale float64 // 2^H, the level-H grid scale
}

func newKeyCodec(d, H int) *keyCodec {
	c := &keyCodec{d: d, H: H, words: 1, dmask: (uint64(1) << uint(d)) - 1, scale: float64(uint64(1) << uint(H))}
	if d*(H-1) > 64 {
		c.words = H - 1
	}
	return c
}

// encode validates and quantizes p, writes its path key into kw
// (c.words words) and returns its level-H parity word: bit j is the
// low bit of the axis-j grid coordinate, the input of the deepest
// stored level's half-space update. ok is false when p does not have d
// values or some coordinate is invalid. qi is caller-owned scratch of
// d words.
func (c *keyCodec) encode(p []float64, qi, kw []uint64) (leaf uint64, ok bool) {
	if len(p) != c.d {
		return 0, false
	}
	leaf, ok = quantizeFast(p, c.scale, qi)
	if !ok {
		return 0, false
	}
	if c.words == 1 {
		kw[0] = packedPathKey(qi, c.d, c.H)
	} else {
		pathKeyWords(qi, c.d, c.H, kw)
	}
	return leaf, true
}

// compare orders two keys as unsigned words, lexicographically.
func (c *keyCodec) compare(a, b []uint64) int {
	if c.words == 1 {
		switch {
		case a[0] < b[0]:
			return -1
		case a[0] > b[0]:
			return 1
		}
		return 0
	}
	return slices.Compare(a, b)
}

// diverge returns the shallowest level (1..H-1) at which the paths a
// and b differ, or H when they are equal.
func (c *keyCodec) diverge(a, b []uint64) int {
	if c.words == 1 {
		x := a[0] ^ b[0]
		if x == 0 {
			return c.H
		}
		// Level h occupies key bits [(H-1-h)·d, (H-h)·d); the top set
		// bit of the XOR picks the shallowest level that changed.
		return c.H - 1 - (63-bits.LeadingZeros64(x))/c.d
	}
	for w := range a {
		if a[w] != b[w] {
			return w + 1
		}
	}
	return c.H
}

// loc returns the level-h loc word of key k.
func (c *keyCodec) loc(k []uint64, h int) uint64 {
	if c.words == 1 {
		return (k[0] >> (uint(c.H-1-h) * uint(c.d))) & c.dmask
	}
	return k[h-1]
}

// sortRun orders the records (key words and parity word per point) by
// (key, arrival) and returns the sorted columns. Packed keys radix-sort
// with the parity word riding along (radix.go; LSD passes are stable,
// so equal keys keep arrival order). Multi-word keys sort a permutation
// with the arrival index as the explicit tie-break and materialize the
// columns in sorted order.
func (c *keyCodec) sortRun(keys, leaf []uint64) (sk, sl []uint64) {
	m := len(leaf)
	if c.words == 1 {
		return radixSortPairs(keys, leaf, make([]uint64, m), make([]uint64, m))
	}
	w := c.words
	ord := make([]int32, m)
	for i := range ord {
		ord[i] = int32(i)
	}
	slices.SortFunc(ord, func(a, b int32) int {
		if x := slices.Compare(keys[int(a)*w:int(a)*w+w], keys[int(b)*w:int(b)*w+w]); x != 0 {
			return x
		}
		return int(a) - int(b)
	})
	sk = make([]uint64, m*w)
	sl = make([]uint64, m)
	for i, o := range ord {
		copy(sk[i*w:(i+1)*w], keys[int(o)*w:(int(o)+1)*w])
		sl[i] = leaf[o]
	}
	return sk, sl
}

// pointError is the validation error of the invalid point p at index:
// the slow exact validator re-derives the historical error text after
// the fast one flagged the point.
func (c *keyCodec) pointError(p []float64, index int) error {
	var qi [MaxDims]uint64
	if err := quantizeLevelH(p, c.d, c.H, qi[:c.d], index); err != nil {
		return err
	}
	// Unreachable: the fast and slow validators accept the same set.
	return fmt.Errorf("ctree: point %d: invalid point", index)
}

// quantizeLevelH validates one point and writes its level-H grid
// coordinates into qi; index is the point's position in the slice the
// caller reports errors against. It is the slow, exact-error kernel
// the fast pass re-runs on an invalid point.
func quantizeLevelH(p []float64, d, H int, qi []uint64, index int) error {
	if len(p) != d {
		return fmt.Errorf("ctree: point %d: ctree: point has %d values, want %d", index, len(p), d)
	}
	scale := float64(uint64(1) << uint(H))
	for j, v := range p {
		if v < 0 || v >= 1 || math.IsNaN(v) {
			return fmt.Errorf("ctree: point %d: ctree: axis %d value %g outside [0,1): dataset must be normalized", index, j, v)
		}
		qi[j] = uint64(v * scale)
	}
	return nil
}

// quantizeFast is the branch-reduced validate+quantize kernel: one
// unsigned comparison on the float's bit pattern replaces the
// three-way range-and-NaN test (valid exactly when bits < bits(1.0),
// covering [+0, 1) — NaNs, infinities, negatives and values >= 1 all
// compare higher — plus the lone -0.0 pattern, which quantizes to cell
// 0 like +0.0). Returns false on the first invalid coordinate; the
// caller re-validates with quantizeLevelH for the exact error.
//
// Deliberately a tiny single-purpose loop: fusing it with the key pack
// into one function measured ~40% slower than this composition
// (BenchmarkQuantize) — the monolith's register pressure and variable
// shifts cost more than the extra pass over the d-word qi scratch.
// It also accumulates the level-H parity word (bit j = low bit of the
// axis-j grid value) while the coordinate is already in a register.
//
//go:noinline
func quantizeFast(p []float64, scale float64, qi []uint64) (leaf uint64, ok bool) {
	for j, v := range p {
		if b := math.Float64bits(v); b >= f64OneBits && b != f64NegZeroBits {
			return 0, false
		}
		g := uint64(v * scale)
		qi[j] = g
		leaf |= (g & 1) << uint(j)
	}
	return leaf, true
}

// packedPathKey packs a quantized point's level-1..H-1 path into one
// uint64, level-major; the caller guarantees d·(H-1) <= 64.
//
//go:noinline
func packedPathKey(qi []uint64, d, H int) uint64 {
	var k uint64
	for h := 1; h <= H-1; h++ {
		var loc uint64
		for j := 0; j < d; j++ {
			loc |= ((qi[j] >> uint(H-h)) & 1) << uint(j)
		}
		k = k<<uint(d) | loc
	}
	return k
}

// pathKeyWords writes a quantized point's per-level locs into
// kw[0..H-2] (kw[h-1] is the level-h loc) — the multi-word key layout.
func pathKeyWords(qi []uint64, d, H int, kw []uint64) {
	for h := 1; h <= H-1; h++ {
		var loc uint64
		for j := 0; j < d; j++ {
			loc |= ((qi[j] >> uint(H-h)) & 1) << uint(j)
		}
		kw[h-1] = loc
	}
}
