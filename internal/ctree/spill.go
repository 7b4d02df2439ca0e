// Spilled runs: the out-of-core side of the build engine (DESIGN.md
// §10).
//
// With BuildOptions.SpillDir set, the engine encodes the input one run
// at a time (build.go, stage 1) and writes each sorted run to a file of
// fixed-size records — the path key words plus the point's level-H
// parity word, everything the counting descent needs, so the raw
// coordinates are never read twice. The merge then reads every file
// back through a block-buffered cursor. Only one run is in memory while
// encoding and one block per run while merging, so the memory budget
// bounds the run size, not the tree: a dataset whose record stream is
// ~10× the budget builds from ~10 runs in one merge pass. The tree is
// the same as the in-memory build's, cell for cell.
package ctree

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"mrcc/internal/dataset"
)

// spillBlock is the number of records a spilled run's cursor holds in
// memory at a time.
const spillBlock = 4096

// ExternalRecordBytes returns the in-memory cost of one point while its
// run is encoded and sorted before a spill — the key and parity words
// plus the sort's scratch copy of both, and a permutation entry for
// multi-word keys — so callers can size MemoryLimitBytes relative to a
// dataset's record stream.
func ExternalRecordBytes(d, H int) int {
	return 2*8*(newKeyCodec(d, H).words+1) + 4
}

// spillRunPoints returns the number of points per spilled run: the
// in-package override, else the memory budget's worth of records (at
// least one poll interval), else the whole input as one run.
func (opt *BuildOptions) spillRunPoints(c *keyCodec, n int) int {
	runPoints := opt.runPoints
	if runPoints <= 0 {
		runPoints = n
		if opt.MemoryLimitBytes > 0 {
			per := uint64(ExternalRecordBytes(c.d, c.H))
			runPoints = int(min(opt.MemoryLimitBytes/per, uint64(n)))
			// A budget below one poll interval's worth of records is
			// best-effort: runs never shrink below it.
			runPoints = max(runPoints, buildReportEvery)
		}
	}
	return max(1, min(runPoints, n))
}

// spillRuns encodes the dataset in consecutive runs of runPoints
// points, writes each run to its own file under dir and returns one
// cursor per run file, positioned on its first record. It records the
// disk traffic in t's spill statistics.
func spillRuns(ds *dataset.Dataset, c *keyCodec, t *Tree, dir string, runPoints int, bc *buildControl) ([]*cursor, error) {
	var curs []*cursor
	for lo := 0; lo < ds.Len(); lo += runPoints {
		hi := min(lo+runPoints, ds.Len())
		run, err := encodeRun(c, ds.Points[lo:hi], lo, bc)
		if err != nil {
			return curs, err
		}
		path := filepath.Join(dir, fmt.Sprintf("run-%04d.spill", len(curs)))
		if err := writeRun(path, run); err != nil {
			return curs, fmt.Errorf("ctree: spilling run %d: %w", len(curs), err)
		}
		cu, err := openRun(path, hi-lo, c.words)
		if err != nil {
			return curs, fmt.Errorf("ctree: opening spill run %d: %w", len(curs), err)
		}
		curs = append(curs, cu)
		t.spillRuns++
		t.spillBytes += int64(hi-lo) * int64(c.words+1) * 8
	}
	return curs, nil
}

// closeCursors closes the run files behind spilled cursors.
func closeCursors(curs []*cursor) {
	for _, cu := range curs {
		if cu.file != nil {
			cu.file.f.Close()
		}
	}
}

// writeRun writes the in-memory run cu to path: per record its key
// words then its parity word, little-endian, no framing (the reader
// knows the record count).
func writeRun(path string, cu *cursor) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(f, 1<<18)
	var buf [8]byte
	put := func(w uint64) {
		binary.LittleEndian.PutUint64(buf[:], w)
		bw.Write(buf[:]) // a write error sticks; Flush reports it
	}
	for i, lf := range cu.leaf {
		for _, w := range cu.keys[i*cu.words : (i+1)*cu.words] {
			put(w)
		}
		put(lf)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runFile is the reading side of one spilled run.
type runFile struct {
	f    *os.File
	r    *bufio.Reader
	left int    // records not yet read
	buf  []byte // one block of raw records
}

// openRun opens a spilled run of the given record count and returns a
// cursor holding its first block.
func openRun(path string, records, words int) (*cursor, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	rf := &runFile{f: f, r: bufio.NewReaderSize(f, 1<<16), left: records}
	cu := &cursor{words: words, file: rf}
	if _, err := rf.fill(cu); err != nil {
		f.Close()
		return nil, err
	}
	return cu, nil
}

// fill reads the run's next block into cu and rewinds cu to its first
// record; false when the run is exhausted.
func (rf *runFile) fill(cu *cursor) (bool, error) {
	m := min(rf.left, spillBlock)
	if m == 0 {
		return false, nil
	}
	rec := cu.words + 1
	if cap(rf.buf) < m*rec*8 {
		rf.buf = make([]byte, spillBlock*rec*8)
		cu.keys = make([]uint64, spillBlock*cu.words)
		cu.leaf = make([]uint64, spillBlock)
	}
	buf := rf.buf[:m*rec*8]
	if _, err := io.ReadFull(rf.r, buf); err != nil {
		return false, fmt.Errorf("reading spill record: %w", err)
	}
	cu.keys, cu.leaf = cu.keys[:m*cu.words], cu.leaf[:m]
	for i := 0; i < m; i++ {
		for w := 0; w < rec; w++ {
			v := binary.LittleEndian.Uint64(buf[(i*rec+w)*8:])
			if w < cu.words {
				cu.keys[i*cu.words+w] = v
			} else {
				cu.leaf[i] = v
			}
		}
	}
	rf.left -= m
	cu.pos = 0
	return true, nil
}
