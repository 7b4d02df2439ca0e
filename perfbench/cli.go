package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"mrcc/internal/core"
	"mrcc/internal/ctree"
	"mrcc/internal/dataset"
)

// cliRun is one fresh cmd/mrcc process, from exec to exit.
type cliRun struct {
	wall      time.Duration
	rssMB     float64
	raw       string // SHA-256 of the labels file it wrote
	canonical string // SHA-256 of the same labels in generation order
}

// runCLI executes `mrcc -in csv -out labels.csv` in a fresh working
// directory and times it from exec to exit. order[i] is the generation
// index of the CSV's row i.
func runCLI(bin, csv, dir string, order []int) (cliRun, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return cliRun{}, err
	}
	defer os.RemoveAll(dir)
	labels := filepath.Join(dir, "labels.csv")
	var stderr bytes.Buffer
	cmd := exec.Command(bin, "-in", csv, "-out", labels)
	cmd.Dir = dir
	cmd.Stderr = &stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return cliRun{}, err
	}
	done, peak := make(chan struct{}), make(chan float64)
	go func() { peak <- pollPeakRSS(cmd.Process.Pid, done) }()
	err := cmd.Wait()
	wall := time.Since(start)
	close(done)
	rssMB := <-peak
	if err != nil {
		return cliRun{}, fmt.Errorf("mrcc: %v: %s", err, bytes.TrimSpace(stderr.Bytes()))
	}
	if rssMB == 0 {
		return cliRun{}, fmt.Errorf("mrcc: no peak RSS read for the process")
	}
	b, err := os.ReadFile(labels)
	if err != nil {
		return cliRun{}, err
	}
	canonical, err := canonicalDigest(b, order)
	if err != nil {
		return cliRun{}, err
	}
	return cliRun{wall: wall, rssMB: rssMB, raw: digest(b), canonical: canonical}, nil
}

// peakRSSPoll is how often pollPeakRSS reads a running process's peak.
const peakRSSPoll = 5 * time.Millisecond

// pollPeakRSS reads the process's VmHWM, the peak resident set of its
// current program image, every peakRSSPoll until done is closed, and
// returns the last value read in MB (0 if none was). The max RSS of
// rusage cannot be used: Linux carries a parent's peak RSS into its
// child across fork and exec, so every child of the benchmark, which
// holds the generated inputs, would report at least the benchmark's own
// peak. Growth in the last poll interval before exit is missed.
func pollPeakRSS(pid int, done <-chan struct{}) float64 {
	tick := time.NewTicker(peakRSSPoll)
	defer tick.Stop()
	var last float64
	for {
		if mb, err := vmHWM(pid); err == nil {
			last = mb
		}
		select {
		case <-done:
			return last
		case <-tick.C:
		}
	}
}

// vmHWM returns the VmHWM line of /proc/<pid>/status in MB.
func vmHWM(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	_, rest, ok := bytes.Cut(b, []byte("\nVmHWM:"))
	if !ok {
		return 0, fmt.Errorf("process %d: no VmHWM in its status", pid)
	}
	line, _, _ := bytes.Cut(rest, []byte("\n"))
	kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(string(line)), " kB"), 64)
	return kb / 1024, err
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

func fileDigest(path string) (string, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return "", err
	}
	return digest(b), nil
}

// canonicalDigest puts a labels file (one label per line, line i for
// CSV row i) back in generation order and digests it, so that runs
// over differently ordered copies of one dataset compare equal.
func canonicalDigest(labels []byte, order []int) (string, error) {
	lines := bytes.SplitAfter(labels, []byte("\n"))
	if n := len(lines); n == 0 || len(lines[n-1]) != 0 {
		return "", fmt.Errorf("labels file does not end in a newline")
	}
	lines = lines[:len(lines)-1]
	if len(lines) != len(order) {
		return "", fmt.Errorf("labels file has %d lines for %d rows", len(lines), len(order))
	}
	sorted := make([][]byte, len(lines))
	for i, l := range lines {
		sorted[order[i]] = l
	}
	return digest(bytes.Join(sorted, nil)), nil
}

// pipelineResult is what one in-process pass of the CLI pipeline
// produced and measured.
type pipelineResult struct {
	digest string             // SHA-256 of the labels file it wrote
	layers map[string]float64 // per-layer metrics of this pass
	// clock is the pass's wall time read from a clock outside the
	// tracer; selfSum is the sum of the pass's span self times, the
	// root's (bench.unattributed_s) included (see attributionGap).
	clock, selfSum time.Duration
}

// runPipeline repeats cmd/mrcc's pipeline in-process, calling the
// library functions in the order the binary does (dataset load, the
// facade's validation and normalizing clone, the parallel tree build,
// the clustering back half, the label file), with a span around each
// call. The level indexes, which the β-search would build lazily, are
// built explicitly so their cost shows as its own layer; the output is
// the same. The clustering phases inside core.RunOnTree are added as
// child spans from the Stats the call returns.
func runPipeline(tr *tracer, run, csv, labelsPath string) (pipelineResult, error) {
	var (
		ds, work *dataset.Dataset
		t        *ctree.Tree
		res      *core.Result
		err      error
	)
	csvInfo, err := os.Stat(csv)
	if err != nil {
		return pipelineResult{}, err
	}
	began := time.Now()
	root := tr.begin(run, "cli", -1)
	parse := tr.timed(run, "dataset.parse", root, func() {
		ds, err = dataset.LoadCSVFile(csv, false)
	})
	if err != nil {
		return pipelineResult{}, err
	}
	normalize := tr.timed(run, "dataset.normalize", root, func() {
		if err = ds.Validate(); err != nil {
			return
		}
		work = ds
		if !ds.IsNormalized() {
			work = ds.Clone()
			_, _, err = work.Normalize()
		}
	})
	if err != nil {
		return pipelineResult{}, err
	}
	build := tr.timed(run, "ctree.build", root, func() {
		t, err = ctree.BuildParallelOpts(work, core.DefaultH, ctree.BuildOptions{Workers: cliWorkers})
	})
	if err != nil {
		return pipelineResult{}, err
	}
	cells, arenaBytes, radix := t.CellCount(), t.MemoryBytes(), t.RadixChunks()
	index := tr.timed(run, "ctree.index", root, func() { t.EnsureLevelIndexes() })
	indexBytes := t.IndexMemoryBytes()
	runID := tr.begin(run, "core.run", root)
	res, err = core.RunOnTree(t, work, core.Config{Workers: cliWorkers, CollectStats: true})
	tr.end(runID)
	if err != nil {
		return pipelineResult{}, err
	}
	st := res.Stats
	// The clustering phases run back to back inside RunOnTree: the
	// β-search (convolution scans interleaved with β-tests), the merge,
	// then labeling. Their spans are laid out in that order from the
	// call's start; the scan and β-test rows are sums over many short
	// intervals, so they are placed end to end inside the search span.
	at := tr.spans[runID].Start
	search := tr.add(run, "core.search", runID, at, at+time.Duration(st.BetaSearch.WallNS))
	tr.add(run, "core.scan", search, at, at+time.Duration(st.ConvScan.WallNS))
	scanEnd := at + time.Duration(st.ConvScan.WallNS)
	tr.add(run, "core.beta_test", search, scanEnd, scanEnd+time.Duration(st.BetaTest.WallNS))
	at = tr.spans[search].End
	tr.add(run, "core.merge", runID, at, at+time.Duration(st.ClusterMerge.WallNS))
	at += time.Duration(st.ClusterMerge.WallNS)
	tr.add(run, "core.label", runID, at, at+time.Duration(st.Labeling.WallNS))
	// The label file is written exactly as cmd/mrcc writes it (one
	// unbuffered write per label); it belongs to no library layer, so it
	// stays in the root span's self time.
	if err := writeLabels(labelsPath, res.Labels); err != nil {
		return pipelineResult{}, err
	}
	tr.end(root)
	clock := time.Since(began)
	selfSum := sumSelf(tr.spans, root)
	self := selfTimes(tr.spans)
	digest, err := fileDigest(labelsPath)
	if err != nil {
		return pipelineResult{}, err
	}

	c := st.Counters
	n := float64(ds.Len())
	secs := func(d time.Duration) float64 { return d.Seconds() }
	layers := map[string]float64{
		"dataset.parse_s":        secs(parse),
		"dataset.parse_mb_per_s": float64(csvInfo.Size()) / 1e6 / parse.Seconds(),
		"dataset.normalize_s":    secs(normalize),
		"ctree.build_s":          secs(build),
		"ctree.build_mpts_per_s": n / 1e6 / build.Seconds(),
		"ctree.cells":            float64(cells),
		"ctree.arena_mb":         float64(arenaBytes) / (1 << 20),
		"ctree.radix_chunks":     float64(radix),
		"ctree.index_s":          secs(index),
		"ctree.index_mb":         float64(indexBytes) / (1 << 20),
		"core.run_s":             secs(tr.spans[runID].dur()),
		"core.search_s":          time.Duration(st.BetaSearch.WallNS).Seconds(),
		"core.scan_s":            time.Duration(st.ConvScan.WallNS).Seconds(),
		"core.beta_test_s":       time.Duration(st.BetaTest.WallNS).Seconds(),
		"core.merge_s":           time.Duration(st.ClusterMerge.WallNS).Seconds(),
		"core.label_s":           time.Duration(st.Labeling.WallNS).Seconds(),
		"core.mask_evals":        float64(c.MaskEvals),
		"core.index_lookups":     float64(c.IndexLookups),
		"core.lookups_per_eval":  ratio(c.IndexLookups, c.MaskEvals),
		"core.scan_passes":       float64(c.ScanPasses),
		"core.beta_tests":        float64(c.BetaTests),
		"core.beta_accept_ratio": ratio(c.BetaAccepted, c.BetaTests),
		"bench.unattributed_s":   secs(self[root]),
		"bench.traced_wall_s":    secs(tr.spans[root].dur()),
	}
	return pipelineResult{digest: digest, layers: layers, clock: clock, selfSum: selfSum}, nil
}

// cliWorkers is the worker count cmd/mrcc uses by
// default: 0 selects GOMAXPROCS inside the library.
const cliWorkers = 0

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// writeLabels writes one label per line with one write call each, as
// cmd/mrcc does.
func writeLabels(path string, labels []int) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	for _, l := range labels {
		if _, err := f.WriteString(strconv.Itoa(l) + "\n"); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}
