// Command perfbench is the repository's end-to-end benchmark. Each
// workload is one generated dataset, used the two ways the program
// offers: fresh cmd/mrcc processes cluster it from CSV bytes to a
// labels file, and a cmd/mrcc-serve instance warm-starts from part of
// it (snapshot plus write-ahead-log tail) and ingests the rest over
// HTTP while answering queries. Untraced runs measure both from
// outside; a traced run (-trace 1) repeats the same calls in-process
// with a span around each layer and reports per-layer numbers.
//
// Run it from the repository root through the wrapper, which builds
// the binaries first:
//
//	bash perfbench/run.sh --workload cli-15d --seed 1 --seconds 45 --trace 0
//
// The last line of standard output is the JSON result; the lines
// before it are the run record. The full record (and, for traced runs,
// the spans) is also written under .bench_build/results.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"mrcc/internal/synthetic"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// options is the parsed command line.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	root     string // repository checkout
	bin      string // directory holding mrcc and mrcc-serve
}

func run(args []string, stdout, stderr io.Writer) int {
	fset := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fset.SetOutput(stderr)
	var o options
	var trace int
	fset.StringVar(&o.workload, "workload", "", "workload name")
	fset.Int64Var(&o.seed, "seed", defaultSeed, "seed the inputs are generated from")
	fset.IntVar(&o.seconds, "seconds", 45, "seconds of measurement per run")
	fset.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	fset.StringVar(&o.root, "root", ".", "repository checkout root")
	fset.StringVar(&o.bin, "bin", "", "directory holding the built mrcc and mrcc-serve binaries")
	if err := fset.Parse(args); err != nil {
		return 2
	}
	o.trace = trace == 1
	w, err := lookupWorkload(o.workload)
	if err == nil && (trace < 0 || trace > 1 || o.seconds < 1 || o.bin == "") {
		err = fmt.Errorf("need -bin, -seconds >= 1 and -trace 0 or 1")
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	build := filepath.Join(o.root, ".bench_build")
	removeStaleWork(filepath.Join(build, "work"))
	work := filepath.Join(build, "work", fmt.Sprintf("%s-%d-%d", w.name, o.seed, os.Getpid()))
	if err := os.MkdirAll(work, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(work)
	rec, err := execute(o, w, work)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	results := filepath.Join(build, "results")
	base := fmt.Sprintf("%s-seed%d-trace%d-%d", w.name, o.seed, trace, time.Now().Unix())
	if err := os.MkdirAll(results, 0o755); err == nil {
		if b, err := json.MarshalIndent(rec, "", " "); err == nil {
			os.WriteFile(filepath.Join(results, base+".json"), b, 0o644)
		}
		if rec.tracer != nil {
			rec.tracer.writeSpans(filepath.Join(results, base+"-spans.json"))
		}
	}
	rec.print(stdout)
	line, err := json.Marshal(rec.result())
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// metric is one reported metric with its in-run distribution.
type metric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
	// Value is what the result line reports: the median of a repeated
	// measurement, or the named percentile over a session's requests.
	Value   float64 `json:"value"`
	Summary summary `json:"summary"`
	Note    string  `json:"note,omitempty"`
}

// record is everything one run measured and checked.
type record struct {
	Workload    string   `json:"workload"`
	Seed        int64    `json:"seed"`
	Seconds     int      `json:"seconds"`
	Traced      bool     `json:"traced"`
	Revision    string   `json:"revision"`
	GoVersion   string   `json:"goVersion"`
	GOMAXPROCS  int      `json:"gomaxprocs"`
	NumCPU      int      `json:"nproc"`
	Connections string   `json:"connections"`
	Rows        int      `json:"rows"`
	Dims        int      `json:"dims"`
	InputBytes  int64    `json:"inputBytes"`
	Session     string   `json:"session"`
	Attempted   int      `json:"attempted"`
	Failed      int      `json:"failed"`
	Checks      []string `json:"failedChecks"`
	Notes       []string `json:"notes"`
	Metrics     []metric `json:"metrics"`
	// SelfTimes is each traced layer's self time in seconds: the median
	// over the CLI passes, and the total over the service replay.
	SelfTimes map[string]float64 `json:"selfTimes,omitempty"`
	tracer    *tracer
}

func (r *record) attempt(ok bool) {
	r.Attempted++
	if !ok {
		r.Failed++
	}
}

// check records one output check; a failed check fails the run.
func (r *record) check(ok bool, format string, args ...any) {
	r.attempt(ok)
	if !ok {
		r.Checks = append(r.Checks, fmt.Sprintf(format, args...))
	}
}

func (r *record) add(name, unit string, samples []float64, note string) {
	s := summarize(samples)
	r.Metrics = append(r.Metrics, metric{Name: name, Unit: unit, Value: s.Median, Summary: s, Note: note})
}

// addTail reports a percentile of a session's samples, taken over the
// whole session so that rare stalls (a checkpoint, a clone) keep their
// weight. A tail is reported at the named percentile when the session
// has enough samples to leave ten above it, and otherwise at the
// highest percentile that does (tailPercentile); the record names the
// percentile used.
func (r *record) addTail(name, unit string, samples []float64, p float64) {
	q := min(p, tailPercentile(len(samples)))
	r.check(len(samples) >= 20, "%s: %d samples cannot carry a percentile with ten samples above it", name, len(samples))
	note := fmt.Sprintf("p%g over %d samples", q, len(samples))
	if q < p {
		note += fmt.Sprintf(" (a p%g needs %d)", p, int(math.Ceil(10/(1-p/100)-1e-9)))
	}
	if p > 50 {
		note += fmt.Sprintf("; p90 %.4g, p95 %.4g, p99 %.4g, max %.4g", percentile(samples, 90), percentile(samples, 95), percentile(samples, 99), percentile(samples, 100))
	}
	r.Metrics = append(r.Metrics, metric{Name: name, Unit: unit, Value: percentile(samples, q), Summary: summarize(samples), Note: note})
}

type resultLine struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]valueUnit `json:"metrics"`
}

type valueUnit struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *record) result() resultLine {
	out := resultLine{Correct: len(r.Checks) == 0, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]valueUnit{}}
	for _, m := range r.Metrics {
		out.Metrics[m.Name] = valueUnit{Value: m.Value, Unit: m.Unit}
	}
	return out
}

func (r *record) print(w io.Writer) {
	fmt.Fprintf(w, "perfbench %s seed=%d seconds=%d traced=%v\n", r.Workload, r.Seed, r.Seconds, r.Traced)
	fmt.Fprintf(w, "  revision %s, %s, GOMAXPROCS %d, nproc %d\n", r.Revision, r.GoVersion, r.GOMAXPROCS, r.NumCPU)
	fmt.Fprintf(w, "  input: %d rows x %d dims, %d CSV bytes, read once into the page cache before timing\n", r.Rows, r.Dims, r.InputBytes)
	fmt.Fprintf(w, "  session: %s; connections: %s\n", r.Session, r.Connections)
	fmt.Fprintf(w, "  %-24s %-8s %14s %14s %14s %14s %6s\n", "metric", "unit", "value", "median", "q1", "q3", "n")
	for _, m := range r.Metrics {
		fmt.Fprintf(w, "  %-24s %-8s %14.6g %14.6g %14.6g %14.6g %6d  %s\n", m.Name, m.Unit, m.Value, m.Summary.Median, m.Summary.Q1, m.Summary.Q3, m.Summary.N, m.Note)
	}
	if len(r.SelfTimes) > 0 {
		names := make([]string, 0, len(r.SelfTimes))
		for n := range r.SelfTimes {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(w, "  self times (s):")
		for _, n := range names {
			fmt.Fprintf(w, " %s %.4g", n, r.SelfTimes[n])
		}
		fmt.Fprintln(w)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	fmt.Fprintf(w, "  attempted %d, failed %d\n", r.Attempted, r.Failed)
	for _, c := range r.Checks {
		fmt.Fprintf(w, "  FAILED CHECK: %s\n", c)
	}
}

// attributionTolerance is the largest attributionGap a traced CLI pass
// may show before the run is flagged as failing.
const attributionTolerance = 0.02

// unattributedNote is the share of a traced pass outside the named
// layers above which the record notes it.
const unattributedNote = 0.10

// genLateLimitMS marks a run invalid when the generator itself, not
// the service, woke this late for its p99 request.
const genLateLimitMS = 20.0

// minCLIRuns is the fewest cmd/mrcc runs an untraced run makes.
const minCLIRuns = 4

func execute(o options, w workload, work string) (*record, error) {
	rec := &record{
		Workload: w.name, Seed: o.seed, Seconds: o.seconds, Traced: o.trace,
		Revision: revision(o.root), GoVersion: runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		Connections: "ingest 1, query 1, control 1 (open loop, each request timed from its due time)",
	}
	mrccBin, serveBin := filepath.Join(o.bin, "mrcc"), filepath.Join(o.bin, "mrcc-serve")

	began := time.Now()
	// Set-up, untimed: generate the dataset, put its rows in the seed's
	// order, write it as CSV, read it back once so the timed runs find
	// it in the page cache, and stage the service's snapshot and WAL
	// tail.
	ds, _, err := synthetic.Generate(w.gen)
	if err != nil {
		return nil, err
	}
	// order[i] is the generation index of the row written at line i.
	order := make([]int, ds.Len())
	for i := range order {
		order[i] = i
	}
	rng := rand.New(rand.NewSource(o.seed))
	rng.Shuffle(len(order), func(i, j int) {
		order[i], order[j] = order[j], order[i]
		ds.Points[i], ds.Points[j] = ds.Points[j], ds.Points[i]
	})
	csv := filepath.Join(work, "input.csv")
	if err := ds.SaveCSVFile(csv); err != nil {
		return nil, err
	}
	if rec.InputBytes, err = warmRead(csv); err != nil {
		return nil, err
	}
	rec.Rows, rec.Dims = ds.Len(), ds.Dims
	sessionLen := time.Duration(float64(o.seconds) * (1 - cliShare) * float64(time.Second))
	ingests, queries := session.counts(sessionLen)
	st, err := buildStage(filepath.Join(work, "stage"), ds.Points, session, ingests, queries, o.seed)
	if err != nil {
		return nil, err
	}
	ds = nil
	rec.Session = fmt.Sprintf("snapshot %d + WAL tail %d points, then %d ingests x %d points (%g/s) and >= %d queries (%g/s) over %.1fs, re-cluster every %d points with %d worker, checkpoint every %v, %d boots",
		st.staged, session.tail, ingests, session.batch, session.ingestRate, queries, session.queryRate, sessionLen.Seconds(), reclusterPoints, serveWorkers, checkpointEvery, boots)
	phases := []string{fmt.Sprintf("inputs %.1fs", time.Since(began).Seconds())}
	stealFrom, stealErr := cpuTimes()

	// Batch side: fresh CLI processes. MrCC's output does not depend on
	// row order, so every run's labels, put back in generation order,
	// must match the committed reference digest (check a). A traced run
	// makes one CLI run and then repeats the pipeline in-process; the
	// two label files must be identical (check b).
	//
	// The machine's speed drifts over seconds, so an untraced run spreads
	// its samples over its whole length: half the CLI runs, interleaved
	// with the service boots that are killed once ready, come before the
	// session and half after it.
	want := referenceDigests[w.name]
	cliBudget := time.Duration(float64(o.seconds) * cliShare * float64(time.Second))
	var walls, rss, setups []float64
	var raws []string
	var (
		cliTime time.Duration
		cliRuns int // attempted, failed ones included
	)
	cliRun := func() {
		i := cliRuns
		cliRuns++
		start := time.Now()
		defer func() { cliTime += time.Since(start) }()
		r, err := runCLI(mrccBin, csv, filepath.Join(work, fmt.Sprintf("cli-%d", i)), order)
		if err != nil {
			rec.check(false, "%v", err)
			return
		}
		rec.check(r.canonical == want, "cmd/mrcc run %d: labels in generation order have digest %s, committed reference %s", i, r.canonical, want)
		walls = append(walls, r.wall.Seconds())
		rss = append(rss, r.rssMB)
		raws = append(raws, r.raw)
	}
	ctl := newClient()
	defer ctl.CloseIdleConnections()
	firstHalf := func() bool { return !o.trace && (cliRuns < minCLIRuns/2 || cliTime < cliBudget/2) }
	for b := 0; b < boots-1 || firstHalf(); b++ {
		if b < boots-1 {
			setup, err := timeBoot(serveBin, st, filepath.Join(work, fmt.Sprintf("svc-%d", b)), ctl)
			if err != nil {
				return nil, err
			}
			setups = append(setups, setup)
		}
		if (o.trace && b == 0) || firstHalf() {
			cliRun()
		}
	}
	if len(walls) == 0 {
		return nil, fmt.Errorf("no cmd/mrcc run succeeded: %v", rec.Checks)
	}
	phases = append(phases, fmt.Sprintf("cmd/mrcc and boots %.1fs", time.Since(began).Seconds()))
	tr := newTracer()
	var passes []pipelineResult
	start := time.Now()
	for i := 0; o.trace && (i == 0 || time.Since(start) < cliBudget); i++ {
		p, err := runPipeline(tr, fmt.Sprintf("cli#%d", i), csv, filepath.Join(work, "inproc-labels.csv"))
		if err != nil {
			return nil, fmt.Errorf("in-process pipeline: %w", err)
		}
		rec.check(p.digest == raws[0], "in-process pass %d wrote labels %s, cmd/mrcc %s", i, short(p.digest), short(raws[0]))
		passes = append(passes, p)
	}
	if o.trace {
		phases = append(phases, fmt.Sprintf("in-process passes %.1fs", time.Since(began).Seconds()))
	}

	// Service side: the last boot, driven by the schedule.
	sess, err := runSession(serveBin, st, session, filepath.Join(work, fmt.Sprintf("svc-%d", boots-1)), ctl, sessionLen)
	if err != nil {
		return nil, err
	}
	setups = append(setups, sess.setup)
	phases = append(phases, fmt.Sprintf("service %.1fs", time.Since(began).Seconds()))
	for !o.trace && (cliRuns < minCLIRuns || cliTime < cliBudget) {
		cliRun()
	}
	phases = append(phases, fmt.Sprintf("cmd/mrcc %.1fs", time.Since(began).Seconds()))
	rec.Notes = append(rec.Notes, "phases (end times): "+strings.Join(phases, ", "))
	if stealTo, err := cpuTimes(); err == nil && stealErr == nil && stealTo.total > stealFrom.total {
		rec.Notes = append(rec.Notes, fmt.Sprintf("host steal: %.1f%% of this machine's CPU time after the inputs were made went to other guests of its host",
			100*float64(stealTo.steal-stealFrom.steal)/float64(stealTo.total-stealFrom.total)))
	}
	for _, c := range sess.checks {
		rec.check(false, "%s", c)
	}
	for i := 0; i < sess.probeOK+sess.probeBad; i++ {
		rec.attempt(i >= sess.probeBad)
	}
	if sess.probeBad > 0 {
		rec.Checks = append(rec.Checks, fmt.Sprintf("%d of %d probe queries disagree with core.RunTree over the acknowledged points",
			sess.probeBad, sess.probeOK+sess.probeBad))
	}
	var ingestMS, queryMS []float64
	for _, r := range sess.ingests {
		rec.attempt(r.ok)
		ingestMS = append(ingestMS, float64(r.recv.Sub(r.due))/1e6)
	}
	for _, r := range sess.queries {
		rec.attempt(r.ok)
		queryMS = append(queryMS, float64(r.recv.Sub(r.due))/1e6)
	}
	fresh, uncovered := freshness(sess.ingests, sess.queries)
	rec.check(uncovered == 0, "%d acknowledged batches were never seen covered by a query answer", uncovered)
	late := percentile(sess.genLate, tailPercentile(len(sess.genLate)))
	rec.check(late <= genLateLimitMS, "invalid run: the generator woke %.1f ms late at its p%g (limit %.0f ms)", late, tailPercentile(len(sess.genLate)), genLateLimitMS)
	cliRSS := summarize(rss).Median
	rec.Notes = append(rec.Notes, fmt.Sprintf("generator backlog at the end of the ingest schedule: %d requests", sess.backlogEnd),
		fmt.Sprintf("peak RSS: cmd/mrcc %.1f MB (median of %d), mrcc-serve %.1f MB", cliRSS, len(rss), sess.rssMB))

	if !o.trace {
		rec.add("wall_s", "s", walls, "cmd/mrcc exec to exit, labels written")
		rec.Metrics = append(rec.Metrics, metric{Name: "peak_rss_mb", Unit: "MB", Value: cliRSS + sess.rssMB, Summary: summarize(rss),
			Note: "cmd/mrcc max RSS (median; quartiles shown) + mrcc-serve max RSS over its session"})
		rec.add("setup_s", "s", setups, "mrcc-serve exec to first 200 from /readyz")
		rec.addTail("ingest_p50_ms", "ms", ingestMS, 50)
		rec.addTail("query_p50_ms", "ms", queryMS, 50)
		rec.addTail("freshness_p50_s", "s", fresh, 50)
		rec.addTail("freshness_p99_s", "s", fresh, 99)
		return rec, rec.reports(endToEnd)
	}

	// Traced run: per-layer metrics from the in-process passes and an
	// in-process replay of the session.
	rec.tracer = tr
	var acked [][][]float64
	for i, r := range sess.ingests {
		if r.ok {
			acked = append(acked, st.batches[i])
		}
	}
	layers, err := replayServe(tr, st, acked, int(sess.stats.Counters.Reclusters)-1, int(sess.stats.Counters.Checkpoints), filepath.Join(work, "replay"))
	if err != nil {
		return nil, fmt.Errorf("in-process service replay: %w", err)
	}
	var shares []float64
	for i, p := range passes {
		for k, v := range p.layers {
			layers[k] = append(layers[k], v)
		}
		shares = append(shares, p.layers["bench.unattributed_s"]/p.layers["bench.traced_wall_s"])
		off := attributionGap(p.selfSum, p.clock)
		rec.check(off <= attributionTolerance, "FLAG: pass %d: layer self times plus bench.unattributed_s sum to %v, the traced wall is %v (%.1f%% apart, tolerance %.0f%%)",
			i, p.selfSum, p.clock, 100*off, 100*attributionTolerance)
	}
	if share := summarize(shares).Median; share > unattributedNote {
		rec.Notes = append(rec.Notes, fmt.Sprintf("%.1f%% of the traced wall lies outside the named layers (median of %d passes): the label write, which is no library layer",
			100*share, len(shares)))
	}
	rec.SelfTimes = map[string]float64{}
	self := selfTimes(tr.spans)
	cliSelf := map[string][]float64{}
	for i := range passes {
		for name, d := range selfByName(tr.spans, self, fmt.Sprintf("cli#%d", i)) {
			cliSelf[name] = append(cliSelf[name], d.Seconds())
		}
	}
	for name, xs := range cliSelf {
		rec.SelfTimes[name] = summarize(xs).Median
	}
	for name, d := range selfByName(tr.spans, self, "serve") {
		rec.SelfTimes[name] = d.Seconds()
	}
	traced := summarize(layers["bench.traced_wall_s"]).Median
	layers["bench.trace_overhead_s"] = []float64{traced - summarize(walls).Median}
	layers["serve.reclusters"] = []float64{float64(sess.stats.Counters.Reclusters)}
	layers["serve.checkpoints"] = []float64{float64(sess.stats.Counters.Checkpoints)}
	layers["serve.shed"] = []float64{float64(sess.stats.Counters.SheddedRequests)}
	// The session's request tails differed between runs by more than any
	// bound allows, so they are reported here, unbounded: the p99s rest on
	// the few stalls one session meets, and the p95s stretch with the
	// machine's speed and with load from outside the benchmark.
	tails := map[string]struct {
		xs []float64
		p  float64
	}{
		"ingest_p95_ms": {ingestMS, 95}, "ingest_p99_ms": {ingestMS, 99},
		"query_p95_ms": {queryMS, 95}, "query_p99_ms": {queryMS, 99}, "gen.late_p99_ms": {sess.genLate, 99},
	}
	for _, m := range perLayer {
		if t, ok := tails[m.name]; ok {
			rec.addTail(m.name, m.unit, t.xs, t.p)
			continue
		}
		if m.name == "error_rate" {
			continue
		}
		samples, ok := layers[m.name]
		if !ok {
			return nil, fmt.Errorf("traced run measured no %s", m.name)
		}
		rec.add(m.name, m.unit, samples, "")
	}
	rec.add("error_rate", "ratio", []float64{float64(rec.Failed) / float64(rec.Attempted)}, "failed / attempted, this run")
	return rec, rec.reports(perLayer)
}

// reports checks that the record holds exactly the listed metrics, in
// order, with the listed units.
func (r *record) reports(want []metricName) error {
	if len(r.Metrics) != len(want) {
		return fmt.Errorf("run reports %d metrics, want %d", len(r.Metrics), len(want))
	}
	for i, m := range r.Metrics {
		if m.Name != want[i].name || m.Unit != want[i].unit {
			return fmt.Errorf("metric %d is %s (%s), want %s (%s)", i, m.Name, m.Unit, want[i].name, want[i].unit)
		}
	}
	return nil
}

type metricName struct{ name, unit string }

// endToEnd lists the untraced run's metrics, in report order.
var endToEnd = []metricName{
	{"wall_s", "s"}, {"peak_rss_mb", "MB"}, {"setup_s", "s"},
	{"ingest_p50_ms", "ms"}, {"query_p50_ms", "ms"},
	{"freshness_p50_s", "s"}, {"freshness_p99_s", "s"},
}

// perLayer lists the traced run's metrics, in report order.
var perLayer = []metricName{
	{"dataset.parse_s", "s"}, {"dataset.parse_mb_per_s", "MB/s"}, {"dataset.normalize_s", "s"},
	{"ctree.build_s", "s"}, {"ctree.build_mpts_per_s", "Mpts/s"},
	{"ctree.cells", "count"}, {"ctree.arena_mb", "MB"}, {"ctree.radix_chunks", "count"},
	{"ctree.index_s", "s"}, {"ctree.index_mb", "MB"},
	{"core.run_s", "s"}, {"core.search_s", "s"}, {"core.scan_s", "s"}, {"core.beta_test_s", "s"},
	{"core.merge_s", "s"}, {"core.label_s", "s"},
	{"core.mask_evals", "count"}, {"core.index_lookups", "count"}, {"core.lookups_per_eval", "ratio"},
	{"core.scan_passes", "count"}, {"core.beta_tests", "count"}, {"core.beta_accept_ratio", "ratio"},
	{"bench.unattributed_s", "s"}, {"bench.traced_wall_s", "s"}, {"bench.trace_overhead_s", "s"},
	{"treeio.load_s", "s"}, {"wal.replay_s", "s"}, {"core.first_view_s", "s"},
	{"wal.append_ms", "ms"}, {"ctree.insert_batch_ms", "ms"}, {"ctree.clone_ms", "ms"},
	{"core.recluster_s", "s"}, {"treeio.save_s", "s"},
	{"serve.reclusters", "count"}, {"serve.checkpoints", "count"}, {"serve.shed", "count"},
	{"ingest_p95_ms", "ms"}, {"ingest_p99_ms", "ms"}, {"query_p95_ms", "ms"}, {"query_p99_ms", "ms"},
	{"gen.late_p99_ms", "ms"}, {"error_rate", "ratio"},
}

func short(digest string) string {
	if len(digest) > 12 {
		return digest[:12]
	}
	return digest
}

// removeStaleWork deletes work directories left by runs that were
// killed; their names end in the owning process ID.
func removeStaleWork(dir string) {
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		i := strings.LastIndexByte(e.Name(), '-')
		pid, err := strconv.Atoi(e.Name()[i+1:])
		if err == nil && syscall.Kill(pid, 0) == nil {
			continue // a live run
		}
		os.RemoveAll(filepath.Join(dir, e.Name()))
	}
}

// cpuStat is the machine-wide CPU time from /proc/stat, in clock ticks.
type cpuStat struct{ steal, total uint64 }

// cpuTimes reads the machine's CPU times. Steal is time a virtual
// machine was ready to run while its host ran other guests: it slows
// every timing of a run without any change to the program.
func cpuTimes() (cpuStat, error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuStat{}, err
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return cpuStat{}, fmt.Errorf("/proc/stat: unexpected first line %q", line)
	}
	var c cpuStat
	for i := 1; i <= 8; i++ { // user nice system idle iowait irq softirq steal
		v, err := strconv.ParseUint(f[i], 10, 64)
		if err != nil {
			return cpuStat{}, err
		}
		c.total += v
	}
	c.steal, _ = strconv.ParseUint(f[8], 10, 64)
	return c, nil
}

// warmRead reads the file once, leaving it in the page cache, and
// returns its size.
func warmRead(path string) (int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	return io.Copy(io.Discard, f)
}

// revision identifies the measured source: the git commit when the
// checkout is a repository, otherwise a digest of its Go sources.
func revision(root string) string {
	if _, err := os.Stat(filepath.Join(root, ".git")); err == nil {
		if out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
			return "git " + strings.TrimSpace(string(out))
		}
	}
	var files []string
	filepath.WalkDir(root, func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if e.IsDir() && strings.HasPrefix(e.Name(), ".") && path != root {
			return filepath.SkipDir
		}
		if !e.IsDir() && (strings.HasSuffix(path, ".go") || e.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, f)
		fmt.Fprintf(h, "%s %d\n", rel, len(b))
		h.Write(b)
	}
	return "source-sha256 " + hex.EncodeToString(h.Sum(nil))[:16]
}
