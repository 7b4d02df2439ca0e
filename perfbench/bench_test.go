package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"
)

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{10000, 99.9}, {9999, 99}, {1000, 99}, {999, 95}, {200, 95},
		{199, 90}, {100, 90}, {99, 75}, {40, 75}, {39, 50}, {19, 50}, {0, 50},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(1000 - i) // descending: percentile must sort
	}
	for p, want := range map[float64]float64{50: 500, 99: 990, 99.9: 999, 100: 1000} {
		if got := percentile(xs, p); got != want {
			t.Errorf("percentile(1..1000, %g) = %g, want %g", p, got, want)
		}
	}
	// At the chosen tail percentile exactly ten samples lie above it.
	p := tailPercentile(len(xs))
	above := 0
	for _, x := range xs {
		if x > percentile(xs, p) {
			above++
		}
	}
	if above != 10 {
		t.Errorf("%d samples above p%g, want 10", above, p)
	}
}

// TestSummarizeMatchesPython pins the quartiles to Python's
// statistics.quantiles(xs, n=4), which the spread checks use.
func TestSummarizeMatchesPython(t *testing.T) {
	for _, c := range []struct {
		xs        []float64
		q1, m, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{5, 4, 3, 2, 1}, 1.5, 3, 4.5},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{7}, 7, 7, 7},
	} {
		s := summarize(c.xs)
		if s.Q1 != c.q1 || s.Median != c.m || s.Q3 != c.q3 || s.N != len(c.xs) {
			t.Errorf("summarize(%v) = %+v, want q1 %g median %g q3 %g", c.xs, s, c.q1, c.m, c.q3)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	spans := []span{
		{ID: 0, Parent: -1, Name: "root", Start: ms(0), End: ms(10)},
		{ID: 1, Parent: 0, Name: "a", Start: ms(1), End: ms(3)},
		{ID: 2, Parent: 0, Name: "b", Start: ms(2), End: ms(5)},  // overlaps a
		{ID: 3, Parent: 0, Name: "c", Start: ms(8), End: ms(12)}, // runs past the root
		{ID: 4, Parent: 2, Name: "b1", Start: ms(3), End: ms(4)},
	}
	self := selfTimes(spans)
	want := []time.Duration{ms(4), ms(2), ms(2), ms(4), ms(1)}
	for i := range want {
		if self[i] != want[i] {
			t.Errorf("self time of %s = %v, want %v", spans[i].Name, self[i], want[i])
		}
	}
	// Without overlap the self times add up to the root's duration.
	tree := []span{
		{ID: 0, Parent: -1, Start: ms(0), End: ms(100)},
		{ID: 1, Parent: 0, Start: ms(0), End: ms(40)},
		{ID: 2, Parent: 1, Start: ms(5), End: ms(30)},
		{ID: 3, Parent: 0, Start: ms(50), End: ms(90)},
	}
	var sum time.Duration
	for _, d := range selfTimes(tree) {
		sum += d
	}
	if sum != ms(100) {
		t.Errorf("self times sum to %v, want the root's 100ms", sum)
	}
	if gap := attributionGap(sumSelf(tree, 0), ms(100)); gap != 0 {
		t.Errorf("well-nested spans: attribution gap %g, want 0", gap)
	}
	// Overlapping and overflowing children are counted twice, so the
	// attribution check fails on them.
	if gap := attributionGap(sumSelf(spans, 0), ms(10)); gap <= attributionTolerance {
		t.Errorf("overlapping spans: attribution gap %g passes the %g tolerance", gap, attributionTolerance)
	}
}

func TestTracerNamesSelfTimesPerRun(t *testing.T) {
	tr := newTracer()
	root := tr.begin("r1", "cli", -1)
	tr.add("r1", "core.scan", root, tr.spans[root].Start, tr.spans[root].Start)
	tr.end(root)
	other := tr.begin("r2", "cli", -1)
	tr.end(other)
	by := selfByName(tr.spans, selfTimes(tr.spans), "r1")
	if len(by) != 2 || by["cli"] != tr.spans[root].dur() {
		t.Errorf("selfByName(r1) = %v", by)
	}
}

func TestCanonicalDigest(t *testing.T) {
	// Generation order: rows 0, 1, 2 labelled 5, -1, 7. The CSV wrote
	// them as rows 2, 0, 1.
	want := digest([]byte("5\n-1\n7\n"))
	got, err := canonicalDigest([]byte("7\n5\n-1\n"), []int{2, 0, 1})
	if err != nil || got != want {
		t.Fatalf("canonicalDigest = %s, %v; want %s", got, err, want)
	}
	same, _ := canonicalDigest([]byte("5\n-1\n7\n"), []int{0, 1, 2})
	if same != want {
		t.Errorf("identity order digest %s, want %s", same, want)
	}
	changed, _ := canonicalDigest([]byte("7\n5\n5\n"), []int{2, 0, 1})
	if changed == want {
		t.Error("a changed label kept the reference digest")
	}
	if _, err := canonicalDigest([]byte("7\n5\n"), []int{2, 0, 1}); err == nil {
		t.Error("a labels file with a missing row passed")
	}
	if _, err := canonicalDigest([]byte("7\n5\n-1"), []int{2, 0, 1}); err == nil {
		t.Error("a labels file without its final newline passed")
	}
}

func TestReferenceDigestsCoverWorkloads(t *testing.T) {
	for _, w := range workloads {
		if len(referenceDigests[w.name]) != 64 {
			t.Errorf("workload %s has no committed labels digest", w.name)
		}
		if session.staged+session.tail > w.gen.Points {
			t.Errorf("workload %s: session stages %d points, the dataset has %d", w.name, session.staged+session.tail, w.gen.Points)
		}
	}
}

func TestFreshness(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	ingests := []request{
		{due: at(0), ok: true, total: 100},
		{due: at(10), ok: true, total: 200},
		{due: at(20), ok: false},
		{due: at(30), ok: true, total: 300},
	}
	queries := []request{
		{recv: at(50), ok: true, viewPoints: 100},
		{recv: at(60), ok: false, viewPoints: 0},
		{recv: at(70), ok: true, viewPoints: 200},
	}
	fresh, uncovered := freshness(ingests, queries)
	if uncovered != 1 || len(fresh) != 2 || fresh[0] != 0.05 || fresh[1] != 0.06 {
		t.Errorf("freshness = %v, %d uncovered; want [0.05 0.06], 1", fresh, uncovered)
	}
}

func TestWALBatchRoundTrip(t *testing.T) {
	in := [][]float64{{0.25, 0.5}, {0.75, 0.125}}
	out, err := decodeWALBatch(encodeWALBatch(in))
	if err != nil || len(out) != 2 || out[1][0] != 0.75 || out[0][1] != 0.5 {
		t.Fatalf("round trip = %v, %v", out, err)
	}
	if _, err := decodeWALBatch(encodeWALBatch(in)[:20]); err == nil {
		t.Error("a truncated payload decoded")
	}
}

// TestBenchmarkJSONMatchesCode keeps BENCHMARK.json's workload and
// metric names in step with what the runs report.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the code %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json %q, code %q", i, w.Name, workloads[i].name)
		}
	}
	for _, c := range []struct {
		json []struct{ Name, Unit string }
		code []metricName
	}{{spec.EndToEnd, endToEnd}, {spec.PerLayer, perLayer}} {
		if len(c.json) != len(c.code) {
			t.Fatalf("BENCHMARK.json lists %d metrics, the code %d", len(c.json), len(c.code))
		}
		for i, m := range c.json {
			if m.Name != c.code[i].name || m.Unit != c.code[i].unit {
				t.Errorf("metric %d: BENCHMARK.json %s (%s), code %s (%s)", i, m.Name, m.Unit, c.code[i].name, c.code[i].unit)
			}
		}
	}
}

func TestAddTail(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	xs[500] = 1e6 // a single stall keeps its weight in the whole-session tail
	var r record
	r.addTail("p99", "ms", xs, 99)
	r.addTail("short", "ms", xs[:700], 99)
	r.addTail("p50", "ms", xs, 50)
	r.addTail("empty", "ms", xs[:19], 99)
	for i, want := range []float64{991, 666, 500} {
		if m := r.Metrics[i]; m.Value != want {
			t.Errorf("%s = %g (%s), want %g", m.Name, m.Value, m.Note, want)
		}
	}
	if note := r.Metrics[1].Note; !strings.HasPrefix(note, "p95 over 700 samples (a p99 needs 1000);") {
		t.Errorf("short tail note %q", note)
	}
	if r.Failed != 1 || len(r.Checks) != 1 {
		t.Errorf("%d failed checks %v, want only the 19-sample tail to fail", r.Failed, r.Checks)
	}
}

// TestPeakRSSReadsOwnImage checks that the peak RSS of a child is its
// own: a child started after the test grew its heap must not inherit
// the test's peak, as rusage's max RSS would.
func TestPeakRSSReadsOwnImage(t *testing.T) {
	grow := make([]byte, 200<<20)
	for i := range grow {
		grow[i] = 1
	}
	own, err := vmHWM(os.Getpid())
	if err != nil || own < 200 {
		t.Fatalf("test process peak %g MB, %v; want at least 200", own, err)
	}
	cmd := exec.Command("sleep", "0.2")
	if err := cmd.Start(); err != nil {
		t.Skip("no sleep command:", err)
	}
	done := make(chan struct{})
	peak := make(chan float64)
	go func() { peak <- pollPeakRSS(cmd.Process.Pid, done) }()
	cmd.Wait()
	close(done)
	if got := <-peak; got <= 0 || got >= 100 {
		t.Errorf("child peak %g MB, want its own few MB", got)
	}
	grow[len(grow)-1] = 2
}

func TestCPUTimes(t *testing.T) {
	c, err := cpuTimes()
	if err != nil {
		t.Skip("no /proc/stat:", err)
	}
	if c.total == 0 || c.steal > c.total {
		t.Errorf("cpuTimes = %+v", c)
	}
}
