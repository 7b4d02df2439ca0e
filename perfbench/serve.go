package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"mrcc/internal/core"
	"mrcc/internal/ctree"
	"mrcc/internal/treeio"
	"mrcc/internal/wal"
)

// The service is started with the unit domain declared ("-domain 0:1"),
// which the generated data lies in; normScale is the factor mrcc-serve
// derives from it, so points normalized here are bit-identical to the
// ones the service folds into its tree.
const normScale = (1 - 1e-9) / (1.0 - 0.0)

func normalizePoint(p []float64) []float64 {
	out := make([]float64, len(p))
	for j, v := range p {
		out[j] = (v - 0) * normScale
	}
	return out
}

func normalizeBatch(pts [][]float64) [][]float64 {
	out := make([][]float64, len(pts))
	for i, p := range pts {
		out[i] = normalizePoint(p)
	}
	return out
}

// encodeWALBatch renders a normalized batch in mrcc-serve's WAL record
// payload format: u32 dims, u32 count, then count×dims little-endian
// float64 values.
func encodeWALBatch(pts [][]float64) []byte {
	d := len(pts[0])
	buf := make([]byte, 8+len(pts)*d*8)
	binary.LittleEndian.PutUint32(buf[0:4], uint32(d))
	binary.LittleEndian.PutUint32(buf[4:8], uint32(len(pts)))
	off := 8
	for _, p := range pts {
		for _, v := range p {
			binary.LittleEndian.PutUint64(buf[off:], math.Float64bits(v))
			off += 8
		}
	}
	return buf
}

func decodeWALBatch(b []byte) ([][]float64, error) {
	if len(b) < 8 {
		return nil, fmt.Errorf("wal payload of %d bytes", len(b))
	}
	d := int(binary.LittleEndian.Uint32(b[0:4]))
	n := int(binary.LittleEndian.Uint32(b[4:8]))
	if d < 1 || len(b) != 8+n*d*8 {
		return nil, fmt.Errorf("wal payload of %d bytes does not hold %d×%d values", len(b), n, d)
	}
	pts := make([][]float64, n)
	off := 8
	for i := range pts {
		pts[i] = make([]float64, d)
		for j := range pts[i] {
			pts[i][j] = math.Float64frombits(binary.LittleEndian.Uint64(b[off:]))
			off += 8
		}
	}
	return pts, nil
}

// stage is the service session's input, prepared before any timing:
// the warm-start snapshot and WAL tail on disk, the request bodies,
// and the in-process tree that the closing check grows from the
// acknowledged batches.
type stage struct {
	dir      string // tree.snap and wal/
	dims     int
	staged   int           // points in the snapshot
	tailRecs int           // WAL records in the staged tail
	oracle   *ctree.Tree   // staged snapshot + tail; grown by the acknowledged batches
	batches  [][][]float64 // raw points of each ingest request
	bodies   [][]byte
	queries  []string // p= values of the query stream
	probes   [][]float64
}

func buildStage(dir string, pts [][]float64, spec serveSpec, ingests, queries int, seed int64) (*stage, error) {
	n := len(pts)
	if spec.staged+spec.tail > n {
		return nil, fmt.Errorf("session stages %d points, the dataset has %d", spec.staged+spec.tail, n)
	}
	d := len(pts[0])
	st := &stage{dir: dir, dims: d, staged: spec.staged}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	t := ctree.New(d, core.DefaultH)
	if err := t.InsertBatch(normalizeBatch(pts[:spec.staged])); err != nil {
		return nil, err
	}
	if _, err := treeio.SaveFileCheckpoint(filepath.Join(dir, "tree.snap"), t, 0); err != nil {
		return nil, err
	}
	l, err := wal.Open(filepath.Join(dir, "wal"), wal.Options{Sync: wal.SyncNone})
	if err != nil {
		return nil, err
	}
	end := spec.staged + spec.tail
	for lo := spec.staged; lo < end; lo += spec.batch {
		b := normalizeBatch(pts[lo:min(lo+spec.batch, end)])
		if _, err := l.Append(encodeWALBatch(b)); err != nil {
			l.Close()
			return nil, err
		}
		if err := t.InsertBatch(b); err != nil {
			l.Close()
			return nil, err
		}
		st.tailRecs++
	}
	if err := l.Sync(); err != nil {
		l.Close()
		return nil, err
	}
	if err := l.Close(); err != nil {
		return nil, err
	}
	st.oracle = t
	for i := 0; i < ingests; i++ {
		b := make([][]float64, spec.batch)
		for k := range b {
			b[k] = append([]float64(nil), pts[(end+i*spec.batch+k)%n]...)
		}
		body, err := json.Marshal(b)
		if err != nil {
			return nil, err
		}
		st.batches = append(st.batches, b)
		st.bodies = append(st.bodies, body)
	}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < queries; i++ {
		st.queries = append(st.queries, formatPoint(pts[rng.Intn(n)]))
	}
	// The probe set: points of the data, which mostly land in clusters,
	// and uniform points, which mostly do not.
	for i := 0; i < 192; i++ {
		st.probes = append(st.probes, append([]float64(nil), pts[rng.Intn(n)]...))
	}
	for i := 0; i < 64; i++ {
		p := make([]float64, d)
		for j := range p {
			p[j] = rng.Float64()
		}
		st.probes = append(st.probes, p)
	}
	return st, nil
}

func formatPoint(p []float64) string {
	parts := make([]string, len(p))
	for j, v := range p {
		parts[j] = strconv.FormatFloat(v, 'g', -1, 64)
	}
	return strings.Join(parts, ",")
}

// copyTree copies the regular files under src to dst.
func copyTree(src, dst string) error {
	return filepath.WalkDir(src, func(path string, e os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		to := filepath.Join(dst, rel)
		if e.IsDir() {
			return os.MkdirAll(to, 0o755)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(to, b, 0o644)
	})
}

// service is one running mrcc-serve process.
type service struct {
	cmd  *exec.Cmd
	base string        // http://host:port
	done chan struct{} // closed once the process has been reaped
	err  error         // Wait's result, valid after done
}

func newClient() *http.Client {
	return &http.Client{
		Timeout: 10 * time.Second,
		Transport: &http.Transport{
			Proxy:               nil,
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		},
	}
}

// startService boots mrcc-serve on a private copy of the staged state
// and returns once /readyz first answers 200, with the time from exec
// to that answer.
func startService(bin string, st *stage, dir string, ctl *http.Client) (*service, time.Duration, error) {
	if err := copyTree(st.dir, dir); err != nil {
		return nil, 0, err
	}
	out, err := os.Create(filepath.Join(dir, "stdout"))
	if err != nil {
		return nil, 0, err
	}
	defer out.Close()
	errf, err := os.Create(filepath.Join(dir, "stderr"))
	if err != nil {
		return nil, 0, err
	}
	defer errf.Close()
	cmd := exec.Command(bin,
		"-addr", "127.0.0.1:0",
		"-dims", strconv.Itoa(st.dims),
		"-domain", "0:1",
		"-snapshot", filepath.Join(dir, "tree.snap"),
		"-wal-dir", filepath.Join(dir, "wal"),
		"-fsync", "interval",
		"-checkpoint-every", checkpointEvery.String(),
		"-recluster-every", "0",
		"-recluster-points", strconv.Itoa(reclusterPoints),
		"-workers", strconv.Itoa(serveWorkers),
		"-quiet")
	cmd.Dir = dir
	cmd.Stdout, cmd.Stderr = out, errf
	// If the benchmark itself is killed, the service goes with it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, err
	}
	s := &service{cmd: cmd, done: make(chan struct{})}
	go func() {
		s.err = cmd.Wait()
		close(s.done)
	}()
	deadline := start.Add(60 * time.Second)
	for s.base == "" {
		select {
		case <-s.done:
			eb, _ := os.ReadFile(errf.Name())
			return nil, 0, fmt.Errorf("mrcc-serve exited during boot: %v: %s", s.err, bytes.TrimSpace(eb))
		default:
		}
		if time.Now().After(deadline) {
			s.kill()
			return nil, 0, errors.New("mrcc-serve printed no listen address within 60s")
		}
		b, _ := os.ReadFile(out.Name())
		if _, rest, ok := strings.Cut(string(b), "listening on "); ok && strings.Contains(rest, "\n") {
			s.base = "http://" + strings.TrimSpace(strings.SplitN(rest, "\n", 2)[0])
			break
		}
		time.Sleep(time.Millisecond)
	}
	for {
		if time.Now().After(deadline) {
			s.kill()
			return nil, 0, errors.New("mrcc-serve not ready within 60s")
		}
		resp, err := ctl.Get(s.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, time.Since(start), nil
			}
		}
		time.Sleep(time.Millisecond)
	}
}

// kill ends the process at once and waits until it is reaped.
func (s *service) kill() {
	s.cmd.Process.Kill()
	<-s.done
}

// stop reads the service's peak RSS over its life so far, in MB, and
// shuts it down gracefully (SIGTERM: drain, final checkpoint).
func (s *service) stop() (float64, error) {
	rss, err := vmHWM(s.cmd.Process.Pid)
	if err != nil {
		s.kill()
		return 0, err
	}
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		s.kill()
		return 0, err
	}
	select {
	case <-s.done:
	case <-time.After(60 * time.Second):
		s.kill()
		return 0, errors.New("mrcc-serve did not shut down within 60s")
	}
	if s.err != nil {
		return 0, fmt.Errorf("mrcc-serve shutdown: %w", s.err)
	}
	return rss, nil
}

// request is one request of the open-loop schedule.
type request struct {
	due, sent, recv time.Time
	ok              bool
	total           int64 // ingest: acknowledged totalPoints
	viewPoints      int   // query: points of the answering view
}

// sessionResult is what the service session measured.
type sessionResult struct {
	setup      float64 // seconds from exec to ready
	rssMB      float64
	ingests    []request
	queries    []request
	genLate    []float64 // ms the generator woke after a due time
	backlogEnd int       // requests due by the end of the ingest schedule but not yet sent then
	stats      statsDoc
	probeOK    int
	probeBad   int
	checks     []string // failed checks
}

// statsDoc is the part of GET /stats the benchmark reads.
type statsDoc struct {
	View *struct {
		Points int `json:"points"`
	} `json:"view"`
	Counters struct {
		Reclusters      int64 `json:"reclusters"`
		Checkpoints     int64 `json:"checkpoints"`
		SheddedRequests int64 `json:"sheddedRequests"`
		WALReplayed     int64 `json:"walReplayed"`
	} `json:"counters"`
}

func getJSON(c *http.Client, url string, v any) error {
	resp, err := c.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body) // keeps the connection reusable
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// timeBoot boots mrcc-serve once, kills it as soon as it is ready, and
// returns the seconds from exec to ready.
func timeBoot(bin string, st *stage, dir string, ctl *http.Client) (float64, error) {
	s, setup, err := startService(bin, st, dir, ctl)
	if err != nil {
		return 0, err
	}
	s.kill()
	return setup.Seconds(), os.RemoveAll(dir)
}

// runSession boots the service in dir and drives it with the open-loop
// schedule: ingest and query streams over one connection each, both
// timed from their due times. It ends with a closing POST /recluster,
// the probe check against the in-process tree, and a graceful stop.
func runSession(bin string, st *stage, spec serveSpec, dir string, ctl *http.Client, length time.Duration) (*sessionResult, error) {
	res := &sessionResult{}
	svc, setup, err := startService(bin, st, dir, ctl)
	if err != nil {
		return nil, err
	}
	res.setup = setup.Seconds()
	defer svc.kill()

	// The generator must not perturb the service: collect the benchmark's
	// own garbage now and keep its collector off while the schedule runs
	// (the session allocates a few tens of MB).
	runtime.GC()
	debug.FreeOSMemory()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))

	ingestEvery := time.Duration(float64(time.Second) / spec.ingestRate)
	queryEvery := time.Duration(float64(time.Second) / spec.queryRate)
	t0 := time.Now().Add(20 * time.Millisecond)
	scheduleEnd := t0.Add(time.Duration(len(st.bodies)-1) * ingestEvery)
	drainUntil := t0.Add(length + 20*time.Second)
	ing, qry := newClient(), newClient()
	defer ing.CloseIdleConnections()
	defer qry.CloseIdleConnections()

	var (
		mu         sync.Mutex
		finalTotal int64 = -1 // set once the last ingest answered
		lastView   int
	)
	var wg sync.WaitGroup
	wg.Add(2)
	var ingLate, qryLate []float64
	go func() {
		defer wg.Done()
		var maxTotal int64
		for i, body := range st.bodies {
			r := request{due: t0.Add(time.Duration(i) * ingestEvery)}
			if late, ok := waitUntil(r.due); ok {
				ingLate = append(ingLate, late)
			}
			r.sent = time.Now()
			var ack struct {
				TotalPoints int64 `json:"totalPoints"`
			}
			r.ok = post(ing, svc.base+"/ingest", body, &ack) == nil
			r.recv = time.Now()
			r.total = ack.TotalPoints
			maxTotal = max(maxTotal, ack.TotalPoints)
			res.ingests = append(res.ingests, r)
		}
		// The closing re-cluster: the last batches may sit below the
		// point trigger, so ask for a pass that covers them.
		post(ctl, svc.base+"/recluster", nil, nil)
		mu.Lock()
		finalTotal = maxTotal
		mu.Unlock()
	}()
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			r := request{due: t0.Add(time.Duration(i) * queryEvery)}
			mu.Lock()
			covered := finalTotal >= 0 && int64(lastView) >= finalTotal
			mu.Unlock()
			if (i >= len(st.queries) && covered) || r.due.After(drainUntil) {
				return
			}
			if late, ok := waitUntil(r.due); ok {
				qryLate = append(qryLate, late)
			}
			r.sent = time.Now()
			var ans struct {
				ViewPoints int `json:"viewPoints"`
			}
			r.ok = getJSON(qry, svc.base+"/query?p="+st.queries[i%len(st.queries)], &ans) == nil
			r.recv = time.Now()
			r.viewPoints = ans.ViewPoints
			if r.ok {
				mu.Lock()
				lastView = ans.ViewPoints
				mu.Unlock()
			}
			res.queries = append(res.queries, r)
		}
	}()
	wg.Wait()
	res.genLate = append(ingLate, qryLate...)
	for _, rs := range [][]request{res.ingests, res.queries} {
		for _, r := range rs {
			if !r.due.After(scheduleEnd) && r.sent.After(scheduleEnd) {
				res.backlogEnd++
			}
		}
	}

	// Check (c): once a view covers every acknowledged point, the
	// service must answer the probe set exactly as core.RunTree does
	// over a tree built in-process from the same points.
	for i, r := range res.ingests {
		if r.ok {
			if err := st.oracle.InsertBatch(normalizeBatch(st.batches[i])); err != nil {
				return nil, err
			}
		}
	}
	if err := waitForView(ctl, svc.base, st.oracle.Eta); err != nil {
		res.checks = append(res.checks, err.Error())
	} else if err := probeCheck(ctl, svc.base, st, res); err != nil {
		return nil, err
	}
	if err := getJSON(ctl, svc.base+"/stats", &res.stats); err != nil {
		return nil, err
	}
	if res.stats.Counters.WALReplayed != int64(st.tailRecs) {
		res.checks = append(res.checks, fmt.Sprintf("service replayed %d WAL records on boot, the staged tail holds %d",
			res.stats.Counters.WALReplayed, st.tailRecs))
	}
	rss, err := svc.stop()
	if err != nil {
		return nil, err
	}
	res.rssMB = rss
	return res, nil
}

// waitUntil sleeps until t. When it had to sleep, it returns how late
// it woke in ms: lateness of the generator itself, as opposed to a
// request that waits for the previous one on its connection.
func waitUntil(t time.Time) (float64, bool) {
	d := time.Until(t)
	if d <= 0 {
		return 0, false
	}
	time.Sleep(d)
	return float64(time.Since(t)) / 1e6, true
}

func post(c *http.Client, url string, body []byte, v any) error {
	resp, err := c.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		io.Copy(io.Discard, resp.Body)
		return fmt.Errorf("POST %s: %s", url, resp.Status)
	}
	if v == nil {
		_, err = io.Copy(io.Discard, resp.Body)
		return err
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

func waitForView(c *http.Client, base string, points int) error {
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		var s statsDoc
		if err := getJSON(c, base+"/stats", &s); err == nil && s.View != nil && s.View.Points == points {
			return nil
		}
		time.Sleep(5 * time.Millisecond)
	}
	return fmt.Errorf("no published view covered all %d acknowledged points within 60s", points)
}

// probeCheck compares the service's answers for the probe set with the
// in-process clustering of the same tree.
func probeCheck(c *http.Client, base string, st *stage, res *sessionResult) error {
	want, err := core.RunTree(st.oracle, core.Config{Workers: serveWorkers})
	if err != nil {
		return err
	}
	owner := make([]int, len(want.Betas))
	for _, cl := range want.Clusters {
		for _, b := range cl.Betas {
			owner[b] = cl.ID
		}
	}
	for _, p := range st.probes {
		var ans struct {
			Cluster int `json:"cluster"`
		}
		if err := getJSON(c, base+"/query?p="+formatPoint(p), &ans); err != nil {
			return err
		}
		if ans.Cluster == classify(want, owner, normalizePoint(p)) {
			res.probeOK++
		} else {
			res.probeBad++
		}
	}
	return nil
}

// classify assigns a normalized point to the cluster owning the first
// β-cluster box that contains it, the rule labeling and the service
// both apply.
func classify(res *core.Result, owner []int, p []float64) int {
	for bi := range res.Betas {
		b := &res.Betas[bi]
		inside := true
		for j, x := range p {
			if x < b.L[j] || x > b.U[j] {
				inside = false
				break
			}
		}
		if inside {
			return owner[bi]
		}
	}
	return core.Noise
}

// freshness returns, per acknowledged batch, the time from its due time
// to the first query answered by a view that covers it, and how many
// batches no query saw covered.
func freshness(ingests, queries []request) (fresh []float64, uncovered int) {
	var answered []request
	for _, q := range queries {
		if q.ok {
			answered = append(answered, q)
		}
	}
	for _, r := range ingests {
		if !r.ok {
			continue
		}
		// Views only grow, so the answering view's size never decreases
		// along the query stream.
		k := sort.Search(len(answered), func(i int) bool { return int64(answered[i].viewPoints) >= r.total })
		if k == len(answered) {
			uncovered++
			continue
		}
		fresh = append(fresh, answered[k].recv.Sub(r.due).Seconds())
	}
	return fresh, uncovered
}

// replayServe repeats the session's work in-process with a span around
// each library call, in the order mrcc-serve makes them: the snapshot
// load, WAL open and tail replay, the first view, then per acknowledged
// batch the WAL append and tree insert, and, spread evenly over the
// batches, a clone and RunTree as often as the service re-clustered
// after its first view and a clone and checkpoint save as often as it
// checkpointed. (The service's busy loop merges point triggers that
// arrive during a pass, so it re-clusters less often than every
// reclusterPoints points.)
func replayServe(tr *tracer, st *stage, acked [][][]float64, reclusters, checkpoints int, dir string) (map[string][]float64, error) {
	if err := copyTree(st.dir, dir); err != nil {
		return nil, err
	}
	const run = "serve"
	out := make(map[string][]float64)
	rec := func(name string, d time.Duration, scale float64) { out[name] = append(out[name], d.Seconds()*scale) }
	root := tr.begin(run, "serve", -1)
	defer tr.end(root)
	var (
		t   *ctree.Tree
		seq uint64
		err error
	)
	rec("treeio.load_s", tr.timed(run, "treeio.load", root, func() {
		t, seq, _, err = treeio.LoadFileCheckpoint(filepath.Join(dir, "tree.snap"))
	}), 1)
	if err != nil {
		return nil, err
	}
	var l *wal.Log
	rec("wal.replay_s", tr.timed(run, "wal.replay", root, func() {
		l, err = wal.Open(filepath.Join(dir, "wal"), wal.Options{Sync: wal.SyncInterval})
		if err != nil {
			return
		}
		if err = l.EnsureNextSeq(seq + 1); err != nil {
			return
		}
		err = l.Replay(seq, func(s uint64, payload []byte) error {
			pts, err := decodeWALBatch(payload)
			if err != nil {
				return err
			}
			seq = s
			return t.InsertBatch(pts)
		})
	}), 1)
	if l != nil {
		defer l.Close()
	}
	if err != nil {
		return nil, err
	}
	cfg := core.Config{Workers: serveWorkers}
	recluster := func(metric string) error {
		var c *ctree.Tree
		rec("ctree.clone_ms", tr.timed(run, "ctree.clone", root, func() { c = t.Clone() }), 1000)
		rec(metric, tr.timed(run, strings.TrimSuffix(metric, "_s"), root, func() { _, err = core.RunTree(c, cfg) }), 1)
		return err
	}
	if err := recluster("core.first_view_s"); err != nil {
		return nil, err
	}
	// every reports whether batch i is the last before the k-th of n
	// evenly spread events.
	every := func(i, n int) bool {
		return (i+1)*(n+1)/len(acked) != i*(n+1)/len(acked) && i+1 < len(acked)
	}
	reclusters, checkpoints = max(reclusters, 1), max(checkpoints, 1)
	for i, b := range acked {
		norm := normalizeBatch(b)
		rec("wal.append_ms", tr.timed(run, "wal.append", root, func() { seq, err = l.Append(encodeWALBatch(norm)) }), 1000)
		if err != nil {
			return nil, err
		}
		rec("ctree.insert_batch_ms", tr.timed(run, "ctree.insert_batch", root, func() { err = t.InsertBatch(norm) }), 1000)
		if err != nil {
			return nil, err
		}
		if every(i, reclusters) {
			if err := recluster("core.recluster_s"); err != nil {
				return nil, err
			}
		}
		if every(i, checkpoints) {
			var c *ctree.Tree
			rec("ctree.clone_ms", tr.timed(run, "ctree.clone", root, func() { c = t.Clone() }), 1000)
			rec("treeio.save_s", tr.timed(run, "treeio.save", root, func() {
				_, err = treeio.SaveFileCheckpoint(filepath.Join(dir, "tree.snap"), c, seq)
			}), 1)
			if err != nil {
				return nil, err
			}
			if err := l.TruncateTo(seq); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}
