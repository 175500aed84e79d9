// Command perfbench is the warehouse's end-to-end benchmark. It builds the
// paper-scale landscape in-process (landscape.PaperScale, the graph mdwd
// serves with -scale paper), drives one of three seeded closed-loop
// workloads through httpapi.Server.ServeHTTP, checks every response against
// an oracle and prints one JSON result line last.
//
//	python3 perfbench/run.py --workload browse --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics. With --trace 1
// the run measures half its time untraced and half traced, and the result
// carries the per-layer metrics read from the traced half's spans, plus the
// tracing overhead. Workloads, metrics and predictions are described in
// perfbench/README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http/httptest"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"mdw/internal/core"
	"mdw/internal/dbpedia"
	"mdw/internal/httpapi"
	"mdw/internal/landscape"
	"mdw/internal/obs"
	"mdw/internal/rescache"
)

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	small    bool // landscape.Small() instead of PaperScale(); tests only
	corrupt  bool
	workDir  string
}

func main() {
	var cfg config
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "browse, analytics or write_read")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed; it chooses the request stream only")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "measured seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 reports per-layer metrics from a traced run")
	flag.BoolVar(&cfg.corrupt, "corrupt-oracle", false, "perturb every oracle's ground truth; the run must then fail")
	flag.StringVar(&cfg.workDir, "workdir", ".bench_build", "directory for the span file and write_read's data directory")
	flag.Parse()
	cfg.trace = traceFlag == 1

	res, err := run(cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// Result is the last line the benchmark prints.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// Metric is one measured value with its unit.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// workload is one request mix. step performs one closed-loop operation
// and records its latency; prepare, warmup and finish run untimed.
type workload interface {
	clients() int
	// round is the number of operations a client always completes
	// together: a phase runs whole rounds (see loop), so every run
	// measures the same mix.
	round() int
	classes() []string
	prepare(b *bench) error
	warmup(b *bench, cs []*client)
	step(b *bench, c *client)
	finish(b *bench) error
	// report adds the workload's own end-to-end metrics (printed, not
	// part of the result line) and per-layer metrics.
	report(b *bench, e2e, layers map[string]Metric)
}

func newWorkload(name string) (workload, error) {
	switch name {
	case "browse":
		return &browse{}, nil
	case "analytics":
		return &analytics{}, nil
	case "write_read":
		return &writeRead{}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want browse, analytics or write_read)", name)
}

// client is one closed-loop caller with its own seeded stream.
type client struct {
	rng   *rand.Rand
	n     int
	state any // the workload's per-client stream state
}

func newClients(seed int64, n int) []*client {
	cs := make([]*client, n)
	for i := range cs {
		cs[i] = &client{rng: rand.New(rand.NewSource(seed*7919 + int64(i)))}
	}
	return cs
}

// bench is the state of one run.
type bench struct {
	cfg   config
	out   io.Writer
	l     *landscape.Landscape
	w     *core.Warehouse
	srv   *httpapi.Server
	setup setupTimes
	heap  float64

	tr  *tracer // set during the traced phase only
	rec *recorder

	attempted atomic.Int64
	failed    atomic.Int64
	errMu     sync.Mutex
	errs      []string
}

// fail counts a failed or wrong response; the first few are kept for
// stderr.
func (b *bench) fail(format string, args ...any) {
	b.failed.Add(1)
	b.errMu.Lock()
	defer b.errMu.Unlock()
	if len(b.errs) < 10 {
		b.errs = append(b.errs, fmt.Sprintf(format, args...))
	}
}

// recorder holds one phase's latency samples, in milliseconds per class.
type recorder struct {
	mu      sync.Mutex
	samples map[string][]float64
	ops     int
}

func newRecorder() *recorder { return &recorder{samples: map[string][]float64{}} }

func (r *recorder) add(class string, d time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.samples[class] = append(r.samples[class], float64(d)/1e6)
	r.ops++
}

// op is one operation in flight. In the traced phase it owns a request id
// and a reserved root span that its calls hang below.
type op struct {
	b     *bench
	req   uint64
	root  uint64
	start time.Time
}

func (b *bench) begin() *op {
	o := &op{b: b, start: time.Now()}
	if b.tr != nil {
		o.req, o.root = b.tr.newReq(), b.tr.reserve()
	}
	return o
}

// end records the operation's latency under class.
func (o *op) end(class string) {
	o.b.rec.add(class, o.done("op "+class))
}

// done closes the operation's root span without recording a latency
// sample (for housekeeping requests such as checkpoints).
func (o *op) done(name string) time.Duration {
	d := time.Since(o.start)
	if o.b.tr != nil {
		o.b.tr.add(o.root, o.req, 0, name, o.start, o.start.Add(d), nil)
	}
	return d
}

// span times fn, a direct call into one of the program's public functions,
// under a span of the benchmark's own. It is called after end, so the call
// is not part of the operation's latency; the span is a second root of the
// operation's request.
func (o *op) span(name string, fn func()) {
	t0 := time.Now()
	fn()
	if o.b.tr != nil {
		o.b.tr.add(0, o.req, 0, name, t0, time.Now(), nil)
	}
}

// call serves one request in-process and returns the recorded response
// once its last byte is written. In the traced phase the program's own
// trace of the request is grafted below a span around the call.
func (o *op) call(method, target, body string) *httptest.ResponseRecorder {
	o.b.attempted.Add(1)
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req := httptest.NewRequest(method, target, rd)
	rec := httptest.NewRecorder()
	t0 := time.Now()
	o.b.srv.ServeHTTP(rec, req)
	t1 := time.Now()
	if o.b.tr != nil {
		id := o.b.tr.add(0, o.req, o.root, "httpapi.ServeHTTP", t0, t1,
			map[string]string{"response_bytes": strconv.Itoa(rec.Body.Len())})
		if tid, err := strconv.ParseUint(rec.Header().Get("X-Mdw-Trace"), 10, 64); err == nil {
			if t, ok := obs.DefaultTracer().Get(tid); ok {
				o.b.tr.graft(o.req, id, t)
			}
		}
	}
	return rec
}

// decode checks the status and unmarshals a JSON response.
func decode(rec *httptest.ResponseRecorder, v any) error {
	if rec.Code != 200 {
		return fmt.Errorf("status %d: %.200s", rec.Code, rec.Body.String())
	}
	return json.Unmarshal(rec.Body.Bytes(), v)
}

// setupTimes is the warehouse build split, in seconds.
type setupTimes struct {
	total, generate, staging, reason, textindex float64
}

// histSum reads one of the program's latency histograms (total seconds,
// observations).
func histSum(name string, kv ...string) (float64, int64) {
	h := obs.Default().Histogram(name, nil, kv...)
	return h.Sum(), h.Count()
}

func reasonSeconds() (float64, int64) { return histSum("mdw_reason_materialize_seconds") }

func textindexSeconds(kind string) (float64, int64) {
	return histSum("mdw_textindex_build_seconds", "kind", kind)
}

// seed fills an empty warehouse exactly as `mdwd -scale paper` does. The
// landscape generation and the load calls are timed by the benchmark; the
// entailment and text-index builds inside the load calls are read from
// the program's histograms, and the remainder of the load is staging.
func seedWarehouse(w *core.Warehouse, cfg landscape.Config) (*landscape.Landscape, setupTimes, error) {
	var st setupTimes
	t0 := time.Now()
	l := landscape.Generate(cfg)
	t1 := time.Now()
	r0, _ := reasonSeconds()
	f0, _ := textindexSeconds("full")
	d0, _ := textindexSeconds("delta")
	if _, err := w.LoadOntology(l.Ontology); err != nil {
		return nil, st, fmt.Errorf("load ontology: %w", err)
	}
	if _, err := w.LoadExports(l.Exports); err != nil {
		return nil, st, fmt.Errorf("load exports: %w", err)
	}
	w.LoadTriples(l.ExtraTriples())
	w.IntegrateDBpedia(dbpedia.Banking())
	t2 := time.Now()
	r1, _ := reasonSeconds()
	f1, _ := textindexSeconds("full")
	d1, _ := textindexSeconds("delta")
	st.generate = t1.Sub(t0).Seconds()
	st.reason = r1 - r0
	st.textindex = (f1 - f0) + (d1 - d0)
	st.staging = t2.Sub(t1).Seconds() - st.reason - st.textindex
	st.total = t2.Sub(t0).Seconds()
	return l, st, nil
}

func (c config) landscape() landscape.Config {
	if c.small {
		return landscape.Small()
	}
	return landscape.PaperScale()
}

func (c config) scaleName() string {
	if c.small {
		return "small"
	}
	return "paper"
}

// liveHeapMiB is the live heap after a forced collection.
func liveHeapMiB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// warmupSeconds is the length of browse's untimed warm-up loop.
const warmupSeconds = 1.5

func run(cfg config, out io.Writer) (*Result, error) {
	if cfg.seconds <= 0 {
		return nil, errors.New("--seconds must be positive")
	}
	wl, err := newWorkload(cfg.workload)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		return nil, err
	}
	b := &bench{cfg: cfg, out: out, rec: newRecorder()}
	// Remove write_read's data directory on an interrupt too.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	stopSig := make(chan struct{})
	var sigWG sync.WaitGroup
	sigWG.Add(1)
	go func() {
		defer sigWG.Done()
		select {
		case <-sig:
			if wr, ok := wl.(*writeRead); ok {
				wr.removeDir()
			}
			os.Exit(2)
		case <-stopSig:
		}
	}()
	defer func() {
		signal.Stop(sig)
		close(stopSig)
		sigWG.Wait()
	}()
	if wr, ok := wl.(*writeRead); ok {
		defer wr.removeDir()
	}

	if err := wl.prepare(b); err != nil {
		return nil, err
	}
	n := min(wl.clients(), runtime.NumCPU())
	fmt.Fprintf(out, "perfbench config workload=%s seed=%d seconds=%g trace=%v scale=%s clients=%d loop=closed "+
		"rescache=%s gomaxprocs=%d nproc=%d MDW_PARALLELISM=%s fsync=interval\n",
		cfg.workload, cfg.seed, cfg.seconds, cfg.trace, cfg.scaleName(), n, cacheState(),
		runtime.GOMAXPROCS(0), runtime.NumCPU(), envOr("MDW_PARALLELISM", "unset"))

	cs := newClients(cfg.seed, n)
	wl.warmup(b, cs)
	var untraced, traced *recorder
	var elapsed time.Duration
	var c0, c1 counters
	var spans []Span
	if !cfg.trace {
		b.rec = newRecorder()
		elapsed = loop(b, wl, cs, cfg.seconds, wl.round())
		untraced = b.rec
	} else {
		half := cfg.seconds / 2
		b.rec = newRecorder()
		loop(b, wl, cs, half, wl.round())
		untraced = b.rec
		b.rec, b.tr = newRecorder(), newTracer()
		c0 = readCounters()
		elapsed = loop(b, wl, cs, half, wl.round())
		c1 = readCounters()
		traced = b.rec
		fmt.Fprintf(out, "perfbench phases untraced_ops=%d traced_ops=%d\n", untraced.ops, traced.ops)
		spans = b.tr.snapshot()
		if err := b.tr.write(filepath.Join(cfg.workDir, fmt.Sprintf("perfbench-spans-%s-%d.json", cfg.workload, cfg.seed))); err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
		b.tr = nil
	}
	if err := wl.finish(b); err != nil {
		return nil, err
	}

	e2e := map[string]Metric{}
	layers := map[string]Metric{}
	b.rec = untraced
	wl.report(b, e2e, layers)
	res := &Result{Attempted: b.attempted.Load(), Failed: b.failed.Load()}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	measured := untraced
	if cfg.trace {
		measured = traced
	}
	e2e["setup_s"] = Metric{b.setup.total, "s"}
	e2e["heap_mib"] = Metric{b.heap, "MiB"}
	e2e["ops_per_s"] = Metric{float64(measured.ops) / elapsed.Seconds(), "1/s"}
	e2e["failed_ratio"] = Metric{float64(res.Failed) / float64(max(res.Attempted, 1)), "ratio"}
	var p50s, p95s []float64
	for _, class := range wl.classes() {
		xs := untraced.samples[class]
		p50s = append(p50s, percentile(xs, 0.5))
		p95s = append(p95s, percentile(xs, 0.95))
		fmt.Fprintf(out, "perfbench samples class=%s n=%d p50_supported=%v p95_supported=%v min_ms=%.4g max_ms=%.4g\n",
			class, len(xs), supported(len(xs), 0.5), supported(len(xs), 0.95), percentile(xs, 0), percentile(xs, 1))
	}
	e2e["p50_ms"] = Metric{geomean(p50s), "ms"}
	e2e["p95_ms"] = Metric{geomean(p95s), "ms"}
	printMetrics(out, e2e)

	if cfg.trace {
		layerMetrics(b, wl, spans, c0, c1, traced, untraced, layers)
		res.Metrics = pick(layers, perLayerNames)
	} else {
		res.Metrics = pick(e2e, endToEndNames)
	}
	for _, e := range b.errs {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", e)
	}
	return res, nil
}

// loop runs the clients in a closed loop for the given seconds, rounded up
// to whole rounds of the given number of operations, and returns the time
// until the last operation finished. Every client runs the same number of
// rounds: while time is left, a client that finishes a round may start
// another, and every other client then runs it too.
// Each phase starts from a collected heap, so that garbage left by set-up,
// warm-up or the previous phase does not land in it.
func loop(b *bench, wl workload, cs []*client, seconds float64, round int) time.Duration {
	runtime.GC()
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	var mu sync.Mutex
	rounds := 0
	another := func(done int) bool {
		mu.Lock()
		defer mu.Unlock()
		if time.Now().Before(deadline) {
			rounds = max(rounds, done+1)
		}
		return done < rounds
	}
	var wg sync.WaitGroup
	for _, c := range cs {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			for done := 0; another(done); done++ {
				for i := 0; i < round; i++ {
					wl.step(b, c)
					c.n++
				}
			}
		}(c)
	}
	wg.Wait()
	return time.Since(start)
}

func cacheState() string {
	if rescache.Default() == nil {
		return "off"
	}
	return fmt.Sprintf("%d entries/%d MiB", rescache.DefaultMaxEntries, rescache.DefaultMaxBytes>>20)
}

func envOr(k, def string) string {
	if v := os.Getenv(k); v != "" {
		return v
	}
	return def
}

// endToEndNames are the result-line metrics of an untraced run; every
// workload reports all of them. p95_ms is printed only: most classes of
// analytics and write_read have too few samples to support it.
var endToEndNames = []string{"setup_s", "heap_mib", "ops_per_s", "p50_ms"}

// printedMetrics are the sixteen end-to-end metrics every run prints by name;
// the ones that belong to another workload print as n/a.
var printedMetrics = []struct{ name, unit string }{
	{"setup_s", "s"}, {"heap_mib", "MiB"}, {"ops_per_s", "1/s"}, {"failed_ratio", "ratio"},
	{"search_p50_ms", "ms"}, {"search_p95_ms", "ms"}, {"lineage_p50_ms", "ms"}, {"lineage_p95_ms", "ms"},
	{"point_p50_ms", "ms"}, {"point_p95_ms", "ms"}, {"listing1_p50_ms", "ms"}, {"export_p50_ms", "ms"},
	{"scan_p50_ms", "ms"}, {"write_visible_p50_ms", "ms"}, {"wal_bytes_per_write", "B"}, {"recovery_s", "s"},
}

func printMetrics(out io.Writer, m map[string]Metric) {
	for _, im := range printedMetrics {
		if v, ok := m[im.name]; ok {
			fmt.Fprintf(out, "perfbench metric %s %.6g %s\n", im.name, v.Value, v.Unit)
		} else {
			fmt.Fprintf(out, "perfbench metric %s n/a %s\n", im.name, im.unit)
		}
	}
	for _, name := range []string{"p50_ms", "p95_ms"} {
		fmt.Fprintf(out, "perfbench metric %s %.6g %s\n", name, m[name].Value, m[name].Unit)
	}
}

func pick(m map[string]Metric, names []string) map[string]Metric {
	out := make(map[string]Metric, len(names))
	for _, n := range names {
		out[n] = m[n]
	}
	return out
}
