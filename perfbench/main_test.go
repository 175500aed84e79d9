package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"mdw/internal/obs"
)

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 3}, {1, 5}, {0.25, 2}, {0.95, 4.8}} {
		if got := percentile(xs, c.q); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("percentile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if xs[0] != 5 {
		t.Error("percentile reordered its input")
	}
	if percentile(nil, 0.5) != 0 {
		t.Error("percentile of no samples should be 0")
	}
}

func TestSampleCountRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		q    float64
		want bool
	}{{19, 0.5, false}, {20, 0.5, true}, {199, 0.95, false}, {200, 0.95, true}, {1000, 0.99, true}, {999, 0.99, false}} {
		if got := supported(c.n, c.q); got != c.want {
			t.Errorf("supported(%d, %v) = %v, want %v", c.n, c.q, got, c.want)
		}
	}
}

func draws(seed int64, n int) []int {
	z := newZipf(rand.New(rand.NewSource(seed)), 100)
	out := make([]int, n)
	for i := range out {
		out[i] = z.next()
	}
	return out
}

func TestZipfStreamIsAFunctionOfTheSeed(t *testing.T) {
	a, b, c := draws(7, 2000), draws(7, 2000), draws(8, 2000)
	same := true
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("seed 7 gave two streams (draw %d: %d vs %d)", i, a[i], b[i])
		}
		same = same && a[i] == c[i]
	}
	if same {
		t.Error("seeds 7 and 8 gave the same stream")
	}
	hist := make([]int, 100)
	for _, r := range a {
		if r < 0 || r >= 100 {
			t.Fatalf("rank %d out of range", r)
		}
		hist[r]++
	}
	if hist[0] <= hist[1] || hist[1] <= hist[50] {
		t.Errorf("stream not skewed toward low ranks: %d, %d, %d", hist[0], hist[1], hist[50])
	}
}

func TestQuotaKeepsTheMixAndVariesTheOrder(t *testing.T) {
	block := zipfBlock(60, 100)
	if len(block) != 100 {
		t.Fatalf("block of %d ranks, want 100", len(block))
	}
	count := map[int]int{}
	for _, r := range block {
		count[r]++
	}
	if count[0] <= count[1] || count[1] <= count[10] {
		t.Errorf("block not Zipf-shaped: %d, %d, %d", count[0], count[1], count[10])
	}
	deal := func(seed int64) []int {
		q := newQuota(rand.New(rand.NewSource(seed)), block)
		out := make([]int, 200)
		for i := range out {
			out[i] = q.draw()
		}
		return out
	}
	a, b, c := deal(1), deal(1), deal(2)
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Error("seed 1 dealt two different streams")
	}
	if fmt.Sprint(a) == fmt.Sprint(c) {
		t.Error("seeds 1 and 2 dealt the same order")
	}
	for _, half := range [][]int{a[:100], a[100:], c[:100]} {
		got := map[int]int{}
		for _, r := range half {
			got[r]++
		}
		if fmt.Sprint(got) != fmt.Sprint(count) {
			t.Errorf("a dealt block changed the mix: %v, want %v", got, count)
		}
	}
}

func TestClientStreamsDependOnSeedAndClient(t *testing.T) {
	a, b := newClients(3, 2), newClients(3, 2)
	if a[0].rng.Int63() != b[0].rng.Int63() {
		t.Error("client 0 of seed 3 drew differently twice")
	}
	if a[1].rng.Int63() == a[0].rng.Int63() {
		t.Error("clients 0 and 1 share a stream")
	}
}

func TestSelfTime(t *testing.T) {
	spans := []Span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		// Overlapping children (parallel workers) count once; a child
		// running past its parent's end is clipped.
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "b", Start: 20, End: 50},
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120},
		{ID: 5, Parent: 3, Name: "d", Start: 25, End: 35},
	}
	self := selfTimes(spans)
	for id, want := range map[uint64]time.Duration{1: 50, 2: 20, 3: 20, 4: 30, 5: 10} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
	agg := aggregate(spans)
	if got := agg["root"].meanMs(true); math.Abs(got-50e-6) > 1e-12 {
		t.Errorf("root self mean = %v ms", got)
	}
}

// stepper is a workload whose clients take different times per step.
type stepper struct{ cost map[*client]time.Duration }

func (stepper) clients() int                                        { return 2 }
func (stepper) round() int                                          { return 3 }
func (stepper) classes() []string                                   { return nil }
func (stepper) prepare(*bench) error                                { return nil }
func (stepper) warmup(*bench, []*client)                            {}
func (s stepper) step(_ *bench, c *client)                          { time.Sleep(s.cost[c]) }
func (stepper) finish(*bench) error                                 { return nil }
func (stepper) report(*bench, map[string]Metric, map[string]Metric) {}

func TestEveryClientRunsTheSameWholeRounds(t *testing.T) {
	cs := newClients(1, 2)
	wl := stepper{cost: map[*client]time.Duration{cs[0]: time.Millisecond, cs[1]: 4 * time.Millisecond}}
	loop(&bench{}, wl, cs, 0.05, wl.round())
	if cs[0].n != cs[1].n || cs[0].n == 0 || cs[0].n%wl.round() != 0 {
		t.Errorf("clients ran %d and %d operations, want the same whole rounds of %d", cs[0].n, cs[1].n, wl.round())
	}
}

func TestTokensAreUnique(t *testing.T) {
	seen := map[string]bool{}
	for seed := int64(0); seed < 20; seed++ {
		for i := 0; i < 40; i++ {
			tok := token(seed, i)
			if seen[tok] || strings.IndexFunc(tok, func(r rune) bool { return r < 'a' || r > 'z' }) >= 0 {
				t.Fatalf("token(%d, %d) = %q repeats or has a non-letter", seed, i, tok)
			}
			for other := range seen {
				if strings.Contains(other, tok) || strings.Contains(tok, other) {
					t.Fatalf("token %q and %q overlap, so a search for one finds the other", tok, other)
				}
			}
			seen[tok] = true
		}
	}
}

// TestWorkloadsAtSmallScale runs every workload end to end on the small
// landscape with all oracles on, untraced and traced, and checks that a
// deliberately wrong oracle fails the run.
func TestWorkloadsAtSmallScale(t *testing.T) {
	for _, name := range []string{"browse", "analytics", "write_read"} {
		for _, trace := range []bool{false, true} {
			cfg := config{workload: name, seed: 5, seconds: 0.3, trace: trace, small: true, workDir: t.TempDir()}
			res, err := run(cfg, io.Discard)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if left, _ := filepath.Glob(filepath.Join(cfg.workDir, "perfbench-wr-*")); len(left) > 0 {
				t.Errorf("%s: the run left its data directory behind: %v", name, left)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", name, trace, res.Correct, res.Attempted, res.Failed)
			}
			want := endToEndNames
			if trace {
				want = perLayerNames
			}
			for _, m := range want {
				v, ok := res.Metrics[m]
				if !ok || v.Unit == "" {
					t.Errorf("%s trace=%v: metric %s missing", name, trace, m)
				}
				if !trace && v.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, m, v.Value)
				}
			}
			if calls := res.Metrics["reason.materialize_calls"].Value; trace && name == "write_read" && calls < 1 {
				t.Errorf("write_read: %v materializations, want one per cycle", calls)
			}
			if trace && name != "write_read" && res.Metrics["reason.materialize_calls"].Value != 0 {
				t.Errorf("%s: %v materializations, want none", name, res.Metrics["reason.materialize_calls"].Value)
			}
			// Each workload's direct-call layer is measured from its spans.
			layer := map[string]string{"browse": "semmatch.parse_ms", "analytics": "sparql.exec_ms", "write_read": "core.load_ms"}[name]
			if trace && res.Metrics[layer].Value <= 0 {
				t.Errorf("%s: %s = %v, want > 0", name, layer, res.Metrics[layer].Value)
			}
		}
		cfg := config{workload: name, seed: 5, seconds: 0.2, small: true, corrupt: true, workDir: t.TempDir()}
		res, err := run(cfg, io.Discard)
		if err != nil {
			t.Fatalf("%s corrupt: %v", name, err)
		}
		if res.Correct || res.Failed == 0 {
			t.Errorf("%s: a wrong oracle went unnoticed (attempted=%d failed=%d)", name, res.Attempted, res.Failed)
		}
		if left, _ := filepath.Glob(filepath.Join(cfg.workDir, "perfbench-wr-*")); len(left) > 0 {
			t.Errorf("%s: a failed run left its data directory behind: %v", name, left)
		}
	}
}

// TestMetricsMatchBenchmarkJSON keeps the result line and the metric
// definitions in ../BENCHMARK.json in step.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json next to the benchmark:", err)
	}
	var doc struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.EndToEnd) != len(endToEndNames) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the result line %d", len(doc.EndToEnd), len(endToEndNames))
	}
	units := map[string]string{}
	for _, m := range printedMetrics {
		units[m.name] = m.unit
	}
	units["p50_ms"] = "ms"
	for i, m := range doc.EndToEnd {
		if m.Name != endToEndNames[i] || m.Unit != units[m.Name] {
			t.Errorf("end-to-end metric %d: BENCHMARK.json %s [%s], result line %s [%s]", i, m.Name, m.Unit, endToEndNames[i], units[endToEndNames[i]])
		}
	}
	if len(doc.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the result line %d", len(doc.PerLayer), len(perLayer))
	}
	for i, m := range doc.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per-layer metric %d: BENCHMARK.json %s [%s], result line %s [%s]", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
}

func TestGraftKeepsTheProgramsTreeShape(t *testing.T) {
	tr := newTracer()
	t0 := time.Now()
	// Children finish, and are listed, before their parents.
	prog := obs.Trace{Spans: []obs.SpanData{
		{ID: 3, Parent: 2, Name: "sparql exec", Start: t0.Add(2), Dur: 1},
		{ID: 2, Parent: 1, Name: "warehouse.query", Start: t0.Add(1), Dur: 3},
		{ID: 1, Name: "http GET /api/query", Start: t0, Dur: 5},
	}}
	root := tr.add(0, 1, 0, "httpapi.ServeHTTP", t0, t0.Add(6), nil)
	tr.graft(1, root, prog)
	parent := map[string]string{}
	names := map[uint64]string{}
	spans := tr.snapshot()
	for _, s := range spans {
		names[s.ID] = s.Name
	}
	for _, s := range spans {
		parent[s.Name] = names[s.Parent]
	}
	want := map[string]string{"http GET /api/query": "httpapi.ServeHTTP", "warehouse.query": "http GET /api/query", "sparql exec": "warehouse.query"}
	for child, p := range want {
		if parent[child] != p {
			t.Errorf("%s grafted under %q, want %q", child, parent[child], p)
		}
	}
}
