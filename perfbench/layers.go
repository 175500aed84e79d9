package main

import (
	"runtime"
	"runtime/metrics"
	"strings"

	"mdw/internal/obs"
	"mdw/internal/rescache"
)

// perLayerNames are the result-line metrics of a traced run with their
// units; every workload reports all of them, 0 where a layer did no work.
var perLayer = []struct{ name, unit string }{
	{"landscape.generate_s", "s"}, {"staging.pipeline_s", "s"}, {"reason.materialize_s", "s"}, {"textindex.build_s", "s"},
	{"httpapi.self_ms", "ms"}, {"httpapi.response_bytes", "B"},
	{"core.query_ms", "ms"}, {"core.load_ms", "ms"},
	{"semmatch.parse_ms", "ms"},
	{"sparql.parse_ms", "ms"}, {"sparql.plan_ms", "ms"}, {"sparql.plan_cache_hit_ratio", "ratio"},
	{"sparql.exec_ms", "ms"}, {"sparql.rows", "count"}, {"sparql.rows_scanned", "count"},
	{"sparql.scanned_per_row", "ratio"}, {"sparql.terms_decoded", "count"}, {"sparql.workers", "count"},
	{"rescache.hit_ratio", "ratio"}, {"rescache.evictions", "count"}, {"rescache.bytes", "B"},
	{"search.ms", "ms"}, {"search.instances", "count"}, {"textindex.update_ms", "ms"},
	{"lineage.trace_ms", "ms"}, {"lineage.rollup_ms", "ms"}, {"lineage.nodes", "count"},
	{"reason.materialize_ms", "ms"}, {"reason.materialize_calls", "count"}, {"reason.derived_triples", "count"},
	{"durable.wal_bytes", "B"}, {"durable.checkpoint_ms", "ms"}, {"durable.snapshot_bytes", "B"},
	{"durable.dir_bytes_max", "B"}, {"durable.replayed_records", "count"}, {"durable.recover_ms", "ms"},
	{"runtime.alloc_bytes_per_op", "B"}, {"runtime.gc_cycles", "count"}, {"runtime.gc_cpu_fraction", "ratio"},
	{"trace.overhead_ratio", "ratio"},
}

var perLayerNames = func() []string {
	out := make([]string, len(perLayer))
	for i, m := range perLayer {
		out[i] = m.name
	}
	return out
}()

// counters is a reading of the program's own counters and the Go
// runtime's; layer counts are deltas of two readings.
type counters struct {
	planHit, planMiss     int64
	rc                    rescache.Stats
	reasonSec             float64
	reasonCalls, derived  int64
	tixDeltaSec           float64
	tixDeltaCalls         int64
	walBytes              int64
	totalAlloc            uint64
	numGC                 uint32
	gcCPUSec, totalCPUSec float64
}

func readCounters() counters {
	reg := obs.Default()
	var c counters
	c.planHit = reg.Counter("mdw_sparql_plancache_total", "result", "hit").Value()
	c.planMiss = reg.Counter("mdw_sparql_plancache_total", "result", "miss").Value()
	if rc := rescache.Default(); rc != nil {
		c.rc = rc.Stats()
	}
	c.reasonSec, c.reasonCalls = reasonSeconds()
	c.derived = reg.Counter("mdw_reason_derived_total").Value()
	c.tixDeltaSec, c.tixDeltaCalls = textindexSeconds("delta")
	c.walBytes = reg.Counter("mdw_wal_bytes_total").Value()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.totalAlloc, c.numGC = ms.TotalAlloc, ms.NumGC
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() == metrics.KindFloat64 && s[1].Value.Kind() == metrics.KindFloat64 {
		c.gcCPUSec, c.totalCPUSec = s[0].Value.Float64(), s[1].Value.Float64()
	}
	return c
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// layerMetrics derives the per-layer metrics of the traced phase from its
// spans and from counter deltas c0 → c1. Metrics the workload already set
// in m are kept.
func layerMetrics(b *bench, wl workload, spans []Span, c0, c1 counters, traced, untraced *recorder, m map[string]Metric) {
	var reqSpans []Span
	for _, s := range spans {
		if s.Req == 0 {
			continue
		}
		// A results-cache hit emits a near-empty "sparql exec" span; keep
		// it out of the engine's execution figures.
		if s.Labels["rescache"] == "hit" {
			s.Name += " (rescache hit)"
		}
		reqSpans = append(reqSpans, s)
	}
	agg := aggregate(reqSpans)
	// The program names its request roots "http <route>"; their self time
	// is the handler's own work around the service call.
	httpAgg := &layerAgg{}
	for name, a := range agg {
		if strings.HasPrefix(name, "http ") {
			httpAgg.n += a.n
			httpAgg.self += a.self
		}
	}
	set := func(name string, v float64) {
		if _, ok := m[name]; !ok {
			m[name] = Metric{Value: v}
		}
	}
	set("landscape.generate_s", b.setup.generate)
	set("staging.pipeline_s", b.setup.staging)
	set("reason.materialize_s", b.setup.reason)
	set("textindex.build_s", b.setup.textindex)
	set("httpapi.self_ms", httpAgg.meanMs(true))
	set("httpapi.response_bytes", agg["httpapi.ServeHTTP"].meanLabel("response_bytes"))
	set("core.query_ms", agg["warehouse.query"].meanMs(false))
	// POST /api/load is a body read, an N-Triples parse and LoadTriples;
	// the load's request span stands for the LoadTriples call.
	set("core.load_ms", agg["http POST /api/load"].meanMs(false))
	set("semmatch.parse_ms", agg["semmatch.ParseCall"].meanMs(false))
	// The program opens "sparql exec" inside "sparql plan"; self times
	// keep the three apart.
	set("sparql.parse_ms", agg["sparql parse"].meanMs(true))
	set("sparql.plan_ms", agg["sparql plan"].meanMs(true))
	hits, misses := float64(c1.planHit-c0.planHit), float64(c1.planMiss-c0.planMiss)
	set("sparql.plan_cache_hit_ratio", ratio(hits, hits+misses))
	set("sparql.exec_ms", agg["sparql exec"].meanMs(true))
	set("sparql.rows", agg["sparql exec"].meanLabel("rows"))
	set("sparql.workers", agg["sparql exec"].maxLabel("workers"))
	rh, rm := float64(c1.rc.Hits-c0.rc.Hits), float64(c1.rc.Misses-c0.rc.Misses)
	set("rescache.hit_ratio", ratio(rh, rh+rm))
	set("rescache.evictions", float64(c1.rc.Evictions-c0.rc.Evictions))
	set("rescache.bytes", float64(c1.rc.Bytes))
	set("search.ms", agg["search"].meanMs(false))
	set("textindex.update_ms", 1e3*ratio(c1.tixDeltaSec-c0.tixDeltaSec, float64(c1.tixDeltaCalls-c0.tixDeltaCalls)))
	set("lineage.trace_ms", agg["lineage.trace"].meanMs(false))
	set("lineage.rollup_ms", agg["lineage.rollup"].meanMs(false))
	calls := float64(c1.reasonCalls - c0.reasonCalls)
	set("reason.materialize_ms", 1e3*ratio(c1.reasonSec-c0.reasonSec, calls))
	set("reason.materialize_calls", calls)
	set("reason.derived_triples", ratio(float64(c1.derived-c0.derived), calls))
	set("durable.wal_bytes", float64(c1.walBytes-c0.walBytes))
	ops := float64(max(traced.ops, 1))
	set("runtime.alloc_bytes_per_op", float64(c1.totalAlloc-c0.totalAlloc)/ops)
	set("runtime.gc_cycles", float64(c1.numGC-c0.numGC))
	set("runtime.gc_cpu_fraction", ratio(c1.gcCPUSec-c0.gcCPUSec, c1.totalCPUSec-c0.totalCPUSec))
	// Tracing overhead: traced over untraced median latency per class,
	// combined by geometric mean.
	var rs []float64
	for _, class := range wl.classes() {
		u, t := percentile(untraced.samples[class], 0.5), percentile(traced.samples[class], 0.5)
		if u > 0 && t > 0 {
			rs = append(rs, t/u)
		}
	}
	if len(rs) > 0 {
		set("trace.overhead_ratio", geomean(rs)-1)
	}
	for _, pl := range perLayer {
		v := m[pl.name]
		v.Unit = pl.unit
		m[pl.name] = v
	}
}
