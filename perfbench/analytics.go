package main

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"net/url"
	"regexp"
	"strings"

	"mdw/internal/rdf"
	"mdw/internal/reason"
)

// analytics is the analysts' mix from one closed-loop client: Listing 1
// with its literal in a seed-drawn letter case, the unfiltered Listing 1
// export, and Figure 8 join and union mapping scans made distinct by a
// seed-drawn constant, in a fixed rotation.
type analytics struct {
	objects    []l1Object // Listing 1 ground truth, read from the store
	exportRows int
	joinRows   int
	unionRows  int
	counts     map[string]int // Listing 1 rows per lower-cased literal

	// Traced-phase execution statistics from EXPLAIN ANALYZE.
	scanned, decoded, rows []float64
}

// l1Object is one object of Listing 1's pattern: its names and the number
// of distinct class labels its types carry (one result row per label).
type l1Object struct {
	names  []string
	labels int
}

// analyticsRotation is one round; scans are cheap, so they run twice per
// round to give their median more samples.
var analyticsRotation = []string{"listing1", "join", "union", "export", "join", "union"}

// listing1Literal is the regex literal of the paper's Listing 1.
const listing1Literal = "customer"

func (*analytics) clients() int      { return 1 }
func (*analytics) round() int        { return len(analyticsRotation) }
func (*analytics) classes() []string { return []string{"listing1", "export", "scan"} }

func (w *analytics) prepare(b *bench) error {
	if err := buildInMemory(b); err != nil {
		return err
	}
	w.counts = map[string]int{}
	w.groundTruth(b)
	if b.cfg.corrupt {
		w.exportRows++
		w.joinRows++
		w.unionRows++
	}
	return nil
}

// groundTruth walks the store directly, not through the query engine, to
// count the rows each analytics shape must return.
func (w *analytics) groundTruth(b *bench) {
	st := b.w.Store()
	models := []string{b.w.Model(), reason.IndexModelName(b.w.Model(), reason.RulebaseOWLPrime)}
	// each visits the distinct triples of the base-plus-entailment view.
	each := func(p rdf.Term, fn func(rdf.Triple)) {
		seen := map[rdf.Triple]bool{}
		for _, m := range models {
			st.ForEach(m, rdf.Term{}, p, rdf.Term{}, func(t rdf.Triple) bool {
				if !seen[t] {
					seen[t] = true
					fn(t)
				}
				return true
			})
		}
	}
	labels := map[rdf.Term][]string{}
	each(rdf.Label, func(t rdf.Triple) { labels[t.S] = append(labels[t.S], t.O.Value) })
	names := map[rdf.Term][]string{}
	each(rdf.HasName, func(t rdf.Triple) { names[t.S] = append(names[t.S], t.O.Value) })
	objLabels := map[rdf.Term]map[string]bool{}
	each(rdf.Type, func(t rdf.Triple) {
		if len(labels[t.O]) == 0 || len(names[t.S]) == 0 {
			return
		}
		set := objLabels[t.S]
		if set == nil {
			set = map[string]bool{}
			objLabels[t.S] = set
		}
		for _, l := range labels[t.O] {
			set[l] = true
		}
	})
	for o, set := range objLabels {
		w.objects = append(w.objects, l1Object{names: names[o], labels: len(set)})
		w.exportRows += len(set)
	}
	each(rdf.IRI(rdf.MDWIsMappedTo), func(t rdf.Triple) {
		w.joinRows += len(names[t.S])
		w.unionRows++
	})
	each(rdf.IRI(rdf.MDWFeeds), func(rdf.Triple) { w.unionRows++ })
}

// listing1Rows counts Listing 1's rows for a case-insensitive literal
// (one too many under --corrupt-oracle).
func (w *analytics) listing1Rows(b *bench, lit string) int {
	key := strings.ToLower(lit)
	n, ok := w.counts[key]
	if !ok {
		n = w.countListing1(lit)
		w.counts[key] = n
	}
	if b.cfg.corrupt {
		n++
	}
	return n
}

func (w *analytics) countListing1(lit string) int {
	re := regexp.MustCompile("(?i)" + regexp.QuoteMeta(lit))
	n := 0
	for _, o := range w.objects {
		for _, name := range o.names {
			if re.MatchString(name) {
				n += o.labels
				break
			}
		}
	}
	return n
}

func (w *analytics) warmup(b *bench, cs []*client) {
	// One scan warms the planner statistics; the other shapes would cost
	// seconds each and fill no cache (they miss or are refused by it).
	b.rec = newRecorder()
	w.scan(b, cs[0], "join")
}

func (w *analytics) step(b *bench, c *client) {
	switch shape := analyticsRotation[c.n%len(analyticsRotation)]; shape {
	case "listing1":
		w.listing1(b, c)
	case "export":
		w.export(b)
	default:
		w.scan(b, c, shape)
	}
}

const listing1Pattern = `?object rdf:type ?c .
  ?c rdfs:label ?class .
  ?object dm:hasName ?term`

func sparqlPrefixes() string {
	return fmt.Sprintf("PREFIX rdf: <%s>\nPREFIX rdfs: <%s>\nPREFIX dm: <%s>\nPREFIX dt: <%s>\n",
		rdf.RDFNS, rdf.RDFSNS, rdf.DMNS, rdf.DTNS)
}

// listing1 runs the paper's Listing 1 with its literal in a seed-drawn
// letter case: the same rows and the same work every time (the match is
// case-insensitive), but a query text the results cache has rarely seen.
func (w *analytics) listing1(b *bench, c *client) {
	term := []byte(listing1Literal)
	for i := range term {
		if c.rng.Intn(2) == 0 {
			term[i] = strings.ToUpper(string(term[i]))[0]
		}
	}
	q := sparqlPrefixes() + "SELECT ?class ?object WHERE {\n  " + listing1Pattern +
		"\n  FILTER (regex(?term, \"" + string(term) + "\", \"i\"))\n} GROUP BY ?class ?object"
	rows, ok := w.query(b, "listing1", q)
	if want := w.listing1Rows(b, string(term)); ok && rows != want {
		b.fail("listing1 %q: %d rows, oracle %d", term, rows, want)
	}
}

// export is Listing 1 without its filter: every classified named object.
func (w *analytics) export(b *bench) {
	q := sparqlPrefixes() + "SELECT ?class ?object WHERE {\n  " + listing1Pattern + "\n} GROUP BY ?class ?object"
	if rows, ok := w.query(b, "export", q); ok && rows != w.exportRows {
		b.fail("export: %d rows, oracle %d", rows, w.exportRows)
	}
}

// scan runs a Figure 8 mapping scan whose filter constant never matches,
// so every request is a distinct query over all mappings.
func (w *analytics) scan(b *bench, c *client, shape string) {
	none := randomLetters(c, 12)
	var q string
	want := w.joinRows
	if shape == "join" {
		q = sparqlPrefixes() + "SELECT ?s ?n WHERE { ?s dt:isMappedTo ?t . ?s dm:hasName ?n FILTER (?n != \"" + none + "\") }"
	} else {
		q = sparqlPrefixes() + "SELECT ?s WHERE { { ?s dt:isMappedTo ?t } UNION { ?s dt:feeds ?t } FILTER (?s != dm:" + none + ") }"
		want = w.unionRows
	}
	if rows, ok := w.query(b, "scan", q); ok && rows != want {
		b.fail("scan %s: %d rows, oracle %d", shape, rows, want)
	}
}

func randomLetters(c *client, n int) string {
	out := make([]byte, n)
	for i := range out {
		out[i] = byte('a' + c.rng.Intn(26))
	}
	return "zz" + string(out)
}

// analyzedResponse is the part of /api/query's JSON the checks read.
type analyzedResponse struct {
	Rows  []struct{} `json:"rows"`
	Stats *struct {
		Rows        int   `json:"rows"`
		RowsScanned int64 `json:"rowsScanned"`
		TermDecodes int64 `json:"termDecodes"`
	} `json:"stats"`
}

// query sends one GET /api/query (with EXPLAIN ANALYZE in the traced
// phase) and returns the row count of the response.
func (w *analytics) query(b *bench, class, q string) (int, bool) {
	target := "/api/query?q=" + url.QueryEscape(q)
	if b.tr != nil {
		target += "&analyze=1"
	}
	o := b.begin()
	rec := o.call("GET", target, "")
	o.end(class)
	return w.rowsOf(b, class, rec)
}

func (w *analytics) rowsOf(b *bench, class string, rec *httptest.ResponseRecorder) (int, bool) {
	if rec.Code != 200 {
		b.fail("%s: status %d: %.200s", class, rec.Code, rec.Body.String())
		return 0, false
	}
	var resp analyzedResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		b.fail("%s: %v", class, err)
		return 0, false
	}
	if s := resp.Stats; s != nil {
		w.scanned = append(w.scanned, float64(s.RowsScanned))
		w.decoded = append(w.decoded, float64(s.TermDecodes))
		w.rows = append(w.rows, float64(s.Rows))
	}
	return len(resp.Rows), true
}

func (w *analytics) finish(*bench) error { return nil }

func (w *analytics) report(b *bench, e2e, layers map[string]Metric) {
	e2e["listing1_p50_ms"] = Metric{percentile(b.rec.samples["listing1"], 0.5), "ms"}
	e2e["export_p50_ms"] = Metric{percentile(b.rec.samples["export"], 0.5), "ms"}
	e2e["scan_p50_ms"] = Metric{percentile(b.rec.samples["scan"], 0.5), "ms"}
	if b.cfg.trace {
		layers["sparql.rows_scanned"] = Metric{Value: mean(w.scanned)}
		layers["sparql.terms_decoded"] = Metric{Value: mean(w.decoded)}
		layers["sparql.scanned_per_row"] = Metric{Value: ratio(mean(w.scanned), mean(w.rows))}
	}
}
