package main

import (
	"fmt"
	"math/rand"
	"net/url"
	"sort"
	"strings"
	"sync"
	"unicode"

	"mdw/internal/httpapi"
	"mdw/internal/rdf"
	"mdw/internal/search"
	"mdw/internal/semmatch"
	"mdw/internal/textindex"
)

// browse is the business users' mix: Figure 6 searches, Figure 8 lineage
// traces with roll-ups, and Listing 2-shaped point SEM_MATCH calls, from
// two closed-loop clients.
type browse struct {
	terms  []string // search vocabulary, hottest first
	marts  []string // mart columns, hottest first for this seed
	chains map[string][]string

	mu      sync.Mutex
	sampled map[string]searchSummary // first response per term, checked against the scan oracle
	nodes   []float64
	insts   []float64
}

// searchSummary is what the scan oracle must reproduce of a search.
type searchSummary struct {
	Instances int
	Groups    []string // class=count, in response order
}

// The browse mix: in every block of ten operations four are searches,
// three lineage traces and three point calls.
const (
	opSearch = iota
	opLineage
	opPoint
)

var browseBlock = []int{opSearch, opSearch, opSearch, opSearch, opLineage, opLineage, opLineage, opPoint, opPoint, opPoint}

const (
	// termBlock is the number of searches whose terms follow the Zipf
	// make-up exactly.
	termBlock = 100
	// maxSampledTerms bounds the searches re-run through the scan oracle.
	maxSampledTerms = 6
	// vocabularySize is the number of search terms the stream draws from.
	vocabularySize = 64
)

var lineageLevels = []string{"attribute", "relation", "schema", "application"}

func (*browse) clients() int { return 2 }

// round is one block of search terms with the operation blocks around it,
// so that every phase runs each search term the same number of times.
func (*browse) round() int {
	searches := 0
	for _, op := range browseBlock {
		if op == opSearch {
			searches++
		}
	}
	return termBlock / searches * len(browseBlock)
}

func (*browse) classes() []string { return []string{"search", "lineage", "point"} }

func (w *browse) prepare(b *bench) error {
	if err := buildInMemory(b); err != nil {
		return err
	}
	w.terms = searchVocabulary(b, vocabularySize)
	w.marts = append([]string(nil), b.l.MartColumns...)
	rng := rand.New(rand.NewSource(b.cfg.seed))
	rng.Shuffle(len(w.marts), func(i, j int) { w.marts[i], w.marts[j] = w.marts[j], w.marts[i] })
	w.chains = chainsByMart(b.l.Chains, b.cfg.corrupt)
	w.sampled = map[string]searchSummary{}
	return nil
}

// searchVocabulary ranks the letter-only tokens (four letters or more) of
// every instance name in the base graph by the number of names carrying
// them, most frequent first. It depends on the landscape only.
func searchVocabulary(b *bench, n int) []string {
	count := map[string]int{}
	st := b.w.Store()
	st.ForEach(b.w.Model(), rdf.Term{}, rdf.HasName, rdf.Term{}, func(t rdf.Triple) bool {
		seen := map[string]bool{}
		for _, tok := range textindex.Tokenize(strings.ToLower(t.O.Value)) {
			if len(tok) >= 4 && !seen[tok] && strings.IndexFunc(tok, func(r rune) bool { return !unicode.IsLetter(r) }) < 0 {
				seen[tok] = true
				count[tok]++
			}
		}
		return true
	})
	terms := make([]string, 0, len(count))
	for t := range count {
		terms = append(terms, t)
	}
	sort.Slice(terms, func(i, j int) bool {
		if count[terms[i]] != count[terms[j]] {
			return count[terms[i]] > count[terms[j]]
		}
		return terms[i] < terms[j]
	})
	return terms[:min(n, len(terms))]
}

// browseStream is one client's draws; it lives in the client so that the
// stream is a pure function of the seed and the client id. Operation kinds
// and search terms come in fixed-make-up blocks, because search cost
// differs by two orders of magnitude between terms; targets are drawn
// Zipf-skewed from the seed's hotness order of the mart columns.
type browseStream struct {
	ops, terms *quota
	marts      zipf
	lineages   int
}

func (w *browse) stream(c *client) *browseStream {
	if c.state == nil {
		c.state = &browseStream{
			ops:   newQuota(c.rng, browseBlock),
			terms: newQuota(c.rng, zipfBlock(len(w.terms), termBlock)),
			marts: newZipf(c.rng, len(w.marts)),
		}
	}
	return c.state.(*browseStream)
}

// warmup runs the mix from clients of their own, so that the measured
// clients start their streams at a block boundary.
func (w *browse) warmup(b *bench, cs []*client) {
	b.rec = newRecorder()
	loop(b, w, newClients(^b.cfg.seed, len(cs)), warmupSeconds, 1)
}

func (w *browse) step(b *bench, c *client) {
	s := w.stream(c)
	switch s.ops.draw() {
	case opSearch:
		w.search(b, w.terms[s.terms.draw()])
	case opLineage:
		s.lineages++
		w.lineage(b, w.marts[s.marts.next()], lineageLevels[s.lineages%len(lineageLevels)])
	default:
		w.point(b, w.marts[s.marts.next()])
	}
}

func (w *browse) search(b *bench, term string) {
	o := b.begin()
	rec := o.call("GET", "/api/search?term="+url.QueryEscape(term), "")
	o.end("search")
	var resp httpapi.SearchResponse
	if err := decode(rec, &resp); err != nil {
		b.fail("search %q: %v", term, err)
		return
	}
	if resp.Term != term || resp.Instances == 0 {
		b.fail("search %q: term %q, %d instances", term, resp.Term, resp.Instances)
		return
	}
	sum := searchSummary{Instances: resp.Instances}
	for _, g := range resp.Groups {
		sum.Groups = append(sum.Groups, fmt.Sprintf("%s=%d", g.Class, g.Count))
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if _, ok := w.sampled[term]; !ok && len(w.sampled) < maxSampledTerms {
		w.sampled[term] = sum
	}
	if b.tr != nil {
		w.insts = append(w.insts, float64(resp.Instances))
	}
}

func (w *browse) lineage(b *bench, mart, level string) {
	o := b.begin()
	rec := o.call("GET", "/api/lineage?item="+url.QueryEscape(mart)+"&level="+level, "")
	o.end("lineage")
	var resp httpapi.LineageResponse
	if err := decode(rec, &resp); err != nil {
		b.fail("lineage %s: %v", mart, err)
		return
	}
	got := make([]string, len(resp.Nodes))
	for i, n := range resp.Nodes {
		got[i] = n.IRI
	}
	if want := lineageNodes(w.chains[mart], level); !sameSet(got, want) {
		b.fail("lineage %s level %s: nodes %v, want %v", mart, level, got, want)
		return
	}
	if b.tr != nil {
		w.mu.Lock()
		w.nodes = append(w.nodes, float64(len(resp.Nodes)))
		w.mu.Unlock()
	}
}

// point runs Listing 2 with the target column bound: which column feeds
// it, and its name.
func (w *browse) point(b *bench, mart string) {
	call := pointCall(mart)
	o := b.begin()
	rec := o.call("POST", "/api/semmatch", call)
	o.end("point")
	if b.tr != nil {
		// The handler's own ParseCall has no span; time the same call on
		// the same text, outside the operation's latency.
		o.span("semmatch.ParseCall", func() { _, _ = semmatch.ParseCall(call) })
	}
	var resp httpapi.QueryResponse
	if err := decode(rec, &resp); err != nil {
		b.fail("point %s: %v", mart, err)
		return
	}
	chain := w.chains[mart]
	wantSrc, wantName := pathIRI(chain[len(chain)-2]).Value, lastSegment(mart)
	if len(resp.Rows) != 1 || resp.Rows[0]["source_id"] != wantSrc || resp.Rows[0]["target_name"] != wantName {
		b.fail("point %s: rows %v, want source %s name %s", mart, resp.Rows, wantSrc, wantName)
	}
}

// finish re-runs the sampled searches through the scan oracle.
func (w *browse) finish(b *bench) error {
	for term, got := range w.sampled {
		res, err := b.w.Search(term, search.Options{ForceScan: true, MaxHitsPerGroup: 10})
		if err != nil {
			return fmt.Errorf("scan oracle %q: %w", term, err)
		}
		want := searchSummary{Instances: res.Instances}
		for _, g := range res.Groups {
			want.Groups = append(want.Groups, fmt.Sprintf("%s=%d", g.Class.Value, g.Count))
		}
		if b.cfg.corrupt {
			want.Instances++
		}
		b.attempted.Add(1)
		if got.Instances != want.Instances || strings.Join(got.Groups, ",") != strings.Join(want.Groups, ",") {
			b.fail("search %q: indexed %+v, scan oracle %+v", term, got, want)
		}
	}
	return nil
}

func (w *browse) report(b *bench, e2e, layers map[string]Metric) {
	for _, class := range w.classes() {
		xs := b.rec.samples[class]
		e2e[class+"_p50_ms"] = Metric{percentile(xs, 0.5), "ms"}
		e2e[class+"_p95_ms"] = Metric{percentile(xs, 0.95), "ms"}
	}
	if b.cfg.trace {
		layers["lineage.nodes"] = Metric{Value: mean(w.nodes)}
		layers["search.instances"] = Metric{Value: mean(w.insts)}
	}
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
