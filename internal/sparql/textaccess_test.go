package sparql_test

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"

	"mdw/internal/obs"
	"mdw/internal/rdf"
	"mdw/internal/reason"
	"mdw/internal/sparql"
	"mdw/internal/store"
	"mdw/internal/textindex"
)

// indexedView is a view plus a full-text index over it: the TextSource
// the warehouse hands the planner, without the warehouse. asked counts
// TextIndex calls.
type indexedView struct {
	*store.View
	ix    *textindex.Index
	asked *atomic.Int32
}

func (v indexedView) TextIndex() *textindex.Index {
	v.asked.Add(1)
	return v.ix
}

const (
	textAlias = "http://d/alias" // rdfs:subPropertyOf dm:hasName: derived names
	textNote  = "http://d/note"  // not indexed
)

// textRunes are the name alphabet: ASCII letters of "customer", the
// Unicode case-folding specials, a digit, and separators.
var textRunes = []string{
	"c", "u", "s", "t", "o", "m", "e", "r", "C", "S", "k", "K", "\u212a", "ſ",
	"ß", "ẞ", "Σ", "σ", "ς", "İ", "i", "I", "1", "_", " ", ".",
}

// textFixture is a base model of named, typed, labelled items plus its
// OWLPRIME index, viewed together, with a full-text index over both.
// dm:hasName comes from the base model and, through the alias
// sub-property, from the entailment index.
func textFixture(t testing.TB, rng *rand.Rand) (indexedView, *store.View, *store.Dict) {
	t.Helper()
	st := store.New()
	word := func(n int) string {
		var b strings.Builder
		for i := 0; i < n; i++ {
			b.WriteString(textRunes[rng.Intn(len(textRunes))])
		}
		return b.String()
	}
	class := func(i int) rdf.Term { return rdf.IRI(fmt.Sprintf("http://d/C%d", i)) }
	ts := []rdf.Triple{
		rdf.T(rdf.IRI(textAlias), rdf.SubPropertyOf, rdf.HasName),
		rdf.T(class(0), rdf.SubClassOf, class(1)),
		rdf.T(class(2), rdf.SubClassOf, class(1)),
	}
	for i := 0; i < 4; i++ {
		ts = append(ts, rdf.T(class(i), rdf.Label, rdf.Literal("Class "+word(3))))
	}
	for i := 0; i < 80; i++ {
		s := rdf.IRI(fmt.Sprintf("http://d/s%d", i))
		ts = append(ts, rdf.T(s, rdf.Type, class(rng.Intn(4))))
		for n := rng.Intn(3); n >= 0; n-- {
			ts = append(ts, rdf.T(s, rdf.HasName, rdf.Literal(word(2+rng.Intn(7)))))
		}
		if rng.Intn(3) == 0 {
			ts = append(ts, rdf.T(s, rdf.IRI(textAlias), rdf.Literal(word(2+rng.Intn(5)))))
		}
		if rng.Intn(2) == 0 {
			ts = append(ts, rdf.T(s, rdf.IRI(textNote), rdf.Literal(word(2+rng.Intn(5)))))
		}
	}
	st.AddAll("DWH", ts)
	if _, _, err := reason.NewEngine(st).Materialize(context.Background(), "DWH"); err != nil {
		t.Fatal(err)
	}
	v := st.ViewOf("DWH", reason.IndexModelName("DWH", reason.RulebaseOWLPrime))
	ix := textindex.Build("DWH", st.Generation("DWH"), v, st.Dict(), textindex.Config{})
	return indexedView{View: v, ix: ix, asked: new(atomic.Int32)}, v, st.Dict()
}

func textPrefixes() string {
	return "PREFIX rdf: <" + rdf.RDFNS + ">\nPREFIX rdfs: <" + rdf.RDFSNS + ">\nPREFIX dm: <" + rdf.DMNS + ">\n"
}

func textAccessUses() (used, declined int64) {
	r := obs.Default()
	return r.Counter("mdw_sparql_text_access_total", "outcome", "used").Value(),
		r.Counter("mdw_sparql_text_access_total", "outcome", "declined").Value()
}

// planExec plans q against src and executes it, bypassing the results
// cache (sources sharing models would share its entries).
func planExec(t *testing.T, q *sparql.Query, src store.Source, dict *store.Dict) (*sparql.Plan, *sparql.Result) {
	t.Helper()
	p := q.Plan(src, dict)
	res, _, err := p.Exec(context.Background(), sparql.ExecOptions{})
	if err != nil {
		t.Fatalf("%s: %v", q.Text, err)
	}
	return p, res
}

// TestTextAccessListing1Plan: Listing 1's shape starts from the posting
// list of its regex literal, shows it in EXPLAIN and EXPLAIN ANALYZE,
// and returns what the scan returns.
func TestTextAccessListing1Plan(t *testing.T) {
	src, bare, dict := textFixture(t, rand.New(rand.NewSource(1)))
	q := sparql.MustParse(textPrefixes() + `SELECT ?class ?object WHERE {
		?object rdf:type ?c . ?c rdfs:label ?class . ?object dm:hasName ?term
		FILTER (regex(?term, "Cu", "i")) } GROUP BY ?class ?object`)
	used0, _ := textAccessUses()
	p, got := planExec(t, q, src, dict)
	plan := p.String()
	if !strings.Contains(plan, `1. ?object dm:hasName ?term`) || !strings.Contains(plan, `text index "Cu": est=`) {
		t.Fatalf("plan does not start from the text index:\n%s", plan)
	}
	if used, _ := textAccessUses(); used != used0+1 {
		t.Errorf("mdw_sparql_text_access_total{outcome=used} moved by %d, want 1", used-used0)
	}
	_, want := planExec(t, q, bare, dict)
	if g, w := rowKeys(got), rowKeys(want); !sameMultiset(g, w) || len(w) == 0 {
		t.Fatalf("text access rows %d differ from scan rows %d", len(g), len(w))
	}
	_, stats, err := q.Plan(src, dict).Exec(context.Background(), sparql.ExecOptions{Analyze: true})
	if err != nil {
		t.Fatal(err)
	}
	first := stats.Root.Children[0]
	if !strings.Contains(first.Detail, `text index "Cu"`) || first.Estimate != float64(first.Rows) {
		t.Errorf("analyzed first operator = %+v, want the text index with an exact estimate", first)
	}
	if !strings.Contains(stats.String(), `text index "Cu": est=`) {
		t.Errorf("EXPLAIN ANALYZE lacks the access path:\n%s", stats.String())
	}
}

// TestTextAccessDeclines: the access path is skipped — and the index not
// even requested — unless a regex the index can serve filters the object
// of an indexed predicate.
func TestTextAccessDeclines(t *testing.T) {
	src, _, dict := textFixture(t, rand.New(rand.NewSource(2)))
	for _, c := range []struct {
		name, query string
		asks        int32
	}{
		{"no filter", `SELECT ?s WHERE { ?s dm:hasName ?v }`, 0},
		{"metacharacter", `SELECT ?s WHERE { ?s dm:hasName ?v FILTER regex(?v, "c.s", "i") }`, 0},
		{"two tokens", `SELECT ?s WHERE { ?s dm:hasName ?v FILTER regex(?v, "c s") }`, 0},
		{"other flags", `SELECT ?s WHERE { ?s dm:hasName ?v FILTER regex(?v, "cu", "is") }`, 0},
		{"subject filtered", `SELECT ?s WHERE { ?s dm:hasName ?v FILTER regex(str(?s), "cu") }`, 0},
		{"unindexed predicate", `SELECT ?s WHERE { ?s <` + textNote + `> ?v FILTER regex(?v, "cu", "i") }`, 1},
		{"filter in another group", `SELECT ?s WHERE { ?s dm:hasName ?v OPTIONAL { ?s dm:hasName ?w FILTER regex(?v, "cu") } }`, 0},
	} {
		src.asked.Store(0)
		q := sparql.MustParse(textPrefixes() + c.query)
		p := q.Plan(src, dict)
		if strings.Contains(p.String(), "text index") {
			t.Errorf("%s: plan uses the text index:\n%s", c.name, p)
		}
		if got := src.asked.Load(); got != c.asks {
			t.Errorf("%s: TextIndex requested %d times, want %d", c.name, got, c.asks)
		}
	}
	// A source without a current index declines, and says so.
	_, declined0 := textAccessUses()
	none := indexedView{View: src.View, asked: new(atomic.Int32)}
	q := sparql.MustParse(textPrefixes() + `SELECT ?s WHERE { ?s dm:hasName ?v FILTER regex(?v, "cu") }`)
	if p := q.Plan(none, dict); strings.Contains(p.String(), "text index") {
		t.Errorf("plan uses a missing index:\n%s", p)
	}
	if _, declined := textAccessUses(); declined != declined0+1 {
		t.Errorf("mdw_sparql_text_access_total{outcome=declined} moved by %d, want 1", declined-declined0)
	}
}

// TestTextAccessDifferential runs random regex-filtered queries over
// indexed and unindexed predicates, with literals drawn from the Unicode
// case-folding specials (ſ, the Kelvin sign, ß/ẞ, Σ/σ/ς, İ) and both
// flag sets, through the text-index-backed source, the same view without
// an index, and the reference evaluator: all three row multisets must be
// identical. Run under -race in CI.
func TestTextAccessDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	preds := []string{"dm:hasName", "rdfs:label", "<" + textAlias + ">", "<" + textNote + ">"}
	shapes := []string{
		`SELECT ?s ?v WHERE { ?s %[1]s ?v FILTER (%[2]s) }`,
		`SELECT ?c ?s WHERE { ?s rdf:type ?c . ?c rdfs:label ?l . ?s %[1]s ?v FILTER (%[2]s) }`,
		`SELECT ?s ?v ?n WHERE { ?s %[1]s ?v OPTIONAL { ?s <` + textNote + `> ?n } FILTER (%[2]s) }`,
		`SELECT ?s ?w WHERE { ?s %[1]s ?v . ?s dm:hasName ?w FILTER (%[2]s) }`,
		`SELECT (COUNT(*) AS ?n) WHERE { ?s %[1]s ?v FILTER (%[2]s) }`,
	}
	pushed, runs := 0, 0
	for fix := 0; fix < 4; fix++ {
		src, bare, dict := textFixture(t, rng)
		for i := 0; i < 60; i++ {
			var lit strings.Builder
			for n := 1 + rng.Intn(3); n > 0; n-- {
				lit.WriteString(textRunes[rng.Intn(len(textRunes)-3)]) // no separators: mostly pushable
			}
			if rng.Intn(8) == 0 {
				lit.WriteString(textRunes[len(textRunes)-1-rng.Intn(3)])
			}
			filter := fmt.Sprintf("regex(?v, %q)", lit.String())
			if rng.Intn(2) == 0 {
				filter = fmt.Sprintf("regex(?v, %q, \"i\")", lit.String())
			}
			text := textPrefixes() + fmt.Sprintf(shapes[rng.Intn(len(shapes))], preds[rng.Intn(len(preds))], filter)
			q := sparql.MustParse(text)
			p, got := planExec(t, q, src, dict)
			_, plain := planExec(t, sparql.MustParse(text), bare, dict)
			naive, err := sparql.MustParse(text).ExecNaive(bare, dict)
			if err != nil {
				t.Fatal(err)
			}
			g, w, n := rowKeys(got), rowKeys(plain), rowKeys(naive)
			if !sameMultiset(g, w) || !sameMultiset(w, n) {
				t.Fatalf("divergence (indexed %d, scan %d, naive %d rows) for\n%s\nplan:\n%s", len(g), len(w), len(n), text, p)
			}
			runs++
			if strings.Contains(p.String(), "text index") {
				pushed++
			}
		}
	}
	if pushed < runs/4 {
		t.Errorf("only %d of %d queries used the text access path", pushed, runs)
	}
}

// TestTextAccessRegexMemoParallel: the per-term regex memo of the scan
// fallback keeps parallel (morsel) execution equal to the reference
// evaluator; each worker memoizes privately, so -race stays quiet.
func TestTextAccessRegexMemoParallel(t *testing.T) {
	src, dict := typedFixture(t, 600)
	for _, text := range []string{
		`SELECT ?s ?n WHERE { ?s <` + rdf.RDFType + `> <http://d/C> . ?s <` + rdf.MDWHasName + `> ?n FILTER regex(?n, "n1.", "i") }`,
		`SELECT ?s ?n WHERE { ?s <` + rdf.RDFType + `> <http://d/C> . ?s <` + rdf.MDWHasName + `> ?n FILTER (regex(?n, "^n1") && regex(?n, "6$")) }`,
	} {
		want, err := sparql.MustParse(text).ExecNaive(src, dict)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range parLevels() {
			got := mustExec(t, sparql.MustParse(text), src, dict, forcedPar(w))
			if g, n := rowKeys(got), rowKeys(want); !sameMultiset(g, n) || len(n) == 0 {
				t.Fatalf("par=%d: %d rows, reference %d, for %s", w, len(g), len(n), text)
			}
		}
	}
}
