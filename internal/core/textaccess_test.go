package core

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"

	"mdw/internal/dbpedia"
	"mdw/internal/landscape"
	"mdw/internal/rdf"
	"mdw/internal/reason"
	"mdw/internal/sparql"
	"mdw/internal/textindex"
)

// listing1Regex is the paper's Listing 1 over the base-plus-OWLPRIME view,
// with its regex literal and flags as given.
func listing1Regex(lit, flags string) string {
	filter := fmt.Sprintf("regex(?term, %q)", lit)
	if flags != "" {
		filter = fmt.Sprintf("regex(?term, %q, %q)", lit, flags)
	}
	return `PREFIX rdf: <` + rdf.RDFNS + `> PREFIX rdfs: <` + rdf.RDFSNS + `> PREFIX dm: <` + rdf.DMNS + `>
		SELECT ?class ?object WHERE { ?object rdf:type ?c . ?c rdfs:label ?class . ?object dm:hasName ?term
		FILTER (` + filter + `) } GROUP BY ?class ?object`
}

// oracleRows runs the query with the reference evaluator on a bare view
// of the warehouse's base model and OWLPRIME index: no planner, no text
// index, no results cache.
func oracleRows(t *testing.T, w *Warehouse, query string) []string {
	t.Helper()
	idx, err := reason.EnsureCurrent(context.Background(), w.st, w.model)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sparql.MustParse(query).ExecNaive(w.st.ViewOf(w.model, idx), w.st.Dict())
	if err != nil {
		t.Fatal(err)
	}
	return resultRows(res)
}

func resultRows(res *sparql.Result) []string {
	var out []string
	for _, row := range res.Rows {
		var b strings.Builder
		for _, v := range res.Vars {
			fmt.Fprintf(&b, "%s=%s;", v, row[v])
		}
		out = append(out, b.String())
	}
	sort.Strings(out)
	return out
}

func queryRows(t *testing.T, w *Warehouse, query string) []string {
	t.Helper()
	res, _, err := w.Query(context.Background(), query, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return resultRows(res)
}

func usesTextIndex(t *testing.T, w *Warehouse, query string) bool {
	t.Helper()
	plan, err := w.Explain(context.Background(), query)
	if err != nil {
		t.Fatal(err)
	}
	return strings.Contains(plan, "text index")
}

// TestTextAccessFreshAfterLoad: a one-triple load of a new matching name
// moves the base generation; the next Listing 1 refreshes the text
// index and returns the new row from it.
func TestTextAccessFreshAfterLoad(t *testing.T) {
	w := buildWarehouse(t)
	q := listing1Regex("customer", "i")
	before := queryRows(t, w, q)
	if len(before) == 0 || !usesTextIndex(t, w, q) {
		t.Fatalf("Listing 1 found %d rows, text index used: %v", len(before), usesTextIndex(t, w, q))
	}
	// A typed attribute (so it has class labels) not yet in the result
	// gains a matching name.
	res, _, err := w.Query(context.Background(), `PREFIX dm: <`+rdf.DMNS+`> SELECT ?x WHERE { ?x a dm:Attribute }`, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var x rdf.Term
	for _, row := range res.Rows {
		if !strings.Contains(strings.Join(before, "\n"), "object="+row["x"].String()+";") {
			x = row["x"]
			break
		}
	}
	if x.Value == "" {
		t.Fatal("every attribute already matches")
	}
	w.LoadTriples([]rdf.Triple{rdf.T(x, rdf.HasName, rdf.Literal("Fresh_CUSTOMER_key"))})
	after := queryRows(t, w, q)
	if want := oracleRows(t, w, q); strings.Join(after, "\n") != strings.Join(want, "\n") {
		t.Fatalf("after the load Listing 1 returns %d rows, oracle %d", len(after), len(want))
	}
	if len(after) <= len(before) {
		t.Errorf("the new name added no row: %d before, %d after", len(before), len(after))
	}
	if !usesTextIndex(t, w, q) {
		t.Error("the refreshed text index was not used")
	}
}

// TestTextAccessDerivedPredicate: with a property declared
// rdfs:subPropertyOf dm:hasName, the entailment index holds derived
// dm:hasName triples; the text index covers them and Listing 1 still
// equals the oracle.
func TestTextAccessDerivedPredicate(t *testing.T) {
	w := buildWarehouse(t)
	alias := rdf.IRI(rdf.DMNS + "hasAlias")
	res, _, err := w.Query(context.Background(), `PREFIX dm: <`+rdf.DMNS+`> SELECT ?x WHERE { ?x a dm:Attribute }`, QueryOptions{})
	if err != nil || len(res.Rows) == 0 {
		t.Fatalf("no attribute to alias: %v", err)
	}
	w.LoadTriples([]rdf.Triple{
		rdf.T(alias, rdf.SubPropertyOf, rdf.HasName),
		rdf.T(res.Rows[0]["x"], alias, rdf.Literal("legacy customer alias")),
	})
	q := listing1Regex("Customer", "i")
	got := queryRows(t, w, q)
	if want := oracleRows(t, w, q); strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("Listing 1 returns %d rows, oracle %d", len(got), len(want))
	}
	derived := w.st.CountPattern(reason.IndexModelName(w.model, reason.RulebaseOWLPrime), rdf.Term{}, rdf.HasName, rdf.Term{})
	if derived == 0 {
		t.Fatal("the entailment index holds no derived dm:hasName triple")
	}
	if !usesTextIndex(t, w, q) {
		t.Error("text index not used with derived names")
	}
}

// TestTextAccessWarehouseDifferential runs Listing 1 with random
// literals — substrings of the landscape's name tokens, case-mangled, with
// Unicode folding specials and metacharacters mixed in — through
// Warehouse.Query from concurrent clients, and compares every result
// with the reference evaluator on a bare view. Run under -race in CI.
func TestTextAccessWarehouseDifferential(t *testing.T) {
	w := New("")
	l := landscape.Generate(landscape.Small())
	if _, err := w.LoadOntology(l.Ontology); err != nil {
		t.Fatal(err)
	}
	if _, err := w.LoadExports(l.Exports); err != nil {
		t.Fatal(err)
	}
	w.IntegrateDBpedia(dbpedia.Banking())
	var words []string
	w.st.ForEach(w.model, rdf.Term{}, rdf.HasName, rdf.Term{}, func(tr rdf.Triple) bool {
		words = append(words, textindex.Tokenize(tr.O.Value)...)
		return true
	})
	sort.Strings(words)
	rng := rand.New(rand.NewSource(14))
	specials := []string{"ſ", "\u212a", "ß", "ẞ", "Σ", "σ", "ς", "İ", ".", "_"}
	type probe struct {
		query, lit string
		want       []string
	}
	var probes []probe
	for i := 0; i < 40; i++ {
		word := []rune(words[rng.Intn(len(words))])
		lo := rng.Intn(len(word))
		lit := word[lo:min(len(word), lo+1+rng.Intn(6))]
		for j := range lit {
			if rng.Intn(2) == 0 {
				lit[j] = []rune(strings.ToUpper(string(lit[j])))[0]
			}
		}
		s := string(lit)
		if rng.Intn(4) == 0 {
			s += specials[rng.Intn(len(specials))]
		}
		flags := ""
		if rng.Intn(3) > 0 {
			flags = "i"
		}
		q := listing1Regex(s, flags)
		probes = append(probes, probe{q, s, oracleRows(t, w, q)})
	}
	var wg sync.WaitGroup
	errs := make(chan string, len(probes))
	for c := 0; c < 3; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < len(probes); i += 3 {
				res, _, err := w.Query(context.Background(), probes[i].query, QueryOptions{})
				if err != nil {
					errs <- err.Error()
					continue
				}
				if got, want := resultRows(res), probes[i].want; strings.Join(got, "\n") != strings.Join(want, "\n") {
					errs <- fmt.Sprintf("literal %q: %d rows, oracle %d", probes[i].lit, len(got), len(want))
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	used := 0
	for _, p := range probes {
		if usesTextIndex(t, w, p.query) {
			used++
		}
	}
	if used < len(probes)/2 {
		t.Errorf("only %d of %d probes used the text access path", used, len(probes))
	}
}
