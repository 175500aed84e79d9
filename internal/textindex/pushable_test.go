package textindex

import (
	"fmt"
	"regexp"
	"sort"
	"testing"
	"unicode"
	"unicode/utf8"

	"mdw/internal/rdf"
	"mdw/internal/store"
)

// TestFoldOrbitsExhaustive is the completeness proof obligation of the
// SPARQL text access path, checked over every rune. Go's (?i) matches a
// pattern rune against any rune of its unicode.SimpleFold orbit, so a
// case-insensitive match is found from the index only if Fold sends the
// whole orbit to one representative; Fold must also map rune by rune,
// so that Fold(lit) is a substring of Fold(text) whenever lit is one of
// text. Orbits whose runes differ in letter/digit class must be
// excluded from pushdown (foldClassMixed), and that list must be exact.
func TestFoldOrbitsExhaustive(t *testing.T) {
	class := func(r rune) bool { return unicode.IsLetter(r) || unicode.IsDigit(r) }
	mixed := map[rune]bool{}
	for r := rune(0); r <= unicode.MaxRune; r++ {
		if !utf8.ValidRune(r) {
			continue
		}
		f := Fold(string(r))
		if got := Fold(string(r) + "Az0"); got != f+"az0" {
			t.Errorf("Fold(%q) = %q, not Fold(%q)+\"az0\" = %q: Fold does not map rune by rune", string(r)+"Az0", got, string(r), f+"az0")
		}
		for s := unicode.SimpleFold(r); s != r; s = unicode.SimpleFold(s) {
			if fs := Fold(string(s)); fs != f {
				t.Errorf("Fold(%U %q) = %q but Fold(%U %q) = %q: (?i) matches would be dropped", r, r, f, s, s, fs)
				mixed[r] = true
			}
			if class(s) != class(r) {
				mixed[r] = true
			}
		}
	}
	for r := range mixed {
		if !foldClassMixed[r] {
			t.Errorf("%U %q fails the orbit checks but is not excluded from pushdown", r, r)
		}
		if Pushable("a" + string(r)) {
			t.Errorf("Pushable(%q) = true for a literal containing %U", "a"+string(r), r)
		}
	}
	for r := range foldClassMixed {
		if !mixed[r] {
			t.Errorf("%U is excluded from pushdown but passes the orbit checks", r)
		}
	}
}

func TestPushable(t *testing.T) {
	cases := map[string]bool{
		"customer": true,
		"CusTomer": true,
		"tcd100":   true,
		"ſecret":   true,
		"Kelvin":   true, // Kelvin sign
		"straße":   true,
		"ΣΟΦΙΑ":    false, // Ι: its orbit holds a combining mark
		"":         false,
		"cust.mer": false, // metacharacter
		"cust mer": false, // two tokens
		"cust_mer": false,
		"^cust":    false,
		"a\u0345":  false, // U+0345 itself
	}
	for lit, want := range cases {
		if got := Pushable(lit); got != want {
			t.Errorf("Pushable(%q) = %v, want %v", lit, got, want)
		}
	}
}

// TestContainingMatchesRegexScan checks Containing against the regex
// scan it stands in for: for a pushable literal, every literal of the
// predicate the regex matches (under either flag) is among the
// postings, and the postings are distinct and sorted.
func TestContainingMatchesRegexScan(t *testing.T) {
	st := store.New()
	texts := []string{
		"Customer_ID", "customer customers", "CUSTOMERS", "ſecret Kelvin", "straße",
		"STRASSE", "Σίσυφος", "ΣΟΦΟΣ", "İstanbul", "istanbul", "customer", "cust.mer",
	}
	other := rdf.IRI(rdf.InstNS + "unindexed")
	for i, text := range texts {
		s := rdf.IRI(fmt.Sprintf("%ss%d", rdf.InstNS, i))
		st.Add("m", rdf.T(s, rdf.HasName, rdf.Literal(text)))
		st.Add("m", rdf.T(s, rdf.Label, rdf.Literal(text)))
		st.Add("m", rdf.T(s, other, rdf.Literal(text)))
	}
	dict := st.Dict()
	ix := Build("m", st.Generation("m"), st.ViewOf("m"), dict, Config{})
	hasName, _ := dict.Lookup(rdf.HasName)
	if oid, _ := dict.Lookup(other); ix.Indexes(oid) || !ix.Indexes(hasName) {
		t.Fatalf("Indexes: unindexed predicate reported covered, or dm:hasName not")
	}
	for _, lit := range []string{"customer", "CUSTOMER", "ers", "secret", "kelvin", "ss", "ß", "σ", "ς", "İst", "ist"} {
		if !Pushable(lit) {
			t.Fatalf("Pushable(%q) = false", lit)
		}
		got := ix.Containing(hasName, lit)
		if !sort.SliceIsSorted(got, func(i, j int) bool { return less(got[i], got[j]) }) {
			t.Errorf("Containing(%q) not sorted: %v", lit, got)
		}
		have := map[store.ID]bool{}
		for i, p := range got {
			if p.Pred != hasName {
				t.Errorf("Containing(%q) returned predicate %d", lit, p.Pred)
			}
			if i > 0 && got[i-1] == p {
				t.Errorf("Containing(%q) repeats %v", lit, p)
			}
			have[p.Object] = true
		}
		for _, flags := range []string{"", "(?i)"} {
			re := regexp.MustCompile(flags + lit)
			for _, text := range texts {
				id, _ := dict.Lookup(rdf.Literal(text))
				if re.MatchString(text) && !have[id] {
					t.Errorf("regex %q matches %q but Containing misses it", flags+lit, text)
				}
			}
		}
	}
	if got := ix.Containing(hasName, "customers"); len(got) != 2 {
		t.Errorf("Containing(customers) = %d postings, want 2", len(got))
	}
}

func less(a, b Posting) bool {
	if a.Subject != b.Subject {
		return a.Subject < b.Subject
	}
	if a.Pred != b.Pred {
		return a.Pred < b.Pred
	}
	return a.Object < b.Object
}
