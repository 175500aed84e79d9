package reason

import (
	"context"
	"math/rand"
	"sync"
	"testing"

	"mdw/internal/rdf"
	"mdw/internal/store"
)

// ruleTriple draws one triple from a small vocabulary, covering every
// rule family the engine supports plus plain facts, literal objects and,
// rarely, a schema predicate in a property position (which the
// property-sensitive rules must ignore from either premise).
func ruleTriple(r *rand.Rand) rdf.Triple {
	classes := []rdf.Term{iri("A"), iri("B"), iri("C"), iri("D")}
	props := []rdf.Term{iri("p"), iri("q"), iri("r"), iri("s")}
	insts := []rdf.Term{iri("x"), iri("y"), iri("z"), iri("w"), iri("v")}
	pick := func(ts []rdf.Term) rdf.Term { return ts[r.Intn(len(ts))] }
	prop := func() rdf.Term {
		if r.Intn(12) == 0 {
			return pick([]rdf.Term{rdf.Type, rdf.SubClassOf, rdf.IRI(rdf.OWLSameAs)})
		}
		return pick(props)
	}
	switch r.Intn(14) {
	case 0:
		return rdf.T(pick(classes), rdf.SubClassOf, pick(classes))
	case 1:
		return rdf.T(prop(), rdf.SubPropertyOf, prop())
	case 2:
		return rdf.T(prop(), rdf.Domain, pick(classes))
	case 3:
		return rdf.T(prop(), rdf.Range, pick(classes))
	case 4:
		return rdf.T(prop(), rdf.Type, rdf.IRI(rdf.OWLSymmetricProperty))
	case 5:
		return rdf.T(prop(), rdf.Type, rdf.IRI(rdf.OWLTransitiveProperty))
	case 6:
		return rdf.T(prop(), rdf.IRI(rdf.OWLInverseOf), prop())
	case 7:
		return rdf.T(pick(classes), rdf.IRI(rdf.OWLEquivalentClass), pick(classes))
	case 8:
		return rdf.T(prop(), rdf.IRI(rdf.OWLEquivalentProperty), prop())
	case 9:
		return rdf.T(pick(insts), rdf.IRI(rdf.OWLSameAs), pick(insts))
	case 10:
		return rdf.T(pick(insts), rdf.Type, pick(classes))
	case 11:
		return rdf.T(pick(insts), pick(props), rdf.Literal("lit"))
	default:
		return rdf.T(pick(insts), pick(props), pick(insts))
	}
}

// fullIndex is the oracle: the index a fresh full Materialize derives
// from the given base triples.
func fullIndex(t *testing.T, base []rdf.Triple) []rdf.Triple {
	t.Helper()
	st := store.New()
	st.AddAll("m", base)
	idx, _, err := NewEngine(st).Materialize(context.Background(), "m")
	if err != nil {
		t.Fatal(err)
	}
	return st.Triples(idx)
}

func equalTriples(a, b []rdf.Triple) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestIncrementalMatchesFullMaterialize is the differential oracle of
// incremental maintenance: random insert sequences, interleaved with
// assertions of already-derived triples as base and with removals, must
// leave EnsureCurrent's index equal to a fresh full Materialize after
// every step. Inserts must take the delta path and removals the full one.
func TestIncrementalMatchesFullMaterialize(t *testing.T) {
	ctx := context.Background()
	idx := IndexModelName("m", RulebaseOWLPrime)
	var promoted, removals, deltas int
	for seed := int64(1); seed <= 60; seed++ {
		r := rand.New(rand.NewSource(seed))
		st := store.New()
		for i := 0; i < 4; i++ {
			st.Add("m", ruleTriple(r))
		}
		if _, err := EnsureCurrent(ctx, st, "m"); err != nil {
			t.Fatal(err)
		}
		for step := 0; step < 25; step++ {
			full0 := obsFullPasses.Value()
			wantFull := false
			switch k := r.Intn(10); {
			case k == 0:
				// Remove a random base triple: the add log cannot express
				// it, so the next derivation must run in full.
				base := st.Triples("m")
				if len(base) == 0 {
					continue
				}
				if !st.Remove("m", base[r.Intn(len(base))]) {
					t.Fatal("Remove of a present triple returned false")
				}
				wantFull = true
				removals++
			case k <= 2:
				// Assert an already-derived triple as base: it must move
				// out of the index, which holds derived triples only.
				derived := st.Triples(idx)
				if len(derived) == 0 {
					continue
				}
				st.Add("m", derived[r.Intn(len(derived))])
				promoted++
			default:
				batch := make([]rdf.Triple, 1+r.Intn(3))
				for i := range batch {
					batch[i] = ruleTriple(r)
				}
				if st.AddAll("m", batch) == 0 {
					continue
				}
			}
			if _, err := EnsureCurrent(ctx, st, "m"); err != nil {
				t.Fatal(err)
			}
			if !st.Current("m", idx) {
				t.Fatalf("seed %d step %d: index not current after EnsureCurrent", seed, step)
			}
			ranFull := obsFullPasses.Value() != full0
			if ranFull != wantFull {
				t.Fatalf("seed %d step %d: full pass = %v, want %v", seed, step, ranFull, wantFull)
			}
			if !ranFull {
				deltas++
			}
			base := st.Triples("m")
			got, want := st.Triples(idx), fullIndex(t, base)
			if !equalTriples(got, want) {
				t.Fatalf("seed %d step %d: incremental index (%d triples) differs from full Materialize (%d)\nbase:\n%v\nincremental:\n%v\nfull:\n%v",
					seed, step, len(got), len(want), base, got, want)
			}
		}
	}
	if promoted == 0 || removals == 0 || deltas == 0 {
		t.Fatalf("sequences missed a step kind: %d promotions, %d removals, %d delta passes", promoted, removals, deltas)
	}
}

// TestIncrementalDeltaPublishIsCopyOnWrite checks that a delta pass
// leaves a View taken over the previous index unchanged, and that a
// base triple which used to be derived leaves the index.
func TestIncrementalDeltaPublishIsCopyOnWrite(t *testing.T) {
	ctx := context.Background()
	st := store.New()
	st.AddAll("m", []rdf.Triple{
		rdf.T(iri("x"), rdf.Type, iri("A")),
		rdf.T(iri("A"), rdf.SubClassOf, iri("B")),
	})
	idx, err := EnsureCurrent(ctx, st, "m")
	if err != nil {
		t.Fatal(err)
	}
	old := st.ViewOf(idx)
	oldLen := old.Len()
	st.Add("m", rdf.T(iri("B"), rdf.SubClassOf, iri("C")))
	st.Add("m", rdf.T(iri("x"), rdf.Type, iri("B"))) // was derived
	full0 := obsFullPasses.Value()
	if _, err := EnsureCurrent(ctx, st, "m"); err != nil {
		t.Fatal(err)
	}
	if obsFullPasses.Value() != full0 {
		t.Fatal("an insert-only change ran a full pass")
	}
	if old.Len() != oldLen {
		t.Errorf("view over the previous index changed: %d triples, had %d", old.Len(), oldLen)
	}
	if st.Contains(idx, rdf.T(iri("x"), rdf.Type, iri("B"))) {
		t.Error("a triple asserted as base stayed in the index")
	}
	for _, want := range []rdf.Triple{
		rdf.T(iri("x"), rdf.Type, iri("C")),
		rdf.T(iri("A"), rdf.SubClassOf, iri("C")),
	} {
		if !st.Contains(idx, want) {
			t.Errorf("delta pass missed %v", want)
		}
	}
}

// TestIncrementalSingleFlight fires many concurrent readers at a stale
// index after one write: exactly one derivation may run, and every
// reader must come back with a current index.
func TestIncrementalSingleFlight(t *testing.T) {
	ctx := context.Background()
	st := store.New()
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 40; i++ {
		st.Add("m", ruleTriple(r))
	}
	if _, err := EnsureCurrent(ctx, st, "m"); err != nil {
		t.Fatal(err)
	}
	st.Add("m", rdf.T(iri("fresh"), rdf.Type, iri("A")))
	calls0 := obsMaterializeHist.Count()
	const readers = 32
	var wg sync.WaitGroup
	start := make(chan struct{})
	errs := make(chan error, readers)
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			idx, err := EnsureCurrent(ctx, st, "m")
			if err == nil && !st.Current("m", idx) {
				t.Error("reader returned with a stale index")
			}
			errs <- err
		}()
	}
	close(start)
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if n := obsMaterializeHist.Count() - calls0; n != 1 {
		t.Fatalf("%d derivations ran for one write, want exactly 1", n)
	}
}

// TestIncrementalConcurrentWritersAndReaders races writers against
// readers that derive and read the index while the base keeps growing
// (run under -race): copy-on-write snapshots, delta publication and the
// derive lock must keep every read consistent, and once the writers
// stop, the index must still equal a full Materialize.
func TestIncrementalConcurrentWritersAndReaders(t *testing.T) {
	ctx := context.Background()
	st := store.New()
	r := rand.New(rand.NewSource(11))
	for i := 0; i < 20; i++ {
		st.Add("m", ruleTriple(r))
	}
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for i := 0; i < 60; i++ {
				st.Add("m", ruleTriple(r))
			}
		}(int64(100 + w))
	}
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				idx, err := EnsureCurrent(ctx, st, "m")
				if err != nil {
					t.Error(err)
					return
				}
				st.ReadView(func(v *store.View, _ []store.ModelInfo) { v.Len() }, "m", idx)
			}
		}()
	}
	wg.Wait()
	idx, err := EnsureCurrent(ctx, st, "m")
	if err != nil {
		t.Fatal(err)
	}
	if got, want := st.Triples(idx), fullIndex(t, st.Triples("m")); !equalTriples(got, want) {
		t.Fatalf("index after concurrent writes has %d triples, full Materialize %d", len(got), len(want))
	}
}
