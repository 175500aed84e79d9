package store

import (
	"sync"
	"testing"

	"mdw/internal/rdf"
)

// triples returns every triple of m in a comparable set form.
func modelSet(m *Model) map[ETriple]bool {
	out := make(map[ETriple]bool)
	m.ForEach(Wildcard, Wildcard, Wildcard, func(t ETriple) bool {
		out[t] = true
		return true
	})
	return out
}

// TestCloneFreshGeneration is the divergence regression for the old
// `c.gen = m.gen` behavior: a clone and its source must never share a
// generation, before or after either side mutates.
func TestCloneFreshGeneration(t *testing.T) {
	m := NewModel("m")
	m.Add(ETriple{1, 2, 3})
	m.Add(ETriple{1, 2, 4})
	srcGen := m.Gen()
	c := m.Clone("c")
	if c.Gen() == srcGen {
		t.Fatalf("clone kept source generation %d", srcGen)
	}
	if c.Basis() != srcGen {
		t.Errorf("clone basis = %d, want source generation %d", c.Basis(), srcGen)
	}
	// Mutating the source must not be able to catch up with the clone's
	// generation sequence (they live under different salts).
	for i := ID(10); i < 20; i++ {
		m.Add(ETriple{i, 2, 3})
		if m.Gen() == c.Gen() {
			t.Fatalf("source generation %d collided with clone's", m.Gen())
		}
	}
	// First post-clone write bumps the clone's generation.
	g0 := c.Gen()
	c.Add(ETriple{99, 2, 3})
	if c.Gen() == g0 {
		t.Error("clone write did not advance its generation")
	}
}

// TestStoreCloneGenUnique checks store-level uniqueness: clones of the
// same source, re-clones after drops, and snapshots all get generations
// no live or past model ever carried.
func TestStoreCloneGenUnique(t *testing.T) {
	s := New()
	s.Add("src", rdf.T(iri("s"), iri("p"), iri("o")))
	seen := map[uint64]string{s.Generation("src"): "src"}
	record := func(name string) {
		g := s.Generation(name)
		if prev, dup := seen[g]; dup {
			t.Fatalf("generation %d of %q already used by %q", g, name, prev)
		}
		seen[g] = name
	}
	if err := s.CloneModel("src", "a"); err != nil {
		t.Fatal(err)
	}
	record("a")
	if err := s.CloneModel("src", "b"); err != nil {
		t.Fatal(err)
	}
	record("b")
	// Drop and re-clone under the same name: the old salt must not be
	// reused, or stale (name, gen) cache keys could alias.
	gA := s.Generation("a")
	s.DropModel("a")
	if err := s.CloneModel("src", "a"); err != nil {
		t.Fatal(err)
	}
	if s.Generation("a") == gA {
		t.Fatalf("re-clone of %q reused dropped generation %d", "a", gA)
	}
	record("a")
	snap := s.BeginDerive("src", "src$IDX", true).Base
	if _, dup := seen[snap.Gen()]; dup {
		t.Fatalf("snapshot generation %d aliases a model", snap.Gen())
	}
}

// TestCOWIsolation exercises mutation isolation in both directions and
// through both Add and Remove, including the swap-delete path of
// removeIdx that mutates slices in place.
func TestCOWIsolation(t *testing.T) {
	m := NewModel("m")
	// Several objects under one (s, p) so removeIdx swap-deletes inside a
	// shared slice, and several predicates per subject so inner maps have
	// multiple keys.
	for o := ID(100); o < 110; o++ {
		m.Add(ETriple{1, 2, o})
		m.Add(ETriple{1, 3, o})
		m.Add(ETriple{4, 2, o})
	}
	want := modelSet(m)

	c := m.Clone("c")
	// Source-side mutations: in-place slice removal and appends.
	m.Remove(ETriple{1, 2, 105})
	m.Remove(ETriple{4, 2, 100})
	m.Add(ETriple{1, 2, 999})
	if got := modelSet(c); len(got) != len(want) {
		t.Fatalf("source mutations leaked into clone: %d triples, want %d", len(got), len(want))
	}
	for tr := range want {
		if !c.Contains(tr) {
			t.Fatalf("clone lost %v after source mutation", tr)
		}
	}
	// Clone-side mutations must not leak back.
	c.Remove(ETriple{1, 3, 101})
	c.Add(ETriple{7, 7, 7})
	if m.Contains(ETriple{7, 7, 7}) {
		t.Error("clone add leaked into source")
	}
	if !m.Contains(ETriple{1, 3, 101}) {
		t.Error("clone remove leaked into source")
	}
	// Count/Objects/Subjects answer from the indexes; spot-check they
	// agree with the divergence.
	if n := c.Count(1, 2, Wildcard); n != 10 {
		t.Errorf("clone Count(1,2,*) = %d, want 10", n)
	}
	if n := m.Count(1, 2, Wildcard); n != 10 { // -105 +999
		t.Errorf("source Count(1,2,*) = %d, want 10", n)
	}
}

// TestCOWThreeWaySharing: two clones of one source all share nodes;
// each side's mutations stay private.
func TestCOWThreeWaySharing(t *testing.T) {
	m := NewModel("m")
	m.Add(ETriple{1, 2, 3})
	m.Add(ETriple{1, 2, 4})
	a := m.Clone("a")
	b := m.Clone("b")
	m.Remove(ETriple{1, 2, 3})
	a.Add(ETriple{1, 2, 5})
	b.Remove(ETriple{1, 2, 4})
	if !a.Contains(ETriple{1, 2, 3}) || !a.Contains(ETriple{1, 2, 4}) || a.Len() != 3 {
		t.Errorf("clone a diverged wrongly: %v", modelSet(a))
	}
	if !b.Contains(ETriple{1, 2, 3}) || b.Contains(ETriple{1, 2, 4}) || b.Len() != 1 {
		t.Errorf("clone b diverged wrongly: %v", modelSet(b))
	}
	if m.Len() != 1 || !m.Contains(ETriple{1, 2, 4}) {
		t.Errorf("source diverged wrongly: %v", modelSet(m))
	}
}

// TestCloneOfClone chains clones and mutates every layer.
func TestCloneOfClone(t *testing.T) {
	m := NewModel("m")
	m.Add(ETriple{1, 2, 3})
	c1 := m.Clone("c1")
	c1.Add(ETriple{4, 5, 6})
	c1GenAtClone := c1.Gen()
	c2 := c1.Clone("c2")
	c2.Remove(ETriple{1, 2, 3})
	c2.Add(ETriple{7, 8, 9})
	if m.Len() != 1 || c1.Len() != 2 || c2.Len() != 2 {
		t.Fatalf("lens = %d/%d/%d, want 1/2/2", m.Len(), c1.Len(), c2.Len())
	}
	if !c1.Contains(ETriple{1, 2, 3}) {
		t.Error("grandchild remove leaked into child")
	}
	if c1.Gen() == c2.Gen() {
		t.Errorf("clone-of-clone shares generation %d with its source", c2.Gen())
	}
	if c2.Basis() != c1GenAtClone {
		t.Errorf("c2 basis = %d, want c1's generation at clone time %d", c2.Basis(), c1GenAtClone)
	}
}

// TestSnapshotConcurrentWithStoreWrites is the -race proof for the
// reasoner's pattern: a detached snapshot is read and mutated by one
// goroutine while other goroutines keep writing to the source through
// the store (and taking further snapshots).
func TestSnapshotConcurrentWithStoreWrites(t *testing.T) {
	s := New()
	for i := 0; i < 50; i++ {
		s.Add("m", rdf.T(iri2("s", i%10), iri2("p", i%3), iri2("o", i)))
	}
	snap := s.BeginDerive("m", "m$IDX", true).Base
	wantLen := snap.Len()
	var wg sync.WaitGroup
	wg.Add(3)
	go func() { // store writer
		defer wg.Done()
		for i := 0; i < 200; i++ {
			s.Add("m", rdf.T(iri2("s", i%10), iri2("p", i%3), iri2("x", i)))
			if i%7 == 0 {
				s.Remove("m", rdf.T(iri2("s", i%10), iri2("p", i%3), iri2("x", i)))
			}
		}
	}()
	go func() { // snapshot reader + mutator (the reasoner's closure loop)
		defer wg.Done()
		n := 0
		snap.ForEach(Wildcard, Wildcard, Wildcard, func(t ETriple) bool { n++; return true })
		if n != wantLen {
			t.Errorf("snapshot saw %d triples, want %d", n, wantLen)
		}
		for i := 0; i < 200; i++ {
			snap.Add(ETriple{ID(1000 + i), 1, 1})
		}
	}()
	go func() { // concurrent further snapshots
		defer wg.Done()
		for i := 0; i < 20; i++ {
			s2 := s.BeginDerive("m", "m$IDX", true).Base
			s2.Add(ETriple{1, 1, ID(i)})
		}
	}()
	wg.Wait()
	if snap.Len() != wantLen+200 {
		t.Errorf("snapshot len = %d, want %d", snap.Len(), wantLen+200)
	}
}

func iri2(prefix string, i int) rdf.Term {
	return iri(prefix + string(rune('a'+i%26)) + string(rune('a'+(i/26)%26)))
}
