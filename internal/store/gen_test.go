package store

import (
	"bytes"
	"testing"

	"mdw/internal/rdf"
)

func TestGenerationCounting(t *testing.T) {
	st := New()
	if g := st.Generation("m"); g != 0 {
		t.Fatalf("generation of missing model = %d, want 0", g)
	}
	st.Add("m", rdf.T(iri("s"), iri("p"), iri("o")))
	g1 := st.Generation("m")
	if g1 == 0 {
		t.Fatal("generation stayed 0 after first add")
	}
	// A duplicate add is a no-op and must not advance the generation.
	st.Add("m", rdf.T(iri("s"), iri("p"), iri("o")))
	if g := st.Generation("m"); g != g1 {
		t.Errorf("duplicate add advanced generation %d -> %d", g1, g)
	}
	st.Add("m", rdf.T(iri("s2"), iri("p"), iri("o")))
	g2 := st.Generation("m")
	if g2 <= g1 {
		t.Errorf("add did not advance generation (%d -> %d)", g1, g2)
	}
	st.Remove("m", rdf.T(iri("s2"), iri("p"), iri("o")))
	if g := st.Generation("m"); g <= g2 {
		t.Errorf("remove did not advance generation (%d -> %d)", g2, g)
	}
	// Removing an absent triple is a no-op.
	g3 := st.Generation("m")
	st.Remove("m", rdf.T(iri("s2"), iri("p"), iri("o")))
	if g := st.Generation("m"); g != g3 {
		t.Errorf("no-op remove advanced generation %d -> %d", g3, g)
	}
}

func TestCurrentAndBasis(t *testing.T) {
	st := New()
	st.Add("base", rdf.T(iri("s"), iri("p"), iri("o")))
	if st.Current("base", "base$IDX") {
		t.Fatal("missing derived model reported current")
	}
	// Derive via the snapshot/install protocol of a full pass.
	snap := st.BeginDerive("base", "base$IDX", true).Base
	derived := NewModel("base$IDX")
	snap.ForEach(Wildcard, Wildcard, Wildcard, func(e ETriple) bool {
		derived.Add(e)
		return true
	})
	derived.SetBasis(snap.Basis())
	st.InstallModel(derived)
	if !st.Current("base", "base$IDX") {
		t.Fatal("freshly installed derived model not current")
	}
	// Any write to the base invalidates the derivation.
	st.Add("base", rdf.T(iri("s2"), iri("p"), iri("o")))
	if st.Current("base", "base$IDX") {
		t.Error("derived model still current after base write")
	}
	if st.Current("no_base", "base$IDX") {
		t.Error("current with a missing base")
	}
}

func TestDeriveSnapshotIsDetached(t *testing.T) {
	st := New()
	st.Add("m", rdf.T(iri("s"), iri("p"), iri("o")))
	snap := st.BeginDerive("m", "m$IDX", true).Base
	if snap == nil || snap.Len() != 1 {
		t.Fatalf("snapshot = %v", snap)
	}
	if snap.Basis() != st.Generation("m") {
		t.Errorf("snapshot basis %d != model gen %d", snap.Basis(), st.Generation("m"))
	}
	// The snapshot's own generation is fresh: it must never alias the
	// source's, no matter how either side mutates from here.
	if snap.Gen() == st.Generation("m") {
		t.Errorf("snapshot kept the source generation %d", snap.Gen())
	}
	// Later store writes do not leak into the snapshot, and snapshot
	// writes do not leak back.
	st.Add("m", rdf.T(iri("s2"), iri("p"), iri("o")))
	if snap.Len() != 1 {
		t.Error("store write visible in snapshot")
	}
	snap.Add(ETriple{S: 91, P: 92, O: 93})
	if st.Len("m") != 2 {
		t.Error("snapshot write visible in store")
	}
	if st.BeginDerive("missing", "missing$IDX", true) != nil {
		t.Error("derivation of a missing model is not nil")
	}
}

// TestBeginDeriveDeltaCoverage checks when BeginDerive offers a delta
// pass: only when the base model's add log runs from the published
// derived model's basis to the present, with no removal since, and
// never on a clone (whose log starts unarmed).
func TestBeginDeriveDeltaCoverage(t *testing.T) {
	st := New()
	st.Add("m", rdf.T(iri("s"), iri("p"), iri("o")))
	publish := func(d *Derivation) {
		idx := NewModel("m$IDX")
		idx.SetBasis(d.Base.Basis())
		st.InstallModel(idx)
	}
	d := st.BeginDerive("m", "m$IDX", false)
	if d.Index != nil {
		t.Fatal("delta offered without a derived model")
	}
	publish(d)
	st.Add("m", rdf.T(iri("s2"), iri("p"), iri("o")))
	d = st.BeginDerive("m", "m$IDX", false)
	if d.Index == nil || len(d.Delta) != 1 {
		t.Fatalf("after one add: index %v, delta %v; want a one-triple delta", d.Index, d.Delta)
	}
	d.Index.SetBasis(d.Base.Basis())
	if !st.PublishDelta(d, nil, nil) {
		t.Fatal("PublishDelta refused an unchanged derived model")
	}
	if !st.Current("m", "m$IDX") {
		t.Fatal("published delta is not current")
	}
	if st.PublishDelta(d, nil, nil) {
		t.Error("PublishDelta accepted a derived model that was replaced meanwhile")
	}
	st.Add("m", rdf.T(iri("s3"), iri("p"), iri("o")))
	if d := st.BeginDerive("m", "m$IDX", true); d.Index != nil {
		t.Error("forced full pass offered a delta")
	}
	publish(st.BeginDerive("m", "m$IDX", true))
	st.Remove("m", rdf.T(iri("s3"), iri("p"), iri("o")))
	if d := st.BeginDerive("m", "m$IDX", false); d.Index != nil {
		t.Error("delta offered across a removal")
	}
	if err := st.CloneModel("m", "c"); err != nil {
		t.Fatal(err)
	}
	cIdx := NewModel("c$IDX")
	cIdx.SetBasis(st.Generation("c"))
	st.InstallModel(cIdx)
	st.Add("c", rdf.T(iri("s4"), iri("p"), iri("o")))
	if d := st.BeginDerive("c", "c$IDX", false); d.Index != nil {
		t.Error("delta offered on a clone whose log was never armed")
	}
}

func TestReadViewInfos(t *testing.T) {
	st := New()
	st.Add("a", rdf.T(iri("s"), iri("p"), iri("o")))
	st.Add("a", rdf.T(iri("s2"), iri("p"), iri("o")))
	var infos []ModelInfo
	var n int
	st.ReadView(func(v *View, is []ModelInfo) {
		infos = append([]ModelInfo(nil), is...)
		n = v.Len()
	}, "a", "missing")
	if n != 2 {
		t.Errorf("view over a+missing has %d triples, want 2", n)
	}
	if len(infos) != 2 {
		t.Fatalf("infos = %v", infos)
	}
	if !infos[0].Exists || infos[0].Gen != st.Generation("a") || infos[0].Triples != 2 {
		t.Errorf("info[a] = %+v", infos[0])
	}
	if infos[1].Exists || infos[1].Gen != 0 || infos[1].Name != "missing" {
		t.Errorf("info[missing] = %+v", infos[1])
	}
}

// TestDumpAdoptsDerivedBasis checks the load-time adoption rule: a dump
// is written from a consistent store, so "<base>$<rulebase>" models come
// back current without re-entailment.
func TestDumpAdoptsDerivedBasis(t *testing.T) {
	st := New()
	st.Add("m", rdf.T(iri("s"), iri("p"), iri("o")))
	st.Add("m$OWLPRIME", rdf.T(iri("s"), iri("p"), iri("o")))
	st.Add("m$OWLPRIME", rdf.T(iri("s"), iri("p2"), iri("o")))
	st.Add("other", rdf.T(iri("x"), iri("p"), iri("o")))

	var buf bytes.Buffer
	if err := st.WriteDump(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadDump(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Current("m", "m$OWLPRIME") {
		t.Error("derived model not adopted as current after ReadDump")
	}
	// Non-derived models gain no basis.
	if got.Current("m", "other") {
		t.Error("unrelated model reported current")
	}
	// And the adoption breaks as soon as the base moves on.
	got.Add("m", rdf.T(iri("s9"), iri("p"), iri("o")))
	if got.Current("m", "m$OWLPRIME") {
		t.Error("adopted basis survived a base write")
	}
}
