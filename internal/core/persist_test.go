package core

import (
	"bytes"
	"context"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"mdw/internal/dbpedia"
	"mdw/internal/landscape"
	"mdw/internal/lineage"
	"mdw/internal/search"
	"mdw/internal/staging"
)

func TestSaveOpenRoundTrip(t *testing.T) {
	w := buildWarehouse(t)
	w.IntegrateDBpedia(dbpedia.Banking())
	if _, err := w.Reindex(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Snapshot("2009-R1", time.Date(2009, 3, 1, 0, 0, 0, 0, time.UTC)); err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "wh.mdw")
	if err := w.Save(path); err != nil {
		t.Fatal(err)
	}
	back, err := Open(path, "")
	if err != nil {
		t.Fatal(err)
	}

	// Same triple counts.
	if back.Stats().Triples != w.Stats().Triples {
		t.Errorf("triples: %d vs %d", back.Stats().Triples, w.Stats().Triples)
	}
	// Search still works (index was persisted).
	res, err := back.Search("customer", search.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Instances == 0 {
		t.Error("no hits after restore")
	}
	// Semantic expansion survives (thesaurus rebuilt from the model).
	res, err = back.Search("client", search.Options{Semantic: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Expanded) < 2 {
		t.Errorf("thesaurus not restored: %v", res.Expanded)
	}
	// Lineage still works.
	item := staging.InstanceIRI(strings.Split(landscape.Figure3Paths()[3], "/")...)
	g, err := back.Lineage(item, lineage.Backward, lineage.Options{})
	if err != nil || len(g.Nodes) != 4 {
		t.Errorf("lineage after restore: %v, %v", g, err)
	}
	// Release history survives.
	vs := back.History().Versions()
	if len(vs) != 1 || vs[0].Tag != "2009-R1" || vs[0].Number != 1 {
		t.Errorf("versions = %+v", vs)
	}
	if vs[0].At != time.Date(2009, 3, 1, 0, 0, 0, 0, time.UTC) {
		t.Errorf("timestamp = %v", vs[0].At)
	}
	// And new snapshots continue the numbering.
	v2, err := back.Snapshot("2009-R2", time.Date(2009, 6, 1, 0, 0, 0, 0, time.UTC))
	if err != nil {
		t.Fatal(err)
	}
	if v2.Number != 2 {
		t.Errorf("v2.Number = %d", v2.Number)
	}
}

func TestReadFromErrors(t *testing.T) {
	if _, err := ReadFrom(bytes.NewReader(nil), ""); err == nil {
		t.Error("empty dump accepted")
	}
	if _, err := ReadFrom(strings.NewReader("garbage\n"), ""); err == nil {
		t.Error("garbage dump accepted")
	}
	// A valid dump without the requested model.
	w := New("other")
	var buf bytes.Buffer
	if err := w.WriteDump(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFrom(bytes.NewReader(buf.Bytes()), "DWH_CURR"); err == nil {
		t.Error("missing model accepted")
	}
}

func TestWriteDumpIsDeterministic(t *testing.T) {
	w := buildWarehouse(t)
	var a, b bytes.Buffer
	if err := w.WriteDump(&a); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteDump(&b); err != nil {
		t.Fatal(err)
	}
	// Model iteration order is sorted, but triples within a model follow
	// map order — so compare parsed content, not bytes.
	w1, err := ReadFrom(bytes.NewReader(a.Bytes()), "")
	if err != nil {
		t.Fatal(err)
	}
	w2, err := ReadFrom(bytes.NewReader(b.Bytes()), "")
	if err != nil {
		t.Fatal(err)
	}
	if w1.Stats().Triples != w2.Stats().Triples {
		t.Error("dumps disagree")
	}
}
