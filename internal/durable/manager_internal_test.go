package durable

import (
	"fmt"
	"strings"
	"testing"

	"mdw/internal/rdf"
	"mdw/internal/store"
)

// TestScratchBufferDoesNotGrow checks the commit hook's payload scratch:
// a record larger than it is encoded into a one-off buffer, so after a
// bulk record the manager still retains only scratchBytes.
func TestScratchBufferDoesNotGrow(t *testing.T) {
	mgr, st, err := Open(Options{Dir: t.TempDir(), Fsync: FsyncNone})
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()
	st.Add("m", rdf.T(rdf.IRI("http://a"), rdf.IRI("http://p"), rdf.Literal("small")))
	var bulk []rdf.Triple
	for i := 0; i < 200; i++ {
		bulk = append(bulk, rdf.T(rdf.IRI(fmt.Sprintf("http://s/%d", i)), rdf.IRI("http://p"), rdf.Literal(strings.Repeat("x", 64))))
	}
	before := obsWALBytes.Value()
	st.AddAll("m", bulk)
	if n := obsWALBytes.Value() - before; n <= scratchBytes {
		t.Fatalf("bulk record logged %d bytes, want more than the %d-byte scratch", n, scratchBytes)
	}
	st.Add("m", rdf.T(rdf.IRI("http://b"), rdf.IRI("http://p"), rdf.Literal("small")))
	mgr.mu.Lock()
	c := cap(mgr.buf)
	mgr.mu.Unlock()
	if c != scratchBytes {
		t.Errorf("retained scratch capacity %d after a bulk record, want %d", c, scratchBytes)
	}
	if err := mgr.Close(); err != nil {
		t.Fatal(err)
	}
	// The bulk record itself must still have been logged intact.
	rst, _, err := Recover(mgr.opts.Dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := rst.Len("m"); got != 202 {
		t.Errorf("recovered %d triples, want 202", got)
	}
}

// TestDeltaPrevMismatchIsDivergence writes a WAL whose delta record
// expects the derived model at a generation it does not sit at: replay
// must refuse it as a divergence instead of applying the delta to the
// wrong state.
func TestDeltaPrevMismatchIsDivergence(t *testing.T) {
	a, p, b := rdf.IRI("http://a"), rdf.IRI("http://p"), rdf.IRI("http://b")
	for _, tc := range []struct {
		name    string
		prev    uint64
		wantErr bool
	}{
		{"prev matches", 1, false},
		{"prev mismatch", 2, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			w, err := createSegment(dir, 1)
			if err != nil {
				t.Fatal(err)
			}
			recs := []*Record{
				{LSN: 1, Op: store.OpAdd, Model: "m", Gen: 2, Triples: []rdf.Triple{rdf.T(a, p, b)}},
				// An empty installed index sits at generation 1.
				{LSN: 2, Op: store.OpInstall, Model: "m$I", Gen: 1, Basis: 2},
				{LSN: 3, Op: store.OpDerive, Model: "m$I", Prev: tc.prev, Gen: 3<<32 + 2, Basis: 2, Triples: []rdf.Triple{rdf.T(b, p, a)}},
			}
			for _, rec := range recs {
				if err := w.append(appendPayload(nil, rec)); err != nil {
					t.Fatal(err)
				}
			}
			if err := w.close(); err != nil {
				t.Fatal(err)
			}
			st, _, err := Recover(dir, nil)
			if !tc.wantErr {
				if err != nil {
					t.Fatalf("valid delta failed to replay: %v", err)
				}
				if !st.Contains("m$I", rdf.T(b, p, a)) || st.Generation("m$I") != 3<<32+2 {
					t.Errorf("delta not applied: gen %d", st.Generation("m$I"))
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), "replay divergence") {
				t.Fatalf("recovery error = %v, want a replay divergence", err)
			}
		})
	}
}
