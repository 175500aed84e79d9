package impact

import (
	"context"
	"strings"
	"testing"
	"time"

	"mdw/internal/history"
	"mdw/internal/landscape"
	"mdw/internal/ontology"
	"mdw/internal/rdf"
	"mdw/internal/reason"
	"mdw/internal/staging"
	"mdw/internal/store"
)

func day(n int) time.Time {
	return time.Date(2009, 1, 1, 0, 0, 0, 0, time.UTC).AddDate(0, 0, n)
}

// fixture loads Figure 3, snapshots R1, then changes the source column's
// meta-data and snapshots R2.
func fixture(t *testing.T) (*store.Store, *history.Historian) {
	t.Helper()
	st := store.New()
	if _, err := (staging.Pipeline{Store: st, Model: "m"}).Run(
		[]*staging.Export{landscape.Figure3Export()}, ontology.DWH().Triples()); err != nil {
		t.Fatal(err)
	}
	h := history.NewHistorian(st, "m")
	if _, err := h.Snapshot("R1", day(0)); err != nil {
		t.Fatal(err)
	}
	// Release 2: the source application changes its client_information_id
	// (say, a datatype widening recorded as new meta-data).
	src := staging.InstanceIRI("pb_frontend", "pbdb", "clients", "client_info", "client_information_id")
	st.Add("m", rdf.T(src, rdf.IRI(rdf.MDWLength), rdf.Integer(64)))
	if _, err := h.Snapshot("R2", day(45)); err != nil {
		t.Fatal(err)
	}
	return st, h
}

func TestAnalyzePropagatesDownstream(t *testing.T) {
	st, h := fixture(t)
	an, err := New(st, h).Analyze(context.Background(), 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if an.AddedTriples != 1 || an.RemovedTriples != 0 {
		t.Errorf("diff = +%d/-%d", an.AddedTriples, an.RemovedTriples)
	}
	if len(an.Changed) != 1 {
		t.Fatalf("changed = %v", an.Changed)
	}
	src := an.Changed[0]
	deps := an.Downstream[src]
	// The change flows into the whole warehouse chain.
	if len(deps) != 3 {
		t.Fatalf("downstream = %v", deps)
	}
	// Both applications are affected.
	if len(an.Applications) != 2 {
		t.Errorf("applications = %v", an.Applications)
	}
	// The customer concept sits behind a dm:implements edge from
	// customer_id, but it is a Customer, not a Report — so no reports.
	if len(an.Reports) != 0 {
		t.Errorf("reports = %v", an.Reports)
	}
}

func TestAnalyzeFindsAffectedReports(t *testing.T) {
	st, h := fixture(t)
	// Attach a report to the mart column.
	martCol := staging.InstanceIRI("application1", "dwhdb", "mart", "v_customer", "customer_id")
	report := staging.InstanceIRI("concepts", "q3_customer_report")
	st.Add("m", rdf.T(report, rdf.Type, rdf.IRI(rdf.DMNS+"Report")))
	st.Add("m", rdf.T(report, rdf.HasName, rdf.Literal("q3_customer_report")))
	st.Add("m", rdf.T(martCol, rdf.IRI(rdf.MDWImplements), report))
	// The index is stale after this mutation; drop it so the analyzer
	// rebuilds it.
	st.DropModel("m$OWLPRIME")

	an, err := New(st, h).Analyze(context.Background(), 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(an.Reports) != 1 || rdf.LocalName(an.Reports[0].Value) != "q3_customer_report" {
		t.Errorf("reports = %v", an.Reports)
	}
}

// TestAnalyzeSeesEntailmentAfterWrite: a column written after the index
// was built rolls up to its application through the transitive
// dm:partOf closure, which only a re-materialized index holds.
func TestAnalyzeSeesEntailmentAfterWrite(t *testing.T) {
	st, h := fixture(t)
	app := staging.InstanceIRI("reporting")
	db := staging.InstanceIRI("reporting", "rptdb")
	col := staging.InstanceIRI("reporting", "rptdb", "client_feed")
	st.AddAll("m", []rdf.Triple{
		rdf.T(app, rdf.Type, rdf.IRI(rdf.DMNS+"Application")),
		rdf.T(db, rdf.IRI(rdf.MDWPartOf), app),
	})
	if _, _, err := reason.NewEngine(st).Materialize(context.Background(), "m"); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Snapshot("R3", day(60)); err != nil {
		t.Fatal(err)
	}
	// Release 4 feeds the source column into a new column of the
	// reporting application.
	src := staging.InstanceIRI("pb_frontend", "pbdb", "clients", "client_info", "client_information_id")
	st.AddAll("m", []rdf.Triple{
		rdf.T(col, rdf.IRI(rdf.MDWPartOf), db),
		rdf.T(src, rdf.IsMappedTo, col),
	})
	if _, err := h.Snapshot("R4", day(90)); err != nil {
		t.Fatal(err)
	}
	an, err := New(st, h).Analyze(context.Background(), 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range an.Applications {
		if a == app {
			return
		}
	}
	t.Errorf("applications = %v, want the reporting application included", an.Applications)
}

func TestAnalyzeNoChanges(t *testing.T) {
	st := store.New()
	if _, err := (staging.Pipeline{Store: st, Model: "m"}).Run(
		[]*staging.Export{landscape.Figure3Export()}, ontology.DWH().Triples()); err != nil {
		t.Fatal(err)
	}
	h := history.NewHistorian(st, "m")
	h.Snapshot("R1", day(0))
	h.Snapshot("R2", day(45))
	an, err := New(st, h).Analyze(context.Background(), 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(an.Changed) != 0 || len(an.Applications) != 0 {
		t.Errorf("analysis of identical releases: %+v", an)
	}
}

func TestAnalyzeErrors(t *testing.T) {
	st, h := fixture(t)
	a := New(st, h)
	if _, err := a.Analyze(context.Background(), 1, 9); err == nil {
		t.Error("missing release should error")
	}
	if _, err := a.Analyze(context.Background(), 7, 2); err == nil {
		t.Error("missing release should error")
	}
}

func TestFormat(t *testing.T) {
	st, h := fixture(t)
	an, err := New(st, h).Analyze(context.Background(), 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	out := Format(an)
	for _, want := range []string{"impact of release R1 -> R2", "changed items:          1", "application1"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

func TestLandscapeScaleImpact(t *testing.T) {
	// Evolve a landscape across a release and analyze the delta.
	l := landscape.Generate(landscape.Small())
	st := store.New()
	if _, err := (staging.Pipeline{Store: st, Model: "m"}).Run(l.Exports, l.Ontology.Triples()); err != nil {
		t.Fatal(err)
	}
	h := history.NewHistorian(st, "m")
	h.Snapshot("R1", day(0))
	if _, err := landscape.Evolve(l, 2, 0.1); err != nil {
		t.Fatal(err)
	}
	if _, err := (staging.Pipeline{Store: st, Model: "m"}).Run(l.Exports, nil); err != nil {
		t.Fatal(err)
	}
	h.Snapshot("R2", day(45))

	an, err := New(st, h).Analyze(context.Background(), 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(an.Changed) == 0 || len(an.Applications) == 0 {
		t.Errorf("evolution produced no impact: %+v", an)
	}
}
