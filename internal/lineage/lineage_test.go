package lineage

import (
	"context"
	"strings"
	"testing"

	"mdw/internal/landscape"
	"mdw/internal/ontology"
	"mdw/internal/rdf"
	"mdw/internal/reason"
	"mdw/internal/staging"
	"mdw/internal/store"
)

func fixture(t *testing.T) *store.Store {
	t.Helper()
	st := store.New()
	_, err := staging.Pipeline{Store: st, Model: "DWH_CURR"}.Run(
		[]*staging.Export{landscape.Figure3Export()},
		ontology.DWH().Triples(),
	)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func pathTerm(path string) rdf.Term {
	return staging.InstanceIRI(strings.Split(path, "/")...)
}

func TestBackwardLineageFigure8(t *testing.T) {
	st := fixture(t)
	svc := New(st, "DWH_CURR")
	paths := landscape.Figure3Paths()
	customerID := pathTerm(paths[3])

	g, err := svc.Trace(customerID, Backward, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// The full chain: client_information_id → source_customer_id →
	// partner_id → customer_id.
	if len(g.Nodes) != 4 {
		t.Fatalf("nodes = %d, want 4: %v", len(g.Nodes), g.Nodes)
	}
	if len(g.Edges) != 3 {
		t.Fatalf("edges = %d, want 3", len(g.Edges))
	}
	// Depths grow with distance from the root.
	if g.Nodes[customerID].Depth != 0 {
		t.Error("root depth != 0")
	}
	if g.Nodes[pathTerm(paths[0])].Depth != 3 {
		t.Errorf("origin depth = %d, want 3", g.Nodes[pathTerm(paths[0])].Depth)
	}
	// Node classes include the inherited ones (the rdf:type step of the
	// (isMappedTo)* rdf:type path).
	classes := g.Nodes[customerID].Classes
	found := false
	for _, c := range classes {
		if c == rdf.DMNS+"Attribute" {
			found = true
		}
	}
	if !found {
		t.Errorf("customer_id classes missing inherited Attribute: %v", classes)
	}
}

// TestTraceSeesEntailmentAfterWrite: a column written after the index was
// built shows its inherited classes, which only a re-materialized index
// holds.
func TestTraceSeesEntailmentAfterWrite(t *testing.T) {
	st := fixture(t)
	if _, _, err := reason.NewEngine(st).Materialize(context.Background(), "DWH_CURR"); err != nil {
		t.Fatal(err)
	}
	svc := New(st, "DWH_CURR")
	customerID := pathTerm(landscape.Figure3Paths()[3])
	feed := rdf.IRI(rdf.InstNS + "feed_id")
	st.AddAll("DWH_CURR", []rdf.Triple{
		rdf.T(feed, rdf.IsMappedTo, customerID),
		rdf.T(feed, rdf.Type, rdf.IRI(rdf.DMNS+"Application1_View_Column")),
	})
	g, err := svc.Trace(customerID, Backward, Options{})
	if err != nil {
		t.Fatal(err)
	}
	n, ok := g.Nodes[feed]
	if !ok {
		t.Fatalf("new upstream column missing from %v", g.Nodes)
	}
	for _, c := range n.Classes {
		if c == rdf.DMNS+"Attribute" {
			return
		}
	}
	t.Errorf("new column classes lack the inherited Attribute: %v", n.Classes)
}

func TestForwardLineageImpact(t *testing.T) {
	st := fixture(t)
	svc := New(st, "DWH_CURR")
	paths := landscape.Figure3Paths()
	origin := pathTerm(paths[0])

	impact, err := svc.Impact(origin, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(impact) != 3 {
		t.Fatalf("impact = %d items, want 3: %v", len(impact), impact)
	}
}

func TestSources(t *testing.T) {
	st := fixture(t)
	svc := New(st, "DWH_CURR")
	paths := landscape.Figure3Paths()

	srcs, err := svc.Sources(pathTerm(paths[3]), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(srcs) != 1 || srcs[0] != pathTerm(paths[0]) {
		t.Fatalf("sources = %v, want [client_information_id]", srcs)
	}
	// An item with no provenance is its own source.
	srcs, err = svc.Sources(pathTerm(paths[0]), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(srcs) != 1 || srcs[0] != pathTerm(paths[0]) {
		t.Fatalf("trivial sources = %v", srcs)
	}
}

func TestMaxDepth(t *testing.T) {
	st := fixture(t)
	svc := New(st, "DWH_CURR")
	paths := landscape.Figure3Paths()

	g, err := svc.Trace(pathTerm(paths[3]), Backward, Options{MaxDepth: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Edges) != 1 {
		t.Fatalf("edges = %d, want 1 at depth 1", len(g.Edges))
	}
	if len(g.Nodes) != 2 {
		t.Fatalf("nodes = %d, want 2", len(g.Nodes))
	}
}

func TestRuleConditionsOnEdges(t *testing.T) {
	st := fixture(t)
	svc := New(st, "DWH_CURR")
	paths := landscape.Figure3Paths()

	g, err := svc.Trace(pathTerm(paths[3]), Backward, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rules := map[string]bool{}
	for _, e := range g.Edges {
		rules[e.Rule] = true
	}
	if !rules["partner is client"] || !rules["customer_id is numeric"] {
		t.Errorf("rules = %v", rules)
	}
}

func TestRuleFilterPrunesTraversal(t *testing.T) {
	st := fixture(t)
	svc := New(st, "DWH_CURR")
	paths := landscape.Figure3Paths()

	// Only follow mappings whose rule mentions "partner": traversal stops
	// after the first hop.
	g, err := svc.Trace(pathTerm(paths[3]), Backward, Options{
		RuleFilter: func(rule string) bool { return strings.Contains(rule, "partner") },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Edges) != 1 {
		t.Fatalf("filtered edges = %d, want 1: %+v", len(g.Edges), g.Edges)
	}
	if len(g.Nodes) != 2 {
		t.Fatalf("filtered nodes = %d, want 2", len(g.Nodes))
	}
}

func TestTargetClassFilter(t *testing.T) {
	st := fixture(t)
	svc := New(st, "DWH_CURR")
	paths := landscape.Figure3Paths()

	// Listing 2 restricts targets to Application1 items; the pb_frontend
	// column is excluded from the reported nodes (traversal still passes
	// through).
	g, err := svc.Trace(pathTerm(paths[3]), Backward, Options{
		TargetClasses: []string{rdf.DMNS + "Application1_Item"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := g.Nodes[pathTerm(paths[0])]; ok {
		t.Error("pb_frontend column should be filtered out")
	}
	if _, ok := g.Nodes[pathTerm(paths[2])]; !ok {
		t.Error("partner_id (Application1_Table_Column) missing")
	}
}

func TestUnknownItem(t *testing.T) {
	st := fixture(t)
	svc := New(st, "DWH_CURR")
	if _, err := svc.Trace(rdf.IRI("http://nowhere/x"), Backward, Options{}); err == nil {
		t.Error("unknown item should error")
	}
	if _, err := svc.CountPaths(context.Background(), rdf.IRI("http://nowhere/x"), Backward, Options{}); err == nil {
		t.Error("unknown item should error in CountPaths")
	}
}

func TestMissingModel(t *testing.T) {
	svc := New(store.New(), "nope")
	if _, err := svc.Trace(rdf.IRI("http://x"), Backward, Options{}); err == nil {
		t.Error("missing model should error")
	}
}

func TestCountPathsLinear(t *testing.T) {
	st := fixture(t)
	svc := New(st, "DWH_CURR")
	paths := landscape.Figure3Paths()
	n, err := svc.CountPaths(context.Background(), pathTerm(paths[3]), Backward, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Errorf("paths = %d, want 1 (linear chain)", n)
	}
}

func TestCountPathsExponentialFanIn(t *testing.T) {
	// Build a layered DAG where every node of stage i maps into every
	// node of stage i+1: the path count grows as width^(stages-1) — the
	// explosion Section V warns about.
	st := store.New()
	const width, stages = 3, 5
	node := func(s, i int) rdf.Term {
		return rdf.IRI(rdf.InstNS + "n" + string(rune('0'+s)) + "_" + string(rune('0'+i)))
	}
	for s := 0; s+1 < stages; s++ {
		for i := 0; i < width; i++ {
			for j := 0; j < width; j++ {
				st.Add("m", rdf.T(node(s, i), rdf.IsMappedTo, node(s+1, j)))
			}
		}
	}
	svc := New(st, "m")
	n, err := svc.CountPaths(context.Background(), node(stages-1, 0), Backward, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := 1
	for s := 0; s+1 < stages; s++ {
		want *= width
	}
	if n != want {
		t.Errorf("paths = %d, want %d", n, want)
	}
}

func TestCountPathsWithRuleFilter(t *testing.T) {
	st := fixture(t)
	svc := New(st, "DWH_CURR")
	paths := landscape.Figure3Paths()
	n, err := svc.CountPaths(context.Background(), pathTerm(paths[3]), Backward, Options{
		RuleFilter: func(rule string) bool { return rule != "" },
	})
	if err != nil {
		t.Fatal(err)
	}
	// The first hop (source app → inbound) has no rule, so the filtered
	// path ends earlier but still exists.
	if n != 1 {
		t.Errorf("filtered paths = %d, want 1", n)
	}
}

func TestRollup(t *testing.T) {
	st := fixture(t)
	svc := New(st, "DWH_CURR")
	paths := landscape.Figure3Paths()
	g, err := svc.Trace(pathTerm(paths[3]), Backward, Options{})
	if err != nil {
		t.Fatal(err)
	}

	// Application level: pb_frontend → application1, one edge.
	apps, err := svc.Rollup(g, LevelApplication)
	if err != nil {
		t.Fatal(err)
	}
	if len(apps.Nodes) != 2 {
		t.Fatalf("app-level nodes = %d, want 2: %v", len(apps.Nodes), nodeNames(apps))
	}
	if len(apps.Edges) != 1 {
		t.Fatalf("app-level edges = %d, want 1: %+v", len(apps.Edges), apps.Edges)
	}

	// Relation level: client_info → customer_feed → partner → v_customer.
	rels, err := svc.Rollup(g, LevelRelation)
	if err != nil {
		t.Fatal(err)
	}
	if len(rels.Nodes) != 4 || len(rels.Edges) != 3 {
		t.Fatalf("relation-level = %d nodes / %d edges, want 4/3: %v",
			len(rels.Nodes), len(rels.Edges), nodeNames(rels))
	}

	// Attribute level is the identity.
	same, err := svc.Rollup(g, LevelAttribute)
	if err != nil {
		t.Fatal(err)
	}
	if same != g {
		t.Error("attribute-level rollup should return the input graph")
	}
}

func nodeNames(g *Graph) []string {
	var out []string
	for _, n := range g.Nodes {
		out = append(out, n.Name)
	}
	return out
}

func TestFormat(t *testing.T) {
	st := fixture(t)
	svc := New(st, "DWH_CURR")
	paths := landscape.Figure3Paths()
	g, err := svc.Trace(pathTerm(paths[3]), Backward, Options{})
	if err != nil {
		t.Fatal(err)
	}
	out := Format(g)
	if !strings.Contains(out, "backward lineage of customer_id") {
		t.Errorf("header wrong:\n%s", out)
	}
	if !strings.Contains(out, "partner_id -> customer_id") {
		t.Errorf("edge missing:\n%s", out)
	}
	if !strings.Contains(out, "[rule: partner is client]") {
		t.Errorf("rule missing:\n%s", out)
	}
}

func TestLevelStrings(t *testing.T) {
	if LevelAttribute.String() != "attribute" || LevelRelation.String() != "relation" ||
		LevelSchema.String() != "schema" || LevelApplication.String() != "application" {
		t.Error("level names wrong")
	}
	if Backward.String() != "backward" || Forward.String() != "forward" {
		t.Error("direction names wrong")
	}
}

func TestRollupSides(t *testing.T) {
	st := fixture(t)
	svc := New(st, "DWH_CURR")
	paths := landscape.Figure3Paths()
	g, err := svc.Trace(pathTerm(paths[3]), Backward, Options{})
	if err != nil {
		t.Fatal(err)
	}

	// Sources at application level, target at attribute level — the
	// typical Figure 7 view: "which systems feed this column".
	mixed, err := svc.RollupSides(context.Background(), g, LevelApplication, LevelAttribute)
	if err != nil {
		t.Fatal(err)
	}
	// customer_id stays an attribute; everything upstream collapses to
	// the two applications. customer_id's own app also appears because
	// intermediate columns roll into it.
	if _, ok := mixed.Nodes[pathTerm(paths[3])]; !ok {
		t.Errorf("target not kept at attribute level: %v", nodeNames(mixed))
	}
	foundApp := false
	for term := range mixed.Nodes {
		if rdf.LocalName(term.Value) == "pb_frontend" {
			foundApp = true
		}
	}
	if !foundApp {
		t.Errorf("source side not rolled to application: %v", nodeNames(mixed))
	}

	// Equal levels delegate to the symmetric roll-up.
	same, err := svc.RollupSides(context.Background(), g, LevelRelation, LevelRelation)
	if err != nil {
		t.Fatal(err)
	}
	sym, err := svc.Rollup(g, LevelRelation)
	if err != nil {
		t.Fatal(err)
	}
	if len(same.Nodes) != len(sym.Nodes) || len(same.Edges) != len(sym.Edges) {
		t.Error("RollupSides with equal levels differs from Rollup")
	}
}
