// Package sparqlcheck validates the constant query strings the
// warehouse embeds in Go source. Every constant argument of a query
// entry point — sparql.Parse, sparql.MustParse, the semmatch
// SEM_MATCH front ends, and the core.Warehouse façade methods — is
// parsed at lint time with the repository's own SPARQL parser, so a
// malformed Listing 1/2 query or an unbound prefix fails the build
// instead of the first production request that reaches it.
package sparqlcheck

import (
	"mdw/internal/analysis/framework"
	"mdw/internal/analysis/queryutil"
	"mdw/internal/semmatch"
	"mdw/internal/sparql"
)

// Analyzer is the sparqlcheck framework.Analyzer.
var Analyzer = &framework.Analyzer{
	Name: "sparqlcheck",
	Doc: "parse constant SPARQL queries and SEM_MATCH calls at lint time\n\n" +
		"Constant strings passed to sparql.Parse/ParseCtx/MustParse, semmatch.ParseCall,\n" +
		"and Warehouse.Query/SemMatch/Explain/ExplainSemMatch are parsed with\n" +
		"internal/sparql; syntax errors and unbound prefixes become diagnostics.\n" +
		"Queries that parse are planned, and structural problems the planner\n" +
		"notices — basic graph patterns that fall apart into variable-disjoint\n" +
		"components (cartesian products) — are reported too.",
	Run: run,
}

func run(pass *framework.Pass) error {
	queryutil.ConstQueryCalls(pass, func(site queryutil.CallSite) {
		switch site.Kind {
		case queryutil.KindSPARQL:
			q, err := sparql.Parse(site.Text)
			if err != nil {
				pass.Reportf(site.Arg.Pos(), "constant query passed to %s does not parse: %v", site.Fn, err)
				return
			}
			reportPlanWarnings(pass, site, q)
		case queryutil.KindSemMatch:
			req, err := semmatch.ParseCall(site.Text)
			if err != nil {
				pass.Reportf(site.Arg.Pos(), "constant SEM_MATCH call passed to %s is malformed: %v", site.Fn, err)
				return
			}
			q, err := sparql.Parse(req.QueryText())
			if err != nil {
				pass.Reportf(site.Arg.Pos(), "graph pattern of SEM_MATCH call passed to %s does not parse: %v", site.Fn, err)
				return
			}
			reportPlanWarnings(pass, site, q)
		}
	}, nil)
	return nil
}

// reportPlanWarnings plans the query without data (static heuristics)
// and surfaces the planner's structural warnings at the call site.
func reportPlanWarnings(pass *framework.Pass, site queryutil.CallSite, q *sparql.Query) {
	for _, w := range q.Plan(nil, nil).Warnings() {
		pass.Reportf(site.Arg.Pos(), "constant query passed to %s: %s", site.Fn, w)
	}
}
