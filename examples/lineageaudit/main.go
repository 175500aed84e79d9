// Lineageaudit: the Section IV.B use case. An auditor needs to know
// where the figures of a data-mart report come from and which
// applications would be affected if a source application changes — the
// two questions the provenance tool answers. The example also shows the
// Section V extension: rule-condition filters that keep the number of
// lineage paths small.
//
// Run with:
//
//	go run ./examples/lineageaudit
package main

import (
	"context"
	"fmt"
	"log"
	"strings"

	"mdw/internal/core"
	"mdw/internal/landscape"
	"mdw/internal/lineage"
	"mdw/internal/staging"
)

func main() {
	l := landscape.Generate(landscape.Small())
	w := core.New("")
	if _, err := w.LoadOntology(l.Ontology); err != nil {
		log.Fatal(err)
	}
	if _, err := w.LoadExports(l.Exports); err != nil {
		log.Fatal(err)
	}
	svc := w.LineageService()

	// Pick a data-mart column (the kind of item behind a report figure).
	martPath := l.MartColumns[0]
	item := staging.InstanceIRI(strings.Split(martPath, "/")...)
	fmt.Printf("auditing: %s\n\n", martPath)

	// 1. Provenance: the full backward chain, attribute level.
	g, err := svc.Trace(item, lineage.Backward, lineage.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(lineage.Format(g))

	// 2. The auditor drills up to application granularity to see which
	//    systems are involved (the Figure 7 scope adjustment).
	apps, err := svc.Rollup(g, lineage.LevelApplication)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println()
	fmt.Print(lineage.Format(apps))

	// 3. Ultimate sources: which application columns originally produce
	//    this figure.
	srcs, err := svc.Sources(item, lineage.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nultimate sources:")
	for _, s := range srcs {
		fmt.Println("  " + s.Value)
	}

	// 4. Impact analysis: if the ORIGIN changes, what is affected
	//    downstream? (Critical when an application or interface evolves.)
	chain := l.Chains[0]
	origin := staging.InstanceIRI(strings.Split(chain[0], "/")...)
	impact, err := svc.Impact(origin, lineage.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nif %s changes, %d downstream items are affected\n",
		chain[0], len(impact))

	// 5. Rule-condition filters (Section V): only follow mappings whose
	//    rule restricts to Swiss bookings, pruning the path space.
	all, err := svc.CountPaths(context.Background(), item, lineage.Backward, lineage.Options{})
	if err != nil {
		log.Fatal(err)
	}
	filtered, err := svc.CountPaths(context.Background(), item, lineage.Backward, lineage.Options{
		RuleFilter: func(rule string) bool { return rule == "" || strings.Contains(rule, "CH") },
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nlineage paths: %d unfiltered, %d with the country-rule filter\n", all, filtered)
}
