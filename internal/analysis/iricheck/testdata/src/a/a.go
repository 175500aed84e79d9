// Package a exercises iricheck diagnostics: typo'd terms in closed
// namespaces, as plain constants and inside query strings.
package a

import (
	"context"

	"mdw/internal/rdf"
	"mdw/internal/sparql"
)

// Typo'd prefixed name: Customer misspelled.
const badPName = "dm:Custmer" // want `unknown term dm:Custmer.*did you mean dm:Customer`

// Typo'd full IRI built from the namespace constant.
const badIRI = rdf.DMNS + "hasNam" // want `unknown term <http://www.credit-suisse.com/dwh/mdm/data_modeling#hasNam>.*did you mean dm:hasName`

// Typo'd standard-vocabulary term.
const badRDFS = "rdfs:subClasOf" // want `unknown term rdfs:subClasOf`

// typoQuery misspells dt:isMappedTo inside an otherwise valid query.
const typoQuery = `
PREFIX dt: <http://www.credit-suisse.com/dwh/mdm/data_transfer#>
SELECT ?src WHERE { ?src dt:isMapedTo+ ?tgt . }
`

func useTypoQuery() {
	_ = sparql.MustParse(typoQuery) // want `mentions unknown term <http://www.credit-suisse.com/dwh/mdm/data_transfer#isMapedTo>`
}

func useTypoQueryCtx(ctx context.Context) {
	_, _ = sparql.ParseCtx(ctx, typoQuery) // want `mentions unknown term <http://www.credit-suisse.com/dwh/mdm/data_transfer#isMapedTo>`
}

var keep = []string{badPName, badIRI, badRDFS}
