package main

import (
	"fmt"
	"sort"
	"strings"

	"mdw/internal/core"
	"mdw/internal/httpapi"
	"mdw/internal/rdf"
	"mdw/internal/staging"
)

// buildInMemory builds the landscape's warehouse in memory and serves it.
func buildInMemory(b *bench) error {
	w := core.New("")
	l, st, err := seedWarehouse(w, b.cfg.landscape())
	if err != nil {
		return err
	}
	b.l, b.w, b.setup = l, w, st
	b.srv = httpapi.NewServer(w)
	b.heap = liveHeapMiB()
	return nil
}

// pathIRI is the instance IRI of a slash-separated landscape path.
func pathIRI(path string) rdf.Term { return staging.InstanceIRI(strings.Split(path, "/")...) }

func lastSegment(path string) string { return path[strings.LastIndexByte(path, '/')+1:] }

// chainsByMart indexes the landscape's mapping chains (source to mart) by
// their mart column. With corrupt set every mart gets its neighbour's
// chain, a deliberately wrong ground truth.
func chainsByMart(chains [][]string, corrupt bool) map[string][]string {
	out := make(map[string][]string, len(chains))
	for i, c := range chains {
		truth := c
		if corrupt {
			truth = chains[(i+1)%len(chains)]
		}
		out[c[len(c)-1]] = truth
	}
	return out
}

// containerDepth is the number of path segments naming the container a
// lineage roll-up level collapses a column into.
var containerDepth = map[string]int{"relation": 4, "schema": 3, "application": 1}

// lineageNodes is the node set a backward trace from a chain's mart column
// must return at the given roll-up level.
func lineageNodes(chain []string, level string) []string {
	seen := map[string]bool{}
	var out []string
	for _, p := range chain {
		if d, ok := containerDepth[level]; ok {
			p = strings.Join(strings.Split(p, "/")[:d], "/")
		}
		if iri := pathIRI(p).Value; !seen[iri] {
			seen[iri] = true
			out = append(out, iri)
		}
	}
	return out
}

func sameSet(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	a, b = append([]string(nil), a...), append([]string(nil), b...)
	sort.Strings(a)
	sort.Strings(b)
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// semMatchCall wraps a graph pattern in the SEM_MATCH call shape of the
// paper's listings.
func semMatchCall(pattern string) string {
	return fmt.Sprintf(`SEM_MATCH(
  {%s},
  SEM_MODELS('DWH_CURR'),
  SEM_RULEBASES('OWLPRIME'),
  SEM_ALIASES(SEM_ALIAS('dm', '%s'), SEM_ALIAS('dt', '%s')),
  null)`, pattern, rdf.DMNS, rdf.DTNS)
}

// pointCall is Listing 2 with its target column bound to one mart column.
func pointCall(mart string) string {
	iri := "<" + pathIRI(mart).Value + ">"
	return semMatchCall("?source_id dt:isMappedTo " + iri + " .\n   " + iri + " dm:hasName ?target_name")
}
