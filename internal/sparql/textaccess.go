package sparql

import (
	"math"

	"mdw/internal/rdf"
	"mdw/internal/store"
	"mdw/internal/textindex"
)

// The text access path: a triple pattern ?s <p> ?v whose group holds
// FILTER(regex(?v, "lit"[, "i"])) reads its matches from the posting
// lists of a full-text index instead of scanning every <p> triple, when
//
//   - lit folds to a single token (textindex.Pushable), so the index's
//     postings are complete for the regex under either flag;
//   - the source offers a current index covering <p> (TextSource);
//   - both ?s and ?v are unbound where the pattern runs.
//
// The posting count becomes the pattern's estimate, and the regex still
// runs on every candidate, so results equal those of the scan. Queries
// without such a FILTER never ask the source for its index.

// TextSource is implemented by sources that keep a full-text index over
// some of their predicates (the warehouse's query view). TextIndex
// returns an index that holds a posting for every triple of the source
// whose predicate it covers (textindex.Index.Indexes), or nil when no
// such index is available; postings that are not triples of the source
// are dropped by the planner.
type TextSource interface {
	store.Source
	TextIndex() *textindex.Index
}

// textAccess is a pattern's text access path: the regex literal it was
// built for and the pattern's candidate triples from the posting lists.
type textAccess struct {
	lit   string
	cands []store.ETriple
}

// detectRegex recognizes REGEX(?v, "lit"[, flags]) over a plain
// variable: its evaluation is memoized per term (evaluator.regexMatch),
// and with flags "" or "i" and a Pushable literal it can drive the text
// access path.
func detectRegex(c *plannedConstraint) {
	re, ok := c.filter.Expr.(regexExpr)
	if !ok {
		return
	}
	v, ok := re.text.(varExpr)
	if !ok {
		return
	}
	c.reVar, c.re = v.name, re.re
	if (re.flags == "" || re.flags == "i") && textindex.Pushable(re.pat) {
		c.textLit = re.pat
	}
}

// textAccessPaths attaches a text access path to every pattern of the
// block that a text-servable regex constraint of the group filters by
// its object variable, and reports whether any was attached. The
// source's index is requested at most once per plan.
func (pl *planner) textAccessPaths(block []*TriplePattern, regexes []*plannedConstraint) bool {
	if pl.src == nil || pl.dict == nil || len(regexes) == 0 {
		return false
	}
	found := false
	for _, tp := range block {
		p, ok := tp.P.(PathIRI)
		if !ok || !tp.S.IsVar() || !tp.O.IsVar() || tp.S.Var == tp.O.Var {
			continue
		}
		var best *textAccess
		for _, c := range regexes {
			if c.reVar != tp.O.Var {
				continue
			}
			a := pl.textCandidates(p.IRI, c.textLit)
			if a == nil {
				obsTextDeclined.Inc()
				continue
			}
			if best == nil || len(a.cands) < len(best.cands) {
				best = a
			}
		}
		if best != nil {
			if pl.text == nil {
				pl.text = map[*TriplePattern]*textAccess{}
			}
			pl.text[tp] = best
			found = true
		}
	}
	return found
}

// textCandidates reads the candidates of <pred> for lit from the
// source's index, or returns nil when the source cannot serve them.
func (pl *planner) textCandidates(pred, lit string) *textAccess {
	if !pl.tixAsked {
		pl.tixAsked = true
		if ts, ok := pl.src.(TextSource); ok {
			pl.tix = ts.TextIndex()
		}
	}
	if pl.tix == nil {
		return nil
	}
	pid, ok := pl.dict.Lookup(rdf.IRI(pred))
	if !ok || !pl.tix.Indexes(pid) {
		return nil
	}
	posts := pl.tix.Containing(pid, lit)
	a := &textAccess{lit: lit, cands: make([]store.ETriple, 0, len(posts))}
	for _, p := range posts {
		if t := (store.ETriple{S: p.Subject, P: p.Pred, O: p.Object}); pl.src.Contains(t) {
			a.cands = append(a.cands, t)
		}
	}
	return a
}

// textOpen returns tp's text access path when it applies under the
// certainly-bound variables (neither endpoint bound yet), else nil.
func (pl *planner) textOpen(tp *TriplePattern, certain varset) *textAccess {
	a := pl.text[tp]
	if a == nil || certain[tp.S.Var] || certain[tp.O.Var] {
		return nil
	}
	return a
}

// cheapestStart picks the first pattern of a block in which some
// pattern has a text access path. The greedy order picks the smallest
// next estimate, which
// would start Listing 1 at its 264 class labels and fan out to 360,929
// typed objects before reaching the 1,562 postings; instead each start
// is followed by the greedy order and the start with the fewest
// estimated intermediate rows (the sum of the running products of the
// per-loop estimates) wins.
func (pl *planner) cheapestStart(block []*TriplePattern, certain varset) int {
	best, bestCost := 0, math.Inf(1)
	for start := range block {
		bound := certain.clone()
		rest := make([]*TriplePattern, 0, len(block)-1)
		rest = append(append(rest, block[:start]...), block[start+1:]...)
		rows := pl.estimate(block[start], bound)
		cost := rows
		bindPatternVars(block[start], bound)
		for len(rest) > 0 {
			j, est := 0, math.Inf(1)
			for k, tp := range rest {
				if e := pl.estimate(tp, bound); e < est {
					j, est = k, e
				}
			}
			rows *= est
			cost += rows
			bindPatternVars(rest[j], bound)
			rest = append(rest[:j], rest[j+1:]...)
		}
		if cost < bestCost {
			best, bestCost = start, cost
		}
	}
	return best
}

func bindPatternVars(tp *TriplePattern, vs varset) {
	eachPatternVar(tp, func(v string) { vs[v] = true })
}

// regexMemoKey identifies one regex constraint applied to one term.
type regexMemoKey struct {
	c  *plannedConstraint
	id store.ID
}

// regexMatch evaluates the constraint's regex on a term, once per
// distinct term per evaluator: the filter of Listing 1 sees each name
// about six times. Worker evaluators keep their own memo, so parallel
// executions share nothing.
func (ev *evaluator) regexMatch(c *plannedConstraint, id store.ID) bool {
	k := regexMemoKey{c, id}
	if m, ok := ev.regexMemo[k]; ok {
		return m
	}
	if st := ev.stats; st != nil {
		st.decodes.Add(1)
	}
	m := c.re.MatchString(ev.dict.Term(id).Value)
	if ev.regexMemo == nil {
		ev.regexMemo = make(map[regexMemoKey]bool)
	}
	ev.regexMemo[k] = m
	return m
}
