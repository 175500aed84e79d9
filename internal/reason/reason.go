// Package reason implements the entailment component of the meta-data
// warehouse: a forward-chaining materializer for a subset of the OWLPRIME
// rulebase that Oracle's Semantic option applies in the paper
// (SEM_RULEBASES('OWLPRIME') in Listings 1 and 2).
//
// Section III.B describes the mechanism precisely: "indexes read all
// relationships (meta-data schema and hierarchies) and apply them on the
// basic facts. The resulting derived RDF triples ... are included in the
// indexes. In fact, the indexes add additional edges to the meta-data
// graph and therefore increase its density." And crucially: "if a query
// does not explicitly contain a reference to one of these OWL indexes,
// then only the meta-data facts are considered."
//
// Materialize therefore writes derived triples into a *separate* index
// model (named <model>$<rulebase>); queries opt in by unioning the base
// model with its index model, exactly mirroring the paper's semantics.
//
// The index is maintained incrementally when the base model has only
// grown since the index was derived: one semi-naive forward-chaining
// loop (Gupta, Mumick & Subrahmanian, SIGMOD 1993) is seeded with just
// the added base triples and joins them against base ∪ index. A full
// pass is the same loop seeded with every base triple and an empty
// index; it runs when the model lost triples since (removals need DRed,
// which this package does not implement) or has no usable add log.
//
// Supported rules:
//
//	rdfs:subClassOf     transitivity and rdf:type inheritance
//	rdfs:subPropertyOf  transitivity and statement inheritance
//	rdfs:domain         (x p y), (p domain C)  ⇒  (x rdf:type C)
//	rdfs:range          (x p y), (p range C)   ⇒  (y rdf:type C), y non-literal
//	owl:SymmetricProperty, owl:TransitiveProperty
//	owl:inverseOf       including its own symmetry
//	owl:equivalentClass / owl:equivalentProperty (as mutual sub-relations)
//	owl:sameAs          symmetric + transitive closure
//
// The property-sensitive rules (statement inheritance, domain, range,
// symmetric, transitive, inverse) never apply to the schema predicates
// themselves (rdf:type, rdfs:subClassOf, ...), from either premise: the
// result is then independent of the order the loop visits triples in,
// which is what lets a delta pass reproduce a full pass exactly.
package reason

import (
	"context"
	"fmt"
	"strconv"
	"time"

	"mdw/internal/obs"
	"mdw/internal/rdf"
	"mdw/internal/store"
)

// Metric handles, resolved once at package init.
var (
	obsMaterializeHist = obs.Default().Histogram("mdw_reason_materialize_seconds", nil)
	obsDerived         = obs.Default().Counter("mdw_reason_derived_total")
	obsFullPasses      = obs.Default().Counter("mdw_reason_full_passes_total")
)

func init() {
	r := obs.Default()
	r.SetHelp("mdw_reason_materialize_seconds", "OWLPRIME derivation latency, full and delta passes.")
	r.SetHelp("mdw_reason_derived_total", "Derived triples produced by derivations (a delta pass counts only its new ones).")
	r.SetHelp("mdw_reason_full_passes_total", "Derivations that ran in full: forced, first, or after a removal or recovery.")
}

// RulebaseOWLPrime names the default rulebase, matching the paper's
// SEM_RULEBASES('OWLPRIME').
const RulebaseOWLPrime = "OWLPRIME"

// IndexModelName returns the name of the index model holding the derived
// triples for the given base model and rulebase.
func IndexModelName(model, rulebase string) string {
	return model + "$" + rulebase
}

// Engine materializes entailments for models of one Store.
type Engine struct {
	st *store.Store

	// Interned vocabulary IDs, resolved once per engine.
	typeID, subClassID, subPropID store.ID
	domainID, rangeID             store.ID
	symmetricID, transitiveID     store.ID
	inverseID, sameAsID           store.ID
	equivClassID, equivPropID     store.ID
}

// NewEngine returns an engine bound to st.
func NewEngine(st *store.Store) *Engine {
	d := st.Dict()
	return &Engine{
		st:           st,
		typeID:       d.Intern(rdf.IRI(rdf.RDFType)),
		subClassID:   d.Intern(rdf.IRI(rdf.RDFSSubClassOf)),
		subPropID:    d.Intern(rdf.IRI(rdf.RDFSSubPropertyOf)),
		domainID:     d.Intern(rdf.IRI(rdf.RDFSDomain)),
		rangeID:      d.Intern(rdf.IRI(rdf.RDFSRange)),
		symmetricID:  d.Intern(rdf.IRI(rdf.OWLSymmetricProperty)),
		transitiveID: d.Intern(rdf.IRI(rdf.OWLTransitiveProperty)),
		inverseID:    d.Intern(rdf.IRI(rdf.OWLInverseOf)),
		sameAsID:     d.Intern(rdf.IRI(rdf.OWLSameAs)),
		equivClassID: d.Intern(rdf.IRI(rdf.OWLEquivalentClass)),
		equivPropID:  d.Intern(rdf.IRI(rdf.OWLEquivalentProperty)),
	}
}

// EnsureCurrent returns the name of model's OWLPRIME index model after
// making sure it reflects the model's present generation: a missing or
// stale index is derived — from the added triples alone when the add log
// allows, in full otherwise — and a missing model is an error. It is the
// one place readers decide entailment freshness. Derivations are
// single-flight per model: a caller arriving while one runs waits for
// it and re-checks. A writer racing the call may leave the index stale
// again by the time it is read, which callers that need a consistent
// snapshot detect with the basis recorded on the index model
// (store.ModelInfo).
func EnsureCurrent(ctx context.Context, st *store.Store, model string) (string, error) {
	idxName := IndexModelName(model, RulebaseOWLPrime)
	if st.Current(model, idxName) {
		return idxName, nil
	}
	mu := st.DeriveLock(model)
	mu.Lock()
	defer mu.Unlock()
	if st.Current(model, idxName) {
		return idxName, nil // derived while this caller waited
	}
	if _, err := NewEngine(st).derive(ctx, model, false); err != nil {
		return "", err
	}
	return idxName, nil
}

// Materialize recomputes the OWLPRIME entailment of the named model in
// a full pass and stores the *derived-only* triples in the corresponding
// index model, replacing any previous contents. It returns the index
// model name and the number of derived triples.
func (e *Engine) Materialize(ctx context.Context, model string) (string, int, error) {
	mu := e.st.DeriveLock(model)
	mu.Lock()
	defer mu.Unlock()
	n, err := e.derive(ctx, model, true)
	if err != nil {
		return "", 0, err
	}
	return IndexModelName(model, RulebaseOWLPrime), n, nil
}

// derive runs one pass over a snapshot of the base model and publishes
// the result, returning the size of the published index. The caller
// holds the model's derive lock.
//
// A delta pass (see store.BeginDerive) extends a copy-on-write clone of
// the published index: added base triples that were already derived
// move out of the index — it holds derived triples only — and need no
// propagation, since their consequences are already in the closure;
// every other added triple seeds the loop. The result is published with
// store.PublishDelta, so only the delta reaches the commit hook. A full
// pass seeds the loop with every base triple, fills an empty index and
// publishes it with store.InstallModel. Either way readers never observe
// a half-built index, and the base generation the snapshot was taken at
// becomes the index's basis, so store.Current(model, idxName) reports
// whether the index still reflects the base model.
func (e *Engine) derive(ctx context.Context, model string, full bool) (int, error) {
	t0 := time.Now()
	idxName := IndexModelName(model, RulebaseOWLPrime)
	d := e.st.BeginDerive(model, idxName, full)
	if d == nil {
		return 0, fmt.Errorf("reason: no such model %q", model)
	}
	sp, _ := obs.StartChildCtx(ctx, "reason.derive")
	defer sp.Finish()

	c := &closure{base: d.Base, idx: d.Index}
	var queue, added, removed []store.ETriple
	if c.idx == nil {
		c.idx = store.NewModel(idxName)
		d.Base.ForEach(store.Wildcard, store.Wildcard, store.Wildcard, func(t store.ETriple) bool {
			queue = append(queue, t)
			return true
		})
	}
	for _, t := range d.Delta { // empty on a full pass
		if c.idx.Remove(t) {
			removed = append(removed, t)
		} else {
			queue = append(queue, t)
		}
	}
	delta := len(queue) + len(removed)
	emit := func(t store.ETriple) {
		if c.base.Contains(t) || !c.idx.Add(t) {
			return
		}
		added = append(added, t)
		queue = append(queue, t)
	}
	for len(queue) > 0 {
		t := queue[0]
		queue = queue[1:]
		e.applyRules(c, t, emit)
	}
	c.idx.SetBasis(d.Base.Basis())

	mode := "delta"
	if d.Index == nil {
		mode = "full"
		e.st.InstallModel(c.idx)
		obsFullPasses.Inc()
	} else if !e.st.PublishDelta(d, added, removed) {
		// The index was replaced behind the derive lock (dropped or
		// reinstalled); leave that one in place, it is stale at worst.
		sp.SetLabel("discarded", "true")
	}
	sp.SetLabel("model", model).
		SetLabel("mode", mode).
		SetLabel("delta", strconv.Itoa(delta)).
		SetLabel("added", strconv.Itoa(len(added))).
		SetLabel("removed", strconv.Itoa(len(removed)))
	obsMaterializeHist.ObserveSince(t0)
	obsDerived.Add(int64(len(added)))
	return c.idx.Len(), nil
}

// closure is the working closure of one pass: the base snapshot plus
// the index being extended. The two are disjoint by construction (the
// index holds only triples the base lacks), so their union needs no
// deduplication. Iteration reads the models' live index nodes; triples
// emitted meanwhile may or may not be visited, which is harmless
// because each is queued and joined against the closure on its own.
type closure struct {
	base, idx *store.Model
}

func (c *closure) contains(t store.ETriple) bool {
	return c.base.Contains(t) || c.idx.Contains(t)
}

// each streams every triple of the closure matching the pattern.
func (c *closure) each(s, p, o store.ID, fn func(store.ETriple)) {
	visit := func(t store.ETriple) bool { fn(t); return true }
	c.base.ForEach(s, p, o, visit)
	c.idx.ForEach(s, p, o, visit)
}

// objects streams the objects of (s, p, ·).
func (c *closure) objects(s, p store.ID, fn func(store.ID)) {
	c.each(s, p, store.Wildcard, func(t store.ETriple) { fn(t.O) })
}

// subjects streams the subjects of (·, p, o).
func (c *closure) subjects(p, o store.ID, fn func(store.ID)) {
	c.each(store.Wildcard, p, o, func(t store.ETriple) { fn(t.S) })
}

// applyRules derives the immediate consequences of triple t against the
// current closure and hands each to emit.
func (e *Engine) applyRules(all *closure, t store.ETriple, emit func(store.ETriple)) {
	s, p, o := t.S, t.P, t.O

	switch p {
	case e.subClassID:
		// Transitivity, both join directions.
		all.objects(o, e.subClassID, func(c store.ID) { emit(store.ETriple{S: s, P: e.subClassID, O: c}) })
		all.subjects(e.subClassID, s, func(a store.ID) { emit(store.ETriple{S: a, P: e.subClassID, O: o}) })
		// Type inheritance for existing instances of the subclass.
		all.subjects(e.typeID, s, func(x store.ID) { emit(store.ETriple{S: x, P: e.typeID, O: o}) })

	case e.subPropID:
		all.objects(o, e.subPropID, func(c store.ID) { emit(store.ETriple{S: s, P: e.subPropID, O: c}) })
		all.subjects(e.subPropID, s, func(a store.ID) { emit(store.ETriple{S: a, P: e.subPropID, O: o}) })
		// Statement inheritance: every (x s y) also holds under o.
		if !e.isSchemaPredicate(s) {
			all.each(store.Wildcard, s, store.Wildcard, func(st store.ETriple) { emit(store.ETriple{S: st.S, P: o, O: st.O}) })
		}

	case e.typeID:
		// Class membership propagates up the hierarchy.
		all.objects(o, e.subClassID, func(c store.ID) { emit(store.ETriple{S: s, P: e.typeID, O: c}) })
		if e.isSchemaPredicate(s) {
			// Declaring a schema predicate symmetric/transitive would
			// corrupt the schema rules themselves; ignore it.
			return
		}
		switch o {
		case e.symmetricID:
			all.each(store.Wildcard, s, store.Wildcard, func(st store.ETriple) { emit(store.ETriple{S: st.O, P: s, O: st.S}) })
		case e.transitiveID:
			all.each(store.Wildcard, s, store.Wildcard, func(st store.ETriple) {
				all.objects(st.O, s, func(z store.ID) { emit(store.ETriple{S: st.S, P: s, O: z}) })
			})
		}

	case e.domainID:
		// t = (prop, domain, class): type every existing subject.
		if !e.isSchemaPredicate(s) {
			all.each(store.Wildcard, s, store.Wildcard, func(st store.ETriple) { emit(store.ETriple{S: st.S, P: e.typeID, O: o}) })
		}

	case e.rangeID:
		if !e.isSchemaPredicate(s) {
			all.each(store.Wildcard, s, store.Wildcard, func(st store.ETriple) {
				if !e.isLiteral(st.O) {
					emit(store.ETriple{S: st.O, P: e.typeID, O: o})
				}
			})
		}

	case e.inverseID:
		// t = (p', inverseOf, q): swap all existing statements both ways,
		// and record the symmetric inverse declaration.
		emit(store.ETriple{S: o, P: e.inverseID, O: s})
		if !e.isSchemaPredicate(s) {
			all.each(store.Wildcard, s, store.Wildcard, func(st store.ETriple) { emit(store.ETriple{S: st.O, P: o, O: st.S}) })
		}
		if !e.isSchemaPredicate(o) {
			all.each(store.Wildcard, o, store.Wildcard, func(st store.ETriple) { emit(store.ETriple{S: st.O, P: s, O: st.S}) })
		}

	case e.equivClassID:
		emit(store.ETriple{S: s, P: e.subClassID, O: o})
		emit(store.ETriple{S: o, P: e.subClassID, O: s})

	case e.equivPropID:
		emit(store.ETriple{S: s, P: e.subPropID, O: o})
		emit(store.ETriple{S: o, P: e.subPropID, O: s})

	case e.sameAsID:
		emit(store.ETriple{S: o, P: e.sameAsID, O: s})
		all.objects(o, e.sameAsID, func(z store.ID) {
			if z != s {
				emit(store.ETriple{S: s, P: e.sameAsID, O: z})
			}
		})
	}

	// Generic property-sensitive rules that fire for every statement.
	// Skip the schema predicates already handled above to avoid deriving
	// nonsense like "subClassOf subPropertyOf ...".
	if e.isSchemaPredicate(p) {
		return
	}
	if all.contains(store.ETriple{S: p, P: e.typeID, O: e.symmetricID}) {
		emit(store.ETriple{S: o, P: p, O: s})
	}
	if all.contains(store.ETriple{S: p, P: e.typeID, O: e.transitiveID}) {
		all.objects(o, p, func(z store.ID) { emit(store.ETriple{S: s, P: p, O: z}) })
		all.subjects(p, s, func(a store.ID) { emit(store.ETriple{S: a, P: p, O: o}) })
	}
	all.objects(p, e.subPropID, func(q store.ID) { emit(store.ETriple{S: s, P: q, O: o}) })
	all.objects(p, e.inverseID, func(q store.ID) { emit(store.ETriple{S: o, P: q, O: s}) })
	all.subjects(e.inverseID, p, func(q store.ID) { emit(store.ETriple{S: o, P: q, O: s}) })
	all.objects(p, e.domainID, func(c store.ID) { emit(store.ETriple{S: s, P: e.typeID, O: c}) })
	if !e.isLiteral(o) {
		all.objects(p, e.rangeID, func(c store.ID) { emit(store.ETriple{S: o, P: e.typeID, O: c}) })
	}
}

func (e *Engine) isSchemaPredicate(p store.ID) bool {
	switch p {
	case e.typeID, e.subClassID, e.subPropID, e.domainID, e.rangeID,
		e.inverseID, e.sameAsID, e.equivClassID, e.equivPropID:
		return true
	}
	return false
}

func (e *Engine) isLiteral(id store.ID) bool {
	return e.st.Dict().Term(id).IsLiteral()
}
