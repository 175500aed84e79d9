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
package reason

import (
	"fmt"
	"time"

	"mdw/internal/obs"
	"mdw/internal/rdf"
	"mdw/internal/store"
)

// Metric handles, resolved once at package init.
var (
	obsMaterializeHist = obs.Default().Histogram("mdw_reason_materialize_seconds", nil)
	obsDerived         = obs.Default().Counter("mdw_reason_derived_total")
)

func init() {
	r := obs.Default()
	r.SetHelp("mdw_reason_materialize_seconds", "Full OWLPRIME materialization latency.")
	r.SetHelp("mdw_reason_derived_total", "Derived triples produced by materializations.")
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
// stale index is re-materialized, a missing model is an error. It is the
// one place readers decide entailment freshness; a writer racing the
// call may leave the index stale again by the time it is read, which
// callers that need a consistent snapshot detect with the basis
// recorded on the index model (store.ModelInfo).
func EnsureCurrent(st *store.Store, model string) (string, error) {
	idxName := IndexModelName(model, RulebaseOWLPrime)
	if st.Current(model, idxName) {
		return idxName, nil
	}
	if _, _, err := NewEngine(st).Materialize(model); err != nil {
		return "", err
	}
	return idxName, nil
}

// Materialize computes the OWLPRIME entailment of the named model and
// stores the *derived-only* triples in the corresponding index model,
// replacing any previous contents. It returns the index model name and
// the number of derived triples.
//
// The closure is computed over a locked snapshot of the base model and
// the finished index model is swapped in atomically, with the base
// generation it was derived from recorded as its basis: concurrent
// writers never race with the rule engine, readers never observe a
// half-built index, and store.Current(model, idxName) reports whether
// the index still reflects the base model.
func (e *Engine) Materialize(model string) (string, int, error) {
	t0 := time.Now()
	idxName := IndexModelName(model, RulebaseOWLPrime)
	// Working closure starts as a detached snapshot of the base model;
	// everything the rules add beyond the base goes to the index model.
	work := e.st.SnapshotModel(model)
	if work == nil {
		return "", 0, fmt.Errorf("reason: no such model %q", model)
	}
	// The snapshot carries its own fresh generation; the base generation
	// it was taken at — the derivation basis — is its Basis.
	basis := work.Basis()
	derived := store.NewModel(idxName)

	var queue []store.ETriple
	work.ForEach(store.Wildcard, store.Wildcard, store.Wildcard, func(t store.ETriple) bool {
		queue = append(queue, t)
		return true
	})

	emit := func(t store.ETriple) {
		if work.Add(t) {
			derived.Add(t)
			queue = append(queue, t)
		}
	}

	for len(queue) > 0 {
		t := queue[0]
		queue = queue[1:]
		e.applyRules(work, t, emit)
	}
	derived.SetBasis(basis)
	e.st.InstallModel(derived)
	obsMaterializeHist.ObserveSince(t0)
	obsDerived.Add(int64(derived.Len()))
	return idxName, derived.Len(), nil
}

// applyRules derives the immediate consequences of triple t against the
// current closure and hands each to emit.
func (e *Engine) applyRules(all *store.Model, t store.ETriple, emit func(store.ETriple)) {
	s, p, o := t.S, t.P, t.O

	switch p {
	case e.subClassID:
		// Transitivity, both join directions.
		for _, c := range all.Objects(o, e.subClassID) {
			emit(store.ETriple{S: s, P: e.subClassID, O: c})
		}
		for _, a := range all.Subjects(e.subClassID, s) {
			emit(store.ETriple{S: a, P: e.subClassID, O: o})
		}
		// Type inheritance for existing instances of the subclass.
		for _, x := range all.Subjects(e.typeID, s) {
			emit(store.ETriple{S: x, P: e.typeID, O: o})
		}

	case e.subPropID:
		for _, c := range all.Objects(o, e.subPropID) {
			emit(store.ETriple{S: s, P: e.subPropID, O: c})
		}
		for _, a := range all.Subjects(e.subPropID, s) {
			emit(store.ETriple{S: a, P: e.subPropID, O: o})
		}
		// Statement inheritance: every (x s y) also holds under o.
		all.ForEach(store.Wildcard, s, store.Wildcard, func(st store.ETriple) bool {
			emit(store.ETriple{S: st.S, P: o, O: st.O})
			return true
		})

	case e.typeID:
		// Class membership propagates up the hierarchy.
		for _, c := range all.Objects(o, e.subClassID) {
			emit(store.ETriple{S: s, P: e.typeID, O: c})
		}
		if e.isSchemaPredicate(s) {
			// Declaring a schema predicate symmetric/transitive would
			// corrupt the schema rules themselves; ignore it.
			return
		}
		switch o {
		case e.symmetricID:
			all.ForEach(store.Wildcard, s, store.Wildcard, func(st store.ETriple) bool {
				emit(store.ETriple{S: st.O, P: s, O: st.S})
				return true
			})
		case e.transitiveID:
			all.ForEach(store.Wildcard, s, store.Wildcard, func(st store.ETriple) bool {
				for _, z := range all.Objects(st.O, s) {
					emit(store.ETriple{S: st.S, P: s, O: z})
				}
				return true
			})
		}

	case e.domainID:
		// t = (prop, domain, class): type every existing subject.
		for _, x := range all.SubjectsOf(s) {
			emit(store.ETriple{S: x, P: e.typeID, O: o})
		}

	case e.rangeID:
		all.ForEach(store.Wildcard, s, store.Wildcard, func(st store.ETriple) bool {
			if !e.isLiteral(st.O) {
				emit(store.ETriple{S: st.O, P: e.typeID, O: o})
			}
			return true
		})

	case e.inverseID:
		// t = (p', inverseOf, q): swap all existing statements both ways,
		// and record the symmetric inverse declaration.
		emit(store.ETriple{S: o, P: e.inverseID, O: s})
		all.ForEach(store.Wildcard, s, store.Wildcard, func(st store.ETriple) bool {
			emit(store.ETriple{S: st.O, P: o, O: st.S})
			return true
		})
		all.ForEach(store.Wildcard, o, store.Wildcard, func(st store.ETriple) bool {
			emit(store.ETriple{S: st.O, P: s, O: st.S})
			return true
		})

	case e.equivClassID:
		emit(store.ETriple{S: s, P: e.subClassID, O: o})
		emit(store.ETriple{S: o, P: e.subClassID, O: s})

	case e.equivPropID:
		emit(store.ETriple{S: s, P: e.subPropID, O: o})
		emit(store.ETriple{S: o, P: e.subPropID, O: s})

	case e.sameAsID:
		emit(store.ETriple{S: o, P: e.sameAsID, O: s})
		for _, z := range all.Objects(o, e.sameAsID) {
			if z != s {
				emit(store.ETriple{S: s, P: e.sameAsID, O: z})
			}
		}
	}

	// Generic property-sensitive rules that fire for every statement.
	// Skip the schema predicates already handled above to avoid deriving
	// nonsense like "subClassOf subPropertyOf ...".
	if e.isSchemaPredicate(p) {
		return
	}
	if all.Contains(store.ETriple{S: p, P: e.typeID, O: e.symmetricID}) {
		emit(store.ETriple{S: o, P: p, O: s})
	}
	if all.Contains(store.ETriple{S: p, P: e.typeID, O: e.transitiveID}) {
		for _, z := range all.Objects(o, p) {
			emit(store.ETriple{S: s, P: p, O: z})
		}
		for _, a := range all.Subjects(p, s) {
			emit(store.ETriple{S: a, P: p, O: o})
		}
	}
	for _, q := range all.Objects(p, e.subPropID) {
		emit(store.ETriple{S: s, P: q, O: o})
	}
	for _, q := range all.Objects(p, e.inverseID) {
		emit(store.ETriple{S: o, P: q, O: s})
	}
	for _, q := range all.Subjects(e.inverseID, p) {
		emit(store.ETriple{S: o, P: q, O: s})
	}
	for _, c := range all.Objects(p, e.domainID) {
		emit(store.ETriple{S: s, P: e.typeID, O: c})
	}
	if !e.isLiteral(o) {
		for _, c := range all.Objects(p, e.rangeID) {
			emit(store.ETriple{S: o, P: e.typeID, O: c})
		}
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

// Entail is a convenience for tests and small graphs: it loads ts into a
// scratch store, materializes, and returns base + derived triples.
func Entail(ts []rdf.Triple) ([]rdf.Triple, error) {
	st := store.New()
	st.AddAll("m", ts)
	eng := NewEngine(st)
	idx, _, err := eng.Materialize("m")
	if err != nil {
		return nil, err
	}
	out := st.Triples("m")
	out = append(out, st.Triples(idx)...)
	rdf.SortTriples(out)
	return rdf.DedupTriples(out), nil
}
