package sparql

import (
	"math"
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"

	"mdw/internal/rdf"
	"mdw/internal/store"
)

// Intra-query parallelism. The planner picks one of three strategies from
// its existing cardinality estimates; execution then fans work out to a
// bounded pool while preserving the engine's contracts:
//
//   - morsel-driven BGP scans: the first join step's candidate triples are
//     materialized once (store.Matcher), split into fixed-size morsels, and
//     each worker runs the ordinary streaming depth-first pipeline over its
//     morsel with a private binding env. A merger emits buffered solutions
//     in morsel order, so downstream consumers (DISTINCT, LIMIT,
//     aggregation) observe exactly the serial solution order.
//   - parallel UNION branches: each branch streams into its own buffer;
//     the merger emits left-then-right, the serial order.
//   - parallel frontier BFS for p*/p+ property paths: each frontier level
//     is expanded across workers against the frozen visited set of the
//     previous levels, then merged sequentially in frontier order —
//     reproducing the serial BFS discovery order exactly.
//
// Streaming semantics survive: ASK stops all workers at the first emitted
// solution, LIMIT-without-ORDER-BY stops after N merged rows, and context
// cancellation propagates through every worker. Small queries stay serial
// (SerialThreshold), so plan-cache-hot point lookups pay zero overhead —
// the decision is taken once at plan time, not per execution.

// ParOptions tunes intra-query parallelism for one plan. The zero value
// of any field means "use the default"; DefaultParOptions is what
// Query.Plan applies.
type ParOptions struct {
	// MaxWorkers caps the worker pool (default: MaxParallelism(), itself
	// defaulting to GOMAXPROCS). 1 disables parallel execution.
	MaxWorkers int
	// MorselSize is the number of first-step candidate triples per morsel
	// (default 256): large enough that per-morsel overhead (one buffer,
	// one channel send) is noise against hundreds of index probes, small
	// enough that a skewed candidate's work spreads across workers.
	MorselSize int
	// SerialThreshold is the estimated row count below which execution
	// stays serial (default 4096): fan-out costs two goroutine wakeups
	// and a buffer per morsel, which only pays off when the scan is at
	// least thousands of probes.
	SerialThreshold int
	// FrontierThreshold is the BFS frontier width below which a level is
	// expanded serially (default 64): a narrow frontier — the common case
	// for the paper's linear lineage chains — has too little work per
	// level to amortize a barrier.
	FrontierThreshold int
}

const (
	defaultMorselSize        = 256
	defaultSerialThreshold   = 4096
	defaultFrontierThreshold = 64
)

// DefaultParOptions returns the options Query.Plan uses: everything at
// its default, capped by the process-wide MaxParallelism.
func DefaultParOptions() ParOptions {
	return ParOptions{MaxWorkers: MaxParallelism()}
}

func (o ParOptions) normalized() ParOptions {
	if o.MaxWorkers <= 0 {
		o.MaxWorkers = MaxParallelism()
	}
	if o.MorselSize <= 0 {
		o.MorselSize = defaultMorselSize
	}
	if o.SerialThreshold <= 0 {
		o.SerialThreshold = defaultSerialThreshold
	}
	if o.FrontierThreshold <= 0 {
		o.FrontierThreshold = defaultFrontierThreshold
	}
	return o
}

// maxPar is the process-wide worker cap: GOMAXPROCS, overridden by the
// MDW_PARALLELISM environment variable at init and by SetMaxParallelism
// (the mdwd -parallelism flag) at runtime. Plans snapshot it when built,
// so changing it does not retune already-cached plans.
var maxPar atomic.Int32

func init() {
	n := runtime.GOMAXPROCS(0)
	if s := os.Getenv("MDW_PARALLELISM"); s != "" {
		if v, err := strconv.Atoi(s); err == nil && v >= 1 {
			n = v
		}
	}
	maxPar.Store(int32(n))
}

// MaxParallelism returns the process-wide cap on workers per query.
func MaxParallelism() int { return int(maxPar.Load()) }

// SetMaxParallelism sets the process-wide cap on workers per query;
// values below 1 clamp to 1 (serial execution).
func SetMaxParallelism(n int) {
	if n < 1 {
		n = 1
	}
	maxPar.Store(int32(n))
}

type parStrategy int

const (
	parNone parStrategy = iota
	parMorsel
	parUnion
	parPath
)

// parDecision is the plan-time parallelism choice, rendered by
// Plan.String and acted on by the evaluator's runRoot.
type parDecision struct {
	strategy    parStrategy
	workers     int
	morsel      int
	frontierMin int
	est         float64 // estimate that justified the choice
}

// decidePar picks the execution strategy for the plan's root group. Only
// executable plans (src and dict present) with a worker budget of at
// least 2 parallelize; everything else — including every Explain-only
// plan — keeps the zero-value decision, parNone.
func (p *Plan) decidePar(o ParOptions) {
	o = o.normalized()
	if p.src == nil || p.dict == nil || o.MaxWorkers < 2 || len(p.root.steps) == 0 {
		return
	}
	switch st := p.root.steps[0].(type) {
	case *bgpStep:
		pp := st.patterns[0]
		if pp.pk == pkPath {
			// The first step is a property path: morsels cannot partition
			// it (the path engine materializes endpoint pairs itself), but
			// a closure over a large edge set parallelizes level by level.
			est := p.pathEdgeEstimate(pp.tp.P)
			if hasRepeat(pp.tp.P) && est >= float64(o.SerialThreshold) {
				p.par = parDecision{strategy: parPath, workers: o.MaxWorkers,
					morsel: o.MorselSize, frontierMin: o.FrontierThreshold, est: est}
			}
			return
		}
		if pp.est < float64(o.SerialThreshold) || pp.text != nil {
			return
		}
		w := int(math.Ceil(pp.est / float64(o.MorselSize)))
		if w > o.MaxWorkers {
			w = o.MaxWorkers
		}
		if w >= 2 {
			p.par = parDecision{strategy: parMorsel, workers: w,
				morsel: o.MorselSize, frontierMin: o.FrontierThreshold, est: pp.est}
		}
	case *unionStep:
		est := branchEstimate(st.left) + branchEstimate(st.right)
		if est >= float64(o.SerialThreshold) {
			p.par = parDecision{strategy: parUnion, workers: 2,
				morsel: o.MorselSize, frontierMin: o.FrontierThreshold, est: est}
		}
	}
}

// Parallelism returns the degree of parallelism the plan may use: 1 for
// serial plans, the worker cap otherwise. Statement statistics record it
// per fingerprint (obs.ParallelPlan).
func (p *Plan) Parallelism() int {
	if p.par.strategy == parNone {
		return 1
	}
	return p.par.workers
}

// branchEstimate is the estimated cardinality of a UNION branch's first
// join step — the work a branch worker would own.
func branchEstimate(g *planGroup) float64 {
	for _, st := range g.steps {
		if b, ok := st.(*bgpStep); ok && len(b.patterns) > 0 {
			return b.patterns[0].est
		}
	}
	return 0
}

// pathEdgeEstimate estimates the number of edges a path traversal can
// touch: the triple count of every predicate the path mentions.
func (p *Plan) pathEdgeEstimate(pt Path) float64 {
	switch pp := pt.(type) {
	case PathIRI:
		pid, ok := p.dict.Lookup(rdf.IRI(pp.IRI))
		if !ok {
			return 0
		}
		return float64(estCountOn(p.src, store.Wildcard, pid, store.Wildcard))
	case PathInverse:
		return p.pathEdgeEstimate(pp.P)
	case PathAlt:
		var n float64
		for _, part := range pp.Parts {
			n += p.pathEdgeEstimate(part)
		}
		return n
	case PathSeq:
		var n float64
		for _, part := range pp.Parts {
			n += p.pathEdgeEstimate(part)
		}
		return n
	case PathRepeat:
		return p.pathEdgeEstimate(pp.P)
	default:
		return 0
	}
}

// hasRepeat reports whether the path contains a closure (p* / p+ / p{n,m}).
func hasRepeat(pt Path) bool {
	switch pp := pt.(type) {
	case PathRepeat:
		return true
	case PathInverse:
		return hasRepeat(pp.P)
	case PathAlt:
		for _, part := range pp.Parts {
			if hasRepeat(part) {
				return true
			}
		}
	case PathSeq:
		for _, part := range pp.Parts {
			if hasRepeat(part) {
				return true
			}
		}
	}
	return false
}

func estCountOn(src store.Source, s, p, o store.ID) int {
	if ce, ok := src.(store.CardEstimator); ok {
		return ce.EstCount(s, p, o)
	}
	return src.Count(s, p, o)
}

// ---------------------------------------------------------------------
// Evaluator integration.

// runRoot streams the root group's solutions into emit, dispatching to
// the plan's parallel strategy when one was chosen. Every solution passed
// to emit is already cloned when it crossed a worker boundary; emit runs
// exclusively on the calling goroutine, so downstream state (DISTINCT
// sets, LIMIT counters, aggregation maps) needs no locking.
func (ev *evaluator) runRoot(emit func(env) bool) {
	p := ev.plan
	switch p.par.strategy {
	case parMorsel:
		ev.runMorselRoot(emit)
	case parUnion:
		ev.runUnionRoot(emit)
	case parPath:
		ev.pathWorkers = p.par.workers
		ev.frontierMin = p.par.frontierMin
		ev.runGroup(p.root, env{}, emit)
		if ev.parStrategy == "" {
			// Eligible but the traversal never grew a frontier wide
			// enough to fan out.
			obsParFallback.Inc()
		}
	default: // parNone
		ev.runGroup(p.root, env{}, emit)
	}
}

// runMorselRoot partitions the first join step's candidates into morsels
// and fans them out. When the live candidate count undershoots the
// plan-time estimate (stale statistics), it falls back to the serial
// pipeline — correctness never depends on the estimate.
func (ev *evaluator) runMorselRoot(emit func(env) bool) {
	p := ev.plan
	bgp := p.root.steps[0].(*bgpStep)
	pp := bgp.patterns[0]
	sid, svar, ok := derefNode(pp.s, nil)
	if !ok {
		return // constant unknown to the dictionary: zero matches
	}
	oid, ovar, ok := derefNode(pp.o, nil)
	if !ok {
		return
	}
	pid := store.Wildcard
	if pp.pk == pkSimple {
		if pp.pid == store.Wildcard {
			return // predicate IRI unknown to the dictionary
		}
		pid = pp.pid
	}
	cands := collectMatches(ev.src, sid, pid, oid)
	if st := ev.stats; st != nil {
		// The first pattern runs as one logical scan over the candidate
		// set; its matches are counted per morsel as workers replay them.
		st.ops[pp.si].loops.Add(1)
	}
	msize := p.par.morsel
	if len(cands) < 2*msize {
		obsParFallback.Inc()
		ev.runMorsel(bgp, p.root, cands, svar, ovar, emit)
		return
	}
	ntasks := (len(cands) + msize - 1) / msize
	workers := p.par.workers
	if workers > ntasks {
		workers = ntasks
	}
	obsParExecMorsel.Inc()
	obsParMorsels.Add(int64(ntasks))
	obsParWorkers.Add(int64(workers))
	ev.parStrategy, ev.parWorkers, ev.parTasks = "morsel", workers, ntasks
	ev.orderedRun(workers, ntasks, func(wev *evaluator, task int, bufEmit func(env) bool) {
		lo := task * msize
		hi := min(lo+msize, len(cands))
		wev.runMorsel(bgp, p.root, cands[lo:hi], svar, ovar, bufEmit)
	}, emit)
}

// runMorsel runs the ordinary streaming pipeline over one slice of the
// first pattern's candidate triples: it reproduces exactly what next(0)
// does, except that the index enumeration is replaced by the slice.
func (ev *evaluator) runMorsel(b *bgpStep, root *planGroup, cands []store.ETriple, svar, ovar string, emit func(env) bool) {
	if len(cands) == 0 {
		return
	}
	r := &bgpRun{ev: ev, b: b, s: env{}, emit: func(s env) bool {
		return ev.runSteps(root.steps, 1, s, emit)
	}, frames: make([]bgpFrame, len(b.patterns))}
	for i := range r.frames {
		idx := i
		r.frames[i].cb = func(t store.ETriple) bool { return r.onTriple(idx, t) }
	}
	f := &r.frames[0]
	f.svar, f.ovar, f.cont = svar, ovar, true
	f.pvarBound = false // a variable predicate is never bound at the root
	for _, t := range cands {
		if ev.err != nil || ev.stopped() {
			return
		}
		if !r.onTriple(0, t) {
			return
		}
	}
}

// runUnionRoot evaluates the two branches of a root-level UNION
// concurrently, then emits left-buffer solutions before right-buffer
// ones — the serial order.
func (ev *evaluator) runUnionRoot(emit func(env) bool) {
	p := ev.plan
	u := p.root.steps[0].(*unionStep)
	branches := [2]*planGroup{u.left, u.right}
	obsParExecUnion.Inc()
	obsParWorkers.Add(2)
	ev.parStrategy, ev.parWorkers, ev.parTasks = "union", 2, 2
	if st := ev.stats; st != nil {
		st.ops[u.si].loops.Add(1)
	}
	ev.orderedRun(2, 2, func(wev *evaluator, task int, bufEmit func(env) bool) {
		wev.runGroup(branches[task], env{}, func(s env) bool {
			if st := wev.stats; st != nil {
				st.ops[u.si].rows.Add(1)
			}
			return wev.runSteps(p.root.steps, 1, s, bufEmit)
		})
	}, emit)
}

// collectMatches materializes the candidate triples of one pattern.
// Sources implementing store.Matcher enumerate deterministically (index
// order for slice-backed access paths, sorted-key order for map walks);
// anything else falls back to one ForEach pass.
func collectMatches(src store.Source, s, p, o store.ID) []store.ETriple {
	if m, ok := src.(store.Matcher); ok {
		return m.Matches(s, p, o)
	}
	out := make([]store.ETriple, 0, src.Count(s, p, o))
	src.ForEach(s, p, o, func(t store.ETriple) bool {
		out = append(out, t)
		return true
	})
	return out
}

// ---------------------------------------------------------------------
// The ordered worker pool.

// parRun is the shared state of one parallel execution: a stop flag the
// merger raises on early termination, an abort channel that wakes
// blocked workers, and the first worker error. The sync.Once guarantees
// the channel closes exactly once whether the run ends by completion,
// early stop, or error.
type parRun struct {
	stop  atomic.Bool
	abort chan struct{}
	once  sync.Once
	err   error
}

func (pr *parRun) fail(err error) {
	pr.once.Do(func() {
		pr.err = err
		pr.stop.Store(true)
		close(pr.abort)
	})
}

func (pr *parRun) finish() {
	pr.once.Do(func() {
		pr.stop.Store(true)
		close(pr.abort)
	})
}

// stopped reports whether a parallel merger asked this (worker)
// evaluator to stop producing.
func (ev *evaluator) stopped() bool {
	return ev.parStop != nil && ev.parStop.Load()
}

// orderedRun executes ntasks task bodies on a pool of workers and emits
// their buffered solutions strictly in task order on the calling
// goroutine. Tasks are claimed from an atomic counter; a semaphore keeps
// at most 2×workers tasks materialized ahead of the merger, bounding
// memory on large scans while keeping every worker busy. The function
// returns only after every worker has exited (the cancellation
// guarantee: no goroutine outlives the call).
func (ev *evaluator) orderedRun(workers, ntasks int, task func(wev *evaluator, task int, emit func(env) bool), emit func(env) bool) {
	pr := &parRun{abort: make(chan struct{})}
	inflight := min(workers*2, ntasks)
	sem := make(chan struct{}, inflight)
	for i := 0; i < inflight; i++ {
		sem <- struct{}{}
	}
	results := make([]chan []env, ntasks)
	for i := range results {
		results[i] = make(chan []env, 1)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			wev := &evaluator{src: ev.src, dict: ev.dict, ctx: ev.ctx, parStop: &pr.stop, stats: ev.stats}
			for {
				select {
				case <-sem:
				case <-pr.abort:
					return
				}
				if pr.stop.Load() {
					return
				}
				i := int(next.Add(1)) - 1
				if i >= ntasks {
					return
				}
				var buf []env
				task(wev, i, func(s env) bool {
					if pr.stop.Load() {
						return false
					}
					buf = append(buf, s.clone())
					return true
				})
				if wev.err != nil {
					pr.fail(wev.err)
					return
				}
				results[i] <- buf
			}
		}()
	}
merge:
	for i := 0; i < ntasks; i++ {
		var buf []env
		select {
		case buf = <-results[i]:
		case <-pr.abort:
			break merge
		}
		sem <- struct{}{}
		for _, s := range buf {
			if !emit(s) {
				break merge
			}
		}
	}
	pr.finish()
	wg.Wait()
	if pr.err != nil && ev.err == nil {
		ev.err = pr.err
	}
}

// cancelled reports whether the execution's context was cancelled. The
// check is amortized: the context is probed once every cancelTick calls,
// so the per-triple cost on the match hot path is one branch and one
// increment. Once cancelled (or any error is set), it stays true and the
// pipeline unwinds.
const cancelTick = 1024

func (ev *evaluator) cancelled() bool {
	if ev.err != nil {
		return true
	}
	if ev.ctx == nil {
		return false
	}
	ev.tick++
	if ev.tick%cancelTick != 0 {
		return false
	}
	if err := ev.ctx.Err(); err != nil {
		ev.err = err
		return true
	}
	return false
}
