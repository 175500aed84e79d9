package main

import (
	"fmt"
	"io/fs"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"mdw/internal/core"
	"mdw/internal/durable"
	"mdw/internal/httpapi"
	"mdw/internal/obs"
	"mdw/internal/rdf"
)

// writeRead is the loading team's mix on a durable warehouse: one closed-
// loop client writes one triple through /api/load, then reads until the
// write is visible, alternating a search and a point query. It checkpoints
// at the start of every round but the first, so the run closes with one
// round of cycles in the WAL tail, which recovery then replays.
type writeRead struct {
	mu      sync.Mutex // guards dir and removed against the interrupt handler
	dir     string
	removed bool

	mgr    *durable.Manager
	marts  []string
	acked  []written
	cycles int

	walPerCycle []float64
	dirMax      int64
	ckptMs      []float64
	snapBytes   []float64
	recoveryS   float64
	recoverMs   float64
	replayed    float64
}

// written is one acknowledged write: the column that got a new name.
type written struct {
	col   string
	token string
}

const (
	// checkpointEvery bounds the WAL between checkpoints to that many
	// cycles' worth (each cycle re-logs the whole entailment index). It is
	// also the workload's round, long enough (five cycles of 2.5-4 s at
	// this commit) that a 10 s run never ends on a knife edge between one
	// round and two.
	checkpointEvery = 5
	// diskBudget is the most the data directory may hold at any point of
	// the run, including the initial load before its first checkpoint.
	diskBudget = 1 << 30
)

func (*writeRead) clients() int      { return 1 }
func (*writeRead) round() int        { return checkpointEvery }
func (*writeRead) classes() []string { return []string{"write_visible"} }

func (w *writeRead) path() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.dir
}

func (w *writeRead) options() durable.Options {
	return durable.Options{Dir: w.path(), Fsync: durable.FsyncInterval}
}

func (w *writeRead) prepare(b *bench) error {
	dir, err := filepath.Abs(filepath.Join(b.cfg.workDir, fmt.Sprintf("perfbench-wr-%d", os.Getpid())))
	if err != nil {
		return err
	}
	w.mu.Lock()
	w.dir = dir
	w.mu.Unlock()
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	t0 := time.Now()
	wh, mgr, err := core.OpenDurable("", w.options())
	if err != nil {
		return fmt.Errorf("open durable warehouse: %w", err)
	}
	w.mgr = mgr
	l, st, err := seedWarehouse(wh, b.cfg.landscape())
	if err != nil {
		mgr.Close()
		return err
	}
	w.noteDir()
	if _, err := mgr.Checkpoint(); err != nil {
		mgr.Close()
		return fmt.Errorf("initial checkpoint: %w", err)
	}
	st.total = time.Since(t0).Seconds()
	st.staging = st.total - st.generate - st.reason - st.textindex
	b.l, b.w, b.setup = l, wh, st
	b.srv = httpapi.NewServer(wh)
	b.srv.SetDurable(mgr)
	b.heap = liveHeapMiB()
	w.marts = l.MartColumns
	w.noteDir()
	return nil
}

// removeDir deletes the data directory; safe to call more than once.
func (w *writeRead) removeDir() {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.dir != "" && !w.removed {
		_ = os.RemoveAll(w.dir) // best effort on the way out
		w.removed = true
	}
}

// noteDir records the data directory's size.
func (w *writeRead) noteDir() {
	var n int64
	_ = filepath.WalkDir(w.path(), func(_ string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			if info, err := d.Info(); err == nil {
				n += info.Size()
			}
		}
		return nil
	})
	w.dirMax = max(w.dirMax, n)
}

func (w *writeRead) warmup(b *bench, cs []*client) {
	// Reads only: a write would change the state the first cycle starts
	// from. They fill the planner statistics and the search path.
	b.rec = newRecorder()
	o := b.begin()
	o.call("GET", "/api/search?term=customer", "")
	o.call("GET", "/api/query?q="+url.QueryEscape(nameQuery(w.marts[0])), "")
}

// token is the unique, letters-only name of write i under seed: a search
// for it matches that write alone.
func token(seed int64, i int) string {
	enc := func(v uint64) string {
		s := ""
		for {
			s = string(rune('a'+v%16)) + s
			if v /= 16; v == 0 {
				return s
			}
		}
	}
	return "zq" + enc(uint64(seed)) + "x" + enc(uint64(i)) + "y"
}

func nameQuery(col string) string {
	return fmt.Sprintf("SELECT ?n WHERE { <%s> <%s> ?n }", pathIRI(col).Value, rdf.MDWHasName)
}

func (w *writeRead) step(b *bench, c *client) {
	if w.cycles > 0 && w.cycles%checkpointEvery == 0 {
		w.checkpoint(b)
	}
	i := w.cycles
	w.cycles++
	wr := written{col: w.marts[c.rng.Intn(len(w.marts))], token: token(b.cfg.seed, i)}
	triple := rdf.T(pathIRI(wr.col), rdf.HasName, rdf.Literal(wr.token))
	wal0 := obs.Default().Counter("mdw_wal_bytes_total").Value()
	o := b.begin()
	var resp map[string]int
	err := decode(o.call("POST", "/api/load", triple.NTriple()+"\n"), &resp)
	if err != nil || resp["added"] != 1 {
		o.end("write_visible")
		b.fail("write %d: not acknowledged", i)
		return
	}
	w.acked = append(w.acked, wr)
	visible := false
	for try := 0; try < 3 && !visible; try++ {
		if i%2 == 0 {
			visible = w.searchSees(b, o, wr)
		} else {
			visible = w.querySees(b, o, wr)
		}
	}
	o.end("write_visible")
	w.walPerCycle = append(w.walPerCycle, float64(obs.Default().Counter("mdw_wal_bytes_total").Value()-wal0))
	if !visible {
		b.fail("write %d (%s on %s) not visible to its reads", i, wr.token, wr.col)
	}
	w.noteDir()
}

func (w *writeRead) expect(b *bench, wr written) string {
	if b.cfg.corrupt {
		return wr.token + "z"
	}
	return wr.token
}

func (w *writeRead) searchSees(b *bench, o *op, wr written) bool {
	var resp httpapi.SearchResponse
	if err := decode(o.call("GET", "/api/search?term="+url.QueryEscape(w.expect(b, wr)), ""), &resp); err != nil {
		return false
	}
	iri := pathIRI(wr.col).Value
	for _, g := range resp.Groups {
		for _, h := range g.Hits {
			if h.IRI == iri {
				return true
			}
		}
	}
	return false
}

func (w *writeRead) querySees(b *bench, o *op, wr written) bool {
	var resp httpapi.QueryResponse
	if err := decode(o.call("GET", "/api/query?q="+url.QueryEscape(nameQuery(wr.col)), ""), &resp); err != nil {
		return false
	}
	want := w.expect(b, wr)
	for _, row := range resp.Rows {
		if row["n"] == want {
			return true
		}
	}
	return false
}

func (w *writeRead) checkpoint(b *bench) {
	o := b.begin()
	rec := o.call("POST", "/api/checkpoint", "")
	o.done("checkpoint")
	var st durable.CheckpointStats
	if err := decode(rec, &st); err != nil {
		b.fail("checkpoint: %v", err)
		return
	}
	w.ckptMs = append(w.ckptMs, float64(st.Duration)/1e6)
	w.snapBytes = append(w.snapBytes, float64(st.Bytes))
	w.noteDir()
}

// finish closes the warehouse, recovers it from the data directory and
// checks that every acknowledged write survived.
func (w *writeRead) finish(b *bench) error {
	if err := w.mgr.Close(); err != nil {
		return fmt.Errorf("close durable warehouse: %w", err)
	}
	b.w, b.srv, w.mgr = nil, nil, nil
	runtime.GC()
	t0 := time.Now()
	wh, mgr, err := core.OpenDurable("", w.options())
	if err != nil {
		return fmt.Errorf("recover: %w", err)
	}
	defer mgr.Close()
	w.recoverMs = float64(time.Since(t0)) / 1e6
	w.replayed = float64(mgr.Recovery().ReplayedRecords)
	b.w, b.srv = wh, httpapi.NewServer(wh)
	b.srv.SetDurable(mgr)
	o := b.begin()
	if len(w.acked) > 0 {
		last := w.acked[len(w.acked)-1]
		if !w.querySees(b, o, last) {
			b.fail("write %s on %s lost in recovery", last.token, last.col)
		}
	} else if rec := o.call("GET", "/api/query?q="+url.QueryEscape("ASK { ?s ?p ?o }"), ""); rec.Code != 200 {
		b.fail("query after recovery: status %d", rec.Code)
	}
	w.recoveryS = time.Since(t0).Seconds()
	for _, wr := range w.acked {
		if !w.querySees(b, o, wr) {
			b.fail("write %s on %s lost in recovery", wr.token, wr.col)
		}
	}
	if w.dirMax > diskBudget {
		b.fail("data directory reached %d bytes, over the %d-byte budget", w.dirMax, int64(diskBudget))
	}
	fmt.Fprintf(b.out, "perfbench durable cycles=%d checkpoints=%d dir_bytes_max=%d budget=%d\n",
		w.cycles, len(w.ckptMs), w.dirMax, int64(diskBudget))
	return nil
}

func (w *writeRead) report(b *bench, e2e, layers map[string]Metric) {
	e2e["write_visible_p50_ms"] = Metric{percentile(b.rec.samples["write_visible"], 0.5), "ms"}
	e2e["wal_bytes_per_write"] = Metric{mean(w.walPerCycle), "B"}
	e2e["recovery_s"] = Metric{w.recoveryS, "s"}
	layers["durable.checkpoint_ms"] = Metric{Value: mean(w.ckptMs)}
	layers["durable.snapshot_bytes"] = Metric{Value: mean(w.snapBytes)}
	layers["durable.dir_bytes_max"] = Metric{Value: float64(w.dirMax)}
	layers["durable.replayed_records"] = Metric{Value: w.replayed}
	layers["durable.recover_ms"] = Metric{Value: w.recoverMs}
}
