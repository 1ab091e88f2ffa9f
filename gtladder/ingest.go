package main

import (
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/materialize"
	"repro/internal/plan"
	"repro/internal/server"
	"repro/internal/storage"
	"repro/internal/stream"
)

const (
	// ingestRate is the writer's pace in batches per second of the window.
	ingestRate = 12
	// minDays is the smallest SchoolContacts history the workload replays.
	minDays = 200
	// warmDays are ingested during set-up, so readers start on a prefix.
	warmDays = 9
	// lateEvery holds back every lateEvery-th day and sends it late.
	lateEvery = 10
	// checkpointRecords is low enough that several checkpoints complete
	// within one window.
	checkpointRecords = 48
	// asOfChecks is the number of AS OF answers compared with the oracle.
	asOfChecks = 6
	// asOfStep spaces the reader's AS OF pins: each pin is reconstructed
	// cold once and then served from the history cache, so the cold work
	// per run is a fixed number of reconstructions rather than one that
	// grows with the reader's own speed.
	asOfStep = 8
)

// Reader op kinds of ingest-asof; ingest samples use opIngest.
const (
	opHeadAll = iota
	opHeadDist
	opAsOf
	opIngest
)

// sendItem is one ingest batch in send order.
type sendItem struct {
	day  int // index into the day batches
	body []byte
}

// ingestSchedule orders the day batches: every lateEvery-th day (after the
// warm prefix) is held back and released 1–4 days later with "before" set
// to its successor's label, which has then been ingested.
func ingestSchedule(r *rand.Rand, batches []server.IngestRequest) []sendItem {
	var out []sendItem
	type held struct{ day, release int }
	var pending []held
	send := func(day int, before string) {
		req := batches[day]
		req.Before = before
		out = append(out, sendItem{day: day, body: mustJSON(req)})
	}
	for d := range batches {
		if d >= warmDays && (d+1)%lateEvery == 0 && d+1 < len(batches) {
			pending = append(pending, held{d, d + 1 + r.Intn(4)})
			continue
		}
		send(d, "")
		kept := pending[:0]
		for _, h := range pending {
			if h.release <= d {
				send(h.day, batches[h.day+1].Label)
			} else {
				kept = append(kept, h)
			}
		}
		pending = kept
	}
	for _, h := range pending {
		send(h.day, batches[h.day+1].Label)
	}
	return out
}

// ingestState is what the writer has had acknowledged, shared with the
// reader: sent[k] is the day of transaction k+1.
type ingestState struct {
	mu   sync.Mutex
	sent []int
}

func (s *ingestState) snapshot() []int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]int(nil), s.sent...)
}

var ingestAttrSets = [][]string{{"grade"}, {"class"}, {"grade", "contacts"}}

// readOp builds a union aggregate over the state holding the days of
// present (in transaction order): UNION(first..x, y..last), x and y drawn
// from the present days so that every label resolves in that state.
func readOp(r *rand.Rand, labels []string, present []int, kind string, asOf int) op {
	sorted := append([]int(nil), present...)
	sort.Ints(sorted)
	x, y := sorted[r.Intn(len(sorted))], sorted[r.Intn(len(sorted))]
	if x > y {
		x, y = y, x
	}
	last := sorted[len(sorted)-1]
	// Head union-ALL is served by the catalog; DIST and pinned reads (the
	// twin replays those without a catalog) are scans.
	family := "agg_catalog"
	if kind != "all" || asOf > 0 {
		family = "agg_scratch"
	}
	return aggregateOp(family, server.AggregateRequest{Op: plan.OpUnion,
		Interval:  server.IntervalSpec{From: labels[sorted[0]], To: labels[y]},
		Interval2: server.IntervalSpec{From: labels[x], To: labels[last]},
		Attrs:     ingestAttrSets[r.Intn(len(ingestAttrSets))], Kind: kind, AsOf: asOf})
}

// durable is one set-up of the ingest-asof program: a storage engine on a
// fresh data directory behind a durable stream-mode server.
type durable struct {
	dir string
	eng *storage.Engine
	ep  *endpoint
	cl  *client
}

func storageOptions() storage.Options {
	return storage.Options{Fsync: storage.FsyncAlways, CheckpointRecords: checkpointRecords, Logger: quiet}
}

func openDurable(dir string, attrs []core.AttrSpec, tr *tracer, traced bool) (*durable, error) {
	eng, err := storage.Open(dir, attrs, storageOptions())
	if err != nil {
		return nil, err
	}
	srv, err := server.New(server.Config{Storage: eng, Logger: quiet})
	if err != nil {
		eng.Close()
		return nil, err
	}
	var h http.Handler = srv.Handler()
	if traced {
		h = tr.traceHandler("server.handler", h)
	}
	ep, err := serve(h)
	if err != nil {
		eng.Close()
		return nil, err
	}
	return &durable{dir: dir, eng: eng, ep: ep, cl: newClient(ep.URL, maxClients)}, nil
}

func (d *durable) close() error {
	d.cl.closeIdle()
	d.ep.close()
	return d.eng.Close()
}

// ingest sends one batch and returns once the acknowledgement's visible
// generation covers it (polling /readyz?gen=N if it does not yet).
func (d *durable) ingest(body []byte, req int64) error {
	r, err := d.cl.post("/v1/ingest", body, req)
	if err != nil {
		return err
	}
	var ack server.IngestResponse
	if err := json.Unmarshal(r.body, &ack); err != nil {
		return fmt.Errorf("ingest ack: %w", err)
	}
	if ack.Visible < ack.Points {
		return d.cl.waitReady(ack.Points, 30*time.Second)
	}
	return nil
}

func runIngestAsOf(cfg config, res *result, tr *tracer) error {
	days := max(minDays, warmDays+ingestRate*cfg.seconds)
	params := dataset.DefaultContactsParams()
	params.Days, params.MitigationDay = days, days/2
	g := dataset.SchoolContacts(cfg.seed, params)
	batches := snapshots(g)
	labels := g.Timeline().Labels()
	items := ingestSchedule(rand.New(rand.NewSource(cfg.seed)), batches)
	var inputBytes int
	for _, it := range items {
		inputBytes += len(it.body)
	}
	res.meta["sizes"] = map[string]any{"dataset": "SchoolContacts(seed, days)", "days": days, "nodes": g.NumNodes(),
		"edges": g.NumEdges(), "batches": len(items), "late_batches": len(items) / lateEvery, "warm_batches": warmDays,
		"ingest_rate_per_s": ingestRate, "input_bytes": inputBytes, "fsync": "always", "checkpoint_records": checkpointRecords}

	timed := items[warmDays:]
	wrec := &recorder{samples: make([]sample, 0, len(timed))}
	rrec := newRecorders(cfg, 1)[0]
	recs := []*recorder{wrec, rrec}
	res.ownMB(liveMB())

	root := filepath.Join(outDir, fmt.Sprintf("ingest-%d-%d", os.Getpid(), cfg.seed))
	defer os.RemoveAll(root)
	var setups []float64
	var d *durable
	for i := 0; i < setupRepeats; i++ {
		if d != nil {
			if err := d.close(); err != nil {
				return err
			}
		}
		dir := filepath.Join(root, fmt.Sprintf("data%d", i))
		runtime.GC() // the previous set-up's garbage is not this one's
		start := time.Now()
		var err error
		if d, err = openDurable(dir, g.Attrs(), tr, cfg.trace); err != nil {
			return err
		}
		for _, it := range items[:warmDays] {
			if err := d.ingest(it.body, 0); err != nil {
				return fmt.Errorf("warm ingest: %w", err)
			}
		}
		warm := []int{}
		for _, it := range items[:warmDays] {
			warm = append(warm, it.day)
		}
		wr := rand.New(rand.NewSource(cfg.seed))
		for _, kind := range []string{"all", "dist"} {
			o := readOp(wr, labels, warm, kind, 0)
			if _, err := d.cl.post(o.path, o.body, 0); err != nil {
				return fmt.Errorf("warm read: %w", err)
			}
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer d.close()
	res.e2e("setup_s", "s", median(setups))
	res.samples["setup_s"] = len(setups)

	// The timed window: one paced writer, one closed-loop reader.
	state := &ingestState{}
	for _, it := range items[:warmDays] {
		state.sent = append(state.sent, it.day)
	}
	var reads []op // traced runs: reader ops by sample.op - opIngest - 1
	interval := cfg.window() / time.Duration(len(timed))
	var wg sync.WaitGroup
	writerDone := make(chan struct{})
	t0 := tr.now()
	deadline := t0 + int64(cfg.window())
	wg.Add(2)
	go func() {
		defer wg.Done()
		defer close(writerDone)
		for k, it := range timed {
			if wait := time.Duration(t0 + int64(k)*int64(interval) - tr.now()); wait > 0 {
				time.Sleep(wait)
			}
			req := tr.newID()
			s := sample{req: req, op: opIngest, traced: tr.on.Load(), start: tr.now()}
			err := d.ingest(it.body, req)
			s.end, s.ok = tr.now(), err == nil
			if err == nil {
				state.mu.Lock()
				state.sent = append(state.sent, it.day)
				state.mu.Unlock()
			}
			wrec.record(s, err)
		}
	}()
	go func() {
		defer wg.Done()
		r := rand.New(rand.NewSource(cfg.seed*31 + 7))
		for i := 0; ; i++ {
			select {
			case <-writerDone:
				if tr.now() >= deadline {
					return
				}
			default:
			}
			sent := state.snapshot()
			kind := []int{opHeadAll, opAsOf, opHeadDist, opAsOf}[i%4]
			var o op
			switch kind {
			case opHeadAll:
				o = readOp(r, labels, sent, "all", 0)
			case opHeadDist:
				o = readOp(r, labels, sent, "dist", 0)
			default:
				n := asOfStep * (1 + r.Intn(len(sent)/asOfStep))
				o = readOp(r, labels, sent[:n], "all", n)
			}
			// Only the traced twin replays reads, so an untraced run keeps
			// none and the window's live heap stays the program's.
			opIdx := opIngest + 1 + len(reads)
			if cfg.trace {
				reads = append(reads, o)
			}
			req := tr.newID()
			s := sample{req: req, op: opIdx, traced: tr.on.Load(), start: tr.now()}
			rp, err := d.cl.post(o.path, o.body, req)
			s.end, s.ok, s.bytes = tr.now(), err == nil, len(rp.body)
			rrec.record(s, err)
		}
	}()

	var w window
	var tg *toggler
	heap := sampleHeap()
	if cfg.trace {
		before, err := scrape(d.cl)
		if err != nil {
			return err
		}
		w.proc0 = readProc()
		tg = startToggle(tr)
		wg.Wait()
		tg.end()
		w.proc1 = readProc()
		after, err := scrape(d.cl)
		if err != nil {
			return err
		}
		w.global = after.since(before)
		w.server = w.global
	} else {
		wg.Wait()
	}
	end := tr.now()
	res.e2e("heap_live_mb", "MB", heap.end(res.own))

	w.samples = merged(recs)
	tally(res, recs)
	isRead := func(s sample) bool { return s.op != opIngest }
	summarize(res, w.samples, time.Duration(end-t0), isRead)
	var vis dist
	for _, s := range wrec.samples {
		if s.ok {
			vis.add(s.ms())
		}
	}
	res.pct("ingest_visible_p50_ms", "ms", &vis, 0.5)
	res.pct("ingest_visible_p90_ms", "ms", &vis, 0.9)
	res.meta["writer_finished_after_window_s"] = float64(end-deadline) / 1e9

	disk, err := dirBytes(d.dir)
	if err != nil {
		return err
	}
	res.e2e("disk_bytes_per_input_byte", "ratio", float64(disk)/float64(inputBytes))

	// Correctness: final head answers against the generator graph, sampled
	// AS OF answers against in-order rebuilds of the days each transaction
	// held, and the recovered copy against the live server.
	sent := state.snapshot()
	if len(sent) != len(items) {
		return fmt.Errorf("writer acknowledged %d of %d batches", len(sent), len(items))
	}
	cr := rand.New(rand.NewSource(cfg.seed*131 + 3))
	heads := []op{readOp(cr, labels, sent, "all", 0), readOp(cr, labels, sent, "dist", 0), readOp(cr, labels, sent, "all", 0)}
	var headAnswers [][]byte
	for _, o := range heads {
		want, err := oracle(g, o)
		got, gerr := answer(d.cl, o)
		if err == nil {
			err = gerr
		}
		res.check("head "+string(o.body), got, want, err)
		headAnswers = append(headAnswers, got)
	}
	for i := 0; i < asOfChecks; i++ {
		n := 1 + cr.Intn(len(sent))
		o := readOp(cr, labels, sent[:n], "all", n)
		want, err := prefixOracle(g, batches, sent[:n], o)
		got, gerr := answer(d.cl, o)
		if err == nil {
			err = gerr
		}
		res.check(fmt.Sprintf("as of %d %s", n, o.body), got, want, err)
	}
	recoveryS, recoveryMs, recovered, err := recoverCopy(res, d, filepath.Join(root, "copy"), g.Attrs(), heads, headAnswers)
	if err != nil {
		return err
	}
	if recovered {
		res.e2e("recovery_s", "s", recoveryS)
	} else {
		why := "the copied data directory could not be recovered"
		res.omitted["recovery_s"], res.omitted["storage.recovery_ms"] = why, why
	}

	if cfg.trace {
		w.front = "server.handler"
		w.observe(tr, tg, isRead)
		w.ingests = len(wrec.samples)
		replay := append([]sample(nil), wrec.samples...)
		for _, s := range rrec.samples {
			if s.traced {
				replay = append(replay, s)
			}
		}
		if err := ingestTwin(tr, filepath.Join(root, "twin"), g.Attrs(), items, replay, reads); err != nil {
			return err
		}
		layerMetrics(res, tr.spans(), w)
		res.layer("storage.checkpoint_ms", d.eng.Stats().LastCheckpointMs)
		if recovered {
			res.layer("storage.recovery_ms", recoveryMs)
		}
	}
	return nil
}

// answer sends o and returns its normalized payload.
func answer(cl *client, o op) ([]byte, error) {
	r, err := cl.post(o.path, o.body, 0)
	if err != nil {
		return nil, err
	}
	return normalize(r.body)
}

// prefixOracle answers o (without its AS OF pin) on a graph rebuilt from
// scratch by appending the given days' batches in valid-time order.
func prefixOracle(g *core.Graph, batches []server.IngestRequest, days []int, o op) ([]byte, error) {
	sorted := append([]int(nil), days...)
	sort.Ints(sorted)
	s := stream.New(g.Attrs()...)
	for _, d := range sorted {
		if err := s.Append(batches[d].Label, streamSnapshot(batches[d])); err != nil {
			return nil, err
		}
	}
	pg, err := s.Graph()
	if err != nil {
		return nil, err
	}
	return oracle(pg, o)
}

// recoverCopy copies the data directory as it stands after the last
// acknowledgement, then times storage.Open on the copy through the first
// answered head query, and checks the copy answers as the original did.
// A copy that cannot be recovered is a failed oracle check.
func recoverCopy(res *result, d *durable, dir string, attrs []core.AttrSpec, heads []op, want [][]byte) (s, ms float64, ok bool, err error) {
	if err := copyStable(d.dir, dir); err != nil {
		return 0, 0, false, err
	}
	start := time.Now()
	rd, err := openDurable(dir, attrs, nil, false)
	if err != nil {
		res.check("recovery of the copied data directory", nil, nil, err)
		return 0, 0, false, nil
	}
	defer rd.close()
	got, err := answer(rd.cl, heads[0])
	elapsed := time.Since(start).Seconds()
	res.check("recovered "+string(heads[0].body), got, want[0], err)
	for i := 1; i < len(heads); i++ {
		got, err := answer(rd.cl, heads[i])
		res.check("recovered "+string(heads[i].body), got, want[i], err)
	}
	return elapsed, float64(rd.eng.Recovery().Elapsed.Microseconds()) / 1000, true, nil
}

// copyStable copies the files of a flat directory that a background
// checkpoint may be rewriting: it retries until the listing (names and
// sizes) is the same before and after a complete copy, so the copy is one
// state the directory was in.
func copyStable(src, dst string) error {
	for attempt := 0; attempt < 100; attempt++ {
		before, err := listing(src)
		if err != nil {
			return err
		}
		if err := os.RemoveAll(dst); err != nil {
			return err
		}
		if err := os.MkdirAll(dst, 0o755); err != nil {
			return err
		}
		vanished := false
		for name := range before {
			if err := copyFile(filepath.Join(src, name), filepath.Join(dst, name)); err != nil {
				if !os.IsNotExist(err) {
					return err
				}
				vanished = true
			}
		}
		after, err := listing(src)
		if err != nil {
			return err
		}
		if !vanished && fmt.Sprint(before) == fmt.Sprint(after) {
			return nil
		}
		time.Sleep(20 * time.Millisecond)
	}
	return fmt.Errorf("data directory %s kept changing while being copied", src)
}

func listing(dir string) (map[string]int64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	out := map[string]int64{}
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			if os.IsNotExist(err) {
				continue
			}
			return nil, err
		}
		if info.Mode().IsRegular() {
			out[e.Name()] = info.Size()
		}
	}
	return out, nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(path string, e fs.DirEntry, err error) error {
		if err != nil || e.IsDir() {
			return err
		}
		info, err := e.Info()
		if err == nil {
			total += info.Size()
		}
		return err
	})
	return total, err
}

// ingestTwin replays the run's writes and the given reads in issue order on a
// twin engine (same options, its own directory), timing storage append,
// stream graph build, catalog advance, history replay and the read path.
func ingestTwin(tr *tracer, dir string, attrs []core.AttrSpec, items []sendItem, samples []sample, reads []op) error {
	eng, err := storage.Open(dir, attrs, storageOptions())
	if err != nil {
		return err
	}
	defer eng.Close()
	sort.Slice(samples, func(i, j int) bool { return samples[i].start < samples[j].start })
	env := plan.Env{Cache: plan.NewCache(0), Feedback: plan.NewFeedback()}
	apply := func(it sendItem, req int64) error {
		var req0 server.IngestRequest
		if err := json.Unmarshal(it.body, &req0); err != nil {
			return err
		}
		snap := streamSnapshot(req0)
		tr.timed("storage.append", "", 0, req, func() { _, err = eng.AppendAt(req0.Label, snap, req0.Before) })
		if err != nil {
			return fmt.Errorf("twin append %s: %w", req0.Label, err)
		}
		var g *core.Graph
		tr.timed("stream.graph", "", 0, req, func() { g, err = eng.Series().Graph() })
		if err != nil {
			return err
		}
		tr.timed("materialize.advance", "", 0, req, func() {
			switch {
			case env.Catalog == nil:
				env.Catalog = materialize.NewCatalogWith(g, materialize.CatalogConfig{})
			default:
				if _, aerr := env.Catalog.Advance(g); aerr != nil {
					if _, rerr := env.Catalog.AdvanceRetro(g); rerr != nil {
						env.Catalog = materialize.NewCatalogWith(g, materialize.CatalogConfig{})
					}
				}
			}
		})
		env.Graph = g
		return nil
	}
	for _, it := range items[:warmDays] {
		if err := apply(it, 0); err != nil {
			return err
		}
	}
	next := warmDays
	deadline := time.Now().Add(twinBudget)
	for _, s := range samples {
		if !s.ok {
			continue
		}
		if s.op == opIngest {
			if err := apply(items[next], s.req); err != nil {
				return err
			}
			next++
			continue
		}
		if time.Now().After(deadline) {
			continue
		}
		o := reads[s.op-opIngest-1]
		var asOf server.AggregateRequest
		if err := json.Unmarshal(o.body, &asOf); err != nil {
			return err
		}
		renv := env
		if asOf.AsOf > 0 {
			var g *core.Graph
			tr.timed("stream.replay", "", 0, s.req, func() { g, _, err = eng.ReplayTo(asOf.AsOf) })
			if err != nil {
				return fmt.Errorf("twin replay to %d: %w", asOf.AsOf, err)
			}
			renv = plan.Env{Graph: g}
		}
		if err := twinRequest(tr, renv, o, s.req, true); err != nil {
			return err
		}
	}
	return nil
}
