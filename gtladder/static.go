package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/materialize"
	"repro/internal/plan"
	"repro/internal/server"
	"repro/internal/tgql"
)

const (
	// hotAggDistinct fits both the 256-entry plan cache and the catalog's
	// 64 MiB result cache.
	hotAggDistinct = 128
	// mixPerFamily makes the engine-mix pool (6 families) more than ten
	// times the plan cache, so plans and catalog results mostly miss.
	mixPerFamily = 512
	// twinBudget bounds how long the traced twin replays requests.
	twinBudget = 4 * time.Second
)

// staticSpec is a workload served by one static-mode server.
type staticSpec struct {
	g     *core.Graph
	ops   []op
	next  func(c int) int
	warm  []int // ops sent during set-up
	check []int // ops compared with the oracle
	// matAttrs are the attribute sets the twin materializes before replay,
	// timed as the catalog's set-up work.
	matAttrs [][]string
	// graphMB is the live heap the generated graph takes. The server
	// serves that graph, so it counts as the program's heap, not as the
	// benchmark's.
	graphMB float64
}

func indices(lo, hi int) []int {
	var out []int
	for i := lo; i < hi; i++ {
		out = append(out, i)
	}
	return out
}

// runHotAgg: static DBLP at scale 1.0, Zipf-popular catalog-hit requests.
func runHotAgg(cfg config, res *result, tr *tracer) error {
	h0 := liveMB()
	g := dataset.DBLPScaled(cfg.seed, 1.0)
	graphMB := liveMB() - h0
	ops := hotAggOps(g, rand.New(rand.NewSource(cfg.seed)), hotAggDistinct, 0)
	all := indices(0, len(ops))
	res.meta["sizes"] = map[string]any{"dataset": "DBLPScaled(seed, 1.0)", "nodes": g.NumNodes(),
		"edges": g.NumEdges(), "points": g.Timeline().Len(), "distinct_requests": len(ops), "zipf_s": zipfS}
	return runStatic(cfg, res, tr, staticSpec{g: g, ops: ops, next: zipfStream(cfg.seed, len(ops)),
		warm: all, check: all, matAttrs: dblpAttrSets, graphMB: graphMB})
}

// runEngineMix: static DBLP at scale 0.5, a seeded mix of engine-bound
// requests far larger than the caches.
func runEngineMix(cfg config, res *result, tr *tracer) error {
	h0 := liveMB()
	g := dataset.DBLPScaled(cfg.seed, 0.5)
	graphMB := liveMB() - h0
	r := rand.New(rand.NewSource(cfg.seed))
	ops := engineMixOps(g, r, mixPerFamily)
	pool := len(ops)
	var check []int
	for f := range engineMix {
		for i := 0; i < 8; i++ {
			check = append(check, f*mixPerFamily+r.Intn(mixPerFamily))
		}
	}
	// Warm-up requests, two per family, are drawn by a fixed generator
	// seed over this seed's graph: their shapes (intervals, K, widths) are
	// the same on every seed, so set-up time does not depend on which
	// requests a seed happened to draw first.
	ops = append(ops, engineMixOps(g, rand.New(rand.NewSource(0)), 2)...)
	warm := indices(pool, len(ops))
	weights := map[string]float64{}
	for _, f := range engineMix {
		weights[f.name] = f.weight
	}
	res.meta["sizes"] = map[string]any{"dataset": "DBLPScaled(seed, 0.5)", "nodes": g.NumNodes(),
		"edges": g.NumEdges(), "points": g.Timeline().Len(), "distinct_requests": pool,
		"family_weights": weights, "oracle_sample": len(check)}
	return runStatic(cfg, res, tr, staticSpec{g: g, ops: ops, next: mixStream(cfg.seed, mixPerFamily),
		warm: warm, check: check, graphMB: graphMB})
}

func runStatic(cfg config, res *result, tr *tracer, sp staticSpec) error {
	recs := newRecorders(cfg, maxClients)
	res.ownMB(liveMB() - sp.graphMB)
	var setups []float64
	var ep *endpoint
	var cl *client
	for i := 0; i < setupRepeats; i++ {
		if ep != nil {
			cl.closeIdle()
			ep.close()
		}
		runtime.GC() // the previous set-up's garbage is not this one's
		start := time.Now()
		srv, err := server.New(server.Config{Graph: sp.g, Logger: quiet})
		if err != nil {
			return err
		}
		var h http.Handler = srv.Handler()
		if cfg.trace {
			h = tr.traceHandler("server.handler", h)
		}
		if ep, err = serve(h); err != nil {
			return err
		}
		cl = newClient(ep.URL, maxClients)
		for _, j := range sp.warm {
			if _, err := cl.post(sp.ops[j].path, sp.ops[j].body, 0); err != nil {
				return fmt.Errorf("warm-up: %w", err)
			}
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer ep.close()
	res.e2e("setup_s", "s", median(setups))
	res.samples["setup_s"] = len(setups)

	send := func(i int, req int64) (int, error) {
		r, err := cl.post(sp.ops[i].path, sp.ops[i].body, req)
		return len(r.body), err
	}
	w, err := measure(cfg, res, tr, []*client{cl}, recs, sp.next, send, nil)
	if err != nil {
		return err
	}
	w.front = "server.handler"
	for _, s := range w.samples {
		if sp.ops[s.op].family == "explore" {
			w.explores++
		}
	}

	checkOps(res, sp.g, sp.ops, sp.check, func(o op) (reply, error) { return cl.post(o.path, o.body, 0) })

	if cfg.trace {
		if err := staticTwin(tr, sp, w.samples); err != nil {
			return err
		}
		layerMetrics(res, tr.spans(), w)
	}
	return nil
}

// measure runs the timed window, one closed-loop client per recorder.
// Untraced, it only samples. Traced,
// tracing alternates on and off every traceSlice, so traced and untraced
// requests see the same phase of the run (trace.overhead_frac compares
// their rates), and the returned window carries the counters of programs
// — the servers whose /metrics are taken as deltas over the window; the
// first also supplies the process-wide counters. isRead picks the samples
// whose latency is reported (nil: all).
func measure(cfg config, res *result, tr *tracer, programs []*client, recs []*recorder,
	next func(int) int, send func(int, int64) (int, error), isRead func(sample) bool) (window, error) {
	runtime.GC() // garbage from set-up is not the window's
	var w window
	var before []counters
	var tg *toggler
	if cfg.trace {
		var err error
		if before, err = scrapeAll(programs); err != nil {
			return w, err
		}
		w.proc0 = readProc()
		tg = startToggle(tr)
	}
	heap := sampleHeap()
	w.samples = closedLoop(tr, recs, cfg.window(), next, send)
	res.e2e("heap_live_mb", "MB", heap.end(res.own))
	if tg != nil {
		tg.end()
		w.proc1 = readProc()
	}
	tally(res, recs)
	summarize(res, w.samples, cfg.window(), isRead)
	if !cfg.trace {
		return w, nil
	}
	after, err := scrapeAll(programs)
	if err != nil {
		return w, err
	}
	w.global = after[0].since(before[0])
	w.server = counters{}
	for i := range after {
		w.server.add(after[i].since(before[i]))
	}
	w.observe(tr, tg, isRead)
	return w, nil
}

func scrapeAll(programs []*client) ([]counters, error) {
	var out []counters
	for _, c := range programs {
		m, err := scrape(c)
		if err != nil {
			return nil, err
		}
		out = append(out, m)
	}
	return out, nil
}

// checkOps compares the answers to ops[idx...], sent through post, with
// the oracle's, and records how long the gate took.
func checkOps(res *result, g *core.Graph, ops []op, idx []int, post func(op) (reply, error)) {
	start := time.Now()
	for _, i := range idx {
		o := ops[i]
		want, err := oracle(g, o)
		if err != nil {
			res.check(string(o.body), nil, nil, err)
			continue
		}
		r, err := post(o)
		if err != nil {
			res.check(string(o.body), nil, nil, err)
			continue
		}
		got, err := normalize(r.body)
		res.check(string(o.body), got, want, err)
	}
	res.meta["oracle_s"] = time.Since(start).Seconds()
}

// twinEnv is the in-process replica of a static server's query path, built
// from the same public constructors the server uses.
func twinEnv(g *core.Graph) plan.Env {
	return plan.Env{Graph: g, Catalog: materialize.NewCatalogWith(g, materialize.CatalogConfig{}),
		Cache: plan.NewCache(0), Feedback: plan.NewFeedback()}
}

// materializeTwin times the catalog's per-point store builds.
func materializeTwin(tr *tracer, env plan.Env, sets [][]string) error {
	for _, names := range sets {
		var ids []core.AttrID
		for _, n := range names {
			id, ok := env.Graph.AttrByName(n)
			if !ok {
				return fmt.Errorf("twin: unknown attribute %q", n)
			}
			ids = append(ids, id)
		}
		var err error
		tr.timed("materialize.materialize", "", 0, 0, func() { _, err = env.Catalog.Materialize(ids...) })
		if err != nil {
			return err
		}
	}
	return nil
}

// staticTwin replays the warm-up untimed and then the traced requests in
// their issue order, timing compile, execute and encode.
func staticTwin(tr *tracer, sp staticSpec, samples []sample) error {
	env := twinEnv(sp.g)
	if err := materializeTwin(tr, env, sp.matAttrs); err != nil {
		return err
	}
	for _, i := range sp.warm {
		if err := twinRequest(tr, env, sp.ops[i], 0, false); err != nil {
			return err
		}
	}
	deadline := time.Now().Add(twinBudget)
	for _, s := range samples {
		if !s.traced || !s.ok || time.Now().After(deadline) {
			continue
		}
		if err := twinRequest(tr, env, sp.ops[s.op], s.req, true); err != nil {
			return err
		}
	}
	return nil
}

// twinRequest runs one op the way its handler does, recording a
// twin.request span with the front-end (tgql.plan or plan.compile),
// plan.execute and server.encode children when timed.
func twinRequest(tr *tracer, env plan.Env, o op, req int64, timed bool) error {
	var (
		p   *plan.Plan
		res *plan.Result
		err error
	)
	root := tr.newID()
	start := tr.now()
	step := func(name, kind string, fn func()) {
		if timed {
			tr.timed(name, kind, root, req, fn)
		} else {
			fn()
		}
	}
	if o.query != "" {
		env.Workers = 1 // the TGQL handler plans with one worker
		step("tgql.plan", "", func() { p, err = tgql.PlanEnv(env, o.query) })
	} else {
		env.Workers = 0 // no request sets workers: the server default
		step("plan.compile", "", func() { p, err = plan.Compile(env, o.node) })
	}
	if err != nil {
		return fmt.Errorf("twin compile %s: %w", o.body, err)
	}
	step("plan.execute", o.family, func() { res, err = p.Execute(context.Background()) })
	if err != nil {
		return fmt.Errorf("twin execute %s: %w", o.body, err)
	}
	step("server.encode", "", func() {
		var v any
		if v, err = o.resp(res); err == nil {
			_, err = json.Marshal(v)
		}
	})
	if err != nil {
		return err
	}
	if timed {
		tr.add(span{ID: root, Req: req, Name: "twin.request", Kind: o.mix, Start: start, End: tr.now()})
	}
	return nil
}
