package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"runtime"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/plan"
	"repro/internal/server"
	"repro/internal/stream"
)

// shardRange is one time-range shard: global point indices [lo, hi).
type shardRange struct{ lo, hi int }

// twoShard is one set-up of the scatter-2 program: two stream-mode shard
// daemons and the router (with its embedded mirror) in front.
type twoShard struct {
	shards []*endpoint
	router *cluster.Router
	ep     *endpoint
	cl     *client
	shardC []*client // /metrics of each shard
}

func (t *twoShard) close() {
	t.cl.closeIdle()
	t.ep.close()
	t.router.Close()
	for i, ep := range t.shards {
		t.shardC[i].closeIdle()
		ep.close()
	}
}

// bootTwoShard loads each shard's batches, starts the shard daemons and
// the router, and waits until the mirror holds every point. It returns
// the router boot time (cluster.New through mirror catch-up).
func bootTwoShard(batches []server.IngestRequest, attrs []core.AttrSpec, ranges []shardRange, tr *tracer, traced bool) (*twoShard, time.Duration, error) {
	t := &twoShard{}
	spec := ""
	for i, r := range ranges {
		series := stream.New(attrs...)
		for _, b := range batches[r.lo:r.hi] {
			if err := series.Append(b.Label, streamSnapshot(b)); err != nil {
				return nil, 0, err
			}
		}
		name := fmt.Sprintf("s%d", i)
		srv, err := server.New(server.Config{Series: series, Logger: quiet, ShardName: name,
			Role: server.RolePrimary, Partial: true})
		if err != nil {
			return nil, 0, err
		}
		var h http.Handler = srv.Handler()
		if traced {
			h = tr.traceHandler("cluster.shard_partial", h)
		}
		ep, err := serve(h)
		if err != nil {
			return nil, 0, err
		}
		t.shards = append(t.shards, ep)
		t.shardC = append(t.shardC, newClient(ep.URL, 1))
		if i > 0 {
			spec += ";"
		}
		spec += name + "=" + ep.URL
	}
	m, err := cluster.ParseShardMap(spec)
	if err != nil {
		return nil, 0, err
	}
	boot := time.Now()
	var rtp http.RoundTripper = http.DefaultTransport.(*http.Transport).Clone()
	if traced {
		rtp = &traceTransport{t: tr, name: "cluster.shard_rpc", next: rtp}
	}
	if t.router, err = cluster.New(cluster.Config{Map: m, Logger: quiet, Client: &http.Client{Transport: rtp}}); err != nil {
		return nil, 0, err
	}
	var h http.Handler = t.router.Handler()
	if traced {
		h = tr.traceHandler("cluster.router", h)
	}
	if t.ep, err = serve(h); err != nil {
		return nil, 0, err
	}
	t.cl = newClient(t.ep.URL, maxClients)
	if err := t.cl.waitReady(len(batches), time.Minute); err != nil {
		return nil, 0, err
	}
	return t, time.Since(boot), nil
}

// runScatter: DBLP at scale 0.5 split at the midpoint into two time-range
// shards behind the router; boundary-spanning union-ALL requests.
func runScatter(cfg config, res *result, tr *tracer) error {
	g := dataset.DBLPScaled(cfg.seed, 0.5)
	batches := snapshots(g)
	mid := len(batches) / 2
	ranges := []shardRange{{0, mid}, {mid, len(batches)}}
	ops := hotAggOps(g, rand.New(rand.NewSource(cfg.seed)), hotAggDistinct, mid)
	res.meta["sizes"] = map[string]any{"dataset": "DBLPScaled(seed, 0.5)", "nodes": g.NumNodes(), "edges": g.NumEdges(),
		"points": len(batches), "shards": len(ranges), "split_at": batches[mid].Label, "distinct_requests": len(ops), "zipf_s": zipfS}

	// The shards and the mirror build their own graphs from the batches,
	// so every input here is the benchmark's.
	recs := newRecorders(cfg, maxClients)
	res.ownMB(liveMB())
	var setups []float64
	var cur *twoShard
	var boot time.Duration
	for i := 0; i < setupRepeats; i++ {
		if cur != nil {
			cur.close()
		}
		runtime.GC() // the previous set-up's garbage is not this one's
		start := time.Now()
		var err error
		if cur, boot, err = bootTwoShard(batches, g.Attrs(), ranges, tr, cfg.trace); err != nil {
			return err
		}
		for _, o := range ops {
			if _, err := scatterPost(cur.cl, o, 0); err != nil {
				return fmt.Errorf("warm-up: %w", err)
			}
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer cur.close()
	res.e2e("setup_s", "s", median(setups))
	res.samples["setup_s"] = len(setups)

	accepts := func() int64 { return cur.shards[0].ln.accepts.Load() + cur.shards[1].ln.accepts.Load() }
	acc0 := accepts()
	send := func(i int, req int64) (int, error) {
		r, err := scatterPost(cur.cl, ops[i], req)
		return len(r.body), err
	}
	w, err := measure(cfg, res, tr, append([]*client{cur.cl}, cur.shardC...), recs, zipfStream(cfg.seed, len(ops)), send, nil)
	if err != nil {
		return err
	}
	conns := float64(accepts()-acc0) / float64(max(res.attempted, 1))

	checkOps(res, g, ops, indices(0, len(ops)), func(o op) (reply, error) { return scatterPost(cur.cl, o, 0) })

	if cfg.trace {
		w.front = "cluster.router"
		if err := scatterTwin(tr, g.Attrs(), batches, ranges, ops, w.samples); err != nil {
			return err
		}
		layerMetrics(res, tr.spans(), w)
		res.layer("cluster.shard_conns_per_op", conns)
		res.layer("cluster.mirror_boot_ms", float64(boot.Microseconds())/1000)
	}
	return nil
}

// scatterPost sends an aggregate to the router and fails unless the
// router scattered it to the shards.
func scatterPost(cl *client, o op, req int64) (reply, error) {
	r, err := cl.post(o.path, o.body, req)
	if err == nil && r.header.Get("X-Gt-Route") != "scatter" {
		err = fmt.Errorf("routed to %q, want scatter", r.header.Get("X-Gt-Route"))
	}
	return r, err
}

// slices clips a union's two intervals to each shard, as the router does:
// both pieces when both operands reach the shard, else the one piece
// unioned with itself (presence anywhere in it).
func slices(req server.AggregateRequest, labels []string, index map[string]int, ranges []shardRange) []plan.TemporalOp {
	clip := func(sp server.IntervalSpec, r shardRange) (plan.IntervalRef, bool) {
		lo, hi := max(index[sp.From], r.lo), min(index[sp.To], r.hi-1)
		return plan.IntervalRef{From: labels[lo], To: labels[hi]}, lo <= hi
	}
	var out []plan.TemporalOp
	for _, r := range ranges {
		a, okA := clip(req.Interval, r)
		b, okB := clip(req.Interval2, r)
		switch {
		case okA && okB:
			out = append(out, plan.TemporalOp{Op: plan.OpUnion, A: a, B: b})
		case okA:
			out = append(out, plan.TemporalOp{Op: plan.OpUnion, A: a, B: a})
		case okB:
			out = append(out, plan.TemporalOp{Op: plan.OpUnion, A: b, B: b})
		default:
			out = append(out, plan.TemporalOp{})
		}
	}
	return out
}

// scatterTwin replays the traced requests on in-process shard twins:
// each shard's partial aggregate, then the gather-merge and its encoding.
func scatterTwin(tr *tracer, attrs []core.AttrSpec, batches []server.IngestRequest, ranges []shardRange, ops []op, samples []sample) error {
	var envs []plan.Env
	for _, r := range ranges {
		series := stream.New(attrs...)
		for _, b := range batches[r.lo:r.hi] {
			if err := series.Append(b.Label, streamSnapshot(b)); err != nil {
				return err
			}
		}
		g, err := series.Graph()
		if err != nil {
			return err
		}
		env := twinEnv(g)
		if err := materializeTwin(tr, env, dblpAttrSets); err != nil {
			return err
		}
		envs = append(envs, env)
	}
	labels := make([]string, len(batches))
	index := map[string]int{}
	for i, b := range batches {
		labels[i], index[b.Label] = b.Label, i
	}
	deadline := time.Now().Add(twinBudget)
	for _, s := range samples {
		if !s.traced || !s.ok || time.Now().After(deadline) {
			continue
		}
		var req server.AggregateRequest
		if err := json.Unmarshal(ops[s.op].body, &req); err != nil {
			return err
		}
		root := tr.newID()
		start := tr.now()
		var parts []*plan.PartialResult
		for i, top := range slices(req, labels, index, ranges) {
			if top.Op == "" {
				continue
			}
			var res *plan.Result
			var err error
			tr.timed("plan.execute", "agg_catalog", root, s.req, func() {
				var p *plan.Plan
				if p, err = plan.Compile(envs[i], &plan.Partial{Op: top, Attrs: req.Attrs, Kind: req.Kind}); err == nil {
					res, err = p.Execute(context.Background())
				}
			})
			if err != nil {
				return fmt.Errorf("twin partial: %w", err)
			}
			parts = append(parts, res.Partial)
		}
		var merged *plan.MergedGraph
		var err error
		tr.timed("plan.merge", "", root, s.req, func() { merged, err = plan.MergePartials(parts) })
		if err != nil {
			return fmt.Errorf("twin merge: %w", err)
		}
		tr.timed("server.encode", "", root, s.req, func() { _, err = json.Marshal(merged) })
		if err != nil {
			return err
		}
		tr.add(span{ID: root, Req: s.req, Name: "twin.scatter", Start: start, End: tr.now()})
	}
	return nil
}
