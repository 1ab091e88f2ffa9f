package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/core"
	"repro/internal/dict"
	"repro/internal/plan"
	"repro/internal/server"
	"repro/internal/stream"
	"repro/internal/tgql"
	"repro/internal/timeline"
)

// op is one generated request: what the program under test receives, and
// what the benchmark needs to replay it in-process (twin) and to compute
// its expected answer (oracle).
type op struct {
	path   string // endpoint path
	body   []byte // request body
	family string // execute-time family, see execFamilies
	mix    string // engine-mix family the op was drawn from ("" elsewhere)
	// Exactly one of node (dedicated JSON endpoint) and query (/v1/tgql)
	// is set.
	node  plan.Logical
	query string
	// resp builds the endpoint's response shape from a plan result, the way
	// the handler does, for encoding in the twin and the oracle.
	resp func(*plan.Result) (any, error)
}

// execFamilies are the operator families plan.execute time is split by.
var execFamilies = []string{"agg_catalog", "agg_scratch", "explore", "events", "paths", "trend"}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // request structs always marshal
	}
	return b
}

func aggResp(res *plan.Result) (any, error) {
	raw, err := json.Marshal(res.Agg)
	return server.AggregateResponse{Source: res.AggSource.String(), Graph: raw}, err
}

func exploreResp(res *plan.Result) (any, error) {
	resp := server.ExploreResponse{K: res.K, Pairs: make([]server.ExplorePair, len(res.Pairs)), Evaluations: res.Evaluations}
	for i, p := range res.Pairs {
		resp.Pairs[i] = server.ExplorePair{Old: p.Old.String(), New: p.New.String(), Result: p.Result}
	}
	return resp, nil
}

// tgqlPayload is the twin's encode step for a /v1/tgql op: the structured
// payload the handler marshals next to the rendered text.
func tgqlPayload(res *plan.Result) (any, error) {
	switch {
	case res.Agg != nil:
		return res.Agg, nil
	case res.Events != nil:
		return res.Events, nil
	case res.Paths != nil:
		return res.Paths, nil
	case res.Trend != nil:
		return res.Trend, nil
	}
	return exploreResp(res)
}

// aggregateOp builds a dedicated-endpoint aggregate. Like every documented
// client it leaves workers unset, so the server's default (GOMAXPROCS) and
// its serial/parallel crossover apply.
func aggregateOp(family string, req server.AggregateRequest) op {
	return op{
		path:   "/v1/aggregate",
		body:   mustJSON(req),
		family: family,
		node: &plan.Aggregate{
			Op:    plan.TemporalOp{Op: req.Op, A: ref(req.Interval), B: ref(req.Interval2)},
			Attrs: req.Attrs,
			Kind:  req.Kind,
		},
		resp: aggResp,
	}
}

func ref(sp server.IntervalSpec) plan.IntervalRef {
	return plan.IntervalRef{From: sp.From, To: sp.To, Points: sp.Points}
}

func tgqlOp(family, query string) op {
	return op{path: "/v1/tgql", body: mustJSON(server.TGQLRequest{Query: query}), family: family,
		query: query, resp: tgqlPayload}
}

func labelRange(labels []string, lo, hi int) server.IntervalSpec {
	return server.IntervalSpec{From: labels[lo], To: labels[hi]}
}

// randRange draws a contiguous [lo, hi] within [from, to].
func randRange(r *rand.Rand, from, to int) (int, int) {
	a, b := from+r.Intn(to-from+1), from+r.Intn(to-from+1)
	if a > b {
		a, b = b, a
	}
	return a, b
}

var dblpAttrSets = [][]string{{"gender"}, {"publications"}, {"gender", "publications"}}

// hotAggOps draws n distinct union-ALL and project-ALL requests. A
// request's class (operator, attribute set) and its interval lengths are
// functions of its rank, so every seed puts the same probability mass on
// each class and response size; only interval positions are drawn.
// boundary > 0 restricts to union-ALL requests whose point set spans both
// sides of the split at label index boundary.
func hotAggOps(g *core.Graph, r *rand.Rand, n, boundary int) []op {
	labels := g.Timeline().Labels()
	points := len(labels)
	maxLen := points / 2
	at := func(length int) (server.IntervalSpec, int, int) {
		lo := r.Intn(points - length + 1)
		return labelRange(labels, lo, lo+length-1), lo, lo + length - 1
	}
	seen := map[string]bool{}
	var out []op
	for len(out) < n {
		i := len(out)
		// A quarter gender, half publications, a quarter both: the median
		// falls inside the publications class, away from class edges.
		attrs := dblpAttrSets[[]int{0, 1, 2, 1}[i%4]]
		union := boundary > 0 || i%16 != 15
		if !union {
			attrs = dblpAttrSets[(i/16)%3]
		}
		var o op
		if union {
			a, a0, a1 := at(1 + (i*7)%maxLen)
			b, b0, b1 := at(1 + (i*3)%maxLen)
			if boundary > 0 && (min(a0, b0) >= boundary || max(a1, b1) < boundary) {
				continue
			}
			o = aggregateOp("agg_catalog", server.AggregateRequest{Op: plan.OpUnion, Interval: a,
				Interval2: b, Attrs: attrs, Kind: "all"})
		} else {
			a, _, _ := at(1 + (i*5)%maxLen)
			o = aggregateOp("agg_scratch", server.AggregateRequest{Op: plan.OpProject,
				Interval: a, Attrs: attrs, Kind: "all"})
		}
		if k := string(o.body); !seen[k] {
			seen[k] = true
			out = append(out, o)
		}
	}
	return out
}

// zipfStream returns a per-client generator of op ranks drawn from a
// Zipf(-Mandelbrot) distribution over n ops, P(k) ∝ (zipfV+k)^-zipfS
// (rank 0 most popular).
func zipfStream(seed int64, n int) func(c int) int {
	var gens []*rand.Zipf
	for c := 0; c < maxClients; c++ {
		gens = append(gens, rand.NewZipf(rand.New(rand.NewSource(seed*7919+int64(c))), zipfS, zipfV, uint64(n-1)))
	}
	return func(c int) int { return int(gens[c].Uint64()) }
}

// mixFamily is one engine-mix family with its share of the request stream.
type mixFamily struct {
	name   string
	weight float64
	gen    func(r *rand.Rand, g *core.Graph, tgqlSide bool) op
}

var tgqlOpNames = map[string]string{plan.OpUnion: "UNION", plan.OpIntersection: "INTERSECT", plan.OpDifference: "DIFF"}

func ivText(labels []string, lo, hi int) string {
	if lo == hi {
		return labels[lo]
	}
	return labels[lo] + ".." + labels[hi]
}

// engineMix lists the engine-mix families. Weights are request shares,
// chosen from measured execute times so that no family takes less than
// 10% or more than 40% of the mix's total execute time.
var engineMix = []mixFamily{
	{"dist_setops", 25, func(r *rand.Rand, g *core.Graph, tq bool) op {
		labels := g.Timeline().Labels()
		last := len(labels) - 1
		opName := []string{plan.OpUnion, plan.OpIntersection, plan.OpDifference}[r.Intn(3)]
		attrs := dblpAttrSets[r.Intn(3)]
		a0, a1 := randRange(r, 0, last)
		b0, b1 := randRange(r, 0, last)
		if tq {
			return tgqlOp("agg_scratch", fmt.Sprintf("AGG DIST %s ON %s(%s, %s)", strings.Join(attrs, ", "),
				tgqlOpNames[opName], ivText(labels, a0, a1), ivText(labels, b0, b1)))
		}
		return aggregateOp("agg_scratch", server.AggregateRequest{Op: opName, Interval: labelRange(labels, a0, a1),
			Interval2: labelRange(labels, b0, b1), Attrs: attrs, Kind: "dist"})
	}},
	// The aggregate endpoint has no WHERE field, so filtered aggregates
	// only exist as TGQL.
	{"filtered_all", 10, func(r *rand.Rand, g *core.Graph, _ bool) op {
		labels := g.Timeline().Labels()
		last := len(labels) - 1
		a0, a1 := randRange(r, 0, last)
		b0, b1 := randRange(r, 0, last)
		attrs := dblpAttrSets[r.Intn(2)*2] // gender or gender+publications
		return tgqlOp("agg_scratch", fmt.Sprintf("AGG ALL %s ON UNION(%s, %s) WHERE publications %s %d",
			strings.Join(attrs, ", "), ivText(labels, a0, a1), ivText(labels, b0, b1),
			[]string{">", ">=", "<"}[r.Intn(3)], 1+r.Intn(12)))
	}},
	{"explore", 20, func(r *rand.Rand, g *core.Graph, tq bool) op {
		event := []string{"stability", "growth", "shrinkage"}[r.Intn(3)]
		sem := []string{"union", "intersection"}[r.Intn(2)]
		ext := []string{"old", "new"}[r.Intn(2)]
		k := int64(exploreKMin + r.Intn(exploreKSpan))
		if tq {
			return tgqlOp("explore", fmt.Sprintf("EXPLORE %s BY gender SEMANTICS %s EXTEND %s K %d",
				strings.ToUpper(event), strings.ToUpper(sem), strings.ToUpper(ext), k))
		}
		req := server.ExploreRequest{Event: event, Semantics: sem, Extend: ext, K: k, Attrs: []string{"gender"}}
		return op{path: "/v1/explore", body: mustJSON(req), family: "explore", resp: exploreResp,
			node: &plan.Explore{Event: event, Attrs: req.Attrs, Semantics: sem, Extend: ext, K: k}}
	}},
	{"events", 7, func(r *rand.Rand, g *core.Graph, tq bool) op {
		attrs := dblpAttrSets[r.Intn(3)]
		kind := []string{"dist", "all"}[r.Intn(2)]
		width, minimum := 1+r.Intn(6), int64(r.Intn(60))
		if tq {
			return tgqlOp("events", fmt.Sprintf("EVENTS %s BY %s WIDTH %d MIN %d", strings.ToUpper(kind),
				strings.Join(attrs, ", "), width, minimum))
		}
		req := server.EventsRequest{Attrs: attrs, Kind: kind, Width: width, Min: minimum}
		return op{path: "/v1/events", body: mustJSON(req), family: "events",
			node: &plan.Events{Kind: kind, Attrs: attrs, Width: width, Min: minimum},
			resp: func(res *plan.Result) (any, error) { return server.EventsResponse{Events: res.Events}, nil }}
	}},
	{"paths", 18, func(r *rand.Rand, g *core.Graph, tq bool) op {
		labels := g.Timeline().Labels()
		lo := r.Intn(len(labels) - 3)
		hi := lo + 1 + r.Intn(3)
		node := func() string { return g.NodeLabel(core.NodeID(r.Intn(g.NumNodes()))) }
		mode := []string{"earliest", "fastest"}[r.Intn(2)]
		from := []string{node(), node()}
		to := []string{node(), node(), node()}
		if tq {
			return tgqlOp("paths", fmt.Sprintf("PATHS %s FROM %s TO %s DURING %s", strings.ToUpper(mode),
				strings.Join(from, ", "), strings.Join(to, ", "), ivText(labels, lo, hi)))
		}
		during := labelRange(labels, lo, hi)
		req := server.PathsRequest{Mode: mode, From: from, To: to, During: during}
		return op{path: "/v1/paths", body: mustJSON(req), family: "paths",
			node: &plan.Paths{Mode: mode, From: from, To: to, During: ref(during)},
			resp: func(res *plan.Result) (any, error) { return server.PathsResponse{Paths: res.Paths}, nil }}
	}},
	// TREND DIST never composes from the catalog (only unfiltered ALL
	// does); the TGQL half adds a WHERE clause, which also forces a scan.
	{"trend", 20, func(r *rand.Rand, g *core.Graph, tq bool) op {
		attrs := dblpAttrSets[r.Intn(3)]
		width := 1 + r.Intn(10)
		if tq {
			return tgqlOp("trend", fmt.Sprintf("TREND %s BY %s WIDTH %d WHERE publications > %d",
				[]string{"DIST", "ALL"}[r.Intn(2)], strings.Join(attrs, ", "), width, r.Intn(8)))
		}
		req := server.TrendRequest{Attrs: attrs, Kind: "dist", Width: width}
		return op{path: "/v1/trend", body: mustJSON(req), family: "trend",
			node: &plan.Trend{Kind: "dist", Attrs: attrs, Width: width},
			resp: func(res *plan.Result) (any, error) { return server.TrendResponse{Trend: res.Trend}, nil }}
	}},
}

// engineMixOps draws perFamily requests for every family, alternating the
// dedicated endpoint and /v1/tgql.
func engineMixOps(g *core.Graph, r *rand.Rand, perFamily int) []op {
	var out []op
	for _, f := range engineMix {
		for i := 0; i < perFamily; i++ {
			o := f.gen(r, g, i%2 == 1)
			o.mix = f.name
			out = append(out, o)
		}
	}
	return out
}

// mixStream returns a per-client generator drawing a family by weight and
// then a uniform op of that family (ops are laid out family by family).
func mixStream(seed int64, perFamily int) func(c int) int {
	var total float64
	for _, f := range engineMix {
		total += f.weight
	}
	var rs []*rand.Rand
	for c := 0; c < maxClients; c++ {
		rs = append(rs, rand.New(rand.NewSource(seed*104729+int64(c))))
	}
	return func(c int) int {
		r := rs[c]
		x := r.Float64() * total
		fi := 0
		for ; fi < len(engineMix)-1; fi++ {
			if x < engineMix[fi].weight {
				break
			}
			x -= engineMix[fi].weight
		}
		return fi*perFamily + r.Intn(perFamily)
	}
}

// snapshots decomposes a generated graph into its per-point ingest
// batches, in timeline order.
func snapshots(g *core.Graph) []server.IngestRequest {
	attrs := g.Attrs()
	tl := g.Timeline()
	out := make([]server.IngestRequest, tl.Len())
	for tp := range out {
		req := server.IngestRequest{Label: tl.Label(timeline.Time(tp))}
		for n := 0; n < g.NumNodes(); n++ {
			if !g.NodeTau(core.NodeID(n)).Contains(tp) {
				continue
			}
			node := server.IngestNode{Label: g.NodeLabel(core.NodeID(n))}
			for ai, spec := range attrs {
				a := core.AttrID(ai)
				var c dict.Code
				if spec.Kind == core.Static {
					c = g.StaticValue(a, core.NodeID(n))
				} else {
					c = g.VaryingValue(a, core.NodeID(n), timeline.Time(tp))
				}
				if c == dict.None {
					continue
				}
				m := &node.Varying
				if spec.Kind == core.Static {
					m = &node.Static
				}
				if *m == nil {
					*m = map[string]string{}
				}
				(*m)[spec.Name] = g.Dict(a).Value(c)
			}
			req.Nodes = append(req.Nodes, node)
		}
		for e := 0; e < g.NumEdges(); e++ {
			if !g.EdgeTau(core.EdgeID(e)).Contains(tp) {
				continue
			}
			ep := g.Edge(core.EdgeID(e))
			req.Edges = append(req.Edges, server.IngestEdge{U: g.NodeLabel(ep.U), V: g.NodeLabel(ep.V)})
		}
		out[tp] = req
	}
	return out
}

// streamSnapshot converts a wire batch into the stream layer's record.
func streamSnapshot(req server.IngestRequest) stream.Snapshot {
	snap := stream.Snapshot{Nodes: make([]stream.NodeRecord, len(req.Nodes)), Edges: make([]stream.EdgeRecord, len(req.Edges))}
	for i, n := range req.Nodes {
		snap.Nodes[i] = stream.NodeRecord{Label: n.Label, Static: n.Static, Varying: n.Varying}
	}
	for i, e := range req.Edges {
		snap.Edges[i] = stream.EdgeRecord{U: e.U, V: e.V}
	}
	return snap
}

// normalize reduces a response body to the payload the oracle compares:
// top-level keys sorted, elapsed_ms and source dropped.
func normalize(body []byte) ([]byte, error) {
	var m map[string]json.RawMessage
	if err := json.Unmarshal(body, &m); err != nil {
		return nil, err
	}
	delete(m, "elapsed_ms")
	delete(m, "source")
	return json.Marshal(m)
}

// oracle computes an op's expected normalized answer in-process, with no
// catalog, plan cache or feedback.
func oracle(g *core.Graph, o op) ([]byte, error) {
	var resp any
	if o.query != "" {
		res, err := tgql.ExecEnv(context.Background(), plan.Env{Graph: g, Workers: 1}, o.query)
		if err != nil {
			return nil, err
		}
		tr := server.TGQLResponse{Text: res.String()}
		if res.Agg != nil {
			if tr.Graph, err = json.Marshal(res.Agg); err != nil {
				return nil, err
			}
		}
		if res.Pairs != nil {
			tr.K = res.K
			tr.Pairs = make([]server.ExplorePair, len(res.Pairs))
			for i, p := range res.Pairs {
				tr.Pairs[i] = server.ExplorePair{Old: p.Old.String(), New: p.New.String(), Result: p.Result}
			}
		}
		resp = tr
	} else {
		p, err := plan.Compile(plan.Env{Graph: g, Workers: 1}, o.node)
		if err != nil {
			return nil, err
		}
		res, err := p.Execute(context.Background())
		if err != nil {
			return nil, err
		}
		if resp, err = o.resp(res); err != nil {
			return nil, err
		}
	}
	b, err := json.Marshal(resp)
	if err != nil {
		return nil, err
	}
	return normalize(b)
}
