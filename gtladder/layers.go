package main

import (
	"bufio"
	"bytes"
	"fmt"
	"net/http"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"time"
)

// metricDef names a metric, its unit and which direction is better. The
// tables below are the benchmark's contract and must match BENCHMARK.json.
type metricDef struct {
	name, unit, better string
}

// e2eTable is the end-to-end metrics every workload reports in its result
// line. Workload-specific ones (ingest visibility, disk use, recovery) and
// the tail percentiles, whose run-to-run spread on a shared 2-vCPU host
// reached the largest bound allowed, are printed in the report above it.
var e2eTable = []metricDef{
	{"setup_s", "s", "lower"},
	{"ops_per_s", "1/s", "higher"},
	{"latency_p50_ms", "ms", "lower"},
	{"heap_live_mb", "MB", "lower"},
}

// selectionOps are the planner operators counted per executed plan.
var selectionOps = []string{
	"catalog-union", "dense-agg", "map-agg", "filtered-agg", "fast-explore", "seed-explore",
	"events-scan", "events-sweep", "paths-frontier", "paths-naive", "trend-catalog", "trend-scan",
	"partial-agg", "gather-merge",
}

var catalogSources = []string{"cached", "t-distributive", "d-distributive", "scratch"}

var kernels = []string{"dense", "static", "varying"}

// layerTable is the per-layer metrics a traced run reports.
var layerTable = func() []metricDef {
	t := []metricDef{
		{"server.transport_ms_p50", "ms", "lower"},
		{"server.handler_self_ms_p50", "ms", "lower"},
		{"server.encode_ms_p50", "ms", "lower"},
		{"server.response_bytes_per_op", "bytes", "lower"},
		{"server.shed_per_op", "ratio", "lower"},
		{"server.allocs_per_op", "count", "lower"},
		{"server.gc_cpu_frac", "ratio", "lower"},
		{"tgql.plan_ms_p50", "ms", "lower"},
		{"plan.compile_ms_p50", "ms", "lower"},
		{"plan.cache_hit_ratio", "ratio", "higher"},
	}
	for _, f := range execFamilies {
		t = append(t, metricDef{"plan.execute_ms_p50." + f, "ms", "lower"})
	}
	for _, op := range selectionOps {
		t = append(t, metricDef{"plan.selections_per_kop." + op, "1/kop", "lower"})
	}
	for _, src := range catalogSources {
		better := "lower"
		if src == "cached" {
			better = "higher"
		}
		t = append(t, metricDef{"materialize.answer_share." + src, "ratio", better})
	}
	t = append(t,
		metricDef{"materialize.materialize_ms", "ms", "lower"},
		metricDef{"materialize.advance_ms_p50", "ms", "lower"},
		metricDef{"materialize.store_rebuilds_per_ingest", "count", "lower"},
		metricDef{"materialize.retro_applies_per_ingest", "count", "lower"},
	)
	for _, k := range kernels {
		t = append(t, metricDef{"agg.kernel_selections_per_op." + k, "count", "lower"})
	}
	return append(t,
		metricDef{"explore.evaluations_per_explore", "count", "lower"},
		metricDef{"stream.graph_ms_p50", "ms", "lower"},
		metricDef{"stream.replay_ms_p90", "ms", "lower"},
		metricDef{"storage.append_ms_p50", "ms", "lower"},
		metricDef{"storage.fsyncs_per_ingest", "count", "lower"},
		metricDef{"storage.coalesced_sync_share", "ratio", "higher"},
		metricDef{"storage.wal_bytes_per_ingest", "bytes", "lower"},
		metricDef{"storage.checkpoint_ms", "ms", "lower"},
		metricDef{"storage.recovery_ms", "ms", "lower"},
		metricDef{"cluster.router_self_ms_p50", "ms", "lower"},
		metricDef{"cluster.shard_partial_ms_p50", "ms", "lower"},
		metricDef{"cluster.merge_ms_p50", "ms", "lower"},
		metricDef{"cluster.partial_bytes_per_op", "bytes", "lower"},
		metricDef{"cluster.shard_conns_per_op", "count", "lower"},
		metricDef{"cluster.mirror_boot_ms", "ms", "lower"},
		metricDef{"trace.overhead_frac", "ratio", "lower"},
	)
}()

func layerUnit(name string) string {
	for _, m := range layerTable {
		if m.name == name {
			return m.unit
		}
	}
	panic("gtladder: unknown per-layer metric " + name)
}

// counters is a parsed Prometheus exposition: series ("name{labels}") to
// value.
type counters map[string]float64

func scrape(c *client) (counters, error) {
	r, err := c.do(http.MethodGet, "/metrics", nil, 0)
	if err != nil {
		return nil, err
	}
	if r.status != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: status %d", r.status)
	}
	out := counters{}
	sc := bufio.NewScanner(bytes.NewReader(r.body))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] += v
		}
	}
	return out, sc.Err()
}

// since returns c − before, series by series: counters over a window.
func (c counters) since(before counters) counters {
	out := counters{}
	for k, v := range c {
		out[k] = v - before[k]
	}
	return out
}

// add sums other into c (per-server counters of several servers).
func (c counters) add(other counters) {
	for k, v := range other {
		c[k] += v
	}
}

// sum totals every series of one metric name.
func (c counters) sum(name string) float64 {
	var t float64
	for k, v := range c {
		if k == name || strings.HasPrefix(k, name+"{") {
			t += v
		}
	}
	return t
}

// get returns one labelled series.
func (c counters) get(name, key, value string) float64 {
	return c[fmt.Sprintf("%s{%s=%q}", name, key, value)]
}

// procStats samples process-wide allocation and CPU counters.
type procStats struct {
	mallocs    uint64
	gcCPU, cpu float64
}

func readProc() procStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	p := procStats{mallocs: ms.Mallocs}
	if s[0].Value.Kind() == metrics.KindFloat64 {
		p.gcCPU = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		p.cpu = s[1].Value.Float64()
	}
	return p
}

// heapSampler samples the live heap as of the most recent GC cycle
// (runtime/metrics /gc/heap/live:bytes, which forces no collection) every
// heapEvery during the timed window. The window's median is steadier than
// one end-of-window sample, which depends on what the caches happened to
// hold at that instant.
type heapSampler struct {
	stop, done chan struct{}
	mb         []float64
}

const heapEvery = 100 * time.Millisecond

func sampleHeap() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		tick := time.NewTicker(heapEvery)
		defer tick.Stop()
		for {
			h.mb = append(h.mb, heapMB())
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// end stops sampling and returns the median live heap in MB less own, the
// benchmark's own live data (see liveMB).
func (h *heapSampler) end(own float64) float64 {
	close(h.stop)
	<-h.done
	return median(h.mb) - own
}

// heapMB is the live heap in MB as of the most recent GC cycle.
func heapMB() float64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return float64(s[0].Value.Uint64()) / (1 << 20)
}

// liveMB collects garbage and returns the live heap in MB. A workload
// takes it once its inputs, request tables and sample buffers exist and
// before it builds the program: that is the benchmark's own live data,
// which heap_live_mb leaves out.
func liveMB() float64 {
	runtime.GC()
	return heapMB()
}

// window is what a workload observed over its timed window, from which
// the per-layer metrics are derived.
type window struct {
	samples  []sample // client operations (reads and writes)
	reads    int      // of which reads (per-op ratios divide by these)
	ingests  int      // of which ingest batches
	explores int      // of which EXPLORE requests
	global   counters // process-wide program counters, over the window
	server   counters // per-server program counters summed over servers, over the window
	proc0    procStats
	proc1    procStats
	// tracedOps and untracedOps are the operation rates while tracing was
	// on and off.
	tracedOps, untracedOps float64
	front                  string // the front handler span name
}

// observe records client spans for the traced samples, counts reads, and
// derives the traced and untraced operation rates.
func (w *window) observe(tr *tracer, tg *toggler, isRead func(sample) bool) {
	var on, off int
	for _, s := range w.samples {
		if s.traced {
			on++
			tr.add(span{ID: s.req, Req: s.req, Name: "client.request", Start: s.start, End: s.end, Bytes: s.bytes})
		} else {
			off++
		}
		if isRead == nil || isRead(s) {
			w.reads++
		}
	}
	if tg.on > 0 && tg.off > 0 {
		w.tracedOps = float64(on) / tg.on.Seconds()
		w.untracedOps = float64(off) / tg.off.Seconds()
	}
}

// traceSlice is how long tracing stays on or off before it flips.
const traceSlice = 200 * time.Millisecond

// toggler flips tracing on and off every traceSlice and accounts the time
// spent in each state.
type toggler struct {
	stop, done chan struct{}
	on, off    time.Duration
}

func startToggle(tr *tracer) *toggler {
	tg := &toggler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(tg.done)
		tick := time.NewTicker(traceSlice)
		defer tick.Stop()
		last := time.Now()
		flip := func(now time.Time) {
			if tr.on.Load() {
				tg.on += now.Sub(last)
			} else {
				tg.off += now.Sub(last)
			}
			last = now
			tr.on.Store(!tr.on.Load())
		}
		for {
			select {
			case <-tg.stop:
				if tr.on.Load() {
					flip(time.Now())
				} else {
					tg.off += time.Since(last)
				}
				return
			case now := <-tick.C:
				flip(now)
			}
		}
	}()
	return tg
}

// end stops the toggling, leaves tracing off and waits for the goroutine.
func (tg *toggler) end() {
	close(tg.stop)
	<-tg.done
}

// layerMetrics derives every per-layer metric the spans and counters
// support.
func layerMetrics(res *result, spans []span, w window) {
	byName := map[string][]span{}
	byReq := map[int64]map[string][]span{}
	children := map[int64][]span{}
	for _, s := range spans {
		byName[s.Name] = append(byName[s.Name], s)
		if s.Req != 0 {
			if byReq[s.Req] == nil {
				byReq[s.Req] = map[string][]span{}
			}
			byReq[s.Req][s.Name] = append(byReq[s.Req][s.Name], s)
		}
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	durs := func(name string, kind string) *dist {
		var d dist
		for _, s := range byName[name] {
			if kind == "" || s.Kind == kind {
				d.add(s.ms())
			}
		}
		return &d
	}
	ops := float64(len(w.samples))
	reads := float64(w.reads)
	ingests := float64(w.ingests)
	per := func(v, n float64) float64 {
		if n == 0 {
			return 0
		}
		return v / n
	}

	// server: the client span minus the front handler's is transport; the
	// handler minus the twin's compile, execute and encode is its own work.
	var transport, handlerSelf dist
	var bytesOut float64
	for _, s := range w.samples {
		bytesOut += float64(s.bytes)
		hs := byReq[s.req][w.front]
		if len(hs) == 0 {
			continue
		}
		h := hs[0]
		transport.add(float64(selfTime(interval{s.start, s.end}, []interval{h.iv()})) / 1e6)
		if twin := byReq[s.req]["twin.request"]; len(twin) > 0 {
			var inner int64
			for _, c := range children[twin[0].ID] {
				inner += c.End - c.Start
			}
			handlerSelf.add(float64(h.End-h.Start-inner) / 1e6)
		}
	}
	res.layerPct("server.transport_ms_p50", &transport, 0.5)
	res.layerPct("server.handler_self_ms_p50", &handlerSelf, 0.5)
	res.layerPct("server.encode_ms_p50", durs("server.encode", ""), 0.5)
	res.layer("server.response_bytes_per_op", per(bytesOut, ops))
	res.layer("server.shed_per_op", per(w.server.sum("graphtempod_shed_total"), ops))
	res.layer("server.allocs_per_op", per(float64(w.proc1.mallocs-w.proc0.mallocs), ops))
	res.layer("server.gc_cpu_frac", per(w.proc1.gcCPU-w.proc0.gcCPU, w.proc1.cpu-w.proc0.cpu))

	// tgql / plan
	res.layerPct("tgql.plan_ms_p50", durs("tgql.plan", ""), 0.5)
	res.layerPct("plan.compile_ms_p50", durs("plan.compile", ""), 0.5)
	hits := w.global.get("graphtempod_plan_cache_total", "result", "hit")
	res.layer("plan.cache_hit_ratio", per(hits, hits+w.global.get("graphtempod_plan_cache_total", "result", "miss")))
	for _, f := range execFamilies {
		res.layerPct("plan.execute_ms_p50."+f, durs("plan.execute", f), 0.5)
	}
	for _, op := range selectionOps {
		res.layer("plan.selections_per_kop."+op, 1000*per(w.global.get("graphtempod_planner_selections_total", "op", op), ops))
	}

	// materialize
	answered := w.server.sum("graphtempod_catalog_answers_total")
	for _, src := range catalogSources {
		res.layer("materialize.answer_share."+src, per(w.server.get("graphtempod_catalog_answers_total", "source", src), answered))
	}
	var matMs float64
	for _, s := range byName["materialize.materialize"] {
		matMs += s.ms()
	}
	res.layer("materialize.materialize_ms", matMs)
	res.layerPct("materialize.advance_ms_p50", durs("materialize.advance", ""), 0.5)
	res.layer("materialize.store_rebuilds_per_ingest", per(w.server.sum("graphtempod_catalog_store_rebuilds_total"), ingests))
	res.layer("materialize.retro_applies_per_ingest", per(w.server.sum("graphtempod_catalog_retro_applies_total"), ingests))

	// agg / explore
	for _, k := range kernels {
		res.layer("agg.kernel_selections_per_op."+k, per(w.global.get("graphtempod_kernel_selections_total", "kernel", k), reads))
	}
	res.layer("explore.evaluations_per_explore", per(w.global.sum("graphtempod_explorer_evaluations_total"), float64(w.explores)))

	// stream / storage
	res.layerPct("stream.graph_ms_p50", durs("stream.graph", ""), 0.5)
	res.layerPct("stream.replay_ms_p90", durs("stream.replay", ""), 0.9)
	res.layerPct("storage.append_ms_p50", durs("storage.append", ""), 0.5)
	res.layer("storage.fsyncs_per_ingest", per(w.server.sum("graphtempod_storage_fsyncs_total"), ingests))
	walRecords := w.server.sum("graphtempod_storage_wal_records_total")
	res.layer("storage.coalesced_sync_share", per(w.server.sum("graphtempod_storage_coalesced_syncs_total"), walRecords))
	res.layer("storage.wal_bytes_per_ingest", per(w.server.sum("graphtempod_storage_wal_bytes_total"), ingests))

	// cluster: the router's own time excludes the (parallel) shard calls.
	var routerSelf dist
	for _, r := range byName["cluster.router"] {
		var kids []interval
		for _, c := range children[r.ID] {
			kids = append(kids, c.iv())
		}
		routerSelf.add(float64(selfTime(r.iv(), kids)) / 1e6)
	}
	res.layerPct("cluster.router_self_ms_p50", &routerSelf, 0.5)
	res.layerPct("cluster.shard_partial_ms_p50", durs("cluster.shard_partial", ""), 0.5)
	res.layerPct("cluster.merge_ms_p50", durs("plan.merge", ""), 0.5)
	if n := len(byName["cluster.router"]); n > 0 {
		var partialBytes float64
		for _, s := range byName["cluster.shard_partial"] {
			partialBytes += float64(s.Bytes)
		}
		res.layer("cluster.partial_bytes_per_op", partialBytes/float64(n))
	}

	if w.untracedOps > 0 {
		res.layer("trace.overhead_frac", 1-w.tracedOps/w.untracedOps)
	}
}
