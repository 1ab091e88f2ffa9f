package agg

import (
	"cmp"
	"slices"
	"strings"
)

// Every label-sorted listing of aggregate nodes and edges — the wire
// form, String, storage checkpoints, dot output, scatter partials — uses
// one order: nodes by the byte order of their label, edges by the byte
// order of EdgeLabel. The edge order is not tuple-wise by (from, to):
// with publications values "1" and "10", the edge "10→…" sorts before
// "1→…", because the arrow's first byte (0xE2) is above every ASCII digit.

// EdgeLabel is the label of the aggregate edge between the nodes labelled
// from and to, and the key edges sort by.
func EdgeLabel(from, to string) string { return from + edgeArrow + to }

const edgeArrow = "→"

// labeled pairs an item with its precomputed sort label.
type labeled[T any] struct {
	label string
	item  T
}

// SortByLabel sorts items by the byte order of label(item), calling label
// once per item instead of once per comparison. The order of items with
// equal labels is unspecified.
func SortByLabel[T any](items []T, label func(T) string) {
	xs := make([]labeled[T], len(items))
	for i, it := range items {
		xs[i] = labeled[T]{label(it), it}
	}
	slices.SortFunc(xs, func(a, b labeled[T]) int { return strings.Compare(a.label, b.label) })
	for i, x := range xs {
		items[i] = x.item
	}
}

// decoder gives each distinct tuple it sees a dense id and decodes it
// once, so rows sort on precomputed labels instead of rebuilding them on
// every comparison.
type decoder struct {
	s      *Schema
	ids    map[Tuple]int32
	tuples []decoded
}

type decoded struct {
	tuple  Tuple
	values []string
	// arrowed is the label followed by the arrow: the prefix of every
	// EdgeLabel from this tuple.
	arrowed string
}

func (t *decoded) label() string { return t.arrowed[:len(t.arrowed)-len(edgeArrow)] }

func (s *Schema) newDecoder(size int) *decoder {
	return &decoder{s: s, ids: make(map[Tuple]int32, size), tuples: make([]decoded, 0, size)}
}

// id returns the dense id of tu, decoding it on first sight.
func (d *decoder) id(tu Tuple) int32 {
	i, ok := d.ids[tu]
	if !ok {
		values := d.s.Decode(tu)
		n := len(edgeArrow) + len(values) - 1
		for _, v := range values {
			n += len(v)
		}
		var b strings.Builder
		b.Grow(n)
		for j, v := range values {
			if j > 0 {
				b.WriteByte(',')
			}
			b.WriteString(v)
		}
		b.WriteString(edgeArrow)
		i = int32(len(d.tuples))
		d.tuples = append(d.tuples, decoded{tuple: tu, values: values, arrowed: b.String()})
		d.ids[tu] = i
	}
	return i
}

// edgeRow is one edge in a sort: its endpoints' decoder ids. It holds no
// pointers, so sorting moves 8 bytes without write barriers.
type edgeRow struct{ from, to int32 }

// key returns the edge key of e.
func (d *decoder) key(e edgeRow) EdgeKey {
	return EdgeKey{d.tuples[e.from].tuple, d.tuples[e.to].tuple}
}

// sortEdges sorts es by EdgeLabel. Every endpoint must have been decoded.
func (d *decoder) sortEdges(es []edgeRow) {
	ts := d.tuples
	slices.SortFunc(es, func(a, b edgeRow) int {
		return compareJoined(ts[a.from].arrowed, ts[a.to].label(), ts[b.from].arrowed, ts[b.to].label())
	})
}

// compareJoined compares a1+a2 with b1+b2 without building either.
func compareJoined(a1, a2, b1, b2 string) int {
	for {
		if a1 == "" {
			a1, a2 = a2, ""
		}
		if b1 == "" {
			b1, b2 = b2, ""
		}
		if a1 == "" || b1 == "" {
			return cmp.Compare(len(a1), len(b1))
		}
		n := min(len(a1), len(b1))
		if c := strings.Compare(a1[:n], b1[:n]); c != 0 {
			return c
		}
		a1, b1 = a1[n:], b1[n:]
	}
}

// SortEdges sorts edge keys by EdgeLabel, decoding each distinct endpoint
// tuple once.
func (s *Schema) SortEdges(keys []EdgeKey) {
	d := s.newDecoder(0)
	es := make([]edgeRow, len(keys))
	for i, k := range keys {
		es[i] = edgeRow{d.id(k.From), d.id(k.To)}
	}
	d.sortEdges(es)
	for i, e := range es {
		keys[i] = d.key(e)
	}
}

// SortedNodes returns the aggregate node tuples ordered by decoded label,
// for deterministic presentation.
func (ag *Graph) SortedNodes() []Tuple {
	out := make([]Tuple, 0, len(ag.Nodes))
	for tu := range ag.Nodes {
		out = append(out, tu)
	}
	SortByLabel(out, ag.Schema.Label)
	return out
}

// SortedEdges returns the aggregate edge keys ordered by EdgeLabel.
func (ag *Graph) SortedEdges() []EdgeKey {
	out := make([]EdgeKey, 0, len(ag.Edges))
	for k := range ag.Edges {
		out = append(out, k)
	}
	ag.Schema.SortEdges(out)
	return out
}

// Rows is an aggregate graph's nodes and edges in wire form and label
// order. Each distinct tuple is decoded once, and rows naming the same
// tuple share its values slice. It implements RowSource.
type Rows struct {
	g     *Graph
	d     *decoder
	nodes []int32 // decoder ids
	edges []edgeRow
}

// Rows returns the graph's rows in label order.
func (ag *Graph) Rows() *Rows {
	d := ag.Schema.newDecoder(len(ag.Nodes))
	r := &Rows{g: ag, d: d, nodes: make([]int32, 0, len(ag.Nodes)), edges: make([]edgeRow, 0, len(ag.Edges))}
	for tu := range ag.Nodes {
		r.nodes = append(r.nodes, d.id(tu))
	}
	for k := range ag.Edges {
		r.edges = append(r.edges, edgeRow{d.id(k.From), d.id(k.To)})
	}
	d.sortEdges(r.edges)
	slices.SortFunc(r.nodes, func(a, b int32) int { return strings.Compare(d.tuples[a].label(), d.tuples[b].label()) })
	return r
}

// NumNodes returns the number of node rows.
func (r *Rows) NumNodes() int { return len(r.nodes) }

// Node returns node row i: its decoded values and weight.
func (r *Rows) Node(i int) ([]string, int64) {
	t := &r.d.tuples[r.nodes[i]]
	return t.values, r.g.Nodes[t.tuple]
}

// NumEdges returns the number of edge rows.
func (r *Rows) NumEdges() int { return len(r.edges) }

// Edge returns edge row i: both endpoints' decoded values and the weight.
func (r *Rows) Edge(i int) (from, to []string, weight int64) {
	e := r.edges[i]
	return r.d.tuples[e.from].values, r.d.tuples[e.to].values, r.g.Edges[r.d.key(e)]
}
