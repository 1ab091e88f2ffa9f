package agg

import (
	"strconv"

	"repro/internal/jsonenc"
)

// RowSource is an aggregate graph's rows in wire order: decoded attribute
// values with weights. Rows and the cluster's merged graph implement it.
type RowSource interface {
	NumNodes() int
	Node(i int) (values []string, weight int64)
	NumEdges() int
	Edge(i int) (from, to []string, weight int64)
}

// AppendGraphJSON appends the wire form of an aggregate graph to b:
//
//	{"attributes":[…],"kind":"ALL","nodes":[{"values":[…],"weight":n},…],"edges":[{"from":[…],"to":[…],"weight":n},…]}
//
// Rows are written in the order given and an empty section is null. The
// bytes are those encoding/json produces for the equivalent structs. It is
// the only encoder of this shape: Graph and the cluster's merged graph both
// write through it, so a scatter-gathered answer matches a single node's.
//
// A non-nil flush is called with the bytes so far after every row and
// returns the slice to continue appending to, so a caller can write a
// large graph out in pieces (returning b[:0] once it has written b)
// instead of holding all of it.
func AppendGraphJSON(b []byte, attrs []string, kind string, rows RowSource, flush func([]byte) []byte) []byte {
	if flush == nil {
		flush = func(b []byte) []byte { return b }
	}
	b = append(b, `{"attributes":`...)
	b = jsonenc.Strings(b, attrs)
	b = append(b, `,"kind":`...)
	b = jsonenc.String(b, kind)
	b = append(b, `,"nodes":`...)
	n := rows.NumNodes()
	for i := 0; i < n; i++ {
		values, w := rows.Node(i)
		b = openRow(b, i)
		b = append(b, `{"values":`...)
		b = jsonenc.Strings(b, values)
		b = append(b, `,"weight":`...)
		b = strconv.AppendInt(b, w, 10)
		b = flush(append(b, '}'))
	}
	b = closeSection(b, n)
	b = append(b, `,"edges":`...)
	n = rows.NumEdges()
	for i := 0; i < n; i++ {
		from, to, w := rows.Edge(i)
		b = openRow(b, i)
		b = append(b, `{"from":`...)
		b = jsonenc.Strings(b, from)
		b = append(b, `,"to":`...)
		b = jsonenc.Strings(b, to)
		b = append(b, `,"weight":`...)
		b = strconv.AppendInt(b, w, 10)
		b = flush(append(b, '}'))
	}
	b = closeSection(b, n)
	return append(b, '}')
}

// openRow appends what precedes row i of a section: the array's opening
// bracket or a comma.
func openRow(b []byte, i int) []byte {
	if i == 0 {
		return append(b, '[')
	}
	return append(b, ',')
}

// closeSection ends a section of n rows: the closing bracket, or null when
// it is empty.
func closeSection(b []byte, n int) []byte {
	if n == 0 {
		return append(b, "null"...)
	}
	return append(b, ']')
}

// AppendJSON appends the graph's wire form (AppendGraphJSON) to b: decoded
// attribute values with weights, nodes and edges in label order (Rows), so
// downstream tools need no knowledge of tuple encoding.
func (ag *Graph) AppendJSON(b []byte) []byte { return ag.EncodeJSON(b, nil) }

// EncodeJSON is AppendJSON with AppendGraphJSON's flush hook.
func (ag *Graph) EncodeJSON(b []byte, flush func([]byte) []byte) []byte {
	return AppendGraphJSON(b, ag.attrNames(), ag.Kind.String(), ag.Rows(), flush)
}

// MarshalJSON implements json.Marshaler with AppendJSON, into a buffer
// sized at 64 bytes a row (a DBLP edge row takes about 40) so that it
// rarely grows.
func (ag *Graph) MarshalJSON() ([]byte, error) {
	return ag.AppendJSON(make([]byte, 0, 64*(1+len(ag.Nodes)+len(ag.Edges)))), nil
}

func (ag *Graph) attrNames() []string {
	out := make([]string, len(ag.Schema.attrs))
	for i, a := range ag.Schema.attrs {
		out[i] = ag.Schema.g.Attr(a).Name
	}
	return out
}
