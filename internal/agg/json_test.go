package agg

import (
	"bytes"
	"encoding/json"
	"fmt"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/ops"
	"repro/internal/timeline"
)

func TestMarshalJSON(t *testing.T) {
	g := core.PaperExample()
	s := MustSchema(g, g.MustAttr("gender"), g.MustAttr("publications"))
	tl := g.Timeline()
	ag := Aggregate(ops.Union(g, tl.Point(0), tl.Point(1)), s, Distinct)

	data, err := json.Marshal(ag)
	if err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		Attributes []string `json:"attributes"`
		Kind       string   `json:"kind"`
		Nodes      []struct {
			Values []string `json:"values"`
			Weight int64    `json:"weight"`
		} `json:"nodes"`
		Edges []struct {
			From   []string `json:"from"`
			To     []string `json:"to"`
			Weight int64    `json:"weight"`
		} `json:"edges"`
	}
	if err := json.Unmarshal(data, &decoded); err != nil {
		t.Fatal(err)
	}
	if decoded.Kind != "DIST" {
		t.Errorf("kind = %q", decoded.Kind)
	}
	if len(decoded.Attributes) != 2 || decoded.Attributes[0] != "gender" {
		t.Errorf("attributes = %v", decoded.Attributes)
	}
	found := false
	for _, n := range decoded.Nodes {
		if n.Values[0] == "f" && n.Values[1] == "1" {
			found = true
			if n.Weight != 3 {
				t.Errorf("JSON w(f,1) = %d, want 3", n.Weight)
			}
		}
	}
	if !found {
		t.Error("node (f,1) missing from JSON")
	}
	if len(decoded.Edges) != 4 {
		t.Errorf("edges = %d, want 4", len(decoded.Edges))
	}
}

// ---- reference encoder ---------------------------------------------------

// The reference wire encoder: a reflection tree marshalled by
// encoding/json, with nodes and edges sorted by comparators that rebuild
// Label on every comparison. AppendJSON must reproduce its bytes exactly.

type refNode struct {
	Values []string `json:"values"`
	Weight int64    `json:"weight"`
}

type refEdge struct {
	From   []string `json:"from"`
	To     []string `json:"to"`
	Weight int64    `json:"weight"`
}

type refGraph struct {
	Attributes []string  `json:"attributes"`
	Kind       string    `json:"kind"`
	Nodes      []refNode `json:"nodes"`
	Edges      []refEdge `json:"edges"`
}

func refSortedNodes(ag *Graph) []Tuple {
	out := make([]Tuple, 0, len(ag.Nodes))
	for tu := range ag.Nodes {
		out = append(out, tu)
	}
	sort.Slice(out, func(i, j int) bool {
		return ag.Schema.Label(out[i]) < ag.Schema.Label(out[j])
	})
	return out
}

func refSortedEdges(ag *Graph) []EdgeKey {
	out := make([]EdgeKey, 0, len(ag.Edges))
	for k := range ag.Edges {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool {
		li := ag.Schema.Label(out[i].From) + "→" + ag.Schema.Label(out[i].To)
		lj := ag.Schema.Label(out[j].From) + "→" + ag.Schema.Label(out[j].To)
		return li < lj
	})
	return out
}

func refMarshalJSON(ag *Graph) ([]byte, error) {
	out := refGraph{Kind: ag.Kind.String()}
	for _, a := range ag.Schema.attrs {
		out.Attributes = append(out.Attributes, ag.Schema.g.Attr(a).Name)
	}
	for _, tu := range refSortedNodes(ag) {
		out.Nodes = append(out.Nodes, refNode{Values: ag.Schema.Decode(tu), Weight: ag.Nodes[tu]})
	}
	for _, k := range refSortedEdges(ag) {
		out.Edges = append(out.Edges, refEdge{
			From:   ag.Schema.Decode(k.From),
			To:     ag.Schema.Decode(k.To),
			Weight: ag.Edges[k],
		})
	}
	return json.Marshal(out)
}

// checkWire asserts that AppendJSON, EncodeJSON written out row by row,
// and json.Marshal all produce the reference encoder's bytes.
func checkWire(t *testing.T, name string, ag *Graph) {
	t.Helper()
	want, err := refMarshalJSON(ag)
	if err != nil {
		t.Fatalf("%s: reference: %v", name, err)
	}
	if got := ag.AppendJSON([]byte("prefix")); string(got) != "prefix"+string(want) {
		t.Fatalf("%s: AppendJSON differs from the reference\n got: %s\nwant: prefix%s", name, got, want)
	}
	var pieces []byte
	rest := ag.EncodeJSON(nil, func(b []byte) []byte {
		pieces = append(pieces, b...)
		return b[:0]
	})
	if got := append(pieces, rest...); !bytes.Equal(got, want) {
		t.Fatalf("%s: EncodeJSON flushed per row differs from the reference\n got: %s\nwant: %s", name, got, want)
	}
	got, err := json.Marshal(ag)
	if err != nil {
		t.Fatalf("%s: json.Marshal: %v", name, err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: json.Marshal differs from the reference\n got: %s\nwant: %s", name, got, want)
	}
}

// TestAppendJSONMatchesReferenceOnDBLP compares the encoder with the
// reference on DIST and ALL graphs over the three DBLP schemas, for a
// project and a union ending at every time point.
func TestAppendJSONMatchesReferenceOnDBLP(t *testing.T) {
	g := dataset.DBLPScaled(1, 0.3)
	tl := g.Timeline()
	for _, names := range [][]string{{"gender"}, {"publications"}, {"gender", "publications"}} {
		s, err := ByName(g, names...)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < tl.Len(); i++ {
			ti := timeline.Time(i)
			views := map[string]*ops.View{
				"project": ops.Project(g, tl.Point(ti)),
				"union":   ops.Union(g, tl.Range(0, ti), tl.Point(ti)),
			}
			for op, v := range views {
				for _, kind := range []Kind{Distinct, All} {
					checkWire(t, fmt.Sprintf("%v %s %s t%d", names, kind, op, i), Aggregate(v, s, kind))
				}
			}
		}
	}
}

// TestAppendJSONEmptySections pins null, not [], for empty node and edge
// sections.
func TestAppendJSONEmptySections(t *testing.T) {
	g := core.PaperExample()
	s := MustSchema(g, g.MustAttr("gender"))
	tu, _ := s.Encode("f")
	cases := map[string]*Graph{
		"nil maps":   {Schema: s, Kind: All},
		"empty maps": {Schema: s, Kind: Distinct, Nodes: map[Tuple]int64{}, Edges: map[EdgeKey]int64{}},
		"no edges":   {Schema: s, Kind: All, Nodes: map[Tuple]int64{tu: 2}},
	}
	for name, ag := range cases {
		checkWire(t, name, ag)
	}
	got := string((&Graph{Schema: s, Kind: All}).AppendJSON(nil))
	if want := `{"attributes":["gender"],"kind":"ALL","nodes":null,"edges":null}`; got != want {
		t.Fatalf("empty graph = %s, want %s", got, want)
	}
}

// TestLabelOrderIsConcatenatedBytes pins the listing order when one label
// is a byte prefix of another: nodes sort by label, edges by the bytes of
// "from→to". Since '→' starts with 0xE2, every "10→…" edge precedes every
// "1→…" edge — a tuple-wise (from, to) comparator would put them the
// other way round and change the wire bytes.
func TestLabelOrderIsConcatenatedBytes(t *testing.T) {
	tl, err := timeline.New("t0")
	if err != nil {
		t.Fatal(err)
	}
	b := core.NewBuilder(tl, core.AttrSpec{Name: "publications", Kind: core.Static})
	pubs := map[string]string{"a": "1", "b": "10", "c": "2"}
	for _, n := range []string{"a", "b", "c"} {
		id := b.AddNode(n)
		b.SetNodeTime(id, 0)
		b.SetStatic(0, id, pubs[n])
	}
	for _, e := range [][2]string{{"a", "a"}, {"a", "b"}, {"b", "a"}, {"b", "b"}, {"c", "a"}, {"a", "c"}} {
		u, _ := b.NodeID(e[0])
		v, _ := b.NodeID(e[1])
		b.SetEdgeTime(b.AddEdge(u, v), 0)
	}
	g := b.MustBuild()
	s := MustSchema(g, 0)
	ag := Aggregate(ops.Project(g, tl.Point(0)), s, All)

	var nodes []string
	for _, tu := range ag.SortedNodes() {
		nodes = append(nodes, s.Label(tu))
	}
	if want := []string{"1", "10", "2"}; !slices.Equal(nodes, want) {
		t.Errorf("node order %q, want %q", nodes, want)
	}
	var edges []string
	for _, k := range ag.SortedEdges() {
		edges = append(edges, s.Label(k.From)+">"+s.Label(k.To))
	}
	if want := []string{"10>1", "10>10", "1>1", "1>10", "1>2", "2>1"}; !slices.Equal(edges, want) {
		t.Errorf("edge order %q, want %q", edges, want)
	}
	rows := ag.Rows()
	for i := 0; i < rows.NumNodes(); i++ {
		values, _ := rows.Node(i)
		if got := strings.Join(values, ","); got != nodes[i] {
			t.Errorf("Rows node %d = %s, want %s", i, got, nodes[i])
		}
	}
	for i := 0; i < rows.NumEdges(); i++ {
		from, to, _ := rows.Edge(i)
		if got := from[0] + ">" + to[0]; got != edges[i] {
			t.Errorf("Rows edge %d = %s, want %s", i, got, edges[i])
		}
	}
	checkWire(t, "prefix labels", ag)
}

// FuzzAggJSON builds a three-node graph whose two attributes take the
// fuzzed values and compares the wire bytes with the reference encoder.
// The seeds cover every escaping rule (quotes, backslashes, HTML
// characters, control bytes, U+2028/U+2029, invalid UTF-8) and values
// containing the edge arrow or a comma, which the joined-label order must
// handle.
func FuzzAggJSON(f *testing.F) {
	f.Add("f", "1", "10")
	f.Add(`"quoted"`, `back\slash`, "<a href='x'>&amp;</a>")
	f.Add("\x00\x01\x1f\x7f", "\b\f\n\r\t", "line\xe2\x80\xa8sep\xe2\x80\xa9para")
	f.Add("\xff\xfe", "bad\xc3", "\xed\xa0\x80surrogate")
	f.Add("ünïcødé", "日本", "")
	f.Add("x→y", "x", "x→")
	f.Add("a,b", "a", "b,→")
	f.Fuzz(func(t *testing.T, a, b, c string) {
		tl, err := timeline.New("t0", "t1")
		if err != nil {
			t.Fatal(err)
		}
		bld := core.NewBuilder(tl,
			core.AttrSpec{Name: "x", Kind: core.Static},
			core.AttrSpec{Name: "y" + c, Kind: core.TimeVarying})
		vals := []string{a, b, c}
		var ids []core.NodeID
		for i, label := range []string{"n0", "n1", "n2"} {
			id := bld.AddNode(label)
			ids = append(ids, id)
			bld.SetStatic(0, id, vals[i])
			for ti := 0; ti < 2; ti++ {
				bld.SetNodeTime(id, timeline.Time(ti))
				bld.SetVarying(1, id, timeline.Time(ti), vals[(i+ti)%3])
			}
		}
		for i := range ids {
			e := bld.AddEdge(ids[i], ids[(i+1)%3])
			bld.SetEdgeTime(e, 0)
			bld.SetEdgeTime(e, 1)
		}
		g, err := bld.Build()
		if err != nil {
			t.Skip(err)
		}
		for _, attrs := range [][]core.AttrID{{0}, {1}, {0, 1}} {
			s := MustSchema(g, attrs...)
			for _, kind := range []Kind{Distinct, All} {
				ag := Aggregate(ops.Union(g, tl.All(), tl.All()), s, kind)
				if labelsCollide(ag) {
					continue // equal labels have no defined order
				}
				checkWire(t, fmt.Sprintf("%v %s", attrs, kind), ag)
			}
		}
	})
}

// labelsCollide reports whether two distinct nodes or edges of ag share
// a label, as values containing ',' or '→' can make them.
func labelsCollide(ag *Graph) bool {
	seen := make(map[string]bool)
	for tu := range ag.Nodes {
		l := "n" + ag.Schema.Label(tu)
		if seen[l] {
			return true
		}
		seen[l] = true
	}
	for k := range ag.Edges {
		l := "e" + EdgeLabel(ag.Schema.Label(k.From), ag.Schema.Label(k.To))
		if seen[l] {
			return true
		}
		seen[l] = true
	}
	return false
}

var marshalSink []byte

// BenchmarkMarshalAggregate encodes the DBLP (scale 1.0) union-ALL
// aggregate over the whole timeline for each schema.
func BenchmarkMarshalAggregate(b *testing.B) {
	g := dataset.DBLP(1)
	tl := g.Timeline()
	v := ops.Union(g, tl.All(), tl.All())
	for _, names := range [][]string{{"gender"}, {"publications"}, {"gender", "publications"}} {
		s, err := ByName(g, names...)
		if err != nil {
			b.Fatal(err)
		}
		ag := Aggregate(v, s, All)
		b.Run(strings.Join(names, "+"), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				marshalSink, _ = ag.MarshalJSON()
			}
		})
	}
}
