package server

import (
	"encoding/json"
	"net/http/httptest"
	"testing"

	"repro/internal/agg"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/ops"
)

// TestGraphEnvelopesMatchEncoder: WriteAggregate and writeTGQLGraph write
// the bytes json.Encoder writes for AggregateResponse and TGQLResponse
// with the graph as a json.RawMessage — field order, string escaping,
// elapsed_ms float formatting and the trailing newline.
func TestGraphEnvelopesMatchEncoder(t *testing.T) {
	small := core.PaperExample()
	s := agg.MustSchema(small, small.MustAttr("gender"), small.MustAttr("publications"))
	tl := small.Timeline()
	checkGraphEnvelopes(t, agg.Aggregate(ops.Union(small, tl.Point(0), tl.Point(1)), s, agg.All))

	// A graph many times graphChunk, written out in pieces.
	big := dataset.DBLPScaled(1, 0.3)
	s = agg.MustSchema(big, big.MustAttr("gender"), big.MustAttr("publications"))
	tl = big.Timeline()
	ag := agg.Aggregate(ops.Union(big, tl.All(), tl.All()), s, agg.All)
	if n := len(ag.AppendJSON(nil)); n < 4*graphChunk {
		t.Fatalf("graph encodes to %d bytes, want several chunks", n)
	}
	checkGraphEnvelopes(t, ag)
}

func checkGraphEnvelopes(t *testing.T, ag *agg.Graph) {
	t.Helper()
	raw, err := json.Marshal(ag)
	if err != nil {
		t.Fatal(err)
	}
	for _, elapsed := range []float64{0, 0.001, 0.597, 12.5, 1234.567, 1e-7, 1e21} {
		for _, source := range []string{"cached", "scatter(2)", `<"odd"&\source>`} {
			want := httptest.NewRecorder()
			writeJSON(want, AggregateResponse{Source: source, ElapsedMs: elapsed, Graph: raw})
			got := httptest.NewRecorder()
			if status, err := WriteAggregate(got, source, elapsed, ag); status != 200 || err != nil {
				t.Fatalf("WriteAggregate = %d, %v", status, err)
			}
			if got.Body.String() != want.Body.String() {
				t.Fatalf("aggregate envelope (%q, %v):\n got %q\nwant %q", source, elapsed, got.Body, want.Body)
			}
			if ct := got.Header().Get("Content-Type"); ct != "application/json" {
				t.Fatalf("Content-Type = %q", ct)
			}
		}
	}
	for _, text := range []string{"", ag.String(), "a <b> & \"c\"\n\t\x01"} {
		want := httptest.NewRecorder()
		writeJSON(want, TGQLResponse{Text: text, Graph: raw})
		got := httptest.NewRecorder()
		if status, err := writeTGQLGraph(got, text, ag); status != 200 || err != nil {
			t.Fatalf("writeTGQLGraph = %d, %v", status, err)
		}
		if got.Body.String() != want.Body.String() {
			t.Fatalf("tgql envelope (%q):\n got %q\nwant %q", text, got.Body, want.Body)
		}
	}
}
