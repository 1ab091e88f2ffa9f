package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestBenchmarkJSONMatchesTables keeps BENCHMARK.json at the repository
// root in step with the metrics and workloads this program reports.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	listed := map[string]bool{}
	for _, w := range b.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not implemented", w.Name)
		}
		if _, ok := ungated[w.Name]; ok {
			t.Errorf("BENCHMARK.json lists workload %q, which the program marks as left out", w.Name)
		}
		listed[w.Name] = true
	}
	for _, name := range workloadNames() {
		if _, ok := ungated[name]; !listed[name] && !ok {
			t.Errorf("workload %q is neither in BENCHMARK.json nor marked as left out with a reason", name)
		}
	}
	if len(b.EndToEnd) != len(e2eTable) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the program reports %d", len(b.EndToEnd), len(e2eTable))
	}
	for i, m := range b.EndToEnd {
		if want := e2eTable[i]; m.Name != want.name || m.Unit != want.unit || m.Better != want.better {
			t.Errorf("end_to_end[%d] = %s/%s/%s, program has %s/%s/%s", i, m.Name, m.Unit, m.Better, want.name, want.unit, want.better)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end_to_end %s bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(b.PerLayer) != len(layerTable) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the program reports %d", len(b.PerLayer), len(layerTable))
	}
	for i, m := range b.PerLayer {
		if want := layerTable[i]; m.Name != want.name || m.Unit != want.unit || m.Better != want.better {
			t.Errorf("per_layer[%d] = %s/%s/%s, program has %s/%s/%s", i, m.Name, m.Unit, m.Better, want.name, want.unit, want.better)
		}
	}
}
