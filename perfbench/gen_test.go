package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"slices"
	"testing"

	"acesim/internal/collectives"
	"acesim/internal/scenario"
)

// serveDocs renders serve-mixed's stream as the bodies a pass submits.
func serveDocs(t *testing.T, seed uint64) [][]byte {
	m := serveMixed(seed)
	docs, err := marshalAll(append(append([]*scenario.Scenario(nil), m.warm...), m.cold...))
	if err != nil {
		t.Fatal(err)
	}
	order, _ := json.Marshal(m.order)
	return append(docs, order)
}

func TestGeneratorIsDeterministic(t *testing.T) {
	gens := map[string]func(uint64) []*scenario.Scenario{
		"des-sweep": desSweep, "hybrid-sweep": hybridSweep, "observed-sweep": observedSweep,
	}
	for name, gen := range gens {
		a, err := marshalAll(gen(7))
		if err != nil {
			t.Fatal(err)
		}
		b, _ := marshalAll(gen(7))
		c, _ := marshalAll(gen(8))
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 7 generated two different documents", name)
		}
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: seeds 7 and 8 generated the same documents", name)
		}
		for i, doc := range a {
			sc, err := scenario.Parse(bytes.NewReader(doc))
			if err != nil {
				t.Fatalf("%s doc %d: %v", name, i, err)
			}
			if _, err := sc.Expand(); err != nil {
				t.Errorf("%s doc %d: %v", name, i, err)
			}
		}
	}
	if !reflect.DeepEqual(serveDocs(t, 7), serveDocs(t, 7)) {
		t.Error("serve-mixed: seed 7 generated two different streams")
	}
	if reflect.DeepEqual(serveDocs(t, 7), serveDocs(t, 8)) {
		t.Error("serve-mixed: seeds 7 and 8 generated the same stream")
	}
}

// Cold submissions must miss the cache: no unit may repeat anywhere in
// the stream's distinct documents.
func TestServeColdUnitsAreUnique(t *testing.T) {
	m := serveMixed(3)
	seen := map[int64]bool{}
	for _, sc := range append(append([]*scenario.Scenario(nil), m.warm...), m.cold...) {
		for _, j := range sc.Jobs {
			for _, b := range j.PayloadBytes {
				if seen[b] {
					t.Fatalf("payload %d appears twice", b)
				}
				seen[b] = true
			}
		}
	}
	warm := 0
	for _, i := range m.order {
		if i < len(m.warm) {
			warm++
		}
	}
	if warm != warmRepeats || len(m.order) != warmRepeats+coldSubmissions {
		t.Errorf("stream has %d warm of %d submissions", warm, len(m.order))
	}
}

// hybrid-sweep's grid expands to des-sweep's units, engine aside: the
// byte-identity check compares like with like.
func TestHybridGridSharesDESPoints(t *testing.T) {
	des, hyb := desSweep(5), hybridSweep(5)
	for i, sc := range des {
		du, err := sc.Expand()
		if err != nil {
			t.Fatal(err)
		}
		hu, err := hyb[i].Expand()
		if err != nil {
			t.Fatal(err)
		}
		for k := range hu {
			if hu[k].Engine != collectives.EngineHybrid {
				t.Errorf("%s unit %d engine %v", hyb[i].Name, k, hu[k].Engine)
			}
			hu[k].Engine = collectives.EngineDES
		}
		if !reflect.DeepEqual(du, hu) {
			t.Errorf("%s: hybrid units differ from the DES units", sc.Name)
		}
	}
}

// BENCHMARK.json declares exactly the metrics the benchmark prints.
func TestBenchmarkFileMatchesMetricTables(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark prints %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s (%s), benchmark %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", bench.EndToEnd, endToEnd)
	same("per_layer", bench.PerLayer, perLayer)
	for _, w := range bench.Workloads {
		if !slices.Contains(workloadNames, w.Name) {
			t.Errorf("workload %s is not implemented", w.Name)
		}
	}
}
