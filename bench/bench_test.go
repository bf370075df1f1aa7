package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"testing"
)

// testHorizon shortens each workload so the whole file runs in a few
// seconds. rack4128-centralized stays slowest: its 4128^2 VOQ table
// costs about a second to build at any horizon.
var testHorizon = map[string]float64{
	"paper144-fast":            0.005,
	"paper144-srpt-sat-traced": 0.005,
	"rack4128-decomposed":      0.002,
	"rack4128-centralized":     0.0001,
}

// short returns the named workload at its test horizon. The pins hold
// only at full horizon, so the short workload is unpinned and its
// repetitions must agree with each other instead.
func short(t *testing.T, s spec) spec {
	t.Helper()
	d, ok := testHorizon[s.name]
	if !ok {
		t.Fatalf("no test horizon for %s", s.name)
	}
	s.duration, s.pin = d, ""
	return s
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

func checkNames(t *testing.T, ms []metric) {
	t.Helper()
	seen := map[string]bool{}
	for _, m := range ms {
		if !metricName.MatchString(m.Name) || seen[m.Name] {
			t.Errorf("metric name %q is malformed or repeated", m.Name)
		}
		seen[m.Name] = true
	}
}

func valueOf(ms []metric, name string) (float64, bool) {
	for _, m := range ms {
		if m.Name == name {
			return m.Value, true
		}
	}
	return 0, false
}

// benchmarkFile is the part of BENCHMARK.json the code must agree with.
type benchmarkFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// sameMetrics reports whether ms names exactly the declared metrics, in
// order and with the same units.
func sameMetrics(ms []metric, declared []struct{ Name, Unit string }) bool {
	if len(ms) != len(declared) {
		return false
	}
	for i, m := range ms {
		if m.Name != declared[i].Name || m.Unit != declared[i].Unit {
			return false
		}
	}
	return true
}

// TestWorkloads runs every workload at its short horizon: two plain
// repetitions must give one digest, the instrumented repetition (timed
// Generator and trace sink, shard Timeline) must give it too, and so
// must the traced workload without its trace and the decomposed one on
// a single worker. The per-layer metrics must match BENCHMARK.json.
func TestWorkloads(t *testing.T) {
	bf := readBenchmarkFile(t)
	if len(bf.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json has %d workloads, the code %d", len(bf.Workloads), len(specs))
	}
	for i, s := range specs {
		if bf.Workloads[i].Name != s.name {
			t.Errorf("BENCHMARK.json workload %d is %q, the code's is %q", i, bf.Workloads[i].Name, s.name)
		}
		s := short(t, s)
		t.Run(s.name, func(t *testing.T) {
			g := &gate{}
			bare := g.run(s, repConfig{seed: 1})
			again := g.run(s, repConfig{seed: 1})
			probed := g.run(s, repConfig{seed: 1, probe: true})
			if bare == nil || again == nil || probed == nil {
				t.Fatalf("%d of %d repetitions failed", g.failed, g.attempted)
			}
			if again.digest != bare.digest {
				t.Errorf("two repetitions: digest %s then %s", bare.digest, again.digest)
			}
			if probed.digest != bare.digest {
				t.Errorf("instrumented repetition: digest %s, bare %s", probed.digest, bare.digest)
			}
			var noObs, oneWorker *rep
			if s.traced {
				if noObs = g.run(s, repConfig{seed: 1, probe: true, noObs: true}); noObs == nil {
					t.Fatal("repetition without the trace failed")
				}
			}
			if s.engine == decomposed {
				if oneWorker = g.run(s, repConfig{seed: 1, workers: 1}); oneWorker == nil {
					t.Fatal("one-worker repetition disagrees with two workers")
				}
			}
			layers, _ := layerMetrics(s, again, probed, noObs, oneWorker)
			checkNames(t, layers)
			if !sameMetrics(layers, bf.PerLayer) {
				t.Errorf("per-layer metrics differ from BENCHMARK.json's per_layer list")
			}
			if v, ok := valueOf(layers, "fabric.loop_self_s"); !ok || v < 0 {
				t.Errorf("fabric.loop_self_s = %g (present %t), want >= 0", v, ok)
			}
		})
	}
}

// TestEndToEndResultsRoundTrip runs the end-to-end pass on one workload
// per engine, checks the metrics against BENCHMARK.json, and round-trips
// the results file.
func TestEndToEndResultsRoundTrip(t *testing.T) {
	bf := readBenchmarkFile(t)
	rs := results{Schema: resultsSchema, Seed: 1}
	for _, name := range []string{"paper144-fast", "rack4128-decomposed"} {
		s, _ := specByName(name)
		s = short(t, s)
		g := newGate(s, 1)
		ms := endToEnd(s, 1, 0, g)
		if g.failed > 0 {
			t.Fatalf("%s: %d of %d repetitions failed", name, g.failed, g.attempted)
		}
		checkNames(t, ms)
		if !sameMetrics(ms, bf.EndToEnd) {
			t.Errorf("%s: end-to-end metrics differ from BENCHMARK.json's end_to_end list", name)
		}
		for _, m := range ms {
			if m.Value <= 0 || m.N < minReps {
				t.Errorf("%s: %s = %g over n=%d, want > 0 over n >= %d", name, m.Name, m.Value, m.N, minReps)
			}
		}
		rs.Workloads = append(rs.Workloads, workloadResult{
			Name: name, Engine: s.engine, Digest: g.want, Attempted: g.attempted, EndToEnd: ms,
		})
	}
	path := filepath.Join(t.TempDir(), "results.json")
	if err := writeResults(path, rs); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back results
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, rs) {
		t.Errorf("results file did not round-trip:\n%+v\n%+v", back, rs)
	}
	sum := summaryOf(rs, true)
	if !sum.Correct || len(sum.Metrics) != 2*len(bf.EndToEnd) {
		t.Errorf("summary line: correct %t with %d metrics", sum.Correct, len(sum.Metrics))
	}
}
