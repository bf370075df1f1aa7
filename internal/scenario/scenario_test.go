package scenario

import (
	"encoding/json"
	"errors"
	"strings"
	"testing"
)

// validSpecJSON is a minimal well-formed spec used as the mutation base
// for the parser tests and the fuzz corpus.
const validSpecJSON = `{
  "schema": "basrpt-scenario/1",
  "name": "tiny",
  "title": "tiny scenario",
  "hypothesis": "throughput is nonnegative",
  "topology": {"racks": 2, "hosts_per_rack": 2},
  "duration_s": 0.2,
  "workload": {},
  "loads": [0.5],
  "schedulers": [{"name": "srpt"}, {"name": "fast-basrpt", "v": 2500}],
  "seeds": {"count": 2, "root": 1},
  "checks": [
    {"name": "gbps-nonneg", "left": "srpt/gbps", "op": "ge", "value": 0}
  ]
}`

func mustParse(t *testing.T, data string) *Spec {
	t.Helper()
	s, err := ParseSpec([]byte(data))
	if err != nil {
		t.Fatalf("ParseSpec: %v", err)
	}
	return s
}

// mutate decodes the valid spec into a generic map, applies fn, and
// re-encodes — a compact way to produce one-field-broken variants.
func mutate(t *testing.T, fn func(m map[string]any)) []byte {
	t.Helper()
	var m map[string]any
	if err := json.Unmarshal([]byte(validSpecJSON), &m); err != nil {
		t.Fatalf("unmarshal base spec: %v", err)
	}
	fn(m)
	b, err := json.Marshal(m)
	if err != nil {
		t.Fatalf("marshal mutated spec: %v", err)
	}
	return b
}

func TestParseSpecValid(t *testing.T) {
	s := mustParse(t, validSpecJSON)
	if s.Name != "tiny" || s.Seeds.Count != 2 || len(s.Schedulers) != 2 {
		t.Fatalf("parsed spec fields wrong: %+v", s)
	}
	if got := s.CellNames(); len(got) != 2 || got[0] != "srpt" || got[1] != "fast-basrpt" {
		t.Fatalf("CellNames = %v, want [srpt fast-basrpt]", got)
	}
}

func TestParseSpecUnknownFieldRejected(t *testing.T) {
	data := mutate(t, func(m map[string]any) { m["typo_knob"] = 3 })
	_, err := ParseSpec(data)
	if err == nil {
		t.Fatal("unknown field accepted")
	}
	if !errors.Is(err, ErrSpec) {
		t.Fatalf("error does not unwrap to ErrSpec: %v", err)
	}
	var se *SpecError
	if !errors.As(err, &se) {
		t.Fatalf("error is not a *SpecError: %T %v", err, err)
	}
	if se.Field != "json" {
		t.Fatalf("SpecError.Field = %q, want %q", se.Field, "json")
	}
}

func TestParseSpecTrailingDataRejected(t *testing.T) {
	_, err := ParseSpec([]byte(validSpecJSON + "\n{}"))
	if !errors.Is(err, ErrSpec) {
		t.Fatalf("trailing data: got %v, want ErrSpec", err)
	}
}

func TestParseSpecMalformedJSON(t *testing.T) {
	_, err := ParseSpec([]byte(`{"schema": `))
	if !errors.Is(err, ErrSpec) {
		t.Fatalf("malformed JSON: got %v, want ErrSpec", err)
	}
}

// TestValidateRejections walks every semantic constraint, asserting the
// typed error names the offending field.
func TestValidateRejections(t *testing.T) {
	cases := []struct {
		name  string
		fn    func(m map[string]any)
		field string // expected SpecError.Field prefix
	}{
		{"wrong schema", func(m map[string]any) { m["schema"] = "basrpt-scenario/99" }, "schema"},
		{"empty name", func(m map[string]any) { m["name"] = "" }, "name"},
		{"bad name charset", func(m map[string]any) { m["name"] = "Tiny_Spec" }, "name"},
		{"empty title", func(m map[string]any) { m["title"] = "" }, "title"},
		{"empty hypothesis", func(m map[string]any) { m["hypothesis"] = "" }, "hypothesis"},
		{"zero racks", func(m map[string]any) { m["topology"] = map[string]any{"racks": 0, "hosts_per_rack": 2} }, "topology.racks"},
		{"zero hosts", func(m map[string]any) { m["topology"] = map[string]any{"racks": 2, "hosts_per_rack": 0} }, "topology.hosts_per_rack"},
		{"zero duration", func(m map[string]any) { m["duration_s"] = 0 }, "duration_s"},
		{"qf out of range", func(m map[string]any) { m["workload"] = map[string]any{"query_byte_fraction": 1.5} }, "workload.query_byte_fraction"},
		{"no loads", func(m map[string]any) { m["loads"] = []any{} }, "loads"},
		{"load too high", func(m map[string]any) { m["loads"] = []any{1.2} }, "loads[0]"},
		{"load zero", func(m map[string]any) { m["loads"] = []any{0} }, "loads[0]"},
		{"no schedulers", func(m map[string]any) { m["schedulers"] = []any{} }, "schedulers"},
		{"unknown scheduler", func(m map[string]any) {
			m["schedulers"] = []any{map[string]any{"name": "lottery"}}
		}, "schedulers[0].name"},
		{"duplicate cell label", func(m map[string]any) {
			m["schedulers"] = []any{map[string]any{"name": "srpt"}, map[string]any{"name": "srpt"}}
		}, "schedulers[1]"},
		{"negative fault counts", func(m map[string]any) {
			m["faults"] = map[string]any{"link_faults": -1, "outages": 0}
		}, "faults"},
		{"empty fault block", func(m map[string]any) {
			m["faults"] = map[string]any{"link_faults": 0, "outages": 0}
		}, "faults"},
		{"zero seeds", func(m map[string]any) { m["seeds"] = map[string]any{"count": 0} }, "seeds.count"},
		{"no checks", func(m map[string]any) { m["checks"] = []any{} }, "checks"},
		{"unnamed check", func(m map[string]any) {
			m["checks"] = []any{map[string]any{"name": "", "left": "srpt/gbps", "op": "ge", "value": 0}}
		}, "checks[0].name"},
		{"unknown op", func(m map[string]any) {
			m["checks"] = []any{map[string]any{"name": "c", "left": "srpt/gbps", "op": "approx", "value": 0}}
		}, "checks[0].op"},
		{"both right and value", func(m map[string]any) {
			m["checks"] = []any{map[string]any{"name": "c", "left": "srpt/gbps", "op": "ge", "right": "fast-basrpt/gbps", "value": 0}}
		}, "checks[0].right"},
		{"neither right nor value", func(m map[string]any) {
			m["checks"] = []any{map[string]any{"name": "c", "left": "srpt/gbps", "op": "ge"}}
		}, "checks[0].right"},
		{"negative tolerance", func(m map[string]any) {
			m["checks"] = []any{map[string]any{"name": "c", "left": "srpt/gbps", "op": "eq", "value": 0, "tolerance": -1}}
		}, "checks[0].tolerance"},
		{"tolerance on non-eq", func(m map[string]any) {
			m["checks"] = []any{map[string]any{"name": "c", "left": "srpt/gbps", "op": "ge", "value": 0, "tolerance": 0.1}}
		}, "checks[0].tolerance"},
		{"paired against constant", func(m map[string]any) {
			m["checks"] = []any{map[string]any{"name": "c", "left": "srpt/gbps", "op": "eq", "value": 0, "paired": true}}
		}, "checks[0].paired"},
		{"ref without slash", func(m map[string]any) {
			m["checks"] = []any{map[string]any{"name": "c", "left": "gbps", "op": "ge", "value": 0}}
		}, "checks[0].left"},
		{"ref to unknown cell", func(m map[string]any) {
			m["checks"] = []any{map[string]any{"name": "c", "left": "fifo/gbps", "op": "ge", "value": 0}}
		}, "checks[0].left"},
		{"right ref without slash", func(m map[string]any) {
			m["checks"] = []any{map[string]any{"name": "c", "left": "srpt/gbps", "op": "ge", "right": "gbps"}}
		}, "checks[0].right"},
		{"right ref to unknown cell", func(m map[string]any) {
			m["checks"] = []any{map[string]any{"name": "c", "left": "srpt/gbps", "op": "ge", "right": "nosuchcell/gbps"}}
		}, "checks[0].right"},
		{"negative v", func(m map[string]any) {
			m["schedulers"] = []any{map[string]any{"name": "srpt"}, map[string]any{"name": "fast-basrpt", "v": -1}}
		}, "schedulers[1].v"},
		{"negative threshold", func(m map[string]any) {
			m["schedulers"] = []any{map[string]any{"name": "srpt"}, map[string]any{"name": "threshold", "threshold": -5}}
		}, "schedulers[1].threshold"},
		{"negative noise level", func(m map[string]any) {
			m["schedulers"] = []any{map[string]any{"name": "srpt"}, map[string]any{"name": "noisy-basrpt", "noise_level": -0.1}}
		}, "schedulers[1].noise_level"},
		{"negative rounds", func(m map[string]any) {
			m["schedulers"] = []any{map[string]any{"name": "srpt"}, map[string]any{"name": "dist-basrpt", "rounds": -1}}
		}, "schedulers[1].rounds"},
		{"unknown workload pattern", func(m map[string]any) {
			m["workload"] = map[string]any{"pattern": "all-to-all"}
		}, "workload.pattern"},
		{"incast with query share", func(m map[string]any) {
			m["workload"] = map[string]any{"pattern": "incast", "query_byte_fraction": 0.3}
		}, "workload.query_byte_fraction"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseSpec(mutate(t, tc.fn))
			if err == nil {
				t.Fatal("accepted")
			}
			if !errors.Is(err, ErrSpec) {
				t.Fatalf("does not unwrap to ErrSpec: %v", err)
			}
			var se *SpecError
			if !errors.As(err, &se) {
				t.Fatalf("not a *SpecError: %T %v", err, err)
			}
			if se.Field != tc.field {
				t.Fatalf("SpecError.Field = %q, want %q (err: %v)", se.Field, tc.field, err)
			}
		})
	}
}

// TestValidateExactBASRPTPortLimit: a spec that puts exact-basrpt on
// more hosts than its 8-port limit fails validation, naming the entry,
// instead of failing every unit of the grid; 8 hosts pass.
func TestValidateExactBASRPTPortLimit(t *testing.T) {
	parse := func(racks, hpr int) error {
		_, err := ParseSpec(mutate(t, func(m map[string]any) {
			m["topology"] = map[string]any{"racks": racks, "hosts_per_rack": hpr}
			m["schedulers"] = []any{map[string]any{"name": "srpt"}, map[string]any{"name": "exact-basrpt"}}
		}))
		return err
	}
	if err := parse(2, 4); err != nil {
		t.Fatalf("exact-basrpt on 8 hosts rejected: %v", err)
	}
	var se *SpecError
	if err := parse(3, 3); !errors.As(err, &se) || se.Field != "schedulers[1].name" || !strings.Contains(se.Reason, "exceeds limit 8") {
		t.Fatalf("exact-basrpt on 9 hosts: err = %v, want a SpecError on schedulers[1].name naming the 8-port limit", err)
	}
}

func TestCellNamesSweep(t *testing.T) {
	data := mutate(t, func(m map[string]any) {
		m["loads"] = []any{0.3, 0.8}
		m["checks"] = []any{map[string]any{"name": "c", "left": "srpt@30%/gbps", "op": "ge", "value": 0}}
	})
	s := mustParse(t, string(data))
	want := []string{"srpt@30%", "srpt@80%", "fast-basrpt@30%", "fast-basrpt@80%"}
	got := s.CellNames()
	if len(got) != len(want) {
		t.Fatalf("CellNames = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("CellNames[%d] = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestSchedulerLabelOverride(t *testing.T) {
	data := mutate(t, func(m map[string]any) {
		m["schedulers"] = []any{
			map[string]any{"name": "fast-basrpt", "label": "fast-lo", "v": 100},
			map[string]any{"name": "fast-basrpt", "label": "fast-hi", "v": 10000},
		}
		m["checks"] = []any{map[string]any{"name": "c", "left": "fast-lo/gbps", "op": "ge", "right": "fast-hi/gbps"}}
	})
	s := mustParse(t, string(data))
	if got := s.CellNames(); got[0] != "fast-lo" || got[1] != "fast-hi" {
		t.Fatalf("labelled CellNames = %v", got)
	}
}

// TestVSweepExpansion: a v_sweep entry unrolls into one labeled cell per
// V value, usable in check references like any explicit cell.
func TestVSweepExpansion(t *testing.T) {
	data := mutate(t, func(m map[string]any) {
		m["schedulers"] = []any{
			map[string]any{"name": "srpt"},
			map[string]any{"name": "fast-basrpt", "v_sweep": []any{1000, 2500, 10000}},
		}
		m["checks"] = []any{map[string]any{
			"name": "c", "left": "fast-basrpt-v1000/gbps", "op": "ge", "right": "fast-basrpt-v10000/gbps"}}
	})
	s := mustParse(t, string(data))
	want := []string{"srpt", "fast-basrpt-v1000", "fast-basrpt-v2500", "fast-basrpt-v10000"}
	got := s.CellNames()
	if len(got) != len(want) {
		t.Fatalf("CellNames = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("CellNames[%d] = %q, want %q", i, got[i], want[i])
		}
	}
	// The expanded entries carry the swept V into the scheduler options.
	cells := s.schedulerCells()
	if len(cells) != 4 || cells[1].V != 1000 || cells[3].V != 10000 || len(cells[1].VSweep) != 0 {
		t.Fatalf("expanded cells wrong: %+v", cells)
	}
}

func TestVSweepValidation(t *testing.T) {
	cases := []struct {
		name  string
		sched []any
		field string
	}{
		{"v and v_sweep together", []any{
			map[string]any{"name": "fast-basrpt", "v": 2500, "v_sweep": []any{1000, 2500}},
		}, "schedulers[0].v_sweep"},
		{"nonpositive swept v", []any{
			map[string]any{"name": "fast-basrpt", "v_sweep": []any{1000, 0}},
		}, "schedulers[0].v_sweep[1]"},
		{"duplicate swept label", []any{
			map[string]any{"name": "fast-basrpt", "v_sweep": []any{1000, 1000}},
		}, "schedulers[0]"},
		{"sweep collides with explicit label", []any{
			map[string]any{"name": "fast-basrpt", "label": "fast-basrpt-v1000", "v": 1000},
			map[string]any{"name": "fast-basrpt", "v_sweep": []any{1000}},
		}, "schedulers[1]"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			data := mutate(t, func(m map[string]any) {
				m["schedulers"] = tc.sched
				m["checks"] = []any{map[string]any{"name": "c", "left": "srpt/gbps", "op": "ge", "value": 0}}
			})
			_, err := ParseSpec(data)
			var se *SpecError
			if !errors.As(err, &se) {
				t.Fatalf("not a *SpecError: %v", err)
			}
			// The base check references srpt/gbps, which these scheduler
			// mutations removed — so a label-phase error must win first.
			if se.Field != tc.field {
				t.Fatalf("SpecError.Field = %q, want %q (err: %v)", se.Field, tc.field, err)
			}
		})
	}
}

func TestSplitMetricRef(t *testing.T) {
	cases := []struct {
		ref, cell, metric string
		ok                bool
	}{
		{"srpt/gbps", "srpt", "gbps", true},
		{"srpt@30%/query_avg_ms", "srpt@30%", "query_avg_ms", true},
		{"a/b/c", "a", "b/c", true}, // first slash splits
		{"noslash", "", "", false},
		{"/metric", "", "", false},
		{"cell/", "", "", false},
		{"", "", "", false},
	}
	for _, tc := range cases {
		cell, metric, ok := splitMetricRef(tc.ref)
		if cell != tc.cell || metric != tc.metric || ok != tc.ok {
			t.Errorf("splitMetricRef(%q) = (%q, %q, %v), want (%q, %q, %v)",
				tc.ref, cell, metric, ok, tc.cell, tc.metric, tc.ok)
		}
	}
}

// TestCanonicalJSONFormatIndependent: the digest input must not depend on
// the source file's whitespace or key order.
func TestCanonicalJSONFormatIndependent(t *testing.T) {
	a := mustParse(t, validSpecJSON)
	compact := mutate(t, func(m map[string]any) {}) // re-marshal: different formatting, same content
	b := mustParse(t, string(compact))
	aj, err := a.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	bj, err := b.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if string(aj) != string(bj) {
		t.Fatalf("canonical JSON differs across formattings:\n%s\nvs\n%s", aj, bj)
	}
	if !strings.HasSuffix(string(aj), "\n") {
		t.Fatal("canonical JSON missing trailing newline")
	}
}
