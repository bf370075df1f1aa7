// Package scenario is the declarative hypothesis harness: experiments
// described as checked-in JSON specs (topology, workload, scheduler grid,
// fault schedule, load sweep, seeds, and checks) that execute on
// internal/runner's worker pool and emit machine-readable findings — a
// schema-versioned findings.json with per-cell mean/stddev/95%-CI and a
// deterministic digest, plus a rendered FINDINGS.md carrying an explicit
// Confirmed/Refuted/Inconclusive status, the controlled and varied
// variables, and the exact reproduction command.
//
// The spec format is JSON, not YAML, because the repository is Go
// standard library only: encoding/json with DisallowUnknownFields gives a
// strict, typed loader for free, while YAML would require a third-party
// parser. Both artifacts are byte-deterministic: the same spec at the
// same seeds renders byte-identical findings at any worker count, which
// is what lets `basrptexp -check` diff regenerated findings against the
// committed ones as a CI regression gate.
package scenario

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"

	"basrpt/internal/sched"
)

// SpecSchema is the spec format identifier every spec must carry. Bump the
// suffix when the spec format changes incompatibly.
const SpecSchema = "basrpt-scenario/1"

// ErrSpec is the sentinel wrapped by every spec validation failure, so
// callers can distinguish "bad spec" from execution errors with
// errors.Is.
var ErrSpec = errors.New("invalid scenario spec")

// SpecError is the typed spec validation failure: the offending field and
// why it was rejected. It unwraps to ErrSpec.
type SpecError struct {
	// Field names the spec field (JSON path) that failed.
	Field string
	// Reason explains the rejection.
	Reason string
}

// Error implements the error interface.
func (e *SpecError) Error() string {
	return fmt.Sprintf("scenario: spec field %q: %s", e.Field, e.Reason)
}

// Unwrap ties SpecError into the ErrSpec sentinel chain.
func (e *SpecError) Unwrap() error { return ErrSpec }

func specErrf(field, format string, args ...any) error {
	return &SpecError{Field: field, Reason: fmt.Sprintf(format, args...)}
}

// Spec is one declarative scenario: the full experimental design of a
// hypothesis. The execution grid is the cross product Schedulers × Loads;
// every cell runs Seeds.Count replicates.
type Spec struct {
	// Schema must equal SpecSchema.
	Schema string `json:"schema"`
	// Name identifies the scenario; the checked-in layout is
	// scenarios/<name>/spec.json and the reproduction command rendered
	// into FINDINGS.md is derived from it.
	Name string `json:"name"`
	// Title is the one-line headline rendered into the findings.
	Title string `json:"title"`
	// Hypothesis is the claim under test, quoted verbatim in FINDINGS.md.
	Hypothesis string `json:"hypothesis"`
	// Topology shapes the fabric.
	Topology TopologySpec `json:"topology"`
	// DurationS is the simulated horizon in seconds.
	DurationS float64 `json:"duration_s"`
	// Workload parameterizes the arrival process.
	Workload WorkloadSpec `json:"workload"`
	// Loads is the per-port offered-load sweep; a single entry makes a
	// non-sweep scenario.
	Loads []float64 `json:"loads"`
	// Schedulers is the discipline axis of the grid.
	Schedulers []SchedulerSpec `json:"schedulers"`
	// Faults, when present, injects the E13-style deterministic fault
	// schedule into every cell and adds the resilience metrics.
	Faults *FaultSpec `json:"faults,omitempty"`
	// Seeds configures the replicate axis.
	Seeds SeedSpec `json:"seeds"`
	// Checks are the machine-checked assertions that decide the findings
	// status.
	Checks []CheckSpec `json:"checks"`
}

// TopologySpec shapes the simulated fabric.
type TopologySpec struct {
	// Racks and HostsPerRack define the scaled multi-rooted tree
	// (paper scale: 12 × 12).
	Racks        int `json:"racks"`
	HostsPerRack int `json:"hosts_per_rack"`
}

// WorkloadSpec parameterizes the arrival process.
type WorkloadSpec struct {
	// Pattern selects the traffic: "" or "mixed" is the paper's Section
	// V-A query/background mix; "incast" is the partition/aggregate
	// pattern of the E14 extension (core.IncastFanout responses per job
	// at core.IncastJobsPerSecond jobs), with Loads setting the
	// rack-local background load under it.
	Pattern string `json:"pattern,omitempty"`
	// QueryByteFraction is the share of offered bytes carried by 20KB
	// queries; 0 selects the harness default. Mixed pattern only.
	QueryByteFraction float64 `json:"query_byte_fraction,omitempty"`
}

// Workload patterns (WorkloadSpec.Pattern).
const (
	PatternMixed  = "mixed"
	PatternIncast = "incast"
)

// incast reports whether the spec runs the partition/aggregate pattern.
func (w WorkloadSpec) incast() bool { return w.Pattern == PatternIncast }

// SchedulerSpec selects one discipline from the sched registry with its
// parameters.
type SchedulerSpec struct {
	// Name is the sched registry identifier (sched.Names).
	Name string `json:"name"`
	// Label overrides the cell-name prefix when one registry discipline
	// appears more than once (e.g. fast-basrpt at two V values); empty
	// selects Name.
	Label string `json:"label,omitempty"`
	// V, Threshold, NoiseLevel, and Rounds are the discipline parameters
	// (zero selects the registry defaults; negative values are rejected).
	V          float64 `json:"v,omitempty"`
	Threshold  float64 `json:"threshold,omitempty"`
	NoiseLevel float64 `json:"noise_level,omitempty"`
	Rounds     int     `json:"rounds,omitempty"`
	// VSweep unrolls this entry into one grid cell per V value, labeled
	// "<label>-v<V>" — the declarative form of the paper's Figures 7/8
	// tradeoff sweep. Mutually exclusive with V.
	VSweep []float64 `json:"v_sweep,omitempty"`
}

// FaultSpec configures the deterministic fault schedule injected into
// every cell.
type FaultSpec struct {
	// LinkFaults and Outages count the schedule's fault windows.
	LinkFaults int `json:"link_faults"`
	Outages    int `json:"outages"`
	// Seed draws the schedule; 0 derives it from each replicate seed so
	// the schedule varies with the workload across replicates, a fixed
	// value pins one schedule across all replicates.
	Seed uint64 `json:"seed,omitempty"`
}

// SeedSpec configures the replicate axis.
type SeedSpec struct {
	// Count is the number of independent replicates (>= 1).
	Count int `json:"count"`
	// Root seeds the splitmix64 replicate derivation (0 selects 1).
	Root uint64 `json:"root,omitempty"`
}

// CheckSpec is one machine-checked assertion over the aggregated metrics.
// Left and Right name metrics as "<cell>/<metric>" (see Spec.CellNames);
// Value replaces Right with a constant. Comparisons are between replicate
// means with the combined 95%-CI half-widths as the decisiveness margin —
// see the package documentation of Op values in check.go.
type CheckSpec struct {
	// Name labels the check in the findings.
	Name string `json:"name"`
	// Left is the left-hand metric ("cell/metric").
	Left string `json:"left"`
	// Op is the comparison: gt, lt (decisive only outside the CI margin),
	// ge, le (pass unless decisively violated), or eq (pass within
	// tolerance + margin).
	Op string `json:"op"`
	// Right is the right-hand metric; mutually exclusive with Value.
	Right string `json:"right,omitempty"`
	// Value is the right-hand constant; mutually exclusive with Right.
	Value *float64 `json:"value,omitempty"`
	// Tolerance widens eq checks (absolute units of the metric).
	Tolerance float64 `json:"tolerance,omitempty"`
	// Paired compares per-replicate differences instead of marginal
	// means: replicate i of the left metric ran the identical arrival
	// stream as replicate i of the right metric, so the decisiveness
	// margin is the 95%-CI of the paired differences — the repository's
	// primary methodology, immune to cross-seed workload dispersion.
	// Metric-vs-metric checks only.
	Paired bool `json:"paired,omitempty"`
}

// checkOps are the valid CheckSpec.Op values.
var checkOps = map[string]bool{"gt": true, "lt": true, "ge": true, "le": true, "eq": true}

// LoadSpec parses and validates one spec file. All failures — unreadable
// file, malformed or unknown-field JSON, semantic violations — unwrap to
// ErrSpec except the I/O error of a missing file.
func LoadSpec(path string) (*Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("scenario: read spec: %w", err)
	}
	return ParseSpec(data)
}

// ParseSpec parses and validates spec bytes. Unknown fields are rejected:
// a typo'd knob must fail loudly, not silently run the default
// experiment.
func ParseSpec(data []byte) (*Spec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return nil, specErrf("json", "%v", err)
	}
	// Trailing non-whitespace after the spec object is a malformed file,
	// not a second document.
	if dec.More() {
		return nil, specErrf("json", "trailing data after spec object")
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// Validate checks the spec's semantic constraints. It is called by
// ParseSpec; programmatically built specs should call it before Execute.
func (s *Spec) Validate() error {
	if s.Schema != SpecSchema {
		return specErrf("schema", "got %q, want %q", s.Schema, SpecSchema)
	}
	if s.Name == "" {
		return specErrf("name", "empty")
	}
	for _, r := range s.Name {
		if !(r >= 'a' && r <= 'z' || r >= '0' && r <= '9' || r == '-') {
			return specErrf("name", "%q: only [a-z0-9-] allowed (it names the scenarios/ directory)", s.Name)
		}
	}
	if s.Title == "" {
		return specErrf("title", "empty")
	}
	if s.Hypothesis == "" {
		return specErrf("hypothesis", "empty")
	}
	if s.Topology.Racks < 1 {
		return specErrf("topology.racks", "%d < 1", s.Topology.Racks)
	}
	if s.Topology.HostsPerRack < 1 {
		return specErrf("topology.hosts_per_rack", "%d < 1", s.Topology.HostsPerRack)
	}
	if s.DurationS <= 0 {
		return specErrf("duration_s", "%g <= 0", s.DurationS)
	}
	switch s.Workload.Pattern {
	case "", PatternMixed, PatternIncast:
	default:
		return specErrf("workload.pattern", "unknown pattern %q (valid: %s, %s)",
			s.Workload.Pattern, PatternMixed, PatternIncast)
	}
	if s.Workload.QueryByteFraction < 0 || s.Workload.QueryByteFraction >= 1 {
		return specErrf("workload.query_byte_fraction", "%g outside [0, 1)", s.Workload.QueryByteFraction)
	}
	if s.Workload.incast() && s.Workload.QueryByteFraction != 0 {
		return specErrf("workload.query_byte_fraction",
			"the incast pattern has no query share (its responses are the query class)")
	}
	if len(s.Loads) == 0 {
		return specErrf("loads", "empty")
	}
	for i, l := range s.Loads {
		if l <= 0 || l >= 1 {
			return specErrf(fmt.Sprintf("loads[%d]", i), "%g outside (0, 1)", l)
		}
	}
	if len(s.Schedulers) == 0 {
		return specErrf("schedulers", "empty")
	}
	hosts := s.Topology.Racks * s.Topology.HostsPerRack
	for i, sc := range s.Schedulers {
		probe, err := sched.New(sc.Name, sched.Options{})
		if err != nil {
			return specErrf(fmt.Sprintf("schedulers[%d].name", i),
				"unknown scheduler %q (valid: %v)", sc.Name, sched.Names())
		}
		if err := sched.CheckPorts(probe, hosts); err != nil {
			return specErrf(fmt.Sprintf("schedulers[%d].name", i), "%v", err)
		}
		// Zero selects a registry default and a negative value means
		// nothing. Rejecting it here fails the spec before the grid
		// starts, not inside it; a negative threshold would not fail at
		// all, since every backlog exceeds it, which is MaxWeight.
		for _, p := range []struct {
			field string
			value float64
		}{{"v", sc.V}, {"threshold", sc.Threshold}, {"noise_level", sc.NoiseLevel}, {"rounds", float64(sc.Rounds)}} {
			if p.value < 0 {
				return specErrf(fmt.Sprintf("schedulers[%d].%s", i, p.field), "%g < 0", p.value)
			}
		}
		if len(sc.VSweep) > 0 {
			if sc.V != 0 {
				return specErrf(fmt.Sprintf("schedulers[%d].v_sweep", i),
					"mutually exclusive with v (the sweep sets V per cell)")
			}
			for j, v := range sc.VSweep {
				if v <= 0 {
					return specErrf(fmt.Sprintf("schedulers[%d].v_sweep[%d]", i, j), "%g <= 0", v)
				}
			}
		}
	}
	// Duplicate labels are checked over the EXPANDED axis, so a v_sweep
	// entry cannot collide with an explicit "<label>-v<V>" cell either.
	labels := map[string]bool{}
	for i, sc := range s.Schedulers {
		for _, e := range sc.expand() {
			if labels[e.CellLabel()] {
				return specErrf(fmt.Sprintf("schedulers[%d]", i),
					"duplicate cell label %q (set a distinct label)", e.CellLabel())
			}
			labels[e.CellLabel()] = true
		}
	}
	if s.Faults != nil {
		if s.Faults.LinkFaults < 0 || s.Faults.Outages < 0 {
			return specErrf("faults", "negative fault counts")
		}
		if s.Faults.LinkFaults+s.Faults.Outages == 0 {
			return specErrf("faults", "present but schedules no faults (drop the block instead)")
		}
	}
	if s.Seeds.Count < 1 {
		return specErrf("seeds.count", "%d < 1", s.Seeds.Count)
	}
	if len(s.Checks) == 0 {
		return specErrf("checks", "empty: a scenario with nothing to check is a table, not a hypothesis")
	}
	metricCells := map[string]bool{}
	for _, name := range s.CellNames() {
		metricCells[name] = true
	}
	for i, c := range s.Checks {
		field := func(f string) string { return fmt.Sprintf("checks[%d].%s", i, f) }
		if c.Name == "" {
			return specErrf(field("name"), "empty")
		}
		if !checkOps[c.Op] {
			return specErrf(field("op"), "unknown op %q (valid: eq ge gt le lt)", c.Op)
		}
		if (c.Right == "") == (c.Value == nil) {
			return specErrf(field("right"), "exactly one of right (a metric) or value (a constant) must be set")
		}
		if c.Tolerance < 0 {
			return specErrf(field("tolerance"), "%g < 0", c.Tolerance)
		}
		if c.Tolerance > 0 && c.Op != "eq" {
			return specErrf(field("tolerance"), "only eq checks take a tolerance")
		}
		if c.Paired && c.Right == "" {
			return specErrf(field("paired"), "paired checks compare two metrics, not a metric against a constant")
		}
		for _, side := range []struct{ field, ref string }{{"left", c.Left}, {"right", c.Right}} {
			if side.ref == "" {
				continue
			}
			cell, _, ok := splitMetricRef(side.ref)
			if !ok {
				return specErrf(field(side.field), "metric reference %q is not \"cell/metric\"", side.ref)
			}
			if !metricCells[cell] {
				return specErrf(field(side.field), "reference %q names no grid cell (cells: %v)", side.ref, s.CellNames())
			}
		}
	}
	return nil
}

// CellLabel is the scheduler's cell-name prefix: Label when set, the
// registry name otherwise.
func (sc SchedulerSpec) CellLabel() string {
	if sc.Label != "" {
		return sc.Label
	}
	return sc.Name
}

// expand returns the grid entries this spec line contributes: itself
// when there is no sweep, else one entry per swept V value with the
// label "<label>-v<V>".
func (sc SchedulerSpec) expand() []SchedulerSpec {
	if len(sc.VSweep) == 0 {
		return []SchedulerSpec{sc}
	}
	out := make([]SchedulerSpec, 0, len(sc.VSweep))
	for _, v := range sc.VSweep {
		e := sc
		e.VSweep = nil
		e.V = v
		e.Label = fmt.Sprintf("%s-v%g", sc.CellLabel(), v)
		out = append(out, e)
	}
	return out
}

// schedulerCells is the expanded scheduler axis of the grid: v_sweep
// entries unroll into one cell per V value, everything else passes
// through unchanged.
func (s *Spec) schedulerCells() []SchedulerSpec {
	var cells []SchedulerSpec
	for _, sc := range s.Schedulers {
		cells = append(cells, sc.expand()...)
	}
	return cells
}

// CellNames returns the grid's cell names in execution order
// (scheduler-major, load-minor): "<label>" for a single-load spec,
// "<label>@<P>%" per load point of a sweep, with P the load × 100
// rendered by %g. v_sweep entries contribute one "<label>-v<V>" cell
// per swept value.
func (s *Spec) CellNames() []string {
	var names []string
	for _, sc := range s.schedulerCells() {
		for _, load := range s.Loads {
			names = append(names, s.cellName(sc, load))
		}
	}
	return names
}

func (s *Spec) cellName(sc SchedulerSpec, load float64) string {
	if len(s.Loads) == 1 {
		return sc.CellLabel()
	}
	return fmt.Sprintf("%s@%g%%", sc.CellLabel(), load*100)
}

// splitMetricRef splits "cell/metric" at the FIRST slash: cell names
// never contain one, metric names may ("srpt/recovery_s" style samples
// never reach here — scenario cells flatten to single-level names).
func splitMetricRef(ref string) (cell, metric string, ok bool) {
	for i := 0; i < len(ref); i++ {
		if ref[i] == '/' {
			if i == 0 || i == len(ref)-1 {
				return "", "", false
			}
			return ref[:i], ref[i+1:], true
		}
	}
	return "", "", false
}

// CanonicalJSON renders the spec in its canonical serialized form — the
// bytes the spec digest is computed over, independent of the formatting
// of the file it was loaded from.
func (s *Spec) CanonicalJSON() ([]byte, error) {
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("scenario: marshal spec: %w", err)
	}
	return append(b, '\n'), nil
}
