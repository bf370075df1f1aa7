package faults

import "testing"

// FuzzFaultSchedule: for arbitrary seeds and parameters, Generate either
// rejects the parameters or produces a schedule whose windows are
// non-negative, inside the horizon, and non-overlapping per class — and
// regenerating with the same parameters reproduces it exactly.
func FuzzFaultSchedule(f *testing.F) {
	f.Add(uint64(1), 10.0, 3, 1, 0.05, 0.5)
	f.Add(uint64(99), 0.001, 16, 8, 0.0, 0.0)
	f.Add(uint64(0), 500.0, 0, 5, 0.9, 1.0)
	f.Add(uint64(2), 500.0, 0, 5, 0.9, 1.0) // the row above, past the seed check
	f.Fuzz(func(t *testing.T, seed uint64, horizon float64, nLink, nOutage int, loss, degraded float64) {
		if nLink > 1024 || nOutage > 1024 {
			t.Skip("fault counts beyond any realistic schedule")
		}
		p := Params{
			Seed:           seed,
			Horizon:        horizon,
			Ports:          8,
			LinkFaults:     nLink,
			Outages:        nOutage,
			PacketLossProb: loss,
			DegradedProb:   degraded,
		}
		s, err := Generate(p)
		if err != nil {
			return // invalid params rejected, nothing to check
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("generated schedule violates invariants: %v\nparams: %+v", err, p)
		}
		s2, err := Generate(p)
		if err != nil {
			t.Fatalf("regeneration failed: %v", err)
		}
		if err := s2.Validate(); err != nil {
			t.Fatal(err)
		}
		if len(s2.LinkFaults) != len(s.LinkFaults) || len(s2.Outages) != len(s.Outages) {
			t.Fatalf("regeneration not deterministic: %+v vs %+v", s, s2)
		}
		for i := range s.LinkFaults {
			if s.LinkFaults[i] != s2.LinkFaults[i] {
				t.Fatalf("link fault %d differs across regenerations", i)
			}
		}
		for i := range s.Outages {
			if s.Outages[i] != s2.Outages[i] {
				t.Fatalf("outage %d differs across regenerations", i)
			}
		}
	})
}
