package basrpt

// The experiments are regenerated by their own commands, not by Go
// benchmarks: the fabric ones by `go run ./cmd/basrptexp -check` (the
// scenarios/ specs), the theory ones by `go run ./cmd/basrptbench`, and
// the simulator's performance by `bash bench/run.sh`. What stays here is
// the scheduler microbenchmark.

import (
	"testing"
)

// BenchmarkSchedulerDecision measures the raw per-decision cost of the two
// main disciplines on a loaded 24-port fabric — the quantity that bounds
// simulator event throughput.
func BenchmarkSchedulerDecision(b *testing.B) {
	for _, tc := range []struct {
		name  string
		sched Scheduler
	}{
		{"srpt", NewSRPT()},
		{"fast-basrpt", NewFastBASRPT(DefaultV)},
		{"maxweight", NewMaxWeight()},
	} {
		b.Run(tc.name, func(b *testing.B) {
			tab := buildBenchTable(24, 200)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if d := tc.sched.Schedule(tab); len(d) == 0 {
					b.Fatal("empty decision")
				}
			}
		})
	}
}
