package runner

import (
	"strings"
	"testing"
)

// TestPoisonedSeedFailsRunWithContext: one panicking replicate is
// recovered into a per-seed error instead of crashing the pool; the run
// then returns no aggregate, and the error names the task, the seed, the
// panic value, and the stack.
func TestPoisonedSeedFailsRunWithContext(t *testing.T) {
	const seeds = 5
	poison := DeriveSeed(9, 2)
	task := Task{
		Name: "soak",
		Run: func(seed uint64) (Sample, error) {
			if seed == poison {
				panic("index out of range [3] with length 2")
			}
			return Sample{"v": float64(seed % 10)}, nil
		},
	}
	agg, err := Run(Config{Seeds: seeds, Parallel: 3, RootSeed: 9}, []Task{task})
	if err == nil {
		t.Fatal("poisoned seed reported no error")
	}
	msg := err.Error()
	for _, want := range []string{
		`task "soak"`,
		"seed " + itoa(poison),
		"panic: index out of range",
		"runner.TestPoisonedSeedFailsRunWithContext", // stack frame
	} {
		if !strings.Contains(msg, want) {
			t.Errorf("error lacks %q:\n%s", want, msg)
		}
	}
	if agg != nil {
		t.Fatalf("a failed unit still returned an aggregate: %+v", agg.Metrics)
	}
}

func itoa(v uint64) string {
	if v == 0 {
		return "0"
	}
	var b [20]byte
	i := len(b)
	for v > 0 {
		i--
		b[i] = byte('0' + v%10)
		v /= 10
	}
	return string(b[i:])
}
