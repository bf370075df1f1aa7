package topology

import (
	"errors"
	"testing"
)

func TestPaperTopology(t *testing.T) {
	top := MustNew(Paper())
	if got := top.NumHosts(); got != 144 {
		t.Fatalf("NumHosts = %d, want 144", got)
	}
	if got := top.Config().Racks; got != 12 {
		t.Fatalf("Racks = %d, want 12", got)
	}
	if err := top.ValidateNonBlocking(); err != nil {
		t.Fatalf("paper topology should be non-blocking: %v", err)
	}
	if got := top.HostLinkBps(); got != 10e9 {
		t.Fatalf("HostLinkBps = %g, want 10e9", got)
	}
	// 12 hosts x 10G = 120G edge vs 3 x 40G = 120G uplink: exactly 1.
	if got := top.Oversubscription(); got != 1 {
		t.Fatalf("Oversubscription = %g, want 1", got)
	}
}

func TestRackMapping(t *testing.T) {
	top := MustNew(Paper())
	if got := top.RackOf(0); got != 0 {
		t.Fatalf("RackOf(0) = %d", got)
	}
	if got := top.RackOf(11); got != 0 {
		t.Fatalf("RackOf(11) = %d, want 0", got)
	}
	if got := top.RackOf(12); got != 1 {
		t.Fatalf("RackOf(12) = %d, want 1", got)
	}
	if got := top.RackOf(143); got != 11 {
		t.Fatalf("RackOf(143) = %d, want 11", got)
	}
	if !top.SameRack(12, 23) || top.SameRack(11, 12) {
		t.Fatal("SameRack wrong at rack boundary")
	}
	hosts := top.HostsInRack(1)
	if len(hosts) != 12 || hosts[0] != 12 || hosts[11] != 23 {
		t.Fatalf("HostsInRack(1) = %v", hosts)
	}
}

func TestRackOfPanicsOutOfRange(t *testing.T) {
	top := MustNew(Paper())
	for _, host := range []int{-1, 144} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("RackOf(%d) did not panic", host)
				}
			}()
			top.RackOf(host)
		}()
	}
	defer func() {
		if recover() == nil {
			t.Fatal("HostsInRack(-1) did not panic")
		}
	}()
	top.HostsInRack(-1)
}

func TestNewValidation(t *testing.T) {
	bad := []Config{
		{},
		{Racks: 1, HostsPerRack: 1, Cores: 0, HostLinkGbps: 1, CoreLinkGbps: 1},
		{Racks: 1, HostsPerRack: 1, Cores: 1, HostLinkGbps: 0, CoreLinkGbps: 1},
		{Racks: -1, HostsPerRack: 1, Cores: 1, HostLinkGbps: 1, CoreLinkGbps: 1},
		{Racks: 1, HostsPerRack: 1, Cores: 1, HostLinkGbps: 1, CoreLinkGbps: 1, CoreHopLatencyS: -1e-6},
	}
	for i, cfg := range bad {
		_, err := New(cfg)
		if err == nil {
			t.Fatalf("config %d accepted: %+v", i, cfg)
		}
		if !errors.Is(err, ErrDimension) {
			t.Fatalf("config %d: error %v is not ErrDimension", i, err)
		}
	}
}

func TestCoreHopLatency(t *testing.T) {
	top := MustNew(Paper())
	if got := top.CoreHopLatency(); got != DefaultCoreHopLatencyS {
		t.Fatalf("CoreHopLatency = %g, want default %g", got, DefaultCoreHopLatencyS)
	}
	if got := top.Config().CoreHopLatencyS; got != DefaultCoreHopLatencyS {
		t.Fatalf("Config().CoreHopLatencyS = %g, want resolved default", got)
	}
	cfg := Paper()
	cfg.CoreHopLatencyS = 5e-6
	top = MustNew(cfg)
	if got := top.CoreHopLatency(); got != 5e-6 {
		t.Fatalf("CoreHopLatency = %g, want 5e-6", got)
	}
}

func TestScaledLargeHostCounts(t *testing.T) {
	// The sharded simulator targets 4096+ hosts; Scaled must stay
	// non-blocking and well-formed at that size.
	cfg := Scaled(344, 12)
	top := MustNew(cfg)
	if got := top.NumHosts(); got != 4128 {
		t.Fatalf("NumHosts = %d, want 4128", got)
	}
	if err := top.ValidateNonBlocking(); err != nil {
		t.Fatalf("4k-host Scaled blocking: %v", err)
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustNew with bad config did not panic")
		}
	}()
	MustNew(Config{})
}

func TestBlockingDetection(t *testing.T) {
	cfg := Paper()
	cfg.Cores = 1 // 120G edge vs 40G uplink: blocking
	top := MustNew(cfg)
	if err := top.ValidateNonBlocking(); !errors.Is(err, ErrBlocking) {
		t.Fatalf("blocking fabric not detected: %v", err)
	}
}

func TestScaledKeepsNonBlocking(t *testing.T) {
	for _, dims := range [][2]int{{2, 2}, {3, 4}, {6, 12}, {12, 12}, {4, 20}} {
		cfg := Scaled(dims[0], dims[1])
		top := MustNew(cfg)
		if err := top.ValidateNonBlocking(); err != nil {
			t.Fatalf("Scaled(%d,%d) blocking: %v", dims[0], dims[1], err)
		}
		if top.NumHosts() != dims[0]*dims[1] {
			t.Fatalf("Scaled(%d,%d) hosts = %d", dims[0], dims[1], top.NumHosts())
		}
	}
}
