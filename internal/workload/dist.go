// Package workload generates the paper's evaluation traffic (Section V-A):
// fixed-size 20KB query/response flows with uniformly random destinations
// across the whole fabric, and rack-local background flows whose sizes
// follow the heavy-tailed distributions published in the DCTCP measurement
// study [1] and the data-mining study [16]. Arrivals are Poisson, and flow
// rates are calibrated so each ingress/egress port carries a chosen
// fraction of its access-link capacity.
package workload

import "basrpt/internal/stats"

// Packet is the reference packet size (bytes) used to convert the published
// packet-denominated CDFs to bytes.
const Packet = 1460.0

// QueryBytes is the paper's fixed query/response flow size: 20 KB.
const QueryBytes = 20e3

// WebSearchBytes returns the DCTCP web-search flow-size distribution
// (Alizadeh et al., reference [1] of the paper) as an empirical CDF over
// bytes. This is the distribution the paper cites for background flow
// sizes: heavy-tailed, with >95% of bytes carried by the 1–20MB tail and
// everything within a ~30MB bound.
//
// Substitution note (DESIGN.md §2): the original is a measured trace; the
// knots below are the published CDF table used by the pFabric simulation
// suite, expressed in 1460-byte packets.
func WebSearchBytes() *stats.EmpiricalCDF {
	return stats.MustEmpiricalCDF(scalePackets([]stats.CDFPoint{
		{Value: 1, Prob: 0},
		{Value: 6, Prob: 0.15},
		{Value: 13, Prob: 0.30},
		{Value: 19, Prob: 0.45},
		{Value: 33, Prob: 0.60},
		{Value: 53, Prob: 0.70},
		{Value: 133, Prob: 0.80},
		{Value: 667, Prob: 0.90},
		{Value: 1333, Prob: 0.95},
		{Value: 3333, Prob: 0.98},
		{Value: 6667, Prob: 0.99},
		{Value: 20000, Prob: 1},
	}))
}

// DataMiningBytes returns the VL2/data-mining flow-size distribution
// (Kandula et al., reference [16] of the paper) as an empirical CDF over
// bytes: ~80% of flows below 10KB, with a multi-hundred-MB elephant tail.
func DataMiningBytes() *stats.EmpiricalCDF {
	return stats.MustEmpiricalCDF(scalePackets([]stats.CDFPoint{
		{Value: 1, Prob: 0},
		{Value: 2, Prob: 0.50},
		{Value: 3, Prob: 0.60},
		{Value: 5, Prob: 0.70},
		{Value: 7, Prob: 0.80},
		{Value: 267, Prob: 0.90},
		{Value: 2107, Prob: 0.95},
		{Value: 66667, Prob: 0.99},
		{Value: 666667, Prob: 1},
	}))
}

func scalePackets(points []stats.CDFPoint) []stats.CDFPoint {
	out := make([]stats.CDFPoint, len(points))
	for i, p := range points {
		out[i] = stats.CDFPoint{Value: p.Value * Packet, Prob: p.Prob}
	}
	return out
}
