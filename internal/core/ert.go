package core

import (
	"math"
	"sort"

	"avgi/internal/campaign"
	"avgi/internal/cpu"
)

// ERT is a structure's effective-residency-time stop rule (Section V.A):
// the pessimistic window after fault injection within which any
// architecturally visible manifestation of a fault in that structure
// occurs. Deep-pipeline queue structures (ROB/LQ/SQ) scale with program
// length, so their window is a fraction of total execution; everything
// else uses an absolute cycle count.
type ERT struct {
	// Cycles is the absolute window (valid when !Relative).
	Cycles uint64
	// Frac is the window as a fraction of the workload's total cycles
	// (valid when Relative).
	Frac float64
	// Relative selects between the two forms.
	Relative bool
}

// Window resolves the stop window in cycles for a workload of the given
// total length.
func (e ERT) Window(totalCycles uint64) uint64 {
	if e.Relative {
		w := uint64(e.Frac * float64(totalCycles))
		if w == 0 {
			w = 1
		}
		return w
	}
	return e.Cycles
}

// ertSafety is the default pessimism margin applied on top of the largest
// observed manifestation latency, mirroring the paper's choice of "most
// pessimistic cases paying the price of a bit longer simulation time".
const ertSafety = 1.25

// DeriveERT computes the per-structure windows from HVF (or exhaustive)
// training campaigns with the default safety margin.
func DeriveERT(data map[string]map[string][]campaign.Result, totalCycles map[string]uint64) map[string]ERT {
	return DeriveERTMargin(data, totalCycles, ertSafety)
}

// ertPercentile is the quantile of manifestation latencies the window must
// cover before the safety margin is applied. The paper uses the most
// pessimistic observed case; at this reproduction's scale (workloads of
// 10k-200k cycles instead of 100M-2.2B) a single outlier latency can reach
// a significant fraction of the whole program, so the window covers the
// 99.5th percentile and the margin on top — any residual long-tail
// manifestations read as benign, an error bounded well inside the
// campaign's statistical margin.
const ertPercentile = 0.995

// DeriveERTMargin is DeriveERT with an explicit safety margin, exposed for
// the accuracy-versus-speed ablation: a margin below 1.0 trades IMM
// coverage (late manifestations get cut off and misread as benign) for
// shorter simulations. data[structure][workload] holds results with
// manifestation latencies; totalCycles maps workload to its golden length.
func DeriveERTMargin(data map[string]map[string][]campaign.Result, totalCycles map[string]uint64, margin float64) map[string]ERT {
	if margin <= 0 {
		margin = ertSafety
	}
	out := make(map[string]ERT)
	for structure, perWorkload := range data {
		var lats []uint64
		var fracs []float64
		for workload, results := range perWorkload {
			tc := totalCycles[workload]
			for _, r := range results {
				if !r.Manifested {
					continue
				}
				lats = append(lats, r.ManifestLatency)
				if tc > 0 {
					fracs = append(fracs, float64(r.ManifestLatency)/float64(tc))
				}
			}
		}
		// A queue's residency scales with execution length (the paper's
		// "3% of total cycles" rows of Table II).
		if s, _ := cpu.StructureNamed(structure); s.Queue {
			frac := quantileF(fracs, ertPercentile) * margin
			if frac == 0 {
				frac = 0.03 // the paper's default when unobserved
			}
			if frac > 1 {
				frac = 1
			}
			out[structure] = ERT{Frac: frac, Relative: true}
		} else {
			cyc := uint64(float64(quantileU(lats, ertPercentile)) * margin)
			if cyc == 0 {
				cyc = 1000
			}
			out[structure] = ERT{Cycles: cyc}
		}
	}
	return out
}

// The quantile index rounds up, so small samples degrade gracefully to the
// maximum (full pessimism) and only genuinely large campaigns trim the
// outlier tail.
func quantileU(xs []uint64, p float64) uint64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	return xs[quantIdx(len(xs), p)]
}

func quantileF(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	return xs[quantIdx(len(xs), p)]
}

func quantIdx(n int, p float64) int {
	idx := int(math.Ceil(p * float64(n-1)))
	if idx >= n {
		idx = n - 1
	}
	return idx
}

// LatencyPercentile returns the p-quantile (0..1) of manifestation
// latencies in results — the measurement behind the Fig. 9 residency
// illustration.
func LatencyPercentile(results []campaign.Result, p float64) uint64 {
	var lats []uint64
	for _, r := range results {
		if r.Manifested {
			lats = append(lats, r.ManifestLatency)
		}
	}
	if len(lats) == 0 {
		return 0
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	// quantIdx (round up), not int(p*(n-1)) (truncate): the ERT
	// derivation indexes its latency samples with quantIdx, so the
	// measurement reported here must select the same sample — on small
	// campaigns truncation under-reports the latency the derived window
	// actually covers.
	return lats[quantIdx(len(lats), p)]
}
