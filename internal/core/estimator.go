package core

import (
	"avgi/internal/campaign"
	"avgi/internal/imm"
)

// AVF is a final cross-layer vulnerability breakdown: the probability that
// a uniformly random single-bit fault in a structure is Masked, causes an
// SDC, or causes a Crash. Masked includes hardware-masked (benign) faults,
// so AVF = SDC + Crash.
type AVF struct {
	Masked float64
	SDC    float64
	Crash  float64
}

// Total returns SDC + Crash — the classical AVF scalar.
func (a AVF) Total() float64 { return a.SDC + a.Crash }

// AVFFromEffects converts exhaustive-campaign effect counts into an AVF.
func AVFFromEffects(s campaign.Summary) AVF {
	if s.Total == 0 {
		return AVF{}
	}
	t := float64(s.Total)
	return AVF{
		Masked: float64(s.ByEffect[imm.Masked]) / t,
		SDC:    float64(s.ByEffect[imm.SDC]) / t,
		Crash:  float64(s.ByEffect[imm.Crash]) / t,
	}
}

// Estimator is the trained AVGI methodology: IMM weights, the ESC model
// and the ERT windows. Train builds one from exhaustive campaigns on
// training workloads; Assess then evaluates new workloads with short AVGI
// runs only.
type Estimator struct {
	Weights *Weights
	ESC     *ESCModel
	ERT     map[string]ERT
}

// TrainingData bundles the exhaustive campaigns used for training.
type TrainingData struct {
	// Results[structure][workload] holds ModeExhaustive campaign
	// results.
	Results map[string]map[string][]campaign.Result
	// OutputSize maps workload name to golden output bytes.
	OutputSize map[string]int
	// TotalCycles maps workload name to golden cycle count.
	TotalCycles map[string]uint64
	// Exposure[structure][workload] is the golden run's dirty-output
	// occupancy fraction (campaign.Runner.OutputExposure).
	Exposure map[string]map[string]float64
}

// Train fits all three components from ground-truth campaigns.
func Train(td TrainingData) *Estimator {
	return TrainWithMargin(td, 0)
}

// TrainWithMargin is Train with an explicit ERT safety margin (0 uses the
// default), exposed for the accuracy-versus-speed ablation.
func TrainWithMargin(td TrainingData, margin float64) *Estimator {
	return &Estimator{
		Weights: TrainWeights(td.Results),
		ESC:     TrainESC(td.Results, td.Exposure),
		ERT:     DeriveERTMargin(td.Results, td.TotalCycles, margin),
	}
}

// Assessment is the output of the five-phase AVGI flow for one
// (structure, workload) pair.
type Assessment struct {
	Structure string
	Workload  string

	// Faults is the campaign size (no pruning — every sampled fault is
	// individually simulated, preserving statistical significance).
	Faults int

	// IMMCounts is the phase-3 classification (Benign included).
	IMMCounts map[imm.IMM]int

	// PredictedESC is the phase-4 escaped-fault estimate.
	PredictedESC float64

	// AVF is the phase-5 final cross-layer vulnerability.
	AVF AVF

	// SimCycles is the total post-injection simulated cycles consumed —
	// the cost the Table II speedups compare.
	SimCycles uint64

	// Window is the ERT stop window used.
	Window uint64
}

// Assess runs phases 1–5 of the methodology for one structure of one
// workload: generate the fault list (phase 1), simulate each fault on the
// detailed machine until its first software manifestation or the ERT stop
// (phase 2), classify manifestations into IMMs (phase 3), apply the
// per-structure weights and the ESC correction (phase 4), and produce the
// final AVF (phase 5).
func (e *Estimator) Assess(r *campaign.Runner, structure string, n int, seedBase int64, workers int) Assessment {
	faults := r.FaultList(structure, n, seedBase)
	window := e.WindowFor(structure, r.Golden.Cycles)
	results := r.Run(faults, campaign.ModeAVGI, window, workers)
	return e.AssessResults(r, structure, results, window)
}

// WindowFor resolves the ERT stop window for a structure on a workload
// with the given golden length.
func (e *Estimator) WindowFor(structure string, goldenCycles uint64) uint64 {
	ert, ok := e.ERT[structure]
	if !ok {
		return goldenCycles // no window: degenerate to HVF
	}
	return ert.Window(goldenCycles)
}

// AssessResults applies phases 4 and 5 to already-simulated AVGI results
// (used when the caller wants the raw results too).
func (e *Estimator) AssessResults(r *campaign.Runner, structure string, results []campaign.Result, window uint64) Assessment {
	s := campaign.Summarize(results)
	a := Assessment{
		Structure: structure,
		Workload:  r.Prog.Name,
		Faults:    s.Total,
		IMMCounts: s.ByIMM,
		SimCycles: s.SimCycles,
		Window:    window,
	}
	if s.Total == 0 {
		return a
	}

	// Phase 4: effect classification through the per-structure weights.
	// Summed in a fixed class order, never map order: float addition is
	// not associative, and the same results must give the same AVF bits.
	var masked, sdc, crash float64
	add := func(class imm.IMM) {
		count := float64(s.ByIMM[class])
		p := e.Weights.Lookup(structure, class)
		masked += count * p[imm.Masked]
		sdc += count * p[imm.SDC]
		crash += count * p[imm.Crash]
	}
	add(imm.Benign)
	for _, class := range imm.Classes {
		add(class)
	}

	// Phase 4b: ESC correction — a predicted share of the benign faults
	// escaped through dirty output lines and become SDCs.
	esc := e.ESC.Predict(structure, r.OutputExposure[structure], s.Total, s.Benign)
	if esc > masked {
		esc = masked
	}
	a.PredictedESC = esc
	masked -= esc
	sdc += esc

	// Phase 5: final cross-layer AVF.
	t := float64(s.Total)
	a.AVF = AVF{Masked: masked / t, SDC: sdc / t, Crash: crash / t}
	return a
}
