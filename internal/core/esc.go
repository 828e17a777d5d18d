package core

import (
	"avgi/internal/campaign"
	"avgi/internal/cpu"
	"avgi/internal/imm"
)

// ESCShape evaluates the paper's empirical equation without its
// calibration constant:
//
//	shape = (OutputSize/1KiB) × (Total − Benign) / (Total + Benign)²
//
// The paper derived it for its setup (multi-MB outputs over MB-scale
// caches), where output size is the dominant driver of escape
// probability. It is kept for reference and comparison; this
// reproduction's calibrated predictor below uses the golden run's
// measured dirty-output exposure instead, which is the same quantity the
// equation approximates (see DESIGN.md §5 and the esc tests).
func ESCShape(outputBytes int, total, benign int) float64 {
	if total+benign == 0 {
		return 0
	}
	outKB := float64(outputBytes) / 1024
	t, b := float64(total), float64(benign)
	return outKB * (t - b) / ((t + b) * (t + b))
}

// ESCModel predicts escaped-fault counts per structure from the golden
// run's output-exposure profile: the average fraction of the array holding
// dirty output-bound data. A uniform fault sample of size N is expected to
// land on in-flight output N×exposure times; the per-structure constant C
// calibrates how often such a hit survives to the output (not overwritten,
// not re-read) — learned from training workloads.
type ESCModel struct {
	// C is the calibration constant per structure (0 for structures
	// where ESC is impossible).
	C map[string]float64
}

// TrainESC fits the calibration constants. data[structure][workload]
// holds exhaustive results; exposure[structure][workload] the golden-run
// dirty-output occupancy fraction.
func TrainESC(data map[string]map[string][]campaign.Result, exposure map[string]map[string]float64) *ESCModel {
	m := &ESCModel{C: make(map[string]float64)}
	for structure, perWorkload := range data {
		// Escaped faults occur only in the cache arrays that hold data on
		// its way to the program output (Section IV.D); faults anywhere
		// else always pass through the program trace first.
		if s, _ := cpu.StructureNamed(structure); !s.ESC {
			continue
		}
		var realSum, shapeSum float64
		for workload, results := range perWorkload {
			s := campaign.Summarize(results)
			realSum += float64(s.ByIMM[imm.ESC])
			shapeSum += exposure[structure][workload] * float64(s.Total)
		}
		if shapeSum > 0 {
			m.C[structure] = realSum / shapeSum
		}
	}
	return m
}

// Predict returns the expected number of ESC faults (which all manifest as
// SDC when they hit output data, Section IV.D) in a campaign of total
// faults given the workload's exposure fraction for this structure. The
// prediction is clamped to the benign count, since ESC faults are drawn
// from the benign population.
func (m *ESCModel) Predict(structure string, exposure float64, total, benign int) float64 {
	c, ok := m.C[structure]
	if !ok || c == 0 || exposure <= 0 {
		return 0
	}
	p := c * exposure * float64(total)
	if p < 0 {
		return 0
	}
	if p > float64(benign) {
		return float64(benign)
	}
	return p
}
