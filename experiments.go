package avgi

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"avgi/internal/campaign"
	"avgi/internal/core"
	"avgi/internal/imm"
	"avgi/internal/report"
	"avgi/internal/stats"
)

// This file regenerates every table and figure of the paper's evaluation
// (see DESIGN.md §4 for the experiment index). Each function returns
// renderable tables; cmd/avgi prints them and EXPERIMENTS.md records the
// shape comparison against the paper.

// immOrder is the presentation order of trace-identifiable IMM classes.
var immOrder = []IMM{imm.IFC, imm.IRP, imm.UNO, imm.OFS, imm.DCR, imm.ETE, imm.PRE}

// Fig1 reproduces Fig. 1: register-file AVF from exhaustive SFI versus the
// ACE-analysis baseline, per workload. ACE must always be the larger; a
// workload without a golden site timeline has no ACE column ("-").
func (s *Study) Fig1() *Table {
	t := &Table{
		Title:   "Fig. 1 — RF AVF: exhaustive SFI vs ACE analysis",
		Columns: []string{"Workload", "SFI AVF", "ACE AVF", "ACE/SFI"},
	}
	s.Prefetch([]string{"RF"}, s.WorkloadNames(), campaign.ModeExhaustive, 0)
	for _, w := range s.WorkloadNames() {
		sfi := s.GroundTruthAVF("RF", w).Total()
		ace, ratio := "-", "-"
		if a := ACEAnalyzeRF(s.Runner(w)); !math.IsNaN(a) {
			ace, ratio = report.Pct(a), report.F2(math.Inf(1))
			if sfi > 0 {
				ratio = report.F2(a / sfi)
			}
		}
		t.AddRow(w, report.Pct(sfi), ace, ratio)
	}
	return t
}

// Fig3Structures are the structures shown in Fig. 3.
var Fig3Structures = []string{"L1I (Data)", "L1D (Data)", "RF", "ROB", "LQ", "SQ"}

// Fig3 reproduces Fig. 3: the IMM breakdown (over corruptions) per
// workload for each structure, with the cross-workload arithmetic mean as
// the final row. The paper's insight: rows of one table are near-uniform.
func (s *Study) Fig3(structures ...string) []*Table {
	if len(structures) == 0 {
		structures = Fig3Structures
	}
	var out []*Table
	for _, structure := range structures {
		t := &Table{
			Title:   fmt.Sprintf("Fig. 3 — IMM breakdown, %s", structure),
			Columns: append([]string{"Workload"}, immNames()...),
		}
		dist := s.IMMDistribution(structure)
		avg := make(map[IMM][]float64)
		for _, w := range s.WorkloadNames() {
			row := []string{w}
			for _, c := range immOrder {
				f := dist[w][c]
				avg[c] = append(avg[c], f)
				row = append(row, report.Pct(f))
			}
			t.AddRow(row...)
		}
		row := []string{"AVG"}
		for _, c := range immOrder {
			row = append(row, report.Pct(stats.Mean(avg[c])))
		}
		t.AddRow(row...)
		out = append(out, t)
	}
	return out
}

// IMMDistributionMeans returns the cross-workload mean IMM distribution of
// a structure as parallel label/value slices, for bar-chart rendering.
func (s *Study) IMMDistributionMeans(structure string) ([]string, []float64) {
	dist := s.IMMDistribution(structure)
	labels := immNames()
	values := make([]float64, len(immOrder))
	for _, d := range dist {
		for i, c := range immOrder {
			values[i] += d[c]
		}
	}
	n := float64(len(dist))
	if n > 0 {
		for i := range values {
			values[i] /= n
		}
	}
	return labels, values
}

func immNames() []string {
	var ns []string
	for _, c := range immOrder {
		ns = append(ns, c.String())
	}
	return ns
}

// Fig4 reproduces Fig. 4: for the L1I data array, the probability of each
// final effect conditioned on the IMM class, per workload — three tables
// (Masked, Crash, SDC). The paper's insight: columns are near-uniform
// across workloads (stddev 0.1%–2.4%).
func (s *Study) Fig4() []*Table {
	const structure = "L1I (Data)"
	per := s.EffectPerIMM(structure)
	var out []*Table
	for _, eff := range []Effect{imm.Masked, imm.Crash, imm.SDC} {
		t := &Table{
			Title:   fmt.Sprintf("Fig. 4 — P(%s | IMM), %s", eff, structure),
			Columns: append([]string{"Workload"}, immNames()...),
		}
		cols := make(map[IMM][]float64)
		for _, w := range s.WorkloadNames() {
			row := []string{w}
			for _, c := range immOrder {
				if p, ok := per[w][c]; ok {
					cols[c] = append(cols[c], p[eff])
					row = append(row, report.Pct(p[eff]))
				} else {
					row = append(row, "-")
				}
			}
			t.AddRow(row...)
		}
		sdRow := []string{"STDDEV"}
		for _, c := range immOrder {
			sdRow = append(sdRow, report.Pct(stats.StdDev(cols[c])))
		}
		t.AddRow(sdRow...)
		out = append(out, t)
	}
	return out
}

// Fig5 reproduces Fig. 5: the trained per-structure IMM weights (the
// arithmetic means Fig. 4 motivates), one table per structure.
func (s *Study) Fig5() []*Table {
	w := core.TrainWeights(s.TrainingData(s.Cfg.Structures).Results)
	var out []*Table
	for _, structure := range s.Cfg.Structures {
		t := &Table{
			Title:   fmt.Sprintf("Fig. 5 — IMM weights, %s", structure),
			Columns: []string{"IMM", "Masked", "Crash", "SDC", "spread"},
		}
		for _, c := range immOrder {
			p, ok := w.P[structure][c]
			if !ok {
				continue
			}
			t.AddRow(c.String(), report.Pct(p[imm.Masked]), report.Pct(p[imm.Crash]),
				report.Pct(p[imm.SDC]), report.Pct(w.Spread[structure][c]))
		}
		out = append(out, t)
	}
	return out
}

// Fig7Structures are the cache arrays where escapes can occur.
var Fig7Structures = []string{"L1D (Tag)", "L1D (Data)", "L2 (Data)"}

// Fig7 reproduces Fig. 7: real versus predicted ESC fault counts per
// workload for the data-holding cache arrays, with the Pearson correlation
// as the accuracy summary. The prediction uses the exposure-calibrated
// model; the paper's raw output-size equation is shown alongside for
// comparison (see esc.go for why the calibrated input differs).
func (s *Study) Fig7() []*Table {
	td := s.TrainingData(Fig7Structures)
	model := core.TrainESC(td.Results, td.Exposure)
	var out []*Table
	for _, structure := range Fig7Structures {
		t := &Table{
			Title:   fmt.Sprintf("Fig. 7 — ESC faults real vs predicted, %s", structure),
			Columns: []string{"Workload", "OutBytes", "Exposure", "Real", "Predicted"},
		}
		var real, pred []float64
		for _, w := range s.WorkloadNames() {
			sum := campaign.Summarize(s.Exhaustive(structure, w))
			r := float64(sum.ByIMM[imm.ESC])
			exp := td.Exposure[structure][w]
			p := model.Predict(structure, exp, sum.Total, sum.Benign)
			real = append(real, r)
			pred = append(pred, p)
			t.AddRow(w, fmt.Sprintf("%d", td.OutputSize[w]), report.Pct(exp),
				fmt.Sprintf("%.0f", r), report.F2(p))
		}
		t.AddRow("PEARSON", "", "", "", report.F2(stats.Pearson(real, pred)))
		out = append(out, t)
	}
	return out
}

// Fig8 reproduces Fig. 8: the IMM distribution of the L1I data array when
// observing the entire execution (inclusive) versus only the ERT window
// (exclusive) — the two must be virtually identical.
func (s *Study) Fig8(est *Estimator) *Table {
	const structure = "L1I (Data)"
	t := &Table{
		Title:   "Fig. 8 — L1I (Data) IMM distribution: inclusive vs exclusive (ERT stop)",
		Columns: append([]string{"Workload", "Mode"}, immNames()...),
	}
	s.Prefetch([]string{structure}, s.WorkloadNames(), campaign.ModeExhaustive, 0)
	s.PrefetchAVGI(est, []string{structure}, s.WorkloadNames())
	for _, w := range s.WorkloadNames() {
		inc := campaign.Summarize(s.Exhaustive(structure, w)).IMMFractions()
		avgiResults, _ := s.AVGIRun(est, structure, w)
		exc := campaign.Summarize(avgiResults).IMMFractions()
		rowI := []string{w, "inclusive"}
		rowE := []string{w, "exclusive"}
		for _, c := range immOrder {
			rowI = append(rowI, report.Pct(inc[c]))
			rowE = append(rowE, report.Pct(exc[c]))
		}
		t.AddRow(rowI...)
		t.AddRow(rowE...)
	}
	return t
}

// Fig9 reproduces the effective-residency-time analysis of Fig. 9 /
// Section V.A: manifestation-latency percentiles per structure across all
// workloads, and the derived pessimistic stop window.
func (s *Study) Fig9(est *Estimator) *Table {
	t := &Table{
		Title:   "Fig. 9 — manifestation latency after injection (cycles) and derived ERT window",
		Columns: []string{"Structure", "p50", "p90", "p99", "max", "ERT window"},
	}
	s.RunAll(campaign.ModeExhaustive)
	for _, structure := range s.Cfg.Structures {
		var all []CampaignResult
		for _, w := range s.WorkloadNames() {
			all = append(all, s.Exhaustive(structure, w)...)
		}
		ert := est.ERT[structure]
		desc := report.Cycles(ert.Cycles)
		if ert.Relative {
			desc = fmt.Sprintf("%.1f%% of exec", ert.Frac*100)
		}
		t.AddRow(structure,
			report.Cycles(core.LatencyPercentile(all, 0.50)),
			report.Cycles(core.LatencyPercentile(all, 0.90)),
			report.Cycles(core.LatencyPercentile(all, 0.99)),
			report.Cycles(core.LatencyPercentile(all, 1.0)),
			desc)
	}
	return t
}

// Table2 reproduces Table II: per structure, the ERT window, the total
// simulated post-injection cycles of the three flows across all workloads,
// the speedups attributed to Insights 1&2 and 3, and the orders of
// magnitude; plus a Total row. The throughput model converts simulated
// cycles into single-core wall-clock seconds (the paper's absolute unit is
// days on 192 cores; the ratios are what reproduce).
func (s *Study) Table2(est *Estimator, tm core.ThroughputModel) *Table {
	t := &Table{
		Title: "Table II — AVF assessment cost: AVGI vs accelerated traditional SFI",
		Columns: []string{"Structure", "Max Sim Window", "AVGI cycles", "SFI cycles",
			"AVGI (core-s)", "SFI (core-s)", "Insight 1&2", "Insight 3", "Orders"},
	}
	coreSeconds := func(c uint64) string {
		if tm.CyclesPerSecond <= 0 {
			return "-"
		}
		return report.F2(float64(c) / tm.CyclesPerSecond)
	}
	rows := s.TimingRows(est)
	var totalSFI, totalAVGI uint64
	for _, row := range rows {
		totalSFI += row.SFICycles
		totalAVGI += row.AVGICycles
		t.AddRow(row.Structure, row.WindowDesc,
			report.Cycles(row.AVGICycles), report.Cycles(row.SFICycles),
			coreSeconds(row.AVGICycles), coreSeconds(row.SFICycles),
			report.F1x(row.SpeedupInsight12()), report.F1x(row.SpeedupInsight3()),
			report.F2(row.OrdersOfMagnitude()))
	}
	t.AddRow("Total", "", report.Cycles(totalAVGI), report.Cycles(totalSFI),
		coreSeconds(totalAVGI), coreSeconds(totalSFI),
		"", report.F1x(ratio64(totalSFI, totalAVGI)), "")
	return t
}

func ratio64(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// TimingRows computes the per-structure Table II cost rows (in simulated
// cycles), sorted by descending full speedup as in the paper. All three
// flows are dispatched together up front so the short HVF/AVGI campaigns
// fill worker slots the long exhaustive campaigns leave idle in their
// tails.
func (s *Study) TimingRows(est *Estimator) []core.TimingRow {
	var wg sync.WaitGroup
	wg.Add(3)
	go func() { defer wg.Done(); s.RunAll(campaign.ModeExhaustive) }()
	go func() { defer wg.Done(); s.RunAll(campaign.ModeHVF) }()
	go func() { defer wg.Done(); s.PrefetchAVGI(est, s.Cfg.Structures, s.WorkloadNames()) }()
	wg.Wait()
	var rows []core.TimingRow
	for _, structure := range s.Cfg.Structures {
		row := core.TimingRow{Structure: structure}
		ert := est.ERT[structure]
		if ert.Relative {
			row.WindowDesc = fmt.Sprintf("%.1f%%", ert.Frac*100)
		} else {
			row.WindowDesc = report.Cycles(ert.Cycles)
		}
		for _, w := range s.WorkloadNames() {
			row.SFICycles += campaign.Summarize(s.Exhaustive(structure, w)).SimCycles
			row.HVFCycles += campaign.Summarize(s.HVF(structure, w)).SimCycles
			avgiResults, _ := s.AVGIRun(est, structure, w)
			row.AVGICycles += campaign.Summarize(avgiResults).SimCycles
		}
		rows = append(rows, row)
	}
	sort.Slice(rows, func(i, j int) bool {
		return rows[i].SpeedupInsight3() > rows[j].SpeedupInsight3()
	})
	return rows
}

// Fig10 reproduces Fig. 10: per structure, the exhaustive ("Real") AVF
// breakdown versus the AVGI estimate per workload. Estimates use
// leave-one-out training — the assessed workload is excluded from weight
// training, matching the paper's "unknown workload" claim.
func (s *Study) Fig10(structures ...string) []*Table {
	if len(structures) == 0 {
		structures = s.Cfg.Structures
	}
	// The leave-one-out loop below revisits the exhaustive grid once per
	// assessed workload; dispatch the whole grid concurrently first.
	s.Prefetch(s.Cfg.Structures, s.WorkloadNames(), campaign.ModeExhaustive, 0)
	var out []*Table
	for _, structure := range structures {
		t := &Table{
			Title: fmt.Sprintf("Fig. 10 — AVF accuracy, %s (leave-one-out)", structure),
			Columns: []string{"Workload",
				"Real Masked", "Real SDC", "Real Crash",
				"AVGI Masked", "AVGI SDC", "AVGI Crash", "|dAVF|"},
		}
		for _, w := range s.WorkloadNames() {
			truth := s.GroundTruthAVF(structure, w)
			est := s.TrainEstimator(w)
			results, window := s.AVGIRun(est, structure, w)
			a := est.AssessResults(s.Runner(w), structure, results, window)
			t.AddRow(w,
				report.Pct(truth.Masked), report.Pct(truth.SDC), report.Pct(truth.Crash),
				report.Pct(a.AVF.Masked), report.Pct(a.AVF.SDC), report.Pct(a.AVF.Crash),
				report.Pct(math.Abs(a.AVF.Total()-truth.Total())))
		}
		out = append(out, t)
	}
	return out
}

// Fig11 reproduces Fig. 11: FIT rates per structure (averaged over
// workloads) for the exhaustive ground truth and the AVGI estimate, plus
// the whole-chip total as the sum over structures.
func (s *Study) Fig11() *Table {
	t := &Table{
		Title:   "Fig. 11 — FIT rates per structure and whole chip (avg across workloads)",
		Columns: []string{"Structure", "Bits", "Real FIT", "AVGI FIT", "diff"},
	}
	est := s.TrainEstimator()
	s.PrefetchAVGI(est, s.Cfg.Structures, s.WorkloadNames())
	var chipReal, chipAVGI core.FIT
	anyRunner := s.Runner(s.WorkloadNames()[0])
	for _, structure := range s.Cfg.Structures {
		bits := anyRunner.BitCounts[structure]
		var realSum, estSum core.FIT
		n := 0.0
		for _, w := range s.WorkloadNames() {
			truth := s.GroundTruthAVF(structure, w)
			results, window := s.AVGIRun(est, structure, w)
			a := est.AssessResults(s.Runner(w), structure, results, window)
			realSum = realSum.Add(core.FITOf(truth, bits))
			estSum = estSum.Add(core.FITOf(a.AVF, bits))
			n++
		}
		realAvg := core.FIT{SDC: realSum.SDC / n, Crash: realSum.Crash / n}
		estAvg := core.FIT{SDC: estSum.SDC / n, Crash: estSum.Crash / n}
		chipReal = chipReal.Add(realAvg)
		chipAVGI = chipAVGI.Add(estAvg)
		t.AddRow(structure, fmt.Sprintf("%d", bits),
			fmt.Sprintf("%.4f", realAvg.Total()), fmt.Sprintf("%.4f", estAvg.Total()),
			relDiff(realAvg.Total(), estAvg.Total()))
	}
	t.AddRow("CHIP", "", fmt.Sprintf("%.4f", chipReal.Total()),
		fmt.Sprintf("%.4f", chipAVGI.Total()), relDiff(chipReal.Total(), chipAVGI.Total()))
	return t
}

func relDiff(a, b float64) string {
	if a == 0 {
		return "-"
	}
	return report.Pct(math.Abs(a-b) / a)
}

// Motivation reproduces the paper's introductory claim (demonstrated in
// the authors' ISCA 2021 study [14]): architecture-level fault injection —
// fast, microarchitecture-agnostic — systematically diverges from the true
// microarchitecture-level AVF, because it cannot observe hardware masking.
// The table compares the ISA-level PVF with the exhaustive register-file
// AVF per workload.
func (s *Study) Motivation() *Table {
	t := &Table{
		Title:   "Motivation — ISA-level injection (PVF) vs microarchitecture-level AVF (RF)",
		Columns: []string{"Workload", "ISA-level PVF", "Microarch AVF", "overestimate"},
	}
	for _, w := range s.WorkloadNames() {
		sum, err := ArchLevelCampaign(s.Cfg.Machine, w, s.Cfg.FaultsPerStructure, s.Cfg.SeedBase)
		if err != nil {
			continue
		}
		avf := s.GroundTruthAVF("RF", w).Total()
		ratio := "-"
		if avf > 0 {
			ratio = report.F2(sum.PVF() / avf)
		}
		t.AddRow(w, report.Pct(sum.PVF()), report.Pct(avf), ratio)
	}
	return t
}

// MultiBitAblation compares single-bit against spatial multi-bit upsets
// (Section VII.A): per width, the corruption fraction and final AVF of the
// register file averaged over the study's workloads.
func (s *Study) MultiBitAblation(widths ...int) *Table {
	if len(widths) == 0 {
		widths = []int{1, 2, 4}
	}
	t := &Table{
		Title:   "Section VII.A — multi-bit upsets, RF (avg across workloads)",
		Columns: []string{"Width", "Corruption rate", "AVF (SDC+Crash)"},
	}
	for _, width := range widths {
		// These campaigns are not study-cached (the width varies), but
		// they still draw from the study's worker budget and overlap
		// across workloads like any scheduled campaign.
		names := s.WorkloadNames()
		sums := make([]campaign.Summary, len(names))
		var wg sync.WaitGroup
		for i, w := range names {
			wg.Add(1)
			go func(i int, w string) {
				defer wg.Done()
				r := s.Runner(w)
				faults := r.MultiBitFaultList("RF", s.Cfg.FaultsPerStructure, width, s.Cfg.SeedBase)
				res, _ := r.RunCampaign(campaign.RunSpec{Faults: faults, Mode: campaign.ModeExhaustive, Budget: s.budget})
				sums[i] = campaign.Summarize(res)
			}(i, w)
		}
		wg.Wait()
		var corr, avf []float64
		for _, sum := range sums {
			corr = append(corr, float64(sum.Corruptions)/float64(sum.Total))
			avf = append(avf, core.AVFFromEffects(sum).Total())
		}
		t.AddRow(fmt.Sprintf("%d", width), report.Pct(stats.Mean(corr)), report.Pct(stats.Mean(avf)))
	}
	return t
}

// ERTMarginAblation sweeps the ERT safety margin (DESIGN.md's
// accuracy-versus-speed ablation): smaller margins shorten the observation
// windows — cheaper campaigns, but late manifestations get misread as
// benign. Reported per margin: the register file's window, total AVGI
// simulated cycles across workloads, and the worst AVF error versus the
// exhaustive ground truth.
func (s *Study) ERTMarginAblation(margins ...float64) *Table {
	if len(margins) == 0 {
		margins = []float64{0.25, 0.5, 1.0, 1.25}
	}
	t := &Table{
		Title:   "Ablation — ERT safety margin (RF): window vs cost vs accuracy",
		Columns: []string{"Margin", "RF window", "AVGI cycles", "worst |dAVF|"},
	}
	td := s.TrainingData(s.Cfg.Structures)
	for _, margin := range margins {
		est := core.TrainWithMargin(td, margin)
		s.PrefetchAVGI(est, []string{"RF"}, s.WorkloadNames())
		var cost uint64
		var worst float64
		for _, w := range s.WorkloadNames() {
			results, window := s.AVGIRun(est, "RF", w)
			a := est.AssessResults(s.Runner(w), "RF", results, window)
			truth := s.GroundTruthAVF("RF", w)
			cost += campaign.Summarize(results).SimCycles
			if d := math.Abs(a.AVF.Total() - truth.Total()); d > worst {
				worst = d
			}
		}
		t.AddRow(report.F2(margin), report.Cycles(est.ERT["RF"].Cycles),
			report.Cycles(cost), report.Pct(worst))
	}
	return t
}

// Fig12Structures are the case-study structures of Section VI.
var Fig12Structures = []string{"L1I (Data)", "L1D (Data)", "RF"}

// Fig12 reproduces the Section VI case study: the same accuracy evaluation
// on the 32-bit Armv7-like machine over the MiBench workloads. The caller
// provides a Study built with ConfigA15.
func Fig12(s *Study) []*Table {
	tables := s.Fig10(Fig12Structures...)
	for _, t := range tables {
		t.Title = "Fig. 12 (A15 case study) — " + t.Title[len("Fig. 10 — "):]
	}
	return tables
}
