// Package avgi is a from-scratch Go reproduction of "AVGI:
// Microarchitecture-Driven, Fast and Accurate Vulnerability Assessment"
// (Papadimitriou & Gizopoulos, HPCA 2023).
//
// The package is the public facade over the full stack built for the
// reproduction:
//
//   - a detailed out-of-order CPU model with two configurations standing in
//     for the paper's Arm Cortex-A72 (64-bit) and Cortex-A15 (32-bit)
//     machines,
//   - the thirteen MiBench/NAS-style workloads of the study,
//   - a GeFIN-style statistical fault-injection framework over the twelve
//     hardware structures of Table II,
//   - the IMM classifier of Table I / Fig. 2, and
//   - the AVGI methodology itself: IMM weights, the ESC equation,
//     effective-residency-time windows, and the five-phase estimator.
//
// # Quick start
//
//	cfg := avgi.ConfigA72()
//	r, _ := avgi.NewRunner(cfg, "sha")
//	faults := r.FaultList("RF", 400, 1)
//	truth := campaign.Summarize(r.Run(faults, avgi.ModeExhaustive, 0, 0))
//
// For the full methodology, build a Study over several workloads, train an
// Estimator on exhaustive campaigns, and Assess new workloads with fast
// AVGI runs only. See examples/ and cmd/avgi.
package avgi

import (
	"fmt"
	"io"
	"log/slog"
	"math"
	"strings"

	"avgi/internal/asm"
	"avgi/internal/campaign"
	"avgi/internal/core"
	"avgi/internal/cpu"
	"avgi/internal/fault"
	"avgi/internal/forensics"
	"avgi/internal/imm"
	"avgi/internal/isa"
	"avgi/internal/iss"
	"avgi/internal/obs"
	"avgi/internal/prog"
	"avgi/internal/report"
	"avgi/internal/stats"
)

// Re-exported types: the facade exposes the internal packages' types under
// one import path.
type (
	// MachineConfig describes one microarchitecture model.
	MachineConfig = cpu.Config
	// Machine is a simulated CPU with a loaded program.
	Machine = cpu.Machine
	// Workload is one of the thirteen benchmarks.
	Workload = prog.Workload
	// Program is an assembled workload image.
	Program = asm.Program
	// Runner executes fault-injection campaigns for one
	// (machine, workload) pair.
	Runner = campaign.Runner
	// CampaignResult is the outcome of one injected fault.
	CampaignResult = campaign.Result
	// CampaignSummary aggregates campaign results.
	CampaignSummary = campaign.Summary
	// Mode selects how far faulty runs simulate.
	Mode = campaign.Mode
	// Fault is one single-bit transient fault.
	Fault = fault.Fault
	// IMM is an ISA Manifestation Model class (Table I).
	IMM = imm.IMM
	// Effect is a final fault-effect class (Masked/SDC/Crash).
	Effect = imm.Effect
	// AVF is a cross-layer vulnerability breakdown.
	AVF = core.AVF
	// FIT is a Failures-in-Time breakdown.
	FIT = core.FIT
	// Estimator is the trained AVGI methodology.
	Estimator = core.Estimator
	// Assessment is the output of the five-phase AVGI flow.
	Assessment = core.Assessment
	// ERT is an effective-residency-time stop rule.
	ERT = core.ERT
	// RunOptions controls a direct Machine.Run invocation.
	RunOptions = cpu.RunOptions
	// RunResult summarises a direct machine run.
	RunResult = cpu.Result
	// Table is a renderable result table.
	Table = report.Table
	// Variant selects the ISA width.
	Variant = isa.Variant

	// Observer is the telemetry bundle (metrics registry, live progress,
	// span tracer) a Study or Runner reports into; see docs/OBSERVABILITY.md.
	Observer = obs.Observer
	// MetricsRegistry holds counters, gauges and histograms with
	// Prometheus-text and JSON renderers.
	MetricsRegistry = obs.Registry
	// Progress is the live campaign progress reporter.
	Progress = obs.Progress
	// ProgressSnapshot is a point-in-time progress view.
	ProgressSnapshot = obs.ProgressSnapshot
	// Tracer records study-phase spans for NDJSON / chrome://tracing
	// export.
	Tracer = obs.Tracer

	// Explorer aggregates per-fault forensic attributions into the
	// masking-source breakdown behind report.MaskingSources and the
	// observer's /forensics.json endpoint.
	Explorer = forensics.Explorer
	// ForensicRecord is one fault's attribution (cause, latency,
	// first-divergence capture); carried on CampaignResult.Forensics.
	ForensicRecord = forensics.Record

	// Budget is a study-wide worker pool shared by all concurrently
	// executing campaigns; see docs/SCHEDULING.md. Runner.RunCampaign
	// draws workers from RunSpec.Budget, and Study.Budget exposes the
	// study's own.
	Budget = campaign.Budget
)

// NewBudget returns a worker budget of the given size (0 = all CPUs), for
// running ad-hoc campaigns under a shared concurrency cap via
// Runner.RunCampaign (RunSpec.Budget).
func NewBudget(workers int) *Budget { return campaign.NewBudget(workers) }

// NewExplorer returns an empty forensics explorer, to be set as
// StudyConfig.Forensics (or Runner.Forensics) and, optionally, as the
// observer's Forensics source for /forensics.json.
func NewExplorer() *Explorer { return forensics.NewExplorer() }

// MaskingSources renders an explorer's per-structure masking-cause
// breakdown as a table.
func MaskingSources(ex *Explorer) *Table { return report.MaskingSources(ex.Snapshot()) }

// Re-exported constants.
const (
	ModeExhaustive = campaign.ModeExhaustive
	ModeHVF        = campaign.ModeHVF
	ModeAVGI       = campaign.ModeAVGI

	// RawFITPerBit is the raw failure rate used for FIT derating.
	RawFITPerBit = core.RawFITPerBit
)

// ConfigA72 returns the 64-bit machine model (Armv8 / Cortex-A72-like).
func ConfigA72() MachineConfig { return cpu.ConfigA72() }

// ConfigA15 returns the 32-bit machine model (Armv7 / Cortex-A15-like).
func ConfigA15() MachineConfig { return cpu.ConfigA15() }

// MachineByName returns the machine model a name denotes, in any case:
// "a72" (64-bit) or "a15" (32-bit).
func MachineByName(name string) (MachineConfig, error) {
	switch strings.ToLower(name) {
	case "a72":
		return ConfigA72(), nil
	case "a15":
		return ConfigA15(), nil
	}
	return MachineConfig{}, fmt.Errorf("unknown machine %q (want a72 or a15)", name)
}

// Structures lists the twelve fault-target hardware structures in the
// paper's Table II order.
func Structures() []string {
	return append([]string(nil), cpu.StructureNames...)
}

// Workloads returns all thirteen workloads sorted by name.
func Workloads() []Workload { return prog.All() }

// MiBenchWorkloads returns the ten MiBench-like workloads.
func MiBenchWorkloads() []Workload { return prog.MiBench() }

// NASWorkloads returns the three NAS-like workloads.
func NASWorkloads() []Workload { return prog.NAS() }

// WorkloadByName looks up one workload.
func WorkloadByName(name string) (Workload, error) { return prog.ByName(name) }

// NewRunner builds a campaign runner: it assembles the named workload for
// the config's ISA variant and performs the golden run.
func NewRunner(cfg MachineConfig, workload string) (*Runner, error) {
	w, err := prog.ByName(workload)
	if err != nil {
		return nil, err
	}
	return campaign.NewRunner(cfg, w.Build(cfg.Variant))
}

// NewMachine builds a bare machine with the named workload loaded, for
// direct simulation (see cmd/avgisim).
func NewMachine(cfg MachineConfig, workload string) (*Machine, error) {
	w, err := prog.ByName(workload)
	if err != nil {
		return nil, err
	}
	return cpu.New(cfg, w.Build(cfg.Variant)), nil
}

// SampleSize returns the Leveugle sample size for an error margin and
// confidence z-score (see internal/stats).
func SampleSize(population uint64, margin, z float64) uint64 {
	return stats.SampleSize(population, margin, z, 0.5)
}

// ErrorMargin returns the achieved margin of a campaign of n faults over a
// population at z confidence.
func ErrorMargin(n, population uint64, z float64) float64 {
	return stats.ErrorMargin(n, population, z, 0.5)
}

// Z-scores for confidence levels.
const (
	Z95 = stats.Z95
	Z99 = stats.Z99
)

// ACEAnalyzeRF is the ACE-analysis baseline Fig. 1 compares with: the share
// of the register file's (bit, cycle) pairs whose first event in the golden
// site timeline, up to the halt, reads the register. A fault anywhere else is
// dead, erased or untouched, and the timeline proves it golden-equivalent, so
// the share bounds the exhaustive SFI AVF from above. NaN for a golden run too
// long to have a timeline.
func ACEAnalyzeRF(r *Runner) float64 {
	tl := r.Timeline()
	if tl == nil {
		return math.NaN()
	}
	c, _ := tl.Census("RF", r.Golden.Cycles)
	return c.ReadFirstShare()
}

// ArchInjSummary is the outcome of an architecture-level (ISA-level)
// injection campaign — the fast-but-misleading baseline of the paper's
// introduction.
type ArchInjSummary = iss.FlipSummary

// ArchLevelCampaign injects n single-bit flips into architectural
// registers of a functional execution of the named workload (no
// microarchitecture involved) and reports the effect summary. Compare its
// PVF against the microarchitecture-level register-file AVF to reproduce
// the paper's motivation: high-level injection misleads.
func ArchLevelCampaign(cfg MachineConfig, workload string, n int, seed int64) (ArchInjSummary, error) {
	w, err := prog.ByName(workload)
	if err != nil {
		return ArchInjSummary{}, err
	}
	sum, _, err := iss.FlipCampaign(w.Build(cfg.Variant), n, seed)
	return sum, err
}

// SaveEstimator persists a trained estimator as JSON — the methodology's
// reusable artefact: train once per microarchitecture, assess anywhere.
func SaveEstimator(w io.Writer, est *Estimator) error { return est.Save(w) }

// LoadEstimator reads an estimator written by SaveEstimator.
func LoadEstimator(r io.Reader) (*Estimator, error) { return core.LoadEstimator(r) }

// NewObserver returns an Observer with metrics, progress and tracing all
// enabled, logging through log (nil for silent). Attach it via
// StudyConfig.Obs or Runner.Obs.
func NewObserver(log *slog.Logger) *Observer { return obs.New(log) }

// ValidateStructure returns a descriptive error for structure names that
// are not one of the twelve Table II fault targets.
func ValidateStructure(name string) error { return cpu.ValidateStructure(name) }

// ParseMode resolves a campaign mode name (exhaustive, hvf or avgi, any
// case) and checks the window rule that goes with it: an ERT stop window is
// required in avgi mode and meaningless in the other two. The avgi CLI and
// the assessment service both validate through here.
func ParseMode(name string, window uint64) (Mode, error) {
	var mode Mode
	switch strings.ToLower(name) {
	case "exhaustive":
		mode = ModeExhaustive
	case "hvf":
		mode = ModeHVF
	case "avgi":
		mode = ModeAVGI
	default:
		return 0, fmt.Errorf("unknown mode %q (want exhaustive, hvf or avgi)", name)
	}
	if mode == ModeAVGI && window == 0 {
		return 0, fmt.Errorf("mode avgi requires a nonzero window")
	}
	if mode != ModeAVGI && window != 0 {
		return 0, fmt.Errorf("window is only meaningful in mode avgi")
	}
	return mode, nil
}
