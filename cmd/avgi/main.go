// Command avgi is the experiment harness of the AVGI reproduction: one
// subcommand per table/figure of the paper's evaluation, each of which
// builds (or reuses) a study — golden runs plus fault-injection campaigns —
// and prints the corresponding table.
//
// Usage:
//
//	avgi [flags] <experiment>
//
// The experiments are the rows of the experiments table below (avgi -h
// prints them), plus all and list.
//
// Examples:
//
//	avgi -faults 200 fig3
//	avgi -workloads sha,crc32,qsort -faults 100 table2
//	avgi -csv fig10 > fig10.csv
//	avgi -early-exit=false -faults 200 fig3   # simulate every run in full
//
// Campaigns of every mode do not simulate a fault the golden site timeline
// proves golden — every site it covers dead, erased unread or untouched in
// its window — and fork the others at their sites' first use (see
// docs/PERFORMANCE.md); the classification is identical to a full run, only
// faster, and exhaustive results (and so their HVF view) are identical down
// to the cycles charged. -early-exit=false simulates every fault in full,
// e.g. to compare AVGI simulated-cycle costs against the paper's
// full-window accounting.
package main

import (
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"strings"
	"time"

	"avgi"
	"avgi/internal/campaign"
	"avgi/internal/cliflags"
	"avgi/internal/clilog"
	"avgi/internal/core"
	"avgi/internal/imm"
	"avgi/internal/report"
)

var (
	flagFaults     = flag.Int("faults", 400, "faults per (structure, workload) pair")
	flagWorkloads  = flag.String("workloads", "", "comma-separated workload subset (default: all 13)")
	flagStructures = flag.String("structures", "", "comma-separated structure subset (default: all 12)")
	flagSeed       = flag.Int64("seed", 1, "seed base for fault sampling")
	flagCSV        = flag.Bool("csv", false, "emit CSV instead of aligned tables")
	flagBars       = flag.Bool("bars", false, "also render distribution figures as terminal bar charts")

	flagMode   = flag.String("mode", "hvf", "campaign mode for the campaign experiment: exhaustive, hvf or avgi")
	flagWindow = flag.Uint64("window", 0, "ERT stop window in cycles for the campaign experiment (required for -mode avgi, forbidden otherwise)")

	flagTraceOut = flag.String("trace-out", "", "write a Chrome trace_event JSON of the study phases to this file (open in chrome://tracing)")

	// Shared campaign/telemetry/profiling flags (see internal/cliflags).
	common = cliflags.RegisterCampaign(flag.CommandLine)
)

// logger carries harness diagnostics to stderr per -log; set in main
// before any use.
var logger *slog.Logger

// explorer aggregates forensic attributions when -forensics is on.
var explorer *avgi.Explorer

func main() {
	flag.Usage = usage
	flag.Parse()
	if flag.NArg() != 1 {
		usage()
		os.Exit(2)
	}
	cmd := flag.Arg(0)
	if cmd == "list" {
		listWorkloads()
		return
	}
	var err error
	logger, err = clilog.New(os.Stderr, "avgi", common.Log)
	if err != nil {
		fmt.Fprintln(os.Stderr, "avgi:", err)
		os.Exit(2)
	}
	stopProf, err := common.StartProfiles(func(msg string) { logger.Error(msg) })
	if err != nil {
		logger.Error(err.Error())
		os.Exit(1)
	}
	defer stopProf()
	obsv := avgi.NewObserver(logger)
	if common.Forensics {
		explorer = avgi.NewExplorer()
		obsv.Forensics = explorer
	}
	if common.Progress {
		stop := obsv.Progress.StartTicker(2*time.Second, logger)
		defer stop()
	}
	if common.MetricsAddr != "" {
		srv, err := obsv.Serve(common.MetricsAddr)
		if err != nil {
			logger.Error(err.Error())
			os.Exit(1)
		}
		defer srv.Close()
		stopHealth := obsv.StartHealth(10 * time.Second)
		defer stopHealth()
		obsv.Logf("telemetry: http://%s/ (/metrics, /progress.json, /trace.json, /forensics.json, /debug/pprof/)", srv.Addr())
	}
	err = run(cmd, os.Stdout, obsv)
	if terr := writeTraces(obsv); err == nil {
		err = terr
	}
	if err != nil {
		stopProf()
		logger.Error(err.Error())
		os.Exit(1)
	}
}

// writeTraces exports the recorded spans as Chrome trace_event JSON to
// the file requested by -trace-out.
func writeTraces(obsv *avgi.Observer) error {
	if *flagTraceOut == "" {
		return nil
	}
	f, err := os.Create(*flagTraceOut)
	if err != nil {
		return err
	}
	if err := obsv.Trace.WriteChromeTrace(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	obsv.Logf("trace written to %s", *flagTraceOut)
	return nil
}

// usage prints the experiments table and then every flag's own help string
// (internal/cliflags and the vars above), the one place flags are described.
func usage() {
	fmt.Fprintf(os.Stderr, `usage: avgi [flags] <experiment>

experiments:
%s
flags:
`, experimentHelp())
	flag.PrintDefaults()
}

func listWorkloads() {
	fmt.Println("workloads:")
	for _, w := range avgi.Workloads() {
		p := w.Build(avgi.ConfigA72().Variant)
		fmt.Printf("  %-14s %-8s text %4d insts, output %5d bytes\n",
			w.Name, w.Suite, len(p.Text), len(w.Ref(avgi.ConfigA72().Variant)))
	}
	fmt.Println("structures:")
	for _, s := range avgi.Structures() {
		fmt.Printf("  %s\n", s)
	}
}

func selectedWorkloads() ([]avgi.Workload, error) {
	if *flagWorkloads == "" {
		return avgi.Workloads(), nil
	}
	var out []avgi.Workload
	for _, name := range strings.Split(*flagWorkloads, ",") {
		w, err := avgi.WorkloadByName(strings.TrimSpace(name))
		if err != nil {
			return nil, err
		}
		out = append(out, w)
	}
	return out, nil
}

func selectedStructures() []string {
	if *flagStructures == "" {
		return avgi.Structures()
	}
	var out []string
	for _, s := range strings.Split(*flagStructures, ",") {
		out = append(out, strings.TrimSpace(s))
	}
	return out
}

func buildStudy(machine avgi.MachineConfig, workloads []avgi.Workload, obsv *avgi.Observer) (*avgi.Study, error) {
	if common.Resume && common.Journal == "" {
		return nil, fmt.Errorf("-resume requires -journal DIR")
	}
	if err := common.ValidateDist(); err != nil {
		return nil, err
	}
	var distCfg *avgi.DistConfig
	workers := common.Workers
	if common.DistRole == "worker" {
		// In a fleet, -workers is the cluster-wide count: it fixes the
		// shared chunk geometry and the slot budget. Local parallelism is
		// bounded by this process's CPUs (Workers 0) and by the slot
		// leases it can win.
		distCfg = &avgi.DistConfig{
			Fleet:    common.Workers,
			Owner:    common.DistOwner,
			LeaseTTL: common.LeaseTTL,
		}
		workers = 0
	}
	obsv.Logf("building study: %s, %d workloads, %d structures, %d faults each...",
		machine.Name, len(workloads), len(selectedStructures()), *flagFaults)
	start := time.Now()
	s, err := avgi.NewStudy(avgi.StudyConfig{
		Machine:            machine,
		Workloads:          workloads,
		Structures:         selectedStructures(),
		FaultsPerStructure: *flagFaults,
		Workers:            workers,
		SeedBase:           *flagSeed,
		Obs:                obsv,
		JournalDir:         common.Journal,
		Resume:             common.Resume,
		Dist:               distCfg,
		Forensics:          explorer,
		EarlyExit:          common.EarlyExit,
	})
	if err != nil {
		return nil, err
	}
	obsv.Logf("golden runs done in %v", time.Since(start))
	return s, nil
}

func emit(w io.Writer, tables ...*avgi.Table) {
	for _, t := range tables {
		if *flagCSV {
			t.CSV(w)
		} else {
			t.Render(w)
		}
		fmt.Fprintln(w)
	}
}

// experiment is one subcommand: its name, its usage line, and what it
// prints from a study — the A72 study of the selected workloads, or for a15
// the Armv7-like case study.
type experiment struct {
	name, help string
	inAll, a15 bool
	run        func(x *session, st *avgi.Study) error
}

// experiments is the one list behind dispatch, "all" (the inAll rows, in
// this order) and the usage text; TestExperimentNamesPinned pins the names.
var experiments = []experiment{
	{"fig1", "RF AVF: exhaustive SFI vs ACE analysis", true, false, one((*avgi.Study).Fig1)},
	{"fig3", "IMM breakdown per structure per workload", true, false, fig3},
	{"fig4", "P(effect | IMM) for the L1I data array", true, false, many((*avgi.Study).Fig4)},
	{"fig5", "trained IMM weights per structure", true, false, many((*avgi.Study).Fig5)},
	{"fig7", "ESC faults: real vs predicted", true, false, many((*avgi.Study).Fig7)},
	{"fig8", "IMM distribution inclusive vs exclusive (ERT stop)", true, false, trained((*avgi.Study).Fig8)},
	{"fig9", "manifestation-latency percentiles and ERT windows", true, false, trained((*avgi.Study).Fig9)},
	{"table2", "assessment cost and speedups (AVGI vs accelerated SFI)", true, false,
		trained(func(st *avgi.Study, est *avgi.Estimator) *avgi.Table {
			return st.Table2(est, measureThroughput(st))
		})},
	{"fig10", "AVF accuracy per structure (leave-one-out)", true, false, many(func(st *avgi.Study) []*avgi.Table { return st.Fig10() })},
	{"fig11", "FIT rates per structure and whole chip", true, false, one((*avgi.Study).Fig11)},
	{"motivation", "ISA-level PVF vs microarch AVF (the intro's pitfall)", true, false, one((*avgi.Study).Motivation)},
	{"multibit", "Section VII.A multi-bit-upset ablation", true, false, one(func(st *avgi.Study) *avgi.Table { return st.MultiBitAblation() })},
	{"fig12", "Armv7-like (A15) case study", true, true, many(avgi.Fig12)},
	{"ertablation", "ERT safety-margin sweep (cost vs accuracy)", false, false, one(func(st *avgi.Study) *avgi.Table { return st.ERTMarginAblation() })},
	{"campaign", "raw campaigns of the selected grid in one -mode (with\n" +
		"-dist-role=worker: this process's share of a fleet)", false, false, runCampaignCmd},
}

// experimentHelp renders the experiments block of the usage text.
func experimentHelp() string {
	var b strings.Builder
	row := func(name, help string) {
		fmt.Fprintf(&b, "  %-13s%s\n", name, strings.ReplaceAll(help, "\n", "\n"+strings.Repeat(" ", 15)))
	}
	for _, e := range experiments {
		row(e.name, e.help)
	}
	row("all", "every experiment above through fig12, in order")
	row("list", "list workloads and structures")
	return b.String()
}

// session is the state one invocation's experiments share: where tables
// go, and the studies and estimator built on first use.
type session struct {
	w         io.Writer
	obsv      *avgi.Observer
	workloads []avgi.Workload
	studies   [2]*avgi.Study // A72, A15
	est       *avgi.Estimator
}

func (x *session) study(a15 bool) (*avgi.Study, error) {
	i, machine, workloads := 0, avgi.ConfigA72(), x.workloads
	if a15 {
		i, machine, workloads = 1, avgi.ConfigA15(), avgi.MiBenchWorkloads()
	}
	var err error
	if x.studies[i] == nil {
		x.studies[i], err = buildStudy(machine, workloads, x.obsv)
	}
	return x.studies[i], err
}

// one, many and trained adapt the three shapes of table-producing Study
// method to an experiment's run function.
func one(f func(*avgi.Study) *avgi.Table) func(*session, *avgi.Study) error {
	return many(func(st *avgi.Study) []*avgi.Table { return []*avgi.Table{f(st)} })
}

func many(f func(*avgi.Study) []*avgi.Table) func(*session, *avgi.Study) error {
	return func(x *session, st *avgi.Study) error {
		emit(x.w, f(st)...)
		return nil
	}
}

func trained(f func(*avgi.Study, *avgi.Estimator) *avgi.Table) func(*session, *avgi.Study) error {
	return func(x *session, st *avgi.Study) error {
		if x.est == nil {
			x.est = st.TrainEstimator()
		}
		emit(x.w, f(st, x.est))
		return nil
	}
}

func fig3(x *session, st *avgi.Study) error {
	emit(x.w, st.Fig3()...)
	if *flagBars {
		for _, structure := range avgi.Fig3Structures {
			labels, values := st.IMMDistributionMeans(structure)
			report.Bars(x.w, "IMM mean distribution, "+structure, labels, values, 40)
			fmt.Fprintln(x.w)
		}
	}
	return nil
}

func run(cmd string, w io.Writer, obsv *avgi.Observer) error {
	workloads, err := selectedWorkloads()
	if err != nil {
		return err
	}
	x := &session{w: w, obsv: obsv, workloads: workloads}
	known := false
	for _, e := range experiments {
		if e.name != cmd && !(cmd == "all" && e.inAll) {
			continue
		}
		known = true
		st, err := x.study(e.a15)
		if err != nil {
			return err
		}
		if err := e.run(x, st); err != nil {
			return err
		}
	}
	if !known {
		return fmt.Errorf("unknown experiment %q (see -h)", cmd)
	}
	// campaign prints its per-pair summaries and nothing else, so that every
	// process of a fleet prints the same bytes.
	if explorer != nil && cmd != "campaign" {
		emit(w, avgi.MaskingSources(explorer))
	}
	return nil
}

// runCampaignCmd is the campaign experiment: run (or resume, or join as a
// fleet worker — see -dist-role) the raw campaigns of the selected
// (structure, workload) grid in one mode and print per-pair summaries.
// Every fleet process invokes the identical command line against the shared
// journal; whichever chunks each one simulates, the merged results and the
// printed table are byte-identical.
func runCampaignCmd(x *session, st *avgi.Study) error {
	mode, hvf, err := avgi.ParseMode(*flagMode, *flagWindow)
	if err != nil {
		return fmt.Errorf("-mode/-window: %w", err)
	}
	structures := selectedStructures()
	workloads := st.WorkloadNames()
	// Overlap the grid under the budget; pairs load for free afterwards.
	st.Prefetch(structures, workloads, mode, *flagWindow)
	// The HVF view reads each run up to its first architectural corruption,
	// so it carries no end-to-end effect split; exhaustive/avgi campaigns do.
	t := &avgi.Table{
		Title:   fmt.Sprintf("campaign summaries (%s mode, %d faults/pair)", *flagMode, st.Cfg.FaultsPerStructure),
		Columns: []string{"structure", "workload", "faults", "benign", "corrupted", "masked", "sdc", "crash", "vuln"},
	}
	for _, structure := range structures {
		for _, wl := range workloads {
			res := st.Campaign(structure, wl, mode, *flagWindow)
			if hvf {
				res = campaign.HVFView(res)
			}
			sum := campaign.Summarize(res)
			masked, sdc, crash, vuln := "-", "-", "-", float64(sum.Corruptions)/float64(max(sum.Total, 1))
			if !hvf {
				masked = fmt.Sprint(sum.ByEffect[imm.Masked])
				sdc = fmt.Sprint(sum.ByEffect[imm.SDC])
				crash = fmt.Sprint(sum.ByEffect[imm.Crash])
				vuln = core.AVFFromEffects(sum).Total()
			}
			t.AddRow(structure, wl, fmt.Sprint(sum.Total),
				fmt.Sprint(sum.Benign), fmt.Sprint(sum.Corruptions),
				masked, sdc, crash, fmt.Sprintf("%.4f", vuln))
		}
	}
	emit(x.w, t)
	return nil
}

// paperCores is the simulation host size behind Table II's "days": the
// paper's evaluation ran on 192-core servers.
const paperCores = 192

// measureThroughput times one golden re-run to convert simulated cycles
// into the wall-clock "days" units of Table II on paperCores cores.
func measureThroughput(s *avgi.Study) core.ThroughputModel {
	name := s.WorkloadNames()[0]
	r := s.Runner(name)
	m, err := avgi.NewMachine(s.Cfg.Machine, name)
	if err != nil || r == nil {
		return core.ThroughputModel{CyclesPerSecond: 1e6, Cores: paperCores}
	}
	start := time.Now()
	m.Run(avgi.RunOptions{MaxCycles: r.Golden.Cycles + 10})
	el := time.Since(start).Seconds()
	if el <= 0 {
		el = 1e-9
	}
	return core.ThroughputModel{CyclesPerSecond: float64(r.Golden.Cycles) / el, Cores: paperCores}
}
