// Command bench is the repository's one benchmark: four workloads that
// between them exercise every layer from a golden cycle to /v1/assess,
// measured from outside through exported calls only. README.md in this
// directory has the metric glossary, the layer-to-metric predictions and
// the procedure for comparing two commits; BENCHMARK.json at the
// repository root is the machine-readable contract.
//
//	go run ./bench                         # all four workloads, one process each
//	go run ./bench -workload avgi-grid     # one workload
//	go run ./bench -workload avgi-grid -trace 1   # per-layer metrics and a span file
//	go run ./bench -repeat 5               # calibration: spreads against the bounds
//	go run ./bench -write-pins             # regenerate bench/pins.json
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// result is the last line a workload run prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]measurement `json:"metrics"`
}

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	traceOut string
	repeat   int
}

func main() { os.Exit(realMain()) }

func realMain() int {
	var opt options
	writePinsFlag := flag.Bool("write-pins", false, "regenerate bench/pins.json from the current simulator and exit")
	flag.StringVar(&opt.workload, "workload", "", "workload to run: golden-sweep, avgi-grid, study-e2e or assess-serve (default: all, one process each)")
	flag.Int64Var(&opt.seed, "seed", 7, "workload seed: fault lists and request keys derive from it")
	flag.IntVar(&opt.seconds, "seconds", 20, "length of the measured region in seconds")
	flag.IntVar(&opt.trace, "trace", 0, "1 runs traced: per-layer metrics, primitives, anatomy replay and a span file")
	flag.StringVar(&opt.traceOut, "trace-out", "", "chrome://tracing span file of a traced run (default .bench_build/trace-<workload>.json)")
	flag.IntVar(&opt.repeat, "repeat", 0, "calibration: run the selected workloads N times with seeds seed..seed+N-1 and check every spread against its bound")
	flag.Parse()
	if flag.NArg() > 0 || opt.seconds < 1 || (opt.trace != 0 && opt.trace != 1) {
		flag.Usage()
		return 2
	}
	runtime.GOMAXPROCS(procs)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	switch {
	case *writePinsFlag:
		if err := writePins(filepath.Join("bench", "pins.json")); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		return 0
	case opt.repeat > 0:
		return calibrate(ctx, opt)
	case opt.workload == "":
		return runAll(ctx, opt)
	}
	w, ok := workloadByName(opt.workload)
	if !ok {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", opt.workload)
		return 2
	}
	res, err := runOne(ctx, w, opt, fullScale)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// scratchDir makes a private directory under .bench_build in the working
// directory (the checkout), so the benchmark never writes outside it.
func scratchDir() (string, error) {
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return "", err
	}
	dir, err := os.MkdirTemp(".bench_build", "run-")
	if err != nil {
		return "", err
	}
	return filepath.Abs(dir)
}

// runOne runs one workload in this process and prints its report.
func runOne(ctx context.Context, w workloadSpec, opt options, sc scale) (*result, error) {
	tmp, err := scratchDir()
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	e := &env{ctx: ctx, seed: opt.seed, budget: time.Duration(opt.seconds) * time.Second, sc: sc, tmp: tmp}
	if opt.trace == 1 {
		e.rec = newRecorder()
		e.layer = make(map[string]float64)
	}

	fp := hostFingerprint()
	fp.Workload, fp.Seed, fp.Seconds, fp.Scale, fp.Trace = w.Name, opt.seed, opt.seconds, sc.name, e.traced()
	fpLine, _ := json.Marshal(fp)
	fmt.Printf("# host %s\n", fpLine)

	o, err := w.run(e)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.Name, err)
	}
	specs, values := endToEnd, endToEndValues(o)
	if e.traced() {
		if err := primitives(e); err != nil {
			return nil, fmt.Errorf("primitives: %w", err)
		}
		if err := anatomy(e); err != nil {
			return nil, fmt.Errorf("anatomy replay: %w", err)
		}
		if warm := e.layer["service.warm_ms_p50"]; warm > 0 {
			e.set("avgid.http_residue_ms", warm-e.layer["service.assess_hit_us"]/1000-e.layer["avgid.encode_ms_per_resp"])
		}
		if err := writeSpans(e.rec, opt.traceOut, w.Name); err != nil {
			return nil, err
		}
		specs, values = perLayer, e.layer
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	res := &result{
		Correct:   e.chk.failed == 0,
		Attempted: e.chk.attempted,
		Failed:    e.chk.failed,
		Metrics:   report(specs, values),
	}
	printReport(os.Stdout, w.Name, o, specs, res, e.chk.notes)
	if e.traced() {
		printSelfTimes(os.Stdout, e.rec.snapshot())
	}
	return res, nil
}

func printReport(w io.Writer, name string, o *outcome, specs []metricSpec, res *result, notes []string) {
	lat, tail := durationsMS(o.lat), tailPercentile(len(o.lat))
	fmt.Fprintf(w, "# %s: %d rounds; op latency n=%d p50 %.4f ms p%g %.4f ms; fail_ratio %d/%d\n",
		name, len(o.walls), len(lat), percentile(lat, 50), tail, percentile(lat, tail), res.Failed, res.Attempted)
	for _, note := range notes {
		fmt.Fprintf(w, "# FAILED CHECK: %s\n", note)
	}
	for _, s := range specs {
		fmt.Fprintf(w, "%-40s %16.6g %s\n", s.Name, res.Metrics[s.Name].Value, s.Unit)
	}
}

// printSelfTimes lists each layer's self time: span time not covered by
// the layer's own child spans.
func printSelfTimes(w io.Writer, spans []span) {
	self := layerSelf(spans)
	layers := make([]string, 0, len(self))
	for l := range self {
		layers = append(layers, l)
	}
	sort.Strings(layers)
	for _, l := range layers {
		fmt.Fprintf(w, "# self time %-10s %10.3f ms\n", l, millis(self[l]))
	}
}

func writeSpans(r *recorder, path, workload string) error {
	if path == "" {
		path = filepath.Join(".bench_build", "trace-"+workload+".json") // scratchDir made the directory
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := writeChromeTrace(f, r.snapshot()); err != nil {
		f.Close()
		return err
	}
	fmt.Printf("# spans written to %s\n", path)
	return f.Close()
}

// child runs this binary again for one workload, so that every workload
// has a process (and a peak RSS) of its own, and returns its result line.
func child(ctx context.Context, opt options, workload string, seed int64, out io.Writer) (*result, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"-workload", workload, "-seed", fmt.Sprint(seed),
		"-seconds", fmt.Sprint(opt.seconds), "-trace", fmt.Sprint(opt.trace)}
	if opt.traceOut != "" {
		args = append(args, "-trace-out", opt.traceOut+"."+workload)
	}
	cmd := exec.CommandContext(ctx, self, args...)
	cmd.Cancel = func() error { return cmd.Process.Signal(syscall.SIGTERM) }
	cmd.WaitDelay = time.Minute
	cmd.Stderr = os.Stderr
	var buf bytes.Buffer
	cmd.Stdout = io.MultiWriter(&buf, out)
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s: %w", workload, err)
	}
	var last string
	sc := bufio.NewScanner(&buf)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		last = sc.Text()
	}
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return nil, fmt.Errorf("%s: no result line: %w", workload, err)
	}
	return &res, nil
}

func selected(opt options) []string {
	if opt.workload != "" {
		return []string{opt.workload}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return names
}

func runAll(ctx context.Context, opt options) int {
	code := 0
	for _, name := range selected(opt) {
		res, err := child(ctx, opt, name, opt.seed, os.Stdout)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		if !res.Correct {
			code = 1
		}
	}
	return code
}

// calibrate runs the selected workloads opt.repeat times, alternating
// their order, and prints each end-to-end metric's median, quartiles and
// spread. It fails when a spread exceeds the metric's bound: such a
// metric cannot tell a regression from noise and must be demoted, not
// widened.
func calibrate(ctx context.Context, opt options) int {
	if _, ok := workloadByName(opt.workload); opt.workload != "" && !ok {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", opt.workload)
		return 2
	}
	names := selected(opt)
	samples := make(map[string]map[string][]float64) // workload -> metric -> values
	for i := 0; i < opt.repeat; i++ {
		order := append([]string(nil), names...)
		if i%2 == 1 {
			for a, b := 0, len(order)-1; a < b; a, b = a+1, b-1 {
				order[a], order[b] = order[b], order[a]
			}
		}
		for _, name := range order {
			var log bytes.Buffer
			res, err := child(ctx, opt, name, opt.seed+int64(i), &log)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				return 1
			}
			if !res.Correct {
				os.Stderr.Write(log.Bytes())
				fmt.Fprintf(os.Stderr, "bench: %s seed %d: %d of %d checks failed\n", name, opt.seed+int64(i), res.Failed, res.Attempted)
				return 1
			}
			if samples[name] == nil {
				samples[name] = make(map[string][]float64)
			}
			for metric, m := range res.Metrics {
				samples[name][metric] = append(samples[name][metric], m.Value)
			}
			line, _ := json.Marshal(res.Metrics)
			fmt.Printf("# run %d/%d %s seed %d %s\n", i+1, opt.repeat, name, opt.seed+int64(i), line)
		}
	}
	specs := endToEnd
	if opt.trace == 1 {
		specs = perLayer
	}
	fp, _ := json.Marshal(hostFingerprint())
	fmt.Printf("# host %s\n", fp)
	fmt.Printf("%-14s %-36s %12s %12s %12s %8s %6s\n", "workload", "metric", "median", "q1", "q3", "spread", "bound")
	code := 0
	for _, name := range names {
		for _, s := range specs {
			xs := samples[name][s.Name]
			q1, q3 := xs[0], xs[0]
			if len(xs) >= 2 {
				q1, q3 = quartiles(xs)
			}
			verdict := ""
			// setup_s is judged on its median only: it is a median of few
			// set-ups and the acceptance procedure exempts its spread.
			if s.Bound > 0 && s.Name != "setup_s" && !withinBound(xs, s.Bound) {
				verdict = "  EXCEEDS BOUND"
				code = 1
			}
			fmt.Printf("%-14s %-36s %12.6g %12.6g %12.6g %7.2f%% %5.0f%%%s\n",
				name, s.Name, median(xs), q1, q3, 100*spread(xs), 100*s.Bound, verdict)
		}
	}
	if code != 0 {
		fmt.Println("# at least one end-to-end spread exceeds its bound")
	}
	return code
}
