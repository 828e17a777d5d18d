package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"avgi"
	"avgi/internal/obs"
)

// The study grid: six programs by six structures, 36 pairs. The
// structures span a register file, three cache data arrays, a queue with
// a relative residency window and a TLB.
var (
	studyPrograms   = []string{"sha", "crc32", "qsort", "fft", "dijkstra", "is"}
	studyStructures = []string{"RF", "L1D (Data)", "L1I (Data)", "L2 (Data)", "ROB", "DTLB"}
)

func studyConfig(faults int, seed int64, dir string) (avgi.StudyConfig, error) {
	cfg := avgi.StudyConfig{
		Machine:            avgi.ConfigA72(),
		Structures:         studyStructures,
		FaultsPerStructure: faults,
		Workers:            procs,
		SeedBase:           seed,
		JournalDir:         dir,
		EarlyExit:          true,
	}
	for _, name := range studyPrograms {
		w, err := avgi.WorkloadByName(name)
		if err != nil {
			return cfg, err
		}
		cfg.Workloads = append(cfg.Workloads, w)
	}
	return cfg, nil
}

// studyPass is the product of one five-phase flow.
type studyPass struct {
	wall    time.Duration
	spans   map[string]time.Duration // phase name -> duration
	faults  int                      // faults classified (exhaustive + AVGI)
	errPP   float64                  // mean |AVGI AVF - exhaustive AVF| in percentage points
	speedup float64                  // exhaustive simulated cycles / AVGI simulated cycles
	results []byte                   // JSON of every campaign's results, for the resume check
}

// fivePhases drives one study through the facade: golden runs, exhaustive
// training campaigns and estimator fit, AVGI campaigns, assessment of every
// pair against its exhaustive ground truth.
func fivePhases(e *env, cfg avgi.StudyConfig, id string) (*studyPass, error) {
	p := &studyPass{spans: make(map[string]time.Duration)}
	root := e.rec.begin("study.pass", id, -1)
	t0 := time.Now()
	phase := func(name string, fn func()) {
		h := e.rec.begin(name, id, root)
		t := time.Now()
		fn()
		p.spans[name] = time.Since(t)
		e.rec.end(h)
	}

	var st *avgi.Study
	var err error
	phase("study.new_study", func() { st, err = avgi.NewStudy(cfg) })
	if err != nil {
		e.rec.end(root)
		return nil, err
	}
	var est *avgi.Estimator
	phase("study.train", func() { est = st.TrainEstimator() })
	phase("study.avgi_prefetch", func() { st.PrefetchAVGI(est, studyStructures, studyPrograms) })

	var sumErr float64
	var exhCycles, avgiCycles uint64
	var all [][]avgi.CampaignResult
	phase("study.assess", func() {
		for _, structure := range studyStructures {
			for _, program := range studyPrograms {
				results, window := st.AVGIRun(est, structure, program)
				a := est.AssessResults(st.Runner(program), structure, results, window)
				truth := st.GroundTruthAVF(structure, program)
				sumErr += math.Abs(a.AVF.Total() - truth.Total())
				avgiCycles += a.SimCycles
				exhaustive := st.Exhaustive(structure, program)
				for i := range exhaustive {
					exhCycles += exhaustive[i].SimCycles
				}
				all = append(all, exhaustive, results)
			}
		}
	})
	p.wall = time.Since(t0)
	e.rec.end(root)

	pairs := len(studyStructures) * len(studyPrograms)
	// The estimator sums effect weights in map order, so its AVF repeats
	// only to the last float64 bits; nine decimals make the reported error
	// repeat exactly, as a simulated statistic must.
	p.errPP = math.Round(100*sumErr/float64(pairs)*1e9) / 1e9
	p.speedup = ratio(float64(exhCycles), float64(avgiCycles))
	for _, results := range all {
		p.faults += len(results)
		if len(results) != cfg.FaultsPerStructure {
			e.chk.fail("study %s: campaign returned %d results, want %d", id, len(results), cfg.FaultsPerStructure)
		}
		for i := range results {
			if results[i].Quarantined {
				e.chk.fail("study %s: fault %d quarantined: %s", id, results[i].Fault.ID, results[i].Err)
			}
		}
	}
	e.chk.attempt(p.faults)
	if p.results, err = json.Marshal(all); err != nil {
		return nil, err
	}
	return p, nil
}

// resumePass repeats the flow over the first pass's journal. Every
// campaign must come back from its shard: nothing appended, all 72
// campaigns counted as journal hits, results byte-identical.
func resumePass(e *env, cfg avgi.StudyConfig, id string, first *studyPass) (time.Duration, error) {
	cfg.Resume = true
	reg := obs.NewRegistry()
	cfg.Obs = &obs.Observer{Metrics: reg}
	p, err := fivePhases(e, cfg, id+"/resume")
	if err != nil {
		return 0, err
	}
	lb := map[string]string{"machine": cfg.Machine.Name}
	appends := reg.Counter("avgi_journal_appends_total", "", lb).Value()
	hits := reg.Counter("avgi_journal_hits_total", "", lb).Value()
	campaigns := uint64(2 * len(studyStructures) * len(studyPrograms))
	e.chk.attempt(1)
	switch {
	case appends != 0 || hits != campaigns:
		e.chk.fail("study %s: resume simulated (journal appends %d, hits %d of %d)", id, appends, hits, campaigns)
	case !bytes.Equal(p.results, first.results):
		e.chk.fail("study %s: resumed results differ from the first pass", id)
	}
	return p.wall, nil
}

// runStudyE2E: set-up is a two-fault-per-pair warm-up study that lets lazy
// initialisation finish; each round is one full study on a fresh journal,
// followed (outside wall_s) by a resume over the same journal. One op is
// one classified fault; the latency sample is one whole study.
func runStudyE2E(e *env) (*outcome, error) {
	o := &outcome{}
	n := 0
	freshDir := func() string {
		n++
		return filepath.Join(e.tmp, fmt.Sprintf("study-%d", n))
	}
	_, times, err := setups(e, func() (struct{}, error) {
		dir := freshDir()
		defer os.RemoveAll(dir)
		cfg, err := studyConfig(2, e.seed, dir)
		if err != nil {
			return struct{}{}, err
		}
		_, err = fivePhases(e, cfg, "warm-up")
		return struct{}{}, err
	}, func(struct{}) {})
	if err != nil {
		return nil, err
	}
	o.setup = times

	spans := make(map[string][]float64)
	var resumes, errs, speedups []float64
	err = e.rounds(o, func(i int) (float64, time.Duration, error) {
		dir := freshDir()
		defer os.RemoveAll(dir)
		cfg, err := studyConfig(e.sc.studyFaults, e.seed, dir)
		if err != nil {
			return 0, 0, err
		}
		id := fmt.Sprintf("study-%d", i)
		p, err := fivePhases(e, cfg, id)
		if err != nil {
			return 0, 0, err
		}
		o.lat = append(o.lat, p.wall)
		resumed, err := resumePass(e, cfg, id, p)
		if err != nil {
			return 0, 0, err
		}
		var covered time.Duration
		for name, d := range p.spans {
			spans[name] = append(spans[name], seconds(d))
			covered += d
		}
		spans["residue"] = append(spans["residue"], seconds(p.wall-covered))
		resumes = append(resumes, seconds(resumed))
		errs = append(errs, p.errPP)
		speedups = append(speedups, p.speedup)
		if i == 0 {
			fmt.Printf("# study-e2e avf_abs_err_pp %.4f sim_speedup_x %.4f (%d faults/pair)\n",
				p.errPP, p.speedup, e.sc.studyFaults)
		}
		// Same seed every round: the simulated statistics must repeat.
		e.chk.attempt(1)
		if p.errPP != errs[0] || p.speedup != speedups[0] {
			e.chk.fail("study round %d: avf error %v pp and speed-up %v differ from round 0's %v and %v",
				i, p.errPP, p.speedup, errs[0], speedups[0])
		}
		return float64(p.faults), p.wall, nil
	})
	if err != nil {
		return nil, err
	}
	e.set("study.new_study_ms", 1000*median(spans["study.new_study"]))
	e.set("study.train_s", median(spans["study.train"]))
	e.set("study.avgi_prefetch_s", median(spans["study.avgi_prefetch"]))
	e.set("study.assess_s", median(spans["study.assess"]))
	e.set("study.residue_s", median(spans["residue"]))
	e.set("study.resume_s", median(resumes))
	e.set("study.avf_abs_err_pp", errs[0])
	e.set("study.sim_speedup_x", speedups[0])
	return o, nil
}
