package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io/fs"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"avgi"
	"avgi/internal/campaign"
	"avgi/internal/ckpt"
	"avgi/internal/core"
	"avgi/internal/cpu"
	"avgi/internal/dist"
	"avgi/internal/engine"
	"avgi/internal/imm"
	"avgi/internal/journal"
	"avgi/internal/mem"
	"avgi/internal/obs"
	"avgi/internal/trace"
)

// The primitives are the traced run's isolated micro-timings: each layer's
// exported entry points driven on fixed inputs, so a layer's number moves
// only when that layer does. Every workload's traced run measures all of
// them; none depends on -seed.

// timeEach runs fn n times and returns the median duration of one call.
func timeEach(n int, fn func(i int)) time.Duration {
	ds := make([]float64, n)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		fn(i)
		ds[i] = float64(time.Since(t0))
	}
	return time.Duration(median(ds))
}

// timeLoop times n back-to-back calls and returns nanoseconds per call,
// for operations too short to time one by one.
func timeLoop(n int, fn func(i int)) float64 {
	t0 := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	return float64(time.Since(t0)) / float64(n)
}

func primitives(e *env) error {
	runtime.GC() // start from the same heap whatever workload ran before
	for _, section := range []func(*env) error{
		primGolden, primMachine, primMem, primSmall, primCampaign, primJournal, primService, primDist,
	} {
		if err := section(e); err != nil {
			return err
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	e.set("host.alloc_mb_total", float64(ms.TotalAlloc)/1e6)
	e.set("host.gc_pause_ms_total", float64(ms.PauseTotalNs)/1e6)
	e.set("host.nproc", float64(runtime.NumCPU()))
	e.set("host.gomaxprocs", float64(runtime.GOMAXPROCS(0)))
	return nil
}

// primGolden runs one sweep and reads the simulated statistics off the
// machines: the "simulated statistics identical" check of a speed-up.
func primGolden(e *env) error {
	pins, err := loadPins()
	if err != nil {
		return err
	}
	var ns, cycles [2]float64
	var commits, branches, mispredicts, events, engCycles, ticks float64
	var acc, miss [4]float64 // L1I, L1D, L2, DTLB
	for i, c := range sweepCases(e) {
		t0 := time.Now()
		res, m := goldenRun(c)
		ns[i%2] += float64(time.Since(t0))
		cycles[i%2] += float64(res.Cycles)
		checkPin(&e.chk, pins, c.id, res)
		commits += float64(res.Commits)
		branches += float64(m.Stats.Branches)
		mispredicts += float64(m.Stats.Mispredicts)
		events += float64(res.Engine.Events)
		engCycles += float64(res.Engine.Cycles)
		for _, cs := range res.Engine.Components {
			ticks += float64(cs.Ticks)
		}
		h := m.Mem
		for k, am := range [4][2]uint64{{h.L1I.Accesses, h.L1I.Misses}, {h.L1D.Accesses, h.L1D.Misses},
			{h.L2.Accesses, h.L2.Misses}, {h.DTLB.Accesses, h.DTLB.Misses}} {
			acc[k] += float64(am[0])
			miss[k] += float64(am[1])
		}
	}
	e.set("cpu.golden_ns_per_cycle.a72", ratio(ns[0], cycles[0]))
	e.set("cpu.golden_ns_per_cycle.a15", ratio(ns[1], cycles[1]))
	e.set("cpu.ipc", ratio(commits, cycles[0]+cycles[1]))
	e.set("cpu.sim_cycles_total", cycles[0]+cycles[1])
	e.set("cpu.sim_commits_total", commits)
	e.set("cpu.mispredict_ratio", ratio(mispredicts, branches))
	e.set("mem.l1i_miss_ratio", ratio(miss[0], acc[0]))
	e.set("mem.l1d_miss_ratio", ratio(miss[1], acc[1]))
	e.set("mem.l2_miss_ratio", ratio(miss[2], acc[2]))
	e.set("mem.dtlb_miss_ratio", ratio(miss[3], acc[3]))
	e.set("engine.events_per_cycle", ratio(events, engCycles))
	e.set("engine.ticks_total", ticks)
	return nil
}

// midRun returns a qsort machine on the A72 model stopped a quarter of
// the way through the program, and the program's golden length.
func midRun() (*cpu.Machine, uint64, error) {
	r, err := newRunner("qsort")
	if err != nil {
		return nil, 0, err
	}
	m := cpu.New(r.Cfg, r.Prog)
	m.Run(cpu.RunOptions{StopAtCycle: r.Golden.Cycles / 4})
	return m, r.Golden.Cycles, nil
}

// primMachine times full and delta state copies of one machine.
func primMachine(e *env) error {
	m, golden, err := midRun()
	if err != nil {
		return err
	}
	n := e.sc.primIters
	var snap *cpu.Snapshot
	e.set("cpu.snapshot_full_us", micros(timeEach(n, func(int) { snap = m.Snapshot(nil) })))
	e.set("cpu.restore_full_us", micros(timeEach(n, func(int) { m.Restore(snap) })))
	var clone *cpu.Machine
	e.set("cpu.clone_us", micros(timeEach(n, func(int) { clone = m.Clone() })))
	_ = clone

	// The cursor's per-fault pair: advance a little, delta-capture, run a
	// 2000-cycle window, delta-rewind. Only the two copies are timed.
	m.BeginDeltaTracking()
	snap = m.Snapshot(nil)
	step := (golden / 2) / uint64(n)
	var pairs []float64
	var bytesMoved uint64
	for i := 0; i < n && m.Status() == cpu.StatusRunning; i++ {
		m.Run(cpu.RunOptions{StopAtCycle: m.Cycle() + max(step, 1)})
		t0 := time.Now()
		moved := m.SyncSnapshot(snap)
		d := time.Since(t0)
		m.Run(cpu.RunOptions{StopAtCycle: m.Cycle() + gridWindow})
		t0 = time.Now()
		moved += m.SyncRestore(snap)
		d += time.Since(t0)
		pairs = append(pairs, micros(d))
		bytesMoved += moved
	}
	e.set("cpu.sync_pair_us", median(pairs))
	e.set("cpu.sync_delta_bytes", ratio(float64(bytesMoved), float64(len(pairs))))
	return nil
}

// primMem times one cache access and one hierarchy-wide delta sync pair.
func primMem(e *env) error {
	ram := mem.NewRAM(1 << 20)
	c := mem.NewCache(mem.CacheConfig{Name: "L1D", Sets: 32, Ways: 2, LineBytes: 64, HitLat: 2, AddrBits: 20},
		&mem.RAMLevel{RAM: ram, ReadLat: 60})
	var buf [8]byte
	e.set("mem.cache_access_ns", timeLoop(5000*e.sc.primIters, func(i int) {
		c.Access(uint64(i*64+i*8)&(1<<18-1)&^7, 8, i&3 == 0, buf[:])
	}))

	h := mem.NewHierarchy(cpu.ConfigA72().Mem)
	h.BeginDeltaTracking()
	snap := h.Snapshot(nil)
	touch := func(base int) {
		for j := 0; j < 8; j++ {
			h.Store(uint64((base+j)*64)&(1<<18-1), 8, uint64(base+j))
		}
	}
	var pairs []float64
	for i := 0; i < 10*e.sc.primIters; i++ {
		touch(i)
		t0 := time.Now()
		h.SyncSnapshot(snap)
		d := time.Since(t0)
		touch(i * 3)
		t0 = time.Now()
		h.SyncRestore(snap)
		pairs = append(pairs, float64(d+time.Since(t0)))
	}
	e.set("mem.hier_sync_pair_ns", median(pairs))
	return nil
}

type noopTicker struct{}

func (noopTicker) Name() string { return "noop" }
func (noopTicker) Tick(uint64)  {}

// primSmall covers the layers whose whole cost is one short call: the
// empty engine, the trace sinks, checkpoints, fault lists, the classifier.
func primSmall(e *env) error {
	n := e.sc.primIters
	eng := engine.New()
	eng.Register(noopTicker{})
	e.set("engine.run_cycle_ns", timeLoop(5000*n, func(int) { eng.RunCycle() }))

	r, err := newRunner("qsort")
	if err != nil {
		return err
	}
	golden := r.Golden.Trace
	var capture trace.Capture
	e.set("trace.capture_ns_per_record", timeLoop(len(golden), func(i int) { capture.OnCommit(golden[i]) }))
	cmp := trace.Comparator{Golden: golden}
	e.set("trace.compare_ns_per_record", timeLoop(len(golden), func(i int) { cmp.OnCommit(golden[i]) }))
	e.chk.attempt(1)
	if cmp.Dev.Kind != trace.DevNone {
		e.chk.fail("comparator found a deviation between a trace and itself")
	}

	var store *ckpt.Store
	reps := max(n/20, 1)
	e.set("ckpt.record_ms", millis(timeEach(reps, func(int) {
		store = ckpt.Record(r.Cfg, r.Prog, r.Golden.Cycles, 0)
	})))
	e.set("ckpt.store_mb", float64(store.Bytes())/1e6)
	m := cpu.New(r.Cfg, r.Prog)
	e.set("ckpt.seek_restore_us", micros(timeEach(n, func(i int) {
		snap, _ := store.Seek(uint64(i) * r.Golden.Cycles / uint64(n))
		m.Restore(snap)
	})))

	e.set("fault.list_us_per_kfault", micros(timeEach(reps, func(i int) {
		r.FaultList("RF", 1000, int64(i+1))
	})))

	dev := trace.Deviation{Kind: trace.DevRecord, Index: 1, Cycle: golden[1].Cycle, Golden: golden[1], Faulty: golden[1]}
	dev.Faulty.Value ^= 1
	var class imm.IMM
	e.set("imm.classify_ns", timeLoop(500*n, func(int) {
		class = imm.Classify(imm.Inputs{Dev: dev, Variant: r.Cfg.Variant})
	}))
	_ = class
	return nil
}

// timedRun times one campaign and counts its quarantined faults.
func timedRun(e *env, r *campaign.Runner, id string, faults []avgi.Fault, mode campaign.Mode, workers int) (time.Duration, []campaign.Result) {
	var window uint64
	if mode == campaign.ModeAVGI {
		window = gridWindow
	}
	t0 := time.Now()
	results := r.Run(faults, mode, window, workers)
	d := time.Since(t0)
	e.add("campaign.quarantined_total", float64(checkCampaign(&e.chk, id, faults, results)))
	return d, results
}

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// primCampaign measures Runner.Run on the standard RF/sha shape: worker
// scaling, allocation per fault, telemetry overhead, and the estimator fit
// on a small cached training set.
func primCampaign(e *env) error {
	var r *campaign.Runner
	var err error
	e.set("campaign.golden_setup_ms", millis(timeEach(3, func(int) {
		if r2, err2 := newRunner("sha"); err2 != nil {
			err = err2
		} else {
			r = r2
		}
	})))
	if err != nil {
		return err
	}
	faults := r.FaultList("RF", e.sc.primFaults, anatomySeed)
	r.Run(faults[:2], campaign.ModeAVGI, gridWindow, procs) // records the checkpoint store

	// Three interleaved repetitions of one worker, two workers and one
	// worker with telemetry on; medians, so one slow pass does not set a
	// ratio.
	var w1, w2, observed []float64
	var avgiResults []campaign.Result
	var allocated uint64
	telemetry := obs.New(nil)
	n := float64(len(faults))
	for rep := 0; rep < 3; rep++ {
		a0 := totalAlloc()
		d, results := timedRun(e, r, "prim RF/sha w1", faults, campaign.ModeAVGI, 1)
		allocated = totalAlloc() - a0
		w1, avgiResults = append(w1, seconds(d)), results
		d, _ = timedRun(e, r, "prim RF/sha w2", faults, campaign.ModeAVGI, procs)
		w2 = append(w2, seconds(d))
		r.Obs = telemetry
		d, _ = timedRun(e, r, "prim RF/sha observed", faults, campaign.ModeAVGI, 1)
		r.Obs = nil
		observed = append(observed, seconds(d))
	}
	e.set("campaign.run_faults_per_s.w1", n/median(w1))
	e.set("campaign.run_faults_per_s.w2", n/median(w2))
	e.set("campaign.worker_scaling_x", ratio(median(w1), median(w2)))
	e.set("campaign.alloc_kb_per_fault.avgi", float64(allocated)/1024/n)
	e.set("obs.campaign_overhead_ratio", ratio(median(observed), median(w1)))

	exh := faults[:max(len(faults)/16, 2)]
	a0 := totalAlloc()
	timedRun(e, r, "prim RF/sha exhaustive", exh, campaign.ModeExhaustive, 1)
	e.set("campaign.alloc_kb_per_fault.exhaustive", float64(totalAlloc()-a0)/1024/float64(len(exh)))

	// core: fit the estimator on two structures by two programs.
	td := core.TrainingData{
		Results:     make(map[string]map[string][]campaign.Result),
		OutputSize:  make(map[string]int),
		TotalCycles: make(map[string]uint64),
		Exposure:    make(map[string]map[string]float64),
	}
	trainFaults := max(e.sc.primFaults/32, 2)
	for _, program := range []string{"sha", "crc32"} {
		tr, err := newRunner(program)
		if err != nil {
			return err
		}
		td.OutputSize[program] = len(tr.Golden.Output)
		td.TotalCycles[program] = tr.Golden.Cycles
		for _, structure := range []string{"RF", "L1D (Data)"} {
			if td.Results[structure] == nil {
				td.Results[structure] = make(map[string][]campaign.Result)
				td.Exposure[structure] = make(map[string]float64)
			}
			fl := tr.FaultList(structure, trainFaults, anatomySeed)
			_, td.Results[structure][program] = timedRun(e, tr, "prim train "+structure+"/"+program, fl, campaign.ModeExhaustive, procs)
			td.Exposure[structure][program] = tr.OutputExposure[structure]
		}
	}
	var est *core.Estimator
	e.set("core.train_ms", millis(timeEach(max(e.sc.primIters/10, 1), func(int) { est = core.Train(td) })))
	e.set("core.assess_results_us", micros(timeEach(e.sc.primIters, func(int) {
		est.AssessResults(r, "RF", avgiResults, gridWindow)
	})))
	return nil
}

// dirBytes is the total size of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		return nil
	})
	return total, err
}

// rfShard is the journal identity of an n-fault RF campaign of r's program
// at the primitives' fixed seed, built as the study scheduler builds it.
func rfShard(r *campaign.Runner, n int) (journal.Key, journal.Binding) {
	return journal.Key{Structure: "RF", Workload: r.Prog.Name, Mode: "avgi", Window: gridWindow},
		journal.Binding{Machine: r.Cfg.Name, Variant: r.Cfg.Variant.String(),
			ProgramHash: journal.HashProgram(r.Prog), Seed: anatomySeed, Faults: n}
}

// sampleResults is a campaign's worth of real results to journal.
func sampleResults(e *env, n int) (*campaign.Runner, []campaign.Result, error) {
	r, err := newRunner("sha")
	if err != nil {
		return nil, nil, err
	}
	faults := r.FaultList("RF", min(n, e.sc.primFaults), anatomySeed)
	return r, r.Run(faults, campaign.ModeAVGI, gridWindow, procs), nil
}

// primJournal times the shard write, read and merge paths on real results.
func primJournal(e *env) error {
	r, results, err := sampleResults(e, 400)
	if err != nil {
		return err
	}
	n := len(results)
	per400 := 400 / float64(n)
	dir := filepath.Join(e.tmp, "prim-journal")
	defer os.RemoveAll(dir)
	j, err := journal.Open(dir)
	if err != nil {
		return err
	}
	key, bind := rfShard(r, n)

	write := func(policy journal.SyncPolicy, count int) (time.Duration, error) {
		w, err := j.Writer(key, bind, false)
		if err != nil {
			return 0, err
		}
		w.SetSyncPolicy(policy)
		t0 := time.Now()
		for i := 0; i < count; i++ {
			w.Append(i, results[i])
		}
		err = w.Close() // flushes and fsyncs: the chunk boundary
		return time.Since(t0), err
	}
	every, err := write(journal.SyncEvery, min(n, 32))
	if err != nil {
		return err
	}
	e.set("journal.append_fsync_every_us", micros(every)/float64(min(n, 32)))
	chunk, err := write(journal.SyncChunk, n)
	if err != nil {
		return err
	}
	e.set("journal.append_us_per_result", micros(chunk)/float64(n))
	size, err := dirBytes(dir)
	if err != nil {
		return err
	}
	e.set("journal.shard_kb_per_400", float64(size)/1024*per400)

	var loaded map[int]campaign.Result
	load := timeEach(max(e.sc.primIters/10, 1), func(int) { loaded, err = j.Load(key, bind) })
	if err != nil {
		return err
	}
	e.set("journal.load_ms_per_400", millis(load)*per400)
	e.chk.attempt(1)
	if len(loaded) != n {
		e.chk.fail("journal: loaded %d of %d appended results", len(loaded), n)
	}

	merged := make(map[int]campaign.Result, 4096)
	big := min(4096, 10*n)
	for i := 0; i < big; i++ {
		merged[i] = results[i%n]
	}
	bigBind := bind
	bigBind.Faults = big
	t0 := time.Now()
	if err := j.Merge(journal.Key{Structure: "RF", Workload: "sha", Mode: "merge"}, bigBind, merged); err != nil {
		return err
	}
	e.set("journal.merge_ms_per_4096", millis(time.Since(t0))*4096/float64(big))
	return nil
}

// primService drives Service.Assess in process: the three cache tiers, the
// first-touch golden run, and request coalescing; then the cost of
// encoding one response the way avgid does.
func primService(e *env) error {
	dir := filepath.Join(e.tmp, "prim-service")
	defer os.RemoveAll(dir)
	svc, err := avgi.NewService(avgi.ServiceConfig{Workers: procs, JournalDir: dir})
	if err != nil {
		return err
	}
	req := func(seed int64) avgi.AssessRequest { return serveRequest("RF", "crc32", e.sc.serveFaults, seed) }
	assess := func(s *avgi.Service, seed int64) (*avgi.AssessResponse, time.Duration, error) {
		t0 := time.Now()
		resp, err := s.Assess(req(seed))
		e.chk.attempt(1)
		if err != nil {
			e.chk.fail("in-process assess seed %d: %v", seed, err)
		}
		return resp, time.Since(t0), err
	}
	_, first, err := assess(svc, 1)
	if err != nil {
		return err
	}
	e.set("service.golden_first_touch_ms", millis(first))
	var misses []float64
	for seed := int64(2); seed <= 6; seed++ {
		_, d, err := assess(svc, seed)
		if err != nil {
			return err
		}
		misses = append(misses, millis(d))
	}
	e.set("service.assess_miss_ms", median(misses))

	var resp *avgi.AssessResponse
	e.set("service.assess_hit_us", micros(timeEach(10*e.sc.primIters, func(int) { resp, _, err = assess(svc, 1) })))
	if err != nil {
		return err
	}
	e.chk.attempt(1)
	if !resp.Meta.JournalHit || resp.Meta.SimulatedFaults != 0 {
		e.chk.fail("in-process repeat was not a hit: %+v", resp.Meta)
	}

	uncached, err := avgi.NewService(avgi.ServiceConfig{Workers: procs, JournalDir: dir, ShardCacheEntries: -1})
	if err != nil {
		return err
	}
	if _, _, err := assess(uncached, 1); err != nil { // golden run for this service
		return err
	}
	e.set("service.assess_journal_hit_ms", millis(timeEach(e.sc.primIters, func(int) { _, _, err = assess(uncached, 1) })))
	if err != nil {
		return err
	}

	// Eight identical concurrent requests for a new key simulate once.
	const clients = 8
	var wg sync.WaitGroup
	var mu sync.Mutex
	simulatedBy := 0
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if r, _, err := assess(svc, 99); err == nil && r.Meta.SimulatedFaults > 0 {
				mu.Lock()
				simulatedBy++
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	e.chk.attempt(1)
	if simulatedBy != 1 {
		e.chk.fail("%d of %d identical concurrent requests simulated, want 1", simulatedBy, clients)
	}
	e.set("service.coalesced_ratio", float64(clients-simulatedBy)/clients)

	var body bytes.Buffer
	encode := timeEach(e.sc.primIters, func(int) {
		body.Reset()
		enc := json.NewEncoder(&body)
		enc.SetIndent("", "  ") // as avgid's writeJSON does
		err = enc.Encode(resp)
	})
	if err != nil {
		return err
	}
	e.set("avgid.encode_ms_per_resp", millis(encode))
	e.set("avgid.resp_kb", float64(body.Len())/1024)
	return nil
}

// primDist times a lease round trip through each of the three leasers and
// a one-node fleet over the standard RF/sha campaign. Fleet scaling cannot
// be measured on two cores and is not claimed.
func primDist(e *env) error {
	dir := filepath.Join(e.tmp, "prim-dist")
	defer os.RemoveAll(dir)
	n := e.sc.primIters
	roundTrip := func(l dist.Leaser) (float64, error) {
		var err error
		d := timeEach(n, func(i int) {
			name := fmt.Sprintf("bench-lease-%d", i)
			ok, aerr := l.TryAcquire(name, "bench", time.Minute)
			if aerr != nil || !ok {
				err = fmt.Errorf("lease %s not acquired: %v", name, aerr)
				return
			}
			if rerr := l.Release(name, "bench", false); rerr != nil {
				err = rerr
			}
		})
		return micros(d), err
	}
	us, err := roundTrip(dist.NewFileLeaser(filepath.Join(dir, "leases")))
	if err != nil {
		return err
	}
	e.set("dist.file_lease_roundtrip_us", us)
	if us, err = roundTrip(dist.NewCoordinator()); err != nil {
		return err
	}
	e.set("dist.coord_lease_roundtrip_us", us)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	mux := http.NewServeMux()
	dist.NewCoordinator().Mount(mux)
	srv := &http.Server{Handler: mux}
	served := make(chan struct{})
	go func() { srv.Serve(ln); close(served) }()
	us, err = roundTrip(dist.NewHTTPLeaser("http://" + ln.Addr().String()))
	srv.Close()
	<-served
	if err != nil {
		return err
	}
	e.set("dist.http_lease_roundtrip_us", us)

	r, err := newRunner("sha")
	if err != nil {
		return err
	}
	faults := r.FaultList("RF", e.sc.primFaults, anatomySeed)
	r.Run(faults[:2], campaign.ModeAVGI, gridWindow, procs)
	j, err := journal.Open(filepath.Join(dir, "journal"))
	if err != nil {
		return err
	}
	key, bind := rfShard(r, len(faults))
	t0 := time.Now()
	results, err := dist.Run(dist.Config{Journal: j, Owner: "bench", LocalWorkers: procs, Sync: journal.SyncEvery},
		r, faults, key, bind, campaign.ModeAVGI, gridWindow)
	d := time.Since(t0)
	if err != nil {
		return err
	}
	e.add("campaign.quarantined_total", float64(checkCampaign(&e.chk, "prim dist RF/sha", faults, results)))
	e.set("dist.fleet1_faults_per_s", float64(len(faults))/seconds(d))
	return nil
}
