package main

// metricSpec names one metric of the benchmark. BENCHMARK.json at the
// repository root carries the same lists (TestBenchmarkJSONMatchesRegistry
// keeps the two in step); this file is what the harness prints from.
type metricSpec struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: tolerated worsening as a share of the parent's median
}

// endToEnd is what a user of the stack sees, in host time. Every workload
// reports every one of them, so each is defined by the workload's own unit
// of work (README.md has the table):
//
//	wall_s      one round of the workload's fixed work — a 26-run sweep,
//	            the 48-pair grid, one five-phase study, the 120-key cold fill
//	ops_per_s   simulated kilocycles, faults, faults, mix requests per second
//
// Bounds are set against the ten-seed spreads measured on the 2-core
// reference sandbox (README.md has the calibration table).
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"wall_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.25},
}

// perLayer is the traced run's output: one entry per layer measurement, in
// layer order. Counts marked sim in README.md repeat exactly for a seed.
var perLayer = []metricSpec{
	// cpu: golden cost moves ops_per_s@golden-sweep and @study-e2e;
	// snapshot/sync cost moves ops_per_s@avgi-grid only.
	{Name: "cpu.golden_ns_per_cycle.a72", Unit: "ns", Better: "lower"},
	{Name: "cpu.golden_ns_per_cycle.a15", Unit: "ns", Better: "lower"},
	{Name: "cpu.ipc", Unit: "ratio", Better: "higher"},
	{Name: "cpu.sim_cycles_total", Unit: "count", Better: "lower"},
	{Name: "cpu.sim_commits_total", Unit: "count", Better: "higher"},
	{Name: "cpu.mispredict_ratio", Unit: "ratio", Better: "lower"},
	{Name: "cpu.snapshot_full_us", Unit: "us", Better: "lower"},
	{Name: "cpu.restore_full_us", Unit: "us", Better: "lower"},
	{Name: "cpu.sync_pair_us", Unit: "us", Better: "lower"},
	{Name: "cpu.sync_delta_bytes", Unit: "count", Better: "lower"},
	{Name: "cpu.clone_us", Unit: "us", Better: "lower"},

	{Name: "mem.cache_access_ns", Unit: "ns", Better: "lower"},
	{Name: "mem.hier_sync_pair_ns", Unit: "ns", Better: "lower"},
	{Name: "mem.l1i_miss_ratio", Unit: "ratio", Better: "lower"},
	{Name: "mem.l1d_miss_ratio", Unit: "ratio", Better: "lower"},
	{Name: "mem.l2_miss_ratio", Unit: "ratio", Better: "lower"},
	{Name: "mem.dtlb_miss_ratio", Unit: "ratio", Better: "lower"},
	{Name: "mem.cow_pages_per_fault", Unit: "count", Better: "lower"},

	{Name: "engine.run_cycle_ns", Unit: "ns", Better: "lower"},
	{Name: "engine.events_per_cycle", Unit: "ratio", Better: "lower"},
	{Name: "engine.ticks_total", Unit: "count", Better: "lower"},

	{Name: "trace.capture_ns_per_record", Unit: "ns", Better: "lower"},
	{Name: "trace.compare_ns_per_record", Unit: "ns", Better: "lower"},

	{Name: "ckpt.record_ms", Unit: "ms", Better: "lower"},
	{Name: "ckpt.seek_restore_us", Unit: "us", Better: "lower"},
	{Name: "ckpt.store_mb", Unit: "MB", Better: "lower"},

	{Name: "fault.list_us_per_kfault", Unit: "us", Better: "lower"},
	{Name: "imm.classify_ns", Unit: "ns", Better: "lower"},

	// campaign: the anatomy replay's per-fault budget, then Runner.Run.
	{Name: "campaign.fault_us", Unit: "us", Better: "lower"},
	{Name: "campaign.advance_us_per_fault", Unit: "us", Better: "lower"},
	{Name: "campaign.sync_us_per_fault", Unit: "us", Better: "lower"},
	{Name: "campaign.window_us_per_fault", Unit: "us", Better: "lower"},
	{Name: "campaign.restore_us_per_fault", Unit: "us", Better: "lower"},
	{Name: "campaign.classify_us_per_fault", Unit: "us", Better: "lower"},
	{Name: "campaign.self_us_per_fault", Unit: "us", Better: "lower"},
	{Name: "campaign.window_cycles_per_fault", Unit: "count", Better: "lower"},
	{Name: "campaign.advance_cycles_per_fault", Unit: "count", Better: "lower"},
	{Name: "campaign.early_exit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "campaign.run_faults_per_s.w1", Unit: "1/s", Better: "higher"},
	{Name: "campaign.run_faults_per_s.w2", Unit: "1/s", Better: "higher"},
	{Name: "campaign.worker_scaling_x", Unit: "x", Better: "higher"},
	{Name: "campaign.replay_vs_run_ratio", Unit: "ratio", Better: "lower"},
	{Name: "campaign.golden_setup_ms", Unit: "ms", Better: "lower"},
	{Name: "campaign.alloc_kb_per_fault.avgi", Unit: "KB", Better: "lower"},
	{Name: "campaign.alloc_kb_per_fault.exhaustive", Unit: "KB", Better: "lower"},
	{Name: "campaign.quarantined_total", Unit: "count", Better: "lower"},

	{Name: "core.train_ms", Unit: "ms", Better: "lower"},
	{Name: "core.assess_results_us", Unit: "us", Better: "lower"},

	{Name: "journal.append_us_per_result", Unit: "us", Better: "lower"},
	{Name: "journal.append_fsync_every_us", Unit: "us", Better: "lower"},
	{Name: "journal.load_ms_per_400", Unit: "ms", Better: "lower"},
	{Name: "journal.merge_ms_per_4096", Unit: "ms", Better: "lower"},
	{Name: "journal.shard_kb_per_400", Unit: "KB", Better: "lower"},

	// study: spans around the facade calls of study-e2e; zero elsewhere.
	{Name: "study.new_study_ms", Unit: "ms", Better: "lower"},
	{Name: "study.train_s", Unit: "s", Better: "lower"},
	{Name: "study.avgi_prefetch_s", Unit: "s", Better: "lower"},
	{Name: "study.assess_s", Unit: "s", Better: "lower"},
	{Name: "study.residue_s", Unit: "s", Better: "lower"},
	{Name: "study.resume_s", Unit: "s", Better: "lower"},
	{Name: "study.avf_abs_err_pp", Unit: "pp", Better: "lower"},
	{Name: "study.sim_speedup_x", Unit: "x", Better: "higher"},

	// service: in-process Service.Assess, then the avgid phases of
	// assess-serve (zero elsewhere).
	{Name: "service.assess_hit_us", Unit: "us", Better: "lower"},
	{Name: "service.assess_journal_hit_ms", Unit: "ms", Better: "lower"},
	{Name: "service.assess_miss_ms", Unit: "ms", Better: "lower"},
	{Name: "service.golden_first_touch_ms", Unit: "ms", Better: "lower"},
	{Name: "service.coalesced_ratio", Unit: "ratio", Better: "higher"},
	{Name: "service.shard_cache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "service.cold_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "service.cold_ms_p90", Unit: "ms", Better: "lower"},
	{Name: "service.warm_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "service.warm_ms_p99", Unit: "ms", Better: "lower"},
	{Name: "service.journal_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "service.journal_ms_p99", Unit: "ms", Better: "lower"},
	{Name: "service.mix_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "service.mix_hit_ms_p99", Unit: "ms", Better: "lower"},

	{Name: "avgid.encode_ms_per_resp", Unit: "ms", Better: "lower"},
	{Name: "avgid.resp_kb", Unit: "KB", Better: "lower"},
	{Name: "avgid.http_residue_ms", Unit: "ms", Better: "lower"},
	{Name: "avgid.build_s", Unit: "s", Better: "lower"},

	// dist: no end-to-end workload on 2 cores; fleet scaling is unmeasured.
	{Name: "dist.file_lease_roundtrip_us", Unit: "us", Better: "lower"},
	{Name: "dist.coord_lease_roundtrip_us", Unit: "us", Better: "lower"},
	{Name: "dist.http_lease_roundtrip_us", Unit: "us", Better: "lower"},
	{Name: "dist.fleet1_faults_per_s", Unit: "1/s", Better: "higher"},

	{Name: "obs.campaign_overhead_ratio", Unit: "ratio", Better: "lower"},
	{Name: "bench.trace_overhead_ratio", Unit: "ratio", Better: "lower"},
	{Name: "bench.traced_wall_s", Unit: "s", Better: "lower"},
	{Name: "host.alloc_mb_total", Unit: "MB", Better: "lower"},
	{Name: "host.gc_pause_ms_total", Unit: "ms", Better: "lower"},
	{Name: "host.nproc", Unit: "count", Better: "higher"},
	{Name: "host.gomaxprocs", Unit: "count", Better: "higher"},
}

// workloadSpec is one entry of BENCHMARK.json's workloads list.
type workloadSpec struct {
	Name string
	Why  string
	run  func(*env) (*outcome, error)
}

var workloads = []workloadSpec{
	{"golden-sweep", "fault-free runs of all 13 programs on both machines: cpu/mem/engine/trace do all the work, campaign/journal/service none", runGoldenSweep},
	{"avgi-grid", "short-window AVGI campaigns over 12 structures x 4 programs: per-fault fork, sync and dispatch cost dominates simulation", runAVGIGrid},
	{"study-e2e", "the five-phase study through the facade with the journal on: long exhaustive windows, scheduling, journal writes, training", runStudyE2E},
	{"assess-serve", "closed-loop /v1/assess traffic against a real avgid: cold fill, 16-key hot set, 120 keys over a 64-entry LRU, and a mix", runAssessServe},
}

func workloadByName(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// measurement is one reported value.
type measurement struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report renders values for the specs in order; a layer that the run
// never entered reads zero.
func report(specs []metricSpec, values map[string]float64) map[string]measurement {
	out := make(map[string]measurement, len(specs))
	for _, s := range specs {
		out[s.Name] = measurement{Value: values[s.Name], Unit: s.Unit}
	}
	return out
}
