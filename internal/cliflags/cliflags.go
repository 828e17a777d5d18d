// Package cliflags holds the flag set and startup helpers shared by the
// avgi and avgisim commands: forensics, log format and pprof profile
// capture for both; live progress, the metrics endpoint, durable
// journalling, the convergence early exit, the worker budget and
// distributed-fleet membership for avgi alone.
// How a fault is forked off the golden run is not tunable: it follows from
// the machine shape (see package campaign).
// Each command registers these once and adds its own tool-specific flags on
// top, so the two CLIs cannot drift apart in spelling, defaults or help
// text for the options they share.
package cliflags

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"
)

// Common is the flag state shared by both commands, populated by Register
// (RegisterCampaign also fills Progress, MetricsAddr, Journal, Resume,
// EarlyExit, Workers and the Dist* cluster) and read after flag.Parse.
type Common struct {
	Workers int

	CPUProfile string
	MemProfile string

	Journal string
	Resume  bool

	DistRole    string
	DistOwner   string
	Coordinator string
	LeaseTTL    time.Duration

	Progress    bool
	MetricsAddr string

	Forensics bool
	Log       string

	EarlyExit bool
}

// Register installs on fs (normally flag.CommandLine) the flags both batch
// tools honour and returns the struct they populate. avgisim stops here: it
// runs one golden run and at most one targeted fault to completion, so
// progress lines and a metrics endpoint (there is no campaign to watch), a
// journal (which could save at most that one run), an early exit, a worker
// budget and fleet membership would be flags it could only ignore or reject.
func Register(fs *flag.FlagSet) *Common {
	c := &Common{}
	fs.StringVar(&c.CPUProfile, "cpuprofile", "",
		"write a pprof CPU profile of the run to this file (see docs/OBSERVABILITY.md)")
	fs.StringVar(&c.MemProfile, "memprofile", "",
		"write a pprof heap profile at exit to this file")

	fs.BoolVar(&c.Forensics, "forensics", false,
		"attribute every fault's fate (masking source, first divergence); see docs/OBSERVABILITY.md")
	fs.StringVar(&c.Log, "log", "text",
		"stderr log format: text (classic prefixed lines) or json")
	return c
}

// RegisterCampaign is Register plus the campaign-only flags of cmd/avgi:
// live progress and the metrics endpoint, the durable journal, the
// convergence early exit, the worker budget and the distributed-fleet
// cluster.
func RegisterCampaign(fs *flag.FlagSet) *Common {
	c := Register(fs)
	fs.BoolVar(&c.Progress, "progress", false,
		"print live campaign progress lines to stderr")
	fs.StringVar(&c.MetricsAddr, "metrics-addr", "",
		"serve /metrics (Prometheus) and /progress.json on this address for the duration of the run")
	fs.StringVar(&c.Journal, "journal", "",
		"append completed per-fault results as durable NDJSON shards under this directory (see docs/ROBUSTNESS.md)")
	fs.BoolVar(&c.Resume, "resume", false,
		"with -journal: reuse journalled results instead of re-simulating")
	fs.BoolVar(&c.EarlyExit, "early-exit", true,
		"end faulty runs of every mode as soon as the fault is provably dead (classification-identical; -early-exit=false simulates full ERT windows and every run to the halt, see docs/PERFORMANCE.md)")
	fs.IntVar(&c.Workers, "workers", 0,
		"worker budget shared by all concurrent campaigns (0 = all CPUs; see docs/SCHEDULING.md)")
	registerDist(fs, &c.DistRole, &c.DistOwner, &c.Coordinator, &c.LeaseTTL,
		"\"\" (single process) or worker (join a distributed fleet sharding this run's campaigns; -workers then means the fleet-wide count and -journal must point at the shared journal directory, see docs/DISTRIBUTED.md)")
	return c
}

// Server is the flag state of the avgid assessment server, populated by
// RegisterServer and read after flag.Parse.
type Server struct {
	Addr         string
	Journal      string
	Workers      int
	DrainTimeout time.Duration
	Log          string

	ShardCache int

	DistRole    string
	DistOwner   string
	Coordinator string
	LeaseTTL    time.Duration
}

// registerDist installs the distributed-campaign flag cluster with a
// per-tool -dist-role help string (the legal roles differ: batch tools can
// only be workers, the server can also coordinate).
func registerDist(fs *flag.FlagSet, role, owner, coordinator *string, ttl *time.Duration, roleHelp string) {
	fs.StringVar(role, "dist-role", "", "distributed campaign role: "+roleHelp)
	fs.StringVar(owner, "dist-owner", "",
		"stable node identity for leases and part shards (default <hostname>-<pid>; set it to survive restarts under the same identity)")
	fs.StringVar(coordinator, "coordinator", "",
		"lease-endpoint base URL of an avgid -dist-role=coordinator (empty coordinates through lease files under the shared journal directory)")
	fs.DurationVar(ttl, "lease-ttl", 10*time.Second,
		"how long a silent node keeps its claimed chunks before the fleet takes them over")
}

// RegisterServer installs the avgid flags on fs. The server shares the
// -workers/-journal/-log spellings with the batch tools but has its own
// defaults (journalling is the point of a cache server, so -journal
// defaults on) and deliberately omits the one-shot flags (profiles,
// progress tickers) that make no sense for a daemon.
func RegisterServer(fs *flag.FlagSet) *Server {
	s := &Server{}
	fs.StringVar(&s.Addr, "addr", "localhost:8080",
		"address to serve the assessment API and telemetry on (use :0 for an ephemeral port)")
	fs.StringVar(&s.Journal, "journal", "avgid-journal",
		"durable result cache directory: fully journalled requests are answered without simulating (empty disables caching)")
	fs.IntVar(&s.Workers, "workers", 0,
		"global worker budget shared by all tenants (0 = all CPUs; each tenant may hold 3/4 of it, always leaving at least one slot for other tenants)")
	fs.DurationVar(&s.DrainTimeout, "drain-timeout", 30*time.Second,
		"how long a SIGTERM/SIGINT shutdown waits for in-flight requests before dropping them")
	fs.StringVar(&s.Log, "log", "text",
		"stderr log format: text (classic prefixed lines) or json")
	fs.IntVar(&s.ShardCache, "shard-cache", 0,
		"completed campaigns kept in memory in front of the journal, least recently used first (0 = default 64, negative keeps none)")
	registerDist(fs, &s.DistRole, &s.DistOwner, &s.Coordinator, &s.LeaseTTL,
		"\"\" (standalone), coordinator (arbitrate leases and fan campaigns out on /v1/dist/*) or worker (poll a -coordinator's feed and run its campaigns against the shared journal; see docs/DISTRIBUTED.md)")
	return s
}

// ValidateDist checks cmd/avgi's distributed flag cluster: the only legal
// role is worker, and distribution needs the shared journal.
func (c *Common) ValidateDist() error {
	switch c.DistRole {
	case "":
		return nil
	case "worker":
		if c.Journal == "" {
			return fmt.Errorf("-dist-role=worker requires -journal DIR (the fleet's shared coordination substrate)")
		}
		return nil
	}
	return fmt.Errorf("unknown -dist-role %q (avgi supports only worker)", c.DistRole)
}

// ValidateDist checks the server's distributed flag cluster.
func (s *Server) ValidateDist() error {
	switch s.DistRole {
	case "", "coordinator":
		return nil
	case "worker":
		if s.Coordinator == "" {
			return fmt.Errorf("-dist-role=worker requires -coordinator URL (the feed to poll)")
		}
		if s.Journal == "" {
			return fmt.Errorf("-dist-role=worker requires -journal DIR shared with the fleet")
		}
		return nil
	}
	return fmt.Errorf("unknown -dist-role %q (want coordinator or worker)", s.DistRole)
}

// StartProfiles begins CPU profiling and arms a heap-profile dump per the
// -cpuprofile/-memprofile flags. The returned stop function is idempotent
// and must run before process exit for either profile to be complete;
// logErr receives any error encountered while writing the heap profile at
// stop time (the CPU-profile path fails fast instead).
func (c *Common) StartProfiles(logErr func(msg string)) (func(), error) {
	var cpuFile *os.File
	if c.CPUProfile != "" {
		f, err := os.Create(c.CPUProfile)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, err
		}
		cpuFile = f
	}
	done := false
	return func() {
		if done {
			return
		}
		done = true
		if cpuFile != nil {
			pprof.StopCPUProfile()
			cpuFile.Close()
		}
		if c.MemProfile != "" {
			f, err := os.Create(c.MemProfile)
			if err != nil {
				logErr("memprofile: " + err.Error())
				return
			}
			runtime.GC() // materialize final live-heap numbers
			if err := pprof.WriteHeapProfile(f); err != nil {
				logErr("memprofile: " + err.Error())
			}
			f.Close()
		}
	}, nil
}
