// Package cliflags holds the flag set and startup helpers shared by the
// avgi and avgisim commands: forensics, log format and pprof profile
// capture for both; live progress, the metrics endpoint, durable
// journalling, the early exit through the golden site timeline, the worker
// budget and distributed-fleet membership for avgi alone.
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

	DistRole  string
	DistOwner string
	LeaseTTL  time.Duration

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
// live progress and the metrics endpoint, the durable journal, the early
// exit, the worker budget and the distributed-fleet cluster.
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
		"in every mode, settle faults the golden site timeline proves golden without simulating them, and fork the rest at their first use (classification-identical; -early-exit=false simulates full ERT windows and every run to the halt, see docs/PERFORMANCE.md)")
	fs.IntVar(&c.Workers, "workers", 0,
		"worker budget shared by all concurrent campaigns (0 = all CPUs; see docs/SCHEDULING.md)")
	registerDist(fs, &c.DistRole, &c.DistOwner, &c.LeaseTTL,
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

	DistRole  string
	DistOwner string
	LeaseTTL  time.Duration
}

// registerDist installs the distributed-campaign flag cluster with a
// per-tool -dist-role help string: the roles are the same on every binary,
// but an avgid worker also announces and polls the campaign feed.
func registerDist(fs *flag.FlagSet, role, owner *string, ttl *time.Duration, roleHelp string) {
	fs.StringVar(role, "dist-role", "", "distributed campaign role: "+roleHelp)
	fs.StringVar(owner, "dist-owner", "",
		"stable node identity for leases and part shards (default <hostname>-<pid>; set it to survive restarts under the same identity)")
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
	registerDist(fs, &s.DistRole, &s.DistOwner, &s.LeaseTTL,
		"\"\" (standalone) or worker (a fleet peer: announce every assessment on <journal>/feed, run the other peers' announcements, and lease each campaign's chunks through the shared -journal; -workers then means the fleet-wide count, see docs/DISTRIBUTED.md)")
	return s
}

// ValidateDist checks cmd/avgi's distributed flag cluster (see
// validateDist).
func (c *Common) ValidateDist() error {
	return validateDist(c.DistRole, c.Journal, c.Workers)
}

// ValidateDist checks the server's distributed flag cluster (see
// validateDist).
func (s *Server) ValidateDist() error {
	return validateDist(s.DistRole, s.Journal, s.Workers)
}

// validateDist is the one rule for -dist-role on every binary: the only
// fleet role is worker, and a worker needs the shared journal (the
// coordination substrate) and -workers, the fleet-wide worker count that
// fixes the chunk geometry — 0 would silently run undistributed campaigns
// over a journal other nodes are writing.
func validateDist(role, journal string, workers int) error {
	switch {
	case role == "":
		return nil
	case role != "worker":
		return fmt.Errorf("unknown -dist-role %q (want worker)", role)
	case journal == "":
		return fmt.Errorf("-dist-role=%s requires -journal DIR shared with the fleet", role)
	case workers <= 0:
		return fmt.Errorf("-dist-role=%s requires -workers N > 0, the fleet-wide worker count every node shares", role)
	}
	return nil
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
