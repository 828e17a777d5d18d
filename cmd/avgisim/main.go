// Command avgisim runs a single workload on one of the machine models for
// inspection: golden execution with pipeline statistics, program
// disassembly, or a single targeted fault injection with its IMM and final
// effect classification.
//
// Usage:
//
//	avgisim [flags] <workload>
//
// Examples:
//
//	avgisim sha                         # golden run + stats
//	avgisim -machine a15 -disasm crc32  # disassemble the 32-bit image
//	avgisim -inject "RF:100:5000" sha   # flip RF bit 100 at cycle 5000
//
// An injection simulates its faulty program to completion (exhaustive mode,
// with the early exit off, so the golden site timeline settles nothing: the
// run itself is what is being inspected), so avgisim has no -early-exit flag.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"strconv"
	"strings"

	"avgi"
	"avgi/internal/asm"
	"avgi/internal/campaign"
	"avgi/internal/cliflags"
	"avgi/internal/clilog"
	"avgi/internal/cpu"
	"avgi/internal/fault"
	"avgi/internal/isa"
)

var (
	flagMachine = flag.String("machine", "a72", "machine model: a72 (64-bit) or a15 (32-bit)")
	flagDisasm  = flag.Bool("disasm", false, "print the program disassembly and exit")
	flagInject  = flag.String("inject", "", "inject one fault: STRUCTURE:BIT:CYCLE")
	flagTrace   = flag.Int("trace", 0, "print the first N commit-trace records")
	flagStats   = flag.Bool("stats", false, "print pipeline and memory-system counters")
	flagRunAsm  = flag.Bool("s", false, "treat the argument as an assembly source file (.s) instead of a workload name")

	// Shared forensics/logging/profiling flags (see internal/cliflags).
	common = cliflags.Register(flag.CommandLine)
)

// logger carries diagnostics to stderr per -log; set in main before any use.
var logger *slog.Logger

func main() {
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: avgisim [flags] <workload>   (see -h)")
		os.Exit(2)
	}
	var err error
	logger, err = clilog.New(os.Stderr, "avgisim", common.Log)
	if err != nil {
		fmt.Fprintln(os.Stderr, "avgisim:", err)
		os.Exit(2)
	}
	stopProf, err := common.StartProfiles(func(msg string) { logger.Error(msg) })
	if err != nil {
		logger.Error(err.Error())
		os.Exit(1)
	}
	defer stopProf()
	if err := run(flag.Arg(0)); err != nil {
		stopProf()
		logger.Error(err.Error())
		os.Exit(1)
	}
}

func run(name string) error {
	cfg, err := avgi.MachineByName(*flagMachine)
	if err != nil {
		return err
	}
	var p *avgi.Program
	var ref []byte
	if *flagRunAsm {
		src, err := os.ReadFile(name)
		if err != nil {
			return err
		}
		p, err = asm.Parse(name, string(src), cfg.Variant)
		if err != nil {
			return err
		}
	} else {
		w, err := avgi.WorkloadByName(name)
		if err != nil {
			return err
		}
		p = w.Build(cfg.Variant)
		ref = w.Ref(cfg.Variant)
	}

	if *flagDisasm {
		for i, word := range p.Text {
			fmt.Printf("%06x:  %08x  %s\n", p.TextBase+uint64(i*4), word, isa.DisasmWord(word, cfg.Variant))
		}
		return nil
	}

	r, err := campaign.NewRunner(cfg, p)
	if err != nil {
		return err
	}
	var explorer *avgi.Explorer
	if common.Forensics {
		explorer = avgi.NewExplorer()
	}
	r.Configure(nil, explorer, false)
	fmt.Printf("workload  %s (%s)\n", name, cfg.Name)
	fmt.Printf("golden    %d cycles, %d commits, IPC %.2f\n",
		r.Golden.Cycles, r.Golden.Commits,
		float64(r.Golden.Commits)/float64(r.Golden.Cycles))
	fmt.Printf("output    %d bytes\n", len(r.Golden.Output))

	if *flagStats {
		m := cpu.New(cfg, p)
		m.Run(avgi.RunOptions{MaxCycles: r.Golden.Cycles + 10})
		fmt.Print(m.StatsReport())
	}

	if *flagTrace > 0 {
		goldenTrace := r.Golden.Trace
		n := *flagTrace
		if n > len(goldenTrace) {
			n = len(goldenTrace)
		}
		for _, rec := range goldenTrace[:n] {
			fmt.Printf("  cyc %6d  pc %06x  %-28s", rec.Cycle, rec.PC, isa.DisasmWord(rec.Word, cfg.Variant))
			if rec.HasDest {
				fmt.Printf("  r%d=%#x", rec.Dest, rec.Value)
			}
			if rec.IsStore {
				fmt.Printf("  [%#x]=%#x", rec.Addr, rec.Value)
			}
			fmt.Println()
		}
	}

	if *flagInject != "" {
		parts := strings.Split(*flagInject, ":")
		if len(parts) != 3 {
			return fmt.Errorf("bad -inject %q, want STRUCTURE:BIT:CYCLE", *flagInject)
		}
		bit, err1 := strconv.ParseUint(parts[1], 10, 64)
		cyc, err2 := strconv.ParseUint(parts[2], 10, 64)
		if err1 != nil || err2 != nil {
			return fmt.Errorf("bad -inject numbers in %q", *flagInject)
		}
		f := fault.Fault{Structure: parts[0], Bit: bit, Cycle: cyc}
		if err := cpu.ValidateStructure(f.Structure); err != nil {
			return err
		}
		if n := r.BitCounts[f.Structure]; bit >= n {
			return fmt.Errorf("bad -inject bit %d: %s has %d bits", bit, f.Structure, n)
		}
		if cyc < 1 || cyc > r.Golden.Cycles {
			return fmt.Errorf("bad -inject cycle %d: the golden run spans cycles [1, %d]", cyc, r.Golden.Cycles)
		}
		res := r.Run([]fault.Fault{f}, campaign.ModeExhaustive, 0, 1)[0]
		fmt.Printf("fault     %s\n", f)
		fmt.Printf("IMM       %s\n", res.IMM)
		fmt.Printf("effect    %s", res.Effect)
		if res.Crash != 0 {
			fmt.Printf(" (%s)", res.Crash)
		}
		fmt.Println()
		if res.Manifested {
			fmt.Printf("manifest  %d cycles after injection\n", res.ManifestLatency)
		} else {
			fmt.Println("manifest  never (no commit-trace deviation)")
		}
		if fr := res.Forensics; fr != nil {
			fmt.Printf("cause     %s (sites %d, live %d, reads %d, latency %d)\n",
				fr.Cause, fr.Sites, fr.LiveSites, fr.Reads, fr.Latency)
			if d := fr.Divergence; d != nil {
				fmt.Printf("diverge   %s, +%d cycles", d.Kind, d.CycleDelta)
				if d.PC != 0 {
					fmt.Printf(", pc %#x (commit %d)", d.PC, d.CommitIndex)
				}
				fmt.Println()
			}
		}
		return nil
	}

	// Plain golden run: show a digest of the output.
	return goldenDigest(r, ref)
}

// goldenDigest prints the golden-output head and verifies it against the
// reference model.
func goldenDigest(r *avgi.Runner, ref []byte) error {
	out := r.Golden.Output
	if len(out) > 32 {
		out = out[:32]
	}
	fmt.Printf("head      % x%s\n", out, map[bool]string{true: " ...", false: ""}[len(r.Golden.Output) > 32])
	if ref != nil {
		if !bytes.Equal(r.Golden.Output, ref) {
			return fmt.Errorf("golden output does not match the reference model")
		}
		fmt.Println("verified  output matches the reference model")
	}
	return nil
}
