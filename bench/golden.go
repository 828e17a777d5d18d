package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"time"

	"avgi/internal/asm"
	"avgi/internal/cpu"
	"avgi/internal/prog"
	"avgi/internal/trace"
)

// pins.json pins every golden run's simulated statistics. A simulator
// speed-up must leave them bit-identical; regenerate them only for a
// deliberate model change, with `go run ./bench -write-pins`.
//
//go:embed pins.json
var pinsJSON []byte

// pin is the pinned outcome of one (program, machine) golden run.
type pin struct {
	Cycles  uint64 `json:"cycles"`
	Commits uint64 `json:"commits"`
	Output  string `json:"output_sha256"`
}

func loadPins() (map[string]pin, error) {
	pins := make(map[string]pin)
	if err := json.Unmarshal(pinsJSON, &pins); err != nil {
		return nil, fmt.Errorf("pins.json: %w", err)
	}
	return pins, nil
}

// goldenCase is one assembled program on one machine model.
type goldenCase struct {
	id   string // "sha/a72"
	cfg  cpu.Config
	prog *asm.Program
}

// machines are the two models every program is swept over.
var machines = []struct {
	tag string
	cfg func() cpu.Config
}{{"a72", cpu.ConfigA72}, {"a15", cpu.ConfigA15}}

// sweepCases is the sweep at the environment's scale, in canonical order.
func sweepCases(e *env) []goldenCase {
	cases := goldenCases()
	if n := e.sc.sweepCases; n > 0 && n < len(cases) {
		cases = cases[:n]
	}
	return cases
}

// goldenCases assembles all 13 programs for both machines: 26 cases.
func goldenCases() []goldenCase {
	var cases []goldenCase
	for _, w := range prog.All() {
		for _, m := range machines {
			cfg := m.cfg()
			cases = append(cases, goldenCase{id: w.Name + "/" + m.tag, cfg: cfg, prog: w.Build(cfg.Variant)})
		}
	}
	return cases
}

// goldenRun simulates one case fault-free with a commit-trace capture, as
// a campaign's reference run does.
func goldenRun(c goldenCase) (cpu.Result, *cpu.Machine) {
	m := cpu.New(c.cfg, c.prog)
	m.SetSink(&trace.Capture{})
	return m.Run(cpu.RunOptions{MaxCycles: 50_000_000}), m
}

func pinOf(res cpu.Result) pin {
	sum := sha256.Sum256(res.Output)
	return pin{Cycles: res.Cycles, Commits: res.Commits, Output: hex.EncodeToString(sum[:])}
}

// checkPin compares one golden run with its pin.
func checkPin(chk *checks, pins map[string]pin, id string, res cpu.Result) {
	chk.attempt(1)
	want, ok := pins[id]
	switch got := pinOf(res); {
	case !ok:
		chk.fail("golden %s: no pin", id)
	case res.Status != cpu.StatusHalted:
		chk.fail("golden %s: ended %v", id, res.Status)
	case got != want:
		chk.fail("golden %s: got %+v, pinned %+v", id, got, want)
	}
}

// writePins regenerates pins.json from the current simulator.
func writePins(path string) error {
	pins := make(map[string]pin)
	for _, c := range goldenCases() {
		res, _ := goldenRun(c)
		if res.Status != cpu.StatusHalted {
			return fmt.Errorf("golden %s ended %v", c.id, res.Status)
		}
		pins[c.id] = pinOf(res)
	}
	data, err := json.MarshalIndent(pins, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// goldenSweep is the set-up product of golden-sweep.
type goldenSweep struct {
	cases []goldenCase
	pins  map[string]pin
}

// sweep runs all 26 cases once, checking each against its pin, and returns
// the simulated cycles and the per-run latencies.
func (g *goldenSweep) sweep(e *env, lat *[]time.Duration) (cycles uint64) {
	for _, c := range g.cases {
		h := e.rec.begin("cpu.golden_run", c.id, -1)
		t0 := time.Now()
		res, _ := goldenRun(c)
		d := time.Since(t0)
		e.rec.end(h)
		if lat != nil {
			*lat = append(*lat, d)
		}
		checkPin(&e.chk, g.pins, c.id, res)
		cycles += res.Cycles
	}
	return cycles
}

// runGoldenSweep: set-up assembles the programs and runs one verifying
// warm-up sweep; each round is one single-threaded sweep. One op is one
// simulated kilocycle.
func runGoldenSweep(e *env) (*outcome, error) {
	pins, err := loadPins()
	if err != nil {
		return nil, err
	}
	o := &outcome{}
	g, times, err := setups(e, func() (*goldenSweep, error) {
		g := &goldenSweep{cases: sweepCases(e), pins: pins}
		// The programs are fixed; the seed decides the order they run in.
		rand.New(rand.NewSource(e.seed)).Shuffle(len(g.cases), func(i, j int) {
			g.cases[i], g.cases[j] = g.cases[j], g.cases[i]
		})
		g.sweep(e, nil)
		return g, nil
	}, func(*goldenSweep) {})
	if err != nil {
		return nil, err
	}
	o.setup = times
	err = e.rounds(o, func(int) (float64, time.Duration, error) {
		t0 := time.Now()
		cycles := g.sweep(e, &o.lat)
		return float64(cycles) / 1000, time.Since(t0), nil
	})
	return o, err
}
