package iss

import (
	"bytes"
	"math/rand"

	"avgi/internal/asm"
	"avgi/internal/imm"
)

// Architecture-level (ISA-level) fault injection of the kind the paper's
// introduction warns about: bit flips in architectural registers between
// instructions of a functional execution, with no microarchitecture
// underneath. Such injectors are fast — no pipeline, no caches — but they
// start from the wrong fault population: every injected fault is
// architecturally visible by construction, so hardware masking (benign
// faults, the majority of all real upsets) is invisible to them. The
// register-file vulnerability they report diverges systematically from the
// microarchitecture-level AVF of the same workload (demonstrated in ISCA
// 2021 [14] and reproduced by `avgi motivation`), which is why the AVGI
// methodology insists on microarchitecture-driven assessment.

// Flip is the outcome of one architecture-level injection.
type Flip struct {
	Reg    uint8
	Bit    uint
	AtInst uint64
	Effect imm.Effect
}

// FlipSummary aggregates a FlipCampaign.
type FlipSummary struct {
	Total  int
	Masked int
	SDC    int
	Crash  int
}

// PVF returns the program-vulnerability-factor style estimate: the
// fraction of injections that affected the output (SDC + Crash over
// total). Note this is conditioned on the fault being architecturally
// visible, which is exactly the methodological gap versus AVF.
func (s FlipSummary) PVF() float64 {
	if s.Total == 0 {
		return 0
	}
	return float64(s.SDC+s.Crash) / float64(s.Total)
}

// FlipCampaign injects n single-bit flips into uniformly random
// architectural registers at uniformly random dynamic instruction positions
// of the program, running each injection functionally to completion and
// comparing its output with a fault-free functional run's.
func FlipCampaign(p *asm.Program, n int, seed int64) (FlipSummary, []Flip, error) {
	gres, err := New(p).Run(100_000_000)
	if err != nil {
		return FlipSummary{}, nil, err
	}

	rng := rand.New(rand.NewSource(seed))
	numRegs := p.Variant.NumArchRegs()
	width := p.Variant.Width()

	var sum FlipSummary
	flips := make([]Flip, 0, n)
	for i := 0; i < n; i++ {
		f := Flip{
			Reg:    uint8(rng.Intn(numRegs-1) + 1),
			Bit:    uint(rng.Intn(width)),
			AtInst: uint64(rng.Int63n(int64(gres.Insts))),
		}
		m := New(p)
		if err := m.RunN(f.AtInst); err != nil {
			return FlipSummary{}, nil, err
		}
		m.FlipReg(f.Reg, f.Bit)
		budget := gres.Insts*4 + 10_000
		err := m.RunN(budget - m.Insts())
		switch {
		case err != nil || !m.Halted():
			f.Effect = imm.Crash
		case bytes.Equal(m.Output(), gres.Output):
			f.Effect = imm.Masked
		default:
			f.Effect = imm.SDC
		}
		sum.Total++
		switch f.Effect {
		case imm.Masked:
			sum.Masked++
		case imm.SDC:
			sum.SDC++
		case imm.Crash:
			sum.Crash++
		}
		flips = append(flips, f)
	}
	return sum, flips, nil
}
