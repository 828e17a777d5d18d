package iss

import (
	"math"
	"testing"

	"avgi/internal/campaign"
	"avgi/internal/core"
	"avgi/internal/cpu"
	"avgi/internal/prog"
)

func TestFlipCampaignPartitions(t *testing.T) {
	w, err := prog.ByName("sha")
	if err != nil {
		t.Fatal(err)
	}
	p := w.Build(cpu.ConfigA72().Variant)
	sum, flips, err := FlipCampaign(p, 100, 42)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Total != 100 || len(flips) != 100 {
		t.Fatalf("total %d, flips %d", sum.Total, len(flips))
	}
	if sum.Masked+sum.SDC+sum.Crash != sum.Total {
		t.Errorf("effects don't partition: %+v", sum)
	}
	for _, f := range flips {
		if f.Reg == 0 {
			t.Error("injected into the zero register")
		}
	}
	// Architecture-level injection must produce some non-masked effects
	// (it has no hardware masking to hide behind).
	if sum.SDC+sum.Crash == 0 {
		t.Error("no visible effects at all is implausible")
	}
	if sum.PVF() <= 0 || sum.PVF() > 1 {
		t.Errorf("PVF = %f", sum.PVF())
	}
}

func TestFlipCampaignDeterministic(t *testing.T) {
	w, _ := prog.ByName("bitcount")
	p := w.Build(cpu.ConfigA72().Variant)
	a, _, err := FlipCampaign(p, 50, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := FlipCampaign(p, 50, 7)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("nondeterministic: %+v vs %+v", a, b)
	}
}

// TestFlipCampaignDivergesFromMicroarchAVF reproduces the paper's motivating
// claim (Section I / VIII, demonstrated in ISCA 2021 [14]): ISA-level
// injection overstates register vulnerability relative to
// microarchitecture-level AVF, because it cannot see hardware masking — free
// physical registers, overwrites, squashed wrong-path state.
func TestFlipCampaignDivergesFromMicroarchAVF(t *testing.T) {
	if testing.Short() {
		t.Skip("campaigns in -short mode")
	}
	cfg := cpu.ConfigA72()
	w, _ := prog.ByName("sha")
	p := w.Build(cfg.Variant)

	archSum, _, err := FlipCampaign(p, 150, 1)
	if err != nil {
		t.Fatal(err)
	}

	r, err := campaign.NewRunner(cfg, p)
	if err != nil {
		t.Fatal(err)
	}
	res := r.Run(r.FaultList("RF", 150, 1), campaign.ModeExhaustive, 0, 0)
	avf := core.AVFFromEffects(campaign.Summarize(res))

	if archSum.PVF() <= avf.Total() {
		t.Errorf("architecture-level PVF %.3f should exceed microarch AVF %.3f",
			archSum.PVF(), avf.Total())
	}
	// The divergence should be substantial (the paper's point), not a
	// rounding artifact.
	if math.Abs(archSum.PVF()-avf.Total()) < 0.02 {
		t.Errorf("divergence suspiciously small: PVF %.3f vs AVF %.3f",
			archSum.PVF(), avf.Total())
	}
	t.Logf("ISA-level PVF %.3f vs microarch AVF %.3f (masked: arch %d/%d)",
		archSum.PVF(), avf.Total(), archSum.Masked, archSum.Total)
}
