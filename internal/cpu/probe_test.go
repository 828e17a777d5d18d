package cpu

import (
	"testing"

	"avgi/internal/prog"
)

// TestRegisterProbeLiveness pins the free-register rule of ArmProbe("RF"):
// a register on the free list is born dead, a mapped one and the
// destination of an in-flight instruction are live, and a register that
// squashAfter hands back to the free list is born dead at the next arm.
func TestRegisterProbeLiveness(t *testing.T) {
	w, err := prog.ByName("sha")
	if err != nil {
		t.Fatal(err)
	}
	cfg := ConfigA72()
	m := New(cfg, w.Build(cfg.Variant))
	youngest := func() *robEntry { return m.robAt(ringPrev(m.robTail, len(m.rob))) }
	for m.robCount < 2 || !youngest().hasDest || m.freeTop == 0 {
		m.Step()
	}
	live := func(phys uint16) int {
		defer m.ClearProbe()
		return m.ArmProbe("RF", uint64(phys)*64+5, 1).Facts().LiveSites
	}
	if n := live(m.freeList[0]); n != 0 {
		t.Errorf("a free-list register armed with %d live sites, want 0", n)
	}
	if n := live(m.committedMap[1]); n != 1 {
		t.Errorf("a mapped register armed with %d live sites, want 1", n)
	}
	dest := youngest().destPhys
	if n := live(dest); n != 1 {
		t.Errorf("an in-flight destination armed with %d live sites, want 1", n)
	}
	m.squashAfter(m.robHead, m.fetchPC)
	if n := live(dest); n != 0 {
		t.Errorf("a squashed destination armed with %d live sites, want 0: squashAfter freed it", n)
	}
}
