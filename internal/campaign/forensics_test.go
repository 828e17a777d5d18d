package campaign

import (
	"reflect"
	"testing"

	"avgi/internal/cpu"
	"avgi/internal/forensics"
	"avgi/internal/imm"
)

// With -forensics, every non-quarantined fault must carry an attribution,
// the cause counts must partition the campaign total, and the visible cause
// must coincide exactly with the architectural verdict.
func TestForensicsCoverageAndPartition(t *testing.T) {
	r := shaRunner(t)
	for _, structure := range []string{"RF", "ROB", "LQ", "SQ", "L1D (Data)", "L1D (Tag)", "DTLB", "L2 (Data)"} {
		t.Run(structure, func(t *testing.T) {
			ex := forensics.NewExplorer()
			r.Forensics = ex
			defer func() { r.Forensics = nil }()
			fs := r.FaultList(structure, 40, 1)
			results := r.Run(fs, ModeExhaustive, 0, 4)

			var causes [forensics.NumCauses]uint64
			for _, res := range results {
				if res.Quarantined {
					continue
				}
				rec := res.Forensics
				if rec == nil {
					t.Fatalf("fault %v: no attribution", res.Fault)
				}
				causes[rec.Cause]++
				visible := res.Manifested || res.IMM == imm.ESC
				if (rec.Cause == forensics.CauseVisible) != visible {
					t.Errorf("fault %v: cause %v but manifested=%v imm=%v",
						res.Fault, rec.Cause, res.Manifested, res.IMM)
				}
				if rec.Cause == forensics.CauseVisible && rec.Divergence == nil {
					t.Errorf("fault %v: visible without divergence capture", res.Fault)
				}
			}
			var sum uint64
			for _, n := range causes {
				sum += n
			}
			if sum != uint64(len(results)) {
				t.Errorf("causes sum to %d, want %d: %v", sum, len(results), causes)
			}

			// The explorer (fed by Run) must agree with the per-result tally.
			for _, e := range ex.Snapshot() {
				if e.Structure != structure {
					continue
				}
				if e.Faults != uint64(len(results)) || e.Sampled != sum {
					t.Errorf("explorer entry %+v, want faults=%d sampled=%d", e, len(results), sum)
				}
				var esum uint64
				for _, n := range e.Causes {
					esum += n
				}
				if esum != sum {
					t.Errorf("explorer causes sum %d, want %d", esum, sum)
				}
			}
		})
	}
}

// With forensics off the results must be byte-identical to a forensics-on
// campaign with the attribution stripped — the probe is observation-only
// and the nil path is untouched — and the attribution records themselves
// must be identical between the cursor and the clone-per-fault reference.
func TestCursorDifferentialForensics(t *testing.T) {
	r := shaRunner(t)
	fs := r.FaultList("RF", 30, 5)
	base := r.Run(fs, ModeExhaustive, 0, 2)
	if want := referenceRun(r, fs, ModeExhaustive, 0); !reflect.DeepEqual(base, want) {
		t.Fatal("forensics-off cursor results diverge from the reference")
	}

	r.Forensics = forensics.NewExplorer()
	probed := r.Run(fs, ModeExhaustive, 0, 2)
	want := referenceRun(r, fs, ModeExhaustive, 0)

	for i := range base {
		if !reflect.DeepEqual(probed[i], want[i]) {
			t.Errorf("fault %d: forensics-on results differ\ncursor:    %+v\nreference: %+v",
				i, probed[i], want[i])
		}
		stripped := probed[i]
		stripped.Forensics = nil
		if stripped != base[i] {
			t.Errorf("fault %d: results differ\noff: %+v\non:  %+v", i, base[i], probed[i])
		}
	}
}

// ESC faults (corruption escaping through a dirty line without a commit
// deviation) must attribute as visible with an "escape" divergence. The
// escProgram scenario (esc_test.go) guarantees escapes in the sample.
func TestForensicsESCAttribution(t *testing.T) {
	cfg := cpu.ConfigA72()
	r, err := NewRunner(cfg, escProgram(cfg))
	if err != nil {
		t.Fatal(err)
	}
	r.Forensics = forensics.NewExplorer()
	results := r.Run(r.FaultList("L1D (Data)", 200, 77), ModeExhaustive, 0, 0)
	var escs int
	for _, res := range results {
		if res.IMM != imm.ESC {
			continue
		}
		escs++
		rec := res.Forensics
		if rec == nil || rec.Cause != forensics.CauseVisible {
			t.Fatalf("ESC fault %v attributed %+v", res.Fault, rec)
		}
		if rec.Divergence == nil || rec.Divergence.Kind != "escape" {
			t.Errorf("ESC fault %v divergence %+v", res.Fault, rec.Divergence)
		}
	}
	if escs == 0 {
		t.Fatal("no ESC faults in the escProgram sample")
	}
}
