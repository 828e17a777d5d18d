package forensics

import (
	"encoding/json"
	"testing"

	"avgi/internal/cpu"
	"avgi/internal/trace"
)

func TestCauseJSONRoundTrip(t *testing.T) {
	for _, c := range Causes {
		b, err := json.Marshal(c)
		if err != nil {
			t.Fatalf("%v: %v", c, err)
		}
		var back Cause
		if err := json.Unmarshal(b, &back); err != nil {
			t.Fatalf("%v: %v", c, err)
		}
		if back != c {
			t.Errorf("round trip %v -> %s -> %v", c, b, back)
		}
	}
	var c Cause
	if err := json.Unmarshal([]byte(`"no-such-cause"`), &c); err == nil {
		t.Error("unknown cause label accepted")
	}
}

func TestAttribute(t *testing.T) {
	cases := []struct {
		name string
		f    cpu.ProbeFacts
		out  Outcome
		want Cause
	}{
		{
			name: "visible wins over everything",
			f:    cpu.ProbeFacts{Sites: 1, LiveSites: 1, Reads: 3, Killed: 1},
			out: Outcome{Visible: true, ManifestLatency: 42,
				Dev: trace.Deviation{Kind: trace.DevRecord, Cycle: 142, Index: 7,
					Faulty: trace.Record{PC: 0x100}}},
			want: CauseVisible,
		},
		{
			name: "any read of live state is logical masking",
			f:    cpu.ProbeFacts{Sites: 1, LiveSites: 1, Reads: 2, FirstRead: 130, InjectCycle: 100},
			want: CauseLogicallyMasked,
		},
		{
			name: "fully erased, plain overwrite",
			f:    cpu.ProbeFacts{Sites: 1, LiveSites: 1, Killed: 1, Overwrites: 1, LastKill: 150, InjectCycle: 100},
			want: CauseOverwritten,
		},
		{
			name: "squash outranks overwrite",
			f:    cpu.ProbeFacts{Sites: 1, LiveSites: 1, Killed: 1, Overwrites: 1, Squashes: 1},
			want: CauseSquashed,
		},
		{
			name: "clean eviction outranks overwrite",
			f:    cpu.ProbeFacts{Sites: 2, LiveSites: 2, Killed: 2, Overwrites: 2, EvictsClean: 1},
			want: CauseEvictedClean,
		},
		{
			// Distinct from CauseOverwritten: nothing was erased because
			// nothing ever latched — no kill event fired at all.
			name: "flip on free entries never latched",
			f:    cpu.ProbeFacts{Sites: 1, LiveSites: 0},
			want: CauseNeverLatched,
		},
		{
			name: "still resident at window end",
			f:    cpu.ProbeFacts{Sites: 1, LiveSites: 1},
			want: CauseNeverRead,
		},
		{
			name: "partially erased is still resident",
			f:    cpu.ProbeFacts{Sites: 2, LiveSites: 2, Killed: 1, Overwrites: 1},
			want: CauseNeverRead,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := Attribute(tc.f, tc.out)
			if rec.Cause != tc.want {
				t.Fatalf("cause %v, want %v", rec.Cause, tc.want)
			}
		})
	}
}

func TestAttributeDivergenceCapture(t *testing.T) {
	rec := Attribute(cpu.ProbeFacts{InjectCycle: 100, Sites: 1, LiveSites: 1},
		Outcome{Visible: true, ManifestLatency: 42,
			Dev: trace.Deviation{Kind: trace.DevRecord, Cycle: 142, Index: 7,
				Faulty: trace.Record{PC: 0x2a0}}})
	d := rec.Divergence
	if d == nil {
		t.Fatal("no divergence on a deviating visible fault")
	}
	if d.Kind != "record" || d.CycleDelta != 42 || d.PC != 0x2a0 || d.CommitIndex != 7 {
		t.Errorf("divergence %+v", *d)
	}

	// Crash with no deviation: latency-only capture.
	rec = Attribute(cpu.ProbeFacts{InjectCycle: 100},
		Outcome{Visible: true, ManifestLatency: 9})
	if d := rec.Divergence; d == nil || d.Kind != "crash" || d.CycleDelta != 9 {
		t.Errorf("crash divergence %+v", rec.Divergence)
	}

	// ESC: escape through a dirty line.
	rec = Attribute(cpu.ProbeFacts{},
		Outcome{Visible: true, Escaped: true, ManifestLatency: 500})
	if d := rec.Divergence; d == nil || d.Kind != "escape" {
		t.Errorf("escape divergence %+v", rec.Divergence)
	}
}

func TestAttributeLatencies(t *testing.T) {
	rec := Attribute(cpu.ProbeFacts{InjectCycle: 100, LiveSites: 1, Reads: 1, FirstRead: 130}, Outcome{})
	if rec.Latency != 30 {
		t.Errorf("logical-mask latency %d, want 30", rec.Latency)
	}
	rec = Attribute(cpu.ProbeFacts{InjectCycle: 100, LiveSites: 1, Killed: 1, Overwrites: 1, LastKill: 170}, Outcome{})
	if rec.Latency != 70 {
		t.Errorf("erasure latency %d, want 70", rec.Latency)
	}
}

func TestRecordJSONRoundTrip(t *testing.T) {
	in := Record{Cause: CauseVisible, Latency: 12, Reads: 3, Sites: 2, LiveSites: 1,
		Divergence: &Divergence{CycleDelta: 12, PC: 0x40, CommitIndex: 5, Kind: "record"}}
	b, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var out Record
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatal(err)
	}
	if out.Cause != in.Cause || out.Latency != in.Latency || *out.Divergence != *in.Divergence {
		t.Errorf("round trip: %+v vs %+v", out, in)
	}
}

// TestConverged pins the early-exit predicate against the attribution it
// implies: a converged fact set must attribute to an erasure cause (or
// never-latched), never to logical masking or residency, and any read or
// surviving site must block convergence.
func TestConverged(t *testing.T) {
	cases := []struct {
		name string
		f    cpu.ProbeFacts
		want bool
	}{
		{"never latched converges at arm", cpu.ProbeFacts{Sites: 1, LiveSites: 0}, true},
		{"fully erased unread converges", cpu.ProbeFacts{Sites: 2, LiveSites: 2, Killed: 2, Overwrites: 2}, true},
		{"any read blocks", cpu.ProbeFacts{Sites: 1, LiveSites: 1, Killed: 1, Reads: 1}, false},
		{"surviving site blocks", cpu.ProbeFacts{Sites: 2, LiveSites: 2, Killed: 1}, false},
		{"untouched resident blocks", cpu.ProbeFacts{Sites: 1, LiveSites: 1}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.f.Converged(); got != tc.want {
				t.Fatalf("%+v.Converged() = %v, want %v", tc.f, got, tc.want)
			}
			if !tc.want {
				return
			}
			// A converged, non-visible fault must attribute to an erasure
			// mechanism or never-latched — the causes the oracle may end a
			// clean window on.
			switch c := Attribute(tc.f, Outcome{}).Cause; c {
			case CauseOverwritten, CauseSquashed, CauseEvictedClean, CauseNeverLatched:
			default:
				t.Fatalf("converged facts attributed to %v", c)
			}
		})
	}
}
