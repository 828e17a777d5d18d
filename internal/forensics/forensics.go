// Package forensics attributes the fate of every injected fault. Where the
// campaign layer labels a fault's end-to-end outcome (Masked / SDC / Crash
// and its IMM class), forensics explains the *mechanism*: the fault probe
// (internal/cpu, internal/mem) observes each consumption and erasure of
// the corrupted state during the faulty run, and Attribute folds those
// observations into one of six causes — turning the paper's low ROB/LQ/SQ
// AVF numbers from statistics into explanations.
package forensics

import (
	"encoding/json"
	"fmt"

	"avgi/internal/cpu"
	"avgi/internal/trace"
)

// Cause is the attributed fate of one injected fault.
type Cause uint8

const (
	// CauseOverwritten: every corrupted site was erased by fresh data
	// (register writeback, queue-slot allocation, line refill, TLB
	// refill) before anything consumed it.
	CauseOverwritten Cause = iota
	// CauseSquashed: the corrupted in-flight state was discarded by a
	// misprediction squash before it could reach commit.
	CauseSquashed
	// CauseEvictedClean: the corrupted line was dropped by a replacement
	// while clean, so the corruption never left the cache.
	CauseEvictedClean
	// CauseLogicallyMasked: corrupted state *was* consumed (operand read,
	// tag compare, TLB hit, dirty writeback) yet the architectural
	// commit stream never deviated — the program logically masked it.
	CauseLogicallyMasked
	// CauseNeverRead: corrupted state was still resident and untouched
	// when the observation window ended.
	CauseNeverRead
	// CauseVisible: the fault became architecturally visible — a commit
	// deviation or a pre-software crash.
	CauseVisible
	// CauseNeverLatched: the flip landed entirely on free/invalid entries
	// and nothing ever latched it — masked at the injection site itself,
	// before any reachable state was corrupted. (New causes append here so
	// older shard labels keep their decoding.)
	CauseNeverLatched

	// NumCauses is the number of attribution causes.
	NumCauses = int(CauseNeverLatched) + 1
)

var causeNames = [NumCauses]string{
	"overwritten-before-read",
	"squashed-in-flight",
	"evicted-clean",
	"read-but-logically-masked",
	"never-read-in-window",
	"architecturally-visible",
	"never-latched",
}

// Causes lists all attribution causes in declaration order.
var Causes = [NumCauses]Cause{
	CauseOverwritten, CauseSquashed, CauseEvictedClean,
	CauseLogicallyMasked, CauseNeverRead, CauseVisible, CauseNeverLatched,
}

// String returns the cause's stable label (used as the JSON encoding and
// the `cause` metric label).
func (c Cause) String() string {
	if int(c) < NumCauses {
		return causeNames[c]
	}
	return fmt.Sprintf("cause(%d)", uint8(c))
}

// MarshalJSON encodes the cause as its label.
func (c Cause) MarshalJSON() ([]byte, error) {
	return json.Marshal(c.String())
}

// UnmarshalJSON decodes a cause label; unknown labels are an error so a
// journal written by a newer build fails loudly instead of silently
// shifting counts.
func (c *Cause) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	for i, n := range causeNames {
		if n == s {
			*c = Cause(i)
			return nil
		}
	}
	return fmt.Errorf("forensics: unknown cause %q", s)
}

// Divergence is the first-divergence capture of a visible fault.
type Divergence struct {
	// CycleDelta is the distance in cycles from injection to the first
	// mismatching commit (or the crash).
	CycleDelta uint64 `json:"cycle_delta"`
	// PC is the program counter of the first mismatching commit.
	PC uint64 `json:"pc,omitempty"`
	// CommitIndex is the position of that commit in the golden trace.
	CommitIndex int `json:"commit_index,omitempty"`
	// Kind names how the run diverged: "record", "cycle", "extra"
	// (commit-stream deviations), "crash" (pre-software crash with no
	// prior deviation) or "escape" (corrupted output through a dirty
	// line, no trace deviation at all).
	Kind string `json:"kind"`
}

// Record is the per-fault attribution persisted alongside the campaign
// Result (a backward-compatible journal extension: absent in old shards).
type Record struct {
	Cause Cause `json:"cause"`
	// Latency is the cycle distance from injection to the event that
	// decided the attribution: the first consumption for logically-masked
	// faults, the last erasure for masked-by-erasure faults, the first
	// divergence for visible ones. Zero when nothing was observed.
	Latency uint64 `json:"latency,omitempty"`
	// Reads counts consumptions of live corrupted state in the window.
	Reads uint64 `json:"reads,omitempty"`
	// Sites and LiveSites describe the fault's footprint: watched array
	// entries, and how many held reachable state at injection.
	Sites     int `json:"sites,omitempty"`
	LiveSites int `json:"live_sites,omitempty"`
	// Divergence is set for visible faults that deviated in the commit
	// stream (crash-only visibility carries just Latency and Kind).
	Divergence *Divergence `json:"divergence,omitempty"`
}

// Outcome is what the campaign layer knows about the faulty run's ending —
// the architectural verdict the probe facts are attributed against.
type Outcome struct {
	// Visible means the run manifested: a commit-stream deviation or a
	// pre-software crash.
	Visible bool
	// ManifestLatency is the campaign's injection-to-manifestation cycle
	// distance (0 when not visible).
	ManifestLatency uint64
	// Dev is the first commit-stream deviation, if any.
	Dev trace.Deviation
	// Escaped marks an ESC fault: corruption reached the program output
	// through a dirty line without ever deviating the commit stream.
	Escaped bool
}

// devKindNames maps trace deviation kinds to Divergence.Kind labels.
var devKindNames = map[trace.DeviationKind]string{
	trace.DevRecord: "record",
	trace.DevCycle:  "cycle",
	trace.DevExtra:  "extra",
}

// Attribute folds one faulty run's probe observations and architectural
// outcome into a cause attribution.
//
// Decision order: visibility wins outright; then any consumption of live
// corrupted state means the program read it and masked it logically; then
// a fully erased footprint is attributed to the most specific erasure
// mechanism (squash — the state was discarded in flight — over clean
// eviction — it was dropped by replacement — over plain overwrite); a flip
// that landed entirely on free/invalid entries never latched at all; and
// what remains is corruption still resident when the window closed.
func Attribute(f cpu.ProbeFacts, out Outcome) Record {
	rec := Record{Sites: f.Sites, LiveSites: f.LiveSites, Reads: f.Reads}
	switch {
	case out.Visible:
		rec.Cause = CauseVisible
		rec.Latency = out.ManifestLatency
		if kind, ok := devKindNames[out.Dev.Kind]; ok {
			d := &Divergence{
				PC:          out.Dev.Faulty.PC,
				CommitIndex: out.Dev.Index,
				Kind:        kind,
			}
			if out.Dev.Cycle > f.InjectCycle {
				d.CycleDelta = out.Dev.Cycle - f.InjectCycle
			}
			rec.Divergence = d
		} else {
			kind := "crash"
			if out.Escaped {
				kind = "escape"
			}
			rec.Divergence = &Divergence{CycleDelta: out.ManifestLatency, Kind: kind}
		}
	case f.Reads > 0:
		rec.Cause = CauseLogicallyMasked
		rec.Latency = sinceInjection(f.FirstRead, f.InjectCycle)
	case f.LiveSites > 0 && f.Killed >= f.LiveSites:
		rec.Latency = sinceInjection(f.LastKill, f.InjectCycle)
		switch {
		case f.Squashes > 0:
			rec.Cause = CauseSquashed
		case f.EvictsClean > 0:
			rec.Cause = CauseEvictedClean
		default:
			rec.Cause = CauseOverwritten
		}
	case f.LiveSites == 0:
		// The flip landed entirely on free/invalid entries: nothing ever
		// latched, masked at the injection site itself. Distinct from
		// CauseOverwritten — no erasure event ever fired, and a fault the
		// golden site timeline resolves dead was never corrupted, not
		// erased.
		rec.Cause = CauseNeverLatched
	default:
		rec.Cause = CauseNeverRead
	}
	return rec
}

func sinceInjection(cycle, inject uint64) uint64 {
	if cycle > inject {
		return cycle - inject
	}
	return 0
}
