package forensics

import (
	"encoding/json"
	"io"
	"sort"
	"sync"

	"avgi/internal/fault"
)

// maxSamples bounds the per-entry divergence sample list. Samples are kept
// by smallest fault ID, so the retained set is deterministic regardless of
// worker interleaving or resume order.
const maxSamples = 8

// Sample is one retained divergence example.
type Sample struct {
	FaultID    int    `json:"fault_id"`
	Bit        uint64 `json:"bit"`
	Cycle      uint64 `json:"cycle"`
	CycleDelta uint64 `json:"cycle_delta"`
	PC         uint64 `json:"pc,omitempty"`
	Kind       string `json:"kind"`
}

// Entry is the aggregated forensics of one (structure, workload, mode)
// campaign.
type Entry struct {
	Structure string `json:"structure"`
	Workload  string `json:"workload"`
	Mode      string `json:"mode"`

	// Faults counts every attributed-or-not fault folded in; Sampled
	// counts the ones carrying an attribution (equal unless results were
	// resumed from a shard journalled without forensics).
	Faults  uint64 `json:"faults"`
	Sampled uint64 `json:"sampled"`

	// Causes maps cause label to count; the labels are the Cause strings.
	Causes map[string]uint64 `json:"causes"`

	// Divergence-latency aggregate over visible sampled faults.
	DivCount uint64 `json:"divergence_count"`
	DivSum   uint64 `json:"divergence_cycles_sum"`
	DivMin   uint64 `json:"divergence_cycles_min,omitempty"`
	DivMax   uint64 `json:"divergence_cycles_max,omitempty"`

	// Samples holds up to maxSamples example divergences (smallest fault
	// IDs).
	Samples []Sample `json:"samples,omitempty"`
}

type entryKey struct{ structure, workload, mode string }

// Explorer aggregates per-fault attributions across a whole study: the
// masking-source breakdown behind the report tables and the observer's
// /forensics.json endpoint. Safe for concurrent use.
type Explorer struct {
	mu      sync.Mutex
	entries map[entryKey]*entry
}

type entry struct {
	faults  uint64
	sampled uint64
	causes  [NumCauses]uint64

	divCount, divSum, divMin, divMax uint64

	samples []Sample // sorted by FaultID, capped at maxSamples
}

// NewExplorer builds an empty explorer.
func NewExplorer() *Explorer {
	return &Explorer{entries: make(map[entryKey]*entry)}
}

// Record folds one fault into the breakdown. rec may be nil for a fault
// that carries no attribution (a result resumed from a shard journalled
// without forensics) — it counts toward the campaign total alone.
func (e *Explorer) Record(structure, workload, mode string, f fault.Fault, rec *Record) {
	if e == nil {
		return
	}
	k := entryKey{structure, workload, mode}
	e.mu.Lock()
	defer e.mu.Unlock()
	en := e.entries[k]
	if en == nil {
		en = &entry{}
		e.entries[k] = en
	}
	en.faults++
	if rec == nil {
		return
	}
	en.sampled++
	if int(rec.Cause) < NumCauses {
		en.causes[rec.Cause]++
	}
	if d := rec.Divergence; d != nil {
		en.divCount++
		en.divSum += d.CycleDelta
		if en.divCount == 1 || d.CycleDelta < en.divMin {
			en.divMin = d.CycleDelta
		}
		if d.CycleDelta > en.divMax {
			en.divMax = d.CycleDelta
		}
		en.addSample(Sample{
			FaultID:    f.ID,
			Bit:        f.Bit,
			Cycle:      f.Cycle,
			CycleDelta: d.CycleDelta,
			PC:         d.PC,
			Kind:       d.Kind,
		})
	}
}

// addSample keeps the maxSamples divergences with the smallest fault IDs,
// sorted — a deterministic retained set under any arrival order.
func (en *entry) addSample(s Sample) {
	i := sort.Search(len(en.samples), func(i int) bool {
		return en.samples[i].FaultID >= s.FaultID
	})
	if i < len(en.samples) && en.samples[i].FaultID == s.FaultID {
		return // resumed fault already folded in
	}
	if len(en.samples) == maxSamples {
		if i == maxSamples {
			return
		}
		en.samples = en.samples[:maxSamples-1]
	}
	en.samples = append(en.samples, Sample{})
	copy(en.samples[i+1:], en.samples[i:])
	en.samples[i] = s
}

// Snapshot returns the aggregated entries sorted by (structure, workload,
// mode).
func (e *Explorer) Snapshot() []Entry {
	if e == nil {
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	keys := make([]entryKey, 0, len(e.entries))
	for k := range e.entries {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.structure != b.structure {
			return a.structure < b.structure
		}
		if a.workload != b.workload {
			return a.workload < b.workload
		}
		return a.mode < b.mode
	})
	out := make([]Entry, 0, len(keys))
	for _, k := range keys {
		en := e.entries[k]
		ce := Entry{
			Structure: k.structure,
			Workload:  k.workload,
			Mode:      k.mode,
			Faults:    en.faults,
			Sampled:   en.sampled,
			Causes:    make(map[string]uint64, NumCauses),
			DivCount:  en.divCount,
			DivSum:    en.divSum,
			DivMin:    en.divMin,
			DivMax:    en.divMax,
			Samples:   append([]Sample(nil), en.samples...),
		}
		for _, c := range Causes {
			if n := en.causes[c]; n > 0 {
				ce.Causes[c.String()] = n
			}
		}
		out = append(out, ce)
	}
	return out
}

// WriteJSON writes the breakdown as one JSON document — the body of the
// observer's /forensics.json endpoint.
func (e *Explorer) WriteJSON(w io.Writer) error {
	doc := struct {
		Causes  []string `json:"causes"`
		Entries []Entry  `json:"entries"`
	}{Entries: e.Snapshot()}
	for _, c := range Causes {
		doc.Causes = append(doc.Causes, c.String())
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}
