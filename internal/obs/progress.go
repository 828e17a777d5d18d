package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// PairProgress is the completion state of one (structure, workload, mode)
// campaign.
type PairProgress struct {
	Structure string `json:"structure"`
	Workload  string `json:"workload"`
	Mode      string `json:"mode"`
	Done      int    `json:"done"`
	Total     int    `json:"total"`
	SimCycles uint64 `json:"sim_cycles"`
}

// ProgressSnapshot is a point-in-time view of a running study, serialised
// on the /progress.json endpoint and rendered by Line.
type ProgressSnapshot struct {
	ElapsedSec  float64 `json:"elapsed_sec"`
	FaultsDone  int64   `json:"faults_done"`
	FaultsTotal int64   `json:"faults_total"`

	// FaultsPerSec and SimCyclesPerSec are whole-run averages.
	FaultsPerSec    float64 `json:"faults_per_sec"`
	SimCyclesPerSec float64 `json:"sim_cycles_per_sec"`

	// SpeedupVsExhaustive is the ratio of the estimated exhaustive-mode
	// simulation cost of the completed faults to the cycles actually
	// simulated for them — the live view of the paper's Table II claim.
	SpeedupVsExhaustive float64 `json:"speedup_vs_exhaustive"`

	// ETASec extrapolates the remaining faults at the current rate
	// (negative when no campaign has been announced yet).
	ETASec float64 `json:"eta_sec"`

	Pairs []PairProgress `json:"pairs"`
}

// Progress aggregates per-fault completion events from campaign workers
// into live throughput, completion and ETA figures. All methods are safe
// for concurrent use. The zero value is not usable; call NewProgress.
type Progress struct {
	mu    sync.Mutex
	now   func() time.Time
	out   io.Writer
	start time.Time

	pairs map[string]*PairProgress
	order []string

	faultsDone  int64
	faultsTotal int64
	simCycles   uint64
	exhCycles   uint64
}

// NewProgress returns a reporter whose Logf lines and ticker output go to
// out (pass io.Discard to keep it silent).
func NewProgress(out io.Writer) *Progress {
	if out == nil {
		out = io.Discard
	}
	p := &Progress{now: time.Now, out: out, pairs: make(map[string]*PairProgress)}
	p.start = p.now()
	return p
}

// SetClock replaces the time source (tests).
func (p *Progress) SetClock(now func() time.Time) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.now = now
	p.start = now()
}

// StartCampaign announces a campaign of total faults for one
// (structure, workload, mode) triple. Every announcement accumulates: a
// pair totals all campaigns run on its triple, concurrent ones included
// (requests differing only in seed, fault count, machine or window share a
// triple). Identical campaigns cannot double-count — the single-flight
// executor runs, and so announces, each key once.
func (p *Progress) StartCampaign(structure, workload, mode string, total int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	pp := p.pair(structure, workload, mode)
	pp.Total += total
	p.faultsTotal += int64(total)
}

func (p *Progress) pair(structure, workload, mode string) *PairProgress {
	key := structure + "|" + workload + "|" + mode
	pp, ok := p.pairs[key]
	if !ok {
		pp = &PairProgress{Structure: structure, Workload: workload, Mode: mode}
		p.pairs[key] = pp
		p.order = append(p.order, key)
	}
	return pp
}

// FaultDone records the completion of one injected fault. simCycles is the
// number of cycles actually simulated for it; exhaustiveCycles is the
// estimated cost the same fault would have had under end-to-end SFI (used
// for the live speedup figure).
func (p *Progress) FaultDone(structure, workload, mode string, simCycles, exhaustiveCycles uint64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	pp := p.pair(structure, workload, mode)
	pp.Done++
	pp.SimCycles += simCycles
	p.faultsDone++
	p.simCycles += simCycles
	p.exhCycles += exhaustiveCycles
}

// SkipFaults retracts n announced-but-never-simulated faults from a
// campaign's totals — the distributed claim loop announces the full fault
// list up front and only then discovers that another process owns some of
// its chunks, so the skipped share must leave the denominator or the pair
// would never read 100%. Totals never drop below the completions already
// recorded.
func (p *Progress) SkipFaults(structure, workload, mode string, n int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	pp := p.pair(structure, workload, mode)
	if n > pp.Total-pp.Done {
		n = pp.Total - pp.Done
	}
	if n <= 0 {
		return
	}
	pp.Total -= n
	p.faultsTotal -= int64(n)
}

// Snapshot returns the current progress state.
func (p *Progress) Snapshot() ProgressSnapshot {
	p.mu.Lock()
	defer p.mu.Unlock()
	el := p.now().Sub(p.start).Seconds()
	s := ProgressSnapshot{
		ElapsedSec:  el,
		FaultsDone:  p.faultsDone,
		FaultsTotal: p.faultsTotal,
	}
	if el > 0 {
		s.FaultsPerSec = float64(p.faultsDone) / el
		s.SimCyclesPerSec = float64(p.simCycles) / el
	}
	if p.simCycles > 0 {
		s.SpeedupVsExhaustive = float64(p.exhCycles) / float64(p.simCycles)
	}
	if remaining := p.faultsTotal - p.faultsDone; remaining > 0 && s.FaultsPerSec > 0 {
		s.ETASec = float64(remaining) / s.FaultsPerSec
	}
	keys := append([]string(nil), p.order...)
	sort.Strings(keys)
	for _, k := range keys {
		s.Pairs = append(s.Pairs, *p.pairs[k])
	}
	return s
}

// WriteJSON serialises a snapshot as indented JSON.
func (p *Progress) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(p.Snapshot())
}

// Line renders a one-line live summary of the snapshot.
func (s ProgressSnapshot) Line() string {
	pct := 0.0
	if s.FaultsTotal > 0 {
		pct = 100 * float64(s.FaultsDone) / float64(s.FaultsTotal)
	}
	line := fmt.Sprintf("faults %d/%d (%.1f%%) | %.1f faults/s | %s simcycles/s | speedup vs exhaustive %.1fx",
		s.FaultsDone, s.FaultsTotal, pct, s.FaultsPerSec, humanCount(s.SimCyclesPerSec), s.SpeedupVsExhaustive)
	if s.ETASec > 0 {
		line += " | ETA " + (time.Duration(s.ETASec * float64(time.Second))).Round(time.Second).String()
	}
	return line
}

// Line renders the current one-line live summary.
func (p *Progress) Line() string { return p.Snapshot().Line() }

// Logf writes one timestamped line to the progress writer — the shared
// code path for phase announcements that used to be ad-hoc stderr prints.
func (p *Progress) Logf(format string, a ...any) {
	p.mu.Lock()
	el := p.now().Sub(p.start)
	out := p.out
	p.mu.Unlock()
	fmt.Fprintf(out, "[%8s] %s\n", el.Round(time.Millisecond), fmt.Sprintf(format, a...))
}

// StartTicker renders Line to the progress writer every interval until the
// returned stop function is called; stop writes one final line. A
// non-positive interval defaults to 2s.
func (p *Progress) StartTicker(interval time.Duration) (stop func()) {
	if interval <= 0 {
		interval = 2 * time.Second
	}
	done := make(chan struct{})
	var once sync.Once
	go func() {
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				p.Logf("%s", p.Line())
			}
		}
	}()
	return func() {
		once.Do(func() {
			close(done)
			p.Logf("%s", p.Line())
		})
	}
}

// humanCount renders a rate with an engineering suffix.
func humanCount(v float64) string {
	switch {
	case v >= 1e9:
		return fmt.Sprintf("%.2fG", v/1e9)
	case v >= 1e6:
		return fmt.Sprintf("%.2fM", v/1e6)
	case v >= 1e3:
		return fmt.Sprintf("%.1fk", v/1e3)
	}
	return fmt.Sprintf("%.0f", v)
}
