package campaign

import (
	"testing"

	"avgi/internal/fault"
)

// RequireCharged and RaceEnabled are requireCharged and raceEnabled for the
// package's external tests, which may import what imports campaign.
func RequireCharged(t *testing.T, what string, r *Runner, mode Mode, ert uint64, faults []fault.Fault, full, fast []Result) {
	t.Helper()
	requireCharged(t, what, r, mode, ert, faults, full, fast)
}

const RaceEnabled = raceEnabled
