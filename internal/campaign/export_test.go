package campaign

// LiveOracle and RaceEnabled are liveOracle and raceEnabled for the package's
// external tests, which may import what imports campaign.
func LiveOracle(fn func()) { liveOracle(fn) }

const RaceEnabled = raceEnabled
