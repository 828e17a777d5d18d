package cpu

import (
	"testing"

	"avgi/internal/prog"
)

// The pair below justifies the wrap-compare in Machine.robNext: ring
// traversal with an integer modulo per step versus the shipped
// increment-and-compare. The ROB is walked every cycle by dispatch,
// writeback, commit and squash, so the div unit's latency shows up
// directly in golden-run throughput (cpu.golden_ns_per_cycle.*,
// bench/README.md).

//go:noinline
func robNextModulo(i, n int) int { return (i + 1) % n }

func BenchmarkROBNextModulo(b *testing.B) {
	n := ConfigA72().ROBSize
	i := 0
	for k := 0; k < b.N; k++ {
		i = robNextModulo(i, n)
	}
	sinkInt = i
}

func BenchmarkROBNextWrap(b *testing.B) {
	w, err := prog.ByName("crc32")
	if err != nil {
		b.Fatal(err)
	}
	m := New(ConfigA72(), w.Build(ConfigA72().Variant))
	i := 0
	b.ResetTimer()
	for k := 0; k < b.N; k++ {
		i = m.robNext(i)
	}
	sinkInt = i
}

var sinkInt int
