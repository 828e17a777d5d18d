package cpu

import (
	"testing"

	"avgi/internal/prog"
)

// The pair below justifies the wrap-compare in ringNext: ring
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
		i = ringNext(i, len(m.rob))
	}
	sinkInt = i
}

// The second pair is the same argument for executeLoad's store-queue scan,
// which walks the ring backwards from the tail once per issued load: two
// modulo reductions per visited slot (the pre-wrap-compare spelling) versus
// ringPrev.

//go:noinline
func sqScanModulo(tail, cnt, n int) (sum int) {
	for k, j := 0, (tail-1+n)%n; k < cnt; k, j = k+1, (j-1+n)%n {
		sum += j
	}
	return sum
}

//go:noinline
func sqScanWrap(tail, cnt, n int) (sum int) {
	for k, j := 0, tail; k < cnt; k++ {
		j = ringPrev(j, n)
		sum += j
	}
	return sum
}

func benchmarkSQScan(b *testing.B, scan func(tail, cnt, n int) int) {
	n := ConfigA72().SQSize
	if scan(5, n, n) != sqScanModulo(5, n, n) {
		b.Fatal("the scans disagree")
	}
	sum := 0
	for k := 0; k < b.N; k++ {
		sum += scan(k&(n-1), n/2, n)
	}
	sinkInt = sum
}

func BenchmarkSQScanModulo(b *testing.B) { benchmarkSQScan(b, sqScanModulo) }
func BenchmarkSQScanWrap(b *testing.B)   { benchmarkSQScan(b, sqScanWrap) }

var sinkInt int
