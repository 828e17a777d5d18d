package campaign

import (
	"encoding/binary"
	"hash/fnv"
	"reflect"
	"testing"

	"avgi/internal/cpu"
	"avgi/internal/fault"
	"avgi/internal/forensics"
	"avgi/internal/imm"
)

// TestHVFViewRule checks the view on hand-made Results: a run that went on
// past its deviation is cut there and loses its crash, a pre-software crash
// (its own deviation) keeps it, a run without a deviation keeps everything,
// every Result loses its effect and forensics record, and the input is left
// as it was.
func TestHVFViewRule(t *testing.T) {
	rec := &forensics.Record{}
	in := []Result{
		{Fault: fault.Fault{ID: 1}, IMM: imm.IMM(3), Manifested: true, ManifestLatency: 40, SimCycles: 900,
			Crash: cpu.CrashIllegal, Runaway: true, Effect: imm.Crash, HasEffect: true, Forensics: rec},
		{Fault: fault.Fault{ID: 2}, IMM: imm.PRE, Manifested: true, ManifestLatency: 70, SimCycles: 70,
			Crash: cpu.CrashMachineCheck, Effect: imm.Crash, HasEffect: true},
		{Fault: fault.Fault{ID: 3}, IMM: imm.Benign, SimCycles: 500, Effect: imm.Masked, HasEffect: true, Forensics: rec},
		{Fault: fault.Fault{ID: 4}, Quarantined: true, Err: "boom"},
	}
	orig := append([]Result(nil), in...)
	want := []Result{
		{Fault: fault.Fault{ID: 1}, IMM: imm.IMM(3), Manifested: true, ManifestLatency: 40, SimCycles: 40},
		{Fault: fault.Fault{ID: 2}, IMM: imm.PRE, Manifested: true, ManifestLatency: 70, SimCycles: 70,
			Crash: cpu.CrashMachineCheck},
		{Fault: fault.Fault{ID: 3}, IMM: imm.Benign, SimCycles: 500},
		{Fault: fault.Fault{ID: 4}, Quarantined: true, Err: "boom"},
	}
	if got := HVFView(in); !reflect.DeepEqual(got, want) {
		t.Errorf("HVFView:\n got %+v\nwant %+v", got, want)
	}
	if !reflect.DeepEqual(in, orig) {
		t.Error("HVFView modified its input")
	}
	if HVFView(nil) != nil {
		t.Error("HVFView(nil) is not nil")
	}
}

// hvfDigest is an FNV-64 digest of what the HVF measurement reads off each
// Result: IMM, Manifested, ManifestLatency, SimCycles and Runaway.
func hvfDigest(results []Result) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, r := range results {
		for _, v := range []uint64{uint64(r.IMM), b2u(r.Manifested), r.ManifestLatency, r.SimCycles, b2u(r.Runaway)} {
			binary.LittleEndian.PutUint64(b[:], v)
			h.Write(b[:])
		}
	}
	return h.Sum64()
}

func b2u(v bool) uint64 {
	if v {
		return 1
	}
	return 0
}

// hvfPins are what campaigns that stopped every faulty run at its first
// commit-trace deviation recorded, with and without EarlyExit alike, for 40
// faults (seed 7) a structure on six programs on both machines: the digest
// of each list's Results and their Summary's SimCycles.
var hvfPins = []struct {
	machine, workload, structure string
	digest, simCycles            uint64
}{
	{"a72", "sha", "RF", 0x57090d6b64464bf3, 108528},
	{"a72", "sha", "DTLB", 0x23c09484ca5ccabb, 241087},
	{"a72", "sha", "ITLB", 0x162e52c037da128a, 203113},
	{"a72", "sha", "L1I (Data)", 0x6fe85b11306e37c7, 156105},
	{"a72", "sha", "L1D (Tag)", 0x37764bd1f84d01b8, 196736},
	{"a72", "sha", "ROB", 0x9ccdc37ce5f77ca1, 78553},
	{"a72", "sha", "SQ", 0x973f44565e4e32e3, 210797},
	{"a72", "sha", "LQ", 0xf028f512bb03512f, 197693},
	{"a72", "sha", "L1I (Tag)", 0xd40508b01a76e136, 228653},
	{"a72", "sha", "L2 (Tag)", 0xa77f88489588aa7d, 252274},
	{"a72", "sha", "L1D (Data)", 0x05c4855b9bdedfd1, 221038},
	{"a72", "sha", "L2 (Data)", 0x414cf75ab3ce67d8, 223015},
	{"a72", "qsort", "RF", 0xe3b0298e5c418243, 623060},
	{"a72", "qsort", "DTLB", 0x840be521ba6ac199, 647941},
	{"a72", "qsort", "ITLB", 0x169e6ccd67fbc903, 705775},
	{"a72", "qsort", "L1I (Data)", 0xd00c08c4534970e6, 603313},
	{"a72", "qsort", "L1D (Tag)", 0xe5ef1d5808291f84, 167316},
	{"a72", "qsort", "ROB", 0x879a00980e9efd2d, 452781},
	{"a72", "qsort", "SQ", 0x9fa4dd7f493bfeec, 695600},
	{"a72", "qsort", "LQ", 0x362b5e27c5648f5c, 612214},
	{"a72", "qsort", "L1I (Tag)", 0x49a06a7af06f572c, 702502},
	{"a72", "qsort", "L2 (Tag)", 0x041cba238b0071eb, 582664},
	{"a72", "qsort", "L1D (Data)", 0x77073937b8c5b2e4, 214406},
	{"a72", "qsort", "L2 (Data)", 0xac026f470e23bd60, 780834},
	{"a72", "rijndael", "RF", 0x88c7dc6fb8b62bf2, 3002212},
	{"a72", "rijndael", "DTLB", 0x69cac0a406a5dce3, 2960030},
	{"a72", "rijndael", "ITLB", 0xafc456ca6452c154, 3233990},
	{"a72", "rijndael", "L1I (Data)", 0x606542977178b532, 1986024},
	{"a72", "rijndael", "L1D (Tag)", 0xe1e6f166496f9930, 3375316},
	{"a72", "rijndael", "ROB", 0xe202232f21752eac, 2138325},
	{"a72", "rijndael", "SQ", 0x01db30b89f351e8b, 1656124},
	{"a72", "rijndael", "LQ", 0x21f338a1c7311f6c, 834083},
	{"a72", "rijndael", "L1I (Tag)", 0xbaac10667e7ce295, 3414084},
	{"a72", "rijndael", "L2 (Tag)", 0xaf25ecb021bae9d5, 3473274},
	{"a72", "rijndael", "L1D (Data)", 0x996d14af56091b89, 2763531},
	{"a72", "rijndael", "L2 (Data)", 0xebbdb13d866c574d, 3405608},
	{"a72", "cg", "RF", 0xd259c8bafb4624fb, 536159},
	{"a72", "cg", "DTLB", 0x48ef0366bd7f944b, 777160},
	{"a72", "cg", "ITLB", 0xe4d4b74d1283ecb0, 734216},
	{"a72", "cg", "L1I (Data)", 0x8cb1c20bf7d09d98, 622380},
	{"a72", "cg", "L1D (Tag)", 0x8abb64e23062676e, 567046},
	{"a72", "cg", "ROB", 0x7bbfd83e7e5ef022, 336244},
	{"a72", "cg", "SQ", 0x2abfb2f2f95c66db, 847980},
	{"a72", "cg", "LQ", 0x2bad932db893192b, 557755},
	{"a72", "cg", "L1I (Tag)", 0x8e06d8e7cd2a2269, 705039},
	{"a72", "cg", "L2 (Tag)", 0xad7d0c8ac9aebd05, 691868},
	{"a72", "cg", "L1D (Data)", 0x4f81b7ba5ad409cf, 661400},
	{"a72", "cg", "L2 (Data)", 0x62c8f6c942af0bfa, 662135},
	{"a72", "crc32", "RF", 0x55a749d02a030f7e, 538122},
	{"a72", "crc32", "DTLB", 0xfb8f02aaa4676549, 720626},
	{"a72", "crc32", "ITLB", 0xc5270c3c8278841d, 758412},
	{"a72", "crc32", "L1I (Data)", 0xd141189b53223fe0, 666231},
	{"a72", "crc32", "L1D (Tag)", 0x2260686ed7b3a7da, 536350},
	{"a72", "crc32", "ROB", 0x14eae71031907c6b, 295351},
	{"a72", "crc32", "SQ", 0x40cb01e3c9bdd9ac, 828236},
	{"a72", "crc32", "LQ", 0x5df1846051146876, 416691},
	{"a72", "crc32", "L1I (Tag)", 0x506b7c74108e11dc, 717264},
	{"a72", "crc32", "L2 (Tag)", 0x5df6f857e7e37c93, 770106},
	{"a72", "crc32", "L1D (Data)", 0x3b6b99113dcdac03, 576105},
	{"a72", "crc32", "L2 (Data)", 0xba4a4356bc7b4b60, 787827},
	{"a72", "stringsearch", "RF", 0xe636997537e5aca8, 145781},
	{"a72", "stringsearch", "DTLB", 0xfef7363e77035db1, 207220},
	{"a72", "stringsearch", "ITLB", 0xbe9c95734a425d23, 252319},
	{"a72", "stringsearch", "L1I (Data)", 0x97724df6e2654918, 255128},
	{"a72", "stringsearch", "L1D (Tag)", 0xea9e55ad3704ca69, 183472},
	{"a72", "stringsearch", "ROB", 0x565cab3a87e701ae, 132533},
	{"a72", "stringsearch", "SQ", 0xf61d8bc6f4fd4fd9, 208828},
	{"a72", "stringsearch", "LQ", 0x4c8fe6f125235751, 160283},
	{"a72", "stringsearch", "L1I (Tag)", 0x2fa64470224b66a3, 248537},
	{"a72", "stringsearch", "L2 (Tag)", 0x769679fc3f9a533e, 239555},
	{"a72", "stringsearch", "L1D (Data)", 0x45c6ecb37e08265f, 200570},
	{"a72", "stringsearch", "L2 (Data)", 0xcecc15c667ebd115, 281475},
	{"a15", "sha", "RF", 0x9c6ba47e488bd615, 136413},
	{"a15", "sha", "DTLB", 0xebd8fedb2bf898ea, 279707},
	{"a15", "sha", "ITLB", 0x657938f8fda82e39, 356895},
	{"a15", "sha", "L1I (Data)", 0x194deec7417378fe, 208417},
	{"a15", "sha", "L1D (Tag)", 0x5ff33c7b2b777dc4, 376583},
	{"a15", "sha", "ROB", 0x4f86b1ea8f0ba071, 181963},
	{"a15", "sha", "SQ", 0x6c320fa87b944afd, 326546},
	{"a15", "sha", "LQ", 0x853ae9aaba235566, 314231},
	{"a15", "sha", "L1I (Tag)", 0x9f942881e715fd8f, 339805},
	{"a15", "sha", "L2 (Tag)", 0xe64d2c793437a0a1, 303574},
	{"a15", "sha", "L1D (Data)", 0xc689d1b02cb3f29a, 292698},
	{"a15", "sha", "L2 (Data)", 0xadc6a08985a985c7, 322651},
	{"a15", "qsort", "RF", 0x695ff177bf988d49, 752120},
	{"a15", "qsort", "DTLB", 0x37edf1b2ee6b1120, 823883},
	{"a15", "qsort", "ITLB", 0x7f31e62f4d097927, 819245},
	{"a15", "qsort", "L1I (Data)", 0xdcccc041d11b379e, 821271},
	{"a15", "qsort", "L1D (Tag)", 0x44575e04dd8ee94d, 265815},
	{"a15", "qsort", "ROB", 0x543faf7bb4860195, 625083},
	{"a15", "qsort", "SQ", 0x52c9ca99c3a15d99, 944332},
	{"a15", "qsort", "LQ", 0xbfa6688b4c029e55, 752024},
	{"a15", "qsort", "L1I (Tag)", 0x9822a6fac9372a26, 845845},
	{"a15", "qsort", "L2 (Tag)", 0xee0731dec8f87674, 1014146},
	{"a15", "qsort", "L1D (Data)", 0x62d10595ebbc1ca5, 309610},
	{"a15", "qsort", "L2 (Data)", 0xd67a2eb2ad7ff8f3, 1103392},
	{"a15", "rijndael", "RF", 0x8524da79ecda20e5, 2024331},
	{"a15", "rijndael", "DTLB", 0x0be0f6c8924526d7, 3973021},
	{"a15", "rijndael", "ITLB", 0xe704101f7476a03b, 3334760},
	{"a15", "rijndael", "L1I (Data)", 0xdcb3e051adc9e0c1, 352828},
	{"a15", "rijndael", "L1D (Tag)", 0xe9d5c51897122749, 2864454},
	{"a15", "rijndael", "ROB", 0x025f001e83491454, 2145012},
	{"a15", "rijndael", "SQ", 0xc274a49127b15ed0, 2140123},
	{"a15", "rijndael", "LQ", 0x92fb58421f3ad54b, 1148540},
	{"a15", "rijndael", "L1I (Tag)", 0x1b43bc62676263bb, 4031127},
	{"a15", "rijndael", "L2 (Tag)", 0xc31395af223fd7d2, 3675211},
	{"a15", "rijndael", "L1D (Data)", 0xf8d618f0c911d2a6, 2742890},
	{"a15", "rijndael", "L2 (Data)", 0x1ef347654fc30f8e, 3365857},
	{"a15", "cg", "RF", 0x706e0225ec464558, 748912},
	{"a15", "cg", "DTLB", 0x81f4e913ae6d000b, 1033427},
	{"a15", "cg", "ITLB", 0xd90c7b5928a9f0f8, 1211433},
	{"a15", "cg", "L1I (Data)", 0x63abcd6c5e4b200e, 1247712},
	{"a15", "cg", "L1D (Tag)", 0xaf792175cf117d67, 874208},
	{"a15", "cg", "ROB", 0x1570d97cb227f5a5, 769414},
	{"a15", "cg", "SQ", 0xe552687e30c89d0d, 968169},
	{"a15", "cg", "LQ", 0x7da1ab111e3873c9, 811941},
	{"a15", "cg", "L1I (Tag)", 0x3c35f882406fe9de, 1071817},
	{"a15", "cg", "L2 (Tag)", 0x3642f578ca4d2fb9, 1456975},
	{"a15", "cg", "L1D (Data)", 0xfb75c7a5613dfdd5, 1183435},
	{"a15", "cg", "L2 (Data)", 0xd22cb275cfdb391c, 916283},
	{"a15", "crc32", "RF", 0x56c145b8a13b8cbd, 418728},
	{"a15", "crc32", "DTLB", 0xf24e8b6ca4d749d0, 607623},
	{"a15", "crc32", "ITLB", 0x2feb70e60b032659, 814010},
	{"a15", "crc32", "L1I (Data)", 0xd3ccd141b44217ec, 685630},
	{"a15", "crc32", "L1D (Tag)", 0xa02876b70109b418, 454619},
	{"a15", "crc32", "ROB", 0x63069a9fd74a7383, 353976},
	{"a15", "crc32", "SQ", 0x529f7b2fee95efa2, 870266},
	{"a15", "crc32", "LQ", 0x52d2939f710ef75a, 519972},
	{"a15", "crc32", "L1I (Tag)", 0x46c83bb647982e9d, 787674},
	{"a15", "crc32", "L2 (Tag)", 0x3f70971547afa057, 696518},
	{"a15", "crc32", "L1D (Data)", 0x37e847f01eb1b0d2, 426547},
	{"a15", "crc32", "L2 (Data)", 0x318be4b725e96ae1, 805407},
	{"a15", "stringsearch", "RF", 0x683633418f664143, 144845},
	{"a15", "stringsearch", "DTLB", 0x3af5e4d2195ad614, 305504},
	{"a15", "stringsearch", "ITLB", 0xa01cd8f2a37b92cd, 343482},
	{"a15", "stringsearch", "L1I (Data)", 0x01d3751641f01f93, 326585},
	{"a15", "stringsearch", "L1D (Tag)", 0xe1a9f9548ab53ba3, 226342},
	{"a15", "stringsearch", "ROB", 0x933cd5d5971d7183, 152589},
	{"a15", "stringsearch", "SQ", 0x644f8f3a37c7f699, 334667},
	{"a15", "stringsearch", "LQ", 0xcd214b35cfeb78d3, 276934},
	{"a15", "stringsearch", "L1I (Tag)", 0xaf045eaeceb57132, 314201},
	{"a15", "stringsearch", "L2 (Tag)", 0x03ffa4c7e6e232fd, 314914},
	{"a15", "stringsearch", "L1D (Data)", 0x4eea2ed246dcf660, 318603},
	{"a15", "stringsearch", "L2 (Data)", 0xe99cb9dfdb224fcd, 393855},
}

// TestHVFViewPinned holds the HVF view of exhaustive campaigns to hvfPins:
// the view charges and classifies every fault as the stop-at-first-deviation
// runs it replaced did. It runs with EarlyExit on; that an exhaustive
// campaign writes the same Results with it off is
// TestTimelineDifferentialModes's to show. (Those runs also
// recorded no crash where a run deviated and crashed in the same cycle,
// which the view keeps: on this grid that is fault 17 of a72 stringsearch
// L1I (Data), an alignment fault.)
func TestHVFViewPinned(t *testing.T) {
	if raceEnabled {
		t.Skip("a fixed value, not a schedule: nothing for the race detector to see")
	}
	cfgs := map[string]cpu.Config{"a72": cpu.ConfigA72(), "a15": cpu.ConfigA15()}
	var r *Runner
	for _, pin := range hvfPins {
		if r == nil || r.Cfg.Name != cfgs[pin.machine].Name || r.Prog.Name != pin.workload {
			r = newTestRunner(t, cfgs[pin.machine], pin.workload)
		}
		r.EarlyExit = true
		view := HVFView(r.Run(r.FaultList(pin.structure, 40, 7), ModeExhaustive, 0, 2))
		if d, c := hvfDigest(view), Summarize(view).SimCycles; d != pin.digest || c != pin.simCycles {
			t.Errorf("%s/%s/%s: digest %#016x, %d cycles; pinned %#016x, %d",
				pin.machine, pin.workload, pin.structure, d, c, pin.digest, pin.simCycles)
		}
	}
}
