package qor_test

import (
	"fmt"
	"math"
	"testing"

	"github.com/blasys-go/blasys/internal/bench"
	"github.com/blasys-go/blasys/internal/logic"
	"github.com/blasys-go/blasys/internal/qor"
)

// reportBits renders every field of a report, floats as their IEEE bits, so
// a pin fails on any change to any bit.
func reportBits(r qor.Report) string {
	fb := math.Float64bits
	return fmt.Sprintf("%d %t %016x %016x %016x %016x %016x %016x %016x %016x",
		r.Samples, r.Exact, fb(r.AvgRel), fb(r.AvgAbs), fb(r.NormAvgAbs), fb(r.MeanHam),
		fb(r.ErrRate), fb(r.WorstRel), fb(r.WorstAbs), fb(r.MeanSquared))
}

// seqVariant derives an approximate circuit by rewiring primary outputs:
// each entry of ties sets output o to a constant (src < 0: -1 is false, -2
// is true) or to the node driving output src. The rewired outputs feed back
// into the accumulator, so their error compounds across steps.
func seqVariant(c *logic.Circuit, ties [][2]int) *logic.Circuit {
	a := c.Clone()
	for _, t := range ties {
		switch o, src := t[0], t[1]; {
		case src == -1:
			a.Outputs[o] = a.ConstNode(false)
		case src == -2:
			a.Outputs[o] = a.ConstNode(true)
		default:
			a.Outputs[o] = c.Outputs[src]
		}
	}
	return a
}

// TestSequencePins pins SequentialEvaluator.Compare reports, bit for bit, to
// the values the evaluator produced when it still decoded the reference
// trajectory per lane on every call. The reference-decode cache and the
// scattered flip masks are a pure speed-up; any moved bit fails here.
func TestSequencePins(t *testing.T) {
	counter, counterSeq := qor.CounterCircuit(8)
	sad, mac := bench.SAD(), bench.MAC()
	type variant struct {
		name string
		ties [][2]int
	}
	word := []variant{
		{"lsb0", [][2]int{{0, -1}}},
		{"low", [][2]int{{1, -2}, {3, 2}}},
		{"mid", [][2]int{{12, -1}}},
		{"swap", [][2]int{{13, 12}, {12, 13}}},
		{"carry", [][2]int{{32, -2}}},
	}
	circuits := []struct {
		name     string
		c        *logic.Circuit
		spec     qor.OutputSpec
		seq      qor.Sequence
		variants []variant
	}{
		{"counter", counter, qor.Unsigned("s", 8), counterSeq, []variant{
			{"lsb0", [][2]int{{0, -1}}},
			{"b2", [][2]int{{2, -2}}},
			{"b3", [][2]int{{3, 1}}},
		}},
		{"counter-split", counter, qor.OutputSpec{Groups: []qor.Group{
			{Name: "lo", Bits: []int{0, 1, 2, 3}},
			{Name: "hi", Bits: []int{4, 5, 6, 7}, Signed: true},
		}}, counterSeq, []variant{
			{"lsb0", [][2]int{{0, -1}}},
			{"b5", [][2]int{{5, -2}}},
		}},
		{"SAD", sad.Circ, sad.Spec, *sad.Seq, word},
		{"MAC", mac.Circ, mac.Spec, *mac.Seq, word},
	}
	// Samples, Exact, then the bits of AvgRel, AvgAbs, NormAvgAbs, MeanHam,
	// ErrRate, WorstRel, WorstAbs and MeanSquared.
	want := map[string]string{
		"counter/lsb0/1":       "8192 false 3feddf0000000000 4010e96000000000 3f90fa5a5a5a5a5a 3ff86a8000000000 3feddf0000000000 3ff0000000000000 4030000000000000 4039636800000000",
		"counter/b2/1":         "8192 false 40003af7bd931f04 401b2c8000000000 3f9b47c7c7c7c7c8 3ff43c0000000000 3ff0000000000000 4010000000000000 4034000000000000 404b0a4000000000",
		"counter/b3/1":         "8192 false 3ff39197bc648078 40136a0000000000 3f937d7d7d7d7d7d 3fe5d10000000000 3fe2720000000000 4010000000000000 4030000000000000 40455a0000000000",
		"counter/lsb0/7":       "8192 false 3fee0c0000000000 4010aea000000000 3f90bf5f5f5f5f5f 3ff8670000000000 3fee0c0000000000 3ff0000000000000 402a000000000000 4038b92800000000",
		"counter/b2/7":         "8192 false 40003a8594e4f137 401ae10000000000 3f9afbfbfbfbfbfc 3ff3f50000000000 3ff0000000000000 4010000000000000 4030000000000000 404a820000000000",
		"counter/b3/7":         "8192 false 3ff3ea61ff94565d 4013610000000000 3f93747474747474 3fe5880000000000 3fe2680000000000 4010000000000000 4030000000000000 4045530000000000",
		"counter-split/lsb0/1": "8192 false 3fdddf0000000000 4000e78000000000 3fc2081dddddddde 3ff86a8000000000 3feddf0000000000 3ff0000000000000 402e000000000000 40295b7000000000",
		"counter-split/b5/1":   "8192 false 3ff0000000000000 3ff0000000000000 3fc0000000000000 3ff0000000000000 3ff0000000000000 4000000000000000 4000000000000000 4000000000000000",
		"counter-split/lsb0/7": "8192 false 3fde0c0000000000 4000aea000000000 3fc1cb5555555555 3ff8670000000000 3fee0c0000000000 3ff0000000000000 402a000000000000 4028b92800000000",
		"counter-split/b5/7":   "8192 false 3ff0000000000000 3ff0000000000000 3fc0000000000000 3ff0000000000000 3ff0000000000000 4000000000000000 4000000000000000 4000000000000000",
		"SAD/lsb0/1":           "8192 false 3f7b7c7ef946b3ee 40305be800000000 3e205be800082df4 400bb94000000000 3fef850000000000 3ff0000000000000 4045800000000000 40768fb680000000",
		"SAD/low/1":            "8192 false 3f94da74241ac6d9 4044309000000000 3e343090000a1848 400bcbc000000000 3fef3f0000000000 4000000000000000 406f000000000000 40a78ce400000000",
		"SAD/mid/1":            "8192 false 3fcb18a375d1a67b 408fe80000000000 3e7fe800000ff400 3fcfe80000000000 3fcfe80000000000 3feffc007ff00200 40b0000000000000 414fe80000000000",
		"SAD/swap/1":           "8192 false 3fbc0b6934055680 40806c0000000000 3e706c0000083600 3fd06c0000000000 3fc06c0000000000 3feffc007ff00200 40b0000000000000 41406c0000000000",
		"SAD/carry/1":          "8192 false 415bd9d0d223ef4b 41f0000000000000 3fe0000000080000 3ff0000000000000 3ff0000000000000 41f0000000000000 41f0000000000000 43f0000000000000",
		"SAD/lsb0/7":           "8192 false 3f789e17e00752f2 4030621000000000 3e20621000083108 400b648000000000 3fef740000000000 3fd5555555555555 4044800000000000 4076e17100000000",
		"SAD/low/7":            "8192 false 3f92fef9403d35d6 4044667800000000 3e346678000a333c 400bc68000000000 3fef510000000000 3ff5555555555555 406bc00000000000 40a713b140000000",
		"SAD/mid/7":            "8192 false 3fcc5d63bc4185ae 4090d80000000000 3e80d80000086c00 3fd0d80000000000 3fd0d80000000000 3ff0000000000000 40b0000000000000 4150d80000000000",
		"SAD/swap/7":           "8192 false 3fbd83f9e2974a7a 4081740000000000 3e7174000008ba00 3fd1740000000000 3fc1740000000000 3ff0000000000000 40b0000000000000 4141740000000000",
		"SAD/carry/7":          "8192 false 4152838ac3927157 41f0000000000000 3fe0000000080000 3ff0000000000000 3ff0000000000000 41d5555555555555 41f0000000000000 43f0000000000000",
		"MAC/lsb0/1":           "8192 false 3ef37a45e915ad91 40201fa000000000 3e101fa000080fd0 4006bcc000000000 3fee640000000000 3f70953f39010954 4038000000000000 4056ce9800000000",
		"MAC/low/1":            "8192 false 3f51e42290d8119d 403eae3000000000 3e2eae30000f5718 400a2cc000000000 3feefb0000000000 4000000000000000 4062c00000000000 409a325f80000000",
		"MAC/mid/1":            "8192 false 3fc1360c03fbba35 40ef997000000000 3edf9970000fccb8 400a624000000000 3fef590000000000 3feeb22e48a9c990 4104000000000000 41f550de80000000",
		"MAC/swap/1":           "8192 false 3fa23ed01ed8ef77 40c7cac000000000 3eb7cac0000be560 400102c000000000 3feb9f0000000000 3feeb22e48a9c990 40f7000000000000 41b07e6800000000",
		"MAC/carry/1":          "8192 false 41406319bfe355c0 41f0000000000000 3fe0000000080000 3ff0000000000000 3ff0000000000000 41f0000000000000 41f0000000000000 43f0000000000000",
		"MAC/lsb0/7":           "8192 false 3ef4efc100575ffd 401fbca000000000 3e0fbca0000fde50 4006c84000000000 3fee7c0000000000 3f97d05f417d05f4 403a000000000000 4056551e00000000",
		"MAC/low/7":            "8192 false 3f2038d5fb079edd 403ff4e000000000 3e2ff4e0000ffa70 400ae20000000000 3fef4a0000000000 3fc7d05f417d05f4 4065000000000000 409be17600000000",
		"MAC/mid/7":            "8192 false 3fc07d7c630c6e0b 40ef20c000000000 3edf20c0000f9060 400a9dc000000000 3fef6c0000000000 3fefd04794a10e6a 4104800000000000 41f4a13e00000000",
		"MAC/swap/7":           "8192 false 3fa0eb462f84395a 40c5d44000000000 3eb5d440000aea20 4000fd4000000000 3febda0000000000 3fefd04794a10e6a 40ea000000000000 41a959f000000000",
		"MAC/carry/7":          "8192 false 40ec298270ea0e68 41f0000000000000 3fe0000000080000 3ff0000000000000 3ff0000000000000 4197d05f417d05f4 41f0000000000000 43f0000000000000",
	}
	for _, tc := range circuits {
		for _, seed := range []int64{1, 7} {
			e, err := qor.NewSequentialEvaluator(tc.c, tc.spec, tc.seq, 1<<13, seed)
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range tc.variants {
				rep, err := e.Compare(seqVariant(tc.c, v.ties))
				if err != nil {
					t.Fatal(err)
				}
				key := fmt.Sprintf("%s/%s/%d", tc.name, v.name, seed)
				if got := reportBits(rep); got != want[key] {
					t.Errorf("%q: %q,", key, got)
				}
			}
		}
	}
}
