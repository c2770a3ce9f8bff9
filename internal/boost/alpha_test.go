package boost

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// referenceOptimalAlpha is OptimalAlpha as it was before it skipped zero
// margins: every evaluation of Z' and Z runs over every margin. The
// line search must return its bits exactly.
func referenceOptimalAlpha(weights, margins []float64) (alpha, z float64) {
	dz := func(a float64) float64 {
		var d float64
		for i, w := range weights {
			m := margins[i]
			d -= w * m * math.Exp(-a*m)
		}
		return d
	}
	if dz(0) >= 0 {
		return 0, Z(weights, margins, 0)
	}
	hi := 1.0
	for dz(hi) < 0 {
		hi *= 2
		if hi >= MaxAlpha {
			hi = MaxAlpha
			break
		}
	}
	lo := 0.0
	if dz(hi) < 0 {
		return hi, Z(weights, margins, hi)
	}
	for iter := 0; iter < 60 && hi-lo > 1e-10; iter++ {
		mid := (lo + hi) / 2
		if dz(mid) < 0 {
			lo = mid
		} else {
			hi = mid
		}
	}
	alpha = (lo + hi) / 2
	return alpha, Z(weights, margins, alpha)
}

// sameAlpha fails t unless OptimalAlpha returns the reference's bits.
func sameAlpha(t *testing.T, weights, margins []float64) {
	t.Helper()
	a, z := OptimalAlpha(weights, margins)
	ra, rz := referenceOptimalAlpha(weights, margins)
	if math.Float64bits(a) != math.Float64bits(ra) || math.Float64bits(z) != math.Float64bits(rz) {
		t.Fatalf("OptimalAlpha = (%v, %v), reference (%v, %v)\nweights %v\nmargins %v", a, z, ra, rz, weights, margins)
	}
}

// trainerMargins draws t normalized weights and gated margins shaped
// like a training round's: a share zero of the margins are ±0 (outside
// the splitter interval, or a tie), the rest spread around a positive
// mean.
func trainerMargins(rng *rand.Rand, t int, zero float64) (weights, margins []float64) {
	weights = make([]float64, t)
	margins = make([]float64, t)
	var sum float64
	for i := range weights {
		weights[i] = rng.ExpFloat64()
		sum += weights[i]
	}
	for i := range weights {
		weights[i] /= sum
		switch u := rng.Float64(); {
		case u < zero/2:
			margins[i] = 0
		case u < zero:
			margins[i] = math.Copysign(0, -1)
		default:
			margins[i] = 0.2 + rng.NormFloat64()
		}
	}
	return weights, margins
}

func TestOptimalAlphaMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(600)
		weights, margins := trainerMargins(rng, n, rng.Float64())
		sameAlpha(t, weights, margins)
	}
	// All margins zero: Z' is +0 at 0, so α is 0 and Z the weights' sum.
	weights, margins := trainerMargins(rng, 50, 1)
	sameAlpha(t, weights, margins)
	if a, _ := OptimalAlpha(weights, margins); a != 0 {
		t.Errorf("all-zero margins: alpha = %v, want 0", a)
	}
	// Positive margins and zeros only: Z' < 0 up to the cap.
	for i := range margins {
		if i%3 == 0 {
			margins[i] = 1 + rng.Float64()
		}
	}
	sameAlpha(t, weights, margins)
	if a, _ := OptimalAlpha(weights, margins); a != MaxAlpha {
		t.Errorf("one-sign margins: alpha = %v, want the cap %v", a, MaxAlpha)
	}
}

// FuzzOptimalAlpha requires OptimalAlpha's α and Z to equal the full
// line search's bit for bit. Each example takes two bytes of the input:
// a weight (finite, as a booster's always are) and a margin class — +0,
// -0, a small value of either sign, or, taking eight more bytes, any
// float64 at all.
func FuzzOptimalAlpha(f *testing.F) {
	f.Add([]byte{0x40, 0x00, 0x40, 0x01, 0x40, 0x13, 0x40, 0xf3})             // mixed signs around ±0
	f.Add([]byte{0x10, 0x00, 0x20, 0x01, 0x30, 0x00, 0x40, 0x01})             // all zero
	f.Add([]byte{0x10, 0x23, 0x20, 0x00, 0x30, 0x43, 0x40, 0x01, 0x50, 0x17}) // one sign: the cap
	f.Add([]byte{0x10, 0xe3, 0x20, 0x00, 0x30, 0xc3})                         // one sign: α = 0
	f.Fuzz(func(t *testing.T, raw []byte) {
		var weights, margins []float64
		for len(raw) >= 2 && len(weights) < 4096 {
			w, class := raw[0], raw[1]
			raw = raw[2:]
			var m float64
			switch class % 4 {
			case 0:
				m = 0
			case 1:
				m = math.Copysign(0, -1)
			case 2:
				if len(raw) < 8 {
					continue
				}
				m = math.Float64frombits(binary.LittleEndian.Uint64(raw))
				raw = raw[8:]
			case 3:
				m = float64(int8(class)) / 32
			}
			weights = append(weights, float64(w)/255)
			margins = append(margins, m)
		}
		sameAlpha(t, weights, margins)
	})
}

var alphaSink float64

// BenchmarkOptimalAlpha times one line search over t = 4,000 margins, a
// third of them zero (vector-scan trains on 4,000 triples), against the
// reference that evaluates every margin.
func BenchmarkOptimalAlpha(b *testing.B) {
	weights, margins := trainerMargins(rand.New(rand.NewSource(1)), 4000, 1.0/3)
	for _, bc := range []struct {
		name string
		fn   func(weights, margins []float64) (float64, float64)
	}{{"skipzero", OptimalAlpha}, {"reference", referenceOptimalAlpha}} {
		b.Run(bc.name, func(b *testing.B) {
			for b.Loop() {
				alphaSink, _ = bc.fn(weights, margins)
			}
		})
	}
}
