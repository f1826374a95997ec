package rng

import (
	"fmt"
	"math"
	"testing"
)

// zipfCase is one point of the exactness grid.
type zipfCase struct {
	q, v float64
	imax uint64
}

func (c zipfCase) String() string { return fmt.Sprintf("q=%g/v=%g/imax=%d", c.q, c.v, c.imax) }

func zipfGrid() []zipfCase {
	var cs []zipfCase
	for _, q := range []float64{1.001, 1.05, 1.1, 1.3, 1.5, 2.5, 4, 50} {
		for _, v := range []float64{1, 3, 10} {
			for _, imax := range []uint64{0, 1, 5, 199, 399, 20000, 65535} {
				cs = append(cs, zipfCase{q, v, imax})
			}
		}
	}
	return cs
}

// drawAt is what Uint64 returns for the 53-bit uniform u; ok is false when
// u is outside the support and Uint64 would draw again.
func (z *Zipf) drawAt(u uint64) (k uint64, ok bool) {
	if k, ok := z.lookup(u); ok {
		return k, true
	}
	x := z.inverse(u)
	return uint64(x), x >= 0 && x <= z.imax
}

// legacyZipf is the rejection-inversion loop the table replaced, kept
// verbatim as the reference the exact formula must reproduce.
func legacyZipf(z *Zipf) uint64 {
	s := 2 - z.hinv(z.h(1.5)-math.Exp(-z.q*math.Log(z.v+1)))
	for {
		r := z.r.Float64()
		ur := z.hxm + r*z.hx0MinusHxm
		x := z.hinv(ur)
		k := math.Floor(x + 0.5)
		if k-x <= s {
			return uint64(k)
		}
		if ur >= z.h(k+0.5)-math.Exp(-math.Log(k+z.v)*z.q) {
			return uint64(k)
		}
	}
}

// exactSteps bisects, for every key k, the smallest u the exact formula
// maps to a key <= k: the step the table estimates as bnd[k+1].
func exactSteps(z *Zipf) []uint64 {
	steps := make([]uint64, int(z.imax)+1)
	for k := range steps {
		lo, hi := uint64(0), uint64(1)<<53
		for lo < hi {
			mid := lo + (hi-lo)/2
			if z.inverse(mid) <= float64(k) {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		steps[k] = lo
	}
	return steps
}

// TestZipfTableExact checks the table path against the exact formula: draw
// for draw on a random stream, at every u within 256 of each exact step, and
// at the edges of the margin around each estimated step. It also bounds the
// estimates' error by zipfMargin/1024.
func TestZipfTableExact(t *testing.T) {
	draws := 1 << 20
	if testing.Short() {
		draws = 1 << 14
	}
	for _, c := range zipfGrid() {
		t.Run(c.String(), func(t *testing.T) {
			t.Parallel()
			z := NewZipf(New(uint64(c.imax)+7), c.q, c.v, c.imax)
			if z.bnd == nil {
				if c.imax+1 < zipfTableMax {
					t.Fatalf("no table: step error bound %.0f u", z.stepError())
				}
				return
			}
			steps := exactSteps(z)
			worst := 0.0
			for k, s := range steps {
				worst = math.Max(worst, math.Abs(float64(s)-float64(z.bnd[k+1])))
			}
			if worst > zipfMargin/1024 {
				t.Fatalf("step estimate off by %.0f u, bound %d", worst, zipfMargin/1024)
			}
			t.Logf("worst step estimate error %.0f u (predicted bound %.0f)", worst, z.stepError())

			// Where lookup declines, Uint64 evaluates the formula itself, so
			// only the table's own answers need checking against it.
			check := func(u uint64) {
				k, ok := z.lookup(u)
				if !ok || u >= 1<<53 {
					return
				}
				if x := z.inverse(u); float64(k) != x {
					t.Fatalf("u=%d: table gives %d, formula %v", u, k, x)
				}
			}
			walk := func(center, radius uint64) {
				lo := uint64(0)
				if center > radius {
					lo = center - radius
				}
				for u := lo; u <= center+radius; u++ {
					check(u)
				}
			}
			for _, s := range steps {
				walk(s, 256)
			}
			// The first u on either side of each step that the table
			// answers without the formula.
			for _, b := range z.bnd[1:] {
				if b >= zipfMargin {
					walk(b-zipfMargin, 8)
				}
				walk(b+zipfMargin, 8)
			}

			r := New(uint64(c.imax) + 11)
			for i := 0; i < draws; i++ {
				check(r.Uint64() >> 11)
			}
		})
	}
}

// TestZipfSkipsTableNearQ1: with q this close to 1 a short domain's step
// estimates could miss by more than the margin allows, so every draw takes
// the formula.
func TestZipfSkipsTableNearQ1(t *testing.T) {
	z := NewZipf(New(1), 1+1e-6, 10, 5)
	if z.bnd != nil {
		t.Fatalf("table built with step error bound %.0f u", z.stepError())
	}
	for i := 0; i < 1000; i++ {
		if k := z.Uint64(); k > 5 {
			t.Fatalf("draw %d out of range", k)
		}
	}
}

// TestZipfMatchesRejectionInversion pins the sampler to the
// rejection-inversion loop it replaced, draw for draw.
func TestZipfMatchesRejectionInversion(t *testing.T) {
	const draws = 1 << 12
	for _, c := range zipfGrid() {
		a := NewZipf(New(3), c.q, c.v, c.imax)
		b := NewZipf(New(3), c.q, c.v, c.imax)
		for i := 0; i < draws; i++ {
			if got, want := a.Uint64(), legacyZipf(b); got != want {
				t.Fatalf("%v draw %d: got %d, rejection-inversion %d", c, i, got, want)
			}
		}
	}
}

// TestZipfNeverRejects checks the premise that lets the table replace the
// rejection loop: the acceptance constant s exceeds 1 while k − x <= 0.5.
func TestZipfNeverRejects(t *testing.T) {
	for _, c := range zipfGrid() {
		z := NewZipf(New(1), c.q, c.v, c.imax)
		s := 2 - z.hinv(z.h(1.5)-math.Exp(-c.q*math.Log(c.v+1)))
		if !(s > 1 && s <= 1.5) {
			t.Fatalf("%v: s = %v, want in (1, 1.5]", c, s)
		}
	}
}

// TestZipfRedrawsPastSupport: a 53-bit draw of 0 inverts to imax+1, which
// is outside the support, so Uint64 must draw again.
func TestZipfRedrawsPastSupport(t *testing.T) {
	for _, imax := range []uint64{5, 199} {
		z := NewZipf(New(1), 1.3, 1, imax)
		if k := z.inverse(0); k != float64(imax+1) {
			t.Fatalf("imax=%d: inverse(0) = %v, want %d", imax, k, imax+1)
		}
		// With s[1] = 0 the next xoshiro256** output is 0.
		z.r.s[1] = 0
		next := *z.r
		if next.Uint64() != 0 {
			t.Fatal("xoshiro output with s[1] = 0 is not 0")
		}
		want, _ := z.drawAt(next.Uint64() >> 11)
		if got := z.Uint64(); got != want {
			t.Fatalf("imax=%d: got %d, want the redraw %d", imax, got, want)
		}
	}
}

func TestZipfZeroAllocs(t *testing.T) {
	z := NewZipf(New(1), 1.3, 1, 299)
	if a := testing.AllocsPerRun(1000, func() { z.Uint64() }); a != 0 {
		t.Fatalf("Zipf.Uint64: %v allocs/op, want 0", a)
	}
}

// Benchmark results land here so the compiler keeps the measured calls.
var (
	sinkU uint64
	sinkF float64
	sinkZ *Zipf
)

// BenchmarkZipf measures one key draw over 300 keys at q = 1.3, through the
// step table and through the exact formula alone.
func BenchmarkZipf(b *testing.B) {
	for _, name := range []string{"table", "formula"} {
		b.Run(name, func(b *testing.B) {
			z := NewZipf(New(1), 1.3, 1, 299)
			if name == "formula" {
				z.bnd, z.guide = nil, nil
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sinkU = z.Uint64()
			}
		})
	}
}

// BenchmarkNewZipf measures building a 300-key sampler, step table included.
func BenchmarkNewZipf(b *testing.B) {
	r := New(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sinkZ = NewZipf(r, 1.3, 1, 299)
	}
}

func BenchmarkNormFloat64(b *testing.B) {
	r := New(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sinkF = r.NormFloat64()
	}
}
