// Package rng provides deterministic pseudo-random streams for the SAGE
// simulator. Every stochastic component (link variability, workload
// generation, probe noise) draws from its own named stream split off a root
// seed, so adding a new consumer never perturbs the draws seen by existing
// ones and experiments stay reproducible across runs and Go versions.
//
// The core generator is xoshiro256**, seeded through SplitMix64, both
// implemented here so the sequence is independent of math/rand internals.
package rng

import (
	"hash/fnv"
	"math"
	"math/bits"
)

// Rand is a deterministic pseudo-random generator. It is not safe for
// concurrent use; split one stream per goroutine instead.
type Rand struct {
	s [4]uint64
	// cached second normal variate from the polar method
	hasSpare bool
	spare    float64
}

// New returns a generator seeded from seed via SplitMix64, which guarantees
// well-mixed state even for small or similar seeds.
func New(seed uint64) *Rand {
	r := &Rand{}
	sm := seed
	for i := range r.s {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		r.s[i] = z ^ (z >> 31)
	}
	// xoshiro must not start from the all-zero state.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 1
	}
	return r
}

// Split derives an independent stream identified by name. Streams derived
// with distinct names from the same parent are statistically independent.
func (r *Rand) Split(name string) *Rand {
	h := fnv.New64a()
	_, _ = h.Write([]byte(name))
	return New(r.Uint64() ^ h.Sum64())
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly random bits (xoshiro256**).
func (r *Rand) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Float64 returns a uniform variate in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform int in [0, n). It panics when n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Int63 returns a non-negative 63-bit integer.
func (r *Rand) Int63() int64 { return int64(r.Uint64() >> 1) }

// Perm returns a random permutation of [0, n) (Fisher–Yates).
func (r *Rand) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// NormFloat64 returns a standard normal variate (Marsaglia polar method).
func (r *Rand) NormFloat64() float64 {
	if r.hasSpare {
		r.hasSpare = false
		return r.spare
	}
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s >= 1 || s == 0 {
			continue
		}
		f := math.Sqrt(-2 * math.Log(s) / s)
		r.spare = v * f
		r.hasSpare = true
		return u * f
	}
}

// Normal returns a normal variate with the given mean and standard
// deviation.
func (r *Rand) Normal(mean, stddev float64) float64 {
	return mean + stddev*r.NormFloat64()
}

// ExpFloat64 returns an exponential variate with rate 1.
func (r *Rand) ExpFloat64() float64 {
	for {
		u := r.Float64()
		if u > 0 {
			return -math.Log(u)
		}
	}
}

// Exp returns an exponential variate with the given mean (= 1/rate).
func (r *Rand) Exp(mean float64) float64 { return mean * r.ExpFloat64() }

// Pareto returns a Pareto variate with minimum xm and shape alpha. Heavy
// tails (alpha near 1) model occasional very large stream records.
func (r *Rand) Pareto(xm, alpha float64) float64 {
	for {
		u := r.Float64()
		if u > 0 {
			return xm / math.Pow(u, 1/alpha)
		}
	}
}

// LogNormal returns exp(Normal(mu, sigma)).
func (r *Rand) LogNormal(mu, sigma float64) float64 {
	return math.Exp(r.Normal(mu, sigma))
}

// Zipf draws from a Zipf–Mandelbrot distribution over {0, ..., imax} with
// exponent q > 1 and offset v >= 1, by inversion of the continuous
// h(x) = (v+x)^(1−q)/(1−q) — the construction of Hörmann and Derflinger's
// rejection-inversion method, as in math/rand's Zipf. Construct once with
// NewZipf.
//
// The sampler's acceptance constant is s = 2 − hinv(h(1.5) − (v+1)^−q),
// where math/rand uses 1 − hinv(…). This s lies in (1, 1.5] for every
// valid q and v, while a candidate k = floor(x+0.5) always has k − x <= 0.5,
// so no candidate is ever rejected: a draw is the pure inversion
// u → floor(hinv(hxm + u/2⁵³·(h(0.5) − v^−q − hxm)) + 0.5) of one 53-bit
// uniform u, and key k >= 1 gets the mass h(k+0.5) − h(k−0.5) instead of
// (v+k)^−q. That is a known fidelity difference from the textbook method,
// kept because every golden depends on it.
//
// The inversion is a non-increasing step function of u, so for domains
// under zipfTableMax keys NewZipf tabulates where it steps and a draw
// becomes a table lookup. A draw whose u lies within zipfMargin of a
// tabulated step is re-evaluated by the exact formula, which makes the
// table path bit-identical to the formula for every u.
type Zipf struct {
	r                *Rand
	imax             float64
	v, q             float64
	oneMinusQ        float64
	oneMinusQInv     float64
	hxm, hx0MinusHxm float64
	// bnd[k+1] estimates the u at which the inversion steps from key k+1
	// (smaller u) to key k, so key k covers bnd[k+1] < u <= bnd[k]; bnd[0]
	// is a sentinel above every u. nil when the formula handles all draws.
	bnd []uint64
	// guide[g] is the key at the lowest u of bucket g = u>>shift, so a u in
	// bucket g has a key in [guide[g+1], guide[g]]; guide[len-1] = 0.
	guide []uint16
	shift uint
}

const (
	// zipfTableMax bounds the domain, in keys, that gets a step table;
	// larger domains evaluate the formula on every draw.
	zipfTableMax = 1 << 16
	// zipfMargin is how close, in units of u, a draw may come to a
	// tabulated step before it is re-evaluated by the exact formula. NewZipf
	// builds a table only when stepError is at most zipfMargin/1024, so
	// the margin absorbs any step estimate's error with room to spare. It
	// sends at most 2·zipfMargin/2⁵³ of the draws per key to the formula.
	zipfMargin = 1 << 26
)

// NewZipf returns a Zipf generator over {0, ..., imax} with exponent q > 1
// and offset v >= 1.
func NewZipf(r *Rand, q, v float64, imax uint64) *Zipf {
	if r == nil || q <= 1 || v < 1 {
		panic("rng: NewZipf requires r != nil, q > 1, v >= 1")
	}
	z := &Zipf{r: r, imax: float64(imax), v: v, q: q}
	z.oneMinusQ = 1 - q
	z.oneMinusQInv = 1 / z.oneMinusQ
	z.hxm = z.h(z.imax + 0.5)
	z.hx0MinusHxm = z.h(0.5) - math.Exp(math.Log(v)*(-q)) - z.hxm
	if imax+1 < zipfTableMax && z.stepError() <= zipfMargin/1024 {
		z.buildTable(int(imax))
	}
	return z
}

// stepError bounds, in units of u, how far a tabulated step can sit
// from the step the exact formula takes. Both sides round values of h near
// the step, whose size is at most |h(0.5)|; one ulp of h there moves the
// step by |h(0.5)|/|d| units of u, d being the span of h the draw covers.
// The factor covers rounding in the formula's own hinv (exponent arguments
// up to (q−1)·log(v+imax+0.5)) and in the estimate. It is large, and the
// table is skipped, only for q very close to 1 over a short domain.
func (z *Zipf) stepError() float64 {
	perUlp := math.Abs(z.h(0.5) / z.hx0MinusHxm)
	return perUlp*(4+8*(z.q-1)*math.Log(z.v+z.imax+0.5)) + 4
}

// buildTable fills bnd and guide. Each step estimate takes one evaluation of
// h: the inversion crosses k+0.5 where hxm + u/2⁵³·d = h(k+0.5).
func (z *Zipf) buildTable(imax int) {
	z.bnd = make([]uint64, imax+2)
	z.bnd[0] = math.MaxUint64
	scale := (1 << 53) / z.hx0MinusHxm
	prev := float64(1 << 53)
	for k := 0; k <= imax; k++ {
		b := (z.h(float64(k)+0.5) - z.hxm) * scale
		if !(b > 0) {
			b = 0
		}
		// Rounding must not make the estimates non-monotone; a clamped
		// estimate stays within the error bound of its step.
		b = math.Min(b, prev)
		prev = b
		z.bnd[k+1] = uint64(b)
	}
	// One guide bucket per key at most, rounded down to a power of two, so
	// a bucket holds about one step on average.
	lg := bits.Len(uint(imax+1)) - 1
	z.shift = uint(53 - lg)
	z.guide = make([]uint16, 1<<lg+1)
	k := imax
	for g := range z.guide[:1<<lg] {
		u0 := uint64(g) << z.shift
		for u0 > z.bnd[k] {
			k--
		}
		z.guide[g] = uint16(k)
	}
}

func (z *Zipf) h(x float64) float64 {
	return math.Exp(z.oneMinusQ*math.Log(z.v+x)) * z.oneMinusQInv
}

func (z *Zipf) hinv(x float64) float64 {
	return math.Exp(z.oneMinusQInv*math.Log(z.oneMinusQ*x)) - z.v
}

// Uint64 returns a Zipf-distributed value in {0, ..., imax}. A u that the
// inversion maps past imax (at u = 0, hinv(hxm) = imax+0.5 rounds up) is
// outside the support and is drawn again.
func (z *Zipf) Uint64() uint64 {
	for {
		u := z.r.Uint64() >> 11
		if k, ok := z.lookup(u); ok {
			return k
		}
		if k := z.inverse(u); k >= 0 && k <= z.imax {
			return uint64(k)
		}
	}
}

// lookup returns the key for u from the step table; ok is false when there
// is no table or u lies within zipfMargin of a step.
func (z *Zipf) lookup(u uint64) (k uint64, ok bool) {
	if z.bnd == nil {
		return 0, false
	}
	// The key is the least k with u > bnd[k+1]; bisect the bucket's range.
	g := u >> z.shift
	lo, hi := uint64(z.guide[g+1]), uint64(z.guide[g])
	for lo < hi {
		if mid := (lo + hi) / 2; u > z.bnd[mid+1] {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo, u-z.bnd[lo+1] >= zipfMargin && z.bnd[lo]-u >= zipfMargin
}

// inverse is the exact formula: the key, as a float, that the inversion
// maps the 53-bit uniform u to.
func (z *Zipf) inverse(u uint64) float64 {
	r := float64(u) / (1 << 53)
	return math.Floor(z.hinv(z.hxm+r*z.hx0MinusHxm) + 0.5)
}

// OU is an Ornstein–Uhlenbeck mean-reverting process, the variability model
// for simulated WAN link capacity: multi-tenant interference pushes the
// capacity away from its long-run mean, and reversion pulls it back, so
// samples show high variance with no trend — the regime that motivates
// robust sample integration in the monitor.
type OU struct {
	r *Rand
	// Mean is the long-run level the process reverts to.
	Mean float64
	// Theta is the reversion rate per second (higher = faster reversion).
	Theta float64
	// Sigma is the diffusion coefficient per sqrt(second).
	Sigma float64
	// X is the current value.
	X float64
}

// NewOU returns a process started at its mean.
func NewOU(r *Rand, mean, theta, sigma float64) *OU {
	return &OU{r: r, Mean: mean, Theta: theta, Sigma: sigma, X: mean}
}

// Step advances the process by dt seconds using the exact discretization of
// the OU SDE and returns the new value.
func (o *OU) Step(dt float64) float64 {
	if dt <= 0 {
		return o.X
	}
	decay := math.Exp(-o.Theta * dt)
	variance := o.Sigma * o.Sigma / (2 * o.Theta) * (1 - decay*decay)
	o.X = o.Mean + (o.X-o.Mean)*decay + math.Sqrt(variance)*o.r.NormFloat64()
	return o.X
}
