package sim

// Rand is a splitmix64 pseudo-random stream. Its entire state is one
// uint64, so a stream is trivially replayable: the same seed yields
// the same sequence on every run, on every platform. The fault layer
// owns one stream per fault plan, which is what makes injected fault
// schedules part of the deterministic event schedule. math/rand would
// not do: its convenience functions share process-global state across
// everything in the address space (and are banned by m3vet's
// nodeterminism rule for exactly that reason).
type Rand struct {
	state uint64
}

// NewRand returns a stream seeded with seed. Distinct seeds give
// independent-looking streams; the same seed replays the same stream.
func NewRand(seed uint64) *Rand { return &Rand{state: seed} }

// Uint64 returns the next 64 pseudo-random bits (splitmix64, the
// mixing function from Steele et al., "Fast Splittable Pseudorandom
// Number Generators").
func (r *Rand) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	return mix64(r.state)
}

// mix64 is splitmix64's output finalizer.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Hash folds the given words into one 64-bit value with the same
// splitmix64 finalizer Uint64 uses. It is the stateless companion to a
// Rand stream: where a stream's next value depends on how many draws
// came before it (shared mutable position), a hash of an event's own
// identity — seed, link, sequence number, cycle — yields the same
// value no matter who else drew in between.
func Hash(words ...uint64) uint64 {
	h := uint64(0x9e3779b97f4a7c15)
	for _, w := range words {
		h = mix64(h ^ w)
	}
	return h
}

// Unit maps 64 random bits onto a uniform float64 in [0, 1).
func Unit(bits uint64) float64 { return float64(bits>>11) / (1 << 53) }

// Float64 returns a uniform float64 in [0, 1).
func (r *Rand) Float64() float64 { return Unit(r.Uint64()) }

// Intn returns a uniform int in [0, n). n must be positive. The tiny
// modulo bias is irrelevant for fault schedules.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn on non-positive bound")
	}
	return int(r.Uint64() % uint64(n))
}
