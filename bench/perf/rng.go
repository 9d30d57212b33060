package main

// rng is the benchmark's own splitmix64 stream. Inputs are generated here and
// nowhere else, so a workload is a pure function of (-seed, op count) and a
// later change to the repository's fault or arrival generators cannot move it.
type rng struct{ s uint64 }

// newRNG derives an independent stream from the run seed and a stream tag.
func newRNG(seed, stream uint64) *rng {
	r := &rng{s: seed*0x9E3779B97F4A7C15 + stream}
	r.next()
	return r
}

func (r *rng) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// intn returns a value in [0, n).
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// shuffle permutes n elements (Fisher-Yates).
func (r *rng) shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		swap(i, r.intn(i+1))
	}
}

// hash64 folds v into the running fingerprint h (FNV-1a over the 8 bytes).
func hash64(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= 0x100000001b3
		v >>= 8
	}
	return h
}

const hashSeed = 0xcbf29ce484222325
