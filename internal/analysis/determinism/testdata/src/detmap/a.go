// Fixture for the determinism analyzer: order-sensitive map iteration and
// math/rand must be flagged; the collect-then-sort idiom and commutative
// accumulation must not.
package detmap

import (
	"fmt"
	"math/rand" // want `math/rand in a deterministic-output path`
	"sort"
)

// --- accepted idioms ---

func collectThenSort(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func collectValues(m map[string]*int) []*int {
	var out []*int
	for _, v := range m {
		out = append(out, v)
	}
	return out
}

func commutativeSum(m map[string]int64) int64 {
	var sum int64
	for _, v := range m {
		sum += v
	}
	return sum
}

func guardedSum(m map[string]int64) (n int, sum int64) {
	for k, v := range m {
		if len(k) > 3 {
			sum += v
			n++
		}
	}
	return n, sum
}

func sliceIteration(s []string) {
	for _, v := range s { // slices iterate in order: ignored
		fmt.Println(v)
	}
}

// --- violations ---

func printDirectly(m map[string]int) {
	for k, v := range m { // want `iteration over map map\[string\]int has nondeterministic order`
		fmt.Println(k, v)
	}
}

func floatSum(m map[string]float64) float64 {
	var sum float64
	for _, v := range m { // want `iteration over map map\[string\]float64 has nondeterministic order`
		sum += v // float addition rounds differently per order
	}
	return sum
}

func firstMatch(m map[string]int) (string, bool) {
	for k := range m { // want `iteration over map map\[string\]int has nondeterministic order`
		if len(k) > 0 {
			return k, true
		}
	}
	return "", false
}

func useRand() int { return rand.Int() }

// --- suppression ---

func suppressed(m map[string]int) int {
	n := 0
	//lint:allow determinism result is the map size, order-free by construction
	for k := range m {
		if m[k] > 0 {
			n = n + 1 // spelled to defeat the += heuristic on purpose
		}
	}
	return n
}
