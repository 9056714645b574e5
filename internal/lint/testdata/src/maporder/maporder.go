// Package maporder is a lint fixture: order-sensitive work inside
// range-over-map loops, plus every recognized safe idiom.
package maporder

import (
	"fmt"
	"sort"

	"repro/internal/rng"
)

// BadAppend accumulates map keys and never sorts them.
func BadAppend(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k) // want "append to \"keys\" inside range over map without a later sort"
	}
	return keys
}

// BadPrint writes output in iteration order.
func BadPrint(m map[string]int) {
	for k, v := range m {
		fmt.Printf("%s=%d\n", k, v) // want "fmt.Printf inside range over map"
	}
}

// BadRNG consumes the deterministic stream in map order.
func BadRNG(m map[string]int, src *rng.Source) float64 {
	total := 0.0
	for range m {
		total += src.Float64() // want "RNG draw inside range over map"
	}
	return total
}

// BadSend feeds a channel in iteration order.
func BadSend(m map[string]int, ch chan string) {
	for k := range m {
		ch <- k // want "channel send inside range over map"
	}
}

// BadWriter records rows in iteration order through a sink method.
type table struct{ rows [][]string }

func (t *table) AddRow(cells ...string) { t.rows = append(t.rows, cells) }

func BadTable(m map[string]int, t *table) {
	for k := range m {
		t.AddRow(k) // want "AddRow inside range over map"
	}
}

// GoodCollectSort is the blessed idiom: collect, then sort.
func GoodCollectSort(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// GoodSortSlice also counts: any stdlib sort establishes the order.
func GoodSortSlice(m map[string]float64) []float64 {
	vals := make([]float64, 0, len(m))
	for _, v := range m {
		vals = append(vals, v)
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	return vals
}

// BadFloatSum folds values into an outer float: the rounding of each
// partial sum follows the iteration order.
func BadFloatSum(m map[string]float64) float64 {
	sum := 0.0
	for _, v := range m { // want "folds into float64 \"sum\" with +="
		sum += v
	}
	return sum
}

// BadConcat builds a string in iteration order.
func BadConcat(m map[string]int) string {
	s := ""
	for k := range m { // want "folds into string \"s\" with +="
		s += k
	}
	return s
}

// BadArgmin keeps the first minimum it meets: on a tie the winner is
// whichever key the map yields first.
func BadArgmin(m map[string]float64) string {
	best, bestV := "", 0.0
	for k, v := range m { // want "assigns \"best\" from a loop variable"
		if best == "" || v < bestV {
			best, bestV = k, v
		}
	}
	return best
}

// BadFirstMatch returns the first key over a threshold, through a
// local derived from the value.
func BadFirstMatch(m map[string]int, limit int) string {
	var hit string
	for k, v := range m { // want "assigns \"hit\" from a loop variable"
		over := v > limit
		name := k
		if over {
			hit = name
			break
		}
	}
	return hit
}

// BadLookup keeps the last key a two-value lookup accepts.
func BadLookup(m map[string]int, accept func(string) (string, bool)) string {
	var name string
	var ok bool
	for k := range m { // want "assigns \"name\" from a loop variable"
		name, ok = accept(k)
		if ok {
			break
		}
	}
	return name
}

// GoodAggregate: order-independent reductions are never flagged; an
// integer sum is exact in any order.
func GoodAggregate(m map[string]int) int {
	sum := 0
	for _, v := range m {
		sum += v
	}
	return sum
}

// GoodFlag: a flag set to a constant ends the same in any order.
func GoodFlag(m map[string]int, limit int) bool {
	found := false
	for _, v := range m {
		if v > limit {
			found = true
		}
	}
	return found
}

// GoodMapToMap: writes keyed by the same keys commute.
func GoodMapToMap(m map[string]int) map[string]int {
	out := map[string]int{}
	for k, v := range m {
		out[k] = v * 2
	}
	return out
}

// GoodMapCopy: an index expression is not an outer variable.
func GoodMapCopy(m, m2 map[string]int) {
	for k, v := range m {
		m2[k] = v
	}
}
