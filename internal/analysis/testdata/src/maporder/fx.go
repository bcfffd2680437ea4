// Package fx is a maporder fixture (analyzed as ec2wfsim/internal/report/fx).
package fx

import (
	"fmt"
	"sort"
	"strings"

	"ec2wfsim/internal/sim"
)

func keysUnsorted(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k) // want `append to out inside range over map`
	}
	return out
}

// The sanctioned idiom: collect, then sort before use.
func keysSorted(m map[string]int) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// The sort may follow an enclosing outer loop (the AxisFields shape).
func keysOfAll(groups []map[string]int) []string {
	var out []string
	for _, g := range groups {
		for k := range g {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}

// Nested map ranges visit the inner append once per enclosing range;
// the finding is still reported once.
func keysOfNested(m map[string]map[string]int) []string {
	var out []string
	for _, inner := range m {
		for k := range inner {
			out = append(out, k) // want `append to out inside range over map`
		}
	}
	return out
}

func fieldAppend(m map[string]int) []string {
	type acc struct{ names []string }
	var a acc
	for k := range m {
		a.names = append(a.names, k) // want `append to a inside range over map`
	}
	return a.names
}

func emit(m map[string]int) {
	for k, v := range m {
		fmt.Println(k, v) // want `fmt\.Println inside range over map`
	}
}

func build(m map[string]int) string {
	var b strings.Builder
	for k := range m {
		b.WriteString(k) // want `b\.WriteString inside range over map`
	}
	return b.String()
}

func totals(m map[string]float64) (int, int) {
	n := 0
	sum := 0
	for _, v := range m {
		n++               // counting is a function of len(m) only: fine
		sum += int(v) + 1 // want `integer total sum accumulated from map elements`
	}
	return n, sum
}

func concat(m map[string]int) string {
	s := ""
	for k := range m {
		s += k // want `string concatenation into s`
	}
	return s
}

// Map-to-map rewrites commute; nothing observes the iteration order.
func remap(src map[string]int) map[string]int {
	dst := make(map[string]int, len(src))
	for k, v := range src {
		dst[k] = v
	}
	return dst
}

func schedule(e *sim.Engine, wake map[string]float64) {
	for _, at := range wake {
		e.At(at, func() {}) // want `sim\.At called inside range over map`
	}
}

func suppressedEmit(m map[string]int) {
	for k := range m {
		//wfvet:ignore maporder debug dump on a best-effort path; ordering is cosmetic
		fmt.Println(k)
	}
}
