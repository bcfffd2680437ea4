// Package fx is the norawrand call-chain clean fixture (analyzed as
// ec2wfsim/internal/disk/fx): call chains with no wall-clock or env
// reads anywhere.
package fx

func cost(n int) int { return n * 3 }

func total(ns []int) int {
	t := 0
	for _, n := range ns {
		t += cost(n)
	}
	return t
}

func doubleTotal(ns []int) int {
	return 2 * total(ns)
}
