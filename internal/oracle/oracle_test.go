package oracle

import (
	"testing"

	"mcretiming/internal/graph"
)

// SolveDifference on hand-made systems: a feasible one, the same system
// closed into a negative cycle, and parallel constraints that improve one
// variable once each within a single FIFO pass.
func TestSolveDifference(t *testing.T) {
	parallel := []graph.Constraint{{Y: 0, X: 1, B: -1}, {Y: 0, X: 1, B: -2}, {Y: 0, X: 1, B: -3}, {Y: 0, X: 1, B: -4}}
	for _, tc := range []struct {
		name string
		cons []graph.Constraint
		ok   bool
	}{
		{"feasible", []graph.Constraint{{Y: 1, X: 0, B: -1}, {Y: 0, X: 1, B: 5}}, true},
		{"negative cycle", []graph.Constraint{{Y: 1, X: 0, B: -1}, {Y: 0, X: 1, B: 5}, {Y: 0, X: 1, B: 0}}, false},
		{"parallel", parallel, true},
		{"parallel cycle", append(parallel[:len(parallel):len(parallel)], graph.Constraint{Y: 1, X: 0, B: 3}), false},
	} {
		r, ok := SolveDifference(2, tc.cons)
		if ok != tc.ok {
			t.Fatalf("%s: feasible = %v, want %v", tc.name, ok, tc.ok)
		}
		for _, c := range tc.cons {
			if ok && r[c.X]-r[c.Y] > c.B {
				t.Fatalf("%s: solution %v violates r(%d) - r(%d) <= %d", tc.name, r, c.X, c.Y, c.B)
			}
		}
	}
}
