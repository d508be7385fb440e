// Package retime implements basic minimum-area retiming in the style the
// paper builds on (Leiserson–Saxe §8 register sharing, solved through the
// min-cost-flow dual as in Shenoy–Rudell), extended with the per-vertex
// retiming bounds that multiple-class retiming imposes (paper §5.1).
//
// The ILP solved for a target period φ is exactly the paper's:
//
//	min  Σ c(v)·r(v)
//	s.t. r(u) − r(v)   ≤ w(e)        ∀ e_uv               (circuit)
//	     r(v_h) − r(v) ≤ −r_min(v)   ∀ v                  (class)
//	     r(v) − r(v_h) ≤ r_max(v)    ∀ v                  (class)
//	     r(u) − r(v)   ≤ W(u,v) − 1  ∀ D(u,v) > φ         (period)
//
// with the sharing cost model: every multi-fanout vertex u gets a mirror
// variable m_u with constraints r(v_i) − r(m_u) ≤ w_max(u) − w(e_i), so the
// registers on u's fanout edges are billed max_i w_r(e_i) = r(m_u) − r(u) +
// w_max(u). The constraint matrix stays a difference system, hence totally
// unimodular: the LP optimum is integral and is found as the shortest-path
// potentials of the optimal residual network of the dual flow.
//
// MinAreaLazy generates the period constraints lazily, as cuts; the dense
// program that writes all of them out is the test-only oracle.MinAreaDense.
//
// The retiming returned is the canonical one: the largest element of the
// optimal face of the full program, read as the shortest-path potentials of
// the optimal residual network once they meet every period constraint. It
// does not depend on which cuts were held or which optimal flow was found,
// so a solve may take any route there. Intermediate cutting-plane rounds read
// r from the flow's maintained potentials, which are optimal for the cuts
// held but not canonical, and a Session carries the flow from one solve to
// the next (the §5.2 retry): it drops the cuts that no longer apply,
// re-routes their flow, and adds tightened bounds and new cuts.
package retime
