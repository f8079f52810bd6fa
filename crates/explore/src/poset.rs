//! The configuration poset (§5, Figure 5/8).

/// A labeled node of the configuration poset.
#[derive(Debug, Clone)]
pub struct ConfigNode {
    /// Index into the originating configuration space.
    pub index: usize,
    /// Display label.
    pub label: String,
    /// Measured performance (the user-chosen metric; higher is better —
    /// requests/s in the Figure 8 instantiation).
    pub performance: f64,
}

/// A partially ordered set of configurations.
///
/// `leq(a, b)` means *a is probabilistically at most as safe as b* —
/// node `b` dominates node `a` in every §5 safety dimension.
#[derive(Debug)]
pub struct Poset {
    nodes: Vec<ConfigNode>,
    /// `leq[a][b]` = a ≤ b.
    leq: Vec<Vec<bool>>,
}

impl Poset {
    /// Builds a poset over arbitrary labeled nodes from a safety order
    /// predicate: `leq(a, b)` must hold exactly when node `a` is
    /// probabilistically at most as safe as node `b` under the §5
    /// assumptions. The predicate is evaluated over every ordered pair
    /// and materialized into the dense relation matrix; callers are
    /// responsible for it actually being a partial order
    /// ([`Poset::check_axioms`] verifies).
    ///
    /// This is the generalized entry point the sweep engine uses to
    /// order spaces that vary isolation mechanism and workload axes
    /// beyond the fixed Figure 6 shape.
    pub fn new(nodes: Vec<ConfigNode>, leq_fn: impl Fn(usize, usize) -> bool) -> Poset {
        let n = nodes.len();
        let mut leq = vec![vec![false; n]; n];
        for (a, row) in leq.iter_mut().enumerate() {
            for (b, slot) in row.iter_mut().enumerate() {
                *slot = leq_fn(a, b);
            }
        }
        Poset { nodes, leq }
    }

    /// Number of configurations.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `true` when the poset is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Node accessor.
    pub fn node(&self, i: usize) -> &ConfigNode {
        &self.nodes[i]
    }

    /// The safety order: `a ≤ b`.
    pub fn leq(&self, a: usize, b: usize) -> bool {
        self.leq[a][b]
    }

    /// Strict order: `a < b`.
    pub fn lt(&self, a: usize, b: usize) -> bool {
        a != b && self.leq[a][b]
    }

    /// Maximal elements of the sub-poset induced by `keep` (no kept node
    /// strictly dominates them) — the Figure 8 stars when `keep` is the
    /// budget-satisfying set.
    pub fn maximal_among(&self, keep: &[usize]) -> Vec<usize> {
        keep.iter()
            .copied()
            .filter(|&a| !keep.iter().any(|&b| self.lt(a, b)))
            .collect()
    }

    /// Checks the partial-order axioms (used by property tests).
    ///
    /// # Errors
    ///
    /// Returns a description of the violated axiom.
    pub fn check_axioms(&self) -> Result<(), String> {
        let n = self.nodes.len();
        for a in 0..n {
            if !self.leq[a][a] {
                return Err(format!("not reflexive at {a}"));
            }
        }
        for a in 0..n {
            for b in 0..n {
                if a != b && self.leq[a][b] && self.leq[b][a] {
                    return Err(format!("not antisymmetric: {a} <=> {b}"));
                }
                for c in 0..n {
                    if self.leq[a][b] && self.leq[b][c] && !self.leq[a][c] {
                        return Err(format!("not transitive: {a} <= {b} <= {c}"));
                    }
                }
            }
        }
        Ok(())
    }

    /// Directed edges of the DAG view (cover relation: a < b with nothing
    /// in between), pointing from safer to less safe as in Figure 5.
    pub fn cover_edges(&self) -> Vec<(usize, usize)> {
        let n = self.nodes.len();
        let mut edges = Vec::new();
        for a in 0..n {
            for b in 0..n {
                if !self.lt(a, b) {
                    continue;
                }
                let covered = (0..n).any(|c| self.lt(a, c) && self.lt(c, b));
                if !covered {
                    edges.push((a, b));
                }
            }
        }
        edges
    }
}

/// Test fixture: the Figure 6 shape as `(strategy, hardening mask)`
/// pairs in the historical order (strategy-major, 16 masks each), and
/// the poset they induce under the two §5 dimensions that vary there —
/// partition refinement and per-component hardening inclusion.
#[cfg(test)]
pub(crate) mod fixture {
    use super::{ConfigNode, Poset};
    use crate::space::Strategy;

    /// The 80 `(strategy, mask)` points.
    pub(crate) fn fig6_points() -> Vec<(Strategy, u8)> {
        Strategy::ALL
            .iter()
            .flat_map(|&s| (0u8..16).map(move |m| (s, m)))
            .collect()
    }

    /// The poset over `points` labeled with `performance[i]`.
    pub(crate) fn fig6_poset(points: &[(Strategy, u8)], performance: &[f64]) -> Poset {
        assert_eq!(points.len(), performance.len(), "one metric per point");
        let nodes = performance
            .iter()
            .enumerate()
            .map(|(index, &performance)| ConfigNode {
                index,
                label: index.to_string(),
                performance,
            })
            .collect();
        Poset::new(nodes, |a, b| {
            let ((sa, ma), (sb, mb)) = (points[a], points[b]);
            sa.refined_by(&sb) && ma & mb == ma
        })
    }
}

#[cfg(test)]
mod tests {
    use super::fixture::{fig6_points, fig6_poset};
    use super::*;

    fn poset() -> Poset {
        let points = fig6_points();
        // Deterministic fake performance for structure tests.
        let perf: Vec<f64> = (0..points.len()).map(|i| 1000.0 - i as f64).collect();
        fig6_poset(&points, &perf)
    }

    #[test]
    fn axioms_hold_over_the_full_space() {
        poset().check_axioms().unwrap();
    }

    #[test]
    fn no_isolation_no_hardening_is_a_minimum() {
        let p = poset();
        // Point 0 = Together + mask 0: everything else dominates or is
        // incomparable, nothing is strictly below it.
        for b in 0..p.len() {
            assert!(!p.lt(b, 0), "{b} must not be strictly below the bottom");
        }
        // And it is below the fully-hardened three-way split (last point).
        assert!(p.lt(0, p.len() - 1));
    }

    #[test]
    fn hardening_is_monotone_within_a_strategy() {
        let p = poset();
        // Within Together (indices 0..16): mask m1 subset m2 => leq.
        assert!(p.lt(0, 1)); // {} < {app}
        assert!(p.lt(1, 3)); // {app} < {app, newlib}
        assert!(!p.leq(1, 2)); // {app} vs {newlib}: incomparable
    }

    #[test]
    fn maximal_elements_of_full_space_is_full_hardened_threeway() {
        let p = poset();
        let all: Vec<usize> = (0..p.len()).collect();
        let max = p.maximal_among(&all);
        // The fully hardened three-way split dominates everything else.
        assert_eq!(max, vec![p.len() - 1]);
    }

    #[test]
    fn cover_edges_are_sparse_and_acyclic() {
        let p = poset();
        let edges = p.cover_edges();
        assert!(!edges.is_empty());
        // Cover edges never skip levels: a < c < b excluded by def.
        for &(a, b) in &edges {
            assert!(p.lt(a, b));
        }
    }
}
