//! Instrumentation counters shared by every evaluation strategy.
//!
//! The paper's complexity table compares strategies under a unit-cost model:
//! "we assume that any tuple in a base relation can be retrieved in constant
//! time".  These counters measure exactly the quantities that model charges
//! for, so the benchmark harness can reproduce the table as operation counts
//! rather than unportable wall-clock numbers.

use std::fmt;
use std::ops::AddAssign;

/// Operation counts accumulated during one query evaluation.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Counters {
    /// Tuples fetched from base relations (the `t` of Theorems 3–4).
    pub tuples_retrieved: u64,
    /// Nodes inserted into the traversal graph `G` (or, for bottom-up
    /// strategies, facts inserted into derived relations).
    pub nodes_inserted: u64,
    /// Arcs followed / rule instantiations fired.
    pub rule_firings: u64,
    /// Iterations of the strategy's main loop (the `h` of Theorem 4).
    pub iterations: u64,
    /// Index probes made against the extensional database.
    pub index_probes: u64,
    /// Of the index probes, those served by a publish-time compact
    /// store (CSR slice, or a scan of a shard of at most 64 tuples) —
    /// no trie walk.
    pub csr_probes: u64,
    /// Of the index probes, those that read a column index (or built
    /// one on the spot).
    pub trie_probes: u64,
}

impl Counters {
    /// Fresh, zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total work under the unit-cost model: every counted operation is one
    /// unit.  This is the scalar the complexity table speaks about.
    pub fn total_work(&self) -> u64 {
        self.tuples_retrieved + self.nodes_inserted + self.rule_firings + self.index_probes
    }

    /// Reset all counts to zero.
    pub fn reset(&mut self) {
        *self = Self::default();
    }
}

impl AddAssign for Counters {
    fn add_assign(&mut self, rhs: Self) {
        self.tuples_retrieved += rhs.tuples_retrieved;
        self.nodes_inserted += rhs.nodes_inserted;
        self.rule_firings += rhs.rule_firings;
        self.iterations += rhs.iterations;
        self.index_probes += rhs.index_probes;
        self.csr_probes += rhs.csr_probes;
        self.trie_probes += rhs.trie_probes;
    }
}

impl fmt::Display for Counters {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "tuples={} nodes={} firings={} iters={} probes={} csr={} trie={} (work={})",
            self.tuples_retrieved,
            self.nodes_inserted,
            self.rule_firings,
            self.iterations,
            self.index_probes,
            self.csr_probes,
            self.trie_probes,
            self.total_work()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn total_work_excludes_iterations() {
        let c = Counters {
            tuples_retrieved: 10,
            nodes_inserted: 5,
            rule_firings: 3,
            iterations: 100,
            index_probes: 2,
            ..Counters::default()
        };
        assert_eq!(c.total_work(), 20);
    }

    #[test]
    fn total_work_excludes_the_probe_split() {
        // `csr_probes`/`trie_probes` classify `index_probes`; counting
        // them again would double-charge the unit-cost model.
        let c = Counters {
            index_probes: 5,
            csr_probes: 3,
            trie_probes: 2,
            ..Counters::default()
        };
        assert_eq!(c.total_work(), 5);
    }

    #[test]
    fn add_assign_sums_fieldwise() {
        let mut a = Counters {
            tuples_retrieved: 1,
            nodes_inserted: 2,
            rule_firings: 3,
            iterations: 4,
            index_probes: 5,
            csr_probes: 4,
            trie_probes: 1,
        };
        a += a;
        assert_eq!(a.tuples_retrieved, 2);
        assert_eq!(a.iterations, 8);
        assert_eq!(a.csr_probes, 8);
        assert_eq!(a.trie_probes, 2);
    }

    #[test]
    fn display_is_stable() {
        let c = Counters::new();
        assert_eq!(
            c.to_string(),
            "tuples=0 nodes=0 firings=0 iters=0 probes=0 csr=0 trie=0 (work=0)"
        );
    }
}
