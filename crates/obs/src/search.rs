//! Statistics for the opacity/SGLA backtracking searches.
//!
//! Each worker of a search bumps its own plain-`u64` copy inline — no
//! atomics on the hot path; a split search merges the per-worker
//! copies with [`SearchStats::absorb`] at the end. Every
//! field counts work; none is a time.

use crate::counters::counters;

counters! {
    /// Counters describing one checker search (or a sum of several — see
    /// [`SearchStats::absorb`]).
    #[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
    pub struct SearchStats {
        /// Schedulable units (transactions + non-transactional ops) in the
        /// transformed history.
        sum units: u64,
        /// Complete transaction serialization orders handed to the leaf
        /// (at most two per search: the first admissible order, and the
        /// one the prefix oracle walked down to; the oracle's own calls
        /// show up as `nodes`). A search saturation refuted hands none.
        sum txn_orders: u64,
        /// Order edges saturation derived from the values reads return
        /// and added to the search's fixed edges.
        sum derived_edges: u64,
        /// Checks saturation refuted with no search node: a cycle in the
        /// saturated order, or a read no visible write justifies.
        sum cycle_refutes: u64,
        /// DFS nodes expanded (unit placements attempted), in leaf and
        /// prefix-oracle calls alike.
        sum nodes: u64,
        /// Placements undone after exhausting their subtree.
        sum backtracks: u64,
        /// Placements rejected by the incremental prefix checker.
        sum prune_hits: u64,
        /// Deepest prefix length reached by any DFS branch.
        max peak_depth: u64,
        /// Searches folded into this value (1 for a single run).
        sum searches: u64,
        /// Frontiers of a witness search found among its dead ends
        /// instead of being explored again (the only memo of the inner
        /// search).
        sum cache_hits: u64,
    }
}

impl SearchStats {
    /// Record that the DFS reached prefix length `depth`.
    #[inline]
    pub fn note_depth(&mut self, depth: usize) {
        self.peak_depth = self.peak_depth.max(depth as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absorb_adds_and_maxes() {
        let mut a = SearchStats {
            nodes: 3,
            peak_depth: 2,
            searches: 1,
            ..Default::default()
        };
        let b = SearchStats {
            nodes: 5,
            peak_depth: 7,
            searches: 1,
            ..Default::default()
        };
        a.absorb(&b);
        assert_eq!(a.nodes, 8);
        assert_eq!(a.peak_depth, 7);
        assert_eq!(a.searches, 2);
    }

    #[test]
    fn table_drives_absorb_and_json() {
        SearchStats::check_table();
    }
}
