//! Statistics for the opacity/SGLA backtracking searches.
//!
//! Each worker of a search bumps its own plain-`u64` copy inline — no
//! atomics on the hot path; the checker's worker pool merges the
//! per-worker copies with [`SearchStats::absorb`] at the end. Every
//! check (`jungle_core::check::Check::run`) fills wall time: two clock
//! reads per check.

use crate::json::{Json, ToJson};

/// Counters describing one checker search (or a sum of several — see
/// [`SearchStats::absorb`]).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SearchStats {
    /// Schedulable units (transactions + non-transactional ops) in the
    /// transformed history.
    pub units: u64,
    /// Complete transaction serialization orders enumerated.
    pub txn_orders: u64,
    /// DFS nodes expanded (unit placements attempted).
    pub nodes: u64,
    /// Placements undone after exhausting their subtree.
    pub backtracks: u64,
    /// Placements rejected by the incremental prefix checker.
    pub prune_hits: u64,
    /// Deepest prefix length reached by any DFS branch.
    pub peak_depth: u64,
    /// Wall-clock nanoseconds of the whole check.
    pub wall_ns: u64,
    /// Searches folded into this value (1 for a single run).
    pub searches: u64,
    /// Witness sub-searches answered from the per-worker memo of
    /// already-solved edge sets instead of a fresh DFS.
    pub cache_hits: u64,
    /// Worker threads used (0 for the serial search paths).
    pub workers: u64,
    /// Serialization-order prefixes pulled from the shared work queue
    /// by the parallel search's workers (0 for serial runs).
    pub stolen_prefixes: u64,
}

impl SearchStats {
    /// Stats for one search over `units` schedulable units.
    pub fn for_units(units: usize) -> Self {
        SearchStats {
            units: units as u64,
            searches: 1,
            ..Self::default()
        }
    }

    /// Fold another search's stats into this one. Counters add;
    /// `peak_depth` takes the max.
    pub fn absorb(&mut self, other: &SearchStats) {
        self.units += other.units;
        self.txn_orders += other.txn_orders;
        self.nodes += other.nodes;
        self.backtracks += other.backtracks;
        self.prune_hits += other.prune_hits;
        self.peak_depth = self.peak_depth.max(other.peak_depth);
        self.wall_ns += other.wall_ns;
        self.searches += other.searches;
        self.cache_hits += other.cache_hits;
        self.workers = self.workers.max(other.workers);
        self.stolen_prefixes += other.stolen_prefixes;
    }

    /// Record that the DFS reached prefix length `depth`.
    #[inline]
    pub fn note_depth(&mut self, depth: usize) {
        self.peak_depth = self.peak_depth.max(depth as u64);
    }
}

impl ToJson for SearchStats {
    fn to_json(&self) -> Json {
        let mut j = Json::obj();
        j.push("units", self.units.into())
            .push("txn_orders", self.txn_orders.into())
            .push("nodes", self.nodes.into())
            .push("backtracks", self.backtracks.into())
            .push("prune_hits", self.prune_hits.into())
            .push("peak_depth", self.peak_depth.into())
            .push("wall_ns", self.wall_ns.into())
            .push("searches", self.searches.into())
            .push("cache_hits", self.cache_hits.into())
            .push("workers", self.workers.into())
            .push("stolen_prefixes", self.stolen_prefixes.into());
        j
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::ToJson;

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
    fn json_has_all_fields() {
        let j = SearchStats::for_units(4).to_json();
        for key in [
            "units",
            "txn_orders",
            "nodes",
            "backtracks",
            "prune_hits",
            "peak_depth",
            "wall_ns",
            "searches",
            "cache_hits",
            "workers",
            "stolen_prefixes",
        ] {
            assert!(j.get(key).is_some(), "missing {key}");
        }
        assert_eq!(j.get("units"), Some(&Json::U64(4)));
    }
}
