//! Engine auto-selection: given a job's circuit, pick the engine (hierarchical
//! on one node, or distributed over ranks) and its structural parameters
//! (working-set limit, rank count) from the qubit count and two budgets,
//! stated in qubits: the last-level cache and one node's memory (by default
//! the paper machine's, 21 and 30). The HDR-100 network model only prices an
//! exchange for the decision's report.
//!
//! The decision mirrors the paper's own sizing argument:
//!
//! * a state vector that fits one node → `hier` at limit `n`: the plan is
//!   one part over the whole circuit, fused once, cached, and swept in place
//!   on the caller's thread. Past the last-level cache the Gather–Execute–
//!   Scatter hierarchy still applies, at tile granularity: every pass of
//!   several ops gathers each 2^16-amplitude tile it mixes into an L2-sized
//!   buffer (`FusedCircuit::passes`), so no part needs an inner vector of
//!   its own. A job that forces the engine gets the cache-derived limit, and
//!   one that forces a limit keeps it; either plan runs in place;
//! * anything larger is distributed → `dist`, whatever the width of a
//!   rank's slice: the same tile walk blocks a wide slice for the cache.
//!
//! So the runtime serves one plan shape, a single-level plan on a world of
//! one rank (`hier`) or of several (`dist`): [`EngineKind::is_served`]. The
//! IQS-style baseline and the two-level engine are the paper's comparators
//! (Figs. 5–10); they run through their `hisvsim-core` entry points, and
//! the runner refuses a job that forces either.

use hisvsim_circuit::Circuit;
use hisvsim_cluster::NetworkModel;
use serde::{Deserialize, Serialize};

/// Which engine executes a job. The runtime serves [`EngineKind::Hier`] and
/// [`EngineKind::Dist`] ([`EngineKind::is_served`]); the two comparator
/// variants stay because the benchmark adapter
/// (`crates/bench/src/bin/hisvsim-bench/`) names them when it sizes the
/// comparators' core runs, and can go with the next change that may edit it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum EngineKind {
    /// The IQS-style static-mapping engine: the paper's flat comparison
    /// target. Never selected, and refused by the runner when a job forces
    /// it; it runs through `hisvsim_core::IqsBaseline`.
    Baseline,
    /// The single-node hierarchical Gather–Execute–Scatter engine.
    Hier,
    /// The distributed engine over virtual MPI ranks.
    Dist,
    /// The two-level (node + cache) distributed engine of Fig. 10. Never
    /// selected, and refused by the runner when a job forces it; it runs
    /// through `hisvsim_core::MultilevelSimulator`.
    Multilevel,
}

impl EngineKind {
    /// All engines, for sweeps and reports.
    pub const ALL: [EngineKind; 4] = [
        EngineKind::Baseline,
        EngineKind::Hier,
        EngineKind::Dist,
        EngineKind::Multilevel,
    ];

    /// This engine's slot in [`EngineKind::ALL`] — the index used wherever
    /// per-engine accounting is kept (batch histograms, service metrics).
    /// Infallible by construction, unlike scanning `ALL` with `position`.
    pub const fn index(self) -> usize {
        match self {
            EngineKind::Baseline => 0,
            EngineKind::Hier => 1,
            EngineKind::Dist => 2,
            EngineKind::Multilevel => 3,
        }
    }

    /// Whether the runtime serves this engine: a single-level plan on a
    /// world of one rank or of several. The runner refuses a job that forces
    /// any other before it plans.
    pub const fn is_served(self) -> bool {
        matches!(self, EngineKind::Hier | EngineKind::Dist)
    }

    /// Stable lowercase name used in reports.
    pub fn name(&self) -> &'static str {
        match self {
            EngineKind::Baseline => "baseline",
            EngineKind::Hier => "hier",
            EngineKind::Dist => "dist",
            EngineKind::Multilevel => "multilevel",
        }
    }
}

impl std::fmt::Display for EngineKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The selector's verdict for one job.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EngineDecision {
    /// Chosen engine.
    pub engine: EngineKind,
    /// Working-set limit for partitioning (single-level engines) or the
    /// first-level limit (multi-level). Always ≥ the circuit's largest gate
    /// arity, so partitioning cannot fail on arity.
    pub limit: usize,
    /// Virtual rank count (1 for single-node engines); a power of two.
    pub ranks: usize,
    /// Second-level limit (only meaningful for [`EngineKind::Multilevel`],
    /// which the runner does not serve). It stays because the benchmark
    /// adapter reads it to size the two-level comparator's core run.
    pub second_limit: usize,
    /// Modelled seconds for one full-state redistribution at this size on
    /// [`NetworkModel::hdr100`]. It prices the verdict's report only: no
    /// choice reads it (the hier/dist choice reads the node budget).
    pub est_exchange_s: f64,
    /// Human-readable justification, surfaced by the batch report.
    pub reason: String,
}

/// Picks an engine per job from its qubit count and two budgets.
///
/// All thresholds are expressed in qubits (log2 of amplitude count); the
/// [`Default`] states the paper machine's, and tests and examples scale them
/// down with [`EngineSelector::scaled`] so every engine is exercised on toy
/// circuits.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EngineSelector {
    /// Qubits whose state vector fits the last-level cache
    /// (`log2(LLC bytes / 16)`).
    pub cache_qubits: usize,
    /// Qubits whose state vector fits one node's memory.
    pub node_qubits: usize,
    /// Cap on the virtual rank count (power of two).
    pub max_ranks: usize,
}

impl EngineSelector {
    /// Explicitly scaled thresholds (used by tests and the examples so the
    /// full engine spectrum is exercised on small circuits).
    pub fn scaled(cache_qubits: usize, node_qubits: usize) -> Self {
        assert!(cache_qubits <= node_qubits);
        Self {
            cache_qubits,
            node_qubits,
            max_ranks: 16,
        }
    }

    /// Choose the engine and parameters for `circuit`, optionally forcing the
    /// engine kind (the per-job override) while still deriving the
    /// structural parameters.
    pub fn decide(&self, circuit: &Circuit, forced: Option<EngineKind>) -> EngineDecision {
        let n = circuit.num_qubits();
        // Partitioning rejects limits below the largest gate arity; every
        // limit the selector emits respects this floor.
        let arity_floor = circuit.gates().iter().map(|g| g.arity()).max().unwrap_or(1);
        let cache_limit = self.cache_qubits.clamp(arity_floor, n.max(1));

        let auto = self.auto_engine(n);
        let engine = forced.unwrap_or(auto);

        // Rank count: one rank per node_qubits-sized slice, capped.
        let ranks = if matches!(engine, EngineKind::Dist | EngineKind::Multilevel) {
            let wanted_bits = n.saturating_sub(self.node_qubits).max(1);
            let cap_bits = self.max_ranks.trailing_zeros() as usize;
            // Never more rank bits than would leave each rank at least one
            // local qubit per gate operand.
            let max_bits = n.saturating_sub(arity_floor.max(1));
            1usize << wanted_bits.min(cap_bits).min(max_bits)
        } else {
            1
        };
        let local = n - ranks.trailing_zeros() as usize;

        let (limit, second_limit) = match engine {
            EngineKind::Baseline => (n.max(1), 0),
            EngineKind::Hier if forced.is_none() => (n.max(1), 0),
            EngineKind::Hier => (cache_limit, 0),
            EngineKind::Dist => (local.clamp(arity_floor, n.max(1)), 0),
            EngineKind::Multilevel => {
                let first = local.clamp(arity_floor, n.max(1));
                (first, cache_limit.min(first))
            }
        };

        let est_exchange_s =
            NetworkModel::hdr100().message_time(((16u128 << n) / ranks.max(1) as u128) as usize);

        let reason = match engine {
            EngineKind::Hier if engine == auto && n <= self.cache_qubits => format!(
                "2^{n} amplitudes fit the {}-qubit LLC budget; one part, swept in place",
                self.cache_qubits
            ),
            EngineKind::Hier if forced.is_none() => format!(
                "2^{n} amplitudes exceed the {}-qubit LLC budget but fit one node \
                 ({} qubits); one part, swept in place tile by tile",
                self.cache_qubits, self.node_qubits
            ),
            EngineKind::Dist if engine == auto => format!(
                "2^{n} amplitudes exceed one node ({} qubits); {ranks} ranks of \
                 {local}-qubit slices, each swept in place tile by tile \
                 (~{:.1e} s/exchange)",
                self.node_qubits, est_exchange_s
            ),
            // A forced engine must not inherit the rationale of a choice the
            // selector did not make: state the override and the derived
            // parameters only.
            _ => {
                let parameters = match engine {
                    EngineKind::Baseline => "one rank, no partitioning".to_string(),
                    EngineKind::Hier => format!("parts at limit {limit}, swept in place"),
                    EngineKind::Dist | EngineKind::Multilevel => format!(
                        "{ranks} ranks, {local}-qubit local slices, limits {limit}/{second_limit} \
                         (~{est_exchange_s:.1e} s/exchange)"
                    ),
                };
                format!(
                    "{engine} forced by the job; the selector would have picked {auto} for \
                     2^{n} amplitudes (LLC budget {} qubits, node budget {} qubits); {parameters}",
                    self.cache_qubits, self.node_qubits
                )
            }
        };

        EngineDecision {
            engine,
            limit,
            ranks,
            second_limit,
            est_exchange_s,
            reason,
        }
    }

    /// The ladder: one node holds the state ⇒ `hier` (one in-place part),
    /// else `dist`.
    fn auto_engine(&self, n: usize) -> EngineKind {
        if n <= self.node_qubits {
            EngineKind::Hier
        } else {
            EngineKind::Dist
        }
    }
}

impl Default for EngineSelector {
    /// Budgets of the paper's evaluation machine: a 32 MB Cascade Lake LLC
    /// holds 2^21 amplitudes of 16 bytes, a 16 GB node 2^30; up to 64 ranks.
    fn default() -> Self {
        Self {
            cache_qubits: 21,
            node_qubits: 30,
            max_ranks: 64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hisvsim_circuit::generators;

    #[test]
    fn engine_index_matches_the_all_order() {
        for (slot, kind) in EngineKind::ALL.iter().enumerate() {
            assert_eq!(kind.index(), slot, "{kind} index out of sync with ALL");
        }
    }

    #[test]
    fn default_selector_uses_paper_scale_thresholds() {
        let s = EngineSelector::default();
        assert_eq!(s.cache_qubits, 21);
        assert_eq!(s.node_qubits, 30);
    }

    #[test]
    fn scaled_selector_walks_the_engine_ladder() {
        let s = EngineSelector::scaled(4, 8);
        // Fits the cache budget: hier over the whole circuit, one rank.
        let small = s.decide(&generators::qft(4), None);
        assert_eq!(
            (small.engine, small.limit, small.ranks),
            (EngineKind::Hier, 4, 1)
        );
        // Past the cache budget, within the node: still one hier part.
        let wide = s.decide(&generators::qft(6), None);
        assert_eq!(
            (wide.engine, wide.limit, wide.ranks),
            (EngineKind::Hier, 6, 1)
        );
        // Forcing the engine partitions at the cache limit instead.
        let forced = s.decide(&generators::qft(6), Some(EngineKind::Hier));
        assert_eq!((forced.engine, forced.limit), (EngineKind::Hier, 4));
        // Past the node budget: dist, whatever the width of a rank's slice
        // against the cache budget (8 local qubits here, 7 below).
        let past = s.decide(&generators::qft(9), None);
        assert_eq!((past.engine, past.ranks), (EngineKind::Dist, 2));
        assert!(past.reason.contains("swept in place tile by tile"));
        let s2 = EngineSelector::scaled(7, 8);
        assert_eq!(
            s2.decide(&generators::qft(9), None).engine,
            EngineKind::Dist
        );
        // The runtime serves exactly the two rungs: neither comparator is
        // one.
        let served: Vec<EngineKind> = EngineKind::ALL
            .into_iter()
            .filter(|engine| engine.is_served())
            .collect();
        assert_eq!(served, [EngineKind::Hier, EngineKind::Dist]);
        for n in 1..=12 {
            let auto = s.decide(&generators::qft(n), None).engine;
            assert!(auto.is_served(), "{n} qubits: {auto}");
        }
    }

    #[test]
    fn forced_engine_is_respected_with_derived_parameters() {
        let s = EngineSelector::scaled(4, 8);
        let d = s.decide(&generators::qft(6), Some(EngineKind::Dist));
        assert_eq!(d.engine, EngineKind::Dist);
        assert!(d.ranks.is_power_of_two());
        assert!(d.limit >= 2);
    }

    #[test]
    fn a_forced_engine_does_not_borrow_the_auto_rationale() {
        // 16 qubits fit the default 21-qubit LLC budget: auto picks hier
        // over the whole circuit.
        let s = EngineSelector::default();
        let circuit = generators::qft(16);
        let auto = s.decide(&circuit, None);
        assert_eq!((auto.engine, auto.limit), (EngineKind::Hier, 16));
        assert!(auto
            .reason
            .contains("fit the 21-qubit LLC budget; one part, swept in place"));
        // Forcing the engine the selector picks anyway keeps its rationale.
        assert_eq!(
            s.decide(&circuit, Some(EngineKind::Hier)).reason,
            auto.reason
        );
        // Past the budget the same engine states the other rationale.
        let wide = s.decide(&generators::qft(22), None);
        assert_eq!((wide.engine, wide.limit), (EngineKind::Hier, 22));
        assert!(wide.reason.contains("exceed the 21-qubit LLC budget"));
        assert!(wide
            .reason
            .contains("one part, swept in place tile by tile"));

        // Each forced decision names the override and its own parameters.
        for engine in [EngineKind::Baseline, EngineKind::Dist] {
            let forced = s.decide(&circuit, Some(engine));
            let parameter = match engine {
                EngineKind::Baseline => "one rank, no partitioning".to_string(),
                _ => format!("{} ranks", forced.ranks),
            };
            let reason = &forced.reason;
            assert!(
                reason.starts_with(&format!(
                    "{engine} forced by the job; the selector would have picked hier"
                )),
                "{reason}"
            );
            assert!(!reason.contains("exceed"), "{reason}");
            assert!(!reason.contains("swept in place"), "{reason}");
            assert!(reason.contains(&parameter), "{reason}");
        }
        // Hier forced where the ladder would distribute.
        let forced =
            EngineSelector::scaled(4, 8).decide(&generators::qft(10), Some(EngineKind::Hier));
        let reason = &forced.reason;
        assert!(
            reason.starts_with("hier forced by the job; the selector would have picked dist"),
            "{reason}"
        );
        assert!(
            reason.contains(&format!("at limit {}", forced.limit)),
            "{reason}"
        );
    }

    #[test]
    fn limits_never_drop_below_gate_arity() {
        // The adder family contains Toffolis (arity 3).
        let s = EngineSelector::scaled(2, 5);
        let d = s.decide(&generators::adder(10), None);
        assert!(d.limit >= 3, "limit {} below Toffoli arity", d.limit);
        let forced = s.decide(&generators::adder(10), Some(EngineKind::Multilevel));
        assert!(forced.second_limit >= 3, "{}", forced.second_limit);
    }

    #[test]
    fn rank_count_is_a_bounded_power_of_two() {
        let s = EngineSelector::scaled(3, 5);
        for n in 6..=12 {
            let d = s.decide(&generators::qft(n), None);
            assert!(d.ranks.is_power_of_two());
            assert!(d.ranks <= s.max_ranks);
            assert!(
                (d.ranks.trailing_zeros() as usize) < n,
                "ranks {} for {n} qubits",
                d.ranks
            );
        }
    }

    #[test]
    fn decisions_explain_themselves() {
        let s = EngineSelector::scaled(4, 8);
        for n in [3usize, 6, 10] {
            let d = s.decide(&generators::qft(n), None);
            assert!(!d.reason.is_empty());
            assert!(d.est_exchange_s >= 0.0);
        }
    }
}
