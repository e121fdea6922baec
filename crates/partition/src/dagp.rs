//! `dagP` — the acyclic-partitioning-based strategy (Sec. IV-B.3).
//!
//! The paper adapts a multilevel acyclic DAG partitioner (Herrmann et al.,
//! SISC 2019) to the circuit-partitioning problem. The pipeline implemented
//! here mirrors the paper's modified version:
//!
//! 1. **Recursive bisection.** If the working set of the (sub)graph exceeds
//!    the limit `Lm`, bisect it into two acyclic halves and recurse; stop as
//!    soon as a subgraph's working set fits. The number of parts is therefore
//!    *discovered*, not an input parameter — the paper's key modification.
//! 2. Each bisection itself is multilevel: an acyclic **agglomerative
//!    coarsening** (contracting contiguous runs of the topological order that
//!    share qubits), an **initial split** that scans the coarse topological
//!    order for the minimum-cut point within the imbalance tolerance
//!    (ε ≤ 1.5 as in the paper), and an acyclicity-preserving **FM-style
//!    refinement** of the boundary.
//! 3. A final **merge phase** (the phase the paper adds to the original
//!    algorithm): greedily merge parts of the quotient graph whenever the
//!    merged working set stays within `Lm` and the merge keeps the quotient
//!    graph acyclic, further reducing the part count.
//!
//! The bookkeeping is flat and allocated once per call. The recursion
//! reorders one buffer of gate vertices in place; every subset it hands down
//! is a contiguous slice of that buffer in circuit order, which is a
//! topological order of the induced subgraph. A bisection marks its subset,
//! and each vertex's side, in one per-vertex mark array. Working sets (of a
//! subset, of an open cluster, of a part in the merge phase) are qubit
//! bitsets, so a merge candidate's merged size and overlap are popcounts.
//! Per-qubit gate counts on either side of a split keep the shared-qubit
//! objective exact as vertices move.
//!
//! Cost per phase on the `plan_cold` probe (`random_circuit(11, 3000)` at
//! limit 8: ~330 bisections, ~110 parts), release build, one thread, and
//! beside it the rest of a cold plan:
//!
//! | phase | ms |
//! |---|---|
//! | recursive bisection: coarsening ~0.4, split scan ~0.5, refinement ~0.4, fit tests ~0.1 | 1.5–2.1 |
//! | ready-list packing | 0.23–0.38 |
//! | merge phase: every pair of parts scored by popcounts, sorted, tested for acyclicity | 0.17–0.26 |
//! | `Partition::validate` (qubit bitsets, sorted quotient edges) | 0.09–0.10 |
//! | `CircuitDag::from_circuit` (flat edge arrays) | 0.10–0.11 |
//! | `FusedSinglePlan::new`, every part fused in place on the job's DAG | 1.3–1.4 |
//!
//! Fusion, not dagP, was the largest cold-planning term: 2.9–3.1 ms while
//! each part was copied into a circuit of its own, given a DAG of its own
//! and its group matrices built through embedded copies. Fused in place it
//! is below the bisection again.

use crate::error::PartitionBuildError;
use hisvsim_dag::{CircuitDag, NodeId, Partition, QubitSet};
use std::collections::BTreeSet;

/// Maximum allowed imbalance between the two sides of a bisection,
/// expressed as the larger side divided by the ideal half size. The paper
/// uses ε ≤ 1.5 because part-size balance is not critical.
const IMBALANCE: f64 = 1.5;

/// Boundary-refinement passes per bisection.
const REFINEMENT_PASSES: usize = 4;

/// Maximum nodes per coarse cluster.
const MAX_CLUSTER_SIZE: usize = 8;

/// The phases of the dagP strategy that can be switched off.
#[derive(Debug, Clone, Copy)]
pub struct DagPConfig {
    /// Enable the acyclic agglomerative coarsening phase.
    pub coarsen: bool,
    /// Enable the final merge phase (the paper's addition). Disabling it is
    /// the ablation the `ablation_merge` binary reports (README,
    /// "Reproducing the paper's artifacts").
    pub merge: bool,
}

impl Default for DagPConfig {
    fn default() -> Self {
        Self {
            coarsen: true,
            merge: true,
        }
    }
}

/// The dagP partitioner.
#[derive(Debug, Clone, Copy, Default)]
pub struct DagPPartitioner {
    /// Configuration; `Default` matches the paper's suggested parameters.
    pub config: DagPConfig,
}

/// A vertex outside the subset being bisected.
const OUT: u8 = 0;
/// A vertex of the subset on the early side of the split.
const EARLY: u8 = 1;
/// A vertex of the subset on the late side of the split.
const LATE: u8 = 2;

/// The buffers the recursive bisection reuses from one call to the next.
struct Scratch {
    /// Per vertex: [`OUT`], or the side of the subset being bisected it is on.
    side: Vec<u8>,
    /// The working set being measured: a subset's, or an open cluster's.
    qubits: QubitSet,
    /// End offset of each coarse cluster in the order being bisected.
    cluster_ends: Vec<usize>,
    /// Per-qubit gate counts on the early side of a split.
    early_counts: Vec<usize>,
    /// Per-qubit gate counts on the late side of a split.
    late_counts: Vec<usize>,
    /// The late side, while a bisection reorders its subset in place.
    late: Vec<NodeId>,
}

impl Scratch {
    fn new(dag: &CircuitDag) -> Self {
        let nq = dag.num_qubits();
        Self {
            side: vec![OUT; dag.num_nodes()],
            qubits: QubitSet::new(nq),
            cluster_ends: Vec::new(),
            early_counts: vec![0; nq],
            late_counts: vec![0; nq],
            late: Vec::new(),
        }
    }

    /// True when the working set of `nodes` has at most `limit` qubits.
    fn fits(&mut self, dag: &CircuitDag, nodes: &[NodeId], limit: usize) -> bool {
        self.qubits.clear();
        for &n in nodes {
            self.qubits.extend(dag.qubits_of(n));
            if self.qubits.len() > limit {
                return false;
            }
        }
        true
    }
}

impl DagPPartitioner {
    /// A dagP partitioner with an explicit configuration.
    pub fn new(config: DagPConfig) -> Self {
        Self { config }
    }

    /// Partition `dag` so every part's working set is at most `limit`,
    /// minimising the number of parts.
    pub fn partition(
        &self,
        dag: &CircuitDag,
        limit: usize,
    ) -> Result<Partition, PartitionBuildError> {
        if limit == 0 {
            return Err(PartitionBuildError::InvalidLimit(limit));
        }
        let mut order: Vec<NodeId> = dag.natural_gate_order();
        for &node in &order {
            let arity = dag.qubits_of(node).len();
            if arity > limit {
                return Err(PartitionBuildError::GateExceedsLimit {
                    gate: dag.gate_index(node).unwrap(),
                    arity,
                    limit,
                });
            }
        }
        if order.is_empty() {
            return Ok(Partition::from_gate_assignment(Vec::new()));
        }

        // Phase 1+2: recursive bisection until every subgraph fits. The
        // recursion reorders `order` into its leaf sequence: a topological
        // order of the gates in which qubit-related gates sit next to each
        // other (each bisection minimises the qubits shared across the split).
        self.recurse(dag, &mut order, limit, &mut Scratch::new(dag));

        // Pack gates into parts with a ready-list greedy: always prefer the
        // ready gate that adds the fewest new qubits to the open part, using
        // the bisection order as the locality tie-break. The bisection
        // discovers the global structure (which qubit groups belong
        // together); the packing fills each part to the working-set limit —
        // the recursion alone leaves parts half-full because it only
        // balances node counts.
        let mut parts = pack_ready_greedy(dag, &order, limit);

        // Phase 3: merge.
        if self.config.merge {
            parts = merge_parts(dag, parts, limit);
        }

        let mut assignment = vec![0usize; dag.num_gate_nodes()];
        for (p, nodes) in parts.iter().enumerate() {
            for &node in nodes {
                assignment[dag.gate_index(node).unwrap()] = p;
            }
        }
        let partition = Partition::from_gate_assignment(assignment);
        partition
            .validate(dag, limit)
            .map_err(PartitionBuildError::InvalidResult)?;
        Ok(partition)
    }

    /// Bisect `nodes` until every piece fits `limit`, leaving the pieces in
    /// place, in order.
    fn recurse(&self, dag: &CircuitDag, nodes: &mut [NodeId], limit: usize, scratch: &mut Scratch) {
        if nodes.is_empty() || scratch.fits(dag, nodes, limit) {
            return;
        }
        let early = self.bisect(dag, nodes, scratch);
        // A bisection that fails to split (degenerate) leaves `nodes` as it
        // was; fall back to halving the topological order, which always makes
        // progress for |nodes| > 1.
        let mid = if early == 0 || early == nodes.len() {
            (nodes.len() / 2).max(1)
        } else {
            early
        };
        let (left, right) = nodes.split_at_mut(mid);
        self.recurse(dag, left, limit, scratch);
        self.recurse(dag, right, limit, scratch);
    }

    /// Bisect `nodes` (in circuit order, hence a topological order of the
    /// subgraph they induce) into an "early" and a "late" side such that all
    /// induced edges point early → late. Reorders `nodes` in place, early
    /// side first, each side keeping its order, and returns the early side's
    /// length.
    fn bisect(&self, dag: &CircuitDag, nodes: &mut [NodeId], scratch: &mut Scratch) -> usize {
        if nodes.len() < 2 {
            return nodes.len();
        }
        debug_assert!(
            nodes.windows(2).all(|w| w[0] < w[1]),
            "not in circuit order"
        );

        // --- coarsening ---------------------------------------------------
        scratch.cluster_ends.clear();
        if self.config.coarsen {
            coarsen_order(dag, nodes, MAX_CLUSTER_SIZE, scratch);
        } else {
            scratch.cluster_ends.extend(1..=nodes.len());
        }

        // --- initial split ------------------------------------------------
        let split_cluster = self.best_split(dag, nodes, scratch);
        let boundary = scratch.cluster_ends[split_cluster - 1];
        for (i, &n) in nodes.iter().enumerate() {
            scratch.side[n] = if i < boundary { EARLY } else { LATE };
        }

        // --- refinement ---------------------------------------------------
        self.refine(dag, nodes, scratch);

        // Stable in-place split; every vertex leaves the subset again.
        scratch.late.clear();
        let mut early = 0;
        for i in 0..nodes.len() {
            let n = nodes[i];
            if scratch.side[n] == LATE {
                scratch.late.push(n);
            } else {
                nodes[early] = n;
                early += 1;
            }
            scratch.side[n] = OUT;
        }
        nodes[early..].copy_from_slice(&scratch.late);
        early
    }

    /// Scan all cluster split points and return the one whose two sides share
    /// the fewest qubits, among splits within the imbalance tolerance
    /// (falling back to the most balanced point if none qualify). Split `s`
    /// puts clusters `0..s` early.
    ///
    /// Shared qubits — not raw edge cut — is the quantity that drives the
    /// final part count: every qubit appearing on both sides must be loaded
    /// into (at least) one extra part downstream, so minimising it is the
    /// working-set analogue of the original algorithm's edge-cut objective.
    fn best_split(&self, dag: &CircuitDag, nodes: &[NodeId], scratch: &mut Scratch) -> usize {
        let total_nodes = nodes.len();
        let ideal = total_nodes as f64 / 2.0;
        let max_side = (ideal * IMBALANCE).ceil() as usize;

        // Per-qubit gate counts of each side, so the number of shared qubits
        // can be maintained incrementally across split points.
        let Scratch {
            cluster_ends,
            early_counts: prefix_counts,
            late_counts: suffix_counts,
            ..
        } = scratch;
        prefix_counts.fill(0);
        suffix_counts.fill(0);
        for &n in nodes {
            for &q in dag.qubits_of(n) {
                suffix_counts[q] += 1;
            }
        }

        let mut best: Option<(usize, usize, usize)> = None; // (shared, balance distance, split)
        let mut fallback: Option<(usize, usize)> = None; // (balance distance, split)
        let mut shared = 0usize;
        let mut prefix_nodes = 0usize;
        for split in 1..cluster_ends.len() {
            for &n in &nodes[prefix_nodes..cluster_ends[split - 1]] {
                for &q in dag.qubits_of(n) {
                    let was_shared = prefix_counts[q] > 0 && suffix_counts[q] > 0;
                    prefix_counts[q] += 1;
                    suffix_counts[q] -= 1;
                    shared = shared + usize::from(suffix_counts[q] > 0) - usize::from(was_shared);
                }
            }
            prefix_nodes = cluster_ends[split - 1];
            let suffix_nodes = total_nodes - prefix_nodes;
            let distance = prefix_nodes.abs_diff(suffix_nodes);
            let balanced = prefix_nodes <= max_side && suffix_nodes <= max_side;
            if balanced && best.is_none_or(|(s, d, _)| shared < s || (shared == s && distance < d))
            {
                best = Some((shared, distance, split));
            }
            if fallback.is_none_or(|(d, _)| distance < d) {
                fallback = Some((distance, split));
            }
        }
        best.map(|(_, _, s)| s)
            .or(fallback.map(|(_, s)| s))
            .unwrap_or(1)
    }

    /// Boundary refinement: move vertices across the split when it lowers the
    /// number of qubits shared by the two sides, keeping all induced edges
    /// early → late and respecting the imbalance bound.
    fn refine(&self, dag: &CircuitDag, order: &[NodeId], scratch: &mut Scratch) {
        let Scratch {
            side,
            early_counts,
            late_counts,
            ..
        } = scratch;
        let total = order.len();
        let ideal = total as f64 / 2.0;
        let max_side = (ideal * IMBALANCE).ceil() as usize;
        let mut late_count = order.iter().filter(|&&n| side[n] == LATE).count();

        // Per-qubit gate counts on each side, maintained across moves.
        early_counts.fill(0);
        late_counts.fill(0);
        for &n in order {
            let counts = if side[n] == LATE {
                &mut *late_counts
            } else {
                &mut *early_counts
            };
            for &q in dag.qubits_of(n) {
                counts[q] += 1;
            }
        }

        for _ in 0..REFINEMENT_PASSES {
            let mut moved = false;
            for &n in order {
                let currently_late = side[n] == LATE;
                // Feasibility: moving early→late requires no successor on the
                // early side; late→early requires no predecessor on the late
                // side (otherwise an edge would point late → early). Vertices
                // outside the subset are `OUT`, on neither side.
                let feasible = if currently_late {
                    dag.predecessors(n).iter().all(|&(p, _)| side[p] != LATE)
                } else {
                    dag.successors(n).iter().all(|&(s, _)| side[s] != EARLY)
                };
                if !feasible {
                    continue;
                }
                // Balance after the move.
                let new_late = if currently_late {
                    late_count - 1
                } else {
                    late_count + 1
                };
                let new_early = total - new_late;
                if new_late > max_side || new_early > max_side || new_late == 0 || new_early == 0 {
                    continue;
                }
                // Gain: change in the number of qubits shared between the two
                // sides if `n` switches sides.
                let (from_counts, to_counts) = if currently_late {
                    (&mut *late_counts, &mut *early_counts)
                } else {
                    (&mut *early_counts, &mut *late_counts)
                };
                let mut gain: isize = 0;
                for &q in dag.qubits_of(n) {
                    // Leaving the `from` side: if this was the last gate on q
                    // there and q is used on the `to` side, q stops being shared.
                    if from_counts[q] == 1 && to_counts[q] > 0 {
                        gain += 1;
                    }
                    // Arriving on the `to` side: if q was not used there but
                    // remains on the `from` side, q becomes shared.
                    if to_counts[q] == 0 && from_counts[q] > 1 {
                        gain -= 1;
                    }
                }
                if gain > 0 {
                    side[n] = if currently_late { EARLY } else { LATE };
                    late_count = new_late;
                    for &q in dag.qubits_of(n) {
                        from_counts[q] -= 1;
                        to_counts[q] += 1;
                    }
                    moved = true;
                }
            }
            if !moved {
                break;
            }
        }
    }
}

/// Contract contiguous runs of the topological order into clusters of at most
/// `max_size` vertices, preferring to extend a cluster while the next vertex
/// shares a qubit with it (acyclic by construction: clusters are contiguous
/// segments of a topological order). Appends each cluster's end offset to
/// `scratch.cluster_ends`.
fn coarsen_order(dag: &CircuitDag, order: &[NodeId], max_size: usize, scratch: &mut Scratch) {
    let current_qubits = &mut scratch.qubits;
    current_qubits.clear();
    let mut current_len = 0usize;
    for (i, &n) in order.iter().enumerate() {
        let qs = dag.qubits_of(n);
        let shares = qs.iter().any(|&q| current_qubits.contains(q));
        if current_len > 0 && !(shares && current_len < max_size) {
            scratch.cluster_ends.push(i);
            current_qubits.clear();
            current_len = 0;
        }
        current_len += 1;
        current_qubits.extend(qs);
    }
    if current_len > 0 {
        scratch.cluster_ends.push(order.len());
    }
}

/// Greedy ready-list packing.
///
/// Gates become *ready* once all their gate predecessors are assigned. The
/// open part repeatedly absorbs the ready gate that introduces the fewest new
/// qubits (ties broken by the position in `priority`, the bisection's
/// locality order); when no ready gate fits under `limit`, the part is closed
/// and a new one opened. Parts are produced in a topological order of the
/// quotient graph by construction: a gate is assigned only after all of its
/// predecessors, so every cross-part edge points from an earlier-closed part
/// to a later one.
fn pack_ready_greedy(dag: &CircuitDag, priority: &[NodeId], limit: usize) -> Vec<Vec<NodeId>> {
    let total = priority.len();
    let mut priority_pos = vec![usize::MAX; dag.num_nodes()];
    for (pos, &n) in priority.iter().enumerate() {
        priority_pos[n] = pos;
    }
    // Count only *gate* predecessors; entry vertices are always satisfied.
    let mut remaining_preds = vec![0usize; dag.num_nodes()];
    for &n in priority {
        remaining_preds[n] = dag
            .predecessors(n)
            .iter()
            .filter(|&&(p, _)| dag.gate_index(p).is_some())
            .count();
    }
    let mut ready: Vec<NodeId> = priority
        .iter()
        .copied()
        .filter(|&n| remaining_preds[n] == 0)
        .collect();

    let mut parts: Vec<Vec<NodeId>> = Vec::new();
    let mut current: Vec<NodeId> = Vec::new();
    let mut current_qubits = vec![false; dag.num_qubits()];
    let mut current_count = 0usize;
    let mut assigned = 0usize;

    while assigned < total {
        // Pick the ready gate adding the fewest new qubits that still fits.
        let mut best: Option<(usize, usize, usize)> = None; // (new_qubits, priority, index in ready)
        for (idx, &n) in ready.iter().enumerate() {
            let new_qubits = dag
                .qubits_of(n)
                .iter()
                .filter(|&&q| !current_qubits[q])
                .count();
            if current_count + new_qubits > limit {
                continue;
            }
            let key = (new_qubits, priority_pos[n], idx);
            if best.is_none_or(|b| (key.0, key.1) < (b.0, b.1)) {
                best = Some(key);
            }
        }
        match best {
            Some((_, _, idx)) => {
                let n = ready.swap_remove(idx);
                for &q in dag.qubits_of(n) {
                    if !current_qubits[q] {
                        current_qubits[q] = true;
                        current_count += 1;
                    }
                }
                current.push(n);
                assigned += 1;
                for &(succ, _) in dag.successors(n) {
                    if dag.gate_index(succ).is_some() {
                        remaining_preds[succ] -= 1;
                        if remaining_preds[succ] == 0 {
                            ready.push(succ);
                        }
                    }
                }
            }
            None => {
                // Nothing fits: close the part. The arity pre-check in
                // `partition` guarantees the next gate fits an empty part.
                assert!(
                    !current.is_empty(),
                    "no ready gate fits an empty part — arity check should have caught this"
                );
                parts.push(std::mem::take(&mut current));
                current_qubits.iter_mut().for_each(|b| *b = false);
                current_count = 0;
            }
        }
    }
    if !current.is_empty() {
        parts.push(current);
    }
    parts
}

/// The final merge phase: repeatedly merge the pair of parts with the largest
/// qubit overlap whose merged working set fits within `limit` and whose
/// merge keeps the quotient graph acyclic.
fn merge_parts(dag: &CircuitDag, mut parts: Vec<Vec<NodeId>>, limit: usize) -> Vec<Vec<NodeId>> {
    loop {
        if parts.len() <= 1 {
            return parts;
        }
        let working_sets: Vec<QubitSet> = parts.iter().map(|p| QubitSet::of(dag, p)).collect();

        // Quotient adjacency indexed exactly by our `parts` positions (a
        // plain `PartGraph` would renumber parts by first appearance, which
        // does not match these indices).
        let succ = quotient_successors(dag, &parts);

        // Candidate pairs ordered by descending qubit overlap, then ascending
        // merged working-set size (prefer merges that stay small).
        let mut candidates: Vec<(usize, usize, usize, usize)> = Vec::new(); // (overlap, merged_ws, a, b)
        for a in 0..parts.len() {
            for b in a + 1..parts.len() {
                let (merged, overlap) = working_sets[a].union_and_overlap(&working_sets[b]);
                if merged <= limit {
                    candidates.push((overlap, merged, a, b));
                }
            }
        }
        candidates.sort_by(|x, y| y.0.cmp(&x.0).then(x.1.cmp(&y.1)));

        let merged_pair = candidates
            .iter()
            .map(|&(_, _, a, b)| (a, b))
            .find(|&(a, b)| merge_keeps_acyclic(&succ, a, b));
        match merged_pair {
            Some((a, b)) => {
                let moved = std::mem::take(&mut parts[b]);
                parts[a].extend(moved);
                parts.remove(b);
            }
            None => return parts,
        }
    }
}

/// Successor sets of the quotient graph, indexed by position in `parts`.
fn quotient_successors(dag: &CircuitDag, parts: &[Vec<NodeId>]) -> Vec<BTreeSet<usize>> {
    let mut part_of_node = vec![usize::MAX; dag.num_nodes()];
    for (p, nodes) in parts.iter().enumerate() {
        for &node in nodes {
            part_of_node[node] = p;
        }
    }
    let mut succ = vec![BTreeSet::new(); parts.len()];
    for (p, nodes) in parts.iter().enumerate() {
        for &node in nodes {
            for &(s, _) in dag.successors(node) {
                let q = part_of_node[s];
                if q != usize::MAX && q != p {
                    succ[p].insert(q);
                }
            }
        }
    }
    succ
}

/// Merging parts `a` and `b` keeps the quotient acyclic iff there is no
/// directed path between them that passes through a third part (a direct
/// edge is fine — it becomes internal).
fn merge_keeps_acyclic(succ: &[BTreeSet<usize>], a: usize, b: usize) -> bool {
    !has_indirect_path(succ, a, b) && !has_indirect_path(succ, b, a)
}

fn has_indirect_path(succ: &[BTreeSet<usize>], from: usize, to: usize) -> bool {
    // DFS from `from`'s successors other than `to` itself; if we can still
    // reach `to`, the path is indirect.
    let mut stack: Vec<usize> = succ[from].iter().copied().filter(|&s| s != to).collect();
    let mut seen = vec![false; succ.len()];
    while let Some(p) = stack.pop() {
        if p == to {
            return true;
        }
        if seen[p] {
            continue;
        }
        seen[p] = true;
        for &s in &succ[p] {
            stack.push(s);
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dfs::DfsPartitioner;
    use crate::nat::NatPartitioner;
    use hisvsim_circuit::{generators, Circuit};

    #[test]
    fn dagp_partitions_validate_across_suite() {
        for name in generators::FAMILY_NAMES {
            let c = generators::by_name(name, 10);
            let dag = CircuitDag::from_circuit(&c);
            for limit in [4usize, 6, 8, 10] {
                match DagPPartitioner::default().partition(&dag, limit) {
                    Ok(p) => {
                        p.validate(&dag, limit)
                            .unwrap_or_else(|e| panic!("{name}@{limit}: {e}"));
                    }
                    Err(PartitionBuildError::GateExceedsLimit { .. }) => {}
                    Err(e) => panic!("{name}@{limit}: {e}"),
                }
            }
        }
    }

    #[test]
    fn dagp_never_more_parts_than_nat_on_suite() {
        // The paper's headline claim at partitioning level: the global view
        // of dagP beats the localized Nat view (or at least matches it).
        let mut dagp_wins = 0usize;
        for name in generators::FAMILY_NAMES {
            let c = generators::by_name(name, 12);
            let dag = CircuitDag::from_circuit(&c);
            for limit in [5usize, 8] {
                let nat = match NatPartitioner.partition(&dag, limit) {
                    Ok(p) => p,
                    Err(_) => continue,
                };
                let dagp = DagPPartitioner::default().partition(&dag, limit).unwrap();
                assert!(
                    dagp.num_parts() <= nat.num_parts() + 1,
                    "{name}@{limit}: dagP {} parts vs Nat {} parts",
                    dagp.num_parts(),
                    nat.num_parts()
                );
                if dagp.num_parts() < nat.num_parts() {
                    dagp_wins += 1;
                }
            }
        }
        assert!(dagp_wins > 0, "dagP never beat Nat anywhere on the suite");
    }

    #[test]
    fn dagp_handles_alternating_circuit_like_dfs() {
        let mut c = Circuit::new(4);
        for _ in 0..6 {
            c.cx(0, 1);
            c.cx(2, 3);
        }
        let dag = CircuitDag::from_circuit(&c);
        let p = DagPPartitioner::default().partition(&dag, 2).unwrap();
        assert_eq!(
            p.num_parts(),
            2,
            "dagP should group the two independent pair-threads"
        );
    }

    #[test]
    fn merge_phase_reduces_or_keeps_part_count() {
        for name in ["qft", "qaoa", "grover"] {
            let c = generators::by_name(name, 10);
            let dag = CircuitDag::from_circuit(&c);
            let with_merge = DagPPartitioner::default().partition(&dag, 5).unwrap();
            let without_merge = DagPPartitioner::new(DagPConfig {
                merge: false,
                ..Default::default()
            })
            .partition(&dag, 5)
            .unwrap();
            assert!(
                with_merge.num_parts() <= without_merge.num_parts(),
                "{name}: merge phase increased the part count"
            );
        }
    }

    #[test]
    fn whole_circuit_in_one_part_when_it_fits() {
        let c = generators::by_name("ising", 8);
        let dag = CircuitDag::from_circuit(&c);
        let p = DagPPartitioner::default().partition(&dag, 8).unwrap();
        assert_eq!(p.num_parts(), 1);
    }

    #[test]
    fn empty_circuit_yields_empty_partition() {
        let c = Circuit::new(3);
        let dag = CircuitDag::from_circuit(&c);
        let p = DagPPartitioner::default().partition(&dag, 2).unwrap();
        assert_eq!(p.num_parts(), 0);
    }

    #[test]
    fn coarsening_off_still_produces_valid_partitions() {
        let c = generators::by_name("qpe", 10);
        let dag = CircuitDag::from_circuit(&c);
        let cfg = DagPConfig {
            coarsen: false,
            ..Default::default()
        };
        let p = DagPPartitioner::new(cfg).partition(&dag, 5).unwrap();
        p.validate(&dag, 5).unwrap();
    }

    #[test]
    fn dagp_competitive_with_dfs() {
        // Not a strict dominance claim (both are heuristics), but across the
        // suite dagP should win or tie more often than it loses, which is
        // what the paper's Fig. 9 performance profile shows.
        let mut wins_or_ties = 0usize;
        let mut total = 0usize;
        for name in generators::FAMILY_NAMES {
            let c = generators::by_name(name, 12);
            let dag = CircuitDag::from_circuit(&c);
            for limit in [5usize, 8] {
                let dfs = match DfsPartitioner::default().partition(&dag, limit) {
                    Ok(p) => p,
                    Err(_) => continue,
                };
                let dagp = DagPPartitioner::default().partition(&dag, limit).unwrap();
                total += 1;
                if dagp.num_parts() <= dfs.num_parts() {
                    wins_or_ties += 1;
                }
            }
        }
        assert!(
            wins_or_ties * 2 >= total,
            "dagP lost to DFS on {} of {} instances",
            total - wins_or_ties,
            total
        );
    }
}
