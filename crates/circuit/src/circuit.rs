//! The quantum circuit intermediate representation: an ordered list of gates
//! over a fixed-width qubit register, plus a fluent builder API.

use crate::gate::{Gate, GateKind, Qubit};
use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::collections::BTreeSet;
use std::fmt;

/// A quantum circuit: `num_qubits` qubits and an ordered gate sequence.
///
/// The gate order is the *natural topological order* used by the `Nat`
/// partitioning strategy and is the order a flat simulator applies gates in.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Circuit {
    /// A short name identifying the circuit (e.g. the benchmark family).
    pub name: String,
    num_qubits: usize,
    gates: Vec<Gate>,
}

impl Circuit {
    /// Create an empty circuit on `num_qubits` qubits.
    pub fn new(num_qubits: usize) -> Self {
        Self {
            name: String::from("circuit"),
            num_qubits,
            gates: Vec::new(),
        }
    }

    /// Create an empty named circuit.
    pub fn named(name: impl Into<String>, num_qubits: usize) -> Self {
        Self {
            name: name.into(),
            num_qubits,
            gates: Vec::new(),
        }
    }

    /// Number of qubits in the register.
    #[inline]
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// Number of gates.
    #[inline]
    pub fn num_gates(&self) -> usize {
        self.gates.len()
    }

    /// True when the circuit contains no gates.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.gates.is_empty()
    }

    /// The gate sequence in execution order.
    #[inline]
    pub fn gates(&self) -> &[Gate] {
        &self.gates
    }

    /// Consume the circuit and return its gates.
    pub fn into_gates(self) -> Vec<Gate> {
        self.gates
    }

    /// Append an already-constructed gate, validating its qubit indices.
    pub fn push(&mut self, gate: Gate) -> &mut Self {
        for &q in &gate.qubits {
            assert!(
                q < self.num_qubits,
                "gate {} references qubit {} but the circuit has {} qubits",
                gate.kind.name(),
                q,
                self.num_qubits
            );
        }
        self.gates.push(gate);
        self
    }

    /// Append a gate by kind and operands.
    pub fn add(&mut self, kind: GateKind, qubits: &[Qubit]) -> &mut Self {
        self.push(Gate::new(kind, qubits.to_vec()))
    }

    /// Append all gates of `other` (which must act on no more qubits than
    /// this circuit has).
    pub fn extend(&mut self, other: &Circuit) -> &mut Self {
        assert!(other.num_qubits <= self.num_qubits);
        for g in other.gates() {
            self.push(g.clone());
        }
        self
    }

    // ---- fluent single-gate builders -------------------------------------

    /// Apply a Hadamard gate.
    pub fn h(&mut self, q: Qubit) -> &mut Self {
        self.add(GateKind::H, &[q])
    }
    /// Apply a Pauli-X gate.
    pub fn x(&mut self, q: Qubit) -> &mut Self {
        self.add(GateKind::X, &[q])
    }
    /// Apply a Pauli-Y gate.
    pub fn y(&mut self, q: Qubit) -> &mut Self {
        self.add(GateKind::Y, &[q])
    }
    /// Apply a Pauli-Z gate.
    pub fn z(&mut self, q: Qubit) -> &mut Self {
        self.add(GateKind::Z, &[q])
    }
    /// Apply an S gate.
    pub fn s(&mut self, q: Qubit) -> &mut Self {
        self.add(GateKind::S, &[q])
    }
    /// Apply an S-dagger gate.
    pub fn sdg(&mut self, q: Qubit) -> &mut Self {
        self.add(GateKind::Sdg, &[q])
    }
    /// Apply a T gate.
    pub fn t(&mut self, q: Qubit) -> &mut Self {
        self.add(GateKind::T, &[q])
    }
    /// Apply a T-dagger gate.
    pub fn tdg(&mut self, q: Qubit) -> &mut Self {
        self.add(GateKind::Tdg, &[q])
    }
    /// Apply an X rotation.
    pub fn rx(&mut self, theta: f64, q: Qubit) -> &mut Self {
        self.add(GateKind::Rx(theta), &[q])
    }
    /// Apply a Y rotation.
    pub fn ry(&mut self, theta: f64, q: Qubit) -> &mut Self {
        self.add(GateKind::Ry(theta), &[q])
    }
    /// Apply a Z rotation.
    pub fn rz(&mut self, theta: f64, q: Qubit) -> &mut Self {
        self.add(GateKind::Rz(theta), &[q])
    }
    /// Apply a phase gate.
    pub fn p(&mut self, lambda: f64, q: Qubit) -> &mut Self {
        self.add(GateKind::P(lambda), &[q])
    }
    /// Apply the general single-qubit u3 gate.
    pub fn u3(&mut self, theta: f64, phi: f64, lambda: f64, q: Qubit) -> &mut Self {
        self.add(GateKind::U3(theta, phi, lambda), &[q])
    }
    /// Apply a CNOT with `control` and `target`.
    pub fn cx(&mut self, control: Qubit, target: Qubit) -> &mut Self {
        self.add(GateKind::Cx, &[control, target])
    }
    /// Apply a controlled-Z.
    pub fn cz(&mut self, control: Qubit, target: Qubit) -> &mut Self {
        self.add(GateKind::Cz, &[control, target])
    }
    /// Apply a controlled phase gate.
    pub fn cp(&mut self, lambda: f64, control: Qubit, target: Qubit) -> &mut Self {
        self.add(GateKind::Cp(lambda), &[control, target])
    }
    /// Apply a controlled Z-rotation.
    pub fn crz(&mut self, theta: f64, control: Qubit, target: Qubit) -> &mut Self {
        self.add(GateKind::Crz(theta), &[control, target])
    }
    /// Apply a ZZ interaction.
    pub fn rzz(&mut self, theta: f64, a: Qubit, b: Qubit) -> &mut Self {
        self.add(GateKind::Rzz(theta), &[a, b])
    }
    /// Apply a SWAP.
    pub fn swap(&mut self, a: Qubit, b: Qubit) -> &mut Self {
        self.add(GateKind::Swap, &[a, b])
    }
    /// Apply a Toffoli gate with controls `c0`, `c1` and target `t`.
    pub fn ccx(&mut self, c0: Qubit, c1: Qubit, t: Qubit) -> &mut Self {
        self.add(GateKind::Ccx, &[c0, c1, t])
    }

    // ---- analysis ---------------------------------------------------------

    /// The set of qubits actually touched by at least one gate.
    pub fn used_qubits(&self) -> BTreeSet<Qubit> {
        self.gates
            .iter()
            .flat_map(|g| g.qubits.iter().copied())
            .collect()
    }

    /// Count of two-or-more-qubit gates (the entangling gates).
    pub fn multi_qubit_gate_count(&self) -> usize {
        self.gates.iter().filter(|g| g.arity() > 1).count()
    }

    /// Circuit depth: length of the longest chain of gates that share qubits.
    pub fn depth(&self) -> usize {
        let mut level = vec![0usize; self.num_qubits];
        let mut depth = 0;
        for g in &self.gates {
            let l = g.qubits.iter().map(|&q| level[q]).max().unwrap_or(0) + 1;
            for &q in &g.qubits {
                level[q] = l;
            }
            depth = depth.max(l);
        }
        depth
    }

    /// Memory (bytes) the full state vector of this circuit requires:
    /// `2^n × 16`.
    pub fn state_vector_bytes(&self) -> u128 {
        16u128 << self.num_qubits
    }

    /// Build the inverse circuit (gates reversed and individually inverted).
    pub fn inverse(&self) -> Circuit {
        let mut inv = Circuit::named(format!("{}_inv", self.name), self.num_qubits);
        for g in self.gates.iter().rev() {
            inv.push(g.inverse());
        }
        inv
    }

    /// Produce a new circuit containing only the given gate indices, in the
    /// order given. Used to materialise a part of a partitioned circuit.
    pub fn subcircuit(&self, gate_indices: &[usize]) -> Circuit {
        let mut sub = Circuit::named(format!("{}_sub", self.name), self.num_qubits);
        for &i in gate_indices {
            sub.push(self.gates[i].clone());
        }
        sub
    }

    /// Remap every gate's qubits through `map[old] = Some(new)` and shrink the
    /// register to `new_width` qubits.
    pub fn remap_qubits(&self, map: &[Option<Qubit>], new_width: usize) -> Circuit {
        let mut out = Circuit::named(self.name.clone(), new_width);
        for g in &self.gates {
            out.push(g.remap(map));
        }
        out
    }

    /// The circuit with every SWAP dropped, and where it leaves each qubit.
    ///
    /// A SWAP moves no information, only labels: C₁ · SWAP(a, b) · C₂ equals
    /// C₁ · C₂′ · SWAP(a, b), where C₂′ is C₂ with `a` and `b` exchanged. So
    /// each SWAP is dropped and its two qubits exchanged in every later gate.
    /// The returned `perm[q]` is the position the relabeled circuit leaves
    /// qubit `q` at, which is what
    /// `StateVector::permute_qubits(&perm)` takes to put the qubits back: the
    /// relabeled state so permuted is this circuit's state. CSWAP stays a
    /// gate, and the name is kept. A circuit with no SWAP comes back borrowed,
    /// with the identity.
    pub fn relabel_swaps(&self) -> (Cow<'_, Circuit>, Vec<Qubit>) {
        let mut perm: Vec<Qubit> = (0..self.num_qubits).collect();
        if !self.gates.iter().any(|g| g.kind == GateKind::Swap) {
            return (Cow::Borrowed(self), perm);
        }
        let mut relabeled = Circuit::named(self.name.clone(), self.num_qubits);
        for g in &self.gates {
            match g.kind {
                GateKind::Swap => perm.swap(g.qubits[0], g.qubits[1]),
                kind => relabeled.gates.push(Gate {
                    kind,
                    qubits: g.qubits.iter().map(|&q| perm[q]).collect(),
                }),
            }
        }
        (Cow::Owned(relabeled), perm)
    }

    /// A 64-bit *structural* fingerprint of the circuit: two circuits get the
    /// same fingerprint iff they have the same width and the same gate
    /// sequence (kinds, parameters bit-for-bit, and operand qubits).
    ///
    /// The circuit's [`name`](Circuit::name) is deliberately excluded, so
    /// templated workloads (the same circuit submitted under different job
    /// labels) share one fingerprint. This is the cache key the runtime's
    /// partition-plan cache is built on: everything the partitioners read —
    /// the DAG and the per-gate working sets — is a pure function of the
    /// fingerprinted structure.
    ///
    /// The hash is FNV-1a with a 64-bit fold of each component; collisions
    /// are possible in principle (any 64-bit hash has them) but negligibly
    /// likely across a plan cache's lifetime.
    pub fn fingerprint(&self) -> u64 {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        #[inline]
        fn mix(h: u64, word: u64) -> u64 {
            let mut h = h;
            for byte in word.to_le_bytes() {
                h ^= byte as u64;
                h = h.wrapping_mul(PRIME);
            }
            h
        }
        let mut h = mix(OFFSET, self.num_qubits as u64);
        h = mix(h, self.gates.len() as u64);
        for g in &self.gates {
            // The kind name discriminates every `GateKind` variant; the
            // parameter list pins the rotation angles bit-exactly.
            for byte in g.kind.name().bytes() {
                h ^= byte as u64;
                h = h.wrapping_mul(PRIME);
            }
            for p in g.kind.params() {
                h = mix(h, p.to_bits());
            }
            for &q in &g.qubits {
                h = mix(h, q as u64);
            }
        }
        h
    }

    /// Per-gate-kind histogram, useful for reporting benchmark composition.
    pub fn gate_histogram(&self) -> Vec<(String, usize)> {
        let mut counts: std::collections::BTreeMap<String, usize> = Default::default();
        for g in &self.gates {
            *counts.entry(g.kind.name().to_string()).or_default() += 1;
        }
        counts.into_iter().collect()
    }
}

impl fmt::Display for Circuit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{}: {} qubits, {} gates, depth {}",
            self.name,
            self.num_qubits,
            self.num_gates(),
            self.depth()
        )?;
        for g in &self.gates {
            writeln!(f, "  {g}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_chains_and_counts() {
        let mut c = Circuit::new(3);
        c.h(0).cx(0, 1).cx(1, 2).rz(0.5, 2);
        assert_eq!(c.num_gates(), 4);
        assert_eq!(c.num_qubits(), 3);
        assert_eq!(c.multi_qubit_gate_count(), 2);
        assert!(!c.is_empty());
    }

    #[test]
    fn depth_follows_longest_dependency_chain() {
        let mut c = Circuit::new(3);
        // Parallel H's: depth 1.
        c.h(0).h(1).h(2);
        assert_eq!(c.depth(), 1);
        // Chain of CX: each adds one level.
        c.cx(0, 1).cx(1, 2);
        assert_eq!(c.depth(), 3);
    }

    #[test]
    fn used_qubits_ignores_untouched_wires() {
        let mut c = Circuit::new(5);
        c.h(1).cx(1, 3);
        let used: Vec<_> = c.used_qubits().into_iter().collect();
        assert_eq!(used, vec![1, 3]);
    }

    #[test]
    fn state_vector_bytes_matches_paper_table1() {
        // Table I: 30 qubits = 16 GB, 35 = 512 GB, 36 = 1 TB, 37 = 2 TB.
        assert_eq!(Circuit::new(30).state_vector_bytes(), 16 << 30);
        assert_eq!(Circuit::new(35).state_vector_bytes(), 512 << 30);
        assert_eq!(Circuit::new(36).state_vector_bytes(), 1 << 40);
        assert_eq!(Circuit::new(37).state_vector_bytes(), 2 << 40);
    }

    #[test]
    fn inverse_reverses_and_inverts() {
        let mut c = Circuit::new(2);
        c.h(0).s(1).cx(0, 1);
        let inv = c.inverse();
        assert_eq!(inv.num_gates(), 3);
        assert_eq!(inv.gates()[0].kind, GateKind::Cx);
        assert_eq!(inv.gates()[2].kind, GateKind::H);
        assert_eq!(inv.gates()[1].kind, GateKind::Sdg);
    }

    #[test]
    fn subcircuit_selects_in_given_order() {
        let mut c = Circuit::new(2);
        c.h(0).x(1).cx(0, 1);
        let sub = c.subcircuit(&[2, 0]);
        assert_eq!(sub.num_gates(), 2);
        assert_eq!(sub.gates()[0].kind, GateKind::Cx);
        assert_eq!(sub.gates()[1].kind, GateKind::H);
    }

    #[test]
    fn remap_qubits_shrinks_register() {
        let mut c = Circuit::new(8);
        c.cx(6, 2).h(6);
        let mut map = vec![None; 8];
        map[6] = Some(0);
        map[2] = Some(1);
        let r = c.remap_qubits(&map, 2);
        assert_eq!(r.num_qubits(), 2);
        assert_eq!(r.gates()[0].qubits, vec![0, 1]);
        assert_eq!(r.gates()[1].qubits, vec![0]);
    }

    #[test]
    fn fingerprint_is_structural_and_name_blind() {
        let mut a = Circuit::named("first", 3);
        a.h(0).cx(0, 1).rz(0.25, 2);
        let mut b = Circuit::named("second", 3);
        b.h(0).cx(0, 1).rz(0.25, 2);
        assert_eq!(
            a.fingerprint(),
            b.fingerprint(),
            "name must not affect the fingerprint"
        );

        // Any structural change must change the fingerprint.
        let mut wider = Circuit::new(4);
        wider.h(0).cx(0, 1).rz(0.25, 2);
        assert_ne!(a.fingerprint(), wider.fingerprint());

        let mut other_angle = Circuit::new(3);
        other_angle.h(0).cx(0, 1).rz(0.26, 2);
        assert_ne!(a.fingerprint(), other_angle.fingerprint());

        let mut other_qubit = Circuit::new(3);
        other_qubit.h(0).cx(1, 0).rz(0.25, 2);
        assert_ne!(a.fingerprint(), other_qubit.fingerprint());

        let mut shorter = Circuit::new(3);
        shorter.h(0).cx(0, 1);
        assert_ne!(a.fingerprint(), shorter.fingerprint());
    }

    #[test]
    fn fingerprint_is_stable_across_clones_and_roundtrips() {
        let c = crate::generators::qft(8);
        assert_eq!(c.fingerprint(), c.clone().fingerprint());
        // Gate-kind pairs that stringify identically must still hash apart.
        let mut x = Circuit::new(2);
        x.p(0.5, 0);
        let mut y = Circuit::new(2);
        y.rz(0.5, 0);
        assert_ne!(x.fingerprint(), y.fingerprint());
    }

    #[test]
    fn relabel_swaps_drops_swaps_and_renames_later_operands() {
        let mut c = Circuit::named("chain", 4);
        c.h(0)
            .swap(0, 1)
            .cx(1, 2)
            .swap(1, 2)
            .swap(2, 3)
            .add(GateKind::Cswap, &[3, 0, 2]);
        c.rz(0.5, 3);
        let (relabeled, perm) = c.relabel_swaps();
        assert!(matches!(relabeled, Cow::Owned(_)));
        assert_eq!(relabeled.name, "chain");
        assert_eq!(relabeled.num_qubits(), 4);
        // What starts on qubit 0 moves to 1, 2, then 3; relabeled, it stays
        // put, so qubit 3 is left at position 0.
        assert_eq!(perm, vec![1, 2, 3, 0]);
        let gates: Vec<(GateKind, Vec<Qubit>)> = relabeled
            .gates()
            .iter()
            .map(|g| (g.kind, g.qubits.clone()))
            .collect();
        assert_eq!(
            gates,
            vec![
                (GateKind::H, vec![0]),
                (GateKind::Cx, vec![0, 2]),
                (GateKind::Cswap, vec![0, 1, 3]),
                (GateKind::Rz(0.5), vec![0]),
            ],
            "a CSWAP stays a gate; only its operands are renamed"
        );
    }

    #[test]
    fn relabel_swaps_borrows_a_circuit_without_swaps() {
        let mut c = Circuit::new(3);
        c.h(0).add(GateKind::Cswap, &[0, 1, 2]);
        let (relabeled, perm) = c.relabel_swaps();
        assert!(matches!(relabeled, Cow::Borrowed(r) if std::ptr::eq(r, &c)));
        assert_eq!(perm, vec![0, 1, 2]);
    }

    #[test]
    fn relabeling_the_qft_leaves_the_qubits_reversed() {
        let qft = crate::generators::qft(7);
        let (relabeled, perm) = qft.relabel_swaps();
        assert_eq!(relabeled.num_gates(), qft.num_gates() - 3);
        assert_eq!(perm, vec![6, 5, 4, 3, 2, 1, 0]);
        assert_eq!(relabeled.gates(), &qft.gates()[..qft.num_gates() - 3]);
    }

    #[test]
    fn gate_histogram_counts_by_name() {
        let mut c = Circuit::new(3);
        c.h(0).h(1).cx(0, 1).cx(1, 2).cx(0, 2);
        let hist = c.gate_histogram();
        assert_eq!(hist, vec![("cx".to_string(), 3), ("h".to_string(), 2)]);
    }

    #[test]
    #[should_panic(expected = "references qubit")]
    fn push_rejects_out_of_range_qubit() {
        let mut c = Circuit::new(2);
        c.h(5);
    }

    #[test]
    fn extend_appends_other_circuit() {
        let mut a = Circuit::new(3);
        a.h(0);
        let mut b = Circuit::new(2);
        b.cx(0, 1);
        a.extend(&b);
        assert_eq!(a.num_gates(), 2);
    }
}
