//! QASMBench-style benchmark circuit generators.
//!
//! The HiSVSIM paper evaluates 13 circuit configurations drawn from the
//! QASMBench suite (Table I). The suite files themselves are not vendored
//! here; instead each family is re-implemented from its defining algorithm so
//! that any register width can be generated, which is what lets the benchmark
//! harness run the paper's circuit families at laptop-scale widths while
//! keeping the same dependency structure (the property the partitioners care
//! about).
//!
//! All generators are deterministic for a given set of arguments; families
//! with random structure (QAOA's graph, BV's secret, QNN/random circuits)
//! take an explicit seed.

use crate::circuit::Circuit;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::f64::consts::PI;

/// GHZ / "Schrödinger cat" state preparation: `H` on qubit 0 followed by a
/// CNOT chain. Matches the `cat_state` benchmark.
pub fn cat_state(n: usize) -> Circuit {
    assert!(n >= 2, "cat state needs at least 2 qubits");
    let mut c = Circuit::named(format!("cat_state{n}"), n);
    c.h(0);
    for q in 0..n - 1 {
        c.cx(q, q + 1);
    }
    c
}

/// Bernstein–Vazirani circuit for an `n`-qubit register: `n - 1` data qubits
/// holding the secret string and one ancilla (the last qubit).
///
/// The secret string is derived from `seed` so different widths give
/// different but reproducible circuits.
pub fn bv(n: usize, seed: u64) -> Circuit {
    assert!(n >= 2, "bernstein-vazirani needs at least 2 qubits");
    let mut rng = StdRng::seed_from_u64(seed);
    let data = n - 1;
    let ancilla = n - 1;
    let secret: Vec<bool> = (0..data).map(|_| rng.gen_bool(0.75)).collect();
    let mut c = Circuit::named(format!("bv{n}"), n);
    // Prepare ancilla in |-> and data in |+>.
    c.x(ancilla).h(ancilla);
    for q in 0..data {
        c.h(q);
    }
    // Oracle: CX from every secret-bit qubit into the ancilla.
    for (q, &bit) in secret.iter().enumerate() {
        if bit {
            c.cx(q, ancilla);
        }
    }
    // Un-superpose the data register.
    for q in 0..data {
        c.h(q);
    }
    c
}

/// QAOA MaxCut ansatz on a random 3-regular-ish graph with `layers` of
/// (cost, mixer) blocks. Matches the structure of the `qaoa` benchmark:
/// per edge a `CX — RZ — CX` cost term, per qubit an `RX` mixer.
pub fn qaoa(n: usize, layers: usize, seed: u64) -> Circuit {
    assert!(n >= 3, "qaoa needs at least 3 qubits");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut c = Circuit::named(format!("qaoa{n}"), n);
    // Random graph: ring plus ~n/2 random chords (keeps degree low but
    // non-trivial, similar to the MaxCut instances in QASMBench) — capped at
    // the pairs the ring leaves open, or the rejection loop below could never
    // finish: the ring on 3 vertices is already complete.
    let mut edges: Vec<(usize, usize)> = (0..n).map(|i| (i, (i + 1) % n)).collect();
    let extra = (n / 2).min(n * (n - 1) / 2 - n);
    let mut added = 0;
    while added < extra {
        let a = rng.gen_range(0..n);
        let b = rng.gen_range(0..n);
        if a != b && !edges.contains(&(a, b)) && !edges.contains(&(b, a)) {
            edges.push((a.min(b), a.max(b)));
            added += 1;
        }
    }
    for q in 0..n {
        c.h(q);
    }
    for _ in 0..layers {
        let gamma: f64 = rng.gen_range(0.0..PI);
        let beta: f64 = rng.gen_range(0.0..PI);
        for &(a, b) in &edges {
            c.cx(a, b);
            c.rz(2.0 * gamma, b);
            c.cx(a, b);
        }
        for q in 0..n {
            c.rx(2.0 * beta, q);
        }
    }
    c
}

/// Counterfeit-coin finding circuit (`cc`): a query register of `n - 1`
/// qubits and one result ancilla, following the structure of the QASMBench
/// benchmark (superposed query, oracle of CNOTs onto the ancilla, measurement
/// basis change).
pub fn cc(n: usize, seed: u64) -> Circuit {
    assert!(n >= 3, "counterfeit coin needs at least 3 qubits");
    let mut rng = StdRng::seed_from_u64(seed);
    let coins = n - 1;
    let ancilla = n - 1;
    let fake = rng.gen_range(0..coins);
    let mut c = Circuit::named(format!("cc{n}"), n);
    for q in 0..coins {
        c.h(q);
    }
    // Balance oracle: every queried coin toggles the ancilla; the fake coin
    // additionally kicks back a phase through a CZ-like construction.
    for q in 0..coins {
        c.cx(q, ancilla);
    }
    c.h(ancilla);
    c.cx(fake, ancilla);
    c.h(ancilla);
    for q in 0..coins {
        c.cx(q, ancilla);
    }
    for q in 0..coins {
        c.h(q);
    }
    c
}

/// One-dimensional transverse-field Ising model Trotter evolution (`ising`):
/// `steps` Trotter steps of nearest-neighbour ZZ couplings (as CX–RZ–CX) and
/// per-qubit RX transverse-field terms.
pub fn ising(n: usize, steps: usize) -> Circuit {
    assert!(n >= 2, "ising chain needs at least 2 qubits");
    let mut c = Circuit::named(format!("ising{n}"), n);
    let dt = 0.1_f64;
    let j = 1.0_f64;
    let h_field = 2.0_f64;
    for q in 0..n {
        c.h(q);
    }
    for _ in 0..steps {
        // Even bonds then odd bonds, as in a brickwork Trotter circuit.
        for parity in 0..2 {
            let mut q = parity;
            while q + 1 < n {
                c.cx(q, q + 1);
                c.rz(-2.0 * j * dt, q + 1);
                c.cx(q, q + 1);
                q += 2;
            }
        }
        for q in 0..n {
            c.rx(-2.0 * h_field * dt, q);
        }
    }
    c
}

/// Quantum Fourier transform on `n` qubits including the final qubit-reversal
/// swaps (`qft`).
///
/// Uses the textbook construction (most-significant qubit processed first),
/// so the circuit implements the standard little-endian DFT
/// `|k⟩ → 2^{-n/2} Σ_m e^{2πi k m / 2^n} |m⟩`.
pub fn qft(n: usize) -> Circuit {
    assert!(n >= 1);
    let mut c = Circuit::named(format!("qft{n}"), n);
    for i in (0..n).rev() {
        c.h(i);
        for j in (0..i).rev() {
            let angle = PI / (1u64 << (i - j)) as f64;
            c.cp(angle, j, i);
        }
    }
    for i in 0..n / 2 {
        c.swap(i, n - 1 - i);
    }
    c
}

/// Append the inverse quantum Fourier transform on the given qubits (the
/// exact inverse of the gate sequence produced by [`qft`]).
pub fn append_inverse_qft(c: &mut Circuit, qubits: &[usize]) {
    let n = qubits.len();
    for i in 0..n / 2 {
        c.swap(qubits[i], qubits[n - 1 - i]);
    }
    for i in 0..n {
        for j in 0..i {
            let angle = -PI / (1u64 << (i - j)) as f64;
            c.cp(angle, qubits[j], qubits[i]);
        }
        c.h(qubits[i]);
    }
}

/// A layered "quantum neural network" ansatz (`qnn`): alternating layers of
/// parameterised single-qubit rotations and a linear CNOT entangler, closing
/// with a final rotation layer. Parameters are seeded.
pub fn qnn(n: usize, layers: usize, seed: u64) -> Circuit {
    assert!(n >= 2);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut c = Circuit::named(format!("qnn{n}"), n);
    for q in 0..n {
        c.h(q);
    }
    for _ in 0..layers {
        for q in 0..n {
            c.ry(rng.gen_range(0.0..PI), q);
            c.rz(rng.gen_range(0.0..PI), q);
        }
        for q in 0..n - 1 {
            c.cx(q, q + 1);
        }
    }
    for q in 0..n {
        c.ry(rng.gen_range(0.0..PI), q);
    }
    c
}

/// Append a multi-controlled X with controls `controls`, target `target`,
/// using the V-chain of Toffolis through `work` ancilla qubits.
///
/// Requires `work.len() >= controls.len().saturating_sub(2)`. The ancillas
/// are returned to their initial state (the chain is uncomputed).
pub fn append_mcx(c: &mut Circuit, controls: &[usize], target: usize, work: &[usize]) {
    match controls.len() {
        0 => {
            c.x(target);
        }
        1 => {
            c.cx(controls[0], target);
        }
        2 => {
            c.ccx(controls[0], controls[1], target);
        }
        k => {
            assert!(
                work.len() >= k - 2,
                "multi-controlled X on {k} controls needs {} work qubits, got {}",
                k - 2,
                work.len()
            );
            // Compute chain.
            c.ccx(controls[0], controls[1], work[0]);
            for i in 2..k - 1 {
                c.ccx(controls[i], work[i - 2], work[i - 1]);
            }
            c.ccx(controls[k - 1], work[k - 3], target);
            // Uncompute chain.
            for i in (2..k - 1).rev() {
                c.ccx(controls[i], work[i - 2], work[i - 1]);
            }
            c.ccx(controls[0], controls[1], work[0]);
        }
    }
}

/// Grover's search (`grover`) over a search register, an oracle ancilla, and
/// the work qubits needed by the Toffoli chain.
///
/// For an `n`-qubit circuit the register splits as: `s` search qubits, one
/// oracle ancilla, and `s - 2` work qubits where `s` is the largest value
/// satisfying `s + 1 + max(s - 2, 0) <= n`. The remaining qubits (if any) are
/// left idle. `iterations` Grover iterations are applied.
pub fn grover(n: usize, iterations: usize, seed: u64) -> Circuit {
    assert!(n >= 3, "grover needs at least 3 qubits");
    let mut rng = StdRng::seed_from_u64(seed);
    // Largest search width s such that s search qubits + 1 ancilla +
    // max(s-2, 0) Toffoli-chain work qubits fit in n.
    let fits = |s: usize| s + 1 + s.saturating_sub(2) <= n;
    let mut s = 2;
    while fits(s + 1) {
        s += 1;
    }
    let search: Vec<usize> = (0..s).collect();
    let ancilla = s;
    let work: Vec<usize> = (s + 1..n).collect();
    let marked: u64 = rng.gen_range(0..(1u64 << s));
    let mut c = Circuit::named(format!("grover{n}"), n);
    // Ancilla in |->.
    c.x(ancilla).h(ancilla);
    for &q in &search {
        c.h(q);
    }
    for _ in 0..iterations {
        // Oracle: flip ancilla when the search register equals `marked`.
        for (i, &q) in search.iter().enumerate() {
            if (marked >> i) & 1 == 0 {
                c.x(q);
            }
        }
        append_mcx(&mut c, &search, ancilla, &work);
        for (i, &q) in search.iter().enumerate() {
            if (marked >> i) & 1 == 0 {
                c.x(q);
            }
        }
        // Diffusion about the mean.
        for &q in &search {
            c.h(q);
            c.x(q);
        }
        // Multi-controlled Z on the search register via H-MCX-H on the last
        // search qubit.
        let (&last, rest) = search.split_last().unwrap();
        c.h(last);
        append_mcx(&mut c, rest, last, &work);
        c.h(last);
        for &q in &search {
            c.x(q);
            c.h(q);
        }
    }
    c
}

/// Quantum phase estimation (`qpe`): `n - 1` counting qubits estimating the
/// phase of a `P(θ)` unitary applied to one eigenstate qubit, followed by the
/// inverse QFT on the counting register.
pub fn qpe(n: usize) -> Circuit {
    assert!(n >= 3, "qpe needs at least 3 qubits");
    let counting = n - 1;
    let target = n - 1;
    // The phase 0.34375 = 11/32 is an exact 5-bit fraction, but θ = 2π·0.34375
    // is rounded once, and counting qubit q's angle θ·2^q carries 2^q times
    // that rounding (`tests/tests/ghz_bv_oracle.rs` models it exactly).
    let theta = 2.0 * PI * 0.34375;
    let mut c = Circuit::named(format!("qpe{n}"), n);
    c.x(target); // eigenstate |1> of P(θ)
    for q in 0..counting {
        c.h(q);
    }
    for q in 0..counting {
        // Controlled-U^{2^q}: a phase gate's power is a scaled phase.
        let angle = theta * (1u64 << q) as f64;
        c.cp(angle, q, target);
    }
    let counting_qubits: Vec<usize> = (0..counting).collect();
    append_inverse_qft(&mut c, &counting_qubits);
    c
}

/// Cuccaro ripple-carry adder (`adder`): adds two `k`-bit registers using one
/// carry-in and one carry-out qubit, so `n = 2k + 2`. If `n` is odd the last
/// qubit is left idle.
pub fn adder(n: usize) -> Circuit {
    assert!(n >= 4, "adder needs at least 4 qubits");
    let k = (n - 2) / 2;
    let mut c = Circuit::named(format!("adder{n}"), n);
    // Layout: cin = 0, a_i = 1 + 2i, b_i = 2 + 2i, cout = 2k + 1.
    let cin = 0;
    let a = |i: usize| 1 + 2 * i;
    let b = |i: usize| 2 + 2 * i;
    let cout = 2 * k + 1;

    // Prepare non-trivial operands so the simulation is not an identity on
    // |0...0>: put register A into superposition and set some bits of B.
    for i in 0..k {
        c.h(a(i));
        if i % 3 == 0 {
            c.x(b(i));
        }
    }

    let maj = |c: &mut Circuit, x: usize, y: usize, z: usize| {
        c.cx(z, y);
        c.cx(z, x);
        c.ccx(x, y, z);
    };
    let uma = |c: &mut Circuit, x: usize, y: usize, z: usize| {
        c.ccx(x, y, z);
        c.cx(z, x);
        c.cx(x, y);
    };

    maj(&mut c, cin, b(0), a(0));
    for i in 1..k {
        maj(&mut c, a(i - 1), b(i), a(i));
    }
    c.cx(a(k - 1), cout);
    for i in (1..k).rev() {
        uma(&mut c, a(i - 1), b(i), a(i));
    }
    uma(&mut c, cin, b(0), a(0));
    c
}

/// A random circuit of `num_gates` gates drawn from a mix of common one- and
/// two-qubit gates. Used by property tests and stress benches.
pub fn random_circuit(n: usize, num_gates: usize, seed: u64) -> Circuit {
    assert!(n >= 2);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut c = Circuit::named(format!("random{n}x{num_gates}"), n);
    for _ in 0..num_gates {
        let choice = rng.gen_range(0..10);
        let q = rng.gen_range(0..n);
        match choice {
            0 => {
                c.h(q);
            }
            1 => {
                c.x(q);
            }
            2 => {
                c.rz(rng.gen_range(0.0..PI), q);
            }
            3 => {
                c.ry(rng.gen_range(0.0..PI), q);
            }
            4 => {
                c.t(q);
            }
            5 => {
                c.s(q);
            }
            _ => {
                let mut p = rng.gen_range(0..n);
                while p == q {
                    p = rng.gen_range(0..n);
                }
                match choice {
                    6 | 7 => {
                        c.cx(q, p);
                    }
                    8 => {
                        c.cz(q, p);
                    }
                    _ => {
                        c.cp(rng.gen_range(0.0..PI), q, p);
                    }
                }
            }
        }
    }
    c
}

/// The benchmark families evaluated in the paper, by canonical name.
pub const FAMILY_NAMES: &[&str] = &[
    "cat_state",
    "bv",
    "qaoa",
    "cc",
    "ising",
    "qft",
    "qnn",
    "grover",
    "qpe",
    "adder",
];

/// Build a benchmark circuit by family name at the requested width.
///
/// The per-family depth parameters are chosen so that the gate counts scale
/// like the paper's Table I configurations. Unknown names panic.
pub fn by_name(name: &str, n: usize) -> Circuit {
    match name {
        "cat_state" => cat_state(n),
        "bv" => bv(n, 0xB5),
        "qaoa" => qaoa(n, 2, 0xA0A),
        "cc" => cc(n, 0xCC),
        "ising" => ising(n, 3),
        "qft" => qft(n),
        "qnn" => qnn(n, 2, 0x99),
        "grover" => grover(n, 1, 0x6F),
        "qpe" => qpe(n),
        "adder" => adder(n),
        other => panic!("unknown benchmark family: {other}"),
    }
}

/// One row of the paper's Table I: a named circuit configuration.
#[derive(Debug, Clone)]
pub struct BenchConfig {
    /// Family name (e.g. `"bv"`).
    pub family: &'static str,
    /// Human-readable description (as in Table I).
    pub description: &'static str,
    /// Qubit count used in the paper.
    pub paper_qubits: usize,
    /// Gate count reported in the paper.
    pub paper_gates: usize,
    /// State-vector memory reported in the paper.
    pub paper_memory: &'static str,
    /// Qubit count used by this reproduction (scaled down to fit one machine).
    pub repro_qubits: usize,
}

/// The 13 circuit configurations of Table I, with the scaled-down widths used
/// by the reproduction harness.
pub fn paper_suite() -> Vec<BenchConfig> {
    vec![
        BenchConfig {
            family: "cat_state",
            description: "Coherent superposition",
            paper_qubits: 30,
            paper_gates: 60,
            paper_memory: "16 GB",
            repro_qubits: 20,
        },
        BenchConfig {
            family: "bv",
            description: "Bernstein-Vazirani algorithm",
            paper_qubits: 30,
            paper_gates: 102,
            paper_memory: "16 GB",
            repro_qubits: 20,
        },
        BenchConfig {
            family: "qaoa",
            description: "Quantum approx. optimization",
            paper_qubits: 30,
            paper_gates: 1380,
            paper_memory: "16 GB",
            repro_qubits: 20,
        },
        BenchConfig {
            family: "cc",
            description: "Counterfeit coin finding",
            paper_qubits: 30,
            paper_gates: 149,
            paper_memory: "16 GB",
            repro_qubits: 20,
        },
        BenchConfig {
            family: "ising",
            description: "Quantum simulation for ising model",
            paper_qubits: 30,
            paper_gates: 354,
            paper_memory: "16 GB",
            repro_qubits: 20,
        },
        BenchConfig {
            family: "qft",
            description: "Quantum Fourier transform",
            paper_qubits: 30,
            paper_gates: 2235,
            paper_memory: "16 GB",
            repro_qubits: 20,
        },
        BenchConfig {
            family: "qnn",
            description: "Quantum neural network",
            paper_qubits: 31,
            paper_gates: 164,
            paper_memory: "32 GB",
            repro_qubits: 21,
        },
        BenchConfig {
            family: "grover",
            description: "Grover's algorithm",
            paper_qubits: 31,
            paper_gates: 207,
            paper_memory: "32 GB",
            repro_qubits: 21,
        },
        BenchConfig {
            family: "qpe",
            description: "Quantum phase estimation",
            paper_qubits: 31,
            paper_gates: 5731,
            paper_memory: "32 GB",
            repro_qubits: 21,
        },
        BenchConfig {
            family: "bv",
            description: "Bernstein-Vazirani algorithm",
            paper_qubits: 35,
            paper_gates: 119,
            paper_memory: "512 GB",
            repro_qubits: 23,
        },
        BenchConfig {
            family: "ising",
            description: "Quantum simulation for ising model",
            paper_qubits: 35,
            paper_gates: 414,
            paper_memory: "512 GB",
            repro_qubits: 23,
        },
        BenchConfig {
            family: "cc",
            description: "Counterfeit coin finding",
            paper_qubits: 36,
            paper_gates: 106,
            paper_memory: "1 TB",
            repro_qubits: 24,
        },
        BenchConfig {
            family: "adder",
            description: "Quantum Ripple-Carry adder",
            paper_qubits: 37,
            paper_gates: 154,
            paper_memory: "2 TB",
            repro_qubits: 24,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::GateKind;

    #[test]
    fn cat_state_structure() {
        let c = cat_state(10);
        assert_eq!(c.num_qubits(), 10);
        assert_eq!(c.num_gates(), 10); // 1 H + 9 CX
        assert_eq!(c.gates()[0].kind, GateKind::H);
        assert!(c.gates()[1..].iter().all(|g| g.kind == GateKind::Cx));
    }

    #[test]
    fn bv_uses_every_data_qubit() {
        let c = bv(12, 7);
        assert_eq!(c.num_qubits(), 12);
        let used = c.used_qubits();
        assert!(used.contains(&11)); // ancilla
                                     // All data qubits get the two H's even if not part of the secret.
        assert_eq!(used.len(), 12);
    }

    #[test]
    fn bv_is_deterministic_per_seed() {
        assert_eq!(bv(10, 3), bv(10, 3));
        assert_ne!(bv(10, 3), bv(10, 4));
    }

    #[test]
    fn qaoa_gate_count_scales_with_layers() {
        let one = qaoa(10, 1, 1);
        let two = qaoa(10, 2, 1);
        assert!(two.num_gates() > one.num_gates());
        assert_eq!(one.num_qubits(), 10);
    }

    #[test]
    fn qaoa_places_only_the_chords_the_ring_leaves_room_for() {
        // The ring on 3 vertices is complete: no chord fits, and the
        // generator used to look for one forever.
        let fingerprints = [
            None,
            Some(0x8b5b_eb09_b03d_013d_u64),
            Some(0xf9d5_0dee_3228_a7bd),
            Some(0x768f_66da_d9c3_11bf),
            Some(0x35cc_1b25_0597_3a37),
            Some(0xde46_b234_ac36_0f85),
        ];
        for (n, pinned) in (3usize..=8).zip(fingerprints) {
            let c = qaoa(n, 2, 7);
            let edges = n + (n / 2).min(n * (n - 1) / 2 - n);
            assert_eq!(c.num_gates(), n + 2 * (3 * edges + n), "qaoa{n}");
            // Widths that always terminated keep their gate sequence.
            if let Some(fingerprint) = pinned {
                assert_eq!(c.fingerprint(), fingerprint, "qaoa{n}");
            }
        }

        // qaoa(10, 2, 7), gate for gate: the ring, then the five chords in
        // the order drawn; the fingerprint pins the two angles per layer.
        let c = qaoa(10, 2, 7);
        let chords = [(4, 7), (3, 6), (2, 8), (0, 4), (1, 7)];
        let edges: Vec<(usize, usize)> = (0..10).map(|i| (i, (i + 1) % 10)).chain(chords).collect();
        let mut gates = c.gates().iter();
        let mut expect = |kind: &str, qubits: &[usize]| {
            let gate = gates.next().expect("the circuit ended early");
            assert_eq!((gate.kind.name(), &gate.qubits[..]), (kind, qubits));
        };
        for q in 0..10 {
            expect("h", &[q]);
        }
        for _layer in 0..2 {
            for &(a, b) in &edges {
                expect("cx", &[a, b]);
                expect("rz", &[b]);
                expect("cx", &[a, b]);
            }
            for q in 0..10 {
                expect("rx", &[q]);
            }
        }
        assert!(gates.next().is_none());
        assert_eq!(c.fingerprint(), 0x5e47_c88f_7f17_e139);
    }

    #[test]
    fn ising_touches_all_qubits_and_is_layered() {
        let c = ising(8, 3);
        assert_eq!(c.used_qubits().len(), 8);
        // 8 H + per step: 7 bonds * 3 gates + 8 RX = 29 -> 8 + 3*29 = 95
        assert_eq!(c.num_gates(), 95);
    }

    #[test]
    fn qft_gate_count_formula() {
        let n = 8;
        let c = qft(n);
        // n H + n(n-1)/2 controlled-phase + floor(n/2) swaps
        assert_eq!(c.num_gates(), n + n * (n - 1) / 2 + n / 2);
    }

    #[test]
    fn qpe_ends_with_inverse_qft_on_counting_register() {
        let c = qpe(6);
        assert_eq!(c.num_qubits(), 6);
        assert!(c.num_gates() > 10);
        // The eigenstate qubit is prepared with an X first.
        assert_eq!(c.gates()[0].kind, GateKind::X);
        assert_eq!(c.gates()[0].qubits, vec![5]);
    }

    #[test]
    fn grover_fits_requested_width() {
        for n in [3, 5, 8, 13, 21] {
            let c = grover(n, 1, 42);
            assert_eq!(c.num_qubits(), n);
            assert!(c.num_gates() > 0, "grover({n}) is empty");
        }
    }

    #[test]
    fn mcx_work_qubit_requirement_enforced() {
        let mut c = Circuit::new(6);
        // 3 controls need exactly 1 work qubit; this must succeed and the
        // chain must be uncomputed (equal numbers of each Toffoli).
        append_mcx(&mut c, &[0, 1, 2], 5, &[4]);
        assert_eq!(c.num_gates(), 3);
        assert!(c.gates().iter().all(|g| g.kind == GateKind::Ccx));
    }

    #[test]
    #[should_panic(expected = "work qubits")]
    fn mcx_panics_without_enough_work_qubits() {
        let mut c = Circuit::new(6);
        append_mcx(&mut c, &[0, 1, 2, 3, 4], 5, &[]);
    }

    #[test]
    fn adder_width_and_gate_mix() {
        let c = adder(10); // k = 4
        assert_eq!(c.num_qubits(), 10);
        let hist = c.gate_histogram();
        let ccx = hist
            .iter()
            .find(|(n, _)| n == "ccx")
            .map(|(_, c)| *c)
            .unwrap();
        assert_eq!(ccx, 8); // 2 per MAJ/UMA pair, k pairs
    }

    #[test]
    fn random_circuit_is_reproducible() {
        assert_eq!(random_circuit(6, 40, 9), random_circuit(6, 40, 9));
        assert_eq!(random_circuit(6, 40, 9).num_gates(), 40);
    }

    #[test]
    fn by_name_builds_every_family() {
        for name in FAMILY_NAMES {
            let c = by_name(name, 8);
            assert_eq!(c.num_qubits(), 8, "{name} has wrong width");
            assert!(c.num_gates() > 0, "{name} is empty");
        }
    }

    #[test]
    #[should_panic(expected = "unknown benchmark family")]
    fn by_name_rejects_unknown() {
        let _ = by_name("nope", 8);
    }

    #[test]
    fn paper_suite_matches_table1_shape() {
        let suite = paper_suite();
        assert_eq!(suite.len(), 13);
        assert_eq!(suite.iter().filter(|c| c.paper_qubits >= 35).count(), 4);
        // Every family name resolves.
        for cfg in &suite {
            let c = by_name(cfg.family, cfg.repro_qubits.min(12));
            assert!(c.num_gates() > 0);
        }
    }
}
