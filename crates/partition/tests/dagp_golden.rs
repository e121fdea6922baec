//! Golden partition corpus: dagP's assignments, pinned across commits.
//!
//! `dagp_golden.txt` holds one line per case — circuit, width, limit(s) →
//! part count and an FNV-64 of `Partition::assignment()` — written from the
//! partitioner as it stood when the file was blessed. `dagp_matches_golden`
//! recomputes every line and fails on any difference, so a speed change to
//! `dagp.rs` has to produce the same partition, assignment for assignment.
//!
//! An intended change to the partitions re-blesses the file with
//! `cargo test -p hisvsim-partition --test dagp_golden -- --ignored bless`;
//! the diff then shows exactly the rows it moved.

use hisvsim_circuit::{generators, Circuit};
use hisvsim_dag::{CircuitDag, Partition};
use hisvsim_partition::{DagPConfig, DagPPartitioner, MultilevelPartitioner};

const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/dagp_golden.txt");

/// FNV-1a over each part id's little-endian `u64` bytes.
fn fnv64(assignment: &[usize]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &p in assignment {
        for b in (p as u64).to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn digest(p: &Partition) -> String {
    format!("{}:{:016x}", p.num_parts(), fnv64(p.assignment()))
}

fn single(name: &str, circuit: &Circuit, limit: usize) -> String {
    with_config("dagp", DagPConfig::default(), name, circuit, limit)
}

fn with_config(
    tag: &str,
    config: DagPConfig,
    name: &str,
    circuit: &Circuit,
    limit: usize,
) -> String {
    let dag = CircuitDag::from_circuit(circuit);
    let p = DagPPartitioner::new(config)
        .partition(&dag, limit)
        .unwrap_or_else(|e| panic!("{tag} {name} at {limit}: {e}"));
    format!(
        "{tag} {name} {} {limit} -> {}",
        circuit.num_qubits(),
        digest(&p)
    )
}

fn two_level(name: &str, circuit: &Circuit, first: usize, second: usize) -> String {
    let dag = CircuitDag::from_circuit(circuit);
    let ml = MultilevelPartitioner
        .partition(&dag, first, second)
        .unwrap_or_else(|e| panic!("multilevel {name} at {first}/{second}: {e}"));
    let inner: Vec<String> = ml.second.iter().map(|(_, p)| digest(p)).collect();
    format!(
        "multilevel {name} {} {first}/{second} -> {} | {}",
        circuit.num_qubits(),
        digest(&ml.first),
        inner.join(" ")
    )
}

/// Every case of the corpus, in file order.
fn corpus() -> Vec<String> {
    let mut lines = Vec::new();
    for name in generators::FAMILY_NAMES {
        for n in [8usize, 10, 12, 14, 16, 18] {
            let c = generators::by_name(name, n);
            let mut limits = vec![3usize, 4, 5, 7, n / 2 + 1, n - 2];
            limits.sort_unstable();
            limits.dedup();
            for limit in limits {
                lines.push(single(name, &c, limit));
            }
        }
    }
    // The benchmark shapes: `plan_cold` (11 x 3000 at limit 8) and
    // `large_random` (22 x 528 at the hier limits it is planned at), plus
    // narrower and wider random circuits.
    for seed in [1u64, 2, 3, 4] {
        let c = generators::random_circuit(11, 3000, seed);
        lines.push(single(&format!("random-s{seed}"), &c, 8));
    }
    for seed in [1u64, 2, 3] {
        let c = generators::random_circuit(22, 528, seed);
        for limit in [16usize, 21] {
            lines.push(single(&format!("random-s{seed}"), &c, limit));
        }
    }
    for (n, gates, limits) in [(16usize, 800usize, [6usize, 10]), (30, 400, [12, 20])] {
        for seed in [1u64, 2] {
            let c = generators::random_circuit(n, gates, seed);
            for limit in limits {
                lines.push(single(&format!("random-s{seed}"), &c, limit));
            }
        }
    }
    // The configuration switches: each phase off once.
    let no_coarsen = DagPConfig {
        coarsen: false,
        ..Default::default()
    };
    let no_merge = DagPConfig {
        merge: false,
        ..Default::default()
    };
    for name in generators::FAMILY_NAMES {
        let c = generators::by_name(name, 12);
        for limit in [4usize, 7] {
            lines.push(with_config("dagp-no-coarsen", no_coarsen, name, &c, limit));
            lines.push(with_config("dagp-no-merge", no_merge, name, &c, limit));
        }
    }
    let c = generators::random_circuit(11, 3000, 1);
    lines.push(with_config(
        "dagp-no-coarsen",
        no_coarsen,
        "random-s1",
        &c,
        8,
    ));
    lines.push(with_config("dagp-no-merge", no_merge, "random-s1", &c, 8));
    for (name, n, first, second) in [
        ("qft", 12, 8, 4),
        ("qft", 16, 12, 6),
        ("qaoa", 14, 10, 5),
        ("qpe", 12, 9, 5),
        ("ising", 16, 10, 6),
        ("adder", 14, 9, 4),
        ("qnn", 14, 10, 6),
        ("grover", 12, 8, 5),
    ] {
        lines.push(two_level(
            name,
            &generators::by_name(name, n),
            first,
            second,
        ));
    }
    for seed in [1u64, 2] {
        let c = generators::random_circuit(16, 800, seed);
        lines.push(two_level(&format!("random-s{seed}"), &c, 12, 6));
    }
    lines
}

fn render() -> String {
    let mut out = corpus().join("\n");
    out.push('\n');
    out
}

#[test]
fn dagp_matches_golden() {
    let golden = std::fs::read_to_string(GOLDEN).expect("dagp_golden.txt is tracked");
    let fresh = render();
    let moved: Vec<String> = golden
        .lines()
        .zip(fresh.lines())
        .filter(|(g, f)| g != f)
        .map(|(g, f)| format!("  golden: {g}\n  now:    {f}"))
        .collect();
    assert!(
        moved.is_empty() && golden.lines().count() == fresh.lines().count(),
        "{} of {} golden partitions moved ({} lines now):\n{}",
        moved.len(),
        golden.lines().count(),
        fresh.lines().count(),
        moved.join("\n")
    );
    assert_eq!(golden, fresh);
}

/// Rewrites `dagp_golden.txt` from the current partitioner.
#[test]
#[ignore = "rewrites the tracked golden file"]
fn bless() {
    std::fs::write(GOLDEN, render()).expect("write dagp_golden.txt");
}
