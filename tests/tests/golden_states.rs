//! Golden state corpus: every served engine's final amplitudes, pinned
//! across commits.
//!
//! `golden_states.txt` holds one line per case — route, circuit family and
//! width → an FNV-64 over every amplitude's `to_bits` (real then imaginary
//! part, little-endian) and ‖ψ‖² — written from the engines as they stood
//! when the file was blessed. `states_match_golden` recomputes every line
//! and fails on any difference, so a change that claims to be bit-identical
//! has to be, on every route and family at once. Every case is also held to
//! within 1e-10 of the unfused `run_circuit`.
//!
//! The routes are the default one (`SimJob::new` through
//! `Scheduler::run_batch`: hier at limit n, one part swept in place), the
//! distributed engine forced at 2 and 4 ranks, the multilevel engine at 2
//! ranks, and the flat `IqsBaseline` comparator at 2 ranks.
//!
//! An intended change to the amplitudes re-blesses the file with
//! `cargo test -p hisvsim-integration-tests --test golden_states -- --ignored bless`;
//! the diff then shows exactly the rows it moved.

use hisvsim_circuit::{generators, Circuit};
use hisvsim_core::{
    BaselineConfig, DistConfig, DistributedSimulator, IqsBaseline, MultilevelConfig,
    MultilevelSimulator,
};
use hisvsim_runtime::{Scheduler, SchedulerConfig, SimJob};
use hisvsim_statevec::{run_circuit, StateVector};

const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden_states.txt");

const WIDTHS: [usize; 3] = [8, 11, 14];

/// FNV-1a over the little-endian bytes of every amplitude's `to_bits`.
fn fnv64(state: &StateVector) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for amp in state.amplitudes() {
        for part in [amp.re, amp.im] {
            for b in part.to_bits().to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    h
}

fn line(route: &str, circuit: &Circuit, state: &StateVector) -> String {
    let expected = run_circuit(circuit);
    assert!(
        state.approx_eq(&expected, 1e-10),
        "{route} {}: max |Δ| {:.3e} from run_circuit",
        circuit.name,
        state.max_abs_diff(&expected)
    );
    format!(
        "{route} {} {} -> {:016x} {:.17e}",
        circuit.name,
        circuit.num_qubits(),
        fnv64(state),
        state.norm_sqr()
    )
}

fn circuits() -> Vec<Circuit> {
    let mut out = Vec::new();
    for name in generators::FAMILY_NAMES {
        for n in WIDTHS {
            let mut circuit = generators::by_name(name, n);
            circuit.name = name.to_string();
            out.push(circuit);
        }
    }
    out
}

/// Every case of the corpus, in file order.
fn corpus() -> Vec<String> {
    let circuits = circuits();
    let mut lines = Vec::new();

    let scheduler = Scheduler::new(SchedulerConfig::default());
    let jobs = circuits.iter().cloned().map(SimJob::new).collect();
    for (circuit, result) in circuits.iter().zip(scheduler.run_batch(jobs).results) {
        let state = result.state.expect("the default scheduler retains states");
        lines.push(line("default", circuit, &state));
    }
    for ranks in [2usize, 4] {
        for circuit in &circuits {
            let run = DistributedSimulator::new(DistConfig::new(ranks))
                .run(circuit)
                .unwrap_or_else(|e| panic!("dist{ranks} {}: {e}", circuit.name));
            lines.push(line(&format!("dist{ranks}"), circuit, &run.state));
        }
    }
    for circuit in &circuits {
        let n = circuit.num_qubits();
        let arity = circuit.gates().iter().map(|g| g.arity()).max().unwrap_or(1);
        let second = (n / 2).max(arity).max(3);
        let run = MultilevelSimulator::new(MultilevelConfig::new(2, second))
            .run(circuit)
            .unwrap_or_else(|e| panic!("multilevel2 {}: {e}", circuit.name));
        lines.push(line("multilevel2", circuit, &run.state));
    }
    for circuit in &circuits {
        let run = IqsBaseline::new(BaselineConfig::new(2)).run(circuit);
        lines.push(line("baseline2", circuit, &run.state));
    }
    lines
}

fn render() -> String {
    let mut out = corpus().join("\n");
    out.push('\n');
    out
}

#[test]
fn states_match_golden() {
    let golden = std::fs::read_to_string(GOLDEN).expect("golden_states.txt is tracked");
    let fresh = render();
    let moved: Vec<String> = golden
        .lines()
        .zip(fresh.lines())
        .filter(|(g, f)| g != f)
        .map(|(g, f)| format!("  golden: {g}\n  now:    {f}"))
        .collect();
    assert!(
        moved.is_empty() && golden.lines().count() == fresh.lines().count(),
        "{} of {} golden states moved ({} lines now):\n{}",
        moved.len(),
        golden.lines().count(),
        fresh.lines().count(),
        moved.join("\n")
    );
    assert_eq!(golden, fresh);
}

/// Rewrites `golden_states.txt` from the current engines.
#[test]
#[ignore = "rewrites the tracked golden file"]
fn bless() {
    std::fs::write(GOLDEN, render()).expect("write golden_states.txt");
}
