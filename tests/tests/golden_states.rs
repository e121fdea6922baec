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
//! distributed engine forced at 1, 2 and 4 ranks, the multilevel engine at 2
//! ranks, and the flat `IqsBaseline` comparator at 2 ranks. At 14 qubits
//! and below the state is one tile and every pass is one op, so the rows
//! that pin strided tile walks (passes whose tiles gather chunks from above
//! the tile's bits) are wider: `hier12` (every family at 17 qubits, limit
//! 12), `dist1` at the same width and limit (bit-identical to `hier12`), and
//! `multilevel2` on three circuits at 19 qubits with second limit 12.
//!
//! An intended change to the amplitudes re-blesses the file with
//! `cargo test -p hisvsim-integration-tests --test golden_states -- --ignored bless`;
//! the diff then shows exactly the rows it moved. A second bless must be
//! byte-identical. A change may move a row only under three conditions:
//! - the moved row stays within 1e-10 of `run_circuit` (checked here);
//! - it passes the closed-form oracle where one exists (`qft_oracle.rs`,
//!   and `ghz_bv_oracle.rs` for GHZ, BV, the adder and QPE);
//! - the change lists each moved row and why it moved, for instance that
//!   fused ops now round in another order because the plan groups the
//!   gates differently.

use hisvsim_circuit::{generators, Circuit};
use hisvsim_core::{
    BaselineConfig, DistConfig, DistributedSimulator, HierConfig, HierarchicalSimulator,
    IqsBaseline, MultilevelConfig, MultilevelSimulator,
};
use hisvsim_runtime::{Scheduler, SchedulerConfig, SimJob};
use hisvsim_statevec::{fusion, run_circuit, StateVector};

const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden_states.txt");

const WIDTHS: [usize; 3] = [8, 11, 14];

/// Two tiles: the narrowest state whose passes may be strided.
const WIDE: usize = 17;
/// Working-set limit of the wide rows (and second limit of the widest).
const WIDE_LIMIT: usize = 12;
/// Width of the wide multilevel rows: 18 local qubits on each of 2 ranks.
const WIDEST: usize = 19;

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
    line_against(route, circuit, state, &run_circuit(circuit))
}

/// [`line`] against a reference state computed once for several routes.
fn line_against(
    route: &str,
    circuit: &Circuit,
    state: &StateVector,
    expected: &StateVector,
) -> String {
    assert!(
        state.approx_eq(expected, 1e-10),
        "{route} {}: max |Δ| {:.3e} from run_circuit",
        circuit.name,
        state.max_abs_diff(expected)
    );
    format!(
        "{route} {} {} -> {:016x} {:.17e}",
        circuit.name,
        circuit.num_qubits(),
        fnv64(state),
        state.norm_sqr()
    )
}

fn families(widths: &[usize]) -> Vec<Circuit> {
    let mut out = Vec::new();
    for name in generators::FAMILY_NAMES {
        for &n in widths {
            let mut circuit = generators::by_name(name, n);
            circuit.name = name.to_string();
            out.push(circuit);
        }
    }
    out
}

/// The wide multilevel circuits: two families and a deep random one.
fn widest_circuits() -> Vec<Circuit> {
    let mut random = generators::random_circuit(WIDEST, 24 * WIDEST, 19);
    random.name = "random".to_string();
    let mut out: Vec<Circuit> = ["qft", "qaoa"]
        .into_iter()
        .map(|name| {
            let mut circuit = generators::by_name(name, WIDEST);
            circuit.name = name.to_string();
            circuit
        })
        .collect();
    out.push(random);
    out
}

/// Strided passes run process-wide while `rows` runs, with what it
/// returns.
fn striding<T>(rows: impl FnOnce() -> T) -> (T, u64) {
    let before = fusion::strided_passes();
    let out = rows();
    (out, fusion::strided_passes() - before)
}

/// Every case of the corpus, in file order.
fn corpus() -> Vec<String> {
    let circuits = families(&WIDTHS);
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

    let wide = families(&[WIDE]);
    let wide_expected: Vec<StateVector> = wide.iter().map(run_circuit).collect();
    let (hier, strided) = striding(|| {
        let sim = HierarchicalSimulator::new(HierConfig::new(WIDE_LIMIT));
        let runs = wide
            .iter()
            .map(|circuit| sim.run(circuit).expect("hier12 plans"));
        runs.map(|run| run.state).collect::<Vec<_>>()
    });
    assert!(strided > 0, "the hier12 rows run no strided pass");
    for ((circuit, state), expected) in wide.iter().zip(&hier).zip(&wide_expected) {
        lines.push(line_against("hier12", circuit, state, expected));
    }
    for circuit in &circuits {
        let run = DistributedSimulator::new(DistConfig::new(1))
            .run(circuit)
            .unwrap_or_else(|e| panic!("dist1 {}: {e}", circuit.name));
        lines.push(line("dist1", circuit, &run.state));
    }
    for ((circuit, expected), hier) in wide.iter().zip(&wide_expected).zip(&hier) {
        let run = DistributedSimulator::new(DistConfig::new(1).with_limit(WIDE_LIMIT))
            .run(circuit)
            .unwrap_or_else(|e| panic!("dist1 {}: {e}", circuit.name));
        // A one-rank world runs a single-level plan as hier does.
        assert_eq!(&run.state, hier, "dist1 {} is not hier12", circuit.name);
        lines.push(line_against("dist1", circuit, &run.state, expected));
    }
    let widest = widest_circuits();
    let (states, strided) = striding(|| {
        let sim = MultilevelSimulator::new(MultilevelConfig::new(2, WIDE_LIMIT));
        let runs = widest
            .iter()
            .map(|circuit| sim.run(circuit).expect("multilevel2 plans"));
        runs.map(|run| run.state).collect::<Vec<_>>()
    });
    assert!(strided > 0, "the wide multilevel2 rows run no strided pass");
    for (circuit, state) in widest.iter().zip(&states) {
        lines.push(line("multilevel2", circuit, state));
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
