//! Per-kernel microbenchmark: every sweep kernel the engines drive — the
//! dense family at k = 1..=5 (dense and half-sparse matrices), the
//! permutation and phase gates, the qubit reversal
//! (`StateVector::permute_qubits`), the diagonal-run pass, gather/scatter — next
//! to an in-place scale of the same slice (the floor any in-place sweep pays),
//! at 2^16 (one L2 tile), 2^21 and 2^24 amplitudes, forced-scalar vs auto
//! dispatch, one thread vs the default pool; and the distributed engines'
//! part-switch exchange (`DistState::redistribute`) at 2^20 amplitudes per
//! rank on 2 and 4 thread-world ranks, next to as many threads gathering and
//! scattering one such slice each; and the crossover that
//! `ApplyOptions::default().parallel_threshold` is set from — a few kernels
//! forced onto the pool next to one thread at 2^14..2^20 amplitudes. Recorded
//! in `BENCH_kernels.json` with a description of the host it ran on.
//!
//! ```text
//! cargo run --release -p hisvsim-bench --bin kernel_microbench [reps]
//! cargo run --release -p hisvsim-bench --bin kernel_microbench -- --check
//! ```
//!
//! Default: best-of-3. Each kernel is benchmarked through the public sweep
//! API so the numbers measure exactly what the engines execute, dispatch
//! resolution included.
//!
//! `--check` is the CI ratio guard: at 2^16 amplitudes on one thread, each
//! kernel's time divided by the in-place scale's time *measured seconds apart
//! in the same process* must stay under its budget (with
//! [`CHECK_SLACK`]); the process exits non-zero otherwise. Being a ratio of
//! two loops over the same L2-resident slice, it does not care how fast the
//! runner is. The exchange rows are held the same way to a multiple of the
//! gather/scatter beside them, and a default-options sweep at exactly
//! `parallel_threshold` amplitudes to the same sweep on one thread (the
//! threshold is where the pool stops losing). It writes no file.

use hisvsim_circuit::{Circuit, Complex64, GateKind, Qubit, UnitaryMatrix};
use hisvsim_cluster::{run_spmd, NetworkModel};
use hisvsim_core::DistState;
use hisvsim_statevec::{
    kernels, simd_available, ApplyOptions, FusedCircuit, FusedOp, GatherMap, KernelDispatch,
    StateVector,
};
use serde::Serialize;
use serde_json::Value;
use std::time::Instant;

// The host block and the triad are the ones `hisvsim-bench` writes, so the
// two ledgers describe a machine the same way.
#[allow(dead_code)]
#[path = "hisvsim-bench/host.rs"]
mod host;

/// What `host.rs` asks of its crate root.
mod layers {
    pub fn resolved_kernel_dispatch() -> &'static str {
        hisvsim_statevec::KernelDispatch::Auto.resolved_name()
    }
}

/// How far over its budget a kernel may measure before `--check` fails.
const CHECK_SLACK: f64 = 1.5;

#[derive(Serialize)]
struct KernelCase {
    kernel: String,
    qubits: usize,
    /// `single` (one thread) or `default` (the rayon pool).
    pool: &'static str,
    /// Threads that pool has here.
    threads: usize,
    /// Wall seconds per sweep, forced-scalar dispatch (best of reps).
    scalar_s: f64,
    /// Wall seconds per sweep, auto dispatch (best of reps).
    auto_s: f64,
    /// Effective scalar bandwidth: bytes read + written per sweep.
    scalar_gbps: f64,
    /// Effective auto-dispatch bandwidth.
    auto_gbps: f64,
    speedup: f64,
    /// Auto-dispatch cycles per amplitude of the slice at the nominal clock.
    cycles_per_amp: f64,
    /// Auto-dispatch time over the in-place scale (the `scale` row) of the
    /// same slice on the same pool.
    over_scale: f64,
    /// What `--check` holds `over_scale` to, on one thread at 2^16 (none for
    /// the floor itself, nor for SIMD budgets when auto resolves to scalar).
    budget: Option<f64>,
}

/// One part-switch exchange of the distributed engines.
#[derive(Serialize)]
struct ExchangeCase {
    exchange: &'static str,
    /// Qubits of each rank's slice.
    local_qubits: usize,
    ranks: usize,
    /// Wall seconds of one `DistState::redistribute`, first rank in to last
    /// rank out, best of reps (the ranks are threads of this process sharing
    /// its cores).
    seconds: f64,
    /// Cycles per amplitude of one rank's slice at the nominal clock.
    cycles_per_amp: f64,
    /// Wall seconds of `ranks` threads each gathering and scattering one such
    /// slice at the same time, first in to last out, best of reps.
    gather_scatter_s: f64,
    /// `seconds` over `gather_scatter_s`.
    over_gather_scatter: f64,
    /// What `--check` holds `over_gather_scatter` to; none where the ranks
    /// outnumber the host's cores (ranks wait for each other at the
    /// all-to-all, so taking turns costs them more than it costs independent
    /// gather/scatters).
    budget: Option<f64>,
}

/// One kernel at one width, on the pool and on one thread: the rows
/// `ApplyOptions::default().parallel_threshold` is decided from.
#[derive(Serialize)]
struct ThresholdCase {
    kernel: String,
    qubits: usize,
    /// Threads the pool has here.
    threads: usize,
    /// Wall seconds per sweep under `ApplyOptions::sequential()`.
    sequential_s: f64,
    /// Wall seconds per sweep with `parallel_threshold: 1` (always the pool).
    pool_s: f64,
    /// `pool_s` over `sequential_s`: above 1 the pool loses at this width.
    pool_over_sequential: f64,
}

struct Report {
    host: Value,
    reps: usize,
    nominal_ghz: f64,
    kernels: Vec<KernelCase>,
    exchanges: Vec<ExchangeCase>,
    thresholds: Vec<ThresholdCase>,
}

impl Serialize for Report {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("host".into(), self.host.clone()),
            ("reps".into(), Value::Int(self.reps as i128)),
            (
                "auto_resolves_to".into(),
                Value::Str(KernelDispatch::Auto.resolved_name().into()),
            ),
            ("simd_available".into(), Value::Bool(simd_available())),
            ("nominal_ghz".into(), Value::Float(self.nominal_ghz)),
            ("check_slack".into(), Value::Float(CHECK_SLACK)),
            ("kernels".into(), serde_json::to_value(&self.kernels)),
            ("exchanges".into(), serde_json::to_value(&self.exchanges)),
            (
                "parallel_threshold".into(),
                Value::Int(ApplyOptions::default().parallel_threshold as i128),
            ),
            ("thresholds".into(), serde_json::to_value(&self.thresholds)),
        ])
    }
}

/// A deterministic pseudo-random normalized state (splitmix64 amplitudes),
/// so no kernel ever streams the all-zeros fast case.
fn random_state(num_qubits: usize, seed: u64) -> StateVector {
    let mut s = seed;
    let mut next = move || -> u64 {
        s = s.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = s;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let mut uniform = move || (next() >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
    let amps = (0..1usize << num_qubits)
        .map(|_| Complex64::new(uniform(), uniform()))
        .collect();
    let mut state = StateVector::from_amplitudes(amps);
    state.normalize();
    state
}

/// Best-of-`reps` wall time of `f` after one warmup call. Sweeps over small
/// slices are repeated inside one timing so the clock reads milliseconds.
fn time_best<F: FnMut()>(reps: usize, amps: usize, mut f: F) -> f64 {
    let inner = ((1usize << 21) / amps).max(1);
    f();
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let start = Instant::now();
        for _ in 0..inner {
            f();
        }
        best = best.min(start.elapsed().as_secs_f64() / inner as f64);
    }
    best
}

/// The single fused op a small generator circuit collapses to — how each
/// fused-path kernel (two-qubit dense, prepared k-qubit, diagonal run) is
/// benchmarked in exactly the form the executor drives it.
fn single_fused_op(build: impl FnOnce(&mut Circuit), num_qubits: usize, width: usize) -> FusedOp {
    let mut circuit = Circuit::new(num_qubits);
    build(&mut circuit);
    let fused = FusedCircuit::new(&circuit, width);
    assert_eq!(
        fused.num_ops(),
        1,
        "microbench circuit must fuse to exactly one op, got {}",
        fused.num_ops()
    );
    fused.ops()[0].clone()
}

/// A `2^k`-dimensional matrix with no zero entry (a Kronecker product of
/// rotations), or the same with one factor replaced by the identity — half
/// its entries zero, the fill a group holding a CX typically has.
fn kron_matrix(k: usize, half_sparse: bool) -> UnitaryMatrix {
    (1..k).fold(GateKind::Ry(0.7).matrix(), |m, j| {
        let factor = match (half_sparse, j) {
            (true, 1) => GateKind::I.matrix(),
            _ => GateKind::Ry(0.4 + 0.3 * j as f64).matrix(),
        };
        m.kron(&factor)
    })
}

/// One sweep of a state under the given options.
type Sweep = Box<dyn FnMut(&mut StateVector, &ApplyOptions)>;

/// One row of the benchmark: a sweep, the bytes it moves per amplitude of
/// the slice, and the budget its time over the in-place scale is held to.
struct Kernel {
    name: String,
    /// Bytes read + written per amplitude (32 for an in-place sweep).
    bytes_per_amp: f64,
    /// `(budget, holds only for the SIMD kernels)`.
    budget: Option<(f64, bool)>,
    /// Whether the options change anything (gather/scatter is a plain copy
    /// loop: one thread, one dispatch).
    takes_options: bool,
    sweep: Sweep,
}

fn kernel(
    name: &str,
    budget: Option<(f64, bool)>,
    sweep: impl FnMut(&mut StateVector, &ApplyOptions) + 'static,
) -> Kernel {
    Kernel {
        name: name.to_string(),
        bytes_per_amp: 32.0,
        budget,
        takes_options: true,
        sweep: Box::new(sweep),
    }
}

/// Every row, for an `n`-qubit state. Operands sit on qubit 1, the middle
/// and near the top — no placement a kernel could special-case.
fn kernels_for(n: usize) -> Vec<Kernel> {
    let mid = n / 2;
    let simd = |budget: f64| Some((budget, true));
    let any = |budget: f64| Some((budget, false));
    let mut rows = Vec::new();

    // The floor: multiply every amplitude by one constant, through the
    // phase kernel (a diagonal gate with two equal entries) — the memory
    // traffic of an in-place sweep with one complex multiply on top, under
    // the same dispatch and pool as the row it is compared with.
    let factor = Complex64::cis(0.3);
    rows.push(kernel("scale", None, move |s, o| {
        kernels::apply_diagonal_single(s, n - 1, factor, factor, o)
    }));

    // Dense family. `single_*`, `two_qubit_dense` and `k_qubit_prepared` keep
    // their names from earlier ledgers; the `k*_dense` / `k*_half` rows are
    // the whole family on one footing.
    let gate_on = |kind: GateKind, qubits: Vec<Qubit>| hisvsim_circuit::Gate::new(kind, qubits);
    let h_mid = gate_on(GateKind::H, vec![mid]);
    rows.push(kernel("single_mid", simd(2.0), move |s, o| {
        kernels::apply_gate_with(s, &h_mid, o)
    }));
    let h0 = gate_on(GateKind::H, vec![0]);
    rows.push(kernel("single_q0", simd(2.0), move |s, o| {
        kernels::apply_gate_with(s, &h0, o)
    }));
    let two = single_fused_op(
        |c| {
            c.h(1).h(mid).cx(1, mid);
        },
        n,
        2,
    );
    rows.push(kernel("two_qubit_dense", simd(3.5), move |s, o| {
        two.apply(s, o)
    }));
    let three = single_fused_op(
        |c| {
            c.h(1).h(mid).h(n - 2).cx(1, mid).cx(mid, n - 2);
        },
        n,
        3,
    );
    rows.push(kernel("k_qubit_prepared", simd(7.0), move |s, o| {
        three.apply(s, o)
    }));
    let operands = [1, mid, n - 2, 3, mid + 2];
    for (k, budget) in [(2usize, 3.5), (3, 7.0), (4, 14.0), (5, 28.0)] {
        for (suffix, half_sparse) in [("dense", false), ("half", true)] {
            let matrix = kron_matrix(k, half_sparse);
            let qubits = operands[..k].to_vec();
            rows.push(kernel(
                &format!("k{k}_{suffix}"),
                simd(budget),
                move |s, o| kernels::apply_k_qubit(s, &qubits, &matrix, o),
            ));
        }
    }

    // Permutations: data movement only, so the budget holds either way.
    rows.push(kernel("cx", any(1.5), move |s, o| {
        kernels::apply_cx(s, 1, mid, o)
    }));
    rows.push(kernel("x", any(1.5), move |s, o| {
        kernels::apply_x(s, mid, o)
    }));
    rows.push(kernel("swap", any(1.5), move |s, o| {
        kernels::apply_swap(s, 1, mid, o)
    }));
    // The qubit reversal a relabeled QFT ends with: one pass through two
    // tile buffers, the buffers transposed. It takes no options: it sweeps on
    // the pool it is called in, so a one-thread row installs one thread.
    let reversal: Vec<Qubit> = (0..n).rev().collect();
    let one_thread = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("a one-thread pool");
    rows.push(kernel("permute", any(4.0), move |s, o| match o.parallel {
        true => s.permute_qubits(&reversal),
        false => one_thread.install(|| s.permute_qubits(&reversal)),
    }));

    // Phase gates: T leaves half the state alone, Rz none of it.
    rows.push(kernel("cz", simd(1.5), move |s, o| {
        kernels::apply_cz(s, 1, mid, o)
    }));
    let t = Complex64::cis(std::f64::consts::FRAC_PI_4);
    rows.push(kernel("diag_single_t", simd(1.5), move |s, o| {
        kernels::apply_diagonal_single(s, mid, Complex64::ONE, t, o)
    }));
    let (d0, d1) = (Complex64::cis(-0.3), Complex64::cis(0.3));
    rows.push(kernel("diag_single_rz", simd(1.5), move |s, o| {
        kernels::apply_diagonal_single(s, mid, d0, d1, o)
    }));

    // Diagonal runs: a collapsed streak of unrelated phase factors, and the
    // controlled-phase cascade onto one target that the QFT is made of.
    let diag = single_fused_op(
        |c| {
            c.rz(0.3, 1).rz(0.7, mid).cp(0.5, 1, mid).rz(1.1, n - 2);
        },
        n,
        3,
    );
    rows.push(kernel("diagonal_run", simd(3.0), move |s, o| {
        diag.apply(s, o)
    }));
    let cascade = single_fused_op(
        |c| {
            for q in 0..n - 1 {
                c.cp(0.1 + 0.01 * q as f64, q, n - 1);
            }
        },
        n,
        3,
    );
    rows.push(kernel("diagonal_cascade", simd(3.0), move |s, o| {
        cascade.apply(s, o)
    }));

    rows.push(gather_scatter(n));
    rows
}

/// Gather then scatter every assignment of a part that leaves the four
/// highest qubits free: each amplitude is read and written twice, so two
/// in-place passes are its floor and the budget allows twice that.
fn gather_scatter(n: usize) -> Kernel {
    let part: Vec<Qubit> = (0..n - 4).collect();
    let map = GatherMap::new(n, &part);
    let mut inner = StateVector::zero_state(map.inner_qubits());
    Kernel {
        bytes_per_amp: 64.0,
        takes_options: false,
        ..kernel("gather_scatter", Some((4.0, false)), move |s, _| {
            for assignment in 0..1usize << map.num_free_qubits() {
                map.gather_into(s, assignment, &mut inner);
                map.scatter(&inner, s, assignment);
            }
        })
    }
}

/// Nominal clock in GHz: the `@ x.yzGHz` of the model name, else the
/// `cpu MHz` the kernel reports.
fn nominal_ghz() -> f64 {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let field = |key: &str| {
        cpuinfo
            .lines()
            .find(|line| line.starts_with(key))
            .and_then(|line| line.split_once(':'))
            .map(|(_, value)| value.trim().to_string())
    };
    field("model name")
        .and_then(|model| {
            let (_, clock) = model.rsplit_once('@')?;
            clock.trim().strip_suffix("GHz")?.trim().parse().ok()
        })
        .or_else(|| Some(field("cpu MHz")?.parse::<f64>().ok()? / 1000.0))
        .unwrap_or(1.0)
}

/// Measure every kernel of an `n`-qubit state under `threads` (1 or the
/// default pool) and both dispatches.
fn measure(n: usize, default_pool: bool, reps: usize, ghz: f64) -> Vec<KernelCase> {
    let amps = 1usize << n;
    let mut state = random_state(n, 0xBE_4C4 ^ n as u64);
    let base = if default_pool {
        ApplyOptions::default()
    } else {
        ApplyOptions::sequential()
    };
    let threads = if default_pool {
        rayon::current_num_threads()
    } else {
        1
    };
    let mut cases: Vec<KernelCase> = Vec::new();
    for mut row in kernels_for(n) {
        if default_pool && !row.takes_options {
            continue;
        }
        let mut time = |dispatch| {
            let opts = base.with_dispatch(dispatch);
            time_best(reps, amps, || (row.sweep)(&mut state, &opts))
        };
        let auto_s = time(KernelDispatch::Auto);
        let scalar_s = match row.takes_options {
            true => time(KernelDispatch::Scalar),
            false => auto_s,
        };
        let bytes = amps as f64 * row.bytes_per_amp;
        // The floor is the first row.
        let scale_s = cases.first().map_or(auto_s, |scale| scale.auto_s);
        let case = KernelCase {
            kernel: row.name,
            qubits: n,
            pool: if default_pool { "default" } else { "single" },
            threads,
            scalar_s,
            auto_s,
            scalar_gbps: bytes / scalar_s / 1e9,
            auto_gbps: bytes / auto_s / 1e9,
            speedup: scalar_s / auto_s,
            cycles_per_amp: auto_s * ghz * 1e9 / amps as f64,
            over_scale: auto_s / scale_s,
            budget: row
                .budget
                .filter(|&(_, simd_only)| !simd_only || simd_available())
                .map(|(budget, _)| budget),
        };
        println!(
            "{:18} 2^{n} x{threads}: scalar {:8.3} ms, auto {:8.3} ms ({:6.2} GB/s, {:5.2} cyc/amp) {:5.2}x scalar, {:5.2}x scale{}",
            case.kernel,
            scalar_s * 1e3,
            auto_s * 1e3,
            case.auto_gbps,
            case.cycles_per_amp,
            case.speedup,
            case.over_scale,
            case.budget
                .map_or(String::new(), |b| format!(" (budget {b})")),
        );
        cases.push(case);
    }
    cases
}

/// Slice width of the exchange rows.
const EXCHANGE_LOCAL_QUBITS: usize = 20;

/// An exchange may take this many gather/scatters of the same slices on the
/// same threads: it packs and unpacks every amplitude once, as a
/// gather/scatter does, but through buffers that leave the cache in between
/// and amplitude by amplitude where that copies whole runs.
const EXCHANGE_BUDGET: f64 = 3.0;

/// When one thread started and finished one repetition.
type Lap = (Instant, Instant);

/// Best over the repetitions of the time from the first thread's start to
/// the last thread's finish — threads that wait for a core count as still
/// running.
fn best_span(per_thread: &[Vec<Lap>]) -> f64 {
    (0..per_thread[0].len())
        .map(|rep| {
            let laps = per_thread.iter().map(|laps| laps[rep]);
            let first = laps.clone().map(|(start, _)| start).min().expect("threads");
            let last = laps.map(|(_, end)| end).max().expect("threads");
            (last - first).as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

/// One `DistState::redistribute` from layout `from` to layout `to` on a
/// thread world of `ranks` ranks, first rank in to last rank out, best of
/// `reps`. The way back to `from` is not timed.
fn time_redistribute(ranks: usize, reps: usize, from: &[usize], to: &[usize]) -> f64 {
    let per_rank = run_spmd::<Complex64, Vec<Lap>, _>(ranks, NetworkModel::ideal(), |mut comm| {
        let mut state = DistState::new(&mut comm, from.len());
        // One untimed round first: the send buffers are allocated by it.
        (0..=reps)
            .map(|_| {
                state.redistribute(from.to_vec());
                let start = Instant::now();
                state.redistribute(to.to_vec());
                (start, Instant::now())
            })
            .skip(1)
            .collect()
    });
    best_span(&per_rank)
}

/// The floor beside it: `threads` threads at once, each gathering and
/// scattering a slice of its own — the same memory, cores and neighbours the
/// ranks of an exchange share, so the ratio of the two does not move with
/// them.
fn time_gather_scatter(threads: usize, reps: usize) -> f64 {
    let l = EXCHANGE_LOCAL_QUBITS;
    let together = std::sync::Barrier::new(threads);
    let per_thread: Vec<Vec<Lap>> = std::thread::scope(|scope| {
        let sweeps: Vec<_> = (0..threads)
            .map(|thread| {
                let together = &together;
                scope.spawn(move || {
                    let mut slice = random_state(l, 0xE8C4 + thread as u64);
                    let mut row = gather_scatter(l);
                    let opts = ApplyOptions::sequential();
                    (0..=reps)
                        .map(|_| {
                            together.wait();
                            let start = Instant::now();
                            (row.sweep)(&mut slice, &opts);
                            (start, Instant::now())
                        })
                        .skip(1)
                        .collect()
                })
            })
            .collect();
        sweeps
            .into_iter()
            .map(|sweep| sweep.join().expect("gather/scatter thread panicked"))
            .collect()
    });
    best_span(&per_thread)
}

/// The exchange rows: the swap `ensure_local` makes for a part that leaves
/// out qubit 0 (the lowest slice bit trades places with a rank bit, what the
/// QFT's two wide parts ask for), and the return to the identity layout from
/// the three-cycle of positions a QFT run ends in.
fn measure_exchanges(reps: usize, ghz: f64) -> Vec<ExchangeCase> {
    let l = EXCHANGE_LOCAL_QUBITS;
    let amps = 1usize << l;
    let cores = std::thread::available_parallelism().map_or(1, |cores| cores.get());
    let mut cases = Vec::new();
    for ranks in [2usize, 4] {
        let n = l + ranks.trailing_zeros() as usize;
        let gather_scatter_s = time_gather_scatter(ranks, reps);
        println!(
            "{:22} 2^{l} x{ranks} threads: {:6.3} ms",
            "gather_scatter",
            gather_scatter_s * 1e3
        );
        let identity: Vec<usize> = (0..n).collect();
        let mut swapped = identity.clone();
        swapped.swap(0, l);
        let mut cycled = identity.clone();
        (cycled[0], cycled[1], cycled[l - 2], cycled[l]) = (1, l - 2, l, 0);
        for (exchange, from, to) in [
            ("redistribute_swap1", &identity, &swapped),
            ("redistribute_identity", &cycled, &identity),
        ] {
            let seconds = time_redistribute(ranks, reps, from, to);
            let case = ExchangeCase {
                exchange,
                local_qubits: l,
                ranks,
                seconds,
                cycles_per_amp: seconds * ghz * 1e9 / amps as f64,
                gather_scatter_s,
                over_gather_scatter: seconds / gather_scatter_s,
                budget: (ranks <= cores).then_some(EXCHANGE_BUDGET),
            };
            println!(
                "{exchange:22} 2^{l} x{ranks} ranks: {:8.3} ms ({:5.2} cyc/amp) {:5.2}x gather_scatter{}",
                seconds * 1e3,
                case.cycles_per_amp,
                case.over_gather_scatter,
                case.budget
                    .map_or(String::new(), |b| format!(" (budget {b})")),
            );
            cases.push(case);
        }
    }
    cases
}

/// The kernels the threshold rows time: the floor, the commonest dense
/// widths and the diagonal run.
const THRESHOLD_KERNELS: [&str; 4] = ["scale", "single_mid", "k_qubit_prepared", "diagonal_run"];

/// Time the [`THRESHOLD_KERNELS`] of an `n`-qubit state under `pool` options
/// and on one thread. These sweeps take well under a millisecond and a thread
/// spawn on a shared guest varies by more than that, so each is the best of
/// eight rounds of the usual repetitions, the two taking turns round by round
/// so that both see the same host states.
fn measure_threshold(n: usize, pool: ApplyOptions, reps: usize) -> Vec<ThresholdCase> {
    let amps = 1usize << n;
    let mut state = random_state(n, 0x7E5 ^ n as u64);
    let sequential = ApplyOptions::sequential();
    let mut cases = Vec::new();
    for mut row in kernels_for(n) {
        if !THRESHOLD_KERNELS.contains(&row.name.as_str()) {
            continue;
        }
        let (mut sequential_s, mut pool_s) = (f64::INFINITY, f64::INFINITY);
        for _ in 0..8 {
            let one = time_best(reps, amps, || (row.sweep)(&mut state, &sequential));
            sequential_s = sequential_s.min(one);
            pool_s = pool_s.min(time_best(reps, amps, || (row.sweep)(&mut state, &pool)));
        }
        let case = ThresholdCase {
            kernel: row.name,
            qubits: n,
            threads: rayon::current_num_threads(),
            sequential_s,
            pool_s,
            pool_over_sequential: pool_s / sequential_s,
        };
        println!(
            "{:18} 2^{n}: one thread {:8.1} us, pool x{} {:8.1} us -> {:5.2}x",
            case.kernel,
            sequential_s * 1e6,
            case.threads,
            pool_s * 1e6,
            case.pool_over_sequential
        );
        cases.push(case);
    }
    cases
}

/// The CI guard: exit status 1 when a kernel or an exchange is over budget,
/// or when the default options lose to one thread at the width where they
/// first go parallel.
fn check(reps: usize) -> std::process::ExitCode {
    let ghz = nominal_ghz();
    let cases = measure(16, false, reps, ghz);
    let defaults = ApplyOptions::default();
    let at_threshold = measure_threshold(
        defaults.parallel_threshold.trailing_zeros() as usize,
        defaults,
        reps,
    );
    let exchanges = measure_exchanges(reps, ghz);
    let mut over = Vec::new();
    for case in &at_threshold {
        if case.pool_over_sequential > CHECK_SLACK {
            over.push(format!(
                "{} at parallel_threshold (2^{}) takes {:.2}x its one-thread time on the pool",
                case.kernel, case.qubits, case.pool_over_sequential
            ));
        }
    }
    for case in &cases {
        if let Some(budget) = case.budget.filter(|b| case.over_scale > b * CHECK_SLACK) {
            over.push(format!(
                "{} takes {:.2}x the in-place scale, budget {budget}",
                case.kernel, case.over_scale
            ));
        }
    }
    for case in &exchanges {
        if let Some(budget) = case
            .budget
            .filter(|b| case.over_gather_scatter > b * CHECK_SLACK)
        {
            over.push(format!(
                "{} on {} ranks takes {:.2}x a gather/scatter of the slices, budget {budget}",
                case.exchange, case.ranks, case.over_gather_scatter
            ));
        }
    }
    for line in &over {
        eprintln!("over budget: {line} (x{CHECK_SLACK} slack)");
    }
    match over.is_empty() {
        true => {
            println!("\nevery kernel, exchange and the parallel threshold is within its budget");
            std::process::ExitCode::SUCCESS
        }
        false => std::process::ExitCode::FAILURE,
    }
}

fn main() -> std::process::ExitCode {
    let mut reps: usize = 3;
    let mut check_only = false;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--check" => check_only = true,
            _ => reps = arg.parse().expect("reps must be a positive integer"),
        }
    }
    println!(
        "kernel microbenchmark: best of {reps}, auto dispatch resolves to {}\n",
        KernelDispatch::Auto.resolved_name()
    );
    if check_only {
        return check(reps);
    }

    let host = host::Host::detect();
    let triad = host::triad(host.triad_array_bytes(), host.cores, 2);
    let ghz = nominal_ghz();
    println!(
        "host: {} x{}, L1d {} KiB, L2 {} KiB, LLC {} KiB, nominal {ghz} GHz, triad {:.2} GB/s\n",
        host.cpu, host.cores, host.l1d_kib, host.l2_kib, host.llc_kib, triad.gbps
    );
    let mut cases = Vec::new();
    for n in [16usize, 21, 24] {
        for default_pool in [false, true] {
            cases.extend(measure(n, default_pool, reps, ghz));
        }
    }

    println!();
    let exchanges = measure_exchanges(reps, ghz);

    println!();
    let forced = ApplyOptions {
        parallel_threshold: 1,
        ..ApplyOptions::default()
    };
    let thresholds = (14usize..=20)
        .flat_map(|n| measure_threshold(n, forced, reps))
        .collect();

    let report = Report {
        host: host.to_value(&triad),
        reps,
        nominal_ghz: ghz,
        kernels: cases,
        exchanges,
        thresholds,
    };
    let json = serde_json::to_string_pretty(&report).expect("serialize report");
    std::fs::write("BENCH_kernels.json", &json).expect("write BENCH_kernels.json");
    println!("\nwrote BENCH_kernels.json");
    std::process::ExitCode::SUCCESS
}
