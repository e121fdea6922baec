//! Unit tests of the fused executor, one section per seam: the reference
//! scanner, grouping and the cost model, the fused circuit, tiling and pass
//! segmentation, and the diagonal streaming sweep.

use super::diagonal::{prepare_diagonal, DIAG_BLOCK_BITS};
use super::tile::{op_mixing, TileShape, MIN_CHUNK_BITS, TILE_BITS};
use super::*;
use crate::kernels::run_circuit;
use crate::kernels::tests::{assert_bitwise, random_state};
use crate::kernels::ApplyOptions;
use crate::state::StateVector;
use hisvsim_circuit::{generators, Circuit, Complex64, Gate, Qubit};
use hisvsim_dag::CircuitDag;
use std::ops::Range;

// -- the reference scanner -------------------------------------------------

#[test]
fn fused_execution_matches_unfused_across_suite() {
    for name in generators::FAMILY_NAMES {
        let circuit = generators::by_name(name, 8);
        let expected = run_circuit(&circuit);
        for width in [2usize, 3, 4] {
            let got = run_fused(&circuit, width, &ApplyOptions::sequential());
            assert!(
                got.approx_eq(&expected, 1e-9),
                "{name} fused at width {width} diverges (max diff {})",
                got.max_abs_diff(&expected)
            );
        }
    }
}

#[test]
fn fusion_reduces_the_operation_count() {
    let circuit = generators::by_name("qft", 10);
    let fused = fuse_circuit(&circuit, 4);
    assert!(
        fused.len() < circuit.num_gates() / 2,
        "fusion produced {} ops for {} gates",
        fused.len(),
        circuit.num_gates()
    );
    let total: usize = fused.iter().map(|f| f.fused_count).sum();
    assert_eq!(
        total,
        circuit.num_gates(),
        "every gate must be fused exactly once"
    );
}

#[test]
fn fused_matrices_are_unitary_and_within_width() {
    let circuit = generators::random_circuit(7, 60, 5);
    for op in fuse_circuit(&circuit, 3) {
        assert!(op.qubits.len() <= 3);
        assert_eq!(op.matrix.dim(), 1 << op.qubits.len());
        assert!(op.matrix.is_unitary(1e-9));
    }
}

#[test]
fn oversized_gates_pass_through_unfused() {
    let circuit = generators::adder(8); // contains 3-qubit Toffolis
    let fused = fuse_circuit(&circuit, 2);
    assert!(fused
        .iter()
        .any(|f| f.qubits.len() == 3 && f.fused_count == 1));
    let expected = run_circuit(&circuit);
    let got = run_fused(&circuit, 2, &ApplyOptions::sequential());
    assert!(got.approx_eq(&expected, 1e-9));
}

#[test]
fn width_one_fusion_merges_single_qubit_runs() {
    let mut circuit = hisvsim_circuit::Circuit::new(2);
    circuit.h(0).t(0).h(0).s(1).h(1);
    let fused = fuse_circuit(&circuit, 1);
    // Two groups: the run on qubit 0 and the run on qubit 1.
    assert_eq!(fused.len(), 2);
    assert_eq!(fused[0].fused_count, 3);
    assert_eq!(fused[1].fused_count, 2);
    let got = run_fused(&circuit, 1, &ApplyOptions::sequential());
    assert!(got.approx_eq(&run_circuit(&circuit), 1e-12));
}

#[test]
#[should_panic(expected = "at least 1")]
fn zero_width_is_rejected() {
    let circuit = generators::cat_state(4);
    let _ = fuse_circuit(&circuit, 0);
}

// -- grouping and the cost model -------------------------------------------

/// Every gate of `circuit` fused over a prebuilt DAG.
fn whole(circuit: &Circuit, dag: &CircuitDag, width: usize) -> FusedCircuit {
    let gates: Vec<usize> = (0..circuit.num_gates()).collect();
    let qubits: Vec<Qubit> = (0..circuit.num_qubits()).collect();
    FusedCircuit::from_part(circuit, dag, &gates, &qubits, width)
}

#[test]
fn dag_fusion_matches_unfused_across_suite_and_widths() {
    // Every width the fused form takes, 1 to 5, on one prebuilt DAG per
    // circuit: the engines fuse at DEFAULT_FUSION_WIDTH only, so this is
    // where the other widths stay covered.
    for name in generators::FAMILY_NAMES {
        let circuit = generators::by_name(name, 8);
        let dag = CircuitDag::from_circuit(&circuit);
        let expected = run_circuit(&circuit);
        for width in 1usize..=5 {
            let fused = whole(&circuit, &dag, width);
            let total: usize = fused.ops().iter().map(|op| op.fused_count()).sum();
            assert_eq!(total, circuit.num_gates(), "{name}: gates lost");
            for opts in [ApplyOptions::sequential(), ApplyOptions::default()] {
                let got = fused.run(&opts);
                assert!(
                    got.approx_eq(&expected, 1e-9),
                    "{name} dag-fused at width {width} diverges (max diff {})",
                    got.max_abs_diff(&expected)
                );
            }
        }
    }
}

#[test]
fn dag_fusion_random_interleaved_circuits_match() {
    for seed in 0..8 {
        let circuit = generators::random_circuit(7, 90, seed);
        let dag = CircuitDag::from_circuit(&circuit);
        let expected = run_circuit(&circuit);
        for width in [2usize, 3, 4] {
            let got = whole(&circuit, &dag, width).run(&ApplyOptions::sequential());
            assert!(
                got.approx_eq(&expected, 1e-9),
                "seed {seed} width {width}: max diff {}",
                got.max_abs_diff(&expected)
            );
        }
    }
}

#[test]
fn dag_fusion_needs_fewer_sweeps_on_interleaved_circuits() {
    // On deep interleaved circuits, fusing only adjacent gates strands
    // mergeable gates in separate groups; the dependency frontier does
    // not.
    let circuit = generators::random_circuit(16, 400, 0x5EED);
    let adjacent = fuse_circuit(&circuit, 3);
    let dag = FusedCircuit::new(&circuit, 3);
    assert!(
        dag.num_ops() < adjacent.len(),
        "dag {} ops vs adjacent-only {} ops",
        dag.num_ops(),
        adjacent.len()
    );
}

#[test]
fn from_dag_reuses_a_prebuilt_dag() {
    let circuit = generators::random_circuit(7, 60, 11);
    let dag = CircuitDag::from_circuit(&circuit);
    let via_dag = whole(&circuit, &dag, 3);
    let fresh = FusedCircuit::new(&circuit, 3);
    assert_eq!(via_dag.num_ops(), fresh.num_ops());
    let expected = run_circuit(&circuit);
    assert!(via_dag
        .run(&ApplyOptions::sequential())
        .approx_eq(&expected, 1e-9));
}

#[test]
fn fused_circuit_accounts_for_every_gate_once() {
    for name in ["qft", "adder", "qaoa"] {
        let circuit = generators::by_name(name, 9);
        let fused = FusedCircuit::new(&circuit, 3);
        let total: usize = fused.ops().iter().map(|op| op.fused_count()).sum();
        assert_eq!(total, circuit.num_gates(), "{name}: gates lost in fusion");
        assert_eq!(fused.source_gates(), circuit.num_gates());
    }
}

#[test]
fn diagonal_runs_collapse_into_streaming_passes() {
    // The QFT is mostly controlled-phase cascades (diagonal); the fused
    // form must execute far fewer sweeps than it has gates, and the
    // diagonal runs must absorb multi-gate cascades wider than the
    // fusion width.
    let circuit = generators::by_name("qft", 10);
    let fused = FusedCircuit::new(&circuit, 2);
    assert!(
        fused.num_ops() < circuit.num_gates() / 2,
        "{} ops for {} gates",
        fused.num_ops(),
        circuit.num_gates()
    );
    let wide_run = fused.ops().iter().any(|op| match op {
        FusedOp::Diagonal {
            factors,
            fused_count,
        } => {
            *fused_count > 2
                && factors
                    .iter()
                    .flat_map(|f| f.qubits.iter())
                    .collect::<std::collections::HashSet<_>>()
                    .len()
                    > 2
        }
        _ => false,
    });
    assert!(wide_run, "no width-unlimited diagonal run found in the QFT");
}

#[test]
fn toffolis_keep_their_permutation_form() {
    // Priced as the permutations they run, the adder's Toffolis stay solo
    // instead of anchoring dense 3-qubit groups of 8×8 permutations.
    let fused = FusedCircuit::new(&generators::adder(16), 3);
    let mut forms = std::collections::BTreeMap::<String, usize>::new();
    for op in fused.ops() {
        let form = match op {
            FusedOp::Dense(g) => format!("dense{}", g.qubits.len()),
            FusedOp::Solo(gate, _) => format!("solo:{}", gate.kind.name()),
            FusedOp::Diagonal { .. } => "diagonal".to_string(),
        };
        *forms.entry(form).or_default() += 1;
    }
    let expected = [
        ("dense3", 3),
        ("solo:ccx", 14),
        ("solo:cx", 28),
        ("solo:x", 1),
    ];
    let expected = expected.map(|(form, count)| (form.to_string(), count));
    assert_eq!(forms, expected.into_iter().collect());
}

#[test]
fn modelled_worse_groups_fall_back_to_their_solo_form() {
    // Two CXs over the same pair: the dense 4×4 form models PASS + 4
    // against two half-sweep fast paths (2 × (0.5·PASS + 0.5)), so the
    // group must demote to its members — and stay correct.
    let mut circuit = Circuit::new(3);
    circuit.cx(0, 1).cx(0, 1).cx(1, 2);
    let before = fusion_fallback_count();
    let fused = FusedCircuit::new(&circuit, 2);
    assert!(
        fused.ops().iter().all(|op| matches!(op, FusedOp::Solo(..))),
        "cheap fast-path gates must not stay in a dense group"
    );
    assert!(fusion_fallback_count() > before);
    let total: usize = fused.ops().iter().map(FusedOp::fused_count).sum();
    assert_eq!(total, circuit.num_gates());
    let expected = run_circuit(&circuit);
    assert!(fused
        .run(&ApplyOptions::sequential())
        .approx_eq(&expected, 1e-12));

    // A pair of dense single-qubit gates models cheaper fused
    // (PASS + 2 < 2 × (PASS + 2)) and must keep the dense form.
    let mut dense = Circuit::new(1);
    dense.h(0).h(0);
    let fused = FusedCircuit::new(&dense, 2);
    assert!(fused.ops().iter().any(|op| matches!(op, FusedOp::Dense(_))));
}

// -- the fused circuit -----------------------------------------------------

#[test]
fn fused_circuit_matches_unfused_across_suite_and_widths() {
    for name in generators::FAMILY_NAMES {
        let circuit = generators::by_name(name, 8);
        let expected = run_circuit(&circuit);
        for width in [1usize, 2, 3, 4, 5] {
            let fused = FusedCircuit::new(&circuit, width);
            for opts in [ApplyOptions::sequential(), ApplyOptions::default()] {
                let got = fused.run(&opts);
                assert!(
                    got.approx_eq(&expected, 1e-9),
                    "{name} fused-circuit at width {width} (threshold={}) diverges (max diff {})",
                    opts.parallel_threshold,
                    got.max_abs_diff(&expected)
                );
            }
        }
    }
}

#[test]
fn fused_circuit_random_circuits_match() {
    for seed in 0..6 {
        let circuit = generators::random_circuit(7, 70, seed);
        let expected = run_circuit(&circuit);
        for width in [2usize, 4] {
            let got = FusedCircuit::new(&circuit, width).run(&ApplyOptions::sequential());
            assert!(
                got.approx_eq(&expected, 1e-9),
                "seed {seed} width {width}: max diff {}",
                got.max_abs_diff(&expected)
            );
        }
    }
}

#[test]
fn pure_diagonal_circuit_is_a_single_pass() {
    // An H layer puts the register in superposition (so the diagonal
    // phases are observable), then a run of diagonal gates of assorted
    // widths must collapse to exactly one streaming op.
    let mut prefix = hisvsim_circuit::Circuit::new(6);
    for q in 0..6 {
        prefix.h(q);
    }
    let mut diagonals = hisvsim_circuit::Circuit::new(6);
    diagonals
        .rz(0.3, 0)
        .cz(0, 5)
        .cp(0.7, 2, 4)
        .t(3)
        .rzz(0.2, 1, 5)
        .s(2);
    let fused = FusedCircuit::new(&diagonals, 3);
    assert_eq!(fused.num_ops(), 1, "diagonal run must be one streaming op");

    let mut full = prefix.clone();
    full.extend(&diagonals);
    let expected = run_circuit(&full);
    let mut state = run_circuit(&prefix);
    fused.apply(&mut state, &ApplyOptions::sequential());
    assert!(state.approx_eq(&expected, 1e-10));
}

#[test]
fn apply_mapped_translates_qubits() {
    // Fuse a 3-qubit circuit, then run it on qubits (4, 1, 3) of a
    // 5-qubit register and compare against the remapped original.
    let mut small = hisvsim_circuit::Circuit::new(3);
    small.h(0).cx(0, 1).t(2).cp(0.4, 2, 0).ry(0.7, 1);
    let fused = FusedCircuit::new(&small, 2);
    let map = [4usize, 1, 3];

    let mut big = hisvsim_circuit::Circuit::new(5);
    for gate in small.gates() {
        let qubits: Vec<usize> = gate.qubits.iter().map(|&q| map[q]).collect();
        big.push(hisvsim_circuit::Gate::new(gate.kind, qubits));
    }
    let expected = run_circuit(&big);

    let mut state = StateVector::zero_state(5);
    fused.apply_mapped(&mut state, &map, &ApplyOptions::sequential());
    assert!(state.approx_eq(&expected, 1e-10));
}

// -- tiling and pass segmentation ------------------------------------------

#[test]
fn tiled_execution_matches_untiled_bitwise() {
    use crate::simd::KernelDispatch;
    // 17 qubits = two tiles, so `passes` segments the ops into tiled
    // runs; the per-op reference below never tiles. The hand-built
    // circuit puts every op class in and around tiled runs: dense groups
    // and solo permutation / phase / dense gates below, straddling and
    // above TILE_BITS, and diagonal runs whose factors sit below the
    // diagonal block, above the tile, and across both boundaries.
    let n = TILE_BITS + 1;
    let top = n - 1;
    let mut mixed = Circuit::new(n);
    mixed
        .h(0)
        .ry(0.3, 1)
        .cx(0, 1)
        .ry(0.2, 3)
        .cx(1, 3)
        .h(3)
        .x(0)
        .cx(5, 0)
        .cx(2, 14)
        .swap(0, 9)
        .ccx(3, 0, 12)
        .t(4)
        .cz(0, 15)
        .cp(0.4, 6, 11)
        .h(15)
        .cx(15, top)
        .h(top)
        .cp(0.7, 2, top)
        .cp(0.2, 9, top)
        .rz(0.9, 0)
        .rzz(0.3, 7, 15)
        .cp(0.5, 15, top)
        .h(7)
        .swap(3, top)
        .rx(0.6, 8)
        .cx(1, 2)
        .y(1);
    for circuit in [
        generators::random_circuit(n, 170, 0xA11CE),
        generators::by_name("qft", n),
        mixed,
    ] {
        let fused = FusedCircuit::new(&circuit, 3);
        let init = random_state(n, 0x711E);
        let what = &circuit.name;
        // The passes cover every op once, in order; only a state above
        // one tile has runs.
        let passes: Vec<Range<usize>> = fused.passes(n, None).collect();
        assert!(passes.iter().any(|pass| pass.len() > 1), "{what}");
        let ends = passes.iter().map(|pass| pass.end);
        let starts = std::iter::once(0).chain(ends);
        assert!(passes.iter().zip(starts).all(|(pass, at)| pass.start == at));
        assert_eq!(passes.last().map(|pass| pass.end), Some(fused.num_ops()));
        assert!(fused.passes(TILE_BITS, None).all(|pass| pass.len() == 1));
        let mut tiled = init.clone();
        fused.apply(&mut tiled, &ApplyOptions::default());
        for opts in [ApplyOptions::default(), ApplyOptions::sequential()] {
            let mut untiled = init.clone();
            for op in fused.ops() {
                op.apply(&mut untiled, &opts);
            }
            assert_bitwise(&tiled, &untiled, &format!("{what}: tiled vs untiled"));
            let mut scalar = init.clone();
            fused.apply(&mut scalar, &opts.with_dispatch(KernelDispatch::Scalar));
            assert_bitwise(&tiled, &scalar, &format!("{what}: auto vs scalar"));
        }
    }
}

/// The union of the mixing qubits of `ops` under `map`.
fn mixing_of(ops: &[FusedOp], map: Option<&[Qubit]>) -> u64 {
    ops.iter().fold(0, |mixing, op| mixing | op_mixing(op, map))
}

#[test]
fn strided_runs_match_op_by_op_sweeps_bitwise() {
    use crate::simd::KernelDispatch;
    // One case per count of high qubits, 1 to 6 (the smallest chunk,
    // 2^MIN_CHUNK_BITS), on 17- to 20-qubit states. Every qubit an op
    // mixes is one of `high` or below the chunk, so the whole circuit
    // is one strided pass; the diagonal gates sit on high qubits, on
    // in-chunk ones and on the other bits, which pick the tile.
    let cases: [(usize, &[Qubit]); 6] = [
        (17, &[16]),
        (18, &[15, 17]),
        (19, &[14, 16, 18]),
        (20, &[13, 15, 17, 19]),
        (19, &[12, 14, 16, 17, 18]),
        (20, &[11, 13, 15, 17, 18, 19]),
    ];
    for (n, high) in cases {
        let chunk_bits = TILE_BITS - high.len();
        let other: Vec<Qubit> = (chunk_bits..n).filter(|q| !high.contains(q)).collect();
        let (first, top) = (high[0], high[high.len() - 1]);
        let mut circuit = Circuit::new(n);
        circuit.h(0).ry(0.3, 1).cx(0, 2).h(chunk_bits - 1);
        for (i, &q) in high.iter().enumerate() {
            circuit.h(q).cx(q, i).ry(0.2 + 0.1 * i as f64, q);
        }
        circuit
            .cp(0.4, top, 3)
            .cp(0.7, other[0], first)
            .rz(0.9, other[other.len() - 1])
            .rzz(0.3, 5, other[0])
            .t(chunk_bits - 1)
            .swap(1, top)
            .ccx(first, 2, 3)
            .cz(0, first)
            .rx(0.6, top)
            .cp(0.5, 7, 8);
        let fused = FusedCircuit::new(&circuit, 3);
        let what = format!("{n} qubits, high {high:?}");
        let shape = TileShape::of(mixing_of(fused.ops(), None)).expect("one tile");
        assert_eq!(
            (shape.chunk_bits, shape.chunks()),
            (chunk_bits, 1 << high.len())
        );
        let passes: Vec<Range<usize>> = fused.passes(n, None).collect();
        assert_eq!(passes.len(), 1, "{what}: {passes:?}");
        assert_eq!(passes[0], 0..fused.num_ops(), "{what}");
        // The low qubits reversed below the chunk: the same shape, every
        // low operand at another position.
        let map: Vec<Qubit> = (0..n)
            .map(|q| {
                if q < chunk_bits {
                    chunk_bits - 1 - q
                } else {
                    q
                }
            })
            .collect();
        let mapped = TileShape::of(mixing_of(fused.ops(), Some(&map)));
        assert_eq!(mapped, Some(shape), "{what}");
        let init = random_state(n, 0x5171 + n as u64);
        for map in [None, Some(&map[..])] {
            let mut reference: Option<StateVector> = None;
            for opts in [ApplyOptions::default(), ApplyOptions::sequential()] {
                for dispatch in [KernelDispatch::Auto, KernelDispatch::Scalar] {
                    let opts = opts.with_dispatch(dispatch);
                    let mut swept = init.clone();
                    for op in fused.ops() {
                        op.apply_inner(&mut swept, map, &opts);
                    }
                    let mut strided = init.clone();
                    match map {
                        None => fused.apply(&mut strided, &opts),
                        Some(map) => fused.apply_mapped(&mut strided, map, &opts),
                    }
                    let what = format!("{what}, mapped={}, {dispatch}", map.is_some());
                    assert_bitwise(&strided, &swept, &what);
                    match &reference {
                        None => reference = Some(strided),
                        Some(first) => assert_bitwise(first, &strided, &what),
                    }
                }
            }
        }
    }
}

#[test]
fn masked_runs_match_unmasked_runs_on_states_zero_outside_the_mask() {
    use crate::simd::KernelDispatch;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    // 19-qubit random circuits and a QFT cut into tiled runs of every
    // shape; each run is applied to a random state zeroed outside a
    // random live mask, once under that mask and once under none, on
    // both kernel dispatches.
    let n = TILE_BITS + 3;
    let mut rng = StdRng::seed_from_u64(0x11FE);
    let reversed: Vec<Qubit> = (0..n).rev().collect();
    // Runs checked by (mapped, strided); how many skipped a tile, left an
    // op out, kept a diagonal run, and held a lone phase gate.
    let mut seen = [[0usize; 2]; 2];
    let (mut skipped, mut left_out, mut diagonal_kept, mut phase_gates) = (0, 0, 0, 0);
    let bits = |a: &Complex64| (a.re.to_bits(), a.im.to_bits());
    let circuits = (0..3).map(|seed| generators::random_circuit(n, 90, seed));
    for (seed, circuit) in (0..).zip(circuits.chain([generators::qft(n)])) {
        let fused = FusedCircuit::new(&circuit, 3);
        for map in [None, Some(&reversed[..])] {
            let init = random_state(n, 0x5EED + seed);
            for pass in fused.passes(n, map).filter(|pass| pass.len() > 1) {
                let shape = TileShape::of(fused.mixing(pass.clone(), map)).expect("fits");
                let live = rng.gen::<u64>() & ((1 << n) - 1);
                let mut zeroed = init.clone();
                for (index, amp) in zeroed.amplitudes_mut().iter_mut().enumerate() {
                    if index as u64 & !live != 0 {
                        *amp = Complex64::ZERO;
                    }
                }
                let (picks, _) = shape.live_tiles(1 << n, Support::ANY);
                // Where neither the mask nor the pass's mixing reaches, the
                // masked run leaves every +0.0 as it was: dense and phase
                // kernels and diagonal runs skip those amplitudes, and
                // permutations move zeros onto zeros.
                let reach = live | fused.mixing(pass.clone(), map);
                for dispatch in [KernelDispatch::Auto, KernelDispatch::Scalar] {
                    let opts = ApplyOptions::default().with_dispatch(dispatch);
                    let mut masked = zeroed.clone();
                    let within = Support::Within(live);
                    fused.apply_pass(&mut masked, pass.clone(), map, within, &opts);
                    let mut every = zeroed.clone();
                    fused.apply_pass(&mut every, pass.clone(), map, Support::ANY, &opts);
                    // An amplitude nonzero in either run is the same bits in
                    // both. A zero is one by value only: the full sweep's
                    // arithmetic on a zero group may leave -0.0 where the
                    // masked run leaves the group alone, and the reverse. A
                    // skipped tile keeps the +0.0 it held.
                    let what = format!(
                        "seed {seed}, mapped={}, {pass:?}, {dispatch}",
                        map.is_some()
                    );
                    let pairs = masked.amplitudes().iter().zip(every.amplitudes());
                    for (index, (m, e)) in pairs.enumerate() {
                        if *m != Complex64::ZERO || *e != Complex64::ZERO {
                            assert_eq!(bits(m), bits(e), "{what}: amplitude {index}");
                        }
                        if index as u64 & picks & !live != 0 {
                            let skipped_tile = bits(m) == (0, 0) && *e == Complex64::ZERO;
                            assert!(skipped_tile, "{what}: amplitude {index}");
                        }
                        if index as u64 & !reach != 0 {
                            let untouched = bits(m) == (0, 0) && *e == Complex64::ZERO;
                            assert!(untouched, "{what}: amplitude {index}");
                        }
                    }
                }
                let applied: Vec<&FusedOp> = (fused.applied(pass.clone(), map, live))
                    .map(|(op, _)| op)
                    .collect();
                let swept = fused.swept_amplitudes(n, pass.clone(), map, Support::Within(live));
                seen[map.is_some() as usize][(shape.chunks() > 1) as usize] += 1;
                skipped += usize::from(swept < 1 << n);
                left_out += usize::from(applied.len() < pass.len());
                diagonal_kept += usize::from(
                    applied
                        .iter()
                        .any(|op| matches!(op, FusedOp::Diagonal { .. })),
                );
                phase_gates += usize::from(
                    applied
                        .iter()
                        .any(|op| matches!(op, FusedOp::Solo(gate, _) if gate.kind.is_diagonal())),
                );
                // A zero state is left as it is.
                let mut zero = StateVector::zero_state(n);
                zero.amplitudes_mut()[0] = Complex64::ZERO;
                fused.apply_pass(&mut zero, pass, map, Support::Zero, &Default::default());
                assert!(zero.amplitudes().iter().all(|amp| bits(amp) == (0, 0)));
            }
        }
    }
    assert!(seen.iter().flatten().all(|&runs| runs > 0), "{seen:?}");
    let counts = [skipped, left_out, diagonal_kept, phase_gates];
    assert!(counts.iter().all(|&runs| runs > 0), "{counts:?}");
}

#[test]
fn passes_cut_exactly_where_the_tile_shape_stops_fitting() {
    // Width 1 keeps every H on its own qubit a solo op of its own.
    let n = 20;
    let hs = |qubits: &[Qubit]| {
        let mut circuit = Circuit::new(n);
        for &q in qubits {
            circuit.h(q);
        }
        FusedCircuit::new(&circuit, 1)
    };
    // Six high qubits fill a tile of 2^10-amplitude chunks; a seventh
    // does not fit.
    let seventh = hs(&[14, 15, 16, 17, 18, 19, 13]);
    assert_eq!(seventh.num_ops(), 7);
    let passes: Vec<Range<usize>> = seventh.passes(n, None).collect();
    assert_eq!(passes, [0..6, 6..7]);
    let full = TileShape::of(mixing_of(&seventh.ops()[..6], None)).expect("fits");
    assert_eq!((full.chunk_bits, full.chunks()), (MIN_CHUNK_BITS, 64));
    // Three high qubits leave 2^13-amplitude chunks, so qubits 10–12
    // ride inside them; an op on qubit 14, in [13, 16), would narrow the
    // chunk until they are high too, and starts the next pass.
    let narrowing = hs(&[17, 18, 19, 10, 11, 12, 14]);
    let passes: Vec<Range<usize>> = narrowing.passes(n, None).collect();
    assert_eq!(passes, [0..6, 6..7]);
    let shape = TileShape::of(mixing_of(&narrowing.ops()[..6], None)).expect("fits");
    assert_eq!((shape.chunk_bits, shape.chunks()), (13, 8));
    assert_eq!(shape.position(12), 12);
    assert_eq!(shape.position(18), 14);
    // Narrowed by a qubit that leaves room, the run goes on.
    let room = hs(&[17, 18, 19, 14, 10]);
    let passes: Vec<Range<usize>> = room.passes(n, None).collect();
    assert_eq!((passes.len(), passes[0].clone()), (1, 0..5));
    let shape = TileShape::of(mixing_of(room.ops(), None)).expect("fits");
    assert_eq!((shape.chunk_bits, shape.chunks()), (12, 16));
    // Diagonal runs mix nothing: they never cut a pass, at any qubit.
    let mut diagonal = Circuit::new(n);
    diagonal.h(19).cp(0.3, 13, 12).h(18).rz(0.2, 11).h(17);
    let fused = FusedCircuit::new(&diagonal, 1);
    assert_eq!(fused.passes(n, None).count(), 1);
    // At most one tile, every op is a pass of its own.
    assert!(room.passes(TILE_BITS, None).all(|pass| pass.len() == 1));
}

// -- the diagonal sweep ----------------------------------------------------

#[test]
fn diagonal_runs_conform_for_every_factor_placement() {
    use crate::simd::KernelDispatch;
    // One run per class of factor placement relative to the diagonal
    // block (DIAG_BLOCK_BITS): all below, all above, across, on qubit 0,
    // identity on half the blocks (a controlled-phase cascade), more
    // streams than one pass holds — on states smaller than, equal to and
    // larger than one block, with and without a qubit translation.
    let b = DIAG_BLOCK_BITS;
    // (name, register width, (angle, operands) of every gate of the run)
    type Run = (&'static str, usize, Vec<(f64, Vec<Qubit>)>);
    let runs: Vec<Run> = vec![
        ("one qubit", 1, vec![(0.3, vec![0])]),
        (
            "below the block",
            3,
            vec![(0.3, vec![0, 2]), (0.5, vec![1]), (0.2, vec![2, 1])],
        ),
        (
            "exactly one block",
            b,
            vec![(0.3, vec![0, b - 1]), (0.9, vec![3])],
        ),
        (
            "above the block",
            b + 3,
            vec![(0.4, vec![b, b + 2]), (0.1, vec![b + 1])],
        ),
        (
            "across the block",
            b + 3,
            vec![
                (0.4, vec![0, b]),
                (0.8, vec![b - 1, b + 2]),
                (0.3, vec![3, 1]),
            ],
        ),
        (
            "cascade",
            b + 4,
            (0..b + 3)
                .map(|c| (0.1 + c as f64 * 0.03, vec![c, b + 3]))
                .collect(),
        ),
        // Two gates fill a factor (a third would make it six qubits), so
        // this is ten factors, each across the block.
        (
            "many streams",
            b + 6,
            (0..20)
                .map(|i| (0.2 + i as f64 * 0.05, vec![i % b, b + i % 6]))
                .collect(),
        ),
    ];
    for (name, n, gates) in runs {
        let mut circuit = Circuit::new(n);
        for (angle, qubits) in &gates {
            match qubits[..] {
                [q] => circuit.rz(*angle, q),
                [a, c] => circuit.cp(*angle, a, c),
                _ => unreachable!(),
            };
        }
        let fused = FusedCircuit::new(&circuit, 3);
        assert_eq!(fused.num_ops(), 1, "{name}: a diagonal circuit is one run");
        if let (FusedOp::Diagonal { factors, .. }, "many streams") = (&fused.ops()[0], name) {
            assert!(prepare_diagonal(factors, None, n).passes() > 1);
        }
        // Identity map, and a reversal of the register onto a wider one.
        let wide = n + 2;
        let reversed: Vec<Qubit> = (0..n).map(|q| wide - 1 - q).collect();
        for (map, width) in [(None, n), (Some(&reversed), wide)] {
            let init = random_state(width, 0xD1A6 + n as u64);
            let mut target = Circuit::new(width);
            for gate in circuit.gates() {
                let qubits = gate
                    .qubits
                    .iter()
                    .map(|&q| map.map_or(q, |m| m[q]))
                    .collect();
                target.push(Gate::new(gate.kind, qubits));
            }
            let mut expected = init.clone();
            crate::kernels::apply_circuit_with(&mut expected, &target, &ApplyOptions::sequential());
            let mut first: Option<StateVector> = None;
            for opts in [
                ApplyOptions::sequential(),
                ApplyOptions {
                    parallel_threshold: 1,
                    ..ApplyOptions::default()
                },
            ] {
                for dispatch in [KernelDispatch::Auto, KernelDispatch::Scalar] {
                    let mut got = init.clone();
                    let opts = opts.with_dispatch(dispatch);
                    match map {
                        None => fused.apply(&mut got, &opts),
                        Some(map) => fused.apply_mapped(&mut got, map, &opts),
                    }
                    let what = format!(
                        "{name} (mapped={}, threshold={}, {dispatch})",
                        map.is_some(),
                        opts.parallel_threshold
                    );
                    assert!(
                        got.approx_eq(&expected, 1e-12),
                        "{what}: max diff {}",
                        got.max_abs_diff(&expected)
                    );
                    match &first {
                        None => first = Some(got),
                        Some(first) => assert_bitwise(first, &got, &what),
                    }
                }
            }
        }
    }
}
