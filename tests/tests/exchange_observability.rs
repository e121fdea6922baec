//! A distributed run must be accounted for: with the recorder on, the spans
//! of local compute (`kernel`: one `part` span per part), of collectives and
//! of the part-switch exchanges around them (`comm`: one `vote` per part, and
//! `redistribute` with its `pack`, `alltoallv` and `unpack` inside) cover
//! nearly all of every rank's wall time. Before the exchange had a span of
//! its own, nine tenths of a distributed run showed up in no figure at all.
//!
//! One test only: the recorder is process-wide.

use hisvsim_circuit::{generators, Complex64};
use hisvsim_cluster::{run_spmd, NetworkModel};
use hisvsim_core::{run_plan_rank, ExecControl, FusedPlan, FusedSinglePlan, RankOutcome};
use hisvsim_dag::CircuitDag;
use hisvsim_obs::SpanRecord;
use hisvsim_partition::Strategy;
use hisvsim_statevec::KernelDispatch;

const RANKS: usize = 2;

/// Microseconds of `[from, to)` covered by at least one of `spans`.
fn covered_us(spans: &[&SpanRecord], from: u64, to: u64) -> u64 {
    let mut intervals: Vec<(u64, u64)> = spans
        .iter()
        .map(|span| (span.ts_us.max(from), (span.ts_us + span.dur_us).min(to)))
        .filter(|(start, end)| start < end)
        .collect();
    intervals.sort_unstable();
    let (mut covered, mut reached) = (0, from);
    for (start, end) in intervals {
        covered += end.saturating_sub(start.max(reached));
        reached = reached.max(end);
    }
    covered
}

#[test]
fn spans_cover_a_distributed_run() {
    let n = 16;
    let circuit = generators::qft(n);
    let dag = CircuitDag::from_circuit(&circuit);
    let partition = Strategy::DagP
        .partition(&dag, n - RANKS.trailing_zeros() as usize)
        .expect("qft partitions at the local width");
    let plan = FusedSinglePlan::new(&circuit, &dag, partition);
    assert!(plan.parts.len() >= 2, "the run must switch parts");

    let schedule = FusedPlan::Single(&plan).schedule(n, RANKS);

    hisvsim_obs::set_enabled(true);
    let _ = hisvsim_obs::drain();
    // The outcome (the rank's slice) is returned, so that freeing it is not
    // part of the rank's wall.
    run_spmd::<Complex64, RankOutcome, _>(RANKS, NetworkModel::ideal(), |mut comm| {
        let _rank = hisvsim_obs::span("test", "rank");
        let control = ExecControl::default();
        run_plan_rank(&mut comm, &schedule, KernelDispatch::default(), &control)
            .expect("an inert control cannot cancel")
    });
    hisvsim_obs::set_enabled(false);
    let spans = hisvsim_obs::drain();

    let ranks: Vec<&SpanRecord> = spans.iter().filter(|span| span.cat == "test").collect();
    assert_eq!(ranks.len(), RANKS);
    for rank in ranks {
        let on_thread = |span: &&SpanRecord| span.tid == rank.tid;
        let accounted: Vec<&SpanRecord> = spans
            .iter()
            .filter(on_thread)
            .filter(|span| span.cat == "kernel" || span.cat == "comm")
            .collect();
        // The one rank body's schedule: a vote before every part, then the
        // part's sweep.
        let count = |cat: &str, name: &str| {
            let of = |span: &&&SpanRecord| span.cat == cat && span.name == name;
            accounted.iter().filter(of).count()
        };
        assert_eq!(count("comm", "vote"), plan.parts.len(), "one vote per part");
        assert_eq!(
            count("kernel", "part"),
            plan.parts.len(),
            "one sweep per part"
        );
        let exchanges: Vec<&&SpanRecord> = accounted
            .iter()
            .filter(|span| span.name == "redistribute")
            .collect();
        assert!(exchanges.len() >= 2, "the run switches parts twice or more");
        for exchange in exchanges {
            let end = exchange.ts_us + exchange.dur_us;
            assert_eq!(exchange.bytes, 16 << (n - 1), "bytes are the slice's");
            for child in ["pack", "alltoallv", "unpack"] {
                assert!(
                    accounted.iter().any(|span| span.name == child
                        && span.ts_us >= exchange.ts_us
                        && span.ts_us + span.dur_us <= end),
                    "no {child} span inside an exchange"
                );
            }
        }
        let end = rank.ts_us + rank.dur_us;
        let covered = covered_us(&accounted, rank.ts_us, end);
        assert!(
            covered * 10 >= rank.dur_us * 9,
            "spans cover {covered} of the {} us of a rank's wall",
            rank.dur_us
        );
    }
}
