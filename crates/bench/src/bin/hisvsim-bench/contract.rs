//! The benchmark's declarations: every metric's name, unit, direction and
//! (for end-to-end metrics) regression bound, which end-to-end metric each
//! per-layer metric is expected to move, and the `BENCHMARK.json` generated
//! from them. `hisvsim-bench contract` prints that file; a test fails when
//! the checked-in copy and these declarations drift apart.

use crate::workloads::Kind;
use serde_json::Value;

/// Seconds one driver run measures for.
pub const RUN_SECONDS: u64 = 15;

/// End-to-end runs of every workload that `run` takes for one ledger: the
/// spread `compare` needs to tell a difference from noise comes from them.
pub const REPEATS: usize = 5;

/// Directory that holds the benchmark and nothing else.
pub const BENCH_DIR: &str = "crates/bench/src/bin/hisvsim-bench";

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// `lower` / `higher`.
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One declared metric.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// Name as printed and as keyed in every file.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// End-to-end: share of the parent's median it may worsen by.
    /// Per-layer: 0 (no bound).
    pub bound: f64,
    /// End-to-end: what it is. Per-layer: the timed call, then `->` the
    /// end-to-end metric and workload it is expected to move.
    pub note: &'static str,
}

impl Metric {
    /// `unit`, `better` and (for end-to-end metrics) `bound`, as JSON fields.
    pub fn fields(&self, bounded: bool) -> Vec<(String, Value)> {
        let mut fields = vec![
            ("unit".to_string(), text(self.unit)),
            ("better".to_string(), text(self.better.name())),
        ];
        if bounded {
            fields.push(("bound".to_string(), Value::Float(self.bound)));
        }
        fields
    }
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    note: &'static str,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound,
        note,
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    note: &'static str,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: 0.0,
        note,
    }
}

use Better::{Higher, Lower};

/// What a user of the system sees; measured with every tracer off.
pub const END_TO_END: &[Metric] = &[
    e2e("job_ms_p50", "ms", Lower, 0.25, "median submit->result wall time of one job"),
    e2e(
        "job_ms_tail",
        "ms",
        Lower,
        0.25,
        "p99 where a run has the >= 1000 samples that leave ten beyond it, else the median; job counts are fixed, so it is always p99 on burst_warm and the median elsewhere",
    ),
    e2e(
        "jobs_per_s",
        "1/s",
        Higher,
        0.25,
        "verified jobs / timed wall; a client's clock runs inside submit->wait only and the longest client's clock is the wall",
    ),
    e2e(
        "setup_s",
        "s",
        Lower,
        0.25,
        "pool spawn + mesh connect, service start, circuit generation and warm-up jobs (median of 3 set-ups)",
    ),
    e2e(
        "peak_rss_mib",
        "MiB",
        Lower,
        0.15,
        "VmHWM of the workload's process plus its worker processes",
    ),
];

/// One number per layer boundary; measured in the traced run from the
/// benchmark's own spans.
pub const PER_LAYER: &[Metric] = &[
    layer("host.triad_gbps", "GB/s", Higher, "STREAM triad over arrays >= max(4x LLC, 256 MiB) -> roofline of every *_gbps row"),
    layer("statevec.k1_gbps", "GB/s", Higher, "apply_single at the workload width, 32 B x 2^n per sweep -> job_ms_p50@large_qft"),
    layer("statevec.diag_gbps", "GB/s", Higher, "apply_diagonal_single -> job_ms_p50@large_qft"),
    layer("statevec.k2_gbps", "GB/s", Higher, "apply_two_qubit_dense -> job_ms_p50@large_random"),
    layer("statevec.k3_gbps", "GB/s", Higher, "apply_k_qubit at k=3 -> job_ms_p50@large_random"),
    layer("statevec.k3_roofline_frac", "frac", Higher, "k3_gbps / host.triad_gbps; answers ROADMAP 1(b)"),
    layer("statevec.fuse_ms", "ms", Lower, "FusedCircuit::with_strategy -> jobs_per_s@plan_cold"),
    layer("statevec.fused_ops", "count", Lower, "sweeps of the fused circuit (exact) -> job_ms_p50@large_*"),
    layer("statevec.fused_apply_s", "s", Lower, "FusedCircuit::apply on zero_state -> job_ms_p50@large_*"),
    layer("statevec.fused_apply_gbps", "GB/s", Higher, "fused_ops x 32 B x 2^n / fused_apply_s"),
    layer("statevec.fused_over_kernels_ratio", "ratio", Lower, "fused_apply_s / sum of FusedOp::apply one by one: executor overhead over its kernels"),
    layer("statevec.gather_scatter_gbps", "GB/s", Higher, "GatherMap::gather_into + scatter over all assignments at limit n-4, 64 B x 2^n -> job_ms_p50@large_qft"),
    layer("statevec.sweep14_us", "us", Lower, "per-op time of FusedCircuit::apply at 14 qubits (the parallel threshold) -> job_ms_tail@burst_warm"),
    layer("statevec.sweep16_us", "us", Lower, "per-op time of FusedCircuit::apply at 16 qubits -> jobs_per_s@burst_warm (thread spawn)"),
    layer("dag.build_ms", "ms", Lower, "CircuitDag::from_circuit -> jobs_per_s@plan_cold"),
    layer("partition.dagp_ms", "ms", Lower, "Strategy::DagP.partition -> jobs_per_s@plan_cold"),
    layer("partition.dfs_ms", "ms", Lower, "Strategy::Dfs.partition"),
    layer("partition.nat_ms", "ms", Lower, "Strategy::Nat.partition"),
    layer("partition.dagp_parts", "count", Lower, "parts (exact) -> job_ms_p50@large_* (fewer parts, fewer passes)"),
    layer("partition.dfs_parts", "count", Lower, "parts (exact)"),
    layer("partition.nat_parts", "count", Lower, "parts (exact)"),
    layer("core.flat_s", "s", Lower, "IqsBaseline(1 rank)::run -> job_ms_p50@burst_warm"),
    layer("core.hier_s", "s", Lower, "HierarchicalSimulator::run_with_fused_plan on the dagP plan -> job_ms_p50@large_*"),
    layer("core.dist2_s", "s", Lower, "DistributedSimulator(2)::run_with_fused_plan -> job_ms_p50@cluster_qft"),
    layer("core.multilevel2_s", "s", Lower, "MultilevelSimulator(2)::run_with_fused_plan"),
    layer("core.hier_over_flat_ratio", "ratio", Lower, "hier_s / flat_s: the paper's hier-beats-flat claim; answers ROADMAP 1(a)"),
    layer("core.hier_dfs_over_dagp_ratio", "ratio", Higher, "hier_s on the DFS plan / on the dagP plan: the paper's dagP claim"),
    layer("core.hier_nat_over_dagp_ratio", "ratio", Higher, "hier_s on the Nat plan / on the dagP plan"),
    layer("core.flat_over_executor_ratio", "ratio", Lower, "flat_s / statevec.fused_apply_s: engine cost over the executor"),
    layer("core.comm_bytes", "count", Lower, "RunReport.comm.bytes_sent of the dist2 run (exact) -> job_ms_p50@cluster_qft"),
    layer("core.exchanges", "count", Lower, "RunReport.num_exchanges of the dist2 run (exact)"),
    layer("core.comm_wall_s", "s", Lower, "RunReport.comm.wall_time_s of the dist2 run, summed over ranks"),
    layer("cluster.alltoallv_gbps", "GB/s", Higher, "2-rank LocalComm alltoallv, 2^20 amplitudes per peer: thread-world base for net.*"),
    layer("cluster.barrier_us", "us", Lower, "2-rank LocalComm barrier"),
    layer("runtime.plan_ms", "ms", Lower, "Planner::plan_single_fused, cold -> jobs_per_s@plan_cold"),
    layer("runtime.plan_share", "frac", Lower, "sum plan_time_s / sum wall_time_s of the driven jobs: ~0 @burst_warm, >= 0.4 @plan_cold"),
    layer("runtime.cache_hit_rate", "frac", Higher, "CacheStats::since(..).hit_rate() over the driven jobs: 1 where plans are reused, 0 @plan_cold, 0 where the flat engine never consults the cache"),
    layer("runtime.cache_misses", "count", Lower, "plan-cache misses over the driven jobs (exact): 0 @burst_warm, one per job @plan_cold"),
    layer("runtime.runner_over_engine_ms", "ms", Lower, "warm Scheduler::run_batch(one job) minus the engine call (fastest of interleaved rounds), median over templates -> jobs_per_s@burst_warm"),
    layer("runtime.postprocess_ms", "ms", Lower, "postprocess entry of JobResult::timeline() -> jobs_per_s@burst_warm (64 shots)"),
    layer("service.submit_us_p50", "us", Lower, "SimService::submit return -> job_ms_p50@burst_warm"),
    layer("service.queue_wait_ms_p50", "ms", Lower, "submit return to the Planning event -> job_ms_tail@burst_warm; rises before jobs_per_s stops rising"),
    layer("service.over_runner_ms", "ms", Lower, "submit->wait minus run_batch, one client (fastest of interleaved rounds), median over templates -> jobs_per_s@burst_warm"),
    layer("net.pool_spawn_s", "s", Lower, "WorkerPool::new(2) to its first (6-qubit) job done -> setup_s@cluster_qft"),
    layer("net.pool_job_s", "s", Lower, "the probe circuit forced dist, Backend::Process -> job_ms_p50@cluster_qft"),
    layer("net.thread_job_s", "s", Lower, "the same job, Backend::Local (2 rank threads)"),
    layer("net.process_over_thread_ratio", "ratio", Lower, "pool_job_s / thread_job_s: what the process boundary costs"),
    layer("net.tcp_alltoallv_gbps", "GB/s", Higher, "2-rank loopback TcpComm alltoallv, same payload as cluster.alltoallv_gbps -> job_ms_p50@cluster_qft"),
    layer("net.bytes_sent", "count", Lower, "JobResult::comm_stats() of the driven jobs (exact): > 0 only @cluster_qft"),
    layer("net.messages_sent", "count", Lower, "JobResult::comm_stats() of the driven jobs (exact)"),
    layer("net.comm_wall_s", "s", Lower, "JobResult::comm_stats().wall_time_s of the driven jobs, summed over ranks"),
    layer("http.healthz_us_p50", "us", Lower, "GET /healthz against a spawned hisvsim-http serve; on no end-to-end path today"),
    layer("http.status_us_p50", "us", Lower, "GET /jobs/0"),
    layer("http.metrics_ms_p50", "ms", Lower, "GET /metrics"),
    layer("http.trace_ms_p50", "ms", Lower, "GET /jobs/0/trace"),
    layer("http.trace_kib", "KiB", Lower, "body of GET /jobs/0/trace"),
    layer("obs.span_ns", "ns", Lower, "one armed hisvsim_obs span, drain included"),
    layer("obs.spans_per_job", "count", Lower, "hisvsim_obs::drain().len() after one traced job"),
    layer("obs.traced_over_untraced_ratio", "ratio", Lower, "job_ms_p50 with the program's recorder on / off"),
];

/// Metrics that cannot be measured when a sibling binary has not been built.
#[cfg(test)]
pub fn needs_binary(metric: &str) -> Option<&'static str> {
    if metric.starts_with("http.") {
        Some("hisvsim-http")
    } else if [
        "net.pool_spawn_s",
        "net.pool_job_s",
        "net.process_over_thread_ratio",
    ]
    .contains(&metric)
    {
        Some("hisvsim-net")
    } else {
        None
    }
}

fn text(s: &str) -> Value {
    Value::Str(s.to_string())
}

/// The contract file, generated from the declarations above.
pub fn benchmark_json() -> String {
    let metric = |m: &Metric, bounded: bool| {
        let mut fields = vec![("name".to_string(), text(m.name))];
        fields.extend(m.fields(bounded));
        Value::Object(fields)
    };
    let doc = Value::Object(vec![
        (
            "command".into(),
            Value::Array(vec![text("bash"), text(&format!("{BENCH_DIR}/run.sh"))]),
        ),
        ("paths".into(), Value::Array(vec![text(BENCH_DIR)])),
        ("run_seconds".into(), Value::Int(RUN_SECONDS.into())),
        (
            "workloads".into(),
            Value::Array(
                Kind::ALL
                    .iter()
                    .map(|kind| {
                        Value::Object(vec![
                            ("name".into(), text(kind.name())),
                            ("why".into(), text(kind.why())),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end".into(),
            Value::Array(END_TO_END.iter().map(|m| metric(m, true)).collect()),
        ),
        (
            "per_layer".into(),
            Value::Array(PER_LAYER.iter().map(|m| metric(m, false)).collect()),
        ),
    ]);
    crate::json::pretty(&doc)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn declarations_fit_the_contract_limits() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.name).collect();
        names.extend(Kind::ALL.iter().map(|k| k.name()));
        for name in &names {
            assert!(valid_name(name), "{name}");
        }
        let count = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), count, "a name is used twice");
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(m.unit.len() <= 16, "{}", m.name);
            assert!(
                m.unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{}",
                m.name
            );
        }
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        assert!((1..=16).contains(&END_TO_END.len()) && (1..=128).contains(&PER_LAYER.len()));
        assert!(benchmark_json().len() <= 64 * 1024);
    }

    /// The benchmark is also a package of its own (the builder's contract
    /// asks for one); its manifest must not drift from the workspace's.
    #[test]
    fn the_stand_alone_manifest_follows_the_workspace() {
        let own = include_str!("Cargo.toml");
        let bench = include_str!("../../../Cargo.toml");
        let root = include_str!("../../../../../Cargo.toml");
        let dependencies: Vec<&str> = own
            .lines()
            .filter(|line| line.contains("{ path = "))
            .filter_map(|line| line.split_whitespace().next())
            .collect();
        assert!(!dependencies.is_empty());
        for name in dependencies {
            let declared = format!("{name} = {{ workspace = true }}");
            assert!(bench.contains(&declared), "{name} is not in crates/bench");
        }
        let release_profile = |manifest: &'static str| -> Vec<&'static str> {
            let (_, rest) = manifest
                .split_once("[profile.release]")
                .expect("a release profile");
            rest.lines()
                .skip(1)
                .take_while(|line| !line.starts_with('['))
                .filter(|line| !line.trim().is_empty() && !line.starts_with('#'))
                .collect()
        };
        assert_eq!(release_profile(own), release_profile(root));
    }

    #[test]
    fn the_checked_in_benchmark_json_is_the_generated_one() {
        let checked_in = include_str!("../../../../../BENCHMARK.json");
        assert_eq!(
            serde_json::value_from_str(checked_in).unwrap(),
            serde_json::value_from_str(&benchmark_json()).unwrap(),
            "BENCHMARK.json is stale: regenerate it with `hisvsim-bench contract > BENCHMARK.json`"
        );
    }
}
