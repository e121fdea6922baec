//! Experiment execution: run one (circuit, rank-count, algorithm)
//! combination, collect an [`ExperimentRecord`], and persist record sets as
//! JSON under the results directory (README, "Reproducing the paper's
//! artifacts").

use crate::config::{results_dir, SuiteEntry};
use hisvsim_circuit::Circuit;
use hisvsim_cluster::NetworkModel;
use hisvsim_core::{
    BaselineConfig, DistConfig, DistributedSimulator, IqsBaseline, MultilevelConfig,
    MultilevelSimulator, RunReport,
};
use hisvsim_partition::Strategy;
use serde::{Deserialize, Serialize};

/// Which simulator produced a record.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Algorithm {
    /// HiSVSIM with the Nat partitioning strategy.
    Nat,
    /// HiSVSIM with the DFS partitioning strategy.
    Dfs,
    /// HiSVSIM with the dagP partitioning strategy.
    DagP,
    /// The IQS-style baseline (labelled "Intel" in the paper's figures).
    Intel,
    /// The multi-level HiSVSIM engine (dagP at both levels).
    MultiLevel,
}

impl Algorithm {
    /// All four algorithms of Figs. 5–9, in the paper's order.
    pub const FIG5_SET: [Algorithm; 4] = [
        Algorithm::Nat,
        Algorithm::Dfs,
        Algorithm::DagP,
        Algorithm::Intel,
    ];

    /// Figure label.
    pub fn name(&self) -> &'static str {
        match self {
            Algorithm::Nat => "Nat",
            Algorithm::Dfs => "DFS",
            Algorithm::DagP => "dagP",
            Algorithm::Intel => "Intel",
            Algorithm::MultiLevel => "MultiLevel",
        }
    }

    /// The partitioning strategy behind a HiSVSIM algorithm, if any.
    pub fn strategy(&self) -> Option<Strategy> {
        match self {
            Algorithm::Nat => Some(Strategy::Nat),
            Algorithm::Dfs => Some(Strategy::Dfs),
            Algorithm::DagP | Algorithm::MultiLevel => Some(Strategy::DagP),
            Algorithm::Intel => None,
        }
    }
}

/// One measured experiment.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ExperimentRecord {
    /// Circuit label (e.g. `bv35`).
    pub circuit: String,
    /// Circuit width in qubits (reproduction scale).
    pub qubits: usize,
    /// Gate count.
    pub gates: usize,
    /// Virtual rank count.
    pub ranks: usize,
    /// Algorithm that produced this record.
    pub algorithm: Algorithm,
    /// Number of parts (1 for the baseline).
    pub parts: usize,
    /// Modelled end-to-end time: computation + average modelled comm.
    pub total_time_s: f64,
    /// Measured computation time (max over ranks).
    pub compute_time_s: f64,
    /// Modelled communication time (average over ranks).
    pub comm_time_s: f64,
    /// Communication ratio = comm / total.
    pub comm_ratio: f64,
    /// Total payload bytes moved across the virtual interconnect.
    pub bytes_moved: u64,
    /// Number of global redistributions.
    pub exchanges: usize,
}

impl ExperimentRecord {
    fn from_report(algorithm: Algorithm, ranks: usize, report: &RunReport) -> Self {
        Self {
            circuit: report.circuit.clone(),
            qubits: report.num_qubits,
            gates: report.num_gates,
            ranks,
            algorithm,
            parts: report.num_parts,
            total_time_s: report.modeled_total_time_s(),
            compute_time_s: report.compute_time_s,
            comm_time_s: report.avg_comm_time_s,
            comm_ratio: report.comm_ratio(),
            bytes_moved: report.comm.bytes_sent,
            exchanges: report.num_exchanges,
        }
    }
}

/// Network model used by all distributed experiments.
///
/// The base constants are InfiniBand HDR-100 (as on Frontera), divided by a
/// *calibration factor* (`HISVSIM_NET_SCALE`, default 64): one virtual rank
/// here is a single thread, which updates its state-vector slice one to two
/// orders of magnitude slower than the 28-core, vectorised socket that backs
/// an MPI rank in the paper. Slowing the modelled wire by the same factor
/// keeps the communication-to-computation balance — the quantity all of
/// Figs. 5–9 are about — representative of the paper's cluster instead of
/// letting the (relatively) slow local compute swamp it. The factor is the
/// same for every algorithm, so it cancels in the relative comparisons. The
/// README's "Reproducing the paper's artifacts" lists the variable.
pub fn experiment_network() -> NetworkModel {
    let scale: f64 = std::env::var("HISVSIM_NET_SCALE")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(64.0);
    let base = NetworkModel::hdr100();
    NetworkModel {
        latency_s: base.latency_s * scale,
        bandwidth_bytes_per_s: base.bandwidth_bytes_per_s / scale,
        injection_share: base.injection_share,
    }
}

/// Run one algorithm on one circuit at one rank count.
pub fn run_algorithm(circuit: &Circuit, ranks: usize, algorithm: Algorithm) -> ExperimentRecord {
    let net = experiment_network();
    match algorithm {
        Algorithm::Intel => {
            let run = IqsBaseline::new(BaselineConfig::new(ranks).with_network(net)).run(circuit);
            ExperimentRecord::from_report(algorithm, ranks, &run.report)
        }
        Algorithm::MultiLevel => {
            let p = ranks.trailing_zeros() as usize;
            let l = circuit.num_qubits().saturating_sub(p);
            // Second level sized to half the local width (a stand-in for the
            // LLC-sized limit of the paper).
            let second = (l / 2).max(2);
            let run =
                MultilevelSimulator::new(MultilevelConfig::new(ranks, second).with_network(net))
                    .run(circuit)
                    .expect("multilevel partitioning failed");
            ExperimentRecord::from_report(algorithm, ranks, &run.report)
        }
        _ => {
            let strategy = algorithm.strategy().unwrap();
            let run = DistributedSimulator::new(
                DistConfig::new(ranks)
                    .with_strategy(strategy)
                    .with_network(net),
            )
            .run(circuit)
            .expect("partitioning failed");
            ExperimentRecord::from_report(algorithm, ranks, &run.report)
        }
    }
}

/// Run the full Fig. 5–9 sweep for one suite entry: every algorithm at every
/// rank count.
pub fn sweep_entry(entry: &SuiteEntry, ranks: &[usize]) -> Vec<ExperimentRecord> {
    let circuit = entry.circuit();
    let mut records = Vec::new();
    for &r in ranks {
        if (r.trailing_zeros() as usize) >= circuit.num_qubits() {
            continue;
        }
        for algorithm in Algorithm::FIG5_SET {
            records.push(run_algorithm(&circuit, r, algorithm));
        }
    }
    records
}

/// Persist a record set as JSON under the results directory.
pub fn save_records(name: &str, records: &[ExperimentRecord]) -> std::path::PathBuf {
    let path = results_dir().join(format!("{name}.json"));
    let json = serde_json::to_string_pretty(records).expect("serialising records");
    std::fs::write(&path, json).expect("writing records");
    path
}

/// Load a previously saved record set (used by the aggregation binaries
/// `fig8`/`fig9` so they can reuse `fig5`'s sweep instead of re-running it).
pub fn load_records(name: &str) -> Option<Vec<ExperimentRecord>> {
    let path = results_dir().join(format!("{name}.json"));
    let data = std::fs::read_to_string(path).ok()?;
    serde_json::from_str(&data).ok()
}

/// The improvement factor of a HiSVSIM record over the matching baseline
/// record (same circuit, same rank count).
pub fn improvement_factor(record: &ExperimentRecord, all: &[ExperimentRecord]) -> Option<f64> {
    let baseline = all.iter().find(|r| {
        r.algorithm == Algorithm::Intel && r.circuit == record.circuit && r.ranks == record.ranks
    })?;
    Some(baseline.total_time_s / record.total_time_s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hisvsim_circuit::generators;

    #[test]
    fn run_algorithm_produces_consistent_records() {
        let circuit = generators::by_name("ising", 10);
        for algorithm in [Algorithm::DagP, Algorithm::Intel, Algorithm::MultiLevel] {
            let record = run_algorithm(&circuit, 4, algorithm);
            assert_eq!(record.ranks, 4);
            assert_eq!(record.qubits, 10);
            assert!(record.total_time_s > 0.0);
            assert!(record.comm_ratio >= 0.0 && record.comm_ratio <= 1.0);
            assert!(
                (record.total_time_s - (record.compute_time_s + record.comm_time_s)).abs() < 1e-9
            );
        }
    }

    #[test]
    fn improvement_factor_matches_manual_division() {
        let circuit = generators::by_name("cc", 10);
        let records = vec![
            run_algorithm(&circuit, 4, Algorithm::DagP),
            run_algorithm(&circuit, 4, Algorithm::Intel),
        ];
        let f = improvement_factor(&records[0], &records).unwrap();
        assert!((f - records[1].total_time_s / records[0].total_time_s).abs() < 1e-12);
        // The baseline's own factor is 1.
        let f_base = improvement_factor(&records[1], &records).unwrap();
        assert!((f_base - 1.0).abs() < 1e-12);
    }

    #[test]
    fn records_roundtrip_through_json() {
        let circuit = generators::by_name("bv", 9);
        let records = vec![run_algorithm(&circuit, 2, Algorithm::Nat)];
        let json = serde_json::to_string(&records).unwrap();
        let back: Vec<ExperimentRecord> = serde_json::from_str(&json).unwrap();
        assert_eq!(back.len(), 1);
        assert_eq!(back[0].algorithm, Algorithm::Nat);
        assert_eq!(back[0].circuit, records[0].circuit);
    }
}
