//! A uniform handle over the three partitioning strategies the paper
//! evaluates (`Nat`, `DFS`, `dagP`), used by the engines and the benchmark
//! harness to sweep strategies generically.

use crate::dagp::DagPPartitioner;
use crate::dfs::DfsPartitioner;
use crate::error::PartitionBuildError;
use crate::nat::NatPartitioner;
use hisvsim_dag::{CircuitDag, Partition};
use serde::{Deserialize, Serialize};

/// One of the paper's partitioning strategies.
///
/// `Hash` is derived so strategies can participate in cache keys (the
/// runtime's plan cache keys plans by circuit fingerprint + limit +
/// strategy portfolio).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Strategy {
    /// Natural topological order cutoff.
    Nat,
    /// Best of several random DFS topological order cutoffs.
    Dfs,
    /// Multilevel acyclic DAG partitioning (recursive bisection + merge).
    DagP,
}

impl Strategy {
    /// All strategies, in the order the paper's figures list them.
    pub const ALL: [Strategy; 3] = [Strategy::Nat, Strategy::Dfs, Strategy::DagP];

    /// Display name matching the paper's figures.
    pub fn name(&self) -> &'static str {
        match self {
            Strategy::Nat => "Nat",
            Strategy::Dfs => "DFS",
            Strategy::DagP => "dagP",
        }
    }

    /// Partition `dag` under working-set limit `limit` using this strategy's
    /// default configuration.
    pub fn partition(
        &self,
        dag: &CircuitDag,
        limit: usize,
    ) -> Result<Partition, PartitionBuildError> {
        match self {
            Strategy::Nat => NatPartitioner.partition(dag, limit),
            Strategy::Dfs => DfsPartitioner::default().partition(dag, limit),
            Strategy::DagP => DagPPartitioner::default().partition(dag, limit),
        }
    }
}

impl std::fmt::Display for Strategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for Strategy {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "nat" => Ok(Strategy::Nat),
            "dfs" => Ok(Strategy::Dfs),
            "dagp" => Ok(Strategy::DagP),
            other => Err(format!(
                "unknown strategy '{other}' (expected Nat, DFS, or dagP)"
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hisvsim_circuit::generators;

    #[test]
    fn all_strategies_partition_the_suite() {
        for name in generators::FAMILY_NAMES {
            let c = generators::by_name(name, 10);
            let dag = CircuitDag::from_circuit(&c);
            for strategy in Strategy::ALL {
                match strategy.partition(&dag, 6) {
                    Ok(p) => {
                        p.validate(&dag, 6).unwrap();
                    }
                    Err(PartitionBuildError::GateExceedsLimit { .. }) => {}
                    Err(e) => panic!("{name}/{strategy}: {e}"),
                }
            }
        }
    }

    #[test]
    fn names_match_paper_labels() {
        assert_eq!(Strategy::Nat.name(), "Nat");
        assert_eq!(Strategy::Dfs.name(), "DFS");
        assert_eq!(Strategy::DagP.name(), "dagP");
        assert_eq!(format!("{}", Strategy::DagP), "dagP");
    }

    #[test]
    fn parse_from_string() {
        assert_eq!("nat".parse::<Strategy>().unwrap(), Strategy::Nat);
        assert_eq!("DAGP".parse::<Strategy>().unwrap(), Strategy::DagP);
        assert!("foo".parse::<Strategy>().is_err());
    }
}
