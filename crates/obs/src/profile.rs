//! Measured-cost profiles: what a job's spans and phase timings say its
//! kernels, collectives and phases cost.
//!
//! A [`CostProfile`] aggregates drained [`SpanRecord`]s (and directly
//! reported phase timings) into three tables:
//!
//! - **kernels** — per sweep-kernel effective bandwidth, keyed by kernel
//!   name (`sweep:dense`, `sweep:solo`, `sweep:diagonal`, `sweep:tiled`),
//!   dispatch (`scalar`, `avx2`, …) and qubit band (`log2` of the swept
//!   amplitude count);
//! - **collectives** — per collective (`alltoallv`, `recv`) effective
//!   bandwidth over the bytes actually moved;
//! - **phases** — per (engine, phase) wall-second totals from the job
//!   runner's always-on timeline.
//!
//! A profile is an output only: the service builds one per completed job
//! and serves it as JSON (`GET /jobs/<id>/profile`). Nothing reads one back
//! to make a decision — a job's engine, plan and fused form are functions
//! of the job alone.

use crate::trace::SpanRecord;
use serde::Serialize;

/// Version of the profile JSON document.
pub const PROFILE_VERSION: u32 = 1;

/// Aggregated cost of one sweep kernel at one (dispatch, qubit band) cell.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct KernelCost {
    /// Kernel name as recorded by the sweep span (`sweep:dense`, …).
    pub kernel: String,
    /// Dispatch the sweeps ran under (`scalar`, `avx2`, …).
    pub dispatch: String,
    /// `log2` of the swept amplitude count.
    pub band: u32,
    /// Number of sweeps folded into this cell.
    pub sweeps: u64,
    /// Total wall seconds across those sweeps.
    pub seconds: f64,
    /// Total bytes read + written across those sweeps.
    pub bytes: u64,
}

impl KernelCost {
    /// Effective bandwidth of this cell in GB/s.
    pub fn gbps(&self) -> f64 {
        if self.seconds > 0.0 {
            self.bytes as f64 / self.seconds / 1e9
        } else {
            0.0
        }
    }
}

/// Aggregated cost of one collective operation kind.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct CollectiveCost {
    /// Collective name as recorded by the comm span (`alltoallv`, `recv`).
    pub collective: String,
    /// Number of operations folded in.
    pub ops: u64,
    /// Total wall seconds across those operations.
    pub seconds: f64,
    /// Total payload bytes across those operations.
    pub bytes: u64,
}

/// Aggregated wall time of one (engine, phase) pair from job timelines.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct PhaseCost {
    /// Engine name (`baseline`, `hier`, `dist`, `multilevel`).
    pub engine: String,
    /// Phase name (`plan`, `execute`, `postprocess`).
    pub phase: String,
    /// Number of jobs folded in.
    pub count: u64,
    /// Total wall seconds across those jobs.
    pub seconds: f64,
    /// Total amplitude bytes the phase worked over (0 when unknown).
    pub bytes: u64,
}

/// Measured costs aggregated from spans and phase timings.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct CostProfile {
    /// Document format version ([`PROFILE_VERSION`]).
    pub version: u32,
    /// Per-kernel cells, kept sorted by (kernel, dispatch, band).
    pub kernels: Vec<KernelCost>,
    /// Per-collective cells, kept sorted by name.
    pub collectives: Vec<CollectiveCost>,
    /// Per-(engine, phase) cells, kept sorted by (engine, phase).
    pub phases: Vec<PhaseCost>,
}

impl Default for CostProfile {
    fn default() -> Self {
        Self::new()
    }
}

impl CostProfile {
    /// An empty (cold) profile.
    pub fn new() -> Self {
        CostProfile {
            version: PROFILE_VERSION,
            kernels: Vec::new(),
            collectives: Vec::new(),
            phases: Vec::new(),
        }
    }

    /// Fold a batch of drained spans in. Kernel sweep spans (category
    /// `kernel`, name `sweep:*`, amplitude bytes attached) land in the
    /// kernel table under `dispatch`; comm spans (`alltoallv`, `recv`)
    /// land in the collective table. Spans without a byte count carry no
    /// bandwidth information and are skipped. Reads the slice without
    /// consuming it, so the same spans can still be exported as a trace.
    pub fn absorb_spans(&mut self, spans: &[SpanRecord], dispatch: &str) {
        for span in spans {
            if span.bytes == 0 || span.dur_us == 0 {
                continue;
            }
            let seconds = span.dur_us as f64 / 1e6;
            if span.cat == "kernel" && span.name.starts_with("sweep:") {
                let amps = span.bytes / 32;
                if amps == 0 {
                    continue;
                }
                let band = 63 - amps.leading_zeros();
                self.absorb_kernel(&span.name, dispatch, band, 1, seconds, span.bytes);
            } else if span.cat == "comm" && (span.name == "alltoallv" || span.name == "recv") {
                self.absorb_collective(&span.name, 1, seconds, span.bytes);
            }
        }
    }

    /// Fold one kernel measurement in directly.
    pub fn absorb_kernel(
        &mut self,
        kernel: &str,
        dispatch: &str,
        band: u32,
        sweeps: u64,
        seconds: f64,
        bytes: u64,
    ) {
        if let Some(cell) = self
            .kernels
            .iter_mut()
            .find(|k| k.kernel == kernel && k.dispatch == dispatch && k.band == band)
        {
            cell.sweeps += sweeps;
            cell.seconds += seconds;
            cell.bytes += bytes;
        } else {
            self.kernels.push(KernelCost {
                kernel: kernel.to_string(),
                dispatch: dispatch.to_string(),
                band,
                sweeps,
                seconds,
                bytes,
            });
            self.kernels.sort_by(|a, b| {
                (&a.kernel, &a.dispatch, a.band).cmp(&(&b.kernel, &b.dispatch, b.band))
            });
        }
    }

    /// Fold one collective measurement in directly.
    pub fn absorb_collective(&mut self, collective: &str, ops: u64, seconds: f64, bytes: u64) {
        if let Some(cell) = self
            .collectives
            .iter_mut()
            .find(|c| c.collective == collective)
        {
            cell.ops += ops;
            cell.seconds += seconds;
            cell.bytes += bytes;
        } else {
            self.collectives.push(CollectiveCost {
                collective: collective.to_string(),
                ops,
                seconds,
                bytes,
            });
            self.collectives
                .sort_by(|a, b| a.collective.cmp(&b.collective));
        }
    }

    /// Fold one job phase's wall time in (`bytes` = amplitude bytes the
    /// phase worked over, 0 when unknown).
    pub fn absorb_phase(&mut self, engine: &str, phase: &str, seconds: f64, bytes: u64) {
        if let Some(cell) = self
            .phases
            .iter_mut()
            .find(|p| p.engine == engine && p.phase == phase)
        {
            cell.count += 1;
            cell.seconds += seconds;
            cell.bytes += bytes;
        } else {
            self.phases.push(PhaseCost {
                engine: engine.to_string(),
                phase: phase.to_string(),
                count: 1,
                seconds,
                bytes,
            });
            self.phases
                .sort_by(|a, b| (&a.engine, &a.phase).cmp(&(&b.engine, &b.phase)));
        }
    }

    /// Serialise to pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("profile serialisation cannot fail")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sweep_span(name: &str, dur_us: u64, amps: u64) -> SpanRecord {
        SpanRecord {
            name: name.into(),
            cat: "kernel".into(),
            ts_us: 0,
            dur_us,
            pid: 0,
            tid: 0,
            detail: String::new(),
            bytes: amps * 32,
        }
    }

    fn comm_span(name: &str, dur_us: u64, bytes: u64) -> SpanRecord {
        SpanRecord {
            name: name.into(),
            cat: "comm".into(),
            ts_us: 0,
            dur_us,
            pid: 0,
            tid: 0,
            detail: String::new(),
            bytes,
        }
    }

    #[test]
    fn absorb_spans_bands_kernels_and_collectives() {
        let mut profile = CostProfile::new();
        let spans = vec![
            sweep_span("sweep:dense", 100, 1 << 20),
            sweep_span("sweep:dense", 100, 1 << 20),
            sweep_span("sweep:diagonal", 50, 1 << 18),
            comm_span("alltoallv", 200, 1 << 22),
            comm_span("barrier", 10, 0), // no bytes: skipped
        ];
        profile.absorb_spans(&spans, "avx2");
        assert_eq!(profile.kernels.len(), 2);
        let dense = &profile.kernels[0];
        assert_eq!(
            (dense.kernel.as_str(), dense.dispatch.as_str(), dense.band),
            ("sweep:dense", "avx2", 20)
        );
        assert_eq!(dense.sweeps, 2);
        assert_eq!(dense.bytes, 2 * (1u64 << 20) * 32);
        assert_eq!(profile.collectives.len(), 1);
        assert_eq!(profile.collectives[0].ops, 1);
    }
}
