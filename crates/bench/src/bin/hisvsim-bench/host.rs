//! The host block written into every results file — numbers taken on
//! different machines must never be compared silently — and the STREAM-style
//! triad that gives every `*_gbps` row its roofline.

use serde_json::Value;
use std::process::Command;
use std::time::Instant;

/// What the benchmark knows about the machine and build it ran on.
#[derive(Debug, Clone, PartialEq)]
pub struct Host {
    /// CPU model string from `/proc/cpuinfo`.
    pub cpu: String,
    /// `std::thread::available_parallelism`.
    pub cores: usize,
    /// L1 data cache of cpu0, KiB (0 when sysfs does not say).
    pub l1d_kib: u64,
    /// L2 cache of cpu0, KiB.
    pub l2_kib: u64,
    /// Last-level cache of cpu0, KiB.
    pub llc_kib: u64,
    /// `MemTotal`, MiB.
    pub ram_mib: u64,
    /// Kernel family `KernelDispatch::Auto` resolves to here.
    pub kernel_dispatch: String,
    /// `rustc --version` of the toolchain on the path.
    pub rustc: String,
    /// `git rev-parse HEAD`, or `unknown` outside a git checkout.
    pub git_commit: String,
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .filter(|line| !line.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Parse a sysfs cache size such as `2048K` or `260M` into KiB.
fn parse_cache_kib(text: &str) -> Option<u64> {
    let text = text.trim();
    let (digits, bytes_per_unit) = match text.chars().last()? {
        'K' => (&text[..text.len() - 1], 1u64 << 10),
        'M' => (&text[..text.len() - 1], 1 << 20),
        'G' => (&text[..text.len() - 1], 1 << 30),
        _ => (text, 1),
    };
    Some(digits.parse::<u64>().ok()? * bytes_per_unit / 1024)
}

/// `(level, KiB)` of every data or unified cache of cpu0.
fn cpu0_caches() -> Vec<(u32, u64)> {
    let mut caches = Vec::new();
    for index in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{index}");
        let read = |file: &str| std::fs::read_to_string(format!("{dir}/{file}")).ok();
        let (Some(level), Some(kind), Some(size)) = (read("level"), read("type"), read("size"))
        else {
            continue;
        };
        if kind.trim() == "Instruction" {
            continue;
        }
        if let (Ok(level), Some(kib)) = (level.trim().parse(), parse_cache_kib(&size)) {
            caches.push((level, kib));
        }
    }
    caches
}

fn proc_field(path: &str, key: &str) -> Option<String> {
    let text = std::fs::read_to_string(path).ok()?;
    text.lines()
        .find(|line| line.starts_with(key))
        .and_then(|line| line.split_once(':'))
        .map(|(_, value)| value.trim().to_string())
}

/// A `kB` field of a `/proc/<pid>/status`-style file, in MiB.
pub fn proc_status_mib(pid: &str, key: &str) -> Option<f64> {
    let value = proc_field(&format!("/proc/{pid}/status"), key)?;
    let kib: f64 = value.split_whitespace().next()?.parse().ok()?;
    Some(kib / 1024.0)
}

impl Host {
    /// Describe this machine.
    pub fn detect() -> Self {
        let caches = cpu0_caches();
        let level = |wanted: u32| {
            caches
                .iter()
                .find(|(level, _)| *level == wanted)
                .map_or(0, |(_, kib)| *kib)
        };
        Self {
            cpu: proc_field("/proc/cpuinfo", "model name").unwrap_or_else(|| "unknown".into()),
            cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
            l1d_kib: level(1),
            l2_kib: level(2),
            llc_kib: caches
                .iter()
                .max_by_key(|(level, _)| *level)
                .map_or(0, |(_, kib)| *kib),
            ram_mib: proc_field("/proc/meminfo", "MemTotal")
                .and_then(|v| v.split_whitespace().next()?.parse::<u64>().ok())
                .map_or(0, |kib| kib / 1024),
            kernel_dispatch: crate::layers::resolved_kernel_dispatch().to_string(),
            rustc: command_line("rustc", &["--version"]),
            git_commit: command_line("git", &["rev-parse", "HEAD"]),
        }
    }

    /// The fields two results files must share to be comparable (everything
    /// but the commit, which is what a comparison is usually *about*).
    pub fn identity(&self) -> Vec<(&'static str, String)> {
        vec![
            ("cpu", self.cpu.clone()),
            ("cores", self.cores.to_string()),
            ("l1d_kib", self.l1d_kib.to_string()),
            ("l2_kib", self.l2_kib.to_string()),
            ("llc_kib", self.llc_kib.to_string()),
            ("ram_mib", self.ram_mib.to_string()),
            ("kernel_dispatch", self.kernel_dispatch.clone()),
            ("rustc", self.rustc.clone()),
        ]
    }

    /// The block as JSON, with the measured triad beside it.
    pub fn to_value(&self, triad: &Triad) -> Value {
        let mut fields: Vec<(String, Value)> = self
            .identity()
            .into_iter()
            .map(|(key, value)| (key.to_string(), Value::Str(value)))
            .collect();
        fields.push(("git_commit".into(), Value::Str(self.git_commit.clone())));
        fields.push(("triad_gbps".into(), Value::Float(triad.gbps)));
        fields.push((
            "triad_array_mib".into(),
            Value::Float(triad.array_bytes as f64 / (1 << 20) as f64),
        ));
        Value::Object(fields)
    }

    /// Bytes per triad array: the three arrays together are at least four
    /// last-level caches and at least 256 MiB, capped at a quarter of RAM.
    pub fn triad_array_bytes(&self) -> usize {
        let total = (4 * self.llc_kib * 1024).max(256 << 20);
        let cap = (self.ram_mib << 20) / 4;
        (total.min(cap.max(3 << 20)) / 3) as usize
    }
}

/// Result of one triad measurement.
#[derive(Debug, Clone, Copy)]
pub struct Triad {
    /// Best sustained bandwidth over the repetitions, GB/s (24 bytes per
    /// element per pass: two reads and a write).
    pub gbps: f64,
    /// Size of each of the three arrays.
    pub array_bytes: usize,
}

/// STREAM triad `a[i] = b[i] + s * c[i]` over three `array_bytes` arrays,
/// split across `threads` threads, best of `reps` passes after a warm-up one.
pub fn triad(array_bytes: usize, threads: usize, reps: usize) -> Triad {
    let len = (array_bytes / 8).max(threads);
    let mut a = vec![0.0f64; len];
    let b = vec![1.5f64; len];
    let c = vec![2.5f64; len];
    let chunk = len.div_ceil(threads);
    let mut best = f64::INFINITY;
    for pass in 0..=reps {
        let start = Instant::now();
        std::thread::scope(|scope| {
            for ((a, b), c) in a
                .chunks_mut(chunk)
                .zip(b.chunks(chunk))
                .zip(c.chunks(chunk))
            {
                scope.spawn(move || {
                    for ((a, b), c) in a.iter_mut().zip(b).zip(c) {
                        *a = *b + 3.0 * *c;
                    }
                });
            }
        });
        std::hint::black_box(&mut a);
        if pass > 0 {
            best = best.min(start.elapsed().as_secs_f64());
        }
    }
    Triad {
        gbps: 24.0 * len as f64 / best / 1e9,
        array_bytes: len * 8,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_sizes_parse_with_and_without_suffix() {
        assert_eq!(parse_cache_kib("48K\n"), Some(48));
        assert_eq!(parse_cache_kib("260M"), Some(260 * 1024));
        assert_eq!(parse_cache_kib("65536"), Some(64));
        assert_eq!(parse_cache_kib("big"), None);
    }

    #[test]
    fn triad_moves_the_bytes_it_claims() {
        let t = triad(1 << 20, 2, 2);
        assert_eq!(t.array_bytes, 1 << 20);
        assert!(t.gbps.is_finite() && t.gbps > 0.0);
    }

    #[test]
    fn detect_fills_the_identity_fields() {
        let host = Host::detect();
        assert!(host.cores >= 1);
        assert_eq!(host.identity().len(), 8);
        assert!(host.triad_array_bytes() >= 1 << 20);
    }
}
