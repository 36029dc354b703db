//! Summaries and the one record shape every number is reported in.

use serde::Serialize;

/// The quantile `/metrics` reports (`ceer_stats`, interpolated); 0 when
/// there are no samples.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    ceer_stats::summary::quantile(samples, q).unwrap_or(0.0)
}

/// Where and how a number was measured: the same on every record of a run.
#[derive(Debug, Clone, Serialize)]
pub struct Host {
    /// `std::thread::available_parallelism` of the measuring host.
    pub nproc: usize,
    /// Build profile of the benchmark binary (`release` or `debug`).
    pub profile: String,
    /// Commit the measured tree was checked out at, or `unknown`.
    pub git_rev: String,
}

impl Host {
    pub fn detect() -> Host {
        Host {
            nproc: std::thread::available_parallelism().map(usize::from).unwrap_or(1),
            profile: if cfg!(debug_assertions) { "debug" } else { "release" }.to_string(),
            git_rev: git_rev().unwrap_or_else(|| "unknown".to_string()),
        }
    }
}

/// Reads the checked-out commit from `.git` without running git (the
/// benchmark may run in an export that is not a repository at all).
fn git_rev() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(rev) = std::fs::read_to_string(format!(".git/{reference}")) {
        return Some(rev.trim().to_string());
    }
    let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
    packed.lines().find_map(|line| {
        let (rev, name) = line.split_once(' ')?;
        (name == reference).then(|| rev.to_string())
    })
}

/// One measured number: `{name, layer, unit, p50, p99, n}` plus the
/// workload and seed it came from. Scalars (rates, counts, ratios) carry
/// their value in `p50` and `p99` alike.
#[derive(Debug, Clone, Serialize)]
pub struct Record {
    pub name: String,
    pub layer: String,
    pub unit: String,
    pub p50: f64,
    pub p99: f64,
    pub n: u64,
    pub workload: String,
    pub seed: u64,
}

/// Records of one workload phase, tagged as they are pushed.
pub struct Records {
    pub workload: String,
    pub seed: u64,
    pub list: Vec<Record>,
}

impl Records {
    pub fn new(workload: &str, seed: u64) -> Records {
        Records { workload: workload.to_string(), seed, list: Vec::new() }
    }

    /// A distribution: p50 and p99 of `samples`.
    pub fn dist(&mut self, name: &str, layer: &str, unit: &str, samples: &[f64]) {
        let (p50, p99) = (quantile(samples, 0.5), quantile(samples, 0.99));
        self.push(name, layer, unit, [p50, p99], samples.len());
    }

    /// A single value (a rate, count or ratio) derived from `n` observations.
    pub fn scalar(&mut self, name: &str, layer: &str, unit: &str, value: f64, n: usize) {
        self.push(name, layer, unit, [value; 2], n);
    }

    /// The difference of two distributions, quantile by quantile.
    pub fn difference(
        &mut self,
        name: &str,
        layer: &str,
        unit: &str,
        p50: f64,
        p99: f64,
        n: usize,
    ) {
        self.push(name, layer, unit, [p50, p99], n);
    }

    fn push(&mut self, name: &str, layer: &str, unit: &str, [p50, p99]: [f64; 2], n: usize) {
        self.list.push(Record {
            name: name.to_string(),
            layer: layer.to_string(),
            unit: unit.to_string(),
            p50,
            p99,
            n: n as u64,
            workload: self.workload.clone(),
            seed: self.seed,
        });
    }
}

/// Resident set size of this process, MiB (`VmRSS` from procfs).
pub fn rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmRSS:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}
