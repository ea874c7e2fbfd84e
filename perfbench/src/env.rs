//! The environment a result was measured in: commit, compiler, CPU and
//! core count, recorded with every result.

use std::process::Command;

/// Where and with what a run was measured.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Env {
    /// `git rev-parse HEAD` of the working directory, when it is a git
    /// checkout.
    pub commit: String,
    /// The compiler that built the benchmark.
    pub rustc: String,
    /// `model name` from /proc/cpuinfo.
    pub cpu: String,
    /// Cores available to the process.
    pub nproc: usize,
}

impl Env {
    /// Probe the current host.
    pub fn probe() -> Self {
        let commit = Command::new("git")
            .args(["rev-parse", "HEAD"])
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown (not a git checkout)".to_string());
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        Self {
            commit,
            rustc: env!("PERFBENCH_RUSTC").to_string(),
            cpu,
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
        }
    }
}

/// `s` as a JSON string literal.
pub fn json_str(s: &str) -> String {
    serde_json::to_string(s).unwrap_or_else(|_| "\"\"".to_string())
}
