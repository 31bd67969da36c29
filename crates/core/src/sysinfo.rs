//! Host information probing.
//!
//! DCPerf reports "key information about the system being tested (e.g., CPU
//! model, memory size, and kernel version)" with every benchmark result
//! (§3.1). [`SystemInfo`] gathers that from `/proc` and `/sys`, degrading
//! gracefully on platforms where those files are absent, and adds the
//! toolchain and source revision, so a number can be read against the
//! code that produced it.

use serde::{Deserialize, Serialize};
use std::process::Command;
use std::sync::OnceLock;

/// A description of the machine a benchmark ran on.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SystemInfo {
    /// Host name, or `"unknown"`.
    pub hostname: String,
    /// CPU model string from `/proc/cpuinfo`, or `"unknown"`.
    pub cpu_model: String,
    /// Number of logical CPUs visible to this process.
    pub logical_cores: usize,
    /// Total memory in kilobytes from `/proc/meminfo`, or 0.
    pub mem_total_kb: u64,
    /// Kernel release string, or `"unknown"`.
    pub kernel_version: String,
    /// `rustc -V` of the toolchain on `PATH`, or `"unknown"`.
    pub rustc: String,
    /// `git rev-parse HEAD`, suffixed `+dirty` when the working tree has
    /// uncommitted changes, or `"unknown"` outside a git checkout.
    pub git_revision: String,
}

impl SystemInfo {
    /// Probes the current host.
    pub fn probe() -> Self {
        let (rustc, git_revision) = build_info().clone();
        Self {
            hostname: read_trimmed("/proc/sys/kernel/hostname").unwrap_or_else(|| "unknown".into()),
            cpu_model: probe_cpu_model().unwrap_or_else(|| "unknown".into()),
            logical_cores: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            mem_total_kb: probe_mem_total_kb().unwrap_or(0),
            kernel_version: read_trimmed("/proc/sys/kernel/osrelease")
                .unwrap_or_else(|| "unknown".into()),
            rustc,
            git_revision,
        }
    }
}

/// The toolchain and source revision, `(rustc, git_revision)`. Each probe
/// starts a subprocess and neither changes while the process runs, so
/// they run once per process however many contexts probe the host.
fn build_info() -> &'static (String, String) {
    static INFO: OnceLock<(String, String)> = OnceLock::new();
    INFO.get_or_init(|| {
        let rustc = command_output("rustc", &["-V"]).unwrap_or_else(|| "unknown".into());
        let git_revision = match command_output("git", &["rev-parse", "HEAD"]) {
            Some(rev) => {
                let dirty = command_output("git", &["status", "--porcelain"])
                    .is_some_and(|status| !status.is_empty());
                if dirty {
                    format!("{rev}+dirty")
                } else {
                    rev
                }
            }
            None => "unknown".into(),
        };
        (rustc, git_revision)
    })
}

/// Trimmed stdout of a successful command, `None` if it cannot run.
fn command_output(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_owned())
}

fn read_trimmed(path: &str) -> Option<String> {
    std::fs::read_to_string(path)
        .ok()
        .map(|s| s.trim().to_owned())
        .filter(|s| !s.is_empty())
}

fn probe_cpu_model() -> Option<String> {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").ok()?;
    for line in cpuinfo.lines() {
        // x86 reports "model name"; many ARM kernels report "Processor"
        // or only "CPU part".
        if let Some(rest) = line.strip_prefix("model name") {
            return Some(rest.trim_start_matches([' ', '\t', ':']).trim().to_owned());
        }
    }
    None
}

fn probe_mem_total_kb() -> Option<u64> {
    let meminfo = std::fs::read_to_string("/proc/meminfo").ok()?;
    for line in meminfo.lines() {
        if let Some(rest) = line.strip_prefix("MemTotal:") {
            return rest.trim().trim_end_matches(" kB").trim().parse().ok();
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_does_not_panic_and_reports_cores() {
        let info = SystemInfo::probe();
        assert!(info.logical_cores >= 1);
        assert!(!info.hostname.is_empty());
    }

    #[test]
    fn probe_round_trips_through_json() {
        let info = SystemInfo::probe();
        let json = serde_json::to_string(&info).unwrap();
        let back: SystemInfo = serde_json::from_str(&json).unwrap();
        assert_eq!(info, back);
    }

    #[test]
    fn json_carries_toolchain_and_revision() {
        let info = SystemInfo::probe();
        assert!(info.rustc == "unknown" || info.rustc.starts_with("rustc "));
        assert!(!info.git_revision.is_empty());
        let json = serde_json::to_string(&info).unwrap();
        for field in ["\"rustc\"", "\"git_revision\""] {
            assert!(json.contains(field), "{field} missing from {json}");
        }
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn linux_probe_finds_memory_and_kernel() {
        let info = SystemInfo::probe();
        assert!(info.mem_total_kb > 0, "MemTotal should parse on Linux");
        assert_ne!(info.kernel_version, "unknown");
    }
}
