//! The `host` block every committed `BENCH_*.json` carries, so a number
//! can be read against the machine and the code that produced it.

use serde::Serialize;
use std::process::Command;

/// The machine, toolchain and source revision a bench ran on.
#[derive(Debug, Clone, Serialize)]
pub struct Host {
    /// `std::thread::available_parallelism` (logical CPUs usable here).
    pub available_parallelism: usize,
    /// `rustc -V` of the toolchain on `PATH`, or `"unknown"`.
    pub rustc: String,
    /// `git rev-parse HEAD`, suffixed `+dirty` when the working tree has
    /// uncommitted changes, or `"unknown"` outside a git checkout.
    pub git_revision: String,
}

impl Host {
    /// Probes the current host.
    pub fn detect() -> Self {
        let rustc = command_output("rustc", &["-V"]).unwrap_or_else(|| "unknown".to_owned());
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
            None => "unknown".to_owned(),
        };
        Self {
            available_parallelism: std::thread::available_parallelism().map_or(1, |n| n.get()),
            rustc,
            git_revision,
        }
    }
}

/// Trimmed stdout of a successful command, `None` if it cannot run.
fn command_output(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_owned())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detect_fills_every_field() {
        let host = Host::detect();
        assert!(host.available_parallelism >= 1);
        assert!(host.rustc == "unknown" || host.rustc.starts_with("rustc "));
        assert!(!host.git_revision.is_empty());
        let json = serde_json::to_string(&host).unwrap();
        for field in ["available_parallelism", "rustc", "git_revision"] {
            assert!(json.contains(field), "{field} missing from {json}");
        }
    }
}
