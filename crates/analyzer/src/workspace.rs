//! Workspace discovery: which `.rs` files to lint, which crate each one
//! belongs to, and which Cargo features each crate declares.
//!
//! The walk is deliberately simple and offline: `src/`, `tests/`,
//! `examples/` and `benches/` of the root package plus every crate under
//! `crates/`. `vendor/` (offline dependency shims), `target/`, hidden
//! directories, and anything under a `fixtures/` directory (the
//! analyzer's own seeded-violation corpus) are skipped.
//!
//! `perfbench/src` is read too, but only as a source of references for
//! `dead-pub`: `perfbench` is a workspace of its own whose use of the
//! crates' API keeps that API alive, and no rule checks its files.

use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// One source file to lint.
#[derive(Debug)]
pub struct WorkspaceFile {
    /// Workspace-relative path, `/`-separated.
    pub rel: String,
    /// Crate directory name (`rpc`, `telemetry`, …; the root package is
    /// its directory-independent name `dcperf`).
    pub crate_name: String,
    /// File contents.
    pub src: String,
    /// Is this a target root (`lib.rs`, `main.rs`, `bin/*.rs`)?
    pub is_crate_root: bool,
}

/// The discovered workspace.
#[derive(Debug, Default)]
pub struct Workspace {
    /// Every file to lint, sorted by path.
    pub files: Vec<WorkspaceFile>,
    /// Declared Cargo features per crate name.
    pub features: BTreeMap<String, Vec<String>>,
    /// Files read only for the references they make (`perfbench/src`).
    pub references: Vec<WorkspaceFile>,
}

/// Directory names never descended into.
const SKIP_DIRS: &[&str] = &["target", "vendor", "fixtures", "node_modules"];

/// The subdirectories of a package that contain lintable Rust.
const PACKAGE_DIRS: &[&str] = &["src", "tests", "examples", "benches"];

/// Loads the workspace rooted at `root`.
pub fn load(root: &Path) -> io::Result<Workspace> {
    let mut ws = Workspace::default();

    // Root package.
    ws.features.insert(
        "dcperf".to_string(),
        parse_features(&root.join("Cargo.toml")),
    );
    for dir in PACKAGE_DIRS {
        collect(root, &root.join(dir), "dcperf", &mut ws.files)?;
    }

    // Member crates.
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        let mut entries: Vec<PathBuf> = fs::read_dir(&crates_dir)?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.is_dir())
            .collect();
        entries.sort();
        for crate_dir in entries {
            let name = crate_dir
                .file_name()
                .and_then(|n| n.to_str())
                .unwrap_or_default()
                .to_string();
            if name.is_empty() || name.starts_with('.') {
                continue;
            }
            ws.features
                .insert(name.clone(), parse_features(&crate_dir.join("Cargo.toml")));
            for dir in PACKAGE_DIRS {
                collect(root, &crate_dir.join(dir), &name, &mut ws.files)?;
            }
        }
    }

    collect(
        root,
        &root.join("perfbench/src"),
        "perfbench",
        &mut ws.references,
    )?;

    ws.files.sort_by(|a, b| a.rel.cmp(&b.rel));
    Ok(ws)
}

fn collect(
    root: &Path,
    dir: &Path,
    crate_name: &str,
    out: &mut Vec<WorkspaceFile>,
) -> io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        let file_name = path
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or_default()
            .to_string();
        if file_name.starts_with('.') {
            continue;
        }
        if path.is_dir() {
            if SKIP_DIRS.contains(&file_name.as_str()) {
                continue;
            }
            collect(root, &path, crate_name, out)?;
        } else if file_name.ends_with(".rs") {
            let rel = rel_path(root, &path);
            let src = fs::read_to_string(&path)?;
            let is_crate_root = {
                let tail = rel.rsplit('/').next().unwrap_or("");
                let in_src = rel.contains("src/");
                (in_src && (tail == "lib.rs" || tail == "main.rs")) || rel.contains("src/bin/")
            };
            out.push(WorkspaceFile {
                rel,
                crate_name: crate_name.to_string(),
                src,
                is_crate_root,
            });
        }
    }
    Ok(())
}

fn rel_path(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

/// Extracts declared feature names from a Cargo.toml `[features]`
/// section with a plain line scan (no TOML dependency).
fn parse_features(manifest: &Path) -> Vec<String> {
    let Ok(text) = fs::read_to_string(manifest) else {
        return Vec::new();
    };
    let mut in_features = false;
    let mut features = Vec::new();
    for line in text.lines() {
        let line = line.trim();
        if line.starts_with('[') {
            in_features = line == "[features]";
            continue;
        }
        if !in_features || line.is_empty() || line.starts_with('#') {
            continue;
        }
        if let Some((name, _)) = line.split_once('=') {
            let name = name.trim().trim_matches('"');
            if !name.is_empty() {
                features.push(name.to_string());
            }
        }
    }
    features
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_features_from_this_workspace() {
        // The analyzer's own crate dir sits at crates/analyzer.
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let kvstore = parse_features(&root.join("crates/kvstore/Cargo.toml"));
        assert!(
            kvstore.contains(&"fault-injection".to_string()),
            "{kvstore:?}"
        );
        let util = parse_features(&root.join("crates/util/Cargo.toml"));
        assert!(!util.contains(&"fault-injection".to_string()));
    }

    #[test]
    fn walks_this_workspace_and_skips_vendor_and_fixtures() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let ws = load(&root).expect("workspace loads");
        assert!(ws.files.iter().any(|f| f.rel == "crates/rpc/src/server.rs"));
        assert!(ws.files.iter().any(|f| f.rel == "src/lib.rs"));
        assert!(!ws.files.iter().any(|f| f.rel.starts_with("vendor/")));
        assert!(!ws.files.iter().any(|f| f.rel.contains("/fixtures/")));
        assert!(!ws.files.iter().any(|f| f.rel.starts_with("perfbench/")));
        assert!(ws
            .references
            .iter()
            .any(|f| f.rel == "perfbench/src/kv_tcp.rs"));
        let lib = ws
            .files
            .iter()
            .find(|f| f.rel == "crates/rpc/src/lib.rs")
            .unwrap();
        assert!(lib.is_crate_root);
        assert_eq!(lib.crate_name, "rpc");
        let module = ws
            .files
            .iter()
            .find(|f| f.rel == "crates/rpc/src/server.rs")
            .unwrap();
        assert!(!module.is_crate_root);
    }
}
