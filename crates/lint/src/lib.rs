//! `simlint` — a static determinism / zero-allocation / safety linter for
//! this workspace.
//!
//! Every replay guarantee the reproduction makes — engine runs bit-identical
//! to the reference loop, seeded fault schedules, zero-allocation
//! steady-state rounds — is enforced dynamically by differential harnesses
//! and a counting allocator. This crate enforces the *source-level* hazard
//! class statically, before any test runs: one stray `HashMap` iteration or
//! `thread_rng()` in a merge path is caught at the token it appears on.
//!
//! The scanner ([`scanner`]) is a hand-rolled comment/string/char-aware Rust
//! tokenizer (no dependencies); the rule engine ([`rules`]) layers seven
//! path-scoped rules plus an inline suppression pragma grammar on top. The
//! `simlint` binary walks `crates/*/{src,tests,benches,examples}`, `src/`,
//! `tests/`, `examples/`, and `benches/` (never `vendor/` or `target/`),
//! exits nonzero on any unallowed finding, and `--json` emits a
//! machine-readable report. `docs/DETERMINISM.md` catalogues the invariants,
//! the rules, and the pragma syntax.

#![forbid(unsafe_code)]

pub mod rules;
pub mod scanner;

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

pub use rules::{lint_source, AllowedUse, FileReport, Finding};

/// The lint outcome for a whole workspace.
#[derive(Debug, Default)]
pub struct Report {
    /// Unallowed findings, sorted by (file, line, rule). Empty means the
    /// gate passes.
    pub findings: Vec<Finding>,
    /// Pragma-suppressed findings, kept auditable.
    pub allowed: Vec<AllowedUse>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
}

impl Report {
    /// `true` when the workspace is clean (exit code 0).
    pub fn ok(&self) -> bool {
        self.findings.is_empty()
    }

    /// The machine-readable report (hand-rolled JSON — this crate is
    /// dependency-free by design).
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\n  \"tool\": \"simlint\",\n");
        s.push_str(&format!("  \"ok\": {},\n", self.ok()));
        s.push_str(&format!("  \"files_scanned\": {},\n", self.files_scanned));
        s.push_str(&format!("  \"finding_count\": {},\n", self.findings.len()));
        s.push_str("  \"findings\": [");
        for (i, f) in self.findings.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "\n    {{\"file\": \"{}\", \"line\": {}, \"rule\": \"{}\", \"message\": \"{}\"}}",
                json_escape(&f.file),
                f.line,
                f.rule,
                json_escape(&f.message)
            ));
        }
        s.push_str(if self.findings.is_empty() { "],\n" } else { "\n  ],\n" });
        s.push_str("  \"allowed\": [");
        for (i, a) in self.allowed.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "\n    {{\"file\": \"{}\", \"line\": {}, \"rule\": \"{}\", \"reason\": \"{}\"}}",
                json_escape(&a.file),
                a.line,
                a.rule,
                json_escape(&a.reason)
            ));
        }
        s.push_str(if self.allowed.is_empty() { "]\n}\n" } else { "\n  ]\n}\n" });
        s
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// The source directories `simlint` walks, relative to the workspace root.
/// `vendor/` (API stand-ins we do not own) and `target/` are never scanned.
fn walk_roots(root: &Path) -> io::Result<Vec<PathBuf>> {
    let mut dirs: Vec<PathBuf> =
        ["src", "tests", "examples", "benches"].iter().map(|d| root.join(d)).collect();
    let crates = root.join("crates");
    if crates.is_dir() {
        for entry in fs::read_dir(&crates)? {
            let path = entry?.path();
            if path.is_dir() {
                for sub in ["src", "tests", "examples", "benches"] {
                    dirs.push(path.join(sub));
                }
            }
        }
    }
    Ok(dirs)
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            collect_rs_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Every `.rs` file `simlint` scans under `root`, sorted for deterministic
/// reports.
pub fn workspace_files(root: &Path) -> io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    for dir in walk_roots(root)? {
        collect_rs_files(&dir, &mut files)?;
    }
    files.sort();
    Ok(files)
}

/// Lints the workspace rooted at `root`.
///
/// # Errors
///
/// Returns any I/O error from walking or reading the source tree.
pub fn lint_workspace(root: &Path) -> io::Result<Report> {
    let mut report = Report::default();
    for path in workspace_files(root)? {
        let rel: String = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .components()
            .map(|c| c.as_os_str().to_string_lossy())
            .collect::<Vec<_>>()
            .join("/");
        let src = fs::read_to_string(&path)?;
        let file_report = lint_source(&rel, &src);
        report.findings.extend(file_report.findings);
        report.allowed.extend(file_report.allowed);
        report.files_scanned += 1;
    }
    report.findings.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    report.allowed.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    Ok(report)
}
