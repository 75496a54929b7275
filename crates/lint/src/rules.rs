//! The rule engine: path-scoped determinism / zero-allocation / safety /
//! cost-accounting rules over one file's token scan, with inline suppression
//! pragmas.
//!
//! # Pragma syntax
//!
//! A finding is suppressed by a line comment of the form
//!
//! ```text
//! // simlint::allow(<rule>: <reason>)
//! ```
//!
//! either trailing on the offending line or on a line of its own immediately
//! above it (more precisely: an own-line pragma covers the next line that
//! carries any code token). The reason is mandatory — a pragma with an
//! unknown rule name, an empty reason, or no matching finding is itself
//! reported as an [`INVALID_PRAGMA`] finding, so suppressions can never rot
//! silently.

use crate::scanner::{scan, ScanResult, Tok};

/// Iterating `HashMap`/`HashSet` leaks the hasher's order into metrics,
/// traces, and merge paths — the exact hazard that breaks bit-identical
/// engine replay. Scoped to the determinism-bearing crates.
pub const NONDETERMINISTIC_ITERATION: &str = "nondeterministic-iteration";
/// `Instant::now` / `SystemTime`, in every scanned file: simulated time must
/// come from the round counter, never the host clock. Host speed is measured
/// by the perf ledger (`benchmark/`), which is not part of the workspace.
pub const WALL_CLOCK: &str = "wall-clock";
/// `thread_rng` / `rand::random` / `from_entropy`: all randomness must be
/// ChaCha-seeded (like `FaultPlan`) so every run replays bit-identically.
pub const AMBIENT_RANDOMNESS: &str = "ambient-randomness";
/// Allocation constructs inside a module carrying a `//! simlint: hot-path`
/// header — the static complement of `tests/alloc_regression.rs`.
pub const HOT_PATH_ALLOC: &str = "hot-path-alloc";
/// Crate roots must carry `#![forbid(unsafe_code)]`, and any `unsafe` token
/// needs a `// SAFETY:` comment on the same line or within three lines above.
pub const FORBID_UNSAFE: &str = "forbid-unsafe";
/// `Ordering::Relaxed` in shipped code (`crates/*/src`, up to the first
/// `#[cfg(test)] mod`) always requires a pragma arguing why the weak
/// ordering cannot perturb a result.
pub const RELAXED_ORDERING: &str = "relaxed-ordering";
/// A direct write to one of `Metrics`' four cost fields in `crates/core`
/// shipped code: a cost charged outside the engine goes through the charge
/// methods of `congest_sim::Metrics`, which saturate and count a message on
/// its edge and in the total together.
pub const DIRECT_COST_WRITE: &str = "direct-cost-write";
/// Meta-rule for malformed / unknown / unused pragmas; not itself
/// suppressible.
pub const INVALID_PRAGMA: &str = "invalid-pragma";

/// Every suppressible rule, in reporting order.
pub const ALL_RULES: [&str; 7] = [
    NONDETERMINISTIC_ITERATION,
    WALL_CLOCK,
    AMBIENT_RANDOMNESS,
    HOT_PATH_ALLOC,
    FORBID_UNSAFE,
    RELAXED_ORDERING,
    DIRECT_COST_WRITE,
];

/// The module-header comment that opts a file into [`HOT_PATH_ALLOC`].
pub const HOT_PATH_HEADER: &str = "simlint: hot-path";

/// One reported violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-relative path, `/`-separated.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Rule name (one of the `pub const` rule slugs).
    pub rule: &'static str,
    pub message: String,
}

/// A finding that was suppressed by a pragma — kept for the JSON report so
/// every accepted exception stays auditable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllowedUse {
    pub file: String,
    pub line: u32,
    pub rule: &'static str,
    pub reason: String,
}

/// The lint outcome for one file.
#[derive(Debug, Default)]
pub struct FileReport {
    pub findings: Vec<Finding>,
    pub allowed: Vec<AllowedUse>,
}

struct Pragma {
    rule: &'static str,
    reason: String,
    /// The pragma's own line.
    line: u32,
    /// The code line it covers (its own line for trailing pragmas, the next
    /// code line for own-line pragmas).
    target: u32,
    used: bool,
}

/// Lints one file's source. `rel_path` is the workspace-relative path with
/// `/` separators — rule scoping is purely path-prefix based.
pub fn lint_source(rel_path: &str, src: &str) -> FileReport {
    let sc = scan(src);
    let mut report = FileReport::default();
    let mut pragmas = collect_pragmas(rel_path, &sc, &mut report.findings);

    let mut raw: Vec<Finding> = Vec::new();
    check_nondeterministic_iteration(rel_path, &sc, &mut raw);
    check_wall_clock(rel_path, &sc, &mut raw);
    check_ambient_randomness(rel_path, &sc, &mut raw);
    check_hot_path_alloc(rel_path, &sc, &mut raw);
    check_forbid_unsafe(rel_path, &sc, &mut raw);
    check_relaxed_ordering(rel_path, &sc, &mut raw);
    check_direct_cost_write(rel_path, &sc, &mut raw);
    raw.sort_by_key(|f| (f.line, f.rule));

    for f in raw {
        let hit = pragmas
            .iter_mut()
            .find(|p| p.rule == f.rule && (p.target == f.line || p.line == f.line));
        if let Some(p) = hit {
            p.used = true;
            report.allowed.push(AllowedUse {
                file: f.file,
                line: f.line,
                rule: f.rule,
                reason: p.reason.clone(),
            });
        } else {
            report.findings.push(f);
        }
    }

    // A pragma that suppresses nothing is stale: either the violation was
    // fixed (delete the pragma) or the pragma is mis-placed (move it).
    for p in pragmas.iter().filter(|p| !p.used) {
        report.findings.push(Finding {
            file: rel_path.to_string(),
            line: p.line,
            rule: INVALID_PRAGMA,
            message: format!(
                "pragma `simlint::allow({}: …)` matches no finding on line {} — \
                 delete it or move it next to the code it covers",
                p.rule, p.target
            ),
        });
    }
    report.findings.sort_by_key(|f| (f.line, f.rule));
    report
}

fn collect_pragmas(rel_path: &str, sc: &ScanResult, findings: &mut Vec<Finding>) -> Vec<Pragma> {
    let mut pragmas = Vec::new();
    for c in &sc.comments {
        let content = c.content();
        let Some(rest) = content.strip_prefix("simlint::allow") else { continue };
        let bad = |msg: String| Finding {
            file: rel_path.to_string(),
            line: c.line,
            rule: INVALID_PRAGMA,
            message: msg,
        };
        let Some(inner) = rest.trim().strip_prefix('(').and_then(|r| r.strip_suffix(')')) else {
            findings.push(bad(format!(
                "malformed pragma `{content}` — expected `simlint::allow(<rule>: <reason>)`"
            )));
            continue;
        };
        let Some((rule_name, reason)) = inner.split_once(':') else {
            findings.push(bad(format!(
                "pragma `{content}` is missing a reason — use `simlint::allow(<rule>: <reason>)`"
            )));
            continue;
        };
        let rule_name = rule_name.trim();
        let reason = reason.trim();
        let Some(rule) = ALL_RULES.iter().find(|r| **r == rule_name).copied() else {
            findings.push(bad(format!(
                "pragma names unknown rule `{rule_name}` (known: {})",
                ALL_RULES.join(", ")
            )));
            continue;
        };
        if reason.is_empty() {
            findings.push(bad(format!(
                "pragma for `{rule_name}` carries no reason — every exception must say why"
            )));
            continue;
        }
        let target = if sc.has_code_on(c.line) {
            c.line
        } else {
            sc.next_code_line(c.line).unwrap_or(c.line)
        };
        pragmas.push(Pragma {
            rule,
            reason: reason.to_string(),
            line: c.line,
            target,
            used: false,
        });
    }
    pragmas
}

fn finding(rel_path: &str, line: u32, rule: &'static str, message: String) -> Finding {
    Finding { file: rel_path.to_string(), line, rule, message }
}

fn ident_at(sc: &ScanResult, i: usize) -> Option<&str> {
    sc.tokens.get(i).and_then(Tok::ident)
}

fn punct_at(sc: &ScanResult, i: usize) -> Option<char> {
    sc.tokens.get(i).and_then(Tok::punct)
}

/// `true` when tokens `i..` spell `::<name>`.
fn path_seg(sc: &ScanResult, i: usize, name: &str) -> bool {
    punct_at(sc, i) == Some(':')
        && punct_at(sc, i + 1) == Some(':')
        && ident_at(sc, i + 2) == Some(name)
}

/// Marks which token indices sit inside a `use …;` declaration, where naming
/// `HashMap` is an import, not an iteration hazard.
fn use_statement_mask(sc: &ScanResult) -> Vec<bool> {
    let mut mask = vec![false; sc.tokens.len()];
    let mut active = false;
    for (i, t) in sc.tokens.iter().enumerate() {
        if t.ident() == Some("use") {
            active = true;
        }
        mask[i] = active;
        if t.punct() == Some(';') {
            active = false;
        }
    }
    mask
}

/// The line of the first `#[cfg(test)] mod …` item, if any: hot-path alloc,
/// relaxed-ordering and direct-cost-write scanning stop there — in-file unit
/// tests may allocate freely, count with relaxed atomics, and their oracles
/// keep their own arithmetic.
fn cfg_test_mod_line(sc: &ScanResult) -> u32 {
    for i in 0..sc.tokens.len() {
        if punct_at(sc, i) == Some('#')
            && punct_at(sc, i + 1) == Some('[')
            && ident_at(sc, i + 2) == Some("cfg")
            && punct_at(sc, i + 3) == Some('(')
            && ident_at(sc, i + 4) == Some("test")
            && punct_at(sc, i + 5) == Some(')')
            && punct_at(sc, i + 6) == Some(']')
            && ident_at(sc, i + 7) == Some("mod")
        {
            return sc.tokens[i].line();
        }
    }
    u32::MAX
}

const DETERMINISM_CRATES: [&str; 5] =
    ["crates/sim/", "crates/core/", "crates/cover/", "crates/graph/", "crates/oracle/"];

fn check_nondeterministic_iteration(rel_path: &str, sc: &ScanResult, out: &mut Vec<Finding>) {
    if !DETERMINISM_CRATES.iter().any(|p| rel_path.starts_with(p)) {
        return;
    }
    let in_use = use_statement_mask(sc);
    for (i, t) in sc.tokens.iter().enumerate() {
        let Some(name @ ("HashMap" | "HashSet")) = t.ident() else { continue };
        if in_use[i] {
            continue;
        }
        out.push(finding(
            rel_path,
            t.line(),
            NONDETERMINISTIC_ITERATION,
            format!(
                "`{name}` in a determinism-scoped crate: hasher order leaks into any \
                 iteration — use `BTreeMap`/`BTreeSet` or a `Vec`-indexed map, or pragma a \
                 provably lookup-only use"
            ),
        ));
    }
}

fn check_wall_clock(rel_path: &str, sc: &ScanResult, out: &mut Vec<Finding>) {
    for (i, t) in sc.tokens.iter().enumerate() {
        match t.ident() {
            Some("Instant") if path_seg(sc, i + 1, "now") => out.push(finding(
                rel_path,
                t.line(),
                WALL_CLOCK,
                "`Instant::now()`: wall-clock time is nondeterministic — simulated time is \
                 the round counter, host speed is the ledger's (`benchmark/`)"
                    .to_string(),
            )),
            Some("SystemTime") => out.push(finding(
                rel_path,
                t.line(),
                WALL_CLOCK,
                "`SystemTime`: wall-clock time is nondeterministic".to_string(),
            )),
            _ => {}
        }
    }
}

fn check_ambient_randomness(rel_path: &str, sc: &ScanResult, out: &mut Vec<Finding>) {
    for (i, t) in sc.tokens.iter().enumerate() {
        let hit = match t.ident() {
            Some(name @ ("thread_rng" | "from_entropy")) => Some(format!("`{name}`")),
            Some("rand") if path_seg(sc, i + 1, "random") => Some("`rand::random`".to_string()),
            _ => None,
        };
        if let Some(what) = hit {
            out.push(finding(
                rel_path,
                t.line(),
                AMBIENT_RANDOMNESS,
                format!(
                    "{what}: ambient entropy breaks seeded replay — thread a \
                     ChaCha-seeded generator from an explicit seed (as `FaultPlan` does)"
                ),
            ));
        }
    }
}

fn check_hot_path_alloc(rel_path: &str, sc: &ScanResult, out: &mut Vec<Finding>) {
    if !sc.comments.iter().any(|c| c.content() == HOT_PATH_HEADER) {
        return;
    }
    let cutoff = cfg_test_mod_line(sc);
    let mut hit = |line: u32, what: &str| {
        if line < cutoff {
            out.push(finding(
                rel_path,
                line,
                HOT_PATH_ALLOC,
                format!(
                    "{what} in a `{HOT_PATH_HEADER}` module: steady-state rounds must not \
                     allocate (see `tests/alloc_regression.rs`) — reuse a buffer, or pragma \
                     one-time setup / diagnostic-mode allocations"
                ),
            ));
        }
    };
    for (i, t) in sc.tokens.iter().enumerate() {
        match t.ident() {
            Some(m @ ("vec" | "format")) if punct_at(sc, i + 1) == Some('!') => {
                hit(t.line(), &format!("`{m}!`"));
            }
            Some(ty @ ("Vec" | "Box")) if path_seg(sc, i + 1, "new") => {
                hit(t.line(), &format!("`{ty}::new`"));
            }
            Some(m @ ("collect" | "to_vec")) if i > 0 && punct_at(sc, i - 1) == Some('.') => {
                hit(t.line(), &format!("`.{m}()`"));
            }
            _ => {}
        }
    }
}

/// `true` for files that are crate roots of workspace packages — the files
/// where `#![forbid(unsafe_code)]` must live.
fn is_crate_root(rel_path: &str) -> bool {
    rel_path == "src/lib.rs"
        || rel_path == "src/main.rs"
        || (rel_path.starts_with("crates/")
            && (rel_path.ends_with("/src/lib.rs")
                || rel_path.ends_with("/src/main.rs")
                || rel_path.contains("/src/bin/")))
}

fn check_forbid_unsafe(rel_path: &str, sc: &ScanResult, out: &mut Vec<Finding>) {
    if is_crate_root(rel_path) {
        let has_forbid = (0..sc.tokens.len()).any(|i| {
            ident_at(sc, i) == Some("forbid")
                && punct_at(sc, i + 1) == Some('(')
                && ident_at(sc, i + 2) == Some("unsafe_code")
        });
        if !has_forbid {
            out.push(finding(
                rel_path,
                1,
                FORBID_UNSAFE,
                "crate root is missing `#![forbid(unsafe_code)]`".to_string(),
            ));
        }
    }
    for t in &sc.tokens {
        if t.ident() != Some("unsafe") {
            continue;
        }
        let line = t.line();
        let justified = sc
            .comments
            .iter()
            .any(|c| c.content().starts_with("SAFETY:") && c.line <= line && line - c.line <= 3);
        if !justified {
            out.push(finding(
                rel_path,
                line,
                FORBID_UNSAFE,
                "`unsafe` without a `// SAFETY:` comment on the same line or within three \
                 lines above"
                    .to_string(),
            ));
        }
    }
}

/// `true` for a file under some crate's `src/` directory (`crates/*/src/`).
fn is_crate_source(rel_path: &str) -> bool {
    let crate_dir = rel_path.strip_prefix("crates/").and_then(|rest| rest.split_once('/'));
    crate_dir.is_some_and(|(_, inner)| inner.starts_with("src/"))
}

fn check_relaxed_ordering(rel_path: &str, sc: &ScanResult, out: &mut Vec<Finding>) {
    if !is_crate_source(rel_path) {
        return;
    }
    let cutoff = cfg_test_mod_line(sc);
    for (i, t) in sc.tokens.iter().enumerate() {
        if t.ident() == Some("Ordering") && path_seg(sc, i + 1, "Relaxed") && t.line() < cutoff {
            out.push(finding(
                rel_path,
                t.line(),
                RELAXED_ORDERING,
                "`Ordering::Relaxed` in shipped code requires a pragma justifying why the \
                 weak ordering cannot perturb a result"
                    .to_string(),
            ));
        }
    }
}

/// The fields of `congest_sim::Metrics` that hold the four costs the paper
/// bounds.
const COST_FIELDS: [&str; 4] = ["rounds", "messages", "node_energy", "edge_congestion"];

/// `true` when tokens `i..` spell an assignment or a compound assignment
/// (`=`, `+=`, …, `<<=`), but not a comparison (`==`, `<=`, `>=`, `!=`).
fn assigns_at(sc: &ScanResult, i: usize) -> bool {
    match (punct_at(sc, i), punct_at(sc, i + 1), punct_at(sc, i + 2)) {
        (Some('='), next, _) => next != Some('=') && next != Some('>'),
        (Some('+' | '-' | '*' | '/' | '%' | '|' | '&' | '^'), Some('='), _) => true,
        (Some('<'), Some('<'), Some('=')) | (Some('>'), Some('>'), Some('=')) => true,
        _ => false,
    }
}

/// The index just past the `]` that closes the `[` at `open`.
fn past_brackets(sc: &ScanResult, open: usize) -> usize {
    let mut depth = 0usize;
    for j in open..sc.tokens.len() {
        match punct_at(sc, j) {
            Some('[') => depth += 1,
            Some(']') => {
                depth -= 1;
                if depth == 0 {
                    return j + 1;
                }
            }
            _ => {}
        }
    }
    sc.tokens.len()
}

/// `true` when the place expression whose field access is the `.` at `dot`
/// is borrowed `&mut`: walking back over its path (`self.metrics`,
/// `run.metrics`, `x::y`) lands on `& mut`.
fn borrowed_mut(sc: &ScanResult, dot: usize) -> bool {
    let mut j = dot;
    while j > 0 {
        let prev = &sc.tokens[j - 1];
        if prev.ident().is_some() || matches!(prev.punct(), Some('.' | ':')) {
            j -= 1;
        } else {
            break;
        }
    }
    // The walk stops on `mut` itself when it is the place's first token.
    j >= 1 && ident_at(sc, j) == Some("mut") && punct_at(sc, j - 1) == Some('&')
}

fn check_direct_cost_write(rel_path: &str, sc: &ScanResult, out: &mut Vec<Finding>) {
    if !rel_path.starts_with("crates/core/src/") || rel_path.ends_with("/reference.rs") {
        return;
    }
    let cutoff = cfg_test_mod_line(sc);
    for i in 0..sc.tokens.len() {
        let Some(field) = ident_at(sc, i + 1) else { continue };
        if punct_at(sc, i) != Some('.') || !COST_FIELDS.contains(&field) {
            continue;
        }
        let after = if punct_at(sc, i + 2) == Some('[') { past_brackets(sc, i + 2) } else { i + 2 };
        let method =
            |name: &str| punct_at(sc, i + 2) == Some('.') && ident_at(sc, i + 3) == Some(name);
        let how = if assigns_at(sc, after) {
            "an assignment to"
        } else if borrowed_mut(sc, i) {
            "a `&mut` borrow of"
        } else if method("fill") || method("iter_mut") {
            "an in-place sweep over"
        } else {
            continue;
        };
        let line = sc.tokens[i + 1].line();
        if line < cutoff {
            out.push(finding(
                rel_path,
                line,
                DIRECT_COST_WRITE,
                format!(
                    "{how} `.{field}`: a cost is charged outside the engine only through \
                     `Metrics::charge_rounds` / `charge_awake` / `charge_messages` / \
                     `charge_megaround` / `cap_energy_at_rounds`, which saturate and keep \
                     `messages == Σ edge_congestion`"
                ),
            ));
        }
    }
}
