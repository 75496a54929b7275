//! Fixture self-tests for every `simlint` rule: for each rule a positive
//! (flagged), a negative (clean), and a pragma-suppressed variant, plus the
//! pragma-grammar error cases and the scanner edge cases that make literal
//! contents invisible to the rule engine.
//!
//! All fixture sources live in raw strings, so the trigger tokens they
//! contain are themselves invisible when `simlint` scans this test file.

use congest_lint::rules::{
    AMBIENT_RANDOMNESS, DIRECT_COST_WRITE, FORBID_UNSAFE, HOT_PATH_ALLOC, INVALID_PRAGMA,
    NONDETERMINISTIC_ITERATION, RELAXED_ORDERING, WALL_CLOCK,
};
use congest_lint::{lint_source, FileReport};

/// `(line, rule)` pairs of the unallowed findings for `src` at `path`.
fn findings(path: &str, src: &str) -> Vec<(u32, &'static str)> {
    lint_source(path, src).findings.iter().map(|f| (f.line, f.rule)).collect()
}

fn report(path: &str, src: &str) -> FileReport {
    lint_source(path, src)
}

// ---------------------------------------------------------------- rule scopes

#[test]
fn hashmap_in_a_determinism_crate_is_flagged() {
    let src = r#"
fn tally() {
    let mut m = std::collections::HashMap::new();
    m.insert(1u32, 2u32);
}
"#;
    assert_eq!(findings("crates/sim/src/foo.rs", src), vec![(3, NONDETERMINISTIC_ITERATION)]);
    assert_eq!(findings("crates/core/src/foo.rs", src), vec![(3, NONDETERMINISTIC_ITERATION)]);
    // Out of the determinism scope: clean.
    assert_eq!(findings("crates/sssp/src/foo.rs", src), vec![]);
    assert_eq!(findings("crates/bench/src/foo.rs", src), vec![]);
}

#[test]
fn hashset_is_flagged_like_hashmap() {
    let src = "fn f() { let s: std::collections::HashSet<u32> = Default::default(); }";
    assert_eq!(findings("crates/graph/src/foo.rs", src), vec![(1, NONDETERMINISTIC_ITERATION)]);
}

#[test]
fn use_statements_naming_hashmap_are_imports_not_hazards() {
    let src = "use std::collections::{HashMap, HashSet};\n";
    assert_eq!(findings("crates/sim/src/foo.rs", src), vec![]);
}

#[test]
fn btreemap_is_the_clean_replacement() {
    let src = "fn f() { let mut m = std::collections::BTreeMap::new(); m.insert(1u32, 2u32); }";
    assert_eq!(findings("crates/sim/src/foo.rs", src), vec![]);
}

#[test]
fn wall_clock_is_flagged_everywhere() {
    let src = "fn f() { let t = std::time::Instant::now(); let _ = t; }";
    assert_eq!(findings("crates/sim/src/foo.rs", src), vec![(1, WALL_CLOCK)]);
    assert_eq!(findings("src/util.rs", src), vec![(1, WALL_CLOCK)]);
    // No path is exempt: the experiment tables are simulated statistics, and
    // the one thing that times host code (`benchmark/`) is outside the walk.
    assert_eq!(findings("crates/bench/src/foo.rs", src), vec![(1, WALL_CLOCK)]);
    assert_eq!(findings("crates/bench/benches/foo.rs", src), vec![(1, WALL_CLOCK)]);
}

#[test]
fn system_time_is_flagged_even_without_a_method_call() {
    let src = "fn f(t: std::time::SystemTime) { let _ = t; }";
    assert_eq!(findings("crates/sssp/src/foo.rs", src), vec![(1, WALL_CLOCK)]);
}

#[test]
fn a_bare_instant_type_without_now_is_clean() {
    let src = "fn f(t: std::time::Instant, u: std::time::Instant) -> bool { t < u }";
    assert_eq!(findings("crates/sim/src/foo.rs", src), vec![]);
}

#[test]
fn ambient_randomness_is_flagged_everywhere() {
    assert_eq!(
        findings("crates/sssp/src/foo.rs", "fn f() -> u64 { rand::thread_rng().gen() }"),
        vec![(1, AMBIENT_RANDOMNESS)]
    );
    assert_eq!(
        findings("tests/foo.rs", "fn f() { let g = SmallRng::from_entropy(); }"),
        vec![(1, AMBIENT_RANDOMNESS)]
    );
    assert_eq!(
        findings("examples/foo.rs", "fn f() -> f64 { rand::random() }"),
        vec![(1, AMBIENT_RANDOMNESS)]
    );
    // `random` as a plain identifier (or a field) is not `rand::random`.
    assert_eq!(findings("src/util.rs", "fn f(random: u64) -> u64 { random }"), vec![]);
}

#[test]
fn hot_path_alloc_requires_the_module_header() {
    let body = r#"
fn per_round(xs: &[u32]) -> Vec<u32> {
    xs.iter().copied().collect()
}
"#;
    // No header: the rule does not apply.
    assert_eq!(findings("crates/sim/src/engine/foo.rs", body), vec![]);
    // With the header every allocation construct is flagged.
    let hot = format!("//! The hot loop.\n//!\n//! simlint: hot-path\n{body}");
    assert_eq!(findings("crates/sim/src/engine/foo.rs", &hot), vec![(6, HOT_PATH_ALLOC)]);
}

#[test]
fn hot_path_alloc_flags_each_construct() {
    let src = r#"//! simlint: hot-path
fn f() -> String {
    let a = vec![0u8; 4];
    let b: Vec<u8> = Vec::new();
    let c = Box::new(3u32);
    let d = a.to_vec();
    format!("{:?}{:?}{:?}{:?}", a, b, c, d)
}
"#;
    assert_eq!(
        findings("crates/sim/src/foo.rs", src),
        vec![
            (3, HOT_PATH_ALLOC),
            (4, HOT_PATH_ALLOC),
            (5, HOT_PATH_ALLOC),
            (6, HOT_PATH_ALLOC),
            (7, HOT_PATH_ALLOC),
        ]
    );
}

#[test]
fn hot_path_alloc_stops_at_the_unit_test_module() {
    let src = r#"//! simlint: hot-path
fn steady(buf: &mut Vec<u32>) {
    buf.clear();
}

#[cfg(test)]
mod tests {
    #[test]
    fn scratch() {
        let v = vec![1, 2, 3];
        assert_eq!(v.len(), 3);
    }
}
"#;
    assert_eq!(findings("crates/sim/src/foo.rs", src), vec![]);
}

#[test]
fn with_capacity_is_deliberately_not_a_hot_path_construct() {
    // Pre-sizing a reused buffer is the *fix* for per-round allocation, so
    // `Vec::with_capacity` stays legal in hot-path modules.
    let src = "//! simlint: hot-path\nfn f() -> Vec<u32> { Vec::with_capacity(8) }";
    assert_eq!(findings("crates/sim/src/foo.rs", src), vec![]);
}

#[test]
fn crate_roots_must_forbid_unsafe() {
    let bare = "pub fn f() {}\n";
    for root in ["src/lib.rs", "src/main.rs", "crates/sim/src/lib.rs", "crates/x/src/bin/y.rs"] {
        assert_eq!(findings(root, bare), vec![(1, FORBID_UNSAFE)], "{root}");
    }
    // Non-root modules are not where the attribute lives.
    assert_eq!(findings("crates/sim/src/engine/mod.rs", bare), vec![]);
    assert_eq!(findings("src/lib.rs", "#![forbid(unsafe_code)]\npub fn f() {}\n"), vec![]);
}

#[test]
fn unsafe_needs_a_nearby_safety_comment() {
    let naked = r#"
fn f(p: *const u8) -> u8 {
    unsafe { *p }
}
"#;
    assert_eq!(findings("crates/sim/src/foo.rs", naked), vec![(3, FORBID_UNSAFE)]);

    let same_line = r#"
fn f(p: *const u8) -> u8 {
    unsafe { *p } // SAFETY: caller guarantees p is valid.
}
"#;
    assert_eq!(findings("crates/sim/src/foo.rs", same_line), vec![]);

    let above = r#"
fn f(p: *const u8) -> u8 {
    // SAFETY: caller guarantees p is valid.
    unsafe { *p }
}
"#;
    assert_eq!(findings("crates/sim/src/foo.rs", above), vec![]);

    // A SAFETY comment more than three lines up no longer covers the token.
    let too_far = r#"
// SAFETY: far away.



fn f(p: *const u8) -> u8 {
    unsafe { *p }
}
"#;
    assert_eq!(findings("crates/sim/src/foo.rs", too_far), vec![(7, FORBID_UNSAFE)]);
}

#[test]
fn relaxed_ordering_is_scoped_to_shipped_crate_sources() {
    let src =
        "fn f(c: &std::sync::atomic::AtomicU64) { c.load(std::sync::atomic::Ordering::Relaxed); }";
    assert_eq!(findings("crates/sim/src/foo.rs", src), vec![(1, RELAXED_ORDERING)]);
    assert_eq!(findings("crates/core/src/foo.rs", src), vec![(1, RELAXED_ORDERING)]);
    assert_eq!(findings("crates/core/src/energy/foo.rs", src), vec![(1, RELAXED_ORDERING)]);
    // Test code: integration tests, and in-file unit tests after the first
    // `#[cfg(test)] mod`, count with relaxed atomics freely.
    assert_eq!(findings("crates/sim/tests/foo.rs", src), vec![]);
    assert_eq!(findings("tests/foo.rs", src), vec![]);
    assert_eq!(findings("src/foo.rs", src), vec![]);
    let with_tests = format!("{src}\n#[cfg(test)]\nmod tests {{\n{src}\n}}\n");
    assert_eq!(findings("crates/core/src/foo.rs", &with_tests), vec![(1, RELAXED_ORDERING)]);
}

#[test]
fn direct_cost_writes_in_core_are_flagged() {
    let src = r#"
fn charge(m: &mut Metrics, run: &Run, v: usize, e: usize) {
    m.rounds = run.metrics.rounds;
    m.messages += 2;
    m.edge_congestion[e] += 2;
    m.node_energy[run.index[v]] = 1;
    let energy = &mut m.node_energy[v];
    for c in &mut m.edge_congestion {}
    m.node_energy.fill(3);
    for c in m.edge_congestion.iter_mut() {}
    m.rounds <<= 1;
}
"#;
    let flagged: Vec<_> = (3..=11).map(|line| (line, DIRECT_COST_WRITE)).collect();
    assert_eq!(findings("crates/core/src/foo.rs", src), flagged);
    assert_eq!(findings("crates/core/src/energy/foo.rs", src), flagged);
    // Test oracles keep their own arithmetic, and other crates are out of
    // scope (the engine writes the fields it measures).
    assert_eq!(findings("crates/core/src/energy/reference.rs", src), vec![]);
    assert_eq!(findings("crates/core/tests/foo.rs", src), vec![]);
    assert_eq!(findings("crates/sim/src/metrics.rs", src), vec![]);
}

#[test]
fn reads_comparisons_and_charges_are_not_direct_cost_writes() {
    let src = r#"
fn read(m: &mut Metrics, other: &Metrics, v: NodeId) -> bool {
    let total = m.rounds + other.messages;
    m.charge_awake([v], other.node_energy[v.index()]);
    m.charge_messages(std::iter::empty(), m.rounds);
    let fresh = Metrics { rounds: 0, node_energy: vec![0; 3], ..other.clone() };
    let _ = (&m.edge_congestion, m.node_energy.iter().max(), fresh);
    m.rounds == total || m.rounds <= 3 || m.messages >= 2 || m.messages != 1
}
"#;
    assert_eq!(findings("crates/core/src/foo.rs", src), vec![]);
}

#[test]
fn direct_cost_writes_in_the_unit_test_module_are_exempt() {
    let src = r#"
fn charged(m: &mut Metrics) {
    m.messages += 1;
}
#[cfg(test)]
mod tests {
    fn reference(m: &mut Metrics) {
        m.messages += 1;
    }
}
"#;
    assert_eq!(findings("crates/core/src/foo.rs", src), vec![(3, DIRECT_COST_WRITE)]);
    let pragma = "fn f(m: &mut Metrics) {\n    // simlint::allow(direct-cost-write: fixture)\n    m.rounds = 1;\n}\n";
    let r = report("crates/core/src/foo.rs", pragma);
    assert!(r.findings.is_empty(), "{:?}", r.findings);
    assert_eq!(r.allowed.len(), 1);
    assert_eq!(r.allowed[0].rule, DIRECT_COST_WRITE);
}

// -------------------------------------------------------------------- pragmas

#[test]
fn a_trailing_pragma_suppresses_and_is_recorded() {
    let src = "fn f() { let m = std::collections::HashMap::<u32, u32>::new(); let _ = m.get(&1); } // simlint::allow(nondeterministic-iteration: lookup-only fixture)";
    let r = report("crates/sim/src/foo.rs", src);
    assert!(r.findings.is_empty(), "{:?}", r.findings);
    assert_eq!(r.allowed.len(), 1);
    assert_eq!(r.allowed[0].rule, NONDETERMINISTIC_ITERATION);
    assert_eq!(r.allowed[0].reason, "lookup-only fixture");
}

#[test]
fn an_own_line_pragma_covers_the_next_code_line() {
    let src = r#"
fn f() -> u64 {
    // simlint::allow(ambient-randomness: fixture demonstrating own-line coverage)

    rand::thread_rng().gen()
}
"#;
    let r = report("crates/sssp/src/foo.rs", src);
    assert!(r.findings.is_empty(), "{:?}", r.findings);
    assert_eq!(r.allowed.len(), 1);
    assert_eq!(r.allowed[0].line, 5, "recorded at the finding's line, not the pragma's");
}

#[test]
fn a_pragma_for_the_wrong_rule_suppresses_nothing() {
    let src =
        "fn f() -> u64 { rand::thread_rng().gen() } // simlint::allow(wall-clock: wrong rule)";
    let got = findings("crates/sssp/src/foo.rs", src);
    // The real finding survives, and the mismatched pragma is reported stale.
    assert!(got.contains(&(1, AMBIENT_RANDOMNESS)), "{got:?}");
    assert!(got.contains(&(1, INVALID_PRAGMA)), "{got:?}");
}

#[test]
fn pragma_grammar_errors_are_findings() {
    // Unknown rule name.
    let got = findings("src/util.rs", "// simlint::allow(no-such-rule: reason)\nfn f() {}\n");
    assert!(got.contains(&(1, INVALID_PRAGMA)), "{got:?}");
    // Missing reason separator.
    let got = findings("src/util.rs", "// simlint::allow(wall-clock)\nfn f() {}\n");
    assert!(got.contains(&(1, INVALID_PRAGMA)), "{got:?}");
    // Empty reason.
    let got = findings("src/util.rs", "// simlint::allow(wall-clock:   )\nfn f() {}\n");
    assert!(got.contains(&(1, INVALID_PRAGMA)), "{got:?}");
    // Malformed parentheses.
    let got = findings("src/util.rs", "// simlint::allow wall-clock: reason\nfn f() {}\n");
    assert!(got.contains(&(1, INVALID_PRAGMA)), "{got:?}");
}

#[test]
fn an_unused_pragma_is_stale_and_reported() {
    let src = "// simlint::allow(wall-clock: nothing here uses the clock)\nfn f() {}\n";
    assert_eq!(findings("src/util.rs", src), vec![(1, INVALID_PRAGMA)]);
}

#[test]
fn a_doc_comment_pragma_example_is_inert() {
    // `//! // simlint::allow(…)` is documentation *about* pragmas; it must
    // neither suppress anything nor count as a stale pragma.
    let src = "//! Example: `// simlint::allow(wall-clock: reason)`.\n//! // simlint::allow(wall-clock: reason)\nfn f() {}\n";
    assert_eq!(findings("src/util.rs", src), vec![]);
}

// ------------------------------------------------------------- scanner edges

#[test]
fn trigger_tokens_inside_string_literals_are_invisible() {
    let src = r##"
fn f() -> &'static str {
    "thread_rng() and HashMap and Instant::now() and unsafe"
}
fn g() -> &'static str {
    r#"SystemTime and Ordering::Relaxed and vec![]"#
}
fn h() -> &'static [u8] {
    b"from_entropy"
}
"##;
    assert_eq!(findings("crates/sim/src/foo.rs", src), vec![]);
}

#[test]
fn raw_strings_with_hashes_terminate_at_the_matching_delimiter() {
    // The first `"#` inside the body must not close an `r##"…"##` string; if
    // it did, the trailing tokens would leak out of the literal and the
    // `thread_rng` *after* the string must still be seen.
    let src = r####"
fn f() -> &'static str {
    r##"quote-hash inside: "# still inside "##
}
fn g() -> u64 { rand::thread_rng().gen() }
"####;
    assert_eq!(findings("crates/sim/src/foo.rs", src), vec![(5, AMBIENT_RANDOMNESS)]);
}

#[test]
fn comments_hide_triggers_and_nested_block_comments_balance() {
    let src = r#"
// thread_rng() in a line comment
/* outer /* nested thread_rng() */ still a comment */
fn f() -> u64 { rand::thread_rng().gen() }
"#;
    assert_eq!(findings("crates/sim/src/foo.rs", src), vec![(4, AMBIENT_RANDOMNESS)]);
}

#[test]
fn lifetimes_are_not_char_literals() {
    // A naive scanner treats `'a` as an unterminated char literal and eats
    // the rest of the file; the finding after it proves `'a` was skipped.
    let src = r#"
fn first<'a>(xs: &'a [u64]) -> &'a u64 { &xs[0] }
fn g() -> u64 { rand::thread_rng().gen() }
"#;
    assert_eq!(findings("crates/sim/src/foo.rs", src), vec![(3, AMBIENT_RANDOMNESS)]);
}

#[test]
fn char_literals_and_escapes_are_opaque() {
    let src = r#"
fn f() -> (char, char, char) { ('"', '\\', '\n') }
fn g() -> u64 { rand::thread_rng().gen() }
"#;
    assert_eq!(findings("crates/sim/src/foo.rs", src), vec![(3, AMBIENT_RANDOMNESS)]);
}

#[test]
fn multiline_strings_keep_line_numbers_right() {
    let src = "fn f() -> &'static str {\n    \"line\n    spanning\n    literal\"\n}\nfn g() -> u64 { rand::thread_rng().gen() }\n";
    assert_eq!(findings("crates/sim/src/foo.rs", src), vec![(6, AMBIENT_RANDOMNESS)]);
}
