//! Workspace-aware static analysis for the Ceer invariants.
//!
//! Ceer's value is reproducible numbers: Eq. (2) estimates, the fig2/fig11
//! golden snapshots, and the "thread count changes wall clock, never
//! results" guarantee are all bit-identical-or-bust. This crate *enforces*
//! the coding discipline behind that statically, in the same
//! dependency-free spirit as `ceer-par`: a hand-rolled lexer ([`lexer`])
//! feeds both token-level rules ([`rules`]) and — via a lightweight item
//! parser ([`parse`]) and a conservative cross-crate call graph
//! ([`graph`]) — four interprocedural rules ([`taint`]), grouped into
//! invariant families —
//!
//! * **determinism** — `nondeterminism-taint` walks the call graph from
//!   sim-pure and serve entry points to ambient time/RNG, hash-ordered
//!   collections, and raw `std::net` sinks; `thread-spawn` keeps ad-hoc
//!   threads out of everything but the `ceer-par` pool;
//! * **numeric safety** — no float `==`/`!=`, no
//!   `partial_cmp().unwrap()` NaN landmines (the `ceer_stats::total`
//!   helpers exist instead);
//! * **panic hygiene** — `panic-reachability` flags
//!   `unwrap`/`expect`/panic-macros (and indexing, in the serving stack)
//!   only when transitively reachable from the declared panic-free roots;
//! * **resource safety** — no unbounded `read_to_end`/`read_to_string`
//!   in the serving stack, where the bytes come from a network peer
//!   (`http::read_to_limit` is the bounded replacement);
//! * **concurrency** — `lock-order` reports cyclic lock-acquisition
//!   order across functions; `blocking-in-reactor` refuses call chains
//!   from the evented state machines into anything that blocks.
//!
//! Legitimate exceptions are spelled at the site:
//!
//! ```text
//! // ceer-lint: allow(rule-name) -- why this site is exempt
//! ```
//!
//! for graph rules either at the sink line or on the root fn's
//! declaration line — and policed by meta rules: a reasonless allow and
//! an allow that no longer matches anything are diagnostics themselves
//! ([`suppress`]).
//!
//! Entry points: [`lint_source`] for one file (unit tests, fixtures),
//! [`lint_files`] for an in-memory file set, [`lint_workspace`] for the
//! whole tree (the `ceer lint` subcommand and the CI gate). Output is
//! rustc-style text ([`render_text`]), machine-readable JSON
//! ([`render_json`]), SARIF 2.1.0 ([`sarif::render_sarif`]), or the raw
//! call graph ([`graph::render_graph_json`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod graph;
pub mod lexer;
pub mod parse;
pub mod rules;
pub mod sarif;
pub mod sites;
pub mod suppress;
pub mod taint;

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::time::Instant;

use lexer::{lex, Token, TokenKind};
use rules::FileScope;
use suppress::Suppressions;

/// What the engine lints and where the scoped rule families apply.
///
/// Paths are workspace-relative with `/` separators; a trailing `/` makes
/// a prefix match (a directory), otherwise the match is exact.
#[derive(Debug, Clone, Default)]
pub struct Config {
    /// Files exempt from `thread-spawn` (the blessed pool implementation).
    pub spawn_allowed_paths: Vec<String>,
    /// Files where `unbounded-io` applies (code reading from peers).
    pub bounded_io_paths: Vec<String>,
    /// Files where `non-atomic-write` applies (code writing artifacts
    /// that are read back later).
    pub atomic_write_paths: Vec<String>,
    /// Root and scope sets for the four graph rules.
    pub graph: taint::Roots,
}

impl Config {
    /// The Ceer workspace policy.
    ///
    /// `ceer-par` is the one place allowed to create threads — that is
    /// its whole job; `ceer-serve`'s loop and drain threads take inline
    /// suppressions instead so the exemption stays visible in the code.
    /// `ceer-serve` and the cluster transport are the bounded-io scope:
    /// they are the only code whose reads are fed by network peers, so
    /// `read_to_end`-style unbounded buffering there is a
    /// slowloris/memory-pinning hazard. The atomic-write scope is every
    /// crate that writes artifacts read back later (CLI outputs, profile
    /// archives, experiment caches, the serving/durability stack):
    /// in-place `fs::write`/`File::create` there can destroy the previous
    /// good copy on a crash, so those paths must go through
    /// `ceer_durable::write_atomic` (the two raw primitives inside
    /// `ceer-durable` itself carry inline allows).
    ///
    /// Graph-rule roots:
    ///
    /// * `nondeterminism-taint` entries are the simulator substrate
    ///   (`ceer-sim`), the cluster state machines, the online-learning
    ///   decision loop (`ceer-online`, whose whole contract is seeded
    ///   replay), and the serve request path (`app.rs`, `conn.rs`,
    ///   `evented.rs`) — everything that must replay bit-identically
    ///   under `ceer-sim`. The real transport boundary (`tcp.rs`, the
    ///   blocking `client.rs`, and the `http.rs` framing both share) is
    ///   sink-exempt: owning sockets and wall clocks is its job, but
    ///   taint still *flows through* it.
    /// * `panic-reachability` roots are every fn in the serve request
    ///   path plus the `pub` API of the `ceer-core` estimate/plan/
    ///   recommend/report modules and of `ceer-online` (its engine runs on the
    ///   serving drain thread, where a panic would kill the loop);
    ///   `[..]`-indexing counts as a sink only inside the serving stack
    ///   and those APIs (numeric kernels index slices behind explicit
    ///   length checks).
    /// * `blocking-in-reactor` roots are the evented state machines.
    pub fn ceer() -> Self {
        let serve_request_path = vec![
            "crates/ceer-serve/src/app.rs".to_string(),
            "crates/ceer-serve/src/conn.rs".to_string(),
            "crates/ceer-serve/src/evented.rs".to_string(),
        ];
        Config {
            spawn_allowed_paths: vec!["crates/ceer-par/src/".to_string()],
            bounded_io_paths: vec![
                "crates/ceer-serve/src/".to_string(),
                "crates/ceer-cluster/src/tcp.rs".to_string(),
            ],
            atomic_write_paths: vec![
                "crates/ceer-cli/src/".to_string(),
                "crates/ceer-core/src/archive.rs".to_string(),
                "crates/ceer-durable/src/".to_string(),
                "crates/ceer-experiments/src/".to_string(),
                "crates/ceer-serve/src/".to_string(),
            ],
            graph: taint::Roots {
                taint_entries: {
                    let mut v = vec![
                        "crates/ceer-sim/src/".to_string(),
                        "crates/ceer-cluster/src/harness.rs".to_string(),
                        "crates/ceer-cluster/src/lib.rs".to_string(),
                        "crates/ceer-cluster/src/proto.rs".to_string(),
                        "crates/ceer-cluster/src/ring.rs".to_string(),
                        "crates/ceer-cluster/src/router.rs".to_string(),
                        "crates/ceer-cluster/src/shard.rs".to_string(),
                        "crates/ceer-online/src/".to_string(),
                    ];
                    v.extend(serve_request_path.iter().cloned());
                    v
                },
                taint_exempt: vec![
                    "crates/ceer-cluster/src/tcp.rs".to_string(),
                    "crates/ceer-serve/src/client.rs".to_string(),
                    "crates/ceer-serve/src/http.rs".to_string(),
                ],
                panic_roots: serve_request_path.clone(),
                panic_pub_roots: vec![
                    "crates/ceer-core/src/estimate.rs".to_string(),
                    "crates/ceer-core/src/plan.rs".to_string(),
                    "crates/ceer-core/src/recommend.rs".to_string(),
                    "crates/ceer-core/src/report.rs".to_string(),
                    "crates/ceer-online/src/".to_string(),
                ],
                panic_index_sinks: vec![
                    "crates/ceer-serve/src/".to_string(),
                    "crates/ceer-core/src/estimate.rs".to_string(),
                    "crates/ceer-core/src/plan.rs".to_string(),
                    "crates/ceer-core/src/recommend.rs".to_string(),
                    "crates/ceer-core/src/report.rs".to_string(),
                    "crates/ceer-online/src/".to_string(),
                ],
                reactor: serve_request_path,
                // The durability layer blocks by design (append+fsync);
                // it is reached only through App::reload (admin) and
                // App::drain_online (worker thread), both of which carry
                // declaration-line allows explaining why.
                reactor_exempt: vec![
                    "crates/ceer-durable/src/".to_string(),
                    "crates/ceer-sim/src/storage.rs".to_string(),
                ],
            },
        }
    }

    fn matches(paths: &[String], file: &str) -> bool {
        paths.iter().any(
            |p| {
                if p.ends_with('/') {
                    file.starts_with(p.as_str())
                } else {
                    file == p
                }
            },
        )
    }

    /// The per-file rule switches for `file` (workspace-relative path).
    pub fn scope(&self, file: &str) -> FileScope {
        FileScope {
            spawn_allowed: Self::matches(&self.spawn_allowed_paths, file),
            bounded_io: Self::matches(&self.bounded_io_paths, file),
            atomic_write: Self::matches(&self.atomic_write_paths, file),
        }
    }
}

/// One reported violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Rule name (kebab-case, suppressible via `allow(<rule>)`).
    pub rule: String,
    /// Rule group name (`determinism`, `numeric-safety`, …).
    pub group: String,
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// 1-based column.
    pub col: usize,
    /// Site-specific explanation.
    pub message: String,
}

/// The outcome of a lint run.
#[derive(Debug, Default)]
pub struct LintReport {
    /// Unsuppressed diagnostics, sorted by (file, line, col, rule).
    pub diagnostics: Vec<Diagnostic>,
    /// Files lexed and checked.
    pub files_scanned: usize,
    /// Suppressions that matched a diagnostic.
    pub suppressions_used: usize,
    /// Per-rule (and per-phase) wall time in milliseconds, sorted by
    /// label. Phases are bracketed (`[lex]`, `[parse]`,
    /// `[graph-build]`); everything else is a rule name. Excluded from
    /// [`render_json`] so lint output stays byte-identical across runs.
    pub timings: Vec<(String, f64)>,
    /// Call-graph size as (functions, edges), when the graph phase ran.
    pub graph_size: Option<(usize, usize)>,
}

impl LintReport {
    /// Whether the tree is clean.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }
}

/// Lints one file's source text. `file` is the workspace-relative path
/// used in diagnostics and for [`Config`] scoping.
pub fn lint_source(file: &str, source: &str, config: &Config) -> Vec<Diagnostic> {
    lint_file(file, source, config).0
}

/// Like [`lint_source`], also returning how many suppressions were
/// honoured (directives that silenced at least one finding).
pub fn lint_file(file: &str, source: &str, config: &Config) -> (Vec<Diagnostic>, usize) {
    let report = lint_files(&[(file.to_string(), source.to_string())], config);
    (report.diagnostics, report.suppressions_used)
}

/// The engine: lints a set of `(path, source)` files as one workspace.
///
/// Two-phase: per file, the token rules run over a test-stripped token
/// stream and the item parser extracts functions and call sites; then
/// the call graph is built across *all* files and the four graph rules
/// run over it. Suppressions are applied to both kinds of findings
/// before the meta rules (unused-suppression and friends) judge every
/// directive.
pub fn lint_files(files: &[(String, String)], config: &Config) -> LintReport {
    struct Unit {
        path: String,
        tokens: Vec<Token>,
        sups: Suppressions,
        token_findings: Vec<rules::Finding>,
    }

    let mut timings: BTreeMap<String, f64> = BTreeMap::new();
    let mut rule_timings: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut units: Vec<Unit> = Vec::with_capacity(files.len());
    let mut parsed_files: Vec<(String, parse::ParsedFile)> = Vec::with_capacity(files.len());

    for (path, source) in files {
        let start = Instant::now();
        let lexed = lex(source);
        let sups = Suppressions::parse(&lexed.comments);
        let tokens = strip_test_code(&lexed.tokens);
        *timings.entry("[lex]".to_string()).or_insert(0.0) += start.elapsed().as_secs_f64() * 1e3;

        let mut findings = rules::check_timed(&tokens, config.scope(path), &mut rule_timings);
        // One diagnostic per (rule, line): `1.0 == a && 2.0 == b` on a
        // line is one decision, not two.
        findings.sort_by(|a, b| (a.line, a.col, a.rule).cmp(&(b.line, b.col, b.rule)));
        findings.dedup_by(|a, b| a.rule == b.rule && a.line == b.line);

        let start = Instant::now();
        let parsed = parse::parse_file(&tokens);
        *timings.entry("[parse]".to_string()).or_insert(0.0) += start.elapsed().as_secs_f64() * 1e3;

        parsed_files.push((path.clone(), parsed));
        units.push(Unit { path: path.clone(), tokens, sups, token_findings: findings });
    }

    let start = Instant::now();
    let call_graph = graph::Graph::build(&parsed_files);
    *timings.entry("[graph-build]".to_string()).or_insert(0.0) +=
        start.elapsed().as_secs_f64() * 1e3;
    let graph_size =
        Some((call_graph.fns.len(), call_graph.edges.iter().map(Vec::len).sum::<usize>()));

    let all_tokens: Vec<&[Token]> = units.iter().map(|u| u.tokens.as_slice()).collect();
    let all_sups: Vec<&Suppressions> = units.iter().map(|u| &u.sups).collect();
    let graph_findings = taint::check_with_timings(
        &parsed_files,
        &all_tokens,
        &all_sups,
        &call_graph,
        &config.graph,
        &mut rule_timings,
    );
    let mut graph_by_file: BTreeMap<&str, Vec<&taint::GraphFinding>> = BTreeMap::new();
    for f in &graph_findings {
        graph_by_file.entry(f.file.as_str()).or_default().push(f);
    }

    let mut report = LintReport::default();
    for unit in &units {
        let mut diagnostics: Vec<Diagnostic> = unit
            .token_findings
            .iter()
            .filter(|f| !unit.sups.covers(f.rule, f.line))
            .map(|f| Diagnostic {
                rule: f.rule.to_string(),
                group: group_of(f.rule),
                file: unit.path.clone(),
                line: f.line,
                col: f.col,
                message: f.message.clone(),
            })
            .collect();
        for f in graph_by_file.get(unit.path.as_str()).into_iter().flatten() {
            diagnostics.push(Diagnostic {
                rule: f.rule.to_string(),
                group: group_of(f.rule),
                file: f.file.clone(),
                line: f.line,
                col: f.col,
                message: f.message.clone(),
            });
        }

        for m in &unit.sups.malformed {
            diagnostics.push(Diagnostic {
                rule: "malformed-directive".to_string(),
                group: "meta".to_string(),
                file: unit.path.clone(),
                line: m.line,
                col: m.col,
                message: m.message.clone(),
            });
        }
        for entry in &unit.sups.entries {
            for rule in &entry.rules {
                if rules::rule_info(rule).is_none() {
                    diagnostics.push(Diagnostic {
                        rule: "malformed-directive".to_string(),
                        group: "meta".to_string(),
                        file: unit.path.clone(),
                        line: entry.line,
                        col: entry.col,
                        message: format!("allow({rule}) names no known rule"),
                    });
                }
            }
            if entry.reason.is_none() {
                diagnostics.push(Diagnostic {
                    rule: "missing-reason".to_string(),
                    group: "meta".to_string(),
                    file: unit.path.clone(),
                    line: entry.line,
                    col: entry.col,
                    message: format!(
                        "allow({}) has no `-- reason`; say why this site is exempt",
                        entry.rules.join(", ")
                    ),
                });
            }
            if !entry.used.get() {
                diagnostics.push(Diagnostic {
                    rule: "unused-suppression".to_string(),
                    group: "meta".to_string(),
                    file: unit.path.clone(),
                    line: entry.line,
                    col: entry.col,
                    message: format!(
                        "allow({}) matched no diagnostic on line {}; delete the stale suppression",
                        entry.rules.join(", "),
                        entry.applies_to_line
                    ),
                });
            }
        }
        report.suppressions_used += unit.sups.entries.iter().filter(|e| e.used.get()).count();
        report.diagnostics.extend(diagnostics);
        report.files_scanned += 1;
    }

    report.diagnostics.sort_by(|a, b| {
        (a.file.as_str(), a.line, a.col, a.rule.as_str()).cmp(&(
            b.file.as_str(),
            b.line,
            b.col,
            b.rule.as_str(),
        ))
    });
    for (rule, ms) in rule_timings {
        timings.insert(rule.to_string(), ms);
    }
    report.timings = timings.into_iter().collect();
    report.graph_size = graph_size;
    report
}

fn group_of(rule: &str) -> String {
    rules::rule_info(rule).map_or("unknown", |r| r.group.name()).to_string()
}

/// Removes `#[cfg(test)]` items from the token stream: test modules
/// legitimately use `unwrap`, exact float comparisons (golden asserts) and
/// scratch threads, and a test failure already fails CI. Every analysis
/// phase (token rules, item parsing, graph building) runs over the
/// stripped stream.
pub fn strip_test_code(tokens: &[Token]) -> Vec<Token> {
    let mut out = Vec::with_capacity(tokens.len());
    let mut i = 0;
    while i < tokens.len() {
        if tokens[i].text == "#" && tokens.get(i + 1).is_some_and(|t| t.text == "[") {
            // Scan the balanced attribute and look for cfg(..test..).
            let mut depth = 0usize;
            let mut j = i + 1;
            let mut is_cfg = false;
            let mut has_test = false;
            let mut has_not = false;
            while j < tokens.len() {
                match tokens[j].text.as_str() {
                    "[" => depth += 1,
                    "]" => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    "cfg" if j == i + 2 => is_cfg = true,
                    "test" if tokens[j].kind == TokenKind::Ident => has_test = true,
                    // `#[cfg(not(test))]` guards *production* code; never
                    // strip it (conservative: any `not` disables stripping).
                    "not" if tokens[j].kind == TokenKind::Ident => has_not = true,
                    _ => {}
                }
                j += 1;
            }
            if is_cfg && has_test && !has_not {
                // Skip the attribute and the item it configures: through
                // the matching `}` of the item's first brace block, or a
                // `;` reached before any brace (e.g. `#[cfg(test)] use…`).
                i = j + 1;
                let mut braces = 0usize;
                while i < tokens.len() {
                    match tokens[i].text.as_str() {
                        "{" => braces += 1,
                        "}" => {
                            braces -= 1;
                            if braces == 0 {
                                i += 1;
                                break;
                            }
                        }
                        ";" if braces == 0 => {
                            i += 1;
                            break;
                        }
                        _ => {}
                    }
                    i += 1;
                }
                continue;
            }
        }
        out.push(tokens[i].clone());
        i += 1;
    }
    out
}

/// Walks up from `start` to the directory whose `Cargo.toml` declares
/// `[workspace]`.
///
/// # Errors
///
/// Errors when no ancestor is a workspace root.
pub fn find_workspace_root(start: &Path) -> Result<PathBuf, String> {
    let mut dir = start.to_path_buf();
    loop {
        let manifest = dir.join("Cargo.toml");
        if manifest.is_file() {
            let text = fs::read_to_string(&manifest)
                .map_err(|e| format!("cannot read {}: {e}", manifest.display()))?;
            if text.contains("[workspace]") {
                return Ok(dir);
            }
        }
        if !dir.pop() {
            return Err(format!(
                "no workspace root (Cargo.toml with [workspace]) above {}",
                start.display()
            ));
        }
    }
}

/// Reads every first-party source file under `root` as
/// `(workspace-relative path, source)` pairs, sorted by path.
///
/// Scope: `src/` of the root package and of each `crates/*` member —
/// the code that produces results. `vendor/` (third-party stand-ins),
/// `target/`, `tests/`, `benches/` and `examples/` are out of scope:
/// test and bench code legitimately uses wall clocks and unwraps, and a
/// broken test already fails CI on its own.
///
/// # Errors
///
/// Errors on unreadable directories or files.
pub fn workspace_sources(root: &Path) -> Result<Vec<(String, String)>, String> {
    let mut files: Vec<PathBuf> = Vec::new();
    let root_src = root.join("src");
    if root_src.is_dir() {
        collect_rs(&root_src, &mut files)?;
    }
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        let mut members: Vec<PathBuf> = fs::read_dir(&crates_dir)
            .map_err(|e| format!("cannot read {}: {e}", crates_dir.display()))?
            .filter_map(|entry| entry.ok().map(|e| e.path()))
            .collect();
        members.sort();
        for member in members {
            let src = member.join("src");
            if src.is_dir() {
                collect_rs(&src, &mut files)?;
            }
        }
    }
    files.sort();

    let mut out = Vec::with_capacity(files.len());
    for path in files {
        let source = fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .components()
            .map(|c| c.as_os_str().to_string_lossy())
            .collect::<Vec<_>>()
            .join("/");
        out.push((rel, source));
    }
    Ok(out)
}

/// Lints every first-party source file under `root` (see
/// [`workspace_sources`] for the scope).
///
/// # Errors
///
/// Errors on unreadable directories or files (not on diagnostics —
/// callers decide what a dirty tree means).
pub fn lint_workspace(root: &Path, config: &Config) -> Result<LintReport, String> {
    Ok(lint_files(&workspace_sources(root)?, config))
}

/// Builds the workspace call graph over `(path, source)` pairs — the
/// `ceer lint --graph-json` artifact.
pub fn build_graph(files: &[(String, String)]) -> graph::Graph {
    let parsed: Vec<(String, parse::ParsedFile)> = files
        .iter()
        .map(|(path, source)| {
            let tokens = strip_test_code(&lex(source).tokens);
            (path.clone(), parse::parse_file(&tokens))
        })
        .collect();
    graph::Graph::build(&parsed)
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)
        .map_err(|e| format!("cannot read {}: {e}", dir.display()))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Renders rustc-style diagnostics plus a summary line.
pub fn render_text(report: &LintReport) -> String {
    let mut out = String::new();
    for d in &report.diagnostics {
        out.push_str(&format!(
            "error[{}/{}]: {}\n  --> {}:{}:{}\n",
            d.group, d.rule, d.message, d.file, d.line, d.col
        ));
    }
    out.push_str(&format!(
        "ceer-lint: {} diagnostic{} in {} file{} ({} suppression{} honoured)\n",
        report.diagnostics.len(),
        if report.diagnostics.len() == 1 { "" } else { "s" },
        report.files_scanned,
        if report.files_scanned == 1 { "" } else { "s" },
        report.suppressions_used,
        if report.suppressions_used == 1 { "" } else { "s" },
    ));
    out
}

/// Renders the per-rule timing table (the `--timings` surface).
pub fn render_timings(report: &LintReport) -> String {
    let mut out = String::new();
    if let Some((fns, edges)) = report.graph_size {
        out.push_str(&format!("call graph: {fns} functions, {edges} edges\n"));
    }
    let total: f64 = report.timings.iter().map(|(_, ms)| ms).sum();
    for (label, ms) in &report.timings {
        out.push_str(&format!("{label:>24}  {ms:8.2} ms\n"));
    }
    out.push_str(&format!("{:>24}  {total:8.2} ms\n", "total"));
    out
}

/// Renders the diagnostics as a JSON array (`[]` when clean — the CI
/// baseline), newline-terminated, keys in a fixed order.
pub fn render_json(report: &LintReport) -> String {
    let mut out = String::from("[");
    for (i, d) in report.diagnostics.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n  {{\"rule\": \"{}\", \"group\": \"{}\", \"file\": \"{}\", \
             \"line\": {}, \"col\": {}, \"message\": \"{}\"}}",
            json_escape(&d.rule),
            json_escape(&d.group),
            json_escape(&d.file),
            d.line,
            d.col,
            json_escape(&d.message)
        ));
    }
    if !report.diagnostics.is_empty() {
        out.push('\n');
    }
    out.push_str("]\n");
    out
}

pub(crate) fn json_escape(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for c in text.chars() {
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

#[cfg(test)]
mod tests {
    use super::*;

    fn rules_of(source: &str, config: &Config) -> Vec<String> {
        lint_source("crates/x/src/lib.rs", source, config).into_iter().map(|d| d.rule).collect()
    }

    #[test]
    fn suppressed_diagnostics_disappear() {
        let src = "if x == 1.0 {} // ceer-lint: allow(float-eq) -- golden literal\n";
        assert!(rules_of(src, &Config::default()).is_empty());
    }

    #[test]
    fn standalone_suppression_covers_next_line() {
        let src = "// ceer-lint: allow(float-eq) -- golden literal\n\
                   if x == 1.0 {}\n";
        assert!(rules_of(src, &Config::default()).is_empty());
    }

    #[test]
    fn unused_suppression_is_a_diagnostic() {
        let src = "// ceer-lint: allow(float-eq) -- nothing here\nlet x = 1;\n";
        assert_eq!(rules_of(src, &Config::default()), vec!["unused-suppression"]);
    }

    #[test]
    fn reasonless_suppression_is_a_diagnostic_even_when_used() {
        let src = "if x == 1.0 {} // ceer-lint: allow(float-eq)\n";
        assert_eq!(rules_of(src, &Config::default()), vec!["missing-reason"]);
    }

    #[test]
    fn unknown_rule_names_are_malformed() {
        let src = "if x == 1.0 {} // ceer-lint: allow(float-eqq) -- typo\n";
        let rules = rules_of(src, &Config::default());
        assert!(rules.contains(&"malformed-directive".to_string()));
        assert!(rules.contains(&"float-eq".to_string()), "typo'd allow must not suppress");
    }

    #[test]
    fn one_diagnostic_per_rule_per_line() {
        let src = "let ok = a == 1.0 && b == 2.0;\n";
        assert_eq!(rules_of(src, &Config::default()).len(), 1);
    }

    #[test]
    fn cfg_test_modules_are_exempt() {
        let config = Config {
            graph: taint::Roots {
                panic_roots: vec!["crates/x/src/".to_string()],
                ..taint::Roots::default()
            },
            ..Config::default()
        };
        let src = "fn prod() {}\n\
                   #[cfg(test)]\n\
                   mod tests {\n\
                       fn t() { x.unwrap(); scratch.spawn(f); }\n\
                   }\n";
        assert!(lint_source("crates/x/src/lib.rs", src, &config).is_empty());
        // …but code after the test module is still linted.
        let src = format!("{src}\nfn late() {{ pool.spawn(f); }}\n");
        let diags = lint_source("crates/x/src/lib.rs", &src, &config);
        assert_eq!(diags.iter().map(|d| d.rule.as_str()).collect::<Vec<_>>(), vec!["thread-spawn"]);
    }

    #[test]
    fn panic_reachability_is_root_driven() {
        let config = Config {
            graph: taint::Roots {
                panic_roots: vec!["crates/ceer-serve/src/".to_string()],
                ..taint::Roots::default()
            },
            ..Config::default()
        };
        let src = "fn f() { x.unwrap(); }";
        assert!(lint_source("crates/ceer-core/src/fit.rs", src, &config).is_empty());
        let diags = lint_source("crates/ceer-serve/src/api.rs", src, &config);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].rule, "panic-reachability");
        assert_eq!(diags[0].group, "panic-hygiene");
    }

    #[test]
    fn bounded_io_scope_is_path_driven() {
        let config = Config::ceer();
        let src = "fn f(s: &mut TcpStream) { s.read_to_string(&mut body); }";
        // Outside the serving stack (local files, CLI) the rule is silent…
        assert!(lint_source("crates/ceer-cli/src/main.rs", src, &config).is_empty());
        // …inside it, unbounded reads are resource-safety diagnostics.
        let diags = lint_source("crates/ceer-serve/src/registry.rs", src, &config);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].rule, "unbounded-io");
        assert_eq!(diags[0].group, "resource-safety");
    }

    #[test]
    fn taint_entries_are_config_driven() {
        let config = Config::ceer();
        let src = "pub fn step() { let l = TcpListener::bind(addr); }";
        // The transport layer owns real sockets — exempt by config…
        assert!(lint_source("crates/ceer-cluster/src/tcp.rs", src, &config).is_empty());
        // …the state machines and the simulator never touch them, and a
        // sink *inside* an entry file fires directly.
        for file in ["crates/ceer-cluster/src/router.rs", "crates/ceer-sim/src/net.rs"] {
            let diags = lint_source(file, src, &config);
            assert_eq!(diags.len(), 1, "{file}");
            assert_eq!(diags[0].rule, "nondeterminism-taint");
            assert_eq!(diags[0].group, "determinism");
        }
    }

    #[test]
    fn lint_files_links_findings_across_files() {
        let config = Config {
            graph: taint::Roots {
                taint_entries: vec!["crates/ceer-sim/src/".to_string()],
                ..taint::Roots::default()
            },
            ..Config::default()
        };
        let report = lint_files(
            &[
                (
                    "crates/ceer-sim/src/lib.rs".to_string(),
                    "pub fn drive() { ceer_stats::helper(); }".to_string(),
                ),
                (
                    "crates/ceer-stats/src/lib.rs".to_string(),
                    "pub fn helper() { let t = Instant::now(); }".to_string(),
                ),
            ],
            &config,
        );
        assert_eq!(report.diagnostics.len(), 1);
        let d = &report.diagnostics[0];
        assert_eq!(d.rule, "nondeterminism-taint");
        assert_eq!(d.file, "crates/ceer-stats/src/lib.rs");
        assert!(d.message.contains("ceer_sim::drive → ceer_stats::helper"), "{}", d.message);
        assert_eq!(report.graph_size.map(|(f, _)| f), Some(2));
    }

    #[test]
    fn timings_include_phases_and_graph_rules() {
        let report = lint_files(
            &[("crates/x/src/lib.rs".to_string(), "fn f() {}".to_string())],
            &Config::ceer(),
        );
        let labels: Vec<&str> = report.timings.iter().map(|(l, _)| l.as_str()).collect();
        for expected in [
            "[graph-build]",
            "[lex]",
            "[parse]",
            "blocking-in-reactor",
            "lock-order",
            "nondeterminism-taint",
            "panic-reachability",
        ] {
            assert!(labels.contains(&expected), "missing timing {expected}: {labels:?}");
        }
    }

    #[test]
    fn json_rendering_is_stable_and_escaped() {
        let report = LintReport {
            diagnostics: vec![Diagnostic {
                rule: "float-eq".into(),
                group: "numeric-safety".into(),
                file: "src/a.rs".into(),
                line: 3,
                col: 7,
                message: "a \"quoted\" message".into(),
            }],
            files_scanned: 1,
            ..LintReport::default()
        };
        let json = render_json(&report);
        assert!(json.contains(r#""rule": "float-eq""#));
        assert!(json.contains(r#"a \"quoted\" message"#));
        let clean = render_json(&LintReport::default());
        assert_eq!(clean, "[]\n");
    }

    #[test]
    fn text_rendering_is_rustc_style() {
        let src = "fn f() { let x = a == 1.0; }\n";
        let report = LintReport {
            diagnostics: lint_source("src/lib.rs", src, &Config::default()),
            files_scanned: 1,
            ..LintReport::default()
        };
        let text = render_text(&report);
        assert!(text.contains("error[numeric-safety/float-eq]"));
        assert!(text.contains("--> src/lib.rs:1:20"));
        assert!(text.contains("1 diagnostic in 1 file"));
    }
}
