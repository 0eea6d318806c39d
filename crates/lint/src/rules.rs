//! The five workspace rules (L1–L5).
//!
//! Each rule is a pure function over one lexed [`SourceFile`]; the
//! registry in [`crate::registry`] pairs them with metadata, and the
//! red-fixture suite in `tests/` holds one known-bad snippet per rule.
//! See the "Static analysis" section of `DESIGN.md` for the rule
//! catalog and the justification-comment grammar.

use crate::lexer::{Token, TokenKind};
use crate::{Diagnostic, Severity, SourceFile};

/// Crates bound by the bitwise-determinism contract
/// (`tests/parallel_determinism.rs`): L1 forbids order-dependent
/// iteration over hashed containers anywhere inside them. `serve` is
/// in scope because its HTTP responses promise byte-stability across
/// runs and thread counts — one hash-ordered iteration anywhere on the
/// response path would break that silently.
pub const CONTRACT_CRATES: &[&str] = &["kg", "gnn", "core", "eval", "tensor", "serve"];

/// Crates whose job is terminal output — L3 does not apply.
///
/// Exemption review (kept deliberately short): `cli` and `bench` print
/// *for* the user as their purpose. The `serve` daemon is **not**
/// exempt — a daemon's stdout/stderr belong to its operator's log
/// pipeline, so it reports through `dekg-obs` logging/metrics like any
/// library crate, and L3 enforces that.
pub const PRINT_EXEMPT_CRATES: &[&str] = &["cli", "bench"];

/// Modules holding numeric kernels: L5 forbids wall-clock reads and
/// RNG construction inside them (hermetic-kernel rule — randomness and
/// time must be injected by the caller, never materialized mid-kernel).
pub const KERNEL_MODULES: &[&str] = &[
    "crates/tensor/src/kernels.rs",
    "crates/tensor/src/interp.rs",
    "crates/gnn/src/rgcn.rs",
    "crates/gnn/src/encoder.rs",
    "crates/gnn/src/labeling.rs",
    "crates/core/src/gsm/",
    "crates/core/src/clrm/",
];

/// Fallible-input paths where L4 tolerates **zero** `.unwrap()` /
/// `.expect()` in non-test code — these parse external data and must
/// surface typed errors instead of dying.
pub const ZERO_UNWRAP_PATHS: &[&str] = &[
    "crates/kg/src/io.rs",
    "crates/datasets/src/loader.rs",
    // Raw HTTP bytes, request JSON bodies and checkpoint files.
    "crates/serve/src/http.rs",
    "crates/serve/src/api.rs",
    "crates/tensor/src/serialize.rs",
];

/// Per-crate `.unwrap()`/`.expect()` budgets for non-test library code.
///
/// This is a **ratchet**, not a whitelist: the budget equals the debt
/// measured when the crate was last touched. Going over fails the lint;
/// dropping under emits a notice telling you to lower the budget here.
/// Crates not listed have a budget of zero.
pub const UNWRAP_BUDGETS: &[(&str, usize)] = &[
    // Exact current debt: assert-adjacent uses on internal invariants
    // (ids minted by the same store, shapes checked upstream). The
    // ratchet only moves down — going over any number here is an
    // error, and dropping real sites should drop the budget with them.
    // Crates absent from this table have a budget of zero.
    ("tensor", 2),
    ("core", 1),
    ("datasets", 3),
    ("eval", 2),
    // `serve` is intentionally absent: the daemon shipped with zero
    // unwrap/expect debt (poisoned locks recover via
    // `unwrap_or_else(PoisonError::into_inner)`) and must stay there.
];

/// Methods whose call on a hashed container observes its unstable
/// iteration order.
const ORDERED_USE: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "into_iter",
    "into_keys",
    "into_values",
];

fn diag(file: &SourceFile, rule: &'static str, line: u32, message: String) -> Diagnostic {
    Diagnostic { rule, path: file.rel.clone(), line, severity: Severity::Error, message }
}

/// Names in scope (this file) whose declared type or initializer is a
/// `HashMap`/`HashSet`. Tracking is lexical and file-wide — good enough
/// for the flat modules of this workspace; rename or justify on a
/// false positive.
fn hash_typed_names(file: &SourceFile) -> Vec<(String, &'static str)> {
    let toks = &file.lexed.tokens;
    let mut out: Vec<(String, &'static str)> = Vec::new();
    for (h, tok) in toks.iter().enumerate() {
        let container = match tok.text.as_str() {
            "HashMap" => "HashMap",
            "HashSet" => "HashSet",
            _ => continue,
        };
        if tok.kind != TokenKind::Ident || h == 0 {
            continue;
        }
        // Pattern A — `NAME : [&] [mut] [std :: collections ::] Hash…`
        // (let bindings with annotations, struct fields, fn params).
        let mut j = h - 1;
        while j > 0 && is_type_path_filler(&toks[j]) {
            j -= 1;
        }
        if toks[j].kind == TokenKind::Ident && toks.get(j + 1).is_some_and(|t| t.is_punct(':')) {
            push_unique(&mut out, &toks[j].text, container);
            continue;
        }
        // Pattern B — `let [mut] NAME = [std :: collections ::] Hash… ::`.
        let mut j = h - 1;
        while j > 0 && is_type_path_filler(&toks[j]) {
            j -= 1;
        }
        if toks[j].is_punct('=') && j >= 1 && toks[j - 1].kind == TokenKind::Ident {
            let is_let = j >= 2 && (toks[j - 2].is_ident("let") || toks[j - 2].is_ident("mut"));
            if is_let {
                push_unique(&mut out, &toks[j - 1].text, container);
            }
        }
    }
    out
}

fn push_unique(out: &mut Vec<(String, &'static str)>, name: &str, container: &'static str) {
    if !out.iter().any(|(n, _)| n == name) {
        out.push((name.to_owned(), container));
    }
}

/// Tokens that may sit between a binding name and the `HashMap` ident
/// inside a type path (`: &mut std::collections::HashMap<…>`).
fn is_type_path_filler(t: &Token) -> bool {
    t.is_punct(':')
        || t.is_punct('&')
        || t.is_punct('<')
        || t.is_ident("std")
        || t.is_ident("collections")
        || t.is_ident("mut")
        || t.is_ident("dyn")
        || t.is_ident("static")
}

/// **L1 — hash-iteration**: no order-dependent iteration over
/// `HashMap`/`HashSet` inside the determinism-contract crates. Keyed
/// lookups (`get`, `insert`, `entry`, `contains…`) stay legal;
/// iteration needs a `BTreeMap`/`BTreeSet`, an explicit sort, plus a
/// `// lint: sorted-ok — why` justification at the use site.
pub fn l1_hash_iteration(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    let Some(krate) = file.crate_name() else { return };
    if !CONTRACT_CRATES.contains(&krate) {
        return;
    }
    let tracked = hash_typed_names(file);
    if tracked.is_empty() {
        return;
    }
    let toks = &file.lexed.tokens;
    for (i, tok) in toks.iter().enumerate() {
        if tok.kind != TokenKind::Ident {
            continue;
        }
        let Some((_, container)) = tracked.iter().find(|(n, _)| *n == tok.text) else {
            continue;
        };
        if file.lexed.in_test_region(i) || file.lexed.justified(tok.line, "sorted-ok") {
            continue;
        }
        // `NAME . <ordered-use> (` — works for `self.NAME.…` too.
        if toks.get(i + 1).is_some_and(|t| t.is_punct('.'))
            && toks.get(i + 2).is_some_and(|t| {
                t.kind == TokenKind::Ident && ORDERED_USE.contains(&t.text.as_str())
            })
            && toks.get(i + 3).is_some_and(|t| t.is_punct('('))
        {
            let method = &toks[i + 2].text;
            out.push(diag(
                file,
                "L1",
                tok.line,
                format!(
                    "order-dependent `.{method}()` over {container}-typed `{name}` in \
                     determinism-contract crate `{krate}` — use a BTree container, sort \
                     first, or justify with `// lint: sorted-ok — <why>`",
                    name = tok.text,
                ),
            ));
            continue;
        }
        // `for … in [&] [mut] [self .] NAME {`
        if toks.get(i + 1).is_some_and(|t| t.is_punct('{')) && preceded_by_in(toks, i) {
            out.push(diag(
                file,
                "L1",
                tok.line,
                format!(
                    "order-dependent `for` loop over {container}-typed `{name}` in \
                     determinism-contract crate `{krate}` — use a BTree container, sort \
                     first, or justify with `// lint: sorted-ok — <why>`",
                    name = tok.text,
                ),
            ));
        }
    }
}

/// True when the identifier at `i` is the iterated expression of a
/// `for … in` loop (allowing `&`, `mut` and a `self.` prefix).
fn preceded_by_in(toks: &[Token], i: usize) -> bool {
    let mut j = i;
    // Step over a `self .` prefix.
    if j >= 2 && toks[j - 1].is_punct('.') && toks[j - 2].is_ident("self") {
        j -= 2;
    }
    while j > 0 && (toks[j - 1].is_punct('&') || toks[j - 1].is_ident("mut")) {
        j -= 1;
    }
    j > 0 && toks[j - 1].is_ident("in")
}

/// **L2 — allow-justification**: every `#[allow(…)]` / `#![allow(…)]`
/// in the workspace must carry an explanatory comment on the same line
/// or the line directly above (the ROADMAP rule, mechanized).
pub fn l2_allow_justification(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    let toks = &file.lexed.tokens;
    for (i, tok) in toks.iter().enumerate() {
        if !tok.is_punct('#') {
            continue;
        }
        let mut j = i + 1;
        if toks.get(j).is_some_and(|t| t.is_punct('!')) {
            j += 1;
        }
        if !(toks.get(j).is_some_and(|t| t.is_punct('['))
            && toks.get(j + 1).is_some_and(|t| t.is_ident("allow")))
        {
            continue;
        }
        let line = tok.line;
        let here = file.lexed.line(line).comment;
        let above = if line > 1 { file.lexed.line(line - 1).comment } else { String::new() };
        if here.trim().is_empty() && above.trim().is_empty() {
            out.push(diag(
                file,
                "L2",
                line,
                "`#[allow(…)]` without a justification comment — say why the \
                 lint is wrong here, on this line or the line above"
                    .to_owned(),
            ));
        }
    }
}

/// **L3 — print-routing**: library crates must not write to
/// stdout/stderr directly; run output routes through `dekg-obs`
/// (`log_info!` & friends) so sinks and levels apply. `cli` and
/// `bench` are exempt (terminal output is their job), as are tests,
/// examples, and sites justified with `// lint: print-ok — <why>`.
pub fn l3_print_routing(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    if file.is_test_scope() {
        return;
    }
    if let Some(krate) = file.crate_name() {
        if PRINT_EXEMPT_CRATES.contains(&krate) {
            return;
        }
    }
    let toks = &file.lexed.tokens;
    for (i, tok) in toks.iter().enumerate() {
        if tok.kind != TokenKind::Ident {
            continue;
        }
        let name = tok.text.as_str();
        if !matches!(name, "println" | "eprintln" | "print" | "eprint") {
            continue;
        }
        if !toks.get(i + 1).is_some_and(|t| t.is_punct('!')) {
            continue;
        }
        if file.lexed.in_test_region(i) || file.lexed.justified(tok.line, "print-ok") {
            continue;
        }
        out.push(diag(
            file,
            "L3",
            tok.line,
            format!(
                "`{name}!` in library code — route through dekg-obs \
                 (`log_info!`/`log_warn!`) or justify with `// lint: print-ok — <why>`"
            ),
        ));
    }
}

/// Counts `.unwrap()` / `.expect(` calls in non-test code. Shared by
/// the per-file zero-path check and the workspace budget ratchet.
pub fn count_unwraps(file: &SourceFile) -> Vec<(u32, &'static str)> {
    let toks = &file.lexed.tokens;
    let mut sites = Vec::new();
    for (i, tok) in toks.iter().enumerate() {
        if tok.kind != TokenKind::Ident {
            continue;
        }
        let which = match tok.text.as_str() {
            "unwrap" => "unwrap",
            "expect" => "expect",
            _ => continue,
        };
        if i == 0 || !toks[i - 1].is_punct('.') || !toks.get(i + 1).is_some_and(|t| t.is_punct('('))
        {
            continue;
        }
        if file.lexed.in_test_region(i) {
            continue;
        }
        sites.push((tok.line, which));
    }
    sites
}

/// **L4 — unwrap-budget** (per-file half): zero tolerance for
/// `.unwrap()`/`.expect()` in non-test code on the fallible-input
/// paths ([`ZERO_UNWRAP_PATHS`]). The per-crate budget ratchet runs at
/// workspace level in [`crate::lint_workspace`].
pub fn l4_unwrap_budget(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    if !ZERO_UNWRAP_PATHS.iter().any(|p| file.rel == *p) {
        return;
    }
    for (line, which) in count_unwraps(file) {
        out.push(diag(
            file,
            "L4",
            line,
            format!(
                "`.{which}()` on fallible-input path `{}` — parse errors here come \
                 from user data; surface a typed error through the CLI instead",
                file.rel
            ),
        ));
    }
}

/// **L5 — hermetic-kernel**: numeric kernel modules may not read the
/// wall clock or construct RNGs. Time belongs to the harness; RNG
/// state is injected by callers so a kernel's output is a pure
/// function of its inputs (the property every gradcheck, diff_check
/// and determinism test relies on).
pub fn l5_hermetic_kernel(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    if !KERNEL_MODULES.iter().any(|m| file.rel.starts_with(m)) {
        return;
    }
    let toks = &file.lexed.tokens;
    for (i, tok) in toks.iter().enumerate() {
        if tok.kind != TokenKind::Ident {
            continue;
        }
        if file.lexed.in_test_region(i) || file.lexed.justified(tok.line, "hermetic-ok") {
            continue;
        }
        // `Instant::now` / `SystemTime::now`.
        if (tok.is_ident("Instant") || tok.is_ident("SystemTime"))
            && toks.get(i + 1).is_some_and(|t| t.is_punct(':'))
            && toks.get(i + 2).is_some_and(|t| t.is_punct(':'))
            && toks.get(i + 3).is_some_and(|t| t.is_ident("now"))
        {
            out.push(diag(
                file,
                "L5",
                tok.line,
                format!(
                    "`{}::now()` inside kernel module — kernels are timed by the \
                     harness, never from within",
                    tok.text
                ),
            ));
            continue;
        }
        // RNG construction by any spelling.
        if matches!(
            tok.text.as_str(),
            "thread_rng" | "from_entropy" | "seed_from_u64" | "from_seed" | "from_rng"
        ) {
            out.push(diag(
                file,
                "L5",
                tok.line,
                format!(
                    "RNG construction (`{}`) inside kernel module — accept `&mut impl Rng` \
                     from the caller so kernel output is a pure function of its inputs",
                    tok.text
                ),
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::lint_source;

    #[test]
    fn l1_flags_tracked_iteration_and_respects_justification() {
        let src = "use std::collections::HashMap;\n\
                   struct S { index: HashMap<u32, u32> }\n\
                   fn f(s: &S) -> u32 { s.index.values().sum() }\n\
                   // lint: sorted-ok — output folded through a commutative sum\n\
                   fn g(s: &S) -> u32 { s.index.values().sum() }\n";
        let diags = lint_source("crates/kg/src/fake.rs", src);
        assert_eq!(diags.iter().filter(|d| d.rule == "L1").count(), 1);
        assert_eq!(diags[0].line, 3);
    }

    #[test]
    fn rule_scope_lists_are_pinned() {
        // Scope changes to these lists are deliberate decisions; this
        // pin forces them through review (and the docs that cite the
        // lists — DESIGN.md, docs/OPERATIONS.md — along with them).
        assert_eq!(super::CONTRACT_CRATES, &["kg", "gnn", "core", "eval", "tensor", "serve"]);
        assert_eq!(super::PRINT_EXEMPT_CRATES, &["cli", "bench"]);
        assert!(
            super::UNWRAP_BUDGETS.iter().all(|(krate, _)| *krate != "serve"),
            "serve shipped with zero unwrap debt and must stay at the implicit zero budget"
        );
    }

    #[test]
    fn serve_is_contract_scoped_and_not_print_exempt() {
        let iterating = "use std::collections::HashMap;\n\
                         fn f(m: &HashMap<u32, u32>) -> usize { m.keys().count() }\n";
        let diags = lint_source("crates/serve/src/fake.rs", iterating);
        assert_eq!(diags.iter().filter(|d| d.rule == "L1").count(), 1);
        let printing = "fn f() { println!(\"hi\"); }\n";
        let diags = lint_source("crates/serve/src/fake.rs", printing);
        assert_eq!(diags.iter().filter(|d| d.rule == "L3").count(), 1);
    }

    #[test]
    fn l1_ignores_keyed_lookups_and_foreign_crates() {
        let src = "use std::collections::HashMap;\n\
                   fn f(m: &HashMap<u32, u32>) -> Option<&u32> { m.get(&1) }\n";
        assert!(lint_source("crates/kg/src/fake.rs", src).is_empty());
        let iterating = "use std::collections::HashMap;\n\
                         fn f(m: &HashMap<u32, u32>) -> usize { m.keys().count() }\n";
        // `datasets` is not a contract crate.
        assert!(lint_source("crates/datasets/src/fake.rs", iterating)
            .iter()
            .all(|d| d.rule != "L1"));
    }

    #[test]
    fn l1_flags_for_loops_including_self_fields() {
        let src = "use std::collections::HashSet;\n\
                   struct S { seen: HashSet<u32> }\n\
                   impl S { fn f(&self) { for _x in &self.seen {} } }\n\
                   fn g(seen: &HashSet<u32>) { for _x in seen {} }\n";
        let diags = lint_source("crates/eval/src/fake.rs", src);
        assert_eq!(diags.iter().filter(|d| d.rule == "L1").count(), 2);
    }

    #[test]
    fn l2_requires_comment_same_line_or_above() {
        let bad = "#[allow(clippy::too_many_arguments)]\nfn f() {}\n";
        assert_eq!(lint_source("crates/kg/src/fake.rs", bad).len(), 1);
        let same_line =
            "#[allow(clippy::too_many_arguments)] // config structs come later\nfn f() {}\n";
        assert!(lint_source("crates/kg/src/fake.rs", same_line).is_empty());
        let above = "// mirrors the paper's 8-parameter signature\n#[allow(clippy::too_many_arguments)]\nfn f() {}\n";
        assert!(lint_source("crates/kg/src/fake.rs", above).is_empty());
    }

    #[test]
    fn l3_exempts_cli_bench_tests_and_justified_sites() {
        let src = "fn f() { println!(\"hi\"); }\n";
        assert_eq!(lint_source("crates/obs/src/fake.rs", src).len(), 1);
        assert!(lint_source("crates/cli/src/fake.rs", src).is_empty());
        assert!(lint_source("crates/bench/src/bin/fake.rs", src).is_empty());
        assert!(lint_source("tests/fake.rs", src).is_empty());
        assert!(lint_source("examples/fake.rs", src).is_empty());
        let justified =
            "fn f() {\n    // lint: print-ok — this IS the stderr sink\n    eprintln!(\"x\");\n}\n";
        assert!(lint_source("crates/obs/src/fake.rs", justified).is_empty());
    }

    #[test]
    fn l4_zero_path_flags_only_non_test_sites() {
        let src = "fn f() { let _ = std::fs::read(\"x\").unwrap(); }\n\
                   #[cfg(test)]\nmod tests {\n    fn t() { Some(1).unwrap(); }\n}\n";
        let diags = lint_source("crates/kg/src/io.rs", src);
        assert_eq!(diags.iter().filter(|d| d.rule == "L4").count(), 1);
        // Same code elsewhere: counted by the budget ratchet, no per-site error.
        assert!(lint_source("crates/kg/src/store.rs", src).is_empty());
    }

    #[test]
    fn l5_flags_clock_and_rng_in_kernels_only() {
        let src = "fn f() { let _t = std::time::Instant::now(); }\n\
                   fn g(seed: u64) { let _r = ChaCha8Rng::seed_from_u64(seed); }\n";
        let diags = lint_source("crates/tensor/src/kernels.rs", src);
        assert_eq!(diags.iter().filter(|d| d.rule == "L5").count(), 2);
        assert!(lint_source("crates/tensor/src/optim.rs", src).iter().all(|d| d.rule != "L5"));
    }
}
