//! `arith-overflow`: counter/size/offset arithmetic in accounting hot
//! spots must state its overflow intent.
//!
//! Direct follow-up to PR 8's wrapping-arithmetic bugfix sweep: the
//! debug CI lane arms overflow panics, so any bare `+=`/`-=`/`*=` on a
//! quantity-typed variable in kernel accounting, scheduler stats or
//! bench math is a latent abort. The fix is an explicit
//! `wrapping_*`/`saturating_*`/`checked_*` call — or a
//! `// cuart-allow: arith-overflow <why it cannot overflow>`.

use super::Lint;
use crate::findings::Finding;
use crate::source::SourceFile;

/// Files in scope: modeled-time/traffic accounting and bench math.
/// (Scoped by path, not crate: most library code does arithmetic on
/// domain values where the checked default is exactly right — these are
/// the accumulator-heavy files where PR 8 found real overflow bugs.)
const SCOPE: &[&str] = &[
    "crates/gpu-sim/src/exec.rs",
    "crates/gpu-sim/src/kernel.rs",
    "crates/gpu-sim/src/dram.rs",
    "crates/gpu-sim/src/cache.rs",
    "crates/gpu-sim/src/coalesce.rs",
    "crates/gpu-sim/src/pcie.rs",
    "crates/gpu-sim/src/pipeline.rs",
    "crates/gpu-sim/src/batch.rs",
    "crates/gpu-sim/src/faults.rs",
    "crates/host/src/scheduler.rs",
    "crates/host/src/hybrid.rs",
    "crates/bench/src/series.rs",
    "crates/bench/src/regress.rs",
];

/// Name fragments that mark a quantity (counter / size / offset / time)
/// where overflow is a real failure mode.
const QUANTITY_FRAGMENTS: &[&str] = &[
    "count",
    "total",
    "bytes",
    "keys",
    "ops",
    "batches",
    "hits",
    "misses",
    "spills",
    "conflicts",
    "refills",
    "depth",
    "seq",
    "ticks",
    "sectors",
    "transactions",
    "dropped",
    "drops",
    "trips",
    "accesses",
    "offset",
    "busy",
    "_ns",
    "ns_",
    "sum",
    "shed",
    "enqueued",
    "rejected",
];

fn is_quantity_name(name: &str) -> bool {
    let lower = name.to_ascii_lowercase();
    if lower == "ns" {
        return true;
    }
    QUANTITY_FRAGMENTS.iter().any(|f| lower.contains(f))
}

pub struct ArithOverflow;

impl Lint for ArithOverflow {
    fn id(&self) -> &'static str {
        "arith-overflow"
    }
    fn describe(&self) -> &'static str {
        "quantity accounting must use explicit wrapping_/saturating_/checked_ arithmetic"
    }

    fn check_file(&self, file: &SourceFile, out: &mut Vec<Finding>) {
        if !SCOPE.contains(&file.rel_path.as_str()) {
            return;
        }
        let toks: Vec<_> = file.code_tokens().map(|(_, t)| t).collect();
        for (i, t) in toks.iter().enumerate() {
            if file.in_test_code(t.start) {
                continue;
            }
            let op = match &t.kind {
                crate::lexer::TokenKind::Punct(p @ ("+=" | "-=" | "*=")) => *p,
                _ => continue,
            };
            // The assignment target is the token chain just before the
            // operator; find its final identifier (`a.b.c += …` → `c`,
            // `arr[i] += …` → skip the bracket group back to `arr`).
            let Some(target) = assign_target(&toks, i) else {
                continue;
            };
            if !is_quantity_name(target) {
                continue;
            }
            out.push(Finding {
                rule: "arith-overflow",
                path: file.rel_path.clone(),
                line: t.line,
                message: format!(
                    "bare `{op}` on quantity `{target}`: state overflow intent with \
                     `wrapping_*`/`saturating_*`/`checked_*` (PR 8 sweep)"
                ),
                snippet: file.line_text(t.line).to_string(),
                key: String::new(),
            });
        }
    }
}

/// Final identifier of the expression ending right before token `i`.
fn assign_target<'a>(toks: &[&'a crate::lexer::Token], i: usize) -> Option<&'a str> {
    let mut j = i.checked_sub(1)?;
    // Skip a trailing index group `…[expr]`.
    if toks[j].is_punct("]") {
        let mut depth = 0i32;
        loop {
            if toks[j].is_punct("]") {
                depth += 1;
            } else if toks[j].is_punct("[") {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            j = j.checked_sub(1)?;
        }
        j = j.checked_sub(1)?;
    }
    toks[j].ident()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::{SourceFile, Tier};

    fn run(path: &str, text: &str) -> Vec<Finding> {
        let f = SourceFile::from_text(path.into(), text.into(), Tier::Lib);
        let mut out = Vec::new();
        ArithOverflow.check_file(&f, &mut out);
        out
    }

    #[test]
    fn flags_bare_compound_assign_on_quantities() {
        let text = r#"
fn account(&mut self, n: u64) {
    self.total_bytes += n;
    self.stats.batches += 1;
    self.busy[ch] += cost;
    self.label += suffix; // not a quantity name
    x += 1; // not a quantity name
}
"#;
        let out = run("crates/gpu-sim/src/dram.rs", text);
        assert_eq!(out.len(), 3, "{out:#?}");
    }

    #[test]
    fn explicit_intent_and_out_of_scope_files_pass() {
        let text = r#"
fn account(&mut self, n: u64) {
    self.total_bytes = self.total_bytes.saturating_add(n);
    self.seq = self.seq.wrapping_add(1);
}
"#;
        assert!(run("crates/gpu-sim/src/dram.rs", text).is_empty());
        let bare = "fn f(&mut self) { self.total_bytes += 1; }";
        assert!(run("crates/core/src/api.rs", bare).is_empty());
    }

    #[test]
    fn test_mod_is_exempt() {
        let text = r#"
#[cfg(test)]
mod tests {
    #[test]
    fn t() { let mut total_ns = 0u64; total_ns += 5; }
}
"#;
        assert!(run("crates/host/src/scheduler.rs", text).is_empty());
    }
}
