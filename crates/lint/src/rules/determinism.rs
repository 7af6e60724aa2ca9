//! Determinism rules.
//!
//! `wallclock`: no `Instant::now` / `SystemTime::now` / `RandomState`
//! anywhere in the workspace outside the file-allowlisted wall-clock
//! measurement modules. Simulator time comes from the event loop, randomness
//! from the seeded `SimRng`; a stray wall-clock read makes runs
//! unreproducible in a way no test reliably catches.
//!
//! `unordered-map`: no `HashMap`/`HashSet` in sim-deterministic crates.
//! Default-hasher iteration order depends on a per-process `RandomState`, so
//! any iteration that reaches simulation output breaks the jobs-matrix
//! byte-equality contract. Membership-only uses may stay, justified with
//! `lint:allow(unordered-map): <reason>` on (or above) the line.

use crate::findings::Finding;
use crate::lexer::{SourceFile, TokKind, Token};

/// Rule name for wall-clock findings.
pub const WALLCLOCK: &str = "wallclock";
/// Rule name for unordered-map findings.
pub const UNORDERED_MAP: &str = "unordered-map";

/// Whether token `i` reads the wall clock or the hasher's randomness:
/// `Instant::now`, `SystemTime::now` or `RandomState`. Shared by the
/// per-file rule and the transitive pass.
pub fn wallclock_read(toks: &[Token], i: usize) -> bool {
    let Some(t) = toks.get(i) else { return false };
    let text = |k: usize| toks.get(k).map(|a| a.text.as_str());
    t.kind == TokKind::Ident
        && match t.text.as_str() {
            "Instant" | "SystemTime" => {
                text(i + 1) == Some(":") && text(i + 2) == Some(":") && text(i + 3) == Some("now")
            }
            "RandomState" => true,
            _ => false,
        }
}

/// Flags wall-clock time and hasher-randomness sources.
pub fn wallclock(sf: &SourceFile, out: &mut Vec<Finding>) {
    let toks = &sf.tokens;
    for (i, t) in toks.iter().enumerate() {
        if !wallclock_read(toks, i) || sf.in_test(t.line) {
            continue;
        }
        let what = if t.text == "RandomState" {
            "`RandomState` (per-process hasher seed)".to_owned()
        } else {
            format!("`{}::now()`", t.text)
        };
        out.push(Finding::new(
            &sf.path,
            t.line,
            WALLCLOCK,
            format!(
                "{what} breaks run-to-run reproducibility; use simulator time / the seeded RNG, \
                 or allowlist the file in crates/lint/lint-allow.txt"
            ),
        ));
    }
}

/// Flags default-hasher collections in sim-deterministic crates.
pub fn unordered_map(sf: &SourceFile, out: &mut Vec<Finding>) {
    for t in &sf.tokens {
        if t.kind != TokKind::Ident || (t.text != "HashMap" && t.text != "HashSet") {
            continue;
        }
        if sf.in_test(t.line) {
            continue;
        }
        out.push(Finding::new(
            &sf.path,
            t.line,
            UNORDERED_MAP,
            format!(
                "`{}` iteration order is nondeterministic; use BTreeMap/BTreeSet or a sorted Vec, \
                 or justify a membership-only use with `lint:allow(unordered-map): <reason>`",
                t.text
            ),
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn run(rule: fn(&SourceFile, &mut Vec<Finding>), src: &str) -> Vec<Finding> {
        let sf = lex("t.rs", src);
        let mut out = Vec::new();
        rule(&sf, &mut out);
        out
    }

    #[test]
    fn instant_now_flagged() {
        let f = run(wallclock, "let t = Instant::now();\n");
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, WALLCLOCK);
        assert_eq!(f[0].line, 1);
    }

    #[test]
    fn instant_elapsed_not_flagged() {
        // Only the `::now` read is a determinism leak; Instant as a type
        // (e.g. in a struct passed in from the harness) is not.
        let f = run(wallclock, "fn f(t: Instant) -> Instant { t }\n");
        assert!(f.is_empty());
    }

    #[test]
    fn systemtime_and_randomstate_flagged() {
        let f = run(
            wallclock,
            "let a = SystemTime::now();\nlet b: RandomState = RandomState::new();\n",
        );
        assert_eq!(f.len(), 3);
    }

    #[test]
    fn hashmap_flagged_hash_in_comment_not() {
        let f = run(unordered_map, "// HashMap here is fine\nuse std::collections::HashMap;\n");
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].line, 2);
    }

    #[test]
    fn marker_left_to_driver() {
        // Suppression-by-marker happens in the driver so marker usage can
        // feed the stale-exemption audit; the rule reports regardless.
        let f = run(
            unordered_map,
            "// lint:allow(unordered-map): membership only, never iterated\nlet s: HashSet<u16> = HashSet::new();\n",
        );
        assert_eq!(f.len(), 2);
    }

    #[test]
    fn test_code_exempt() {
        let f = run(
            unordered_map,
            "#[cfg(test)]\nmod tests {\n    use std::collections::HashMap;\n}\n",
        );
        assert!(f.is_empty());
    }
}
