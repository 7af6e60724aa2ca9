//! `panic-path`: no panicking constructs in code that handles
//! peer-controlled bytes.
//!
//! The paper's BM-DoS analysis assumes a malformed payload costs the peer a
//! misbehavior penalty; a panic in the decode or handler path instead crashes
//! the victim *before* tracking runs, inverting the defense. Flagged here:
//! `.unwrap()` / `.expect(..)`, the panic macro family, and bare slice/array
//! indexing. Structurally-bounded indexing may be justified with
//! `lint:allow(panic-path): <reason>`.

use crate::findings::Finding;
use crate::lexer::{SourceFile, TokKind, Token};

/// Rule name for panic-path findings.
pub const PANIC_PATH: &str = "panic-path";

/// Macros that unconditionally (or on peer-influenced conditions) panic.
const PANIC_MACROS: &[&str] = &[
    "panic",
    "unreachable",
    "todo",
    "unimplemented",
    "assert",
    "assert_eq",
    "assert_ne",
];

/// Keywords after which `[` opens an array literal/type, not an index.
const NON_INDEX_KEYWORDS: &[&str] = &[
    "let", "mut", "in", "return", "if", "else", "match", "move", "ref", "const", "static", "as",
    "break", "continue", "loop", "while", "for", "where", "impl", "fn", "pub", "use", "crate",
    "super", "mod", "struct", "enum", "trait", "type", "dyn", "unsafe", "async", "await", "box",
    "yield", "true", "false",
];

/// The panicking construct at token `i`, as its chain label: `unwrap`,
/// `expect` (method calls) or `panic!` (any of [`PANIC_MACROS`]). Shared
/// by the per-file rule and the transitive pass; bare indexing is matched
/// by the per-file rule only.
pub fn panic_construct(toks: &[Token], i: usize) -> Option<&'static str> {
    let t = toks.get(i)?;
    if t.kind != TokKind::Ident {
        return None;
    }
    let text = |k: usize| toks.get(k).map(|n| n.text.as_str());
    let method = i > 0 && text(i - 1) == Some(".");
    match t.text.as_str() {
        "unwrap" if method && text(i + 1) == Some("(") => Some("unwrap"),
        "expect" if method && text(i + 1) == Some("(") => Some("expect"),
        m if PANIC_MACROS.contains(&m) && text(i + 1) == Some("!") && !method => Some("panic!"),
        _ => None,
    }
}

/// Flags panicking constructs on the peer-input path.
pub fn panic_path(sf: &SourceFile, out: &mut Vec<Finding>) {
    let toks = &sf.tokens;
    for (i, t) in toks.iter().enumerate() {
        let bare_index =
            t.kind == TokKind::Punct && t.text == "[" && i > 0 && is_indexable(toks, i - 1);
        let msg: Option<String> = match panic_construct(toks, i) {
            Some("panic!") => Some(format!(
                "`{}!` aborts the node on peer input; drop the message and penalize the peer \
                 instead",
                t.text
            )),
            Some(_) => Some(format!(
                "`.{}(..)` can panic on peer input; return a typed error (e.g. DecodeError) \
                 instead",
                t.text
            )),
            None if bare_index => Some(
                "bare indexing can panic on peer input; use `.get(..)`/`split_at` bounds checks, \
                 or justify a structurally-bounded index with `lint:allow(panic-path): <reason>`"
                    .to_owned(),
            ),
            None => None,
        };
        let Some(message) = msg else { continue };
        // Marker suppression happens in the driver (which tracks marker
        // usage for the stale-exemption audit); only test code is skipped
        // here.
        if !sf.in_test(t.line) {
            out.push(Finding::new(&sf.path, t.line, PANIC_PATH, message));
        }
    }
}

/// Whether the token at `i` can be the base expression of an index
/// (identifier that is not a keyword, a closing bracket, `?`, or a number).
fn is_indexable(toks: &[Token], i: usize) -> bool {
    let t = &toks[i];
    match t.kind {
        TokKind::Ident => !NON_INDEX_KEYWORDS.contains(&t.text.as_str()),
        TokKind::Punct => matches!(t.text.as_str(), ")" | "]" | "?"),
        TokKind::Num => true,
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn run(src: &str) -> Vec<Finding> {
        let sf = lex("t.rs", src);
        let mut out = Vec::new();
        panic_path(&sf, &mut out);
        out
    }

    #[test]
    fn unwrap_and_expect_flagged() {
        let f = run("let a = x.unwrap();\nlet b = y.expect(\"msg\");\n");
        assert_eq!(f.len(), 2);
        assert_eq!(f[0].line, 1);
        assert_eq!(f[1].line, 2);
    }

    #[test]
    fn unwrap_or_not_flagged() {
        let f = run("let a = x.unwrap_or(0);\nlet b = y.unwrap_or_else(|| 1);\nlet c = z.expect_err(\"e\");\n");
        assert!(f.is_empty());
    }

    #[test]
    fn panic_macros_flagged() {
        let f = run("panic!(\"boom\");\nunreachable!();\nassert!(ok);\n");
        assert_eq!(f.len(), 3);
    }

    #[test]
    fn write_macro_not_flagged() {
        let f = run("write!(f, \"x\")?;\nvec![1, 2];\n");
        assert!(f.is_empty());
    }

    #[test]
    fn indexing_flagged_array_literals_not() {
        let f = run("let a = buf[i];\nlet b: [u8; 4] = [0; 4];\nlet c = &mut [1, 2];\n");
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].line, 1);
    }

    #[test]
    fn chained_and_call_result_indexing_flagged() {
        let f = run("let a = f()[0];\nlet b = m[k][j];\n");
        assert_eq!(f.len(), 3);
    }

    #[test]
    fn attribute_and_slice_pattern_not_flagged() {
        let f = run("#[derive(Clone)]\nstruct S;\nfn g(x: &[u8]) {}\n");
        assert!(f.is_empty());
    }

    #[test]
    fn test_code_suppressed_markers_left_to_driver() {
        // Marker suppression (and its stale-audit bookkeeping) lives in the
        // driver now; the rule itself only skips test code.
        let f = run(
            "// lint:allow(panic-path): index bounded by the fixed 80-byte header\nlet a = h[79];\n#[test]\nfn t() { x.unwrap(); }\n",
        );
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].line, 2);
    }
}
