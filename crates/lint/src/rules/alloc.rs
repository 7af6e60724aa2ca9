//! `hot-path-alloc`: no per-frame allocations or copies in the designated
//! receive-path files.
//!
//! The zero-copy receive path exists because the victim's per-frame
//! constant factor is the paper's attack surface: a `to_vec()` tail copy or
//! a `Bytes::copy_from_slice` payload clone quietly reintroduces the O(k²)
//! burst cost the refactor removed, and no functional test catches it — the
//! behaviour is identical, only slower. Flagged here: `.to_vec()`,
//! `copy_from_slice` (both the `Bytes` constructor and the slice method),
//! `Vec::new`, `Vec::with_capacity` and a fresh wire `Writer`
//! (`Writer::new`/`with_capacity`).
//! Setup-time or error-path uses may be justified with
//! `lint:allow(hot-path-alloc): <reason>`.

use crate::findings::Finding;
use crate::lexer::{SourceFile, TokKind, Token};

/// Rule name for hot-path allocation findings.
pub const HOT_PATH_ALLOC: &str = "hot-path-alloc";

/// One flagged construct: its short chain label, what it costs, and
/// whether it allocates (a slice `.copy_from_slice(..)` into an existing
/// buffer copies but does not).
pub struct Construct {
    /// Chain label (`to_vec`, `Vec::new`, `Vec::with_capacity`, …).
    pub label: &'static str,
    /// What the construct costs, for the finding message.
    pub what: &'static str,
    /// Whether it allocates; the transitive pass flags only these.
    pub allocates: bool,
}

/// The allocating/copying construct at token `i`, if any. Shared by the
/// per-file rule and the transitive pass.
pub fn alloc_construct(toks: &[Token], i: usize) -> Option<Construct> {
    let t = toks.get(i)?;
    if t.kind != TokKind::Ident {
        return None;
    }
    let text = |k: usize| toks.get(k).map(|n| n.text.as_str());
    let path_call = |name: &str| {
        text(i + 1) == Some(":") && text(i + 2) == Some(":") && text(i + 3) == Some(name)
    };
    let (label, what, allocates) = match t.text.as_str() {
        "to_vec" if i > 0 && text(i - 1) == Some(".") && text(i + 1) == Some("(") => {
            ("to_vec", "`.to_vec()` copies the buffer", true)
        }
        "copy_from_slice" if text(i + 1) == Some("(") => {
            let method = i > 0 && text(i - 1) == Some(".");
            ("copy_from_slice", "`copy_from_slice(..)` copies the payload", !method)
        }
        "Vec" if path_call("new") => ("Vec::new", "`Vec::new()` allocates per call", true),
        "Vec" if path_call("with_capacity") => (
            "Vec::with_capacity",
            "`Vec::with_capacity(..)` allocates per call",
            true,
        ),
        "Writer" if path_call("new") || path_call("with_capacity") => (
            "Writer",
            "a fresh `Writer` allocates an encode buffer per call (frame once with `to_frame`)",
            true,
        ),
        _ => return None,
    };
    Some(Construct { label, what, allocates })
}

/// Flags allocating/copying constructs in receive-path files.
pub fn hot_path_alloc(sf: &SourceFile, out: &mut Vec<Finding>) {
    for (i, t) in sf.tokens.iter().enumerate() {
        let Some(Construct { what, .. }) = alloc_construct(&sf.tokens, i) else {
            continue;
        };
        if sf.in_test(t.line) {
            continue;
        }
        out.push(Finding::new(
            &sf.path,
            t.line,
            HOT_PATH_ALLOC,
            format!(
                "{what} on the steady-state receive path; use the cursor buffer / refcounted \
                 slices instead, or justify with `lint:allow(hot-path-alloc): <reason>`"
            ),
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn run(src: &str) -> Vec<Finding> {
        let sf = lex("t.rs", src);
        let mut out = Vec::new();
        hot_path_alloc(&sf, &mut out);
        out
    }

    #[test]
    fn to_vec_call_flagged() {
        let f = run("let copy = buf[consumed..].to_vec();\n");
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, HOT_PATH_ALLOC);
        assert_eq!(f[0].line, 1);
    }

    #[test]
    fn to_vec_as_plain_ident_not_flagged() {
        // A field or fn named to_vec without a call isn't a copy.
        let f = run("fn to_vec() {}\nlet x = to_vec;\n");
        assert!(f.is_empty());
    }

    #[test]
    fn copy_from_slice_flagged_both_forms() {
        let f = run(
            "let b = Bytes::copy_from_slice(payload);\nscratch.copy_from_slice(&src);\n",
        );
        assert_eq!(f.len(), 2);
    }

    #[test]
    fn vec_new_and_with_capacity_flagged() {
        let f = run(
            "let a: Vec<u8> = Vec::new();\nlet b = Vec::with_capacity(8);\nlet c = v.capacity();\n",
        );
        assert_eq!(f.len(), 2);
        assert_eq!((f[0].line, f[1].line), (1, 2));
        assert!(f[1].message.contains("Vec::with_capacity"));
    }

    #[test]
    fn fresh_writer_flagged() {
        let f = run("let w = Writer::new();\nlet v = Writer::with_capacity(32);\nw.bytes(b);\n");
        assert_eq!(f.len(), 2);
    }

    #[test]
    fn marker_left_to_driver() {
        // The driver suppresses marked findings and tracks marker usage for
        // the stale-exemption audit; the rule reports regardless.
        let f = run(
            "// lint:allow(hot-path-alloc): one-time setup, not per frame\nlet v = Vec::new();\n",
        );
        assert_eq!(f.len(), 1);
    }

    #[test]
    fn test_code_exempt() {
        let f = run("#[cfg(test)]\nmod tests {\n    fn f() { let v = b\"x\".to_vec(); }\n}\n");
        assert!(f.is_empty());
    }
}
