//! Item-level parsing on top of the token stream: functions, impl blocks,
//! `use` imports and call expressions.
//!
//! This is not a full Rust parser — it is the minimal item surface the
//! call-graph passes need, built on the same philosophy as the lexer:
//! deterministic, std-only, and honest about its limits. Brace depth drives
//! item nesting; `impl` headers contribute the type name that qualifies
//! methods; every `name(`, `recv.name(` and `path::name(` inside a function
//! body becomes a [`Call`] attributed to the innermost enclosing function.
//! Closures are not items, so their calls attribute to the enclosing `fn` —
//! exactly what reachability wants. Trait method *declarations* (no body)
//! produce no item: the impl bodies carry the code.

use crate::lexer::{SourceFile, TokKind, Token};
use std::collections::BTreeMap;

/// How a call site names its target.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CallKind {
    /// `recv.name(..)` — receiver rendered by [`receiver_of`]:
    /// `fault_rng`, `self`, `rng()` (call form), `0` (tuple field), or
    /// `""` when the receiver expression defies the walk-back.
    Method {
        /// Rendered receiver (last path/chain element).
        recv: String,
    },
    /// `a::b::name(..)` — the `::`-separated segments before the name.
    Path {
        /// Leading segments (`["a", "b"]` for `a::b::name`).
        segments: Vec<String>,
    },
    /// `name(..)` with no qualifier.
    Bare,
}

/// One call expression inside a function body.
#[derive(Clone, Debug)]
pub struct Call {
    /// Final name segment (the function/method called).
    pub name: String,
    /// Qualifier shape.
    pub kind: CallKind,
    /// 1-based line of the name token.
    pub line: u32,
    /// Token index of the name token (for rules that need context).
    pub tok: usize,
}

/// One `fn` item with a body.
#[derive(Clone, Debug)]
pub struct FnItem {
    /// Function name.
    pub name: String,
    /// Enclosing `impl` type name, if any (`Foo` for `impl Foo` and
    /// `impl Trait for Foo`).
    pub impl_type: Option<String>,
    /// Line of the `fn` keyword.
    pub start_line: u32,
    /// Line of the body's closing brace.
    pub end_line: u32,
    /// Token index of the body's `{`.
    pub body_start: usize,
    /// Token index of the body's `}`.
    pub body_end: usize,
    /// Calls inside the body, innermost-function attribution.
    pub calls: Vec<Call>,
    /// Whether the item sits inside a `#[cfg(test)]`/`#[test]` span.
    pub is_test: bool,
}

/// Parsed item surface of one file.
#[derive(Clone, Debug, Default)]
pub struct ParsedFile {
    /// Every function with a body, in source order.
    pub fns: Vec<FnItem>,
    /// `use` imports: final alias → full path segments (incl. the alias'
    /// real segment, so `use a::b as c` maps `c → [a, b]`).
    pub uses: BTreeMap<String, Vec<String>>,
}

/// Keywords that look like `name(` but are never calls.
const CALL_KEYWORDS: &[&str] = &[
    "if", "while", "for", "match", "return", "loop", "in", "as", "move", "ref", "let", "else",
    "fn", "impl", "use", "pub", "mod", "struct", "enum", "trait", "type", "where", "unsafe",
    "async", "await", "dyn", "break", "continue", "const", "static", "crate", "super", "box",
    "yield", "true", "false", "self", "Self",
];

/// Parses the item surface of `sf`.
pub fn parse(sf: &SourceFile) -> ParsedFile {
    let toks = &sf.tokens;
    let mut out = ParsedFile::default();
    // Context stack: entries record the brace depth *before* the opening
    // `{` of the item, so a matching `}` pops them.
    enum Ctx {
        Impl(String),
        Fn(usize),
    }
    let mut stack: Vec<(usize, Ctx)> = Vec::new();
    let mut depth = 0usize;
    let mut i = 0usize;

    while i < toks.len() {
        let t = &toks[i];
        match (t.kind, t.text.as_str()) {
            // Skip attributes wholesale: `#[ .. ]` contents are not calls.
            (TokKind::Punct, "#")
                if toks.get(i + 1).map(|n| n.text.as_str()) == Some("[") =>
            {
                let mut d = 0usize;
                i += 1;
                while i < toks.len() {
                    match toks[i].text.as_str() {
                        "[" => d += 1,
                        "]" => {
                            d -= 1;
                            if d == 0 {
                                break;
                            }
                        }
                        _ => {}
                    }
                    i += 1;
                }
                i += 1;
            }
            (TokKind::Ident, "use") => {
                i = parse_use(toks, i + 1, &mut out.uses);
            }
            (TokKind::Ident, "impl") => {
                let (ty, next) = parse_impl_header(toks, i + 1);
                if let Some(body_open) = next {
                    stack.push((depth, Ctx::Impl(ty)));
                    depth += 1;
                    i = body_open + 1;
                } else {
                    i += 1;
                }
            }
            (TokKind::Ident, "fn")
                if toks.get(i + 1).map(|n| n.kind) == Some(TokKind::Ident) =>
            {
                let name = toks[i + 1].text.clone();
                match find_fn_body(toks, i + 2) {
                    Some(body_open) => {
                        let impl_type = stack.iter().rev().find_map(|(_, c)| match c {
                            Ctx::Impl(ty) => Some(ty.clone()),
                            Ctx::Fn(_) => None,
                        });
                        out.fns.push(FnItem {
                            name,
                            impl_type,
                            start_line: t.line,
                            end_line: t.line,
                            body_start: body_open,
                            body_end: body_open,
                            calls: Vec::new(),
                            is_test: sf.in_test(t.line),
                        });
                        stack.push((depth, Ctx::Fn(out.fns.len() - 1)));
                        depth += 1;
                        i = body_open + 1;
                    }
                    // Bodiless declaration (trait method): no item.
                    None => i += 2,
                }
            }
            (TokKind::Punct, "{") => {
                depth += 1;
                i += 1;
            }
            (TokKind::Punct, "}") => {
                depth = depth.saturating_sub(1);
                while let Some((d, _)) = stack.last() {
                    if *d != depth {
                        break;
                    }
                    if let Some((_, Ctx::Fn(idx))) = stack.pop() {
                        out.fns[idx].body_end = i;
                        out.fns[idx].end_line = t.line;
                    }
                }
                i += 1;
            }
            (TokKind::Ident, name) => {
                let in_fn = stack.iter().rev().find_map(|(_, c)| match c {
                    Ctx::Fn(idx) => Some(*idx),
                    Ctx::Impl(_) => None,
                });
                if let Some(idx) = in_fn {
                    if let Some(call) = call_at(toks, i, name) {
                        out.fns[idx].calls.push(call);
                    }
                }
                i += 1;
            }
            _ => i += 1,
        }
    }
    out
}

/// If the ident at `i` heads a call expression, builds the [`Call`].
/// Accepts `name(`, `name::<..>(`, `.name(`, and `a::b::name(`.
fn call_at(toks: &[Token], i: usize, name: &str) -> Option<Call> {
    if CALL_KEYWORDS.contains(&name) {
        return None;
    }
    // Find the `(`: either directly after the name, or after a turbofish.
    let mut j = i + 1;
    if toks.get(j).map(|t| t.text.as_str()) == Some(":")
        && toks.get(j + 1).map(|t| t.text.as_str()) == Some(":")
        && toks.get(j + 2).map(|t| t.text.as_str()) == Some("<")
    {
        let mut d = 0usize;
        j += 2;
        let limit = j + 48;
        while j < toks.len() && j < limit {
            match toks[j].text.as_str() {
                "<" => d += 1,
                ">" => {
                    d -= 1;
                    if d == 0 {
                        break;
                    }
                }
                _ => {}
            }
            j += 1;
        }
        j += 1;
    }
    if toks.get(j).map(|t| t.text.as_str()) != Some("(") {
        return None;
    }
    let line = toks[i].line;
    if i == 0 {
        return Some(Call { name: name.to_owned(), kind: CallKind::Bare, line, tok: i });
    }
    let prev = &toks[i - 1];
    if prev.text == "." {
        let recv = receiver_of(toks, i - 1);
        return Some(Call { name: name.to_owned(), kind: CallKind::Method { recv }, line, tok: i });
    }
    if prev.text == ":" && i >= 2 && toks[i - 2].text == ":" {
        let mut segments = Vec::new();
        let mut k = i - 2; // at the second `:` of `::`
        loop {
            if k == 0 {
                break;
            }
            // Skip a turbofish between segments: `Type::<..>::name`.
            if toks[k - 1].text == ">" {
                let mut d = 0i64;
                let mut b = k - 1;
                loop {
                    match toks[b].text.as_str() {
                        ">" => d += 1,
                        "<" => d -= 1,
                        _ => {}
                    }
                    if d == 0 || b == 0 {
                        break;
                    }
                    b -= 1;
                }
                if d != 0 || b < 3 || toks[b - 1].text != ":" || toks[b - 2].text != ":" {
                    break;
                }
                k = b - 2;
            }
            let seg = &toks[k - 1];
            if seg.kind != TokKind::Ident {
                break;
            }
            segments.push(seg.text.clone());
            if k >= 3 && toks[k - 2].text == ":" && toks[k - 3].text == ":" {
                k -= 3;
            } else {
                break;
            }
        }
        segments.reverse();
        return Some(Call {
            name: name.to_owned(),
            kind: CallKind::Path { segments },
            line,
            tok: i,
        });
    }
    // `fn name(` was consumed by the item scan; `|x| name(` and plain
    // `name(` are bare calls. A struct literal needs `{`, not `(`.
    Some(Call { name: name.to_owned(), kind: CallKind::Bare, line, tok: i })
}

/// Renders the receiver of a method call whose `.` sits at `dot`:
/// walks back over one chain element — `ident`, `ident(..)` (rendered
/// `ident()`), `expr[..]` (rendered as the ident before `[`), `self`, a
/// tuple index — and returns `""` when the shape is unrecognized.
pub fn receiver_of(toks: &[Token], dot: usize) -> String {
    if dot == 0 {
        return String::new();
    }
    let mut j = dot - 1;
    // `expr? . m()` — skip the try operator.
    while toks[j].text == "?" {
        if j == 0 {
            return String::new();
        }
        j -= 1;
    }
    match toks[j].text.as_str() {
        ")" => {
            let mut d = 0usize;
            loop {
                match toks[j].text.as_str() {
                    ")" => d += 1,
                    "(" => {
                        d -= 1;
                        if d == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                if j == 0 {
                    return String::new();
                }
                j -= 1;
            }
            if j == 0 {
                return String::new();
            }
            let head = &toks[j - 1];
            if head.kind == TokKind::Ident {
                format!("{}()", head.text)
            } else {
                String::new()
            }
        }
        "]" => {
            let mut d = 0usize;
            loop {
                match toks[j].text.as_str() {
                    "]" => d += 1,
                    "[" => {
                        d -= 1;
                        if d == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                if j == 0 {
                    return String::new();
                }
                j -= 1;
            }
            if j == 0 {
                return String::new();
            }
            let head = &toks[j - 1];
            if head.kind == TokKind::Ident {
                head.text.clone()
            } else {
                String::new()
            }
        }
        _ => match toks[j].kind {
            TokKind::Ident | TokKind::Num => toks[j].text.clone(),
            _ => String::new(),
        },
    }
}

/// Scans an `impl` header from `start` (just past `impl`). Returns the
/// implemented type's last path segment and the index of the body `{`
/// (`None` when the header ends in `;` or the file is truncated).
///
/// For `impl<T> Trait for Type<T>` the name after `for` wins; for
/// `impl Type` the last plain path segment before `{`/`where` wins.
/// Angle-bracketed generics are skipped at any position.
fn parse_impl_header(toks: &[Token], start: usize) -> (String, Option<usize>) {
    let mut last_ident = String::new();
    let mut after_for = false;
    let mut name = String::new();
    let mut j = start;
    while j < toks.len() {
        let t = &toks[j];
        match (t.kind, t.text.as_str()) {
            (TokKind::Punct, "<") => {
                // Skip balanced generics; `>>` is two tokens in this lexer.
                let mut d = 0usize;
                while j < toks.len() {
                    match toks[j].text.as_str() {
                        "<" => d += 1,
                        ">" => {
                            d -= 1;
                            if d == 0 {
                                break;
                            }
                        }
                        _ => {}
                    }
                    j += 1;
                }
            }
            (TokKind::Punct, "{") => {
                if name.is_empty() {
                    name = last_ident;
                }
                return (name, Some(j));
            }
            (TokKind::Punct, ";") => return (String::new(), None),
            (TokKind::Ident, "for") => {
                after_for = true;
                last_ident.clear();
            }
            (TokKind::Ident, "where") => {
                // Freeze the name before bound idents pollute it.
                if name.is_empty() {
                    name = last_ident.clone();
                }
            }
            (TokKind::Ident, id) => {
                if name.is_empty() || after_for {
                    last_ident = id.to_owned();
                    if after_for {
                        name = id.to_owned();
                    }
                }
            }
            _ => {}
        }
        j += 1;
    }
    (String::new(), None)
}

/// Finds the token index of a function body's `{`, scanning from just
/// past the function name. `;` at paren and bracket depth 0 means a
/// bodiless declaration (the `;` of an array type like `-> [u8; 80]` does
/// not). Generic parameters and argument lists are skipped by depth so
/// `fn f(g: fn() -> u8) -> u8 {` resolves to the final brace.
fn find_fn_body(toks: &[Token], start: usize) -> Option<usize> {
    let mut paren = 0usize;
    let mut bracket = 0usize;
    let mut angle = 0usize;
    let mut j = start;
    while j < toks.len() {
        match toks[j].text.as_str() {
            "(" => paren += 1,
            ")" => paren = paren.saturating_sub(1),
            "[" => bracket += 1,
            "]" => bracket = bracket.saturating_sub(1),
            "<" => angle += 1,
            ">" => {
                // `->` is `-`, `>`: not a generic close.
                if j == 0 || toks[j - 1].text != "-" {
                    angle = angle.saturating_sub(1);
                }
            }
            "{" if paren == 0 && angle == 0 => return Some(j),
            ";" if paren == 0 && bracket == 0 => return None,
            _ => {}
        }
        j += 1;
    }
    None
}

/// Parses one `use` declaration starting at `start` (just past `use`),
/// filling `uses` with alias → full path. Returns the index past the
/// terminating `;`. Handles nested groups and `as` renames; `*` globs
/// are ignored (the resolver treats them as unknown).
fn parse_use(toks: &[Token], start: usize, uses: &mut BTreeMap<String, Vec<String>>) -> usize {
    let mut prefix: Vec<String> = Vec::new();
    parse_use_tree(toks, start, &mut prefix, uses)
}

fn parse_use_tree(
    toks: &[Token],
    mut j: usize,
    prefix: &mut Vec<String>,
    uses: &mut BTreeMap<String, Vec<String>>,
) -> usize {
    let depth_here = prefix.len();
    let mut pending: Option<String> = None;
    while j < toks.len() {
        match (toks[j].kind, toks[j].text.as_str()) {
            (TokKind::Punct, ";") => {
                if let Some(seg) = pending.take() {
                    let mut full = prefix.clone();
                    full.push(seg.clone());
                    uses.insert(seg, full);
                }
                return j + 1;
            }
            (TokKind::Punct, ",") | (TokKind::Punct, "}") => {
                if let Some(seg) = pending.take() {
                    let mut full = prefix.clone();
                    full.push(seg.clone());
                    uses.insert(seg, full);
                }
                prefix.truncate(depth_here);
                if toks[j].text == "}" {
                    return j + 1;
                }
                j += 1;
            }
            (TokKind::Punct, "{") => {
                if let Some(seg) = pending.take() {
                    prefix.push(seg);
                }
                j = parse_use_tree(toks, j + 1, prefix, uses);
                prefix.truncate(depth_here);
            }
            (TokKind::Punct, ":") => {
                // `::`: the pending segment was a path element.
                if let Some(seg) = pending.take() {
                    prefix.push(seg);
                }
                j += 1;
            }
            (TokKind::Ident, "as") => {
                // `a::b as c`: keep b in the path, alias under c.
                let real = pending.take();
                if let Some(alias_tok) = toks.get(j + 1) {
                    if alias_tok.kind == TokKind::Ident {
                        let mut full = prefix.clone();
                        if let Some(r) = real {
                            full.push(r);
                        }
                        if alias_tok.text != "_" {
                            uses.insert(alias_tok.text.clone(), full);
                        }
                    }
                }
                j += 2;
            }
            (TokKind::Ident, id) => {
                pending = Some(id.to_owned());
                j += 1;
            }
            (TokKind::Punct, "*") => {
                pending = None;
                j += 1;
            }
            _ => j += 1,
        }
    }
    j
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parsed(src: &str) -> ParsedFile {
        parse(&lex("t.rs", src))
    }

    #[test]
    fn fn_items_with_impl_context() {
        let p = parsed(
            "impl Tracker {\n    fn strike(&mut self) { self.bump(); }\n}\n\
             impl Default for Tracker {\n    fn default() -> Self { Tracker::new() }\n}\n\
             fn free() {}\n",
        );
        assert_eq!(p.fns.len(), 3);
        assert_eq!(p.fns[0].name, "strike");
        assert_eq!(p.fns[0].impl_type.as_deref(), Some("Tracker"));
        assert_eq!(p.fns[1].name, "default");
        assert_eq!(p.fns[1].impl_type.as_deref(), Some("Tracker"));
        assert_eq!(p.fns[2].name, "free");
        assert_eq!(p.fns[2].impl_type, None);
    }

    #[test]
    fn generic_impl_header() {
        let p = parsed("impl<T: Clone> Wrapper<T> {\n    fn get(&self) {}\n}\n");
        assert_eq!(p.fns[0].impl_type.as_deref(), Some("Wrapper"));
    }

    #[test]
    fn calls_attributed_to_innermost_fn() {
        let p = parsed(
            "fn outer() {\n    helper();\n    fn inner() { deep(); }\n    after();\n}\n",
        );
        let outer = &p.fns[0];
        let inner = &p.fns[1];
        assert_eq!(outer.name, "outer");
        let outer_calls: Vec<&str> = outer.calls.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(outer_calls, vec!["helper", "after"]);
        let inner_calls: Vec<&str> = inner.calls.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(inner_calls, vec!["deep"]);
    }

    #[test]
    fn call_kinds() {
        let p = parsed(
            "fn f() {\n    bare();\n    self.method();\n    a::b::path();\n    x.chain().next_u64();\n    Vec::<u8>::with_capacity(4);\n}\n",
        );
        let calls = &p.fns[0].calls;
        assert_eq!(calls[0].kind, CallKind::Bare);
        assert_eq!(calls[1].kind, CallKind::Method { recv: "self".into() });
        assert_eq!(
            calls[2].kind,
            CallKind::Path { segments: vec!["a".into(), "b".into()] }
        );
        assert_eq!(calls[3].name, "chain");
        assert_eq!(calls[4].kind, CallKind::Method { recv: "chain()".into() });
        assert_eq!(
            calls[5].kind,
            CallKind::Path { segments: vec!["Vec".into()] }
        );
        assert_eq!(calls[5].name, "with_capacity");
    }

    #[test]
    fn receivers() {
        let p = parsed(
            "fn f() {\n    self.fault_rng.gen_bool(p);\n    ctx.rng().next_u64();\n    self.deques[me].lock();\n    self.0.lock();\n    q?.take();\n}\n",
        );
        let recv: Vec<String> = p.fns[0]
            .calls
            .iter()
            .filter_map(|c| match &c.kind {
                CallKind::Method { recv } => Some(recv.clone()),
                _ => None,
            })
            .collect();
        // `ctx.rng()` itself is a Method call (name `rng`, recv `ctx`), then
        // the draw chains off it with recv `rng()`.
        assert_eq!(recv, vec!["fault_rng", "ctx", "rng()", "deques", "0", "q"]);
    }

    #[test]
    fn keywords_and_macros_are_not_calls() {
        let p = parsed("fn f() {\n    if (a) { return (b); }\n    panic!(\"x\");\n    vec![1];\n}\n");
        // `panic` is followed by `!`, not `(` — the macro itself is not a
        // call edge (its arguments still are, when they contain calls).
        assert!(p.fns[0].calls.is_empty());
    }

    #[test]
    fn trait_decls_have_no_body_item() {
        let p = parsed("trait T {\n    fn decl(&self);\n    fn with_default(&self) { self.decl(); }\n}\n");
        assert_eq!(p.fns.len(), 1);
        assert_eq!(p.fns[0].name, "with_default");
    }

    #[test]
    fn array_return_type_has_a_body() {
        let p = parsed("trait T {\n    fn decl(&self) -> [u8; 4];\n}\nfn f() -> [u8; 80] { g() }\n");
        assert_eq!(p.fns.len(), 1);
        assert_eq!(p.fns[0].name, "f");
        assert_eq!(p.fns[0].calls.len(), 1);
    }

    #[test]
    fn use_imports() {
        let p = parsed(
            "use a::b::Thing;\nuse c::d as renamed;\nuse e::{f, g::h};\nuse i::*;\nfn f() {}\n",
        );
        assert_eq!(p.uses.get("Thing"), Some(&vec!["a".into(), "b".into(), "Thing".into()]));
        assert_eq!(p.uses.get("renamed"), Some(&vec!["c".into(), "d".into()]));
        assert_eq!(p.uses.get("f"), Some(&vec!["e".into(), "f".into()]));
        assert_eq!(p.uses.get("h"), Some(&vec!["e".into(), "g".into(), "h".into()]));
        assert!(!p.uses.contains_key("i"));
    }

    #[test]
    fn fn_spans_and_test_flags() {
        let src = "fn prod() {\n    work();\n}\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn check() { prod(); }\n}\n";
        let p = parsed(src);
        assert_eq!(p.fns[0].start_line, 1);
        assert_eq!(p.fns[0].end_line, 3);
        assert!(!p.fns[0].is_test);
        assert!(p.fns[1].is_test);
    }

    #[test]
    fn attributes_inside_bodies_are_skipped() {
        let p = parsed("fn f() {\n    #[allow(dead_code)]\n    let x = real_call();\n}\n");
        let names: Vec<&str> = p.fns[0].calls.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, vec!["real_call"]);
    }
}

