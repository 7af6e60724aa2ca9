//! `lock-order`: Mutex acquisitions in the lock-scope files must follow the
//! declared total order in [`crate::scope::LOCK_ORDER`].
//!
//! The simulator's k-region rounds hold locks across real work (a region
//! lock spans a whole event window); a second lock acquired in the wrong
//! order — directly, or through a callee — is a deadlock that no
//! single-threaded test reproduces. The rule:
//!
//! * maps every `.lock()` receiver to a declared lock name (an undeclared
//!   receiver in a scope file is itself a finding — every lock needs a
//!   rank);
//! * estimates the guard's live span: `let`-bound guards live to the end of
//!   their enclosing block, temporaries to the end of their statement
//!   (approximated conservatively; see DESIGN.md §16 for the known limits);
//! * adds an acquired-while-holding edge for every acquisition (direct, or
//!   via the transitive lock summary of a resolved callee) inside a live
//!   span, and flags edges that go backwards (or sideways) in the declared
//!   order.

use crate::findings::Finding;
use crate::lexer::SourceFile;
use crate::parse::CallKind;
use crate::rules::Workspace;
use crate::scope;
use std::collections::BTreeMap;

/// Rule name for lock-order findings.
pub const LOCK_ORDER: &str = "lock-order";

/// One `.lock()` acquisition in a scope file.
struct Acq {
    /// Token index of the `lock` name token.
    tok: usize,
    /// 1-based line.
    line: u32,
    /// Rank in `scope::LOCK_ORDER`.
    rank: usize,
    /// Exclusive token index the guard is (conservatively) live until.
    span_end: usize,
}

/// Runs the lock-order analysis over the scope files.
pub fn lock_order(ws: &Workspace, out: &mut Vec<Finding>) {
    // Transitive lock summaries: def id → bitmask of LOCK_ORDER ranks the
    // def may acquire (directly or through resolved callees).
    let summaries = lock_summaries(ws);

    for &scope_file in scope::LOCK_SCOPE_FILES {
        let Some(fi) = ws.file_idx(scope_file) else { continue };
        let sf = &ws.files[fi];
        let mut acqs: Vec<Acq> = Vec::new();

        for f in &ws.parsed[fi].fns {
            if f.is_test {
                continue;
            }
            // Direct acquisitions in this fn.
            for call in &f.calls {
                if call.name != "lock" {
                    continue;
                }
                let CallKind::Method { recv } = &call.kind else { continue };
                if sf.in_test(call.line) {
                    continue;
                }
                let Some(rank) = declared_rank(scope_file, recv) else {
                    out.push(Finding::new(
                        scope_file,
                        call.line,
                        LOCK_ORDER,
                        format!(
                            "`.lock()` on undeclared receiver `{recv}`: every Mutex in a \
                             lock-scope file needs an identity and rank in scope::LOCK_DECLS"
                        ),
                    ));
                    continue;
                };
                let span_end = guard_span_end(sf, call.tok);
                acqs.push(Acq { tok: call.tok, line: call.line, rank, span_end });
            }

            // Edges: for each acquisition, anything acquired inside its span.
            for call in &f.calls {
                // Interprocedural: a call inside a held span pulls in the
                // callee's transitive lock summary.
                let Some(callee) = resolve_for_summary(ws, fi, f, call) else { continue };
                let mask = summaries.get(&callee).copied().unwrap_or(0);
                if mask == 0 {
                    continue;
                }
                for held in acqs.iter().filter(|a| a.tok < call.tok && call.tok < a.span_end) {
                    for rank in 0..scope::LOCK_ORDER.len() {
                        if mask & (1 << rank) == 0 {
                            continue;
                        }
                        check_edge(scope_file, held, rank, call.line, Some(ws.label(callee)), out);
                    }
                }
            }
        }

        // Direct acquired-while-holding edges (across the file's token
        // stream; spans never cross fn bodies in practice).
        for b in &acqs {
            for a in acqs.iter().filter(|a| a.tok < b.tok && b.tok < a.span_end) {
                check_edge(scope_file, a, b.rank, b.line, None, out);
            }
        }
    }
}

fn check_edge(
    file: &str,
    held: &Acq,
    acquired_rank: usize,
    line: u32,
    via: Option<String>,
    out: &mut Vec<Finding>,
) {
    if acquired_rank > held.rank {
        return; // forward in the declared order: fine
    }
    let held_name = scope::LOCK_ORDER[held.rank];
    let acq_name = scope::LOCK_ORDER[acquired_rank];
    let how = match &via {
        Some(callee) => format!("via `{callee}` "),
        None => String::new(),
    };
    let what = if acquired_rank == held.rank {
        format!("`{acq_name}` re-acquired {how}while already held (self-deadlock risk)")
    } else {
        format!(
            "`{acq_name}` acquired {how}while holding `{held_name}` — against the declared \
             order ({acq_name} ranks before {held_name} in scope::LOCK_ORDER)"
        )
    };
    out.push(Finding::new(
        file,
        line,
        LOCK_ORDER,
        format!("{what}; release first or swap the acquisitions"),
    ));
}

/// Rank of the lock declared for `(file, recv)`, if any.
fn declared_rank(file: &str, recv: &str) -> Option<usize> {
    let decl = scope::LOCK_DECLS
        .iter()
        .find(|d| d.file == file && d.recvs.contains(&recv))?;
    scope::LOCK_ORDER.iter().position(|&l| l == decl.lock)
}

/// Conservative end (exclusive token index) of the guard obtained by the
/// `.lock()` whose name token sits at `tok`.
///
/// * Statement starts with `let` → the binding lives to the end of the
///   innermost enclosing block.
/// * Anything else (temporary, `if let`/`while let` condition, match
///   scrutinee) → the end of the statement: the first `;` at relative brace
///   depth 0, or the `}` that closes a brace opened inside the statement
///   (the body of an `if let`), or the `}` closing the enclosing block.
fn guard_span_end(sf: &SourceFile, tok: usize) -> usize {
    let toks = &sf.tokens;
    // Statement start: walk back to the nearest `;`, `{` or `}`.
    let mut s = tok;
    while s > 0 && !matches!(toks[s - 1].text.as_str(), ";" | "{" | "}") {
        s -= 1;
    }
    let let_bound = toks.get(s).map(|t| t.text.as_str()) == Some("let");

    if let_bound {
        // Innermost enclosing block end: matching `}` for the last
        // unmatched `{` before `tok`.
        let mut depth = 0i64;
        let mut j = tok;
        while j < toks.len() {
            match toks[j].text.as_str() {
                "{" => depth += 1,
                "}" => {
                    if depth == 0 {
                        return j;
                    }
                    depth -= 1;
                }
                _ => {}
            }
            j += 1;
        }
        return toks.len();
    }

    // Temporary: end of statement.
    let mut depth = 0i64;
    let mut j = tok;
    while j < toks.len() {
        match toks[j].text.as_str() {
            ";" if depth == 0 => return j,
            "{" => depth += 1,
            "}" => {
                if depth == 0 {
                    return j; // enclosing block closed
                }
                depth -= 1;
                if depth == 0 {
                    // A block opened inside this statement closed (e.g. the
                    // body of an `if let`); the temporary dies here unless
                    // an `else` continues the statement.
                    if toks.get(j + 1).map(|t| t.text.as_str()) != Some("else") {
                        return j;
                    }
                }
            }
            _ => {}
        }
        j += 1;
    }
    toks.len()
}

/// Transitive lock summaries: def id → bitmask of acquirable ranks.
fn lock_summaries(ws: &Workspace) -> BTreeMap<usize, u64> {
    let mut mask: BTreeMap<usize, u64> = BTreeMap::new();
    // Direct acquisitions.
    for &scope_file in scope::LOCK_SCOPE_FILES {
        let Some(fi) = ws.file_idx(scope_file) else { continue };
        for (item, f) in ws.parsed[fi].fns.iter().enumerate() {
            if f.is_test {
                continue;
            }
            let Some(def) = ws.index.def_id(fi, item) else { continue };
            let mut m = 0u64;
            for call in &f.calls {
                if call.name != "lock" {
                    continue;
                }
                if let CallKind::Method { recv } = &call.kind {
                    if let Some(rank) = declared_rank(scope_file, recv) {
                        m |= 1 << rank;
                    }
                }
            }
            if m != 0 {
                mask.insert(def, m);
            }
        }
    }
    // Propagate backwards along call edges to a fixpoint (the graph is
    // small; a handful of rounds suffice and the loop is bounded).
    for _ in 0..ws.graph.edges.len().max(8) {
        let mut changed = false;
        for (caller, outs) in ws.graph.edges.iter().enumerate() {
            let mut m = mask.get(&caller).copied().unwrap_or(0);
            let before = m;
            for e in outs {
                m |= mask.get(&e.callee).copied().unwrap_or(0);
            }
            if m != before {
                mask.insert(caller, m);
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    mask
}

/// Resolves `call` the same way the graph builder does, but only returning
/// callees that have a lock summary worth checking. The receiver-`lock`
/// acquisition itself (same token) is excluded by the caller's span check
/// (`a.tok < call.tok`).
fn resolve_for_summary(
    ws: &Workspace,
    caller_file: usize,
    caller: &crate::parse::FnItem,
    call: &crate::parse::Call,
) -> Option<usize> {
    // Reuse the already-built graph: find the edge whose line and callee
    // match this call. Cheaper than re-resolving, and guaranteed
    // consistent.
    let item = ws.parsed[caller_file]
        .fns
        .iter()
        .position(|f| std::ptr::eq(f, caller))?;
    let def = ws.index.def_id(caller_file, item)?;
    ws.graph.edges[def]
        .iter()
        .find(|e| {
            e.line == call.line && ws.fn_of(e.callee).name == call.name
        })
        .map(|e| e.callee)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    #[test]
    fn guard_spans() {
        // let-bound: lives to the enclosing block's `}`.
        let sf = lex("t.rs", "fn f() { let g = m.lock(); work(); }\n");
        let lock_tok = sf.tokens.iter().position(|t| t.text == "lock").unwrap();
        let end = guard_span_end(&sf, lock_tok);
        assert_eq!(sf.tokens[end].text, "}");

        // temporary: dies at the `;`.
        let sf = lex("t.rs", "fn f() { m.lock().push(1); other.lock(); }\n");
        let lock_tok = sf.tokens.iter().position(|t| t.text == "lock").unwrap();
        let end = guard_span_end(&sf, lock_tok);
        assert_eq!(sf.tokens[end].text, ";");

        // if-let condition: dies when the if body closes.
        let sf = lex(
            "t.rs",
            "fn f() { if let Some(t) = q.lock().pop() { use_it(t); } q2.lock(); }\n",
        );
        let lock_tok = sf.tokens.iter().position(|t| t.text == "lock").unwrap();
        let end = guard_span_end(&sf, lock_tok);
        let q2 = sf.tokens.iter().rposition(|t| t.text == "lock").unwrap();
        assert!(end < q2, "if-let guard must not cover the next statement");

        // inner-block let: dies at the inner `}`.
        let sf = lex(
            "t.rs",
            "fn f() { let mail = { let g = src.lock(); take(g) }; dst.lock(); }\n",
        );
        let lock_tok = sf.tokens.iter().position(|t| t.text == "lock").unwrap();
        let end = guard_span_end(&sf, lock_tok);
        let dst = sf.tokens.iter().rposition(|t| t.text == "lock").unwrap();
        assert!(end < dst, "inner-block guard must not cover the sibling lock");
    }
}
