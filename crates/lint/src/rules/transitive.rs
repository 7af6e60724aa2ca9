//! Transitive contract scopes: `panic-path`, `hot-path-alloc` and
//! `wallclock` findings fire in any function *reachable from* a contract
//! scope root, with the call chain printed.
//!
//! The per-file rules pin the contract at its surface; these passes follow
//! the calls. A helper one file away from `recv.rs` that `.unwrap()`s peer
//! bytes is exactly as crashable as an unwrap in `recv.rs` — the old scoped
//! rules just never saw it. Conservative by construction: only unambiguous
//! call edges exist in the graph, so every chain printed here is real.
//!
//! Known limits (see DESIGN.md §16): bare-indexing detection stays
//! file-scoped (outside the peer-input files an index is usually over local
//! state, and the token walk cannot tell); ambiguous calls contribute no
//! edges, so a panic behind a name shared by several defs is not chased.

use crate::findings::Finding;
use crate::lexer::{SourceFile, Token};
use crate::parse::FnItem;
use crate::rules::Workspace;
use crate::rules::alloc::{self, HOT_PATH_ALLOC};
use crate::rules::determinism::{self, WALLCLOCK};
use crate::rules::panics::{self, PANIC_PATH};
use crate::scope::{self, Allowlist};
use std::collections::BTreeSet;

/// A flagged construct found inside one fn body.
struct Hit {
    line: u32,
    /// Short construct label appended to the chain (`unwrap`, `to_vec`, …).
    construct: &'static str,
    message: String,
}

/// `panic-path`, transitively: panicking constructs in any function
/// reachable from the peer-input files.
pub fn panic_path_transitive(ws: &Workspace, out: &mut Vec<Finding>) {
    let mut roots: Vec<usize> = Vec::new();
    for &rel in scope::PEER_INPUT_FILES {
        roots.extend(ws.defs_in_file(rel));
    }
    if roots.is_empty() {
        return;
    }
    let parents = ws.graph.reach(&roots, &|_| false);
    for (&d, parent) in &parents {
        if parent.is_none() {
            continue; // roots are covered by the per-file rule
        }
        let rel = ws.rel_of(d);
        if scope::is_peer_input(rel) || crate::symbols::is_test_tree(rel) {
            continue;
        }
        for hit in panic_hits(ws.sf_of(d), ws.fn_of(d)) {
            let mut chain = ws.chain_from(&parents, d);
            chain.push(hit.construct.to_owned());
            out.push(Finding::with_chain(rel, hit.line, PANIC_PATH, hit.message, chain));
        }
    }
}

/// `hot-path-alloc`, transitively: allocating constructs in any function
/// reachable from the receive-path files or the send-path roots, stopping
/// at the declared steady-state boundaries.
pub fn hot_path_alloc_transitive(ws: &Workspace, out: &mut Vec<Finding>) {
    let mut roots: Vec<usize> = Vec::new();
    for &rel in scope::RECV_PATH_FILES {
        roots.extend(ws.defs_in_file(rel));
    }
    for &(rel, name) in scope::SEND_PATH_ROOTS {
        roots.extend(ws.defs_in_file(rel).into_iter().filter(|&d| ws.fn_of(d).name == name));
    }
    if roots.is_empty() {
        return;
    }
    let is_boundary =
        |d: usize| scope::HOT_PATH_BOUNDARIES.contains(&ws.fn_of(d).name.as_str());
    let parents = ws.graph.reach(&roots, &is_boundary);
    for &d in parents.keys() {
        if is_boundary(d) {
            continue; // boundary fns own their allocations
        }
        let rel = ws.rel_of(d);
        // Receive-path files are covered by the per-file rule; send-path
        // roots live elsewhere, so their bodies are checked here.
        if scope::is_recv_path(rel) || crate::symbols::is_test_tree(rel) {
            continue;
        }
        for hit in alloc_hits(ws.sf_of(d), ws.fn_of(d)) {
            let mut chain = ws.chain_from(&parents, d);
            chain.push(hit.construct.to_owned());
            out.push(Finding::with_chain(rel, hit.line, HOT_PATH_ALLOC, hit.message, chain));
        }
    }
}

/// `wallclock`, transitively: a sim-deterministic function whose call chain
/// reaches a wall-clock read that the direct rule cannot see (the read sits
/// in an allowlisted measurement file, or outside the sim-deterministic
/// crates). The finding lands on the *call site* inside the sim crate — that
/// edge is the determinism leak.
pub fn wallclock_transitive(ws: &Workspace, allow: &Allowlist, out: &mut Vec<Finding>) {
    // W: defs that read the wall clock directly.
    let mut targets: Vec<usize> = Vec::new();
    for fi in 0..ws.rels.len() {
        for item in 0..ws.parsed[fi].fns.len() {
            let f = &ws.parsed[fi].fns[item];
            if f.is_test {
                continue;
            }
            if let Some(d) = ws.index.def_id(fi, item) {
                if reads_wallclock(&ws.files[fi], f) {
                    targets.push(d);
                }
            }
        }
    }
    if targets.is_empty() {
        return;
    }
    let target_set: BTreeSet<usize> = targets.iter().copied().collect();
    let next = ws.graph.reach_reverse(&targets);

    // An edge a → b is a leak when a lives under the determinism contract
    // (sim crate, not itself exempted) and b's chain ends at a wall-clock
    // read the direct rule does not flag there.
    let escapes = |d: usize| {
        let rel = ws.rel_of(d);
        !scope::in_sim_deterministic(rel) || allow.allows(WALLCLOCK, rel)
    };
    for fi in 0..ws.rels.len() {
        let rel = &ws.rels[fi];
        if !scope::in_sim_deterministic(rel)
            || allow.allows(WALLCLOCK, rel)
            || crate::symbols::is_test_tree(rel)
        {
            continue;
        }
        for item in 0..ws.parsed[fi].fns.len() {
            let f = &ws.parsed[fi].fns[item];
            if f.is_test {
                continue;
            }
            let Some(a) = ws.index.def_id(fi, item) else { continue };
            if target_set.contains(&a) {
                continue; // direct finding already fires here
            }
            for e in &ws.graph.edges[a] {
                if !next.contains_key(&e.callee) || !escapes(e.callee) {
                    continue;
                }
                let mut chain = vec![ws.label(a)];
                chain.extend(ws.graph.chain_to_target(&next, e.callee, &|d| ws.label(d)));
                chain.push("wallclock".to_owned());
                out.push(Finding::with_chain(
                    rel,
                    e.line,
                    WALLCLOCK,
                    format!(
                        "call into `{}` eventually reads the wall clock (allowlisted or \
                         out-of-contract at the read site); sim-deterministic output must not \
                         depend on it — thread simulator time through, or justify with \
                         `lint:allow(wallclock): <reason>` at this call",
                        ws.label(e.callee)
                    ),
                    chain,
                ));
            }
        }
    }
}

/// Panicking constructs inside `f`'s body: `.unwrap()`/`.expect(`, panic
/// macro family. Bare indexing is deliberately not chased transitively.
fn panic_hits(sf: &SourceFile, f: &FnItem) -> Vec<Hit> {
    let mut hits = Vec::new();
    for (i, t) in body(sf, f) {
        let Some(construct) = panics::panic_construct(&sf.tokens, i) else {
            continue;
        };
        if sf.in_test(t.line) {
            continue;
        }
        let message = if construct == "panic!" {
            format!(
                "`{}!` reachable from the peer-input path aborts the node on a crafted \
                 message; drop the message and penalize the peer instead",
                t.text
            )
        } else {
            format!(
                "`.{}(..)` reachable from the peer-input path can panic on a crafted \
                 message; return a typed error instead",
                t.text
            )
        };
        hits.push(Hit { line: t.line, construct, message });
    }
    hits
}

/// Allocating constructs inside `f`'s body: the per-file `hot-path-alloc`
/// set minus slice copies into existing buffers, which a reachable helper
/// (a hash kernel, a fixed-size read) makes by design.
fn alloc_hits(sf: &SourceFile, f: &FnItem) -> Vec<Hit> {
    let mut hits = Vec::new();
    for (i, t) in body(sf, f) {
        let Some(c) = alloc::alloc_construct(&sf.tokens, i) else {
            continue;
        };
        if !c.allocates || sf.in_test(t.line) {
            continue;
        }
        let what = c.what;
        hits.push(Hit {
            line: t.line,
            construct: c.label,
            message: format!(
                "{what} in a function called from the steady-state receive or send path; use \
                 the cursor buffer / refcounted slices, or justify with \
                 `lint:allow(hot-path-alloc): <reason>`"
            ),
        });
    }
    hits
}

/// Whether `f`'s body reads the wall clock directly (the per-file
/// `wallclock` rule's construct, outside test code).
fn reads_wallclock(sf: &SourceFile, f: &FnItem) -> bool {
    body(sf, f).any(|(i, t)| determinism::wallclock_read(&sf.tokens, i) && !sf.in_test(t.line))
}

/// The tokens of `f`'s body, with their indices.
fn body<'a>(sf: &'a SourceFile, f: &FnItem) -> impl Iterator<Item = (usize, &'a Token)> {
    sf.tokens.iter().enumerate().take(f.body_end + 1).skip(f.body_start)
}
