//! Workspace call graph: resolution heuristics over the symbol index, plus
//! reachability with parent chains for the transitive-scope rules.
//!
//! Resolution is deliberately conservative: an edge is added only when the
//! callee is *unambiguous* under the heuristics below. Everything else is
//! counted (never silently dropped) in [`Stats`] so `--json` output and
//! DESIGN.md can state exactly how much of the graph is heuristic-blind:
//!
//! * `recv.name(..)` with `recv == self` → `(enclosing impl type, name)` in
//!   the qualified index, falling back to a workspace-unique bare name;
//! * `recv.name(..)` otherwise → workspace-unique bare name;
//! * `Type::name(..)` → `(Type, name)` qualified (with `Self` mapped to the
//!   caller's impl type), falling back to a workspace-unique bare name
//!   (covers `crate::module::free_fn(..)` paths);
//! * `name(..)` → unique definition in the same file, then workspace-unique.
//!
//! Enum-variant constructors (`Some(x)`, `Message::Ping(n)`) lex like calls;
//! they resolve to nothing and land in `unknown` — noise in the stats, never
//! a bogus edge.

use crate::parse::{Call, CallKind, ParsedFile};
use crate::symbols::Index;
use std::collections::BTreeMap;

/// One resolved call edge.
#[derive(Clone, Copy, Debug)]
pub struct Edge {
    /// Callee def id.
    pub callee: usize,
    /// 1-based line of the call site.
    pub line: u32,
}

/// Resolution accounting: every call is resolved, ambiguous, or unknown.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Stats {
    /// Function definitions in the graph.
    pub functions: usize,
    /// Resolved call edges.
    pub edges: usize,
    /// Calls whose name matched more than one definition (no edge added).
    pub ambiguous: usize,
    /// Calls matching no workspace definition (std, macros-as-calls,
    /// enum-variant constructors).
    pub unknown: usize,
}

/// The workspace call graph.
#[derive(Debug, Default)]
pub struct Graph {
    /// Outgoing edges per def id.
    pub edges: Vec<Vec<Edge>>,
    /// Resolution accounting.
    pub stats: Stats,
}

enum Resolution {
    Def(usize),
    Ambiguous,
    Unknown,
}

impl Graph {
    /// Builds the graph over the same file order the index was built with.
    pub fn build(index: &Index, parsed: &[&ParsedFile]) -> Graph {
        let mut g = Graph {
            edges: vec![Vec::new(); index.defs.len()],
            stats: Stats { functions: index.defs.len(), ..Stats::default() },
        };
        for (id, def) in index.defs.iter().enumerate() {
            let f = &parsed[def.file].fns[def.item];
            for call in &f.calls {
                match resolve(index, def.file, f.impl_type.as_deref(), call) {
                    Resolution::Def(callee) => {
                        g.stats.edges += 1;
                        g.edges[id].push(Edge { callee, line: call.line });
                    }
                    Resolution::Ambiguous => g.stats.ambiguous += 1,
                    Resolution::Unknown => g.stats.unknown += 1,
                }
            }
        }
        g
    }

    /// Forward BFS from `roots`. Returns `def id → parent` where a parent is
    /// `None` for roots and `Some((caller def, call line))` otherwise. Defs
    /// for which `stop` returns true are never expanded *through* (their own
    /// entry is still recorded, so rules can treat them as boundaries).
    pub fn reach(
        &self,
        roots: &[usize],
        stop: &dyn Fn(usize) -> bool,
    ) -> BTreeMap<usize, Option<(usize, u32)>> {
        let mut parents: BTreeMap<usize, Option<(usize, u32)>> = BTreeMap::new();
        let mut queue: Vec<usize> = Vec::new();
        for &r in roots {
            if parents.insert(r, None).is_none() {
                queue.push(r);
            }
        }
        let mut head = 0;
        while head < queue.len() {
            let d = queue[head];
            head += 1;
            if stop(d) && parents[&d].is_some() {
                continue;
            }
            for e in &self.edges[d] {
                if let std::collections::btree_map::Entry::Vacant(v) =
                    parents.entry(e.callee)
                {
                    v.insert(Some((d, e.line)));
                    queue.push(e.callee);
                }
            }
        }
        parents
    }

    /// Reverse BFS: for every def that can reach a member of `targets`,
    /// records the next hop *toward* the target (`None` for targets
    /// themselves). Used to render "this call eventually hits X" chains.
    pub fn reach_reverse(&self, targets: &[usize]) -> BTreeMap<usize, Option<(usize, u32)>> {
        let mut rev: Vec<Vec<Edge>> = vec![Vec::new(); self.edges.len()];
        for (caller, outs) in self.edges.iter().enumerate() {
            for e in outs {
                rev[e.callee].push(Edge { callee: caller, line: e.line });
            }
        }
        let mut next: BTreeMap<usize, Option<(usize, u32)>> = BTreeMap::new();
        let mut queue: Vec<usize> = Vec::new();
        for &t in targets {
            if next.insert(t, None).is_none() {
                queue.push(t);
            }
        }
        let mut head = 0;
        while head < queue.len() {
            let d = queue[head];
            head += 1;
            for e in &rev[d] {
                if let std::collections::btree_map::Entry::Vacant(v) = next.entry(e.callee) {
                    // From e.callee (a caller of d), the next hop toward the
                    // target is d via the call at e.line.
                    v.insert(Some((d, e.line)));
                    queue.push(e.callee);
                }
            }
        }
        next
    }

    /// Renders the root→`def` chain from a forward [`Graph::reach`] parent
    /// map as `file.rs:fn_name` labels.
    pub fn chain(
        &self,
        parents: &BTreeMap<usize, Option<(usize, u32)>>,
        def: usize,
        label: &dyn Fn(usize) -> String,
    ) -> Vec<String> {
        let mut rev = vec![label(def)];
        let mut cur = def;
        while let Some(Some((parent, _))) = parents.get(&cur) {
            cur = *parent;
            rev.push(label(cur));
            if rev.len() > 64 {
                break; // cycle guard; chains this long are useless anyway
            }
        }
        rev.reverse();
        rev
    }

    /// Renders the `def`→target chain from a [`Graph::reach_reverse`] map.
    pub fn chain_to_target(
        &self,
        next: &BTreeMap<usize, Option<(usize, u32)>>,
        def: usize,
        label: &dyn Fn(usize) -> String,
    ) -> Vec<String> {
        let mut out = vec![label(def)];
        let mut cur = def;
        while let Some(Some((hop, _))) = next.get(&cur) {
            cur = *hop;
            out.push(label(cur));
            if out.len() > 64 {
                break;
            }
        }
        out
    }
}

fn unique(v: Option<&Vec<usize>>) -> Resolution {
    match v {
        Some(ids) if ids.len() == 1 => Resolution::Def(ids[0]),
        Some(ids) if ids.len() > 1 => Resolution::Ambiguous,
        _ => Resolution::Unknown,
    }
}

/// Method names the std prelude/collections own: a `recv.name(..)` with one
/// of these names almost always targets std, even when the workspace happens
/// to define the name exactly once (e.g. a bench harness `iter`). The
/// bare-name *fallback* treats them as ambiguous — a qualified `self` match
/// still resolves normally.
const STD_METHODS: &[&str] = &[
    "iter", "iter_mut", "into_iter", "next", "next_back", "get", "get_mut", "insert", "remove",
    "push", "pop", "len", "is_empty", "clear", "contains", "contains_key", "extend", "clone",
    "to_vec", "to_string", "to_owned", "as_str", "as_bytes", "as_slice", "as_ref", "as_mut",
    "split", "split_at", "chars", "map", "filter", "fold", "collect", "sum", "min", "max",
    "sort", "sort_by", "sort_by_key", "sort_unstable", "binary_search", "drain", "retain",
    "entry", "keys", "values", "write", "read", "flush", "send", "recv", "join", "take",
    "replace", "swap", "abs", "sqrt", "floor", "ceil", "round", "zip", "enumerate", "rev",
    "chain", "count", "position", "find", "any", "all", "last", "first", "starts_with",
    "ends_with", "trim", "parse", "cmp", "eq", "fmt", "default", "new", "resize", "truncate",
    "windows", "chunks", "copied", "cloned", "unwrap_or", "unwrap_or_else", "and_then", "or",
    "or_else", "ok", "err", "is_some", "is_none", "is_ok", "is_err", "lines", "bytes",
    "copy_from_slice",
];

fn resolve(
    index: &Index,
    caller_file: usize,
    caller_impl: Option<&str>,
    call: &Call,
) -> Resolution {
    match &call.kind {
        CallKind::Method { recv } => {
            if recv == "self" {
                if let Some(ty) = caller_impl {
                    match unique(index.by_qual.get(&(ty.to_owned(), call.name.clone()))) {
                        Resolution::Unknown => {}
                        r => return r,
                    }
                }
            }
            if STD_METHODS.contains(&call.name.as_str()) {
                return Resolution::Ambiguous;
            }
            unique(index.by_name.get(&call.name))
        }
        CallKind::Path { segments } => {
            if let Some(last) = segments.last() {
                let ty = if last == "Self" {
                    caller_impl.unwrap_or("Self").to_owned()
                } else {
                    last.clone()
                };
                match unique(index.by_qual.get(&(ty, call.name.clone()))) {
                    Resolution::Unknown => {}
                    r => return r,
                }
            }
            unique(index.by_name.get(&call.name))
        }
        CallKind::Bare => {
            // Same-file definition first (the overwhelmingly common case
            // for helpers), then workspace-unique.
            let same_file: Vec<usize> = index
                .by_name
                .get(&call.name)
                .map(|ids| {
                    ids.iter()
                        .copied()
                        .filter(|&id| index.defs[id].file == caller_file)
                        .collect()
                })
                .unwrap_or_default();
            match same_file.len() {
                1 => return Resolution::Def(same_file[0]),
                n if n > 1 => return Resolution::Ambiguous,
                _ => {}
            }
            unique(index.by_name.get(&call.name))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::parse::{parse, ParsedFile};

    fn build(files: &[(&str, &str)]) -> (Index, Graph, Vec<ParsedFile>, Vec<String>) {
        let rels: Vec<String> = files.iter().map(|(r, _)| (*r).to_owned()).collect();
        let parsed: Vec<ParsedFile> = files.iter().map(|(r, s)| parse(&lex(r, s))).collect();
        let idx = Index::build(rels.iter().map(String::as_str).zip(parsed.iter()));
        let parsed_refs: Vec<&ParsedFile> = parsed.iter().collect();
        let g = Graph::build(&idx, &parsed_refs);
        (idx, g, parsed, rels)
    }

    fn name_of<'a>(idx: &Index, parsed: &'a [ParsedFile], id: usize) -> &'a str {
        let d = idx.defs[id];
        &parsed[d.file].fns[d.item].name
    }

    #[test]
    fn bare_same_file_and_cross_file_resolution() {
        let (idx, g, parsed, _) = build(&[
            ("crates/a/src/lib.rs", "fn entry() { helper(); other_crate_fn(); }\nfn helper() {}\n"),
            ("crates/b/src/lib.rs", "fn other_crate_fn() {}\n"),
        ]);
        let entry = idx.by_name["entry"][0];
        let callees: Vec<&str> = g.edges[entry]
            .iter()
            .map(|e| name_of(&idx, &parsed, e.callee))
            .collect();
        assert_eq!(callees, vec!["helper", "other_crate_fn"]);
        assert_eq!(g.stats.edges, 2);
    }

    #[test]
    fn self_method_resolves_through_impl_type() {
        let (idx, g, parsed, _) = build(&[(
            "crates/a/src/lib.rs",
            "impl A { fn run(&self) { self.step(); } fn step(&self) {} }\n\
             impl B { fn step(&self) {} }\n",
        )]);
        let run = idx.by_name["run"][0];
        assert_eq!(g.edges[run].len(), 1);
        let callee = g.edges[run][0].callee;
        let d = idx.defs[callee];
        assert_eq!(parsed[d.file].fns[d.item].impl_type.as_deref(), Some("A"));
    }

    #[test]
    fn ambiguous_method_is_counted_not_edged() {
        let (idx, g, _, _) = build(&[(
            "crates/a/src/lib.rs",
            "impl A { fn step(&self) {} }\nimpl B { fn step(&self) {} }\n\
             fn go(x: &A) { x.step(); }\n",
        )]);
        let go = idx.by_name["go"][0];
        assert!(g.edges[go].is_empty());
        assert_eq!(g.stats.ambiguous, 1);
    }

    #[test]
    fn path_call_resolves_qualified() {
        let (idx, g, parsed, _) = build(&[(
            "crates/a/src/lib.rs",
            "impl A { fn new() {} }\nimpl B { fn new() {} }\nfn go() { A::new(); }\n",
        )]);
        let go = idx.by_name["go"][0];
        assert_eq!(g.edges[go].len(), 1);
        let d = idx.defs[g.edges[go][0].callee];
        assert_eq!(parsed[d.file].fns[d.item].impl_type.as_deref(), Some("A"));
    }

    #[test]
    fn unknown_calls_are_counted() {
        let (idx, g, _, _) = build(&[(
            "crates/a/src/lib.rs",
            "fn go() { std_only(); }\n",
        )]);
        let go = idx.by_name["go"][0];
        assert!(g.edges[go].is_empty());
        assert_eq!(g.stats.unknown, 1);
    }

    #[test]
    fn reach_builds_chains() {
        let (idx, g, parsed, _) = build(&[(
            "crates/a/src/lib.rs",
            "fn root() { mid(); }\nfn mid() { leaf(); }\nfn leaf() {}\nfn island() {}\n",
        )]);
        let root = idx.by_name["root"][0];
        let leaf = idx.by_name["leaf"][0];
        let island = idx.by_name["island"][0];
        let parents = g.reach(&[root], &|_| false);
        assert!(parents.contains_key(&leaf));
        assert!(!parents.contains_key(&island));
        let label = |id: usize| name_of(&idx, &parsed, id).to_owned();
        assert_eq!(g.chain(&parents, leaf, &label), vec!["root", "mid", "leaf"]);
    }

    #[test]
    fn reach_stops_at_boundaries() {
        let (idx, g, _, _) = build(&[(
            "crates/a/src/lib.rs",
            "fn root() { boundary(); }\nfn boundary() { leaf(); }\nfn leaf() {}\n",
        )]);
        let root = idx.by_name["root"][0];
        let boundary = idx.by_name["boundary"][0];
        let leaf = idx.by_name["leaf"][0];
        let parents = g.reach(&[root], &|d| d == boundary);
        assert!(parents.contains_key(&boundary));
        assert!(!parents.contains_key(&leaf));
    }

    #[test]
    fn reverse_reach_renders_target_chains() {
        let (idx, g, parsed, _) = build(&[(
            "crates/a/src/lib.rs",
            "fn top() { mid(); }\nfn mid() { wall(); }\nfn wall() {}\n",
        )]);
        let top = idx.by_name["top"][0];
        let wall = idx.by_name["wall"][0];
        let next = g.reach_reverse(&[wall]);
        assert!(next.contains_key(&top));
        let label = |id: usize| name_of(&idx, &parsed, id).to_owned();
        assert_eq!(g.chain_to_target(&next, top, &label), vec!["top", "mid", "wall"]);
    }
}
