//! The rule set. Token-pattern rules are pure functions from a lexed
//! [`crate::lexer::SourceFile`] to findings; the call-graph-aware rules
//! (transitive scopes, `rng-stream`, `lock-order`) take the whole
//! [`Workspace`]. Scoping (which files a rule sees) lives in the driver, and
//! so does suppression — rules report everything outside test code, the
//! driver matches markers/allowlist entries and feeds the stale-exemption
//! audit from what actually fired.

pub mod alloc;
pub mod casts;
pub mod determinism;
pub mod lock_order;
pub mod panics;
pub mod rng_stream;
pub mod score_arith;
pub mod transitive;

use crate::callgraph::Graph;
use crate::lexer::SourceFile;
use crate::parse::{FnItem, ParsedFile};
use crate::symbols::Index;

/// Everything the cross-file rules need, borrowed from the driver. The four
/// slices are parallel (same file order the index and graph were built
/// with).
pub struct Workspace<'a> {
    /// Workspace-relative paths.
    pub rels: &'a [String],
    /// Lexed files.
    pub files: &'a [SourceFile],
    /// Parsed item surfaces.
    pub parsed: &'a [ParsedFile],
    /// Symbol index.
    pub index: &'a Index,
    /// Call graph.
    pub graph: &'a Graph,
}

impl<'a> Workspace<'a> {
    /// The function item behind def id `d`.
    pub fn fn_of(&self, d: usize) -> &'a FnItem {
        let def = self.index.defs[d];
        &self.parsed[def.file].fns[def.item]
    }

    /// Workspace-relative path of def id `d`'s file.
    pub fn rel_of(&self, d: usize) -> &'a str {
        &self.rels[self.index.defs[d].file]
    }

    /// Lexed file of def id `d`.
    pub fn sf_of(&self, d: usize) -> &'a SourceFile {
        &self.files[self.index.defs[d].file]
    }

    /// Chain label for def id `d`: `file.rs:fn_name` (basename only, the
    /// finding already carries the full path).
    pub fn label(&self, d: usize) -> String {
        let rel = self.rel_of(d);
        let base = rel.rsplit('/').next().unwrap_or(rel);
        format!("{}:{}", base, self.fn_of(d).name)
    }

    /// File index for a workspace-relative path.
    pub fn file_idx(&self, rel: &str) -> Option<usize> {
        self.rels.iter().position(|r| r == rel)
    }

    /// Root→`def` chain labels from a forward [`Graph::reach`] map.
    pub fn chain_from(
        &self,
        parents: &std::collections::BTreeMap<usize, Option<(usize, u32)>>,
        def: usize,
    ) -> Vec<String> {
        self.graph.chain(parents, def, &|d| self.label(d))
    }

    /// All def ids in `rel`, filtered to non-test functions.
    pub fn defs_in_file(&self, rel: &str) -> Vec<usize> {
        let Some(fi) = self.file_idx(rel) else {
            return Vec::new();
        };
        (0..self.parsed[fi].fns.len())
            .filter(|&item| !self.parsed[fi].fns[item].is_test)
            .filter_map(|item| self.index.def_id(fi, item))
            .collect()
    }
}
