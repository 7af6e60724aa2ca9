//! Which rules run where, plus the file-level allowlist.
//!
//! Scoping is deliberately explicit path lists, not heuristics: the
//! determinism contract covers the crates whose output must be bit-identical
//! across `--jobs` counts, and the panic-safety contract covers exactly the
//! code that touches peer-controlled bytes. Adding a file to a contract is a
//! reviewed one-line change here.

use crate::findings::Finding;
use std::path::Path;

/// Crates whose simulation output must be bit-identical across runs and job
/// counts (PR 3/4 determinism contract, extended to the detector in PR 10 —
/// its streaming verdicts are digest-gated in CI). `unordered-map` runs only
/// here; `wallclock` leaks out of allowlisted measurement files are caught by
/// the transitive pass.
pub const SIM_DETERMINISTIC_CRATES: &[&str] = &[
    "crates/wire",
    "crates/netsim",
    "crates/node",
    "crates/par",
    "crates/core",
    "crates/detect",
];

/// Files that parse or act on peer-controlled bytes: the `panic-path` rule
/// scope. A panic anywhere in here would let a malformed payload crash the
/// node *before* misbehavior tracking — inverting the paper's BM-DoS result.
pub const PEER_INPUT_FILES: &[&str] = &[
    // wire decode path
    "crates/wire/src/encode.rs",
    "crates/wire/src/message.rs",
    "crates/wire/src/types.rs",
    "crates/wire/src/compact.rs",
    "crates/wire/src/tx.rs",
    "crates/wire/src/block.rs",
    "crates/wire/src/bloom.rs",
    "crates/wire/src/drain.rs",
    // node message handlers and the state they drive
    "crates/node/src/node.rs",
    "crates/node/src/node/recv.rs",
    "crates/node/src/peer.rs",
    "crates/node/src/chain.rs",
    "crates/node/src/mempool.rs",
    "crates/node/src/banman.rs",
    "crates/node/src/addrman.rs",
    "crates/node/src/banscore/tracker.rs",
    "crates/node/src/banscore/reputation.rs",
    // detector ingest: both consume peer-derived message streams
    "crates/detect/src/streaming.rs",
    "crates/detect/src/serve.rs",
];

/// The steady-state receive path: files where a `to_vec()` /
/// `copy_from_slice` / `Vec::new` would silently reintroduce the per-frame
/// copies the zero-copy refactor removed (`hot-path-alloc` rule scope).
/// The two detector files cover the detector's per-window path: every
/// closed window is scored through `Profile::judge`, and a verdict must
/// stay a `Copy` value that costs no allocation.
pub const RECV_PATH_FILES: &[&str] = &[
    "crates/node/src/node/recv.rs",
    "crates/node/src/peer.rs",
    "crates/wire/src/drain.rs",
    "crates/detect/src/engine.rs",
    "crates/detect/src/streaming.rs",
];

/// The steady-state send path: `(file, fn)` roots of the `hot-path-alloc`
/// transitive pass beside [`RECV_PATH_FILES`]. A reply an attacker can
/// trigger should cost one frame buffer and nothing else; the roots' own
/// bodies are checked too, since their files are not receive-path files.
pub const SEND_PATH_ROOTS: &[(&str, &str)] = &[
    ("crates/node/src/node.rs", "send_message"),
    ("crates/node/src/node.rs", "broadcast_inv"),
];

/// Wire parsing files where `as u8`/`as u16`/`as u32` narrowing must be
/// justified (the crypto kernels are excluded: byte extraction is their
/// business).
pub const WIRE_PARSE_FILES: &[&str] = &[
    "crates/wire/src/encode.rs",
    "crates/wire/src/message.rs",
    "crates/wire/src/types.rs",
    "crates/wire/src/compact.rs",
    "crates/wire/src/tx.rs",
    "crates/wire/src/block.rs",
    "crates/wire/src/bloom.rs",
];

/// Whether `rel` (workspace-relative, `/`-separated) is inside a
/// sim-deterministic crate.
pub fn in_sim_deterministic(rel: &str) -> bool {
    SIM_DETERMINISTIC_CRATES
        .iter()
        .any(|c| rel.strip_prefix(c).is_some_and(|r| r.starts_with('/')))
}

/// Whether `rel` is in the panic-safety scope.
pub fn is_peer_input(rel: &str) -> bool {
    PEER_INPUT_FILES.contains(&rel)
}

/// Whether `rel` is in the narrowing-cast scope.
pub fn is_wire_parse(rel: &str) -> bool {
    WIRE_PARSE_FILES.contains(&rel)
}

/// Whether `rel` is in the hot-path-alloc scope.
pub fn is_recv_path(rel: &str) -> bool {
    RECV_PATH_FILES.contains(&rel)
}

/// Function names the hot-path-alloc transitive pass does not descend
/// *through*: these are the designed exits from the zero-copy steady state
/// (full-message handling and decode build owned values by contract), so
/// allocations behind them are not receive-path regressions.
pub const HOT_PATH_BOUNDARIES: &[&str] = &[
    "handle_message",  // per-message dispatch: handlers own their allocations
    "decode",          // Message::decode builds owned payload structures
    "decode_payload",  // the same owned decode, entered by command name
    "decode_verified", // the same owned decode, entered by command name
    "disconnect",      // teardown path, not steady-state
    "handshake",       // once-per-connection setup, not per-frame
    "to_frame",        // send path: the frame buffer is the reply's one allocation
    "from_block",      // builds the owned CMPCTBLOCK, once per broadcast, not per peer
];

/// Directory prefix of the ban-score bookkeeping: the `score-arith` scope.
pub const SCORE_ARITH_SCOPE: &str = "crates/node/src/banscore/";

/// Field names holding ban scores, credits, token-bucket levels or sim-time
/// deadlines: bare `+`/`-`/`*` assignments to these must be `saturating_*`/
/// `checked_*` (or carry a justified marker, e.g. for clamped floats).
pub const SCORE_FIELDS: &[&str] =
    &["score", "strikes", "credit", "tokens", "gray_allowance", "total"];

/// Whether `name` is a score/sim-time field for the `score-arith` rule.
/// `*until` catches the `graylist_until`/`banned_until` deadline family.
pub fn is_score_field(name: &str) -> bool {
    SCORE_FIELDS.contains(&name) || name.ends_with("until")
}

/// A declared RNG stream root: inside `func` (or the whole file when `func`
/// is `"*"`), draws may only come from receivers in `allowed` — the salted
/// stream this root owns. Any function *reachable from* a fn-level root
/// inherits the restriction (the fault path must never consume host-stream
/// randomness, or replay breaks bit-for-bit).
pub struct RngRoot {
    /// Workspace-relative file.
    pub file: &'static str,
    /// Function name, or `"*"` for every fn in the file.
    pub func: &'static str,
    /// Stream name (display only).
    pub stream: &'static str,
    /// Allowed draw receivers inside the root's scope.
    pub allowed: &'static [&'static str],
}

/// The declared RNG stream roots.
pub const RNG_ROOTS: &[RngRoot] = &[
    RngRoot {
        file: "crates/netsim/src/region.rs",
        func: "send_packet",
        stream: "fault",
        allowed: &["fault_rng"],
    },
    RngRoot {
        file: "crates/netsim/src/prop.rs",
        func: "*",
        stream: "proptest",
        allowed: &["rng"],
    },
    // The SimRng implementation itself is stream-neutral: its methods draw
    // on whatever stream instance the caller invoked them on, so `self`
    // draws inside rng.rs belong to the caller's stream by construction.
    RngRoot {
        file: "crates/netsim/src/rng.rs",
        func: "*",
        stream: "rng-impl",
        allowed: &["self"],
    },
];

/// Draw methods of the seeded RNGs (`SimRng` and shims with its surface).
pub const RNG_DRAW_METHODS: &[&str] =
    &["next_u64", "gen_range", "gen_f64", "gen_bool", "exponential"];

/// A declared Mutex identity: `.lock()` receivers in `file` matching one of
/// `recvs` acquire the named lock. Receivers in lock-scope files that match
/// no declaration are findings — every lock must have a rank.
pub struct LockDecl {
    /// Workspace-relative file.
    pub file: &'static str,
    /// Receiver idents (as rendered by `parse::receiver_of`).
    pub recvs: &'static [&'static str],
    /// Lock name; must appear in [`LOCK_ORDER`].
    pub lock: &'static str,
}

/// The declared lock identities.
pub const LOCK_DECLS: &[LockDecl] = &[
    LockDecl {
        file: "crates/netsim/src/shard.rs",
        recvs: &["regions", "reg"],
        lock: "netsim.region",
    },
    LockDecl {
        file: "crates/netsim/src/shard.rs",
        recvs: &["mailbox"],
        lock: "netsim.mailbox",
    },
    LockDecl {
        file: "crates/netsim/src/sim.rs",
        recvs: &["0"],
        lock: "netsim.tap",
    },
    LockDecl {
        file: "crates/par/src/lib.rs",
        recvs: &["queue"],
        lock: "par.queue",
    },
    LockDecl {
        file: "crates/par/src/phase.rs",
        recvs: &["sleep"],
        lock: "par.phase",
    },
];

/// The declared total lock order: a lock may only be acquired while holding
/// locks that appear strictly *earlier* in this list. Region locks come
/// first (the k-region round holds one across a whole event window), the
/// mailboxes and the tap inside it, and the pool's queue lock and the
/// phase rendezvous' parking lock are leaves acquired alone.
pub const LOCK_ORDER: &[&str] = &[
    "netsim.region",
    "netsim.mailbox",
    "netsim.tap",
    "par.queue",
    "par.phase",
];

/// Files the `lock-order` rule scans.
pub const LOCK_SCOPE_FILES: &[&str] = &[
    "crates/par/src/lib.rs",
    "crates/par/src/phase.rs",
    "crates/detect/src/serve.rs",
    "crates/netsim/src/sim.rs",
    "crates/netsim/src/shard.rs",
    "crates/netsim/src/region.rs",
];

/// One entry of the allowlist file.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AllowEntry {
    /// Rule name.
    pub rule: String,
    /// Path prefix the exemption covers.
    pub path: String,
    /// Mandatory justification.
    pub reason: String,
    /// 1-based line in the allowlist file (stale-exemption audit anchor).
    pub line: u32,
}

/// The parsed allowlist file (`crates/lint/lint-allow.txt`).
#[derive(Clone, Debug, Default)]
pub struct Allowlist {
    entries: Vec<AllowEntry>,
}

impl Allowlist {
    /// Parses allowlist text. Malformed lines become findings against
    /// `file` (the allowlist path) rather than silent exemptions.
    pub fn parse(file: &str, text: &str) -> (Allowlist, Vec<Finding>) {
        let mut entries = Vec::new();
        let mut findings = Vec::new();
        for (idx, raw) in text.lines().enumerate() {
            let line = raw.trim();
            let lineno = idx as u32 + 1;
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let Some((head, reason)) = line.split_once("--") else {
                findings.push(Finding::new(
                    file,
                    lineno,
                    "allowlist",
                    "missing `-- <reason>`: every exemption needs a justification",
                ));
                continue;
            };
            let mut parts = head.split_whitespace();
            let (Some(rule), Some(path), None) = (parts.next(), parts.next(), parts.next())
            else {
                findings.push(Finding::new(
                    file,
                    lineno,
                    "allowlist",
                    "expected `<rule> <path-prefix> -- <reason>`",
                ));
                continue;
            };
            let reason = reason.trim();
            if reason.is_empty() {
                findings.push(Finding::new(
                    file,
                    lineno,
                    "allowlist",
                    "empty reason: every exemption needs a justification",
                ));
                continue;
            }
            entries.push(AllowEntry {
                rule: rule.to_owned(),
                path: path.to_owned(),
                reason: reason.to_owned(),
                line: lineno,
            });
        }
        (Allowlist { entries }, findings)
    }

    /// Loads the allowlist from `root`, tolerating a missing file.
    pub fn load(root: &Path) -> (Allowlist, Vec<Finding>) {
        let path = root.join("crates/lint/lint-allow.txt");
        match std::fs::read_to_string(&path) {
            Ok(text) => Allowlist::parse("crates/lint/lint-allow.txt", &text),
            Err(_) => (Allowlist::default(), Vec::new()),
        }
    }

    /// Whether `rule` is exempted for `rel` by a path-prefix entry.
    pub fn allows(&self, rule: &str, rel: &str) -> bool {
        self.entries
            .iter()
            .any(|e| e.rule == rule && rel.starts_with(&e.path))
    }

    /// All entries (diagnostics).
    pub fn entries(&self) -> &[AllowEntry] {
        &self.entries
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scope_membership() {
        assert!(in_sim_deterministic("crates/wire/src/message.rs"));
        assert!(in_sim_deterministic("crates/node/src/banscore/tracker.rs"));
        assert!(in_sim_deterministic("crates/detect/src/latency.rs"));
        assert!(!in_sim_deterministic("crates/wireless/src/x.rs"));
        assert!(is_peer_input("crates/wire/src/encode.rs"));
        assert!(is_peer_input("crates/node/src/banscore/reputation.rs"));
        assert!(!is_peer_input("crates/wire/src/crypto/sha256.rs"));
        assert!(is_wire_parse("crates/wire/src/bloom.rs"));
        assert!(!is_wire_parse("crates/wire/src/crypto/murmur3.rs"));
        assert!(is_recv_path("crates/node/src/node/recv.rs"));
        assert!(is_recv_path("crates/wire/src/drain.rs"));
        assert!(!is_recv_path("crates/node/src/node.rs"));
        assert!(is_recv_path("crates/detect/src/engine.rs"));
        assert!(!is_recv_path("crates/detect/src/serve.rs"));
        assert!(is_peer_input("crates/node/src/node/recv.rs"));
        assert!(is_peer_input("crates/wire/src/drain.rs"));
    }

    #[test]
    fn allowlist_parses_and_matches() {
        let (al, bad) = Allowlist::parse(
            "lint-allow.txt",
            "# comment\n\nwallclock crates/detect/src/latency.rs -- wall-clock timing by design\n",
        );
        assert!(bad.is_empty());
        assert!(al.allows("wallclock", "crates/detect/src/latency.rs"));
        assert!(!al.allows("wallclock", "crates/detect/src/engine.rs"));
        assert!(!al.allows("unordered-map", "crates/detect/src/latency.rs"));
    }

    #[test]
    fn allowlist_rejects_missing_reason() {
        let (al, bad) = Allowlist::parse("f", "wallclock crates/x/src/a.rs\n");
        assert!(al.entries().is_empty());
        assert_eq!(bad.len(), 1);
        assert_eq!(bad[0].rule, "allowlist");
    }

    #[test]
    fn allowlist_rejects_empty_reason_and_bad_shape() {
        let (_, bad) = Allowlist::parse("f", "wallclock crates/x/src/a.rs -- \nonlyrule -- r\n");
        assert_eq!(bad.len(), 2);
    }
}
