//! End-to-end self-test: run the full lint over the fixture workspace under
//! `tests/fixtures/ws` and assert the exact findings — including that the
//! justified inline marker, the allowlist entry, and test code suppress
//! theirs, while the unjustified marker, the malformed allowlist line, and
//! the stale exemptions produce findings of their own. Each call-graph rule
//! family is exercised end to end: transitive panic-path / hot-path-alloc /
//! wallclock chains, score arithmetic, RNG stream discipline (cross-stream
//! chain, unsalted constructor, orphan stream), and lock ordering (direct
//! inversion, inversion via a callee, undeclared receiver).

use std::path::Path;

#[test]
fn fixture_workspace_findings_are_exact() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/ws");
    let findings = btc_lint::run(&root);

    let want: &[(&str, u32, &str)] = &[
        ("crates/attack/src/clock.rs", 4, "wallclock"),
        ("crates/lint/lint-allow.txt", 3, "allowlist"),
        ("crates/lint/lint-allow.txt", 4, "stale-allow"),
        // send_packet (RNG root) draws from fault_rng directly — fine — but
        // reaches fault_delay, which draws from host_rng: flagged with chain.
        ("crates/netsim/src/fault.rs", 6, "rng-stream"),
        // orphan_noise draws from a stream no root declares.
        ("crates/netsim/src/fault.rs", 10, "rng-stream"),
        ("crates/netsim/src/shard.rs", 5, "unordered-map"),
        ("crates/netsim/src/shard.rs", 7, "unordered-map"),
        ("crates/netsim/src/shard.rs", 8, "wallclock"),
        ("crates/netsim/src/shard.rs", 10, "unordered-map"),
        // host_stream builds SimRng::new(seed) with no salt; the salted
        // fault_stream two lines up is not flagged.
        ("crates/netsim/src/shard.rs", 23, "rng-stream"),
        // measure_window -> latency.rs:probe, whose wallclock read is
        // allowlisted at the read site but escapes into sim-determinism here.
        ("crates/netsim/src/shard.rs", 27, "wallclock"),
        // Bare += / + on score and deadline fields; the saturating_add and
        // the marker-justified float op below them stay quiet.
        ("crates/node/src/banscore/tracker.rs", 5, "score-arith"),
        ("crates/node/src/banscore/tracker.rs", 6, "score-arith"),
        // decode_extra is outside the peer-input file list but reachable
        // from per_frame: transitive panic-path with chain.
        ("crates/node/src/node/helpers.rs", 5, "panic-path"),
        ("crates/node/src/node/recv.rs", 4, "hot-path-alloc"),
        ("crates/node/src/node/recv.rs", 5, "hot-path-alloc"),
        ("crates/node/src/node/recv.rs", 6, "hot-path-alloc"),
        // Vec::with_capacity allocates as surely as Vec::new.
        ("crates/node/src/node/recv.rs", 7, "hot-path-alloc"),
        // stage_remainder allocates outside the recv-path file list but is
        // called per frame: transitive hot-path-alloc with chain. The
        // per-frame call to decode_verified (wire/src/message.rs) is not
        // reported: it is a declared boundary.
        ("crates/node/src/staging.rs", 5, "hot-path-alloc"),
        // inverted: par.deque acquired while a let-bound par.pending guard
        // is still live (direct inversion in one body).
        ("crates/par/src/lib.rs", 12, "lock-order"),
        // held_into_callee: same inversion, but the deque acquisition sits
        // in grab_deque and is found through the callee's lock summary.
        ("crates/par/src/lib.rs", 18, "lock-order"),
        ("crates/par/src/lib.rs", 28, "lock-order"),
        ("crates/wire/src/clean.rs", 12, "stale-allow"),
        ("crates/wire/src/encode.rs", 3, "unordered-map"),
        ("crates/wire/src/encode.rs", 6, "panic-path"),
        ("crates/wire/src/encode.rs", 7, "narrowing-cast"),
        ("crates/wire/src/encode.rs", 8, "unordered-map"),
        ("crates/wire/src/encode.rs", 9, "panic-path"),
        ("crates/wire/src/encode.rs", 18, "allow-marker"),
        ("crates/wire/src/encode.rs", 19, "panic-path"),
        // Satellite: the workspace-root src/ tree is scanned too.
        ("src/main.rs", 4, "wallclock"),
    ];
    let got: Vec<(&str, u32, &str)> = findings
        .iter()
        .map(|f| (f.file.as_str(), f.line, f.rule))
        .collect();
    assert_eq!(got, want, "full findings:\n{}", render(&findings));

    // Transitive findings carry the call chain from the contract root.
    assert_chain(
        &findings,
        "crates/node/src/node/helpers.rs",
        &["recv.rs:per_frame", "helpers.rs:decode_extra", "unwrap"],
    );
    assert_chain(
        &findings,
        "crates/node/src/staging.rs",
        &["recv.rs:per_frame", "staging.rs:stage_remainder", "to_vec"],
    );
    assert_chain(
        &findings,
        "crates/netsim/src/fault.rs",
        &[
            "region.rs:send_packet",
            "fault.rs:fault_delay",
            "host_rng.next_u64",
        ],
    );
    let wall = findings
        .iter()
        .find(|f| f.file == "crates/netsim/src/shard.rs" && f.line == 27)
        .expect("transitive wallclock finding");
    assert_eq!(
        wall.chain,
        ["shard.rs:measure_window", "latency.rs:probe", "wallclock"]
    );

    // The inversion found through the callee names the function it hides in.
    let via = findings
        .iter()
        .find(|f| f.file == "crates/par/src/lib.rs" && f.line == 18)
        .expect("interprocedural lock-order finding");
    assert!(
        via.message.contains("via `lib.rs:grab_deque`"),
        "message: {}",
        via.message
    );

    // Stale exemptions name what to remove.
    assert!(findings
        .iter()
        .any(|f| f.rule == "stale-allow" && f.message.contains("remove the marker")));
    assert!(findings
        .iter()
        .any(|f| f.rule == "stale-allow" && f.message.contains("remove the entry")));
}

fn assert_chain(findings: &[btc_lint::findings::Finding], file: &str, want: &[&str]) {
    let f = findings
        .iter()
        .find(|f| f.file == file && !f.chain.is_empty())
        .unwrap_or_else(|| panic!("no chained finding in {file}"));
    assert_eq!(f.chain, want, "chain for {file}");
}

fn render(findings: &[btc_lint::findings::Finding]) -> String {
    findings
        .iter()
        .map(ToString::to_string)
        .collect::<Vec<_>>()
        .join("\n")
}
