#!/usr/bin/env bash
# Hermetic CI gate: the workspace must build and test OFFLINE, with no
# crates.io dependencies. A dependency creeping back into any Cargo.toml
# fails here immediately (`--offline` + empty registry).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo tree: dependency graph must contain only workspace members"
externals=$(cargo tree --offline --workspace --edges normal,build,dev \
  | grep -oE '[a-zA-Z0-9_-]+ v[0-9][^ ]*' \
  | awk '{print $1}' | sort -u \
  | grep -vE '^(banscore|banscore-suite|btc-attack|btc-bench|btc-detect|btc-lint|btc-netsim|btc-node|btc-par|btc-wire)$' \
  || true)
if [ -n "$externals" ]; then
  echo "ERROR: external crates in the dependency graph:" >&2
  echo "$externals" >&2
  exit 1
fi

echo "==> one bench system: benchmark/ is the only harness"
if grep -l '^\[\[bench\]\]' crates/*/Cargo.toml || ls results/BENCH_* 2>/dev/null; then
  echo "ERROR: a [[bench]] target or results/BENCH_* file is back (listed above)" >&2; exit 1
fi

echo "==> release build (offline, warnings are errors)"
RUSTFLAGS="-D warnings" cargo build --release --offline --workspace

echo "==> btc-lint: determinism / panic-safety gate"
# Same RUSTFLAGS as the build step so the release cache is reused. The gate
# consumes the machine-readable --json output: the findings array must be
# empty, and the call-graph stats must show the analyzer actually resolved a
# workspace-sized graph (a lexer/parser regression that silently dropped all
# functions would otherwise pass as "clean").
lint_json="target/lint.json"
RUSTFLAGS="-D warnings" cargo run --release --offline -q -p btc-lint -- --json \
  > "$lint_json" || true
if ! grep -q '"findings":\[\]' "$lint_json"; then
  echo "ERROR: btc-lint reported findings:" >&2
  RUSTFLAGS="-D warnings" cargo run --release --offline -q -p btc-lint >&2 || true
  exit 1
fi
fn_count=$(sed -n 's/.*"functions":\([0-9]*\).*/\1/p' "$lint_json")
edge_count=$(sed -n 's/.*"edges":\([0-9]*\).*/\1/p' "$lint_json")
if [ -z "$fn_count" ] || [ "$fn_count" -lt 100 ] || [ "$edge_count" -lt 100 ]; then
  echo "ERROR: btc-lint call graph implausibly small (functions=$fn_count edges=$edge_count)" >&2
  exit 1
fi
echo "    lint clean: call graph $fn_count functions / $edge_count edges OK"

echo "==> tests (offline)"
# The harness runs quiet (`-- -q`) while cargo still names each binary it
# starts, so the log pairs every `Running`/`Doc-tests` line with the
# `finished in` of its result line. The table below only reports.
test_log="target/test.log"
cargo test --offline --workspace -- -q 2>&1 | tee "$test_log"
echo "    test binaries by wall time, slowest first:"
awk '/^ *Running /   { bin = $NF; sub(/\)$/, "", bin); sub(/.*\//, "", bin); sub(/-[0-9a-f]+$/, "", bin)
                       src = $0; sub(/^ *Running /, "", src); sub(/ \(.*/, "", src); name = bin " (" src ")" }
     /^ *Doc-tests / { name = $2 " (doc-tests)" }
     /^test result:/ { t = $NF; sub(/s$/, "", t); printf "    %9.2fs  %s\n", t, name }' "$test_log" \
  | sort -rn
awk '/^test result:/ { t = $NF; sub(/s$/, "", t); sum += t }
     END { printf "    %9.2fs  summed over all test binaries (ROADMAP item 21 target: 40 s warm; report only)\n", sum }' \
  "$test_log"

echo "==> timing tests (offline): wall-clock-ratio assertions, kept out of tier-1"
cargo test -q --offline --workspace -- --ignored

echo "==> bench spine: every workload's digest must match benchmark/golden/*.txt"
# Full size at seed 1 is what the goldens were recorded at; the binary
# exits non-zero on any digest or invariant mismatch. The contract tests
# check BENCHMARK.json against what that binary prints.
cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
  run --all --seconds 1
cargo test -q --offline --manifest-path benchmark/Cargo.toml

echo "==> heap RSS under a fixed mmap threshold (report only, gates nothing)"
# glibc's dynamic mmap threshold lets peak_rss_mb of the node workloads
# follow allocation layout (struct sizes, even the checkout's path), not
# only the memory a run keeps. With the threshold pinned the reading moves
# with the heap alone; compare it before and after a change.
for w in relay_mix sybil_churn; do
  rss=$(MALLOC_MMAP_THRESHOLD_=131072 cargo run --release --offline --quiet \
          --manifest-path benchmark/Cargo.toml -- run --workload "$w" --seconds 1 2>/dev/null \
        | grep -o '"peak_rss_mb": {"value": [0-9.]*' | grep -o '[0-9.]*$' || true)
  echo "    $w peak_rss_mb with MALLOC_MMAP_THRESHOLD_=131072: ${rss:-?} MB"
done

echo "==> jobs matrix: repro output must be byte-identical at --jobs 1 vs --jobs 4"
# Only the simulation-derived experiments are gated: table2/fig11 time
# wall-clock costs and differ between ANY two runs, serial or not. The
# job count 4 is fixed (not nproc) so the pool's stealing path is
# exercised even on a single-core runner. `faults` doubles as the
# fault-matrix smoke: the quick grid re-runs every attack under packet
# loss, jitter and churn with fixed seeds, so any nondeterminism in the
# fault layer, the retransmission path or the reconnect backoff shows up
# as a diff here. (The single-point bit-equality contract is also a
# test: crates/core/tests/parallel_equivalence.rs.) `reputation` runs the
# stock vs trust-tier sweep, so the tier engine's decay/graylist float
# arithmetic is held to the same bit-identity bar.
out1=$(mktemp) out4=$(mktemp)
trap 'rm -f "$out1" "$out4"' EXIT
deterministic="table1 fig6 table3 fig8 fig10 evasion faults reputation counter"
cargo run --release --offline -p btc-bench --bin repro -- \
  --quick --jobs 1 $deterministic > "$out1"
cargo run --release --offline -p btc-bench --bin repro -- \
  --quick --jobs 4 $deterministic > "$out4"
if ! diff -u "$out1" "$out4"; then
  echo "ERROR: repro output differs between --jobs 1 and --jobs 4" >&2
  exit 1
fi
echo "    $(wc -l < "$out1") output lines identical across job counts OK (sha256 $(sha256sum < "$out1" | cut -d' ' -f1))"

echo "==> ablate: every ablation must print byte-identical output at --jobs 1 vs --jobs 4"
cargo run --release --offline -p btc-bench --bin ablate -- --jobs 1 > "$out1"
cargo run --release --offline -p btc-bench --bin ablate -- --jobs 4 > "$out4"
if ! diff -u "$out1" "$out4"; then
  echo "ERROR: ablate output differs between --jobs 1 and --jobs 4" >&2
  exit 1
fi
echo "    $(wc -l < "$out1") ablate lines identical across job counts OK (sha256 $(sha256sum < "$out1" | cut -d' ' -f1))"

echo "==> serve smoke: sharded service must be byte-identical at 1, 2 and 4 shards"
# repro checks the contract itself and exits 1 when it breaks: every case
# must print the same `digest shards=N` at 1, 2 and 4 shards (two is the
# count the bench spine times, and every count cuts the trace into
# different chunks), every streaming verdict cell must equal the batch
# engine's, and the node-aggregate verdicts must agree. [wall] lines are
# wall-clock and are left out of the printed sha256.
serve_out=$(mktemp)
trap 'rm -f "$out1" "$out4" "$serve_out"' EXIT
cargo run --release --offline -p btc-bench --bin repro -- \
  --quick --jobs 2 serve > "$serve_out" \
  || { cat "$serve_out" >&2; echo "ERROR: serve contract broken (see above)" >&2; exit 1; }
serve_sha=$(grep -v '\[wall\]' "$serve_out" | sha256sum | cut -d' ' -f1)
echo "    serve digests and verdicts agree OK (sha256 without [wall] lines $serve_sha)"

echo "==> swarm smoke: many-region netsim must be byte-identical at 1 vs 4 workers"
# repro exits 1 when any cell's outcome (digest and every counter) differs
# between worker counts: the k-region lookahead rounds stopped being
# independent of how many threads step them, breaking the bit-identity
# contract of crates/netsim/src/shard.rs. The quick grid times 1 and 4
# workers on a small topology, so this doubles as the region-matrix
# smoke. [wall] lines are wall-clock and are left out of the printed
# sha256. On a 2-core runner the workers=4 cell is also the
# oversubscription smoke: four threads share two cores, so the phase
# rendezvous (spin briefly, then park) must hand cores over rather than
# spin on them; a hang or a cell far slower than workers=1 shows here.
swarm_out=$(mktemp)
trap 'rm -f "$out1" "$out4" "$serve_out" "$swarm_out"' EXIT
cargo run --release --offline -p btc-bench --bin repro -- \
  --quick swarm > "$swarm_out" \
  || { cat "$swarm_out" >&2; echo "ERROR: swarm outcomes diverged (see above)" >&2; exit 1; }
swarm_sha=$(grep -v '\[wall\]' "$swarm_out" | sha256sum | cut -d' ' -f1)
echo "    swarm outcomes identical across worker counts OK (sha256 without [wall] lines $swarm_sha)"

echo "CI OK: hermetic build, tests green, spine digests match their goldens,"
echo "       parallel sweeps reproduce the serial output byte for byte,"
echo "       sharded streaming service reproduces the serial digests,"
echo "       many-region netsim gives the same digests at every worker count."
