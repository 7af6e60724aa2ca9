//! Real-hardware measurement of per-message attacker cost vs. victim
//! impact — the reproduction of Table II.
//!
//! Both sides are measured with a monotonic wall clock over many
//! iterations and converted to "clocks" at the paper's 4 GHz testbed
//! frequency, so only the *ratios* carry meaning (as in the paper).
//!
//! Attacker side: the cost to produce the wire bytes of one query. For
//! bulk data messages (`BLOCK`, `CMPCTBLOCK`, `BLOCKTXN`) the attacker
//! replays a cached frame — that is how the paper's attacker achieves a
//! 23-clock `BLOCK` send cost against a 617 k-clock victim impact.
//!
//! Victim side: the cost to take the bytes through the full receive path —
//! frame parse, `sha256d` checksum, payload decode, and the type-specific
//! validation/handling work.

use btc_node::chain::{mine_child, Chain};
use btc_node::mempool::Mempool;
use btc_wire::block::HeadersEntry;
use btc_wire::compact::{BlockTxn, BlockTxnRequest, CompactBlock, SendCmpct};
use btc_wire::message::{
    decode_frame, read_frame, FrameResult, Message, RawMessage, VersionMessage,
};
use btc_wire::tx::{OutPoint, Transaction, TxIn, TxOut};
use btc_wire::types::{
    BlockLocator, Hash256, InvType, Inventory, NetAddr, Network, TimestampedAddr,
};
use btc_wire::bytes::Bytes;
use std::collections::HashSet;
use std::hint::black_box;
use std::time::Instant;

/// Cycles per nanosecond used to convert wall time to "clocks" (the
/// paper's 4 GHz testbed).
pub const CLOCKS_PER_NS: f64 = 4.0;

/// How the attacker produces each query.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AttackerMode {
    /// Construct + serialize + frame the message fresh each time.
    Build,
    /// Replay a cached pre-framed byte buffer.
    Replay,
}

/// One row of the reproduced Table II.
#[derive(Clone, Debug)]
pub struct CostRow {
    /// Message command.
    pub command: &'static str,
    /// Attacker cost in clocks per query.
    pub attacker_clocks: f64,
    /// Victim impact in clocks per query.
    pub victim_clocks: f64,
    /// Impact-cost ratio.
    pub ratio: f64,
    /// How the attacker produced the query.
    pub mode: AttackerMode,
}

const NET: Network = Network::Regtest;

fn sample_tx(tag: u8) -> Transaction {
    Transaction::new(
        2,
        vec![TxIn::new(OutPoint::new(Hash256::hash(&[tag, 1]), 0))],
        vec![TxOut::new(10_000, vec![0x51, 0x21, 0x03])],
        0,
    )
}

/// The fixtures shared by build and process closures: a mined 60-block
/// chain plus the measurement block in its full, compact and blocktxn
/// forms. Build once via [`fixtures`] and share across rows — mining it
/// is the expensive part of a Table-II run.
pub struct Fixtures {
    chain: Chain,
    block: btc_wire::Block,
    compact: CompactBlock,
    blocktxn: BlockTxn,
    locator: BlockLocator,
}

/// Mines the shared Table-II fixtures.
pub fn fixtures() -> Fixtures {
    let mut chain = Chain::new();
    // A 60-block chain so GETHEADERS has something to serve.
    for i in 0..60u64 {
        let tip = chain.tip();
        let hdr = *chain.header(&tip).unwrap();
        let b = mine_child(&hdr, tip, i, vec![]);
        chain.accept_block(&b);
    }
    // The measurement block: 100 transactions, like a busy (small) block.
    let tip = chain.tip();
    let hdr = *chain.header(&tip).unwrap();
    let txs: Vec<Transaction> = (0..100u8).map(sample_tx).collect();
    let block = mine_child(&hdr, tip, 999, txs);
    let compact = CompactBlock::from_block(&block, 0x1234);
    let blocktxn = BlockTxn {
        block_hash: block.hash(),
        txs: block.txs[1..21].to_vec(),
    };
    let locator = BlockLocator {
        version: btc_wire::types::PROTOCOL_VERSION,
        hashes: chain.locator(),
        stop: Hash256::ZERO,
    };
    Fixtures {
        chain,
        block,
        compact,
        blocktxn,
        locator,
    }
}

fn netaddr(i: u8) -> NetAddr {
    NetAddr::new([10, 0, 0, i], 8333)
}

/// Victim-side work for one raw frame: full receive path.
fn victim_process(fx: &Fixtures, bytes: &[u8]) {
    let Ok(FrameResult::Frame { raw, .. }) = read_frame(NET, bytes) else {
        return;
    };
    let Ok(msg) = decode_frame(&raw) else {
        return;
    };
    match &msg {
        Message::Version(v) => {
            black_box(v.version);
        }
        Message::Verack => {
            // Session finalization: build + frame the post-handshake
            // messages Core sends on verack (getheaders burst).
            let loc = BlockLocator {
                version: btc_wire::types::PROTOCOL_VERSION,
                hashes: fx.chain.locator(),
                stop: Hash256::ZERO,
            };
            black_box(RawMessage::frame(NET, &Message::GetHeaders(loc)).to_bytes());
        }
        Message::Addr(list) => {
            let mut set = HashSet::with_capacity(list.len());
            for a in list {
                set.insert((a.addr.ip, a.addr.port));
            }
            black_box(set.len());
        }
        Message::Inv(list) | Message::NotFound(list) => {
            let mut unknown = 0u32;
            for inv in list {
                if !fx.chain.has_block(&inv.hash) {
                    unknown += 1;
                }
            }
            black_box(unknown);
        }
        Message::GetData(list) => {
            let mut nf = Vec::new();
            for inv in list {
                if !fx.chain.has_block(&inv.hash) {
                    nf.push(*inv);
                }
            }
            black_box(nf.len());
        }
        Message::GetHeaders(loc) => {
            black_box(fx.chain.headers_after(&loc.hashes, 2000).len());
        }
        Message::GetBlocks(loc) => {
            black_box(fx.chain.headers_after(&loc.hashes, 500).len());
        }
        Message::Tx(tx) => {
            let mut pool = Mempool::new(10);
            black_box(pool.accept(tx));
        }
        Message::Headers(entries) => {
            // Core's order: the connectivity check (a hash-map lookup of
            // the first parent) runs before any PoW validation, so a batch
            // of unconnecting headers is dropped almost for free — which is
            // why the paper measures HEADERS at only ~16 clocks.
            let connected = entries
                .first()
                .map(|e| fx.chain.has_header(&e.0.prev_block))
                .unwrap_or(false);
            if connected {
                let mut ok = 0u32;
                let mut prev = entries.first().map(|e| e.0.prev_block).unwrap_or_default();
                for e in entries {
                    if e.0.prev_block == prev && e.0.check_pow() {
                        ok += 1;
                    }
                    prev = e.0.hash();
                }
                black_box(ok);
            }
            black_box(connected);
        }
        Message::Block(b) => {
            black_box(b.check().is_ok());
        }
        Message::Ping(n) => {
            black_box(RawMessage::frame(NET, &Message::Pong(*n)).to_bytes());
        }
        Message::Pong(n) => {
            black_box(n);
        }
        Message::SendHeaders | Message::FilterClear | Message::GetAddr | Message::Mempool => {}
        Message::FeeFilter(v) => {
            black_box(v);
        }
        Message::SendCmpct(sc) => {
            black_box(sc.version);
        }
        Message::CmpctBlock(cb) => {
            black_box(cb.check().is_ok());
            // Reconstruction attempt against an (empty) pool.
            black_box(cb.reconstruct(&|_| None).is_ok());
        }
        Message::GetBlockTxn(req) => {
            if let Ok(idx) = req.absolute_indices(fx.block.txs.len() as u64) {
                let txs: Vec<Transaction> =
                    idx.iter().map(|i| fx.block.txs[*i as usize].clone()).collect();
                black_box(txs.len());
            }
        }
        Message::BlockTxn(bt) => {
            let mut ok = 0u32;
            for tx in &bt.txs {
                if tx.check().is_ok() && tx.check_witness().is_ok() {
                    ok += 1;
                }
            }
            // Merkle recommitment over the reconstructed tx set.
            let ids: Vec<Hash256> = bt.txs.iter().map(|t| t.txid()).collect();
            black_box(btc_wire::block::merkle_root(&ids));
            black_box(ok);
        }
        Message::MerkleBlock(m) => {
            black_box(m.hashes.len());
        }
        Message::FilterLoad(f) => {
            black_box(f.is_within_size_constraints());
        }
        Message::FilterAdd(fa) => {
            black_box(fa.is_within_size_constraints());
        }
        Message::Reject(r) => {
            black_box(r.code);
        }
    }
}

type Builder = Box<dyn Fn() -> Message + Send + Sync>;

fn specs(fx: &Fixtures) -> Vec<(&'static str, AttackerMode, Builder)> {
    let block = fx.block.clone();
    let compact = fx.compact.clone();
    let blocktxn = fx.blocktxn.clone();
    let locator = fx.locator.clone();
    let locator2 = fx.locator.clone();
    let block_hash = fx.block.hash();
    vec![
        (
            "version",
            AttackerMode::Build,
            Box::new(|| Message::Version(VersionMessage::new(netaddr(1), netaddr(2), 42)))
                as Builder,
        ),
        ("verack", AttackerMode::Build, Box::new(|| Message::Verack)),
        (
            "addr",
            AttackerMode::Build,
            Box::new(|| {
                Message::Addr(
                    (0..1000u32)
                        .map(|i| TimestampedAddr {
                            time: i,
                            addr: NetAddr::new(i.to_le_bytes(), 8333),
                        })
                        .collect(),
                )
            }),
        ),
        (
            "inv",
            AttackerMode::Build,
            Box::new(|| {
                Message::Inv(
                    (0..50_000u32)
                        .map(|i| Inventory::new(InvType::Tx, Hash256::hash(&i.to_le_bytes())))
                        .collect(),
                )
            }),
        ),
        (
            "getdata",
            AttackerMode::Build,
            Box::new(|| {
                Message::GetData(
                    (0..50_000u32)
                        .map(|i| Inventory::new(InvType::Tx, Hash256::hash(&i.to_le_bytes())))
                        .collect(),
                )
            }),
        ),
        (
            "getheaders",
            AttackerMode::Build,
            Box::new(move || Message::GetHeaders(locator.clone())),
        ),
        (
            "tx",
            AttackerMode::Build,
            Box::new(|| Message::Tx(sample_tx(7))),
        ),
        (
            "headers",
            AttackerMode::Build,
            Box::new(|| {
                Message::Headers(
                    (0..2000u32)
                        .map(|i| {
                            HeadersEntry(btc_wire::BlockHeader {
                                nonce: i,
                                ..btc_wire::BlockHeader::default()
                            })
                        })
                        .collect(),
                )
            }),
        ),
        (
            "block",
            AttackerMode::Replay,
            Box::new(move || Message::Block(block.clone())),
        ),
        ("ping", AttackerMode::Build, Box::new(|| Message::Ping(7))),
        ("pong", AttackerMode::Build, Box::new(|| Message::Pong(7))),
        (
            "notfound",
            AttackerMode::Build,
            Box::new(|| {
                Message::NotFound(vec![Inventory::new(InvType::Tx, Hash256::hash(b"nf"))])
            }),
        ),
        (
            "sendheaders",
            AttackerMode::Build,
            Box::new(|| Message::SendHeaders),
        ),
        (
            "feefilter",
            AttackerMode::Build,
            Box::new(|| Message::FeeFilter(1000)),
        ),
        (
            "sendcmpct",
            AttackerMode::Build,
            Box::new(|| {
                Message::SendCmpct(SendCmpct {
                    announce: true,
                    version: 1,
                })
            }),
        ),
        (
            "cmpctblock",
            AttackerMode::Replay,
            Box::new(move || Message::CmpctBlock(compact.clone())),
        ),
        (
            "getblocktxn",
            AttackerMode::Build,
            Box::new(move || {
                Message::GetBlockTxn(BlockTxnRequest::from_absolute(
                    block_hash,
                    &(0..50u64).collect::<Vec<_>>(),
                ))
            }),
        ),
        (
            "blocktxn",
            AttackerMode::Replay,
            Box::new(move || Message::BlockTxn(blocktxn.clone())),
        ),
    ]
    .into_iter()
    .chain(std::iter::once((
        "getblocks",
        AttackerMode::Build,
        Box::new(move || Message::GetBlocks(locator2.clone())) as Builder,
    )))
    .collect()
}

/// Measures one Table-II row: attacker cost, then victim impact, over
/// `iters` iterations against the shared (read-only) fixtures.
fn measure_row(
    fx: &Fixtures,
    command: &'static str,
    mode: AttackerMode,
    build: &Builder,
    iters: u32,
) -> CostRow {
    // Attacker cost.
    let attacker_ns = match mode {
        AttackerMode::Build => {
            let start = Instant::now();
            for _ in 0..iters {
                let msg = build();
                black_box(RawMessage::frame(NET, &msg).to_bytes());
            }
            start.elapsed().as_nanos() as f64 / iters as f64
        }
        AttackerMode::Replay => {
            let cached = RawMessage::frame(NET, &build()).to_bytes();
            let start = Instant::now();
            for _ in 0..iters {
                // A replay is a buffer handoff to the socket layer.
                black_box(Bytes::clone(&cached));
            }
            start.elapsed().as_nanos() as f64 / iters as f64
        }
    };
    // Victim impact.
    let bytes = RawMessage::frame(NET, &build()).to_bytes();
    let start = Instant::now();
    for _ in 0..iters {
        victim_process(fx, black_box(&bytes));
    }
    let victim_ns = start.elapsed().as_nanos() as f64 / iters as f64;
    let attacker_clocks = attacker_ns * CLOCKS_PER_NS;
    let victim_clocks = victim_ns * CLOCKS_PER_NS;
    CostRow {
        command,
        attacker_clocks,
        victim_clocks,
        ratio: victim_clocks / attacker_clocks.max(f64::MIN_POSITIVE),
        mode,
    }
}

/// Measures Table II with `iters` iterations per row, rows fanned across
/// `jobs` workers. The [`fixtures`] chain is mined by the caller and
/// shared read-only by every row, so a combined Table-II + bogus-block run
/// mines it exactly once.
///
/// Note: rows time *wall-clock* work, so unlike the simulation sweeps the
/// measured numbers are not reproducible byte-for-byte — and with `jobs >
/// 1` concurrent rows contend for cores, so use parallelism here only for
/// smoke runs, never for calibrated measurements.
pub fn measure_table2(fx: &Fixtures, iters: u32, jobs: usize) -> Vec<CostRow> {
    btc_par::par_map(jobs, specs(fx), |(command, mode, build)| {
        measure_row(fx, command, mode, &build, iters)
    })
}

/// Additionally measures the *bogus* `BLOCK` (corrupted checksum) the
/// paper's footnote 1 reports: the victim pays only the checksum pass yet
/// the impact-cost ratio stays in the thousands.
pub fn measure_bogus_block(fx: &Fixtures, iters: u32, payload_bytes: usize) -> CostRow {
    let raw = RawMessage::frame_raw(NET, "block", Bytes::from(vec![0xAB; payload_bytes]))
        .corrupt_checksum();
    let cached = raw.to_bytes();
    let start = Instant::now();
    for _ in 0..iters {
        black_box(Bytes::clone(&cached));
    }
    let attacker_ns = start.elapsed().as_nanos() as f64 / iters as f64;
    let start = Instant::now();
    for _ in 0..iters {
        victim_process(fx, black_box(&cached));
    }
    let victim_ns = start.elapsed().as_nanos() as f64 / iters as f64;
    let attacker_clocks = attacker_ns * CLOCKS_PER_NS;
    let victim_clocks = victim_ns * CLOCKS_PER_NS;
    CostRow {
        command: "block(bogus)",
        attacker_clocks,
        victim_clocks,
        ratio: victim_clocks / attacker_clocks.max(f64::MIN_POSITIVE),
        mode: AttackerMode::Replay,
    }
}

/// Renders rows as a Table-II-style text table.
pub fn render_table2(rows: &[CostRow]) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    writeln!(
        out,
        "{:<14} {:>18} {:>18} {:>14}",
        "Message", "Attacker (clocks)", "Victim (clocks)", "Impact/Cost"
    )
    .unwrap();
    for r in rows {
        writeln!(
            out,
            "{:<14} {:>18.2} {:>18.2} {:>14.2}",
            r.command.to_uppercase(),
            r.attacker_clocks,
            r.victim_clocks,
            r.ratio
        )
        .unwrap();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[ignore = "timing"]
    fn table2_shape_holds() {
        // Wall-clock measurement at 3 iterations under parallel test
        // threads: one preemption can invert a ratio, so allow a few
        // re-measurements before declaring the shape broken.
        let mut last_err = String::new();
        for _ in 0..4 {
            match table2_shape(&measure_table2(&fixtures(), 3, 1)) {
                Ok(()) => return,
                Err(e) => last_err = e,
            }
        }
        panic!("table2 shape violated on every attempt: {last_err}");
    }

    fn table2_shape(rows: &[CostRow]) -> Result<(), String> {
        let get = |c: &str| rows.iter().find(|r| r.command == c).unwrap().clone();
        let block = get("block");
        let ping = get("ping");
        let inv = get("inv");
        let blocktxn = get("blocktxn");
        let cmpct = get("cmpctblock");
        // The headline result: BLOCK has by far the highest impact-cost
        // ratio; BLOCKTXN and CMPCTBLOCK follow.
        let checks = [
            (block.ratio > 10.0 * ping.ratio, "block <= 10x ping"),
            (block.ratio > blocktxn.ratio, "block <= blocktxn"),
            (blocktxn.ratio > 1.0, "blocktxn <= 1"),
            (cmpct.ratio > 1.0, "cmpctblock <= 1"),
            // Construction-heavy messages are bad deals for the attacker.
            (inv.ratio < 1.0, "inv >= 1"),
        ];
        for (ok, what) in checks {
            if !ok {
                return Err(format!(
                    "{what} (block={:.1} ping={:.1} inv={:.2} blocktxn={:.1} cmpct={:.1})",
                    block.ratio, ping.ratio, inv.ratio, blocktxn.ratio, cmpct.ratio
                ));
            }
        }
        Ok(())
    }

    #[test]
    fn bogus_block_still_profitable() {
        let row = measure_bogus_block(&fixtures(), 10, 200_000);
        // Victim pays the checksum pass over 500 kB; attacker pays a
        // buffer clone. Ratio stays very high (paper: 2132).
        assert!(row.ratio > 100.0, "ratio {}", row.ratio);
    }

    #[test]
    fn eighteen_plus_rows() {
        let rows = measure_table2(&fixtures(), 1, 1);
        assert!(rows.len() >= 18, "rows {}", rows.len());
        // Unique commands.
        let mut cmds: Vec<_> = rows.iter().map(|r| r.command).collect();
        cmds.sort_unstable();
        cmds.dedup();
        assert_eq!(cmds.len(), rows.len());
    }

    #[test]
    fn render_contains_headline_rows() {
        let rows = measure_table2(&fixtures(), 1, 1);
        let t = render_table2(&rows);
        assert!(t.contains("BLOCK"));
        assert!(t.contains("PING"));
        assert!(t.contains("Impact/Cost"));
    }
}
