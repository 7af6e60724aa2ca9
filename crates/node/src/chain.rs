//! Chain state: header tree, block store, invalid-block cache and the
//! acceptance verdicts the `BLOCK` ban-score rules key off.

use btc_wire::block::{Block, BlockHeader};
use btc_wire::constants::REGTEST_BITS;
use btc_wire::tx::Transaction;
use btc_wire::types::Hash256;
use std::collections::{BTreeMap, BTreeSet};

/// Why a block was (or wasn't) accepted — each variant maps onto a Table-I
/// `BLOCK` rule or a success path.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BlockVerdict {
    /// New valid block extending a known header; stored.
    Accepted {
        /// Height in the tree.
        height: u64,
        /// Whether it became the new tip.
        new_tip: bool,
    },
    /// Already have it.
    Duplicate,
    /// Intrinsically invalid (bad PoW, mutated merkle root, bad txs) — the
    /// "block data was mutated" rule, +100 any peer.
    Mutated(&'static str),
    /// Previously marked invalid — "cached as invalid", +100 outbound peer.
    CachedInvalid,
    /// Builds on a known-invalid block — "previous block is invalid", +100.
    PrevInvalid,
    /// Builds on an unknown block — "previous block is missing", +10.
    PrevMissing,
}

/// Why a header was (or wasn't) accepted.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum HeaderVerdict {
    /// Accepted (possibly already known).
    Accepted {
        /// Height in the tree.
        height: u64,
    },
    /// Bad proof of work.
    BadPow,
    /// Parent unknown.
    Unconnected,
    /// Parent known-invalid.
    PrevInvalid,
}

/// The node's view of the block chain.
#[derive(Clone, Debug)]
pub struct Chain {
    genesis: Hash256,
    headers: BTreeMap<Hash256, (BlockHeader, u64)>,
    blocks: BTreeMap<Hash256, Block>,
    children: BTreeMap<Hash256, Vec<Hash256>>,
    invalid: BTreeSet<Hash256>,
    tip: Hash256,
    tip_height: u64,
}

impl Chain {
    /// Creates a chain rooted at the deterministic regtest genesis block.
    pub fn new() -> Self {
        let genesis = genesis_block();
        let gh = genesis.hash();
        let mut headers = BTreeMap::new();
        headers.insert(gh, (genesis.header, 0));
        let mut blocks = BTreeMap::new();
        blocks.insert(gh, genesis);
        Chain {
            genesis: gh,
            headers,
            blocks,
            children: BTreeMap::new(),
            invalid: BTreeSet::new(),
            tip: gh,
            tip_height: 0,
        }
    }

    /// The genesis hash.
    pub fn genesis_hash(&self) -> Hash256 {
        self.genesis
    }

    /// Current tip hash.
    pub fn tip(&self) -> Hash256 {
        self.tip
    }

    /// Current tip height.
    pub fn height(&self) -> u64 {
        self.tip_height
    }

    /// Whether the header for `hash` is known.
    pub fn has_header(&self, hash: &Hash256) -> bool {
        self.headers.contains_key(hash)
    }

    /// Whether the full block for `hash` is stored.
    pub fn has_block(&self, hash: &Hash256) -> bool {
        self.blocks.contains_key(hash)
    }

    /// Fetches a stored block.
    pub fn block(&self, hash: &Hash256) -> Option<&Block> {
        self.blocks.get(hash)
    }

    /// Processes a standalone header (from a `HEADERS` message).
    pub fn accept_header(&mut self, header: &BlockHeader) -> HeaderVerdict {
        let hash = header.hash();
        if let Some((_, h)) = self.headers.get(&hash) {
            return HeaderVerdict::Accepted { height: *h };
        }
        if !header.check_pow() {
            return HeaderVerdict::BadPow;
        }
        if self.invalid.contains(&header.prev_block) {
            return HeaderVerdict::PrevInvalid;
        }
        let Some((_, parent_height)) = self.headers.get(&header.prev_block) else {
            return HeaderVerdict::Unconnected;
        };
        let height = parent_height + 1;
        self.headers.insert(hash, (*header, height));
        self.children
            .entry(header.prev_block)
            .or_default()
            .push(hash);
        HeaderVerdict::Accepted { height }
    }

    /// Processes a full block (from a `BLOCK` message), storing a copy
    /// when it is accepted.
    pub fn accept_block(&mut self, block: &Block) -> BlockVerdict {
        let hash = block.hash();
        let verdict = self.validate_block(hash, block);
        if let BlockVerdict::Accepted { .. } = verdict {
            self.blocks.insert(hash, block.clone());
        }
        verdict
    }

    /// [`Chain::accept_block`] for a block the caller hands over: an
    /// accepted block moves into the store, and nothing is copied. Read
    /// it back with [`Chain::block`].
    pub fn accept_block_owned(&mut self, block: Block) -> BlockVerdict {
        let hash = block.hash();
        let verdict = self.validate_block(hash, &block);
        if let BlockVerdict::Accepted { .. } = verdict {
            self.blocks.insert(hash, block);
        }
        verdict
    }

    /// The checks and header-tree bookkeeping both entry points share.
    /// On [`BlockVerdict::Accepted`] the header is linked and the tip
    /// moved; the caller stores the block.
    fn validate_block(&mut self, hash: Hash256, block: &Block) -> BlockVerdict {
        if self.invalid.contains(&hash) {
            return BlockVerdict::CachedInvalid;
        }
        if self.blocks.contains_key(&hash) {
            return BlockVerdict::Duplicate;
        }
        if let Err(reason) = block.check() {
            self.invalid.insert(hash);
            return BlockVerdict::Mutated(reason);
        }
        if self.invalid.contains(&block.header.prev_block) {
            self.invalid.insert(hash);
            return BlockVerdict::PrevInvalid;
        }
        let Some((_, parent_height)) = self.headers.get(&block.header.prev_block) else {
            return BlockVerdict::PrevMissing;
        };
        let height = parent_height + 1;
        self.headers.insert(hash, (block.header, height));
        self.children
            .entry(block.header.prev_block)
            .or_default()
            .push(hash);
        let new_tip = height > self.tip_height;
        if new_tip {
            self.tip = hash;
            self.tip_height = height;
        }
        BlockVerdict::Accepted { height, new_tip }
    }

    /// Marks a block invalid by fiat (test/experiment hook — e.g. to seed
    /// the "cached as invalid" condition).
    pub fn mark_invalid(&mut self, hash: Hash256) {
        self.invalid.insert(hash);
    }

    /// Returns up to `max` headers following the first locator hash we know,
    /// walking the best chain (the `GETHEADERS` service).
    pub fn headers_after(&self, locator: &[Hash256], max: usize) -> Vec<BlockHeader> {
        // Find the fork point: first locator entry we know; the default
        // fork point is genesis, so serving starts at height 1.
        let mut start_height = 1;
        for h in locator {
            if let Some((_, height)) = self.headers.get(h) {
                start_height = height + 1;
                break;
            }
        }
        let best: Vec<Hash256> = self.best_chain();
        best.iter()
            .skip(start_height as usize)
            .take(max)
            .filter_map(|h| self.headers.get(h).map(|(hdr, _)| *hdr))
            .collect()
    }

    /// Hashes of the best chain from genesis to tip.
    pub fn best_chain(&self) -> Vec<Hash256> {
        let mut chain = Vec::with_capacity(self.tip_height as usize + 1);
        let mut cur = self.tip;
        loop {
            chain.push(cur);
            if cur == self.genesis {
                break;
            }
            let Some((hdr, _)) = self.headers.get(&cur) else {
                break;
            };
            cur = hdr.prev_block;
        }
        chain.reverse();
        chain
    }

    /// A block locator for the current tip (exponentially thinning).
    pub fn locator(&self) -> Vec<Hash256> {
        let chain = self.best_chain();
        let mut out = Vec::new();
        let mut step = 1usize;
        let mut idx = chain.len().checked_sub(1);
        while let Some(i) = idx {
            out.extend(chain.get(i).copied());
            if out.len() >= 10 {
                step *= 2;
            }
            idx = i.checked_sub(step);
        }
        if out.last() != Some(&self.genesis) {
            out.push(self.genesis);
        }
        out
    }
}

impl Default for Chain {
    fn default() -> Self {
        Chain::new()
    }
}

/// The deterministic regtest genesis block of the simulated network.
pub fn genesis_block() -> Block {
    let coinbase = Transaction::coinbase(50 * 100_000_000, b"banscore-regtest-genesis");
    let mut block = Block {
        header: BlockHeader {
            version: 1,
            prev_block: Hash256::ZERO,
            merkle_root: Hash256::ZERO,
            time: 1_296_688_602,
            bits: REGTEST_BITS,
            nonce: 0,
        },
        txs: vec![coinbase],
    };
    block.header.merkle_root = block.merkle_root();
    block.header.mine();
    block
}

/// Mines a valid block on top of `prev` with `extra_txs` transactions
/// (plus a coinbase tagged by `tag`).
pub fn mine_child(prev: &BlockHeader, prev_hash: Hash256, tag: u64, extra_txs: Vec<Transaction>) -> Block {
    let mut txs = vec![Transaction::coinbase(
        50 * 100_000_000,
        &tag.to_le_bytes(),
    )];
    txs.extend(extra_txs);
    let mut block = Block {
        header: BlockHeader {
            version: 1,
            prev_block: prev_hash,
            merkle_root: Hash256::ZERO,
            time: prev.time + 600,
            bits: REGTEST_BITS,
            nonce: 0,
        },
        txs,
    };
    block.header.merkle_root = block.merkle_root();
    block.header.mine();
    block
}

#[cfg(test)]
mod tests {
    use super::*;

    fn extend(chain: &mut Chain, n: u64) -> Vec<Block> {
        let mut out = Vec::new();
        for i in 0..n {
            let tip = chain.tip();
            let (hdr, _) = chain.headers[&tip];
            let b = mine_child(&hdr, tip, 1000 + i, vec![]);
            assert!(matches!(
                chain.accept_block(&b),
                BlockVerdict::Accepted { .. }
            ));
            out.push(b);
        }
        out
    }

    #[test]
    fn genesis_is_deterministic_and_valid() {
        let a = genesis_block();
        let b = genesis_block();
        assert_eq!(a.hash(), b.hash());
        assert_eq!(a.check(), Ok(()));
    }

    #[test]
    fn accepts_a_growing_chain() {
        let mut c = Chain::new();
        extend(&mut c, 5);
        assert_eq!(c.height(), 5);
        assert_eq!(c.best_chain().len(), 6);
    }

    #[test]
    fn owned_and_borrowed_accept_agree() {
        let mut by_ref = Chain::new();
        let mut by_value = Chain::new();
        let tip = by_ref.tip();
        let (hdr, _) = by_ref.headers[&tip];
        let good = mine_child(&hdr, tip, 1, vec![]);
        let mut mutated = mine_child(&good.header, good.hash(), 2, vec![]);
        mutated.txs[0] = Transaction::coinbase(1, b"swapped!");
        let orphan = mine_child(&hdr, Hash256::hash(b"?"), 3, vec![]);
        for b in [good.clone(), good.clone(), mutated.clone(), mutated, orphan] {
            assert_eq!(
                by_ref.accept_block(&b),
                by_value.accept_block_owned(b.clone())
            );
        }
        assert_eq!(by_value.block(&good.hash()), Some(&good));
        assert_eq!(by_ref.best_chain(), by_value.best_chain());
    }

    #[test]
    fn duplicate_block_detected() {
        let mut c = Chain::new();
        let blocks = extend(&mut c, 1);
        assert_eq!(c.accept_block(&blocks[0]), BlockVerdict::Duplicate);
    }

    #[test]
    fn mutated_block_rejected_and_cached() {
        let mut c = Chain::new();
        let tip = c.tip();
        let (hdr, _) = c.headers[&tip];
        let mut b = mine_child(&hdr, tip, 7, vec![]);
        // Mutate after mining: merkle no longer matches.
        b.txs[0] = Transaction::coinbase(1, b"swapped!");
        let first = c.accept_block(&b);
        assert!(matches!(first, BlockVerdict::Mutated(_)));
        // Second submission hits the invalid cache.
        assert_eq!(c.accept_block(&b), BlockVerdict::CachedInvalid);
    }

    #[test]
    fn orphan_block_reports_prev_missing() {
        let mut c = Chain::new();
        let fake_parent = Hash256::hash(b"nonexistent");
        let hdr = BlockHeader {
            prev_block: fake_parent,
            ..genesis_block().header
        };
        let b = mine_child(&hdr, fake_parent, 9, vec![]);
        assert_eq!(c.accept_block(&b), BlockVerdict::PrevMissing);
        assert_eq!(c.height(), 0);
    }

    #[test]
    fn child_of_invalid_is_prev_invalid() {
        let mut c = Chain::new();
        let tip = c.tip();
        let (hdr, _) = c.headers[&tip];
        let bad = mine_child(&hdr, tip, 11, vec![]);
        c.mark_invalid(bad.hash());
        let child = mine_child(&bad.header, bad.hash(), 12, vec![]);
        assert_eq!(c.accept_block(&child), BlockVerdict::PrevInvalid);
        // And the child itself is now cached invalid.
        assert_eq!(c.accept_block(&child), BlockVerdict::CachedInvalid);
    }

    #[test]
    fn fork_only_replaces_tip_when_longer() {
        let mut c = Chain::new();
        let blocks = extend(&mut c, 3);
        let tip_before = c.tip();
        // Fork off block 1 (height 2 < 3): accepted but not the tip.
        let fork = mine_child(&blocks[0].header, blocks[0].hash(), 99, vec![]);
        assert_eq!(
            c.accept_block(&fork),
            BlockVerdict::Accepted {
                height: 2,
                new_tip: false
            }
        );
        assert_eq!(c.tip(), tip_before);
        // Extend the fork past the main chain.
        let f2 = mine_child(&fork.header, fork.hash(), 100, vec![]);
        let f3 = mine_child(&f2.header, f2.hash(), 101, vec![]);
        c.accept_block(&f2);
        assert_eq!(
            c.accept_block(&f3),
            BlockVerdict::Accepted {
                height: 4,
                new_tip: true
            }
        );
        assert_eq!(c.tip(), f3.hash());
    }

    #[test]
    fn header_acceptance_paths() {
        let mut c = Chain::new();
        let tip = c.tip();
        let (hdr, _) = c.headers[&tip];
        let b1 = mine_child(&hdr, tip, 1, vec![]);
        assert_eq!(
            c.accept_header(&b1.header),
            HeaderVerdict::Accepted { height: 1 }
        );
        // Unknown parent.
        let orphan = mine_child(&hdr, Hash256::hash(b"???"), 2, vec![]);
        assert_eq!(c.accept_header(&orphan.header), HeaderVerdict::Unconnected);
        // Bad PoW.
        let mut bad = b1.header;
        bad.bits = 0x1d00_ffff;
        assert_eq!(c.accept_header(&bad), HeaderVerdict::BadPow);
        // Parent invalid.
        c.mark_invalid(b1.header.hash());
        let child = mine_child(&b1.header, b1.header.hash(), 3, vec![]);
        assert_eq!(c.accept_header(&child.header), HeaderVerdict::PrevInvalid);
    }

    #[test]
    fn headers_after_serves_from_fork_point() {
        let mut c = Chain::new();
        let blocks = extend(&mut c, 10);
        // Locator containing block 4: serve 5..=9.
        let got = c.headers_after(&[blocks[4].hash()], 2000);
        assert_eq!(got.len(), 5);
        assert_eq!(got[0].hash(), blocks[5].hash());
        // Unknown locator: serve everything after genesis.
        let got = c.headers_after(&[Hash256::hash(b"unknown")], 2000);
        assert_eq!(got.len(), 10);
        // Max respected.
        let got = c.headers_after(&[], 3);
        assert_eq!(got.len(), 3);
    }

    #[test]
    fn locator_thins_exponentially_and_ends_at_genesis() {
        let mut c = Chain::new();
        extend(&mut c, 40);
        let loc = c.locator();
        assert_eq!(loc[0], c.tip());
        assert_eq!(*loc.last().unwrap(), c.genesis_hash());
        assert!(loc.len() < 25, "locator too dense: {}", loc.len());
    }
}
