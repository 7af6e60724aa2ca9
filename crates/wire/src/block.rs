//! Block headers, full blocks, merkle trees and proof-of-work validation.
//!
//! The `BLOCK` ban-score rules ("block data was mutated", "previous block is
//! invalid/missing") hang off exactly the checks implemented here.

use crate::crypto::sha256::{sha256d_pair, Midstate};
use crate::encode::{
    decode_vec, encode_vec, Decodable, DecodeResult, Encodable, Reader, Writer,
};
use crate::tx::Transaction;
use crate::types::Hash256;

/// Maximum transactions we will decode in a block (sanity bound).
const MAX_BLOCK_TXS: u64 = 1_000_000;

/// An 80-byte block header.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct BlockHeader {
    /// Version / BIP9 signal bits.
    pub version: i32,
    /// Hash of the previous block header.
    pub prev_block: Hash256,
    /// Merkle root over the block's txids.
    pub merkle_root: Hash256,
    /// Unix timestamp.
    pub time: u32,
    /// Compact difficulty target.
    pub bits: u32,
    /// PoW nonce.
    pub nonce: u32,
}

impl BlockHeader {
    /// The header's consensus serialization, on the stack. Must stay
    /// byte-identical to [`Encodable::encode`].
    pub fn to_bytes(&self) -> [u8; 80] {
        let mut b = [0u8; 80];
        let (ver, rest) = b.split_at_mut(4);
        let (prev, rest) = rest.split_at_mut(32);
        let (root, rest) = rest.split_at_mut(32);
        let (time, rest) = rest.split_at_mut(4);
        let (bits, nonce) = rest.split_at_mut(4);
        ver.copy_from_slice(&self.version.to_le_bytes());
        prev.copy_from_slice(self.prev_block.as_bytes());
        root.copy_from_slice(self.merkle_root.as_bytes());
        time.copy_from_slice(&self.time.to_le_bytes());
        bits.copy_from_slice(&self.bits.to_le_bytes());
        nonce.copy_from_slice(&self.nonce.to_le_bytes());
        b
    }

    /// The header's hash (double-SHA256 of its 80-byte serialization).
    pub fn hash(&self) -> Hash256 {
        Hash256::hash(&self.to_bytes())
    }

    /// Whether the header hash satisfies its own difficulty target.
    pub fn check_pow(&self) -> bool {
        self.hash().meets_target(self.bits)
    }

    /// Grinds `nonce` until the PoW check passes. Only usable with easy
    /// (regtest-style) targets.
    ///
    /// The nonce occupies the last 4 of the header's 80 bytes, so the first
    /// 64-byte block is nonce-independent: its [`Midstate`] is captured once
    /// and each attempt costs one tail compression plus the second-pass
    /// compression, instead of re-hashing the whole header.
    ///
    /// # Panics
    ///
    /// Panics if no nonce in `u32` satisfies the target.
    pub fn mine(&mut self) {
        let bytes = self.to_bytes();
        let (head, tail_src) = bytes.split_at(64);
        let mid = Midstate::of(head);
        let mut tail: [u8; 16] = tail_src.first_chunk().copied().unwrap_or_default();
        for nonce in 0..=u32::MAX {
            if let Some(t) = tail.get_mut(12..16) {
                t.copy_from_slice(&nonce.to_le_bytes());
            }
            if Hash256(mid.sha256d_tail(&tail)).meets_target(self.bits) {
                self.nonce = nonce;
                return;
            }
        }
        // lint:allow(panic-path): miner-side tool; unreachable for the regtest targets we mine
        panic!("exhausted nonce space for target {:#x}", self.bits);
    }
}

impl Default for BlockHeader {
    fn default() -> Self {
        BlockHeader {
            version: 1,
            prev_block: Hash256::ZERO,
            merkle_root: Hash256::ZERO,
            time: 0,
            bits: crate::constants::REGTEST_BITS,
            nonce: 0,
        }
    }
}

impl Encodable for BlockHeader {
    fn encode(&self, w: &mut Writer) {
        w.i32_le(self.version);
        self.prev_block.encode(w);
        self.merkle_root.encode(w);
        w.u32_le(self.time);
        w.u32_le(self.bits);
        w.u32_le(self.nonce);
    }
}

impl Decodable for BlockHeader {
    fn decode(r: &mut Reader<'_>) -> DecodeResult<Self> {
        Ok(BlockHeader {
            version: r.i32_le()?,
            prev_block: Hash256::decode(r)?,
            merkle_root: Hash256::decode(r)?,
            time: r.u32_le()?,
            bits: r.u32_le()?,
            nonce: r.u32_le()?,
        })
    }
}

/// A header as carried inside a `HEADERS` payload: header + a (always zero)
/// transaction count varint.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct HeadersEntry(pub BlockHeader);

impl Encodable for HeadersEntry {
    fn encode(&self, w: &mut Writer) {
        self.0.encode(w);
        w.compact_size(0);
    }
}

impl Decodable for HeadersEntry {
    fn decode(r: &mut Reader<'_>) -> DecodeResult<Self> {
        let h = BlockHeader::decode(r)?;
        let _txn_count = r.compact_size()?;
        Ok(HeadersEntry(h))
    }
}

/// A full block.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Block {
    /// The header.
    pub header: BlockHeader,
    /// Transactions, coinbase first.
    pub txs: Vec<Transaction>,
}

impl Block {
    /// Computes the merkle root over this block's txids.
    pub fn merkle_root(&self) -> Hash256 {
        merkle_root(&self.txs.iter().map(|t| t.txid()).collect::<Vec<_>>())
    }

    /// Block hash (the header hash).
    pub fn hash(&self) -> Hash256 {
        self.header.hash()
    }

    /// Full validation as run on a received `BLOCK` message: PoW, merkle
    /// commitment, and per-transaction structural checks.
    ///
    /// # Errors
    ///
    /// The first violated rule, using Bitcoin Core's reject-reason strings.
    /// `"bad-txnmrklroot"` is the "block data was mutated" condition of
    /// Table I.
    pub fn check(&self) -> Result<(), &'static str> {
        if !self.header.check_pow() {
            return Err("high-hash");
        }
        if self.txs.is_empty() {
            return Err("bad-blk-length");
        }
        let mut leaves: Vec<Hash256> = self.txs.iter().map(Transaction::txid).collect();
        if merkle_root(&leaves) != self.header.merkle_root {
            return Err("bad-txnmrklroot");
        }
        if !self.txs.first().is_some_and(Transaction::is_coinbase) {
            return Err("bad-cb-missing");
        }
        if self.txs.iter().skip(1).any(Transaction::is_coinbase) {
            return Err("bad-cb-multiple");
        }
        // Duplicate txids would produce a malleated merkle tree
        // (CVE-2012-2459). Sorting the leaves finds one without a set per
        // block; only a block that has one pays the in-order set, so the
        // first reject reason is the one a transaction-by-transaction scan
        // reports.
        let n = leaves.len();
        leaves.sort_unstable();
        leaves.dedup();
        let mut seen = (leaves.len() != n).then(std::collections::BTreeSet::new);
        for tx in &self.txs {
            if seen.as_mut().is_some_and(|seen| !seen.insert(tx.txid())) {
                return Err("bad-txns-duplicate");
            }
            tx.check()?;
            tx.check_witness()?;
        }
        Ok(())
    }
}

impl Encodable for Block {
    fn encode(&self, w: &mut Writer) {
        self.header.encode(w);
        encode_vec(w, &self.txs);
    }
}

impl Decodable for Block {
    fn decode(r: &mut Reader<'_>) -> DecodeResult<Self> {
        Ok(Block {
            header: BlockHeader::decode(r)?,
            txs: decode_vec(r, "block txs", MAX_BLOCK_TXS)?,
        })
    }
}

/// Folds `level[..n]` down to its parent level in place and returns the
/// parent's length. Odd levels pair the last node with itself (consensus
/// duplication) via an index clamp — no copy is pushed.
fn fold_level(level: &mut [Hash256], n: usize) -> usize {
    debug_assert!(n > 1);
    let parents = n.div_ceil(2);
    for p in 0..parents {
        let left = 2 * p;
        let right = (left + 1).min(n - 1);
        // lint:allow(panic-path): p < parents <= n <= level.len(); left/right clamped below n
        level[p] = Hash256(sha256d_pair(&level[left].0, &level[right].0));
    }
    parents
}

/// Computes a Bitcoin merkle root over `leaves` (txids, internal byte order).
///
/// Returns [`Hash256::ZERO`] for an empty leaf set. Odd levels duplicate the
/// last node, as consensus does. One scratch buffer is allocated up front
/// and every level is folded into it in place; each pairing step is the
/// three-compression [`sha256d_pair`] fast path.
pub fn merkle_root(leaves: &[Hash256]) -> Hash256 {
    if leaves.is_empty() {
        return Hash256::ZERO;
    }
    let mut scratch: Vec<Hash256> = leaves.to_vec();
    let mut n = scratch.len();
    while n > 1 {
        n = fold_level(&mut scratch, n);
    }
    scratch.first().copied().unwrap_or(Hash256::ZERO)
}

/// A merkle inclusion branch for one leaf, as served in `MERKLEBLOCK`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct MerkleBranch {
    /// Sibling hashes from leaf to root.
    pub siblings: Vec<Hash256>,
    /// Leaf index (determines left/right at each level).
    pub index: u32,
}

impl MerkleBranch {
    /// Builds the branch proving `index` within `leaves`. An out-of-range
    /// `index` is clamped to the last leaf — the proof then simply fails to
    /// verify against the requested leaf, instead of aborting the server.
    pub fn build(leaves: &[Hash256], index: usize) -> Self {
        let mut siblings = Vec::new();
        let mut scratch: Vec<Hash256> = leaves.to_vec();
        let mut n = scratch.len();
        let mut idx = index.min(n.saturating_sub(1));
        while n > 1 {
            // The sibling of an unpaired last node is the node itself.
            let sib_idx = if idx % 2 == 0 { (idx + 1).min(n - 1) } else { idx - 1 };
            // lint:allow(panic-path): idx < n is a loop invariant; sib_idx clamped below n
            siblings.push(scratch[sib_idx]);
            n = fold_level(&mut scratch, n);
            idx /= 2;
        }
        MerkleBranch {
            siblings,
            index: u32::try_from(index).unwrap_or(u32::MAX),
        }
    }

    /// Recomputes the root implied by `leaf` and this branch.
    pub fn compute_root(&self, leaf: Hash256) -> Hash256 {
        let mut acc = leaf;
        let mut idx = self.index;
        for sib in &self.siblings {
            acc = if idx % 2 == 0 {
                Hash256(sha256d_pair(&acc.0, &sib.0))
            } else {
                Hash256(sha256d_pair(&sib.0, &acc.0))
            };
            idx /= 2;
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constants::REGTEST_BITS;

    fn mined_block(tag: &[u8], ntx: usize) -> Block {
        let mut txs = vec![Transaction::coinbase(50_0000_0000, tag)];
        for i in 0..ntx {
            let mut t = Transaction::coinbase(1, &[i as u8, 1, 2, 3]);
            t.inputs_mut()[0].prevout = crate::tx::OutPoint::new(Hash256::hash(&[i as u8]), 0);
            txs.push(t);
        }
        let mut block = Block {
            header: BlockHeader {
                bits: REGTEST_BITS,
                ..BlockHeader::default()
            },
            txs,
        };
        block.header.merkle_root = block.merkle_root();
        block.header.mine();
        block
    }

    #[test]
    fn header_is_80_bytes() {
        assert_eq!(BlockHeader::default().encode_to_vec().len(), 80);
    }

    #[test]
    fn to_bytes_matches_encoder() {
        let h = BlockHeader {
            version: 0x2000_0000,
            prev_block: Hash256::hash(b"prev"),
            merkle_root: Hash256::hash(b"root"),
            time: 1_600_000_000,
            bits: 0x1d00_ffff,
            nonce: 0xdead_beef,
        };
        assert_eq!(h.to_bytes().as_slice(), h.encode_to_vec().as_slice());
    }

    #[test]
    fn header_roundtrip() {
        let h = BlockHeader {
            version: 0x2000_0000,
            prev_block: Hash256::hash(b"prev"),
            merkle_root: Hash256::hash(b"root"),
            time: 1_600_000_000,
            bits: 0x1d00_ffff,
            nonce: 42,
        };
        assert_eq!(BlockHeader::decode_all(&h.encode_to_vec()).unwrap(), h);
    }

    #[test]
    fn mine_finds_lowest_satisfying_nonce() {
        // The midstate loop must preserve the original semantics: scan from
        // zero, stop at the first nonce whose hash meets the target.
        let mut h = BlockHeader {
            bits: REGTEST_BITS,
            ..BlockHeader::default()
        };
        h.mine();
        let mined = h.nonce;
        for nonce in 0..mined {
            h.nonce = nonce;
            assert!(!h.check_pow(), "nonce {nonce} below {mined} satisfies target");
        }
        h.nonce = mined;
        assert!(h.check_pow());
    }

    #[test]
    fn mined_block_validates() {
        let b = mined_block(b"ok", 3);
        assert_eq!(b.check(), Ok(()));
    }

    #[test]
    fn mutated_block_fails_merkle() {
        let mut b = mined_block(b"mut", 3);
        // Swap two non-coinbase transactions: PoW still valid, merkle not.
        b.txs.swap(1, 2);
        assert_eq!(b.check(), Err("bad-txnmrklroot"));
    }

    #[test]
    fn bogus_pow_fails_high_hash() {
        let mut b = mined_block(b"pow", 1);
        b.header.bits = 0x1d00_ffff; // mainnet-hard target the nonce can't meet
        assert_eq!(b.check(), Err("high-hash"));
    }

    #[test]
    fn missing_coinbase_rejected() {
        let mut b = mined_block(b"cb", 2);
        b.txs.remove(0);
        b.header.merkle_root = b.merkle_root();
        b.header.mine();
        assert_eq!(b.check(), Err("bad-cb-missing"));
    }

    #[test]
    fn duplicate_tx_rejected() {
        let mut b = mined_block(b"dup", 1);
        b.txs.push(b.txs[1].clone());
        b.header.merkle_root = b.merkle_root();
        b.header.mine();
        assert_eq!(b.check(), Err("bad-txns-duplicate"));
    }

    /// `Block::check` before the sorted duplicate scan: one set, filled
    /// in transaction order. The oracle of the reject-reason tests.
    fn check_in_order(b: &Block) -> Result<(), &'static str> {
        if !b.header.check_pow() {
            return Err("high-hash");
        }
        if b.txs.is_empty() {
            return Err("bad-blk-length");
        }
        if b.merkle_root() != b.header.merkle_root {
            return Err("bad-txnmrklroot");
        }
        if !b.txs.first().is_some_and(Transaction::is_coinbase) {
            return Err("bad-cb-missing");
        }
        if b.txs.iter().skip(1).any(Transaction::is_coinbase) {
            return Err("bad-cb-multiple");
        }
        let mut seen = std::collections::BTreeSet::new();
        for tx in &b.txs {
            if !seen.insert(tx.txid()) {
                return Err("bad-txns-duplicate");
            }
            tx.check()?;
            tx.check_witness()?;
        }
        Ok(())
    }

    /// A spend of `tag`'s output, distinct per tag.
    fn spend(tag: u8) -> Transaction {
        Transaction::new(
            1,
            vec![crate::tx::TxIn::new(crate::tx::OutPoint::new(
                Hash256::hash(&[tag]),
                0,
            ))],
            vec![crate::tx::TxOut::new(1, vec![0x51])],
            0,
        )
    }

    /// `Transaction::check` rejects it, with its own reason.
    fn invalid(tag: u8) -> Transaction {
        let mut t = spend(tag);
        t.outputs_mut().clear();
        t
    }

    /// Coinbase + `txs`, with a matching merkle root and valid PoW, so the
    /// check reaches the per-transaction scan.
    fn sealed(txs: Vec<Transaction>) -> Block {
        let mut b = Block {
            header: BlockHeader {
                bits: REGTEST_BITS,
                ..BlockHeader::default()
            },
            txs: [vec![Transaction::coinbase(1, b"seal")], txs].concat(),
        };
        b.header.merkle_root = b.merkle_root();
        b.header.mine();
        b
    }

    #[test]
    fn reject_reasons_match_the_in_order_scan() {
        let s = spend;
        let mut dup_inputs = spend(50);
        let again = dup_inputs.inputs()[0].clone();
        dup_inputs.inputs_mut().push(again);
        let cases: Vec<(Vec<Transaction>, Result<(), &'static str>)> = vec![
            (vec![s(1), s(2), s(3)], Ok(())),
            // Duplicate txid first, last, in the middle, and two pairs.
            (vec![s(1), s(1), s(2), s(3)], Err("bad-txns-duplicate")),
            (vec![s(1), s(2), s(3), s(3)], Err("bad-txns-duplicate")),
            (
                vec![s(1), s(2), s(3), s(2), s(4)],
                Err("bad-txns-duplicate"),
            ),
            (
                vec![s(4), s(1), s(2), s(4), s(1)],
                Err("bad-txns-duplicate"),
            ),
            // A failing transaction before the first duplicate wins...
            (vec![s(1), invalid(9), s(1)], Err("bad-txns-vout-empty")),
            (
                vec![s(2), dup_inputs.clone(), s(2)],
                Err("bad-txns-inputs-duplicate"),
            ),
            // ...and one after it does not.
            (vec![s(1), s(1), invalid(9)], Err("bad-txns-duplicate")),
            (
                vec![s(3), s(1), s(3), dup_inputs.clone()],
                Err("bad-txns-duplicate"),
            ),
            // Duplicate inputs inside one multi-input transaction.
            (vec![s(1), dup_inputs], Err("bad-txns-inputs-duplicate")),
        ];
        for (i, (txs, want)) in cases.into_iter().enumerate() {
            let b = sealed(txs);
            assert_eq!(check_in_order(&b), want, "case {i}: oracle");
            assert_eq!(b.check(), want, "case {i}");
        }
    }

    #[test]
    fn reject_reasons_match_on_random_mutations() {
        btc_netsim::prop::check("reject_reasons_match_on_random_mutations", |g| {
            let mut txs: Vec<Transaction> =
                (0..g.usize_in(1, 12)).map(|_| spend(g.u8() % 16)).collect();
            if g.bool() {
                let at = g.usize_in(0, txs.len() + 1);
                txs.insert(at, invalid(g.u8()));
            }
            let b = sealed(txs);
            assert_eq!(b.check(), check_in_order(&b));
        });
    }

    #[test]
    fn merkle_single_leaf_is_identity() {
        let h = Hash256::hash(b"only");
        assert_eq!(merkle_root(&[h]), h);
    }

    #[test]
    fn merkle_empty_is_zero() {
        assert_eq!(merkle_root(&[]), Hash256::ZERO);
    }

    #[test]
    fn merkle_odd_level_duplicates_last() {
        let a = Hash256::hash(b"a");
        let b = Hash256::hash(b"b");
        let c = Hash256::hash(b"c");
        // Three leaves: level 2 = [H(a|b), H(c|c)].
        let mut ab = [0u8; 64];
        ab[..32].copy_from_slice(a.as_bytes());
        ab[32..].copy_from_slice(b.as_bytes());
        let mut cc = [0u8; 64];
        cc[..32].copy_from_slice(c.as_bytes());
        cc[32..].copy_from_slice(c.as_bytes());
        let l = Hash256::hash(&ab);
        let r = Hash256::hash(&cc);
        let mut lr = [0u8; 64];
        lr[..32].copy_from_slice(l.as_bytes());
        lr[32..].copy_from_slice(r.as_bytes());
        assert_eq!(merkle_root(&[a, b, c]), Hash256::hash(&lr));
    }

    #[test]
    fn merkle_branch_proves_every_leaf() {
        let leaves: Vec<Hash256> = (0..7u8).map(|i| Hash256::hash(&[i])).collect();
        let root = merkle_root(&leaves);
        for (i, leaf) in leaves.iter().enumerate() {
            let branch = MerkleBranch::build(&leaves, i);
            assert_eq!(branch.compute_root(*leaf), root, "leaf {i}");
        }
    }

    #[test]
    fn merkle_branch_detects_wrong_leaf() {
        let leaves: Vec<Hash256> = (0..4u8).map(|i| Hash256::hash(&[i])).collect();
        let root = merkle_root(&leaves);
        let branch = MerkleBranch::build(&leaves, 2);
        assert_ne!(branch.compute_root(Hash256::hash(b"evil")), root);
    }

    #[test]
    fn block_roundtrip() {
        let b = mined_block(b"rt", 2);
        assert_eq!(Block::decode_all(&b.encode_to_vec()).unwrap(), b);
    }

    #[test]
    fn headers_entry_roundtrip() {
        let e = HeadersEntry(BlockHeader::default());
        let enc = e.encode_to_vec();
        assert_eq!(enc.len(), 81);
        assert_eq!(HeadersEntry::decode_all(&enc).unwrap(), e);
    }
}
