//! A minimal transaction mempool with the acceptance checks the `TX`
//! ban-score rule depends on.

use btc_wire::compact::{short_id, ShortId};
use btc_wire::tx::Transaction;
use btc_wire::types::Hash256;
use std::collections::BTreeMap;

/// Why a transaction was (or wasn't) accepted.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TxVerdict {
    /// Accepted into the pool.
    Accepted,
    /// Already present.
    Duplicate,
    /// Structurally invalid (`CheckTransaction` failure) — rejected but not
    /// a SegWit consensus violation.
    Invalid(&'static str),
    /// Invalid by SegWit consensus rules — the Table-I `TX` rule, +100.
    InvalidSegwit(&'static str),
    /// Pool is full.
    Full,
}

/// The mempool.
#[derive(Clone, Debug)]
pub struct Mempool {
    txs: BTreeMap<Hash256, Transaction>,
    max_size: usize,
}

impl Mempool {
    /// Creates a pool holding up to `max_size` transactions.
    pub fn new(max_size: usize) -> Self {
        Mempool {
            txs: BTreeMap::new(),
            max_size,
        }
    }

    /// Runs acceptance checks and inserts a copy on success.
    pub fn accept(&mut self, tx: &Transaction) -> TxVerdict {
        let verdict = self.validate(tx);
        if verdict == TxVerdict::Accepted {
            self.txs.insert(tx.txid(), tx.clone());
        }
        verdict
    }

    /// [`Mempool::accept`] for a transaction the caller hands over: on
    /// success it moves into the pool, and nothing is copied.
    pub fn accept_owned(&mut self, tx: Transaction) -> TxVerdict {
        let verdict = self.validate(&tx);
        if verdict == TxVerdict::Accepted {
            self.txs.insert(tx.txid(), tx);
        }
        verdict
    }

    /// The acceptance checks both entry points share;
    /// [`TxVerdict::Accepted`] means "insert it".
    fn validate(&self, tx: &Transaction) -> TxVerdict {
        if self.txs.contains_key(&tx.txid()) {
            return TxVerdict::Duplicate;
        }
        if let Err(reason) = tx.check() {
            return TxVerdict::Invalid(reason);
        }
        if let Err(reason) = tx.check_witness() {
            return TxVerdict::InvalidSegwit(reason);
        }
        if tx.is_coinbase() {
            return TxVerdict::Invalid("coinbase");
        }
        if self.txs.len() >= self.max_size {
            return TxVerdict::Full;
        }
        TxVerdict::Accepted
    }

    /// Whether `txid` is present.
    pub fn contains(&self, txid: &Hash256) -> bool {
        self.txs.contains_key(txid)
    }

    /// Fetches a transaction.
    pub fn get(&self, txid: &Hash256) -> Option<&Transaction> {
        self.txs.get(txid)
    }

    /// Removes a transaction (e.g. once mined).
    pub fn remove(&mut self, txid: &Hash256) -> Option<Transaction> {
        self.txs.remove(txid)
    }

    /// Current size.
    pub fn len(&self) -> usize {
        self.txs.len()
    }

    /// Whether empty.
    pub fn is_empty(&self) -> bool {
        self.txs.is_empty()
    }

    /// All txids, in ascending key order.
    pub fn txids(&self) -> Vec<Hash256> {
        self.txs.keys().copied().collect()
    }

    /// Looks a transaction up by BIP152 short ID under `keys` — the
    /// compact-block reconstruction path.
    pub fn by_short_id(&self, keys: (u64, u64), sid: &ShortId) -> Option<Transaction> {
        self.txs
            .values()
            .find(|tx| short_id(keys, &tx.wtxid()) == *sid)
            .cloned()
    }
}

impl Default for Mempool {
    fn default() -> Self {
        Mempool::new(50_000)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use btc_wire::tx::{OutPoint, TxIn, TxOut};

    fn tx(tag: u8) -> Transaction {
        Transaction::new(
            2,
            vec![TxIn::new(OutPoint::new(Hash256::hash(&[tag]), 0))],
            vec![TxOut::new(1000, vec![0x51])],
            0,
        )
    }

    #[test]
    fn accept_and_lookup() {
        let mut mp = Mempool::default();
        let t = tx(1);
        assert_eq!(mp.accept(&t), TxVerdict::Accepted);
        assert!(mp.contains(&t.txid()));
        assert_eq!(mp.get(&t.txid()), Some(&t));
        assert_eq!(mp.len(), 1);
    }

    #[test]
    fn owned_and_borrowed_accept_agree() {
        let mut segwit_bad = tx(2);
        segwit_bad.inputs_mut()[0].witness = vec![vec![0u8; 521]];
        let cases = [
            tx(1),
            tx(1),
            tx(3),
            segwit_bad,
            Transaction::coinbase(50, b"cb"),
        ];
        let mut by_ref = Mempool::new(2);
        let mut by_value = Mempool::new(2);
        for t in cases {
            assert_eq!(by_ref.accept(&t), by_value.accept_owned(t.clone()));
        }
        assert_eq!(by_value.accept_owned(tx(4)), TxVerdict::Full);
        assert_eq!(by_ref.txids(), by_value.txids());
        assert_eq!(by_value.get(&tx(3).txid()), Some(&tx(3)));
    }

    #[test]
    fn duplicate_rejected() {
        let mut mp = Mempool::default();
        let t = tx(1);
        mp.accept(&t);
        assert_eq!(mp.accept(&t), TxVerdict::Duplicate);
    }

    #[test]
    fn structural_invalid_is_not_segwit_invalid() {
        let mut mp = Mempool::default();
        let mut t = tx(1);
        t.outputs_mut().clear();
        assert_eq!(mp.accept(&t), TxVerdict::Invalid("bad-txns-vout-empty"));
    }

    #[test]
    fn segwit_violation_detected() {
        let mut mp = Mempool::default();
        let mut t = tx(2);
        t.inputs_mut()[0].witness = vec![vec![0u8; 521]];
        assert_eq!(
            mp.accept(&t),
            TxVerdict::InvalidSegwit("bad-witness-script-element-size")
        );
        assert!(mp.is_empty());
    }

    #[test]
    fn coinbase_not_accepted() {
        let mut mp = Mempool::default();
        let cb = Transaction::coinbase(50, b"cb");
        assert_eq!(mp.accept(&cb), TxVerdict::Invalid("coinbase"));
    }

    #[test]
    fn pool_size_capped() {
        let mut mp = Mempool::new(2);
        assert_eq!(mp.accept(&tx(1)), TxVerdict::Accepted);
        assert_eq!(mp.accept(&tx(2)), TxVerdict::Accepted);
        assert_eq!(mp.accept(&tx(3)), TxVerdict::Full);
    }

    #[test]
    fn remove_frees_space() {
        let mut mp = Mempool::new(1);
        let t = tx(1);
        mp.accept(&t);
        mp.remove(&t.txid());
        assert_eq!(mp.accept(&tx(2)), TxVerdict::Accepted);
    }

    #[test]
    fn short_id_lookup() {
        let mut mp = Mempool::default();
        let t = tx(5);
        mp.accept(&t);
        let keys = (0xdead, 0xbeef);
        let sid = short_id(keys, &t.wtxid());
        assert_eq!(mp.by_short_id(keys, &sid), Some(t));
        let other = ShortId([9; 6]);
        assert_eq!(mp.by_short_id(keys, &other), None);
    }
}
