//! Transactions: inputs, outputs, witnesses, txid/wtxid computation and the
//! structural + SegWit checks the `TX` ban-score rule keys off.
//!
//! `Transaction` memoizes its txid/wtxid: the mempool, merkle-root
//! construction and compact-block short-id computation all re-request the
//! same identifiers, and re-serializing the transaction each time dominated
//! their cost. The fields are private so every mutation path (the `*_mut`
//! accessors and setters) can invalidate the cache; construction goes
//! through [`Transaction::new`].

use std::fmt;
use std::sync::OnceLock;

use crate::encode::{
    compact_size_len, decode_vec, encode_vec, var_bytes_len, Decodable, DecodeError, DecodeResult,
    Encodable, Reader, Writer,
};
use crate::types::Hash256;

/// Maximum serialized transaction weight Bitcoin accepts (BIP141).
pub const MAX_TX_WEIGHT: usize = 400_000;

/// Maximum script element size in bytes.
pub const MAX_SCRIPT_ELEMENT_SIZE: u64 = 520;

/// Maximum inputs/outputs we'll decode in one transaction (sanity bound well
/// above anything consensus-valid).
const MAX_TX_IO: u64 = 100_000;

/// 21 million BTC in satoshis: no output may exceed this.
pub const MAX_MONEY: i64 = 21_000_000 * 100_000_000;

/// A reference to a previous transaction output.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct OutPoint {
    /// Txid of the funding transaction.
    pub txid: Hash256,
    /// Output index within it.
    pub vout: u32,
}

impl OutPoint {
    /// The null outpoint marking a coinbase input.
    pub const NULL: OutPoint = OutPoint {
        txid: Hash256::ZERO,
        vout: u32::MAX,
    };

    /// Creates an outpoint.
    pub fn new(txid: Hash256, vout: u32) -> Self {
        OutPoint { txid, vout }
    }

    /// Whether this is the coinbase null pointer.
    pub fn is_null(&self) -> bool {
        *self == OutPoint::NULL
    }
}

impl Encodable for OutPoint {
    fn encode(&self, w: &mut Writer) {
        self.txid.encode(w);
        w.u32_le(self.vout);
    }
}

impl Decodable for OutPoint {
    fn decode(r: &mut Reader<'_>) -> DecodeResult<Self> {
        Ok(OutPoint {
            txid: Hash256::decode(r)?,
            vout: r.u32_le()?,
        })
    }
}

/// A transaction input.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct TxIn {
    /// Spent output.
    pub prevout: OutPoint,
    /// Unlocking script.
    pub script_sig: Vec<u8>,
    /// Relative-locktime / RBF sequence field.
    pub sequence: u32,
    /// SegWit witness stack (not serialized in the legacy format).
    pub witness: Vec<Vec<u8>>,
}

impl TxIn {
    /// An input spending `prevout` with an empty script.
    pub fn new(prevout: OutPoint) -> Self {
        TxIn {
            prevout,
            script_sig: Vec::new(),
            sequence: u32::MAX,
            witness: Vec::new(),
        }
    }
}

impl Encodable for TxIn {
    fn encode(&self, w: &mut Writer) {
        self.prevout.encode(w);
        w.var_bytes(&self.script_sig);
        w.u32_le(self.sequence);
    }
}

impl Decodable for TxIn {
    fn decode(r: &mut Reader<'_>) -> DecodeResult<Self> {
        Ok(TxIn {
            prevout: OutPoint::decode(r)?,
            script_sig: r.var_bytes("script_sig", 10_000)?,
            sequence: r.u32_le()?,
            witness: Vec::new(),
        })
    }
}

/// A transaction output.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct TxOut {
    /// Value in satoshis.
    pub value: i64,
    /// Locking script.
    pub script_pubkey: Vec<u8>,
}

impl TxOut {
    /// An output paying `value` satoshis to `script_pubkey`.
    pub fn new(value: i64, script_pubkey: Vec<u8>) -> Self {
        TxOut {
            value,
            script_pubkey,
        }
    }
}

impl Encodable for TxOut {
    fn encode(&self, w: &mut Writer) {
        w.i64_le(self.value);
        w.var_bytes(&self.script_pubkey);
    }
}

impl Decodable for TxOut {
    fn decode(r: &mut Reader<'_>) -> DecodeResult<Self> {
        Ok(TxOut {
            value: r.i64_le()?,
            script_pubkey: r.var_bytes("script_pubkey", 10_000)?,
        })
    }
}

/// Lazily computed txid/wtxid. Not part of the transaction's value: cloning
/// carries it, comparison and hashing ignore it.
#[derive(Default)]
struct IdCache {
    txid: OnceLock<Hash256>,
    wtxid: OnceLock<Hash256>,
}

impl IdCache {
    fn cloned(&self) -> IdCache {
        let c = IdCache::default();
        if let Some(t) = self.txid.get() {
            let _ = c.txid.set(*t);
        }
        if let Some(w) = self.wtxid.get() {
            let _ = c.wtxid.set(*w);
        }
        c
    }
}

/// A Bitcoin transaction (legacy or SegWit serialization).
///
/// Fields are private to keep the memoized txid/wtxid coherent: read through
/// the getters, mutate through the `*_mut` accessors or setters (which drop
/// the cache), construct with [`Transaction::new`].
pub struct Transaction {
    /// Version (1 or 2 in practice).
    version: i32,
    /// Inputs.
    inputs: Vec<TxIn>,
    /// Outputs.
    outputs: Vec<TxOut>,
    /// Lock time.
    lock_time: u32,
    /// Memoized identifiers.
    ids: IdCache,
}

impl Clone for Transaction {
    fn clone(&self) -> Self {
        Transaction {
            version: self.version,
            inputs: self.inputs.clone(),
            outputs: self.outputs.clone(),
            lock_time: self.lock_time,
            ids: self.ids.cloned(),
        }
    }
}

impl PartialEq for Transaction {
    fn eq(&self, other: &Self) -> bool {
        self.version == other.version
            && self.inputs == other.inputs
            && self.outputs == other.outputs
            && self.lock_time == other.lock_time
    }
}

impl Eq for Transaction {}

impl fmt::Debug for Transaction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Transaction")
            .field("version", &self.version)
            .field("inputs", &self.inputs)
            .field("outputs", &self.outputs)
            .field("lock_time", &self.lock_time)
            .finish()
    }
}

impl Transaction {
    /// Creates a transaction from its four consensus fields.
    pub fn new(version: i32, inputs: Vec<TxIn>, outputs: Vec<TxOut>, lock_time: u32) -> Self {
        Transaction {
            version,
            inputs,
            outputs,
            lock_time,
            ids: IdCache::default(),
        }
    }

    /// A minimal coinbase transaction paying `value` with `tag` as the
    /// script-sig payload (used to make distinct txids).
    pub fn coinbase(value: i64, tag: &[u8]) -> Self {
        let mut input = TxIn::new(OutPoint::NULL);
        input.script_sig = tag.to_vec();
        Transaction::new(
            1,
            vec![input],
            vec![TxOut::new(value, vec![0x51])], // OP_TRUE
            0,
        )
    }

    /// Version field.
    pub fn version(&self) -> i32 {
        self.version
    }

    /// Lock time field.
    pub fn lock_time(&self) -> u32 {
        self.lock_time
    }

    /// Inputs, read-only.
    pub fn inputs(&self) -> &[TxIn] {
        &self.inputs
    }

    /// Outputs, read-only.
    pub fn outputs(&self) -> &[TxOut] {
        &self.outputs
    }

    /// Mutable access to the inputs. Drops the memoized ids.
    pub fn inputs_mut(&mut self) -> &mut Vec<TxIn> {
        self.ids = IdCache::default();
        &mut self.inputs
    }

    /// Mutable access to the outputs. Drops the memoized ids.
    pub fn outputs_mut(&mut self) -> &mut Vec<TxOut> {
        self.ids = IdCache::default();
        &mut self.outputs
    }

    /// Whether this transaction is a coinbase.
    pub fn is_coinbase(&self) -> bool {
        matches!(self.inputs.as_slice(), [only] if only.prevout.is_null())
    }

    /// Whether any input carries witness data.
    pub fn has_witness(&self) -> bool {
        self.inputs.iter().any(|i| !i.witness.is_empty())
    }

    /// Txid: double-SHA256 of the *legacy* serialization (witnesses
    /// stripped). Memoized; the serialization happens at most once per
    /// transaction value.
    pub fn txid(&self) -> Hash256 {
        *self.ids.txid.get_or_init(|| {
            let mut w = Writer::new();
            self.encode_legacy(&mut w);
            Hash256::hash(&w.into_bytes())
        })
    }

    /// Wtxid: double-SHA256 of the full (witness) serialization. Memoized.
    pub fn wtxid(&self) -> Hash256 {
        if !self.has_witness() {
            return self.txid();
        }
        *self.ids.wtxid.get_or_init(|| {
            let mut w = Writer::new();
            self.encode(&mut w);
            Hash256::hash(&w.into_bytes())
        })
    }

    /// Serializes without witness data (txid preimage).
    pub fn encode_legacy(&self, w: &mut Writer) {
        w.i32_le(self.version);
        encode_vec(w, &self.inputs);
        encode_vec(w, &self.outputs);
        w.u32_le(self.lock_time);
    }

    /// Structural sanity checks mirroring Bitcoin Core's `CheckTransaction`.
    ///
    /// # Errors
    ///
    /// A static description of the first violated rule.
    pub fn check(&self) -> Result<(), &'static str> {
        if self.inputs.is_empty() {
            return Err("bad-txns-vin-empty");
        }
        if self.outputs.is_empty() {
            return Err("bad-txns-vout-empty");
        }
        let mut total: i64 = 0;
        for out in &self.outputs {
            if out.value < 0 {
                return Err("bad-txns-vout-negative");
            }
            if out.value > MAX_MONEY {
                return Err("bad-txns-vout-toolarge");
            }
            total = total.saturating_add(out.value);
            if total > MAX_MONEY {
                return Err("bad-txns-txouttotal-toolarge");
            }
        }
        // One input cannot repeat itself: skip the set.
        if self.inputs.len() > 1 {
            let mut seen = std::collections::BTreeSet::new();
            for inp in &self.inputs {
                if !seen.insert(inp.prevout) {
                    return Err("bad-txns-inputs-duplicate");
                }
            }
        }
        if self.is_coinbase() {
            let len = self.inputs.first().map_or(0, |i| i.script_sig.len());
            if !(2..=100).contains(&len) {
                return Err("bad-cb-length");
            }
        } else if self.inputs.iter().any(|i| i.prevout.is_null()) {
            return Err("bad-txns-prevout-null");
        }
        Ok(())
    }

    /// SegWit consensus checks (BIP141): witness stack element size limits.
    ///
    /// This is the check whose failure triggers the paper's Table-I `TX` rule
    /// ("invalid by consensus rules of SegWit", +100).
    ///
    /// # Errors
    ///
    /// A static description of the violated witness rule.
    pub fn check_witness(&self) -> Result<(), &'static str> {
        for inp in &self.inputs {
            for elem in &inp.witness {
                if elem.len() as u64 > MAX_SCRIPT_ELEMENT_SIZE {
                    return Err("bad-witness-script-element-size");
                }
            }
            if inp.witness.len() > 100 {
                return Err("bad-witness-stack-size");
            }
        }
        Ok(())
    }

    /// BIP141 weight: `3 * legacy_size + total_size`.
    pub fn weight(&self) -> usize {
        let mut lw = Writer::new();
        self.encode_legacy(&mut lw);
        let legacy = lw.len();
        let total = self.encoded_len();
        3 * legacy + total
    }
}

impl Encodable for Transaction {
    fn encode(&self, w: &mut Writer) {
        if !self.has_witness() {
            self.encode_legacy(w);
            return;
        }
        // BIP144: marker 0x00, flag 0x01, then witness stacks after outputs.
        w.i32_le(self.version);
        w.u8(0x00);
        w.u8(0x01);
        encode_vec(w, &self.inputs);
        encode_vec(w, &self.outputs);
        for inp in &self.inputs {
            w.compact_size(inp.witness.len() as u64);
            for elem in &inp.witness {
                w.var_bytes(elem);
            }
        }
        w.u32_le(self.lock_time);
    }

    /// Counted from the fields, without encoding.
    fn encoded_len(&self) -> usize {
        let inputs: usize = self
            .inputs
            .iter()
            .map(|i| 36 + var_bytes_len(i.script_sig.len()) + 4)
            .sum();
        let outputs: usize = self
            .outputs
            .iter()
            .map(|o| 8 + var_bytes_len(o.script_pubkey.len()))
            .sum();
        let legacy = 4
            + compact_size_len(self.inputs.len())
            + inputs
            + compact_size_len(self.outputs.len())
            + outputs
            + 4;
        if !self.has_witness() {
            return legacy;
        }
        let witness: usize = self
            .inputs
            .iter()
            .map(|i| {
                let items: usize = i.witness.iter().map(|e| var_bytes_len(e.len())).sum();
                compact_size_len(i.witness.len()) + items
            })
            .sum();
        // Marker and flag, then the stacks.
        legacy + 2 + witness
    }
}

impl Transaction {
    /// Decodes one transaction and reports whether it carried the BIP144
    /// marker. Without the marker, the bytes read are exactly the legacy
    /// serialisation: every `CompactSize` read is canonical, so
    /// [`Transaction::encode_legacy`] reproduces them byte for byte.
    pub(crate) fn decode_marked(r: &mut Reader<'_>) -> DecodeResult<(Self, bool)> {
        let version = r.i32_le()?;
        // Peek at the input count: 0x00 here means the BIP144 marker.
        let mark = r.u8()?;
        let (mut inputs, outputs, segwit) = if mark == 0x00 {
            let flag = r.u8()?;
            if flag != 0x01 {
                return Err(DecodeError::InvalidValue("bad segwit flag"));
            }
            let inputs: Vec<TxIn> = decode_vec(r, "tx inputs", MAX_TX_IO)?;
            if inputs.is_empty() {
                return Err(DecodeError::InvalidValue("segwit tx with no inputs"));
            }
            let outputs: Vec<TxOut> = decode_vec(r, "tx outputs", MAX_TX_IO)?;
            (inputs, outputs, true)
        } else {
            // Re-interpret the peeked byte as the start of a CompactSize.
            let n_in = match mark {
                0..=0xfc => mark as u64,
                0xfd => {
                    let v = r.u16_le()? as u64;
                    if v < 0xfd {
                        return Err(DecodeError::NonCanonicalVarInt);
                    }
                    v
                }
                0xfe => {
                    let v = r.u32_le()? as u64;
                    if v <= u16::MAX as u64 {
                        return Err(DecodeError::NonCanonicalVarInt);
                    }
                    v
                }
                0xff => {
                    let v = r.u64_le()?;
                    if v <= u32::MAX as u64 {
                        return Err(DecodeError::NonCanonicalVarInt);
                    }
                    v
                }
            };
            if n_in > MAX_TX_IO {
                return Err(DecodeError::OversizedLength {
                    what: "tx inputs",
                    len: n_in,
                    max: MAX_TX_IO,
                });
            }
            let mut inputs = Vec::with_capacity((n_in as usize).min(crate::encode::MAX_VEC_PREALLOC));
            for _ in 0..n_in {
                inputs.push(TxIn::decode(r)?);
            }
            let outputs: Vec<TxOut> = decode_vec(r, "tx outputs", MAX_TX_IO)?;
            (inputs, outputs, false)
        };
        if segwit {
            for inp in inputs.iter_mut() {
                let n = r.bounded_compact_size("witness stack", 10_000)?;
                let mut stack = Vec::with_capacity((n as usize).min(crate::encode::MAX_VEC_PREALLOC));
                for _ in 0..n {
                    stack.push(r.var_bytes("witness element", 1_000_000)?);
                }
                inp.witness = stack;
            }
        }
        let lock_time = r.u32_le()?;
        Ok((
            Transaction::new(version, inputs, outputs, lock_time),
            segwit,
        ))
    }

    /// Memoizes `txid` as this transaction's txid. The caller must hold
    /// the sha256d of this transaction's legacy serialisation: the
    /// message decoder passes the verified digest of a payload that is
    /// exactly that serialisation.
    pub(crate) fn seed_txid(&self, txid: Hash256) {
        let _ = self.ids.txid.set(txid);
    }
}

impl Decodable for Transaction {
    fn decode(r: &mut Reader<'_>) -> DecodeResult<Self> {
        Transaction::decode_marked(r).map(|(tx, _)| tx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_tx() -> Transaction {
        Transaction::new(
            2,
            vec![TxIn::new(OutPoint::new(Hash256::hash(b"prev"), 0))],
            vec![TxOut::new(50_000, vec![0x51])],
            0,
        )
    }

    #[test]
    fn legacy_roundtrip() {
        let tx = sample_tx();
        let enc = tx.encode_to_vec();
        assert_eq!(Transaction::decode_all(&enc).unwrap(), tx);
    }

    #[test]
    fn segwit_roundtrip() {
        let mut tx = sample_tx();
        tx.inputs_mut()[0].witness = vec![vec![1, 2, 3], vec![4; 70]];
        let enc = tx.encode_to_vec();
        let dec = Transaction::decode_all(&enc).unwrap();
        assert_eq!(dec, tx);
        assert!(dec.has_witness());
    }

    #[test]
    fn txid_ignores_witness() {
        let mut a = sample_tx();
        let txid_before = a.txid();
        a.inputs_mut()[0].witness = vec![vec![9; 32]];
        assert_eq!(a.txid(), txid_before);
        assert_ne!(a.wtxid(), a.txid());
    }

    #[test]
    fn wtxid_equals_txid_without_witness() {
        let tx = sample_tx();
        assert_eq!(tx.wtxid(), tx.txid());
    }

    #[test]
    fn cached_ids_survive_clone_and_invalidate_on_mutation() {
        let mut tx = sample_tx();
        let id = tx.txid();
        let cloned = tx.clone();
        assert_eq!(cloned.txid(), id);
        // Any mutation path must drop the cache and change the id.
        tx.outputs_mut()[0].value += 1;
        assert_ne!(tx.txid(), id);
    }

    #[test]
    fn equality_ignores_cache_state() {
        let warm = sample_tx();
        let _ = warm.txid();
        let cold = sample_tx();
        assert_eq!(warm, cold);
    }

    #[test]
    fn coinbase_detection() {
        let cb = Transaction::coinbase(50 * 100_000_000, b"height:1");
        assert!(cb.is_coinbase());
        assert!(cb.check().is_ok());
        assert!(!sample_tx().is_coinbase());
    }

    #[test]
    fn check_rejects_empty_io() {
        let mut tx = sample_tx();
        tx.inputs_mut().clear();
        assert_eq!(tx.check(), Err("bad-txns-vin-empty"));
        let mut tx = sample_tx();
        tx.outputs_mut().clear();
        assert_eq!(tx.check(), Err("bad-txns-vout-empty"));
    }

    #[test]
    fn check_rejects_bad_values() {
        let mut tx = sample_tx();
        tx.outputs_mut()[0].value = -1;
        assert_eq!(tx.check(), Err("bad-txns-vout-negative"));
        let mut tx = sample_tx();
        tx.outputs_mut()[0].value = MAX_MONEY + 1;
        assert_eq!(tx.check(), Err("bad-txns-vout-toolarge"));
        let mut tx = sample_tx();
        *tx.outputs_mut() = vec![TxOut::new(MAX_MONEY, vec![]), TxOut::new(1, vec![])];
        assert_eq!(tx.check(), Err("bad-txns-txouttotal-toolarge"));
    }

    #[test]
    fn check_rejects_duplicate_inputs() {
        let mut tx = sample_tx();
        let dup = tx.inputs()[0].clone();
        tx.inputs_mut().push(dup);
        assert_eq!(tx.check(), Err("bad-txns-inputs-duplicate"));
    }

    /// `Transaction::check` before one-input transactions skipped the
    /// duplicate-input set. The oracle of the reject-reason tests.
    fn check_full_scan(tx: &Transaction) -> Result<(), &'static str> {
        if tx.inputs.is_empty() {
            return Err("bad-txns-vin-empty");
        }
        if tx.outputs.is_empty() {
            return Err("bad-txns-vout-empty");
        }
        let mut total: i64 = 0;
        for out in &tx.outputs {
            if out.value < 0 {
                return Err("bad-txns-vout-negative");
            }
            if out.value > MAX_MONEY {
                return Err("bad-txns-vout-toolarge");
            }
            total = total.saturating_add(out.value);
            if total > MAX_MONEY {
                return Err("bad-txns-txouttotal-toolarge");
            }
        }
        let mut seen = std::collections::BTreeSet::new();
        for inp in &tx.inputs {
            if !seen.insert(inp.prevout) {
                return Err("bad-txns-inputs-duplicate");
            }
        }
        if tx.is_coinbase() {
            let len = tx.inputs.first().map_or(0, |i| i.script_sig.len());
            if !(2..=100).contains(&len) {
                return Err("bad-cb-length");
            }
        } else if tx.inputs.iter().any(|i| i.prevout.is_null()) {
            return Err("bad-txns-prevout-null");
        }
        Ok(())
    }

    #[test]
    fn reject_reasons_match_the_full_scan() {
        let prev = |tag: u8| OutPoint::new(Hash256::hash(&[tag]), u32::from(tag % 2));
        let cases = [
            (vec![prev(1)], Ok(())),
            (vec![prev(1), prev(2)], Ok(())),
            (vec![prev(1), prev(1)], Err("bad-txns-inputs-duplicate")),
            (
                vec![prev(1), prev(2), prev(3), prev(2)],
                Err("bad-txns-inputs-duplicate"),
            ),
            (
                vec![prev(4), prev(5), prev(4), prev(5)],
                Err("bad-txns-inputs-duplicate"),
            ),
            (
                vec![OutPoint::NULL, OutPoint::NULL],
                Err("bad-txns-inputs-duplicate"),
            ),
            (vec![prev(1), OutPoint::NULL], Err("bad-txns-prevout-null")),
            (vec![OutPoint::NULL], Err("bad-cb-length")),
        ];
        for (prevouts, want) in cases {
            let tx = Transaction::new(
                2,
                prevouts.into_iter().map(TxIn::new).collect(),
                vec![TxOut::new(1, vec![0x51])],
                0,
            );
            assert_eq!(check_full_scan(&tx), want, "oracle: {tx:?}");
            assert_eq!(tx.check(), want, "{tx:?}");
        }
    }

    #[test]
    fn reject_reasons_match_on_random_transactions() {
        btc_netsim::prop::check("reject_reasons_match_on_random_transactions", |g| {
            let inputs = g.vec_with(0, 4, |g| {
                let mut i = TxIn::new(match g.u8() % 4 {
                    0 => OutPoint::NULL,
                    k => OutPoint::new(Hash256::hash(&[k]), 0),
                });
                i.script_sig = g.vec_u8(0, 4);
                i
            });
            let outputs = g.vec_with(0, 3, |g| TxOut::new(g.i64() % (2 * MAX_MONEY), vec![]));
            let tx = Transaction::new(1, inputs, outputs, 0);
            assert_eq!(tx.check(), check_full_scan(&tx), "{tx:?}");
        });
    }

    #[test]
    fn check_rejects_null_prevout_in_non_coinbase() {
        let mut tx = sample_tx();
        tx.inputs_mut().push(TxIn::new(OutPoint::NULL));
        assert_eq!(tx.check(), Err("bad-txns-prevout-null"));
    }

    #[test]
    fn coinbase_script_length_bounds() {
        let cb = Transaction::coinbase(1, b"x"); // 1 byte: too short
        assert_eq!(cb.check(), Err("bad-cb-length"));
        let cb = Transaction::coinbase(1, &[0u8; 101]);
        assert_eq!(cb.check(), Err("bad-cb-length"));
    }

    #[test]
    fn witness_element_size_rule() {
        let mut tx = sample_tx();
        tx.inputs_mut()[0].witness = vec![vec![0u8; 521]];
        assert_eq!(tx.check_witness(), Err("bad-witness-script-element-size"));
        tx.inputs_mut()[0].witness = vec![vec![0u8; 520]];
        assert!(tx.check_witness().is_ok());
    }

    #[test]
    fn witness_stack_size_rule() {
        let mut tx = sample_tx();
        tx.inputs_mut()[0].witness = vec![vec![1]; 101];
        assert_eq!(tx.check_witness(), Err("bad-witness-stack-size"));
    }

    #[test]
    fn weight_counts_witness_once() {
        let legacy = sample_tx();
        let mut segwit = sample_tx();
        segwit.inputs_mut()[0].witness = vec![vec![0u8; 100]];
        assert!(segwit.weight() > legacy.weight());
        // Witness bytes cost 1 weight unit, legacy bytes 4.
        assert!(segwit.weight() < legacy.weight() + 4 * 110);
    }

    #[test]
    fn bad_segwit_flag_rejected() {
        let mut tx = sample_tx();
        tx.inputs_mut()[0].witness = vec![vec![1]];
        let mut enc = tx.encode_to_vec();
        enc[5] = 0x02; // corrupt the flag byte
        assert!(matches!(
            Transaction::decode_all(&enc),
            Err(DecodeError::InvalidValue(_))
        ));
    }
}
