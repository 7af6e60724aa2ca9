//! Protocol limits referenced by the ban-score rules (Table I of the paper)
//! and by message decoding.

/// Regtest-style easy difficulty target used by the simulated chain so block
/// mining is instant in tests.
pub const REGTEST_BITS: u32 = 0x207f_ffff;

/// Maximum `ADDR` entries per message; more is the Table-I "oversize" rule
/// (+20).
pub const MAX_ADDR_TO_SEND: u64 = 1_000;

/// Maximum `INV`/`GETDATA`/`NOTFOUND` entries per message; more is the
/// Table-I "oversize" rule (+20).
pub const MAX_INV_SZ: u64 = 50_000;

/// Maximum `HEADERS` entries per message; more is the Table-I "oversize"
/// rule (+20).
pub const MAX_HEADERS_RESULTS: u64 = 2_000;

/// Maximum serialized bloom filter size in bytes (BIP37); larger
/// `FILTERLOAD` is the Table-I rule (+100).
pub const MAX_BLOOM_FILTER_SIZE: u64 = 36_000;

/// Maximum bloom filter hash function count (BIP37).
pub const MAX_HASH_FUNCS: u32 = 50;

/// Maximum `FILTERADD` data element size in bytes; larger is the Table-I
/// rule (+100).
pub const MAX_FILTERADD_SIZE: u64 = 520;

/// Number of non-connecting `HEADERS` messages tolerated before the +20
/// "disorder" penalty fires.
pub const MAX_UNCONNECTING_HEADERS: u32 = 10;

/// Ban-score threshold: reaching it disconnects and bans the peer.
pub const DEFAULT_BANSCORE_THRESHOLD: u32 = 100;

/// Default ban duration in seconds (24 hours).
pub const DEFAULT_BANTIME_SECS: u64 = 24 * 60 * 60;

/// Maximum inbound peer slots of a default node.
pub const MAX_INBOUND_CONNECTIONS: usize = 117;

/// Maximum outbound peer slots of a default node.
pub const MAX_OUTBOUND_CONNECTIONS: usize = 8;
