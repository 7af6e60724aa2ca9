//! The ban-score rules of Bitcoin Core 0.20.0 / 0.21.0 / 0.22.0 — a direct
//! encoding of Table I of the paper.
//!
//! Each [`Misbehavior`] names one rule and [`RULES_BY_COMMAND`] files every
//! rule under its message type; [`Misbehavior::penalty`] yields the
//! score increment for a given Core version (or `None` where the rule was
//! deprecated), and [`Misbehavior::object`] restricts which peers the rule
//! can hit (one rule only affects outbound peers, the handshake rules only
//! inbound peers).

use std::fmt;

/// Which Bitcoin Core rule set the node emulates.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum CoreVersion {
    /// Bitcoin Core 0.20.0 — the version the paper's testbed ran.
    #[default]
    V0_20,
    /// Bitcoin Core 0.21.0.
    V0_21,
    /// Bitcoin Core 0.22.0.
    V0_22,
}

impl fmt::Display for CoreVersion {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreVersion::V0_20 => write!(f, "0.20.0"),
            CoreVersion::V0_21 => write!(f, "0.21.0"),
            CoreVersion::V0_22 => write!(f, "0.22.0"),
        }
    }
}

/// Broad classification of a misbehavior (Table I's last column).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum MisbehaviorKind {
    /// Payload is consensus/protocol-invalid.
    Invalid,
    /// A list or element exceeded a protocol limit.
    Oversize,
    /// Messages out of protocol order.
    Disorder,
    /// A message that must appear once was repeated.
    Repeat,
}

impl fmt::Display for MisbehaviorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MisbehaviorKind::Invalid => write!(f, "Invalid"),
            MisbehaviorKind::Oversize => write!(f, "Oversize"),
            MisbehaviorKind::Disorder => write!(f, "Disorder"),
            MisbehaviorKind::Repeat => write!(f, "Repeat"),
        }
    }
}

/// Which peers a rule can punish (Table I's "Object of Ban" column).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum BanObject {
    /// Any peer.
    AnyPeer,
    /// Only peers that connected to us.
    InboundPeer,
    /// Only peers we connected to.
    OutboundPeer,
}

impl fmt::Display for BanObject {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BanObject::AnyPeer => write!(f, "Any peer"),
            BanObject::InboundPeer => write!(f, "Inbound peer"),
            BanObject::OutboundPeer => write!(f, "Outbound peer"),
        }
    }
}

/// Every ban-score rule of Table I.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Misbehavior {
    /// `BLOCK`: block data was mutated (merkle/structure/PoW check failed).
    BlockMutated,
    /// `BLOCK`: the block was already cached as invalid.
    BlockCachedInvalid,
    /// `BLOCK`: the previous block is known-invalid.
    BlockPrevInvalid,
    /// `BLOCK`: the previous block is missing (orphan).
    BlockPrevMissing,
    /// `TX`: invalid by SegWit consensus rules.
    TxInvalidSegwit,
    /// `GETBLOCKTXN`: out-of-bounds transaction indices.
    GetBlockTxnOutOfBounds,
    /// `HEADERS`: ten non-connecting headers messages.
    HeadersUnconnecting,
    /// `HEADERS`: non-continuous headers sequence.
    HeadersNonContinuous,
    /// `HEADERS`: more than 2000 headers.
    HeadersOversize,
    /// `ADDR`: more than 1000 addresses.
    AddrOversize,
    /// `INV`: more than 50000 inventory entries.
    InvOversize,
    /// `GETDATA`: more than 50000 inventory entries.
    GetDataOversize,
    /// `CMPCTBLOCK`: invalid compact block data.
    CmpctBlockInvalid,
    /// `FILTERLOAD`: bloom filter larger than 36000 bytes.
    FilterLoadOversize,
    /// `FILTERADD`: sent although protocol version >= 70011 disallows it.
    FilterAddProtocolVersion,
    /// `FILTERADD`: data item larger than 520 bytes.
    FilterAddOversize,
    /// `VERSION`: duplicate VERSION message.
    DuplicateVersion,
    /// `VERSION`: a message arrived before VERSION.
    MessageBeforeVersion,
    /// `VERACK`: a message (other than VERSION) arrived before VERACK.
    MessageBeforeVerack,
    /// *Not a Bitcoin Core rule.* Ablation counterpart of BM-DoS vector 2:
    /// punish frames whose Bitcoin header checksum is corrupt (Core drops
    /// them before misbehavior tracking). Carries no penalty under any
    /// stock version; the ablation applies a configurable score via
    /// [`super::tracker::MisbehaviorTracker::penalize`].
    ChecksumCorrupt,
}

/// All rules in Table I order.
pub const ALL_MISBEHAVIORS: [Misbehavior; 19] = [
    Misbehavior::BlockMutated,
    Misbehavior::BlockCachedInvalid,
    Misbehavior::BlockPrevInvalid,
    Misbehavior::BlockPrevMissing,
    Misbehavior::TxInvalidSegwit,
    Misbehavior::GetBlockTxnOutOfBounds,
    Misbehavior::HeadersUnconnecting,
    Misbehavior::HeadersNonContinuous,
    Misbehavior::HeadersOversize,
    Misbehavior::AddrOversize,
    Misbehavior::InvOversize,
    Misbehavior::GetDataOversize,
    Misbehavior::CmpctBlockInvalid,
    Misbehavior::FilterLoadOversize,
    Misbehavior::FilterAddProtocolVersion,
    Misbehavior::FilterAddOversize,
    Misbehavior::DuplicateVersion,
    Misbehavior::MessageBeforeVersion,
    Misbehavior::MessageBeforeVerack,
];

/// Table I by message type: one row per wire command, in
/// [`btc_wire::message::ALL_COMMANDS`] order, naming the rules that can
/// fire on it. An empty row is the explicit "tolerated" decision — the
/// message types of the paper's first BM-DoS vector. The array length ties
/// the table to `ALL_COMMANDS`, so a new wire command does not compile
/// without a row here.
pub const RULES_BY_COMMAND: [(&str, &[Misbehavior]); btc_wire::message::ALL_COMMANDS.len()] = {
    use Misbehavior::*;
    [
        ("version", &[DuplicateVersion, MessageBeforeVersion]),
        ("verack", &[MessageBeforeVerack]),
        ("addr", &[AddrOversize]),
        ("getaddr", &[]),
        ("ping", &[]),
        ("pong", &[]),
        ("inv", &[InvOversize]),
        ("getdata", &[GetDataOversize]),
        ("notfound", &[]),
        ("getblocks", &[]),
        ("getheaders", &[]),
        ("headers", &[HeadersUnconnecting, HeadersNonContinuous, HeadersOversize]),
        ("tx", &[TxInvalidSegwit]),
        ("block", &[BlockMutated, BlockCachedInvalid, BlockPrevInvalid, BlockPrevMissing]),
        ("mempool", &[]),
        ("merkleblock", &[]),
        ("sendheaders", &[]),
        ("feefilter", &[]),
        ("filterload", &[FilterLoadOversize]),
        ("filteradd", &[FilterAddProtocolVersion, FilterAddOversize]),
        ("filterclear", &[]),
        ("sendcmpct", &[]),
        ("cmpctblock", &[CmpctBlockInvalid]),
        ("getblocktxn", &[GetBlockTxnOutOfBounds]),
        ("blocktxn", &[]),
        ("reject", &[]),
    ]
};

impl Misbehavior {
    /// The message type the rule applies to: its [`RULES_BY_COMMAND`] row,
    /// or `"(any)"` for the ablation-only [`Misbehavior::ChecksumCorrupt`].
    pub fn message_type(&self) -> &'static str {
        RULES_BY_COMMAND
            .iter()
            .find(|(_, rules)| rules.contains(self))
            .map_or("(any)", |(command, _)| command)
    }

    /// Human-readable description (Table I's "Message Misbehavior" column).
    pub fn description(&self) -> &'static str {
        use Misbehavior::*;
        match self {
            BlockMutated => "Block data was mutated",
            BlockCachedInvalid => "Block was cached as invalid",
            BlockPrevInvalid => "Previous block is invalid",
            BlockPrevMissing => "Previous block is missing",
            TxInvalidSegwit => "Invalid by consensus rules of SegWit",
            GetBlockTxnOutOfBounds => "Out-of-bounds transaction indices",
            HeadersUnconnecting => "10 non-connecting headers",
            HeadersNonContinuous => "Non-continuous headers sequence",
            HeadersOversize => "More than 2000 headers",
            AddrOversize => "More than 1000 addresses",
            InvOversize => "More than 50000 inventory entries",
            GetDataOversize => "More than 50000 inventory entries",
            CmpctBlockInvalid => "Invalid compact block data",
            FilterLoadOversize => "Bloom filter size > 36000 bytes",
            FilterAddProtocolVersion => "Protocol version number >= 70011",
            FilterAddOversize => "Data item > 520 bytes",
            DuplicateVersion => "Duplicate VERSION",
            MessageBeforeVersion => "Message before VERSION",
            MessageBeforeVerack => "Message (other than VERSION) before VERACK",
            ChecksumCorrupt => "Corrupted frame checksum (ablation only)",
        }
    }

    /// Table I's misbehavior classification.
    pub fn kind(&self) -> MisbehaviorKind {
        use Misbehavior::*;
        match self {
            BlockMutated | BlockCachedInvalid | BlockPrevInvalid | BlockPrevMissing
            | TxInvalidSegwit | CmpctBlockInvalid | FilterAddProtocolVersion => {
                MisbehaviorKind::Invalid
            }
            GetBlockTxnOutOfBounds | HeadersOversize | AddrOversize | InvOversize
            | GetDataOversize | FilterLoadOversize | FilterAddOversize => MisbehaviorKind::Oversize,
            HeadersUnconnecting | HeadersNonContinuous | MessageBeforeVersion
            | MessageBeforeVerack => MisbehaviorKind::Disorder,
            DuplicateVersion => MisbehaviorKind::Repeat,
            ChecksumCorrupt => MisbehaviorKind::Invalid,
        }
    }

    /// Which peers the rule can punish.
    pub fn object(&self) -> BanObject {
        use Misbehavior::*;
        match self {
            BlockCachedInvalid => BanObject::OutboundPeer,
            DuplicateVersion | MessageBeforeVersion | MessageBeforeVerack => BanObject::InboundPeer,
            _ => BanObject::AnyPeer,
        }
    }

    /// The score increment under `version`, or `None` if the rule was
    /// removed in that version.
    pub fn penalty(&self, version: CoreVersion) -> Option<u32> {
        use CoreVersion::*;
        use Misbehavior::*;
        match self {
            BlockMutated | BlockCachedInvalid | BlockPrevInvalid => Some(100),
            BlockPrevMissing => Some(10),
            TxInvalidSegwit => Some(100),
            GetBlockTxnOutOfBounds => Some(100),
            HeadersUnconnecting | HeadersNonContinuous | HeadersOversize => Some(20),
            AddrOversize | InvOversize | GetDataOversize => Some(20),
            CmpctBlockInvalid => Some(100),
            FilterLoadOversize => Some(100),
            FilterAddOversize => Some(100),
            FilterAddProtocolVersion => match version {
                V0_20 => Some(100),
                V0_21 | V0_22 => None,
            },
            DuplicateVersion | MessageBeforeVersion => match version {
                V0_20 | V0_21 => Some(1),
                V0_22 => None,
            },
            MessageBeforeVerack => match version {
                V0_20 => Some(1),
                V0_21 | V0_22 => None,
            },
            // Never a stock rule.
            ChecksumCorrupt => None,
        }
    }

    /// Whether the rule applies to a peer of the given direction.
    pub fn applies_to(&self, inbound: bool) -> bool {
        match self.object() {
            BanObject::AnyPeer => true,
            BanObject::InboundPeer => inbound,
            BanObject::OutboundPeer => !inbound,
        }
    }
}

impl fmt::Display for Misbehavior {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.message_type(), self.description())
    }
}

/// Weight class of a strike under the trust-tier reputation engine
/// (ROADMAP item 3). Where the stock mechanism is binary (100 points →
/// 24 h ban), the tier engine grades strikes so that no single rule can
/// jump a peer straight past the graylist into a hard ban.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum TierWeight {
    /// Consensus-invalid payloads (stock 100-point rules).
    Severe,
    /// Protocol-limit violations (stock 10–20-point rules).
    Moderate,
    /// Handshake-order slips (stock 1-point rules).
    Light,
    /// No stock points; message types without a rule are still covered by
    /// the engine's flood-pressure accounting.
    Neutral,
}

impl TierWeight {
    /// Strike points of the class. The maximum (Severe) is deliberately
    /// no larger than `ban_threshold - graylist_threshold` of the default
    /// [`super::reputation::ReputationConfig`], so a peer always passes
    /// through the graylist soft-ban before any hard ban.
    pub fn points(self) -> f64 {
        match self {
            TierWeight::Severe => 40.0,
            TierWeight::Moderate => 15.0,
            TierWeight::Light => 5.0,
            TierWeight::Neutral => 0.0,
        }
    }
}

/// Maps a stock score increment to its tier weight class: 100-point rules
/// are Severe, the 10–20-point limit rules Moderate, the 1-point
/// handshake rules Light. This is how the tier engine "reuses" Table I —
/// relative rule severity is preserved while the absolute cliff is not.
pub fn tier_weight_of_penalty(stock: u32) -> TierWeight {
    match stock {
        100.. => TierWeight::Severe,
        10..=99 => TierWeight::Moderate,
        1..=9 => TierWeight::Light,
        0 => TierWeight::Neutral,
    }
}

/// Message types that carry at least one ban-score rule under `version`.
pub fn protected_message_types(version: CoreVersion) -> Vec<&'static str> {
    let mut v: Vec<&'static str> = RULES_BY_COMMAND
        .iter()
        .filter(|(_, rules)| rules.iter().any(|m| m.penalty(version).is_some()))
        .map(|(command, _)| *command)
        .collect();
    v.sort_unstable();
    v
}

/// Message types with *no* ban-score rule under `version` — the "messages
/// never getting banned" of the paper's first BM-DoS vector.
pub fn unprotected_message_types(version: CoreVersion) -> Vec<&'static str> {
    let protected = protected_message_types(version);
    btc_wire::message::ALL_COMMANDS
        .iter()
        .copied()
        .filter(|c| !protected.contains(c))
        .collect()
}

/// Renders Table I as text (used by the `repro` harness).
pub fn render_table1() -> String {
    use std::fmt::Write;
    let mut out = String::new();
    // Writing into a String never fails; swallow the Result instead of
    // keeping a panic path in report code.
    let _ = writeln!(
        out,
        "{:<12} {:<45} {:>8} {:>8} {:>8}  {:<14} {:<10}",
        "Message", "Misbehavior", "'20", "'21", "'22", "Object", "Kind"
    );
    for m in ALL_MISBEHAVIORS {
        let p = |v| {
            m.penalty(v)
                .map(|s| s.to_string())
                .unwrap_or_else(|| "-".into())
        };
        let _ = writeln!(
            out,
            "{:<12} {:<45} {:>8} {:>8} {:>8}  {:<14} {:<10}",
            m.message_type().to_uppercase(),
            m.description(),
            p(CoreVersion::V0_20),
            p(CoreVersion::V0_21),
            p(CoreVersion::V0_22),
            m.object().to_string(),
            m.kind().to_string(),
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_scores_v20() {
        use Misbehavior::*;
        let p = |m: Misbehavior| m.penalty(CoreVersion::V0_20);
        assert_eq!(p(BlockMutated), Some(100));
        assert_eq!(p(BlockCachedInvalid), Some(100));
        assert_eq!(p(BlockPrevInvalid), Some(100));
        assert_eq!(p(BlockPrevMissing), Some(10));
        assert_eq!(p(TxInvalidSegwit), Some(100));
        assert_eq!(p(GetBlockTxnOutOfBounds), Some(100));
        assert_eq!(p(HeadersUnconnecting), Some(20));
        assert_eq!(p(HeadersNonContinuous), Some(20));
        assert_eq!(p(HeadersOversize), Some(20));
        assert_eq!(p(AddrOversize), Some(20));
        assert_eq!(p(InvOversize), Some(20));
        assert_eq!(p(GetDataOversize), Some(20));
        assert_eq!(p(CmpctBlockInvalid), Some(100));
        assert_eq!(p(FilterLoadOversize), Some(100));
        assert_eq!(p(FilterAddProtocolVersion), Some(100));
        assert_eq!(p(FilterAddOversize), Some(100));
        assert_eq!(p(DuplicateVersion), Some(1));
        assert_eq!(p(MessageBeforeVersion), Some(1));
        assert_eq!(p(MessageBeforeVerack), Some(1));
    }

    #[test]
    fn deprecations_match_table1() {
        use Misbehavior::*;
        // FILTERADD version rule removed in 0.21.
        assert_eq!(FilterAddProtocolVersion.penalty(CoreVersion::V0_21), None);
        assert_eq!(FilterAddProtocolVersion.penalty(CoreVersion::V0_22), None);
        // VERACK rule removed in 0.21.
        assert_eq!(MessageBeforeVerack.penalty(CoreVersion::V0_21), None);
        // VERSION rules removed in 0.22.
        assert_eq!(DuplicateVersion.penalty(CoreVersion::V0_21), Some(1));
        assert_eq!(DuplicateVersion.penalty(CoreVersion::V0_22), None);
        assert_eq!(MessageBeforeVersion.penalty(CoreVersion::V0_22), None);
    }

    #[test]
    fn objects_match_table1() {
        use Misbehavior::*;
        assert_eq!(BlockCachedInvalid.object(), BanObject::OutboundPeer);
        assert_eq!(DuplicateVersion.object(), BanObject::InboundPeer);
        assert_eq!(MessageBeforeVersion.object(), BanObject::InboundPeer);
        assert_eq!(MessageBeforeVerack.object(), BanObject::InboundPeer);
        assert_eq!(BlockMutated.object(), BanObject::AnyPeer);
        assert_eq!(InvOversize.object(), BanObject::AnyPeer);
    }

    #[test]
    fn applies_to_direction() {
        use Misbehavior::*;
        assert!(BlockCachedInvalid.applies_to(false));
        assert!(!BlockCachedInvalid.applies_to(true));
        assert!(DuplicateVersion.applies_to(true));
        assert!(!DuplicateVersion.applies_to(false));
        assert!(BlockMutated.applies_to(true));
        assert!(BlockMutated.applies_to(false));
    }

    #[test]
    fn twelve_of_twenty_six_protected_in_v20() {
        // The paper: "only 12 out of 26 message types possess corresponding
        // ban-score rules in Bitcoin Core 0.20.0".
        let protected = protected_message_types(CoreVersion::V0_20);
        assert_eq!(protected.len(), 12, "{protected:?}");
        let unprotected = unprotected_message_types(CoreVersion::V0_20);
        assert_eq!(unprotected.len(), 14);
        // PING is the canonical never-banned flood message.
        assert!(unprotected.contains(&"ping"));
        assert!(!protected.contains(&"ping"));
    }

    #[test]
    fn protected_set_shrinks_over_versions() {
        let v20 = protected_message_types(CoreVersion::V0_20);
        let v21 = protected_message_types(CoreVersion::V0_21);
        let v22 = protected_message_types(CoreVersion::V0_22);
        assert!(v21.len() <= v20.len());
        assert!(v22.len() <= v21.len());
        // verack loses its rule in 0.21, version in 0.22.
        assert!(v20.contains(&"verack"));
        assert!(!v21.contains(&"verack"));
        assert!(v21.contains(&"version"));
        assert!(!v22.contains(&"version"));
    }

    #[test]
    fn kinds_match_table1() {
        use Misbehavior::*;
        assert_eq!(BlockMutated.kind(), MisbehaviorKind::Invalid);
        assert_eq!(HeadersOversize.kind(), MisbehaviorKind::Oversize);
        assert_eq!(HeadersNonContinuous.kind(), MisbehaviorKind::Disorder);
        assert_eq!(DuplicateVersion.kind(), MisbehaviorKind::Repeat);
        assert_eq!(GetBlockTxnOutOfBounds.kind(), MisbehaviorKind::Oversize);
    }

    #[test]
    fn rules_by_command_cover_every_command_and_rule_once() {
        let commands: Vec<&str> = RULES_BY_COMMAND.iter().map(|(c, _)| *c).collect();
        assert_eq!(commands, btc_wire::message::ALL_COMMANDS);
        for m in ALL_MISBEHAVIORS {
            let rows = RULES_BY_COMMAND.iter().filter(|(_, rules)| rules.contains(&m)).count();
            assert_eq!(rows, 1, "{m:?} sits in {rows} rows");
        }
        assert_eq!(Misbehavior::ChecksumCorrupt.message_type(), "(any)");
    }

    #[test]
    fn tier_weight_points_are_graded() {
        assert!(TierWeight::Severe.points() > TierWeight::Moderate.points());
        assert!(TierWeight::Moderate.points() > TierWeight::Light.points());
        assert!(TierWeight::Light.points() > TierWeight::Neutral.points());
        assert_eq!(TierWeight::Neutral.points(), 0.0);
        assert_eq!(tier_weight_of_penalty(100), TierWeight::Severe);
        assert_eq!(tier_weight_of_penalty(20), TierWeight::Moderate);
        assert_eq!(tier_weight_of_penalty(10), TierWeight::Moderate);
        assert_eq!(tier_weight_of_penalty(1), TierWeight::Light);
        assert_eq!(tier_weight_of_penalty(0), TierWeight::Neutral);
    }

    #[test]
    fn render_table_contains_every_rule() {
        let t = render_table1();
        for m in ALL_MISBEHAVIORS {
            assert!(t.contains(m.description()), "missing {m}");
        }
    }
}
