//! The ban-score mechanism: Table-I rules, the misbehavior tracker, and
//! the trust-tier reputation engine layered on top of both.

pub mod reputation;
pub mod rules;
pub mod tracker;

pub use reputation::{
    MessageOutcome, PenaltyWeights, ReputationConfig, ReputationEngine, StrikeOutcome, Tier,
    TierTransition,
};
pub use rules::{
    protected_message_types, render_table1, tier_weight_of_penalty, unprotected_message_types,
    BanObject, CoreVersion, Misbehavior, MisbehaviorKind, TierWeight, ALL_MISBEHAVIORS,
    RULES_BY_COMMAND,
};
pub use tracker::{BanPolicy, GoodScoreTracker, MisbehaviorTracker, ScoreEvent, Verdict};
