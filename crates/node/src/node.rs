//! The Bitcoin node application: message processing, version handshake,
//! ban-score enforcement, peer management and mining — the "target node"
//! of the paper's testbed.
//!
//! The receive path deliberately mirrors Bitcoin Core's ordering, because
//! the paper's BM-DoS vector 2 depends on it:
//!
//! 1. frame parsing (magic, length),
//! 2. **checksum verification** — a bad checksum drops the frame *here*,
//!    after the victim already paid the `sha256d` pass but before any
//!    misbehavior tracking could run,
//! 3. payload decoding,
//! 4. the type-specific handler, where `Misbehaving()` fires per Table I.

use crate::addrman::{AddrMan, AddrSource};
use crate::banman::BanMan;
use crate::banscore::{
    BanPolicy, CoreVersion, GoodScoreTracker, Misbehavior, MisbehaviorTracker, ReputationConfig,
    ReputationEngine, Tier, Verdict,
};
use crate::chain::{BlockVerdict, Chain, HeaderVerdict};
use crate::cost::CostModel;
use crate::mempool::{Mempool, TxVerdict};
use crate::metrics::Telemetry;
use crate::peer::Peer;
use btc_netsim::packet::SockAddr;
use btc_netsim::sim::{App, Ctx};
use btc_netsim::tcp::{CloseReason, ConnId};
use btc_netsim::time::{Nanos, SECS};
use btc_wire::block::{Block, HeadersEntry};
use btc_wire::compact::short_id_keys;
use btc_wire::constants::{
    MAX_ADDR_TO_SEND, MAX_HEADERS_RESULTS, MAX_INBOUND_CONNECTIONS, MAX_INV_SZ,
    MAX_OUTBOUND_CONNECTIONS, MAX_UNCONNECTING_HEADERS,
};
use btc_wire::message::{MerkleBlockMsg, Message, RawMessage, VersionMessage};
use btc_wire::types::{
    BlockLocator, Hash256, InvType, Inventory, NetAddr, Network, TimestampedAddr,
};
use std::any::Any;
use std::collections::{BTreeMap, BTreeSet};

mod recv;

/// Timer tokens used by the node.
mod timers {
    /// Periodic maintenance (ban sweep, outbound fill).
    pub const MAINTAIN: u64 = 2;
    /// Keepalive ping round.
    pub const PING: u64 = 3;
}

/// Which mechanism governs peer misbehavior: the stock ban score, one of
/// the paper's §VIII countermeasures, or the trust-tier engine.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum PeerPolicy {
    /// The stock banscore mechanism: Table-I points, 100 → 24 h hard ban.
    #[default]
    Stock,
    /// §VIII "ban score threshold to ∞": scores are kept, nobody is banned.
    NeverBan,
    /// §VIII "disabling the checking": misbehavior is not tracked at all.
    Disabled,
    /// The §VIII good-score countermeasure: peers earn credit per valid
    /// block, a peer holding `min_credit` is shielded from banning, and a
    /// full inbound table evicts the lowest-credit peer instead of
    /// refusing the newcomer.
    GoodScore {
        /// Credit needed for the ban shield.
        min_credit: u64,
    },
    /// The trust-tier reputation engine
    /// ([`crate::banscore::ReputationEngine`]): weighted penalties, decay,
    /// graylist soft-bans, hard ban only as a last resort.
    TrustTiers,
}

impl PeerPolicy {
    /// Whether a full inbound table evicts the worst-standing peer instead
    /// of refusing the newcomer (CKB-style, §IX-A).
    fn evicts(self) -> bool {
        matches!(self, PeerPolicy::GoodScore { .. } | PeerPolicy::TrustTiers)
    }
}

/// Node configuration.
#[derive(Clone, Debug)]
pub struct NodeConfig {
    /// Network magic to speak.
    pub network: Network,
    /// Which Core rule set to enforce.
    pub core_version: CoreVersion,
    /// Which mechanism handles misbehavior.
    pub peer_policy: PeerPolicy,
    /// Ban threshold (default 100).
    pub ban_threshold: u32,
    /// Ban duration (default 24 h).
    pub ban_duration: Nanos,
    /// TCP port to listen on.
    pub listen_port: u16,
    /// Inbound connection slots.
    pub max_inbound: usize,
    /// Outbound connections to maintain.
    pub target_outbound: usize,
    /// Known peer addresses to draw outbound connections from.
    pub outbound_targets: Vec<SockAddr>,
    /// Keepalive ping round interval (0 disables; Bitcoin pings every
    /// 2 minutes).
    pub ping_interval: Nanos,
    /// Processing cost model.
    pub cost: CostModel,
    /// Ablation (DESIGN.md §5): score bad-checksum frames with this many
    /// points instead of silently dropping them. Bitcoin Core does NOT do
    /// this — its checksum check runs before misbehavior tracking, which
    /// is exactly what BM-DoS vector 2 exploits. `None` = stock behaviour.
    pub punish_bad_checksum_score: Option<u32>,
    /// Disconnect peers whose version handshake has not completed after
    /// this long (0 disables — the default, matching the pre-hardening
    /// node; Bitcoin Core uses 60 s).
    pub handshake_timeout: Nanos,
    /// Disconnect peers whose keepalive ping went unanswered for this
    /// long (0 disables; Bitcoin Core uses 20 min).
    pub ping_timeout: Nanos,
    /// Base delay of the capped exponential backoff applied between
    /// reconnection attempts to the same outbound address (0 disables —
    /// failed dials are retried on the next maintenance tick).
    pub reconnect_backoff_base: Nanos,
    /// Upper bound of the reconnection backoff.
    pub reconnect_backoff_cap: Nanos,
    /// Disconnect a peer whose buffered-but-unframed bytes exceed this
    /// after a delivery is drained. A well-formed stream can never hold
    /// more than one incomplete frame, so the default is exactly one
    /// maximal frame (`HEADER_SIZE + MAX_MESSAGE_SIZE`); a drip-fed
    /// eternally-incomplete frame can no longer pin unbounded memory.
    pub recv_buffer_limit: usize,
}

impl Default for NodeConfig {
    fn default() -> Self {
        NodeConfig {
            network: Network::Regtest,
            core_version: CoreVersion::V0_20,
            peer_policy: PeerPolicy::Stock,
            ban_threshold: btc_wire::constants::DEFAULT_BANSCORE_THRESHOLD,
            ban_duration: btc_wire::constants::DEFAULT_BANTIME_SECS * SECS,
            listen_port: btc_wire::types::DEFAULT_PORT,
            max_inbound: MAX_INBOUND_CONNECTIONS,
            target_outbound: MAX_OUTBOUND_CONNECTIONS,
            outbound_targets: Vec::new(),
            ping_interval: 120 * SECS,
            cost: CostModel::default(),
            punish_bad_checksum_score: None,
            handshake_timeout: 0,
            ping_timeout: 0,
            reconnect_backoff_base: 0,
            reconnect_backoff_cap: 0,
            recv_buffer_limit: btc_wire::message::HEADER_SIZE
                + btc_wire::encode::MAX_MESSAGE_SIZE,
        }
    }
}

/// One row of [`Node::peer_infos`] — the `getpeerinfo` RPC analogue.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PeerInfo {
    /// The peer's connection identifier.
    pub addr: SockAddr,
    /// Whether the peer dialed us.
    pub inbound: bool,
    /// Whether the version handshake finished.
    pub handshake_complete: bool,
    /// Messages received from this peer.
    pub messages_received: u64,
    /// Current misbehavior score.
    pub ban_score: u32,
    /// Current good-score credit.
    pub good_score: u64,
    /// Current trust tier (always `Normal` under the stock policy).
    pub tier: Tier,
}

/// The node application.
pub struct Node {
    /// Configuration (read-only after start).
    pub config: NodeConfig,
    peers: BTreeMap<ConnId, Peer>,
    /// Misbehavior scores.
    pub tracker: MisbehaviorTracker,
    /// Ban list.
    pub banman: BanMan,
    /// Good-score credits (§VIII).
    pub goodscore: GoodScoreTracker,
    /// Trust-tier reputation engine (consulted only under
    /// [`PeerPolicy::TrustTiers`]).
    pub reputation: ReputationEngine,
    /// Chain state.
    pub chain: Chain,
    /// Mempool.
    pub mempool: Mempool,
    /// Telemetry consumed by the detection engine.
    pub telemetry: Telemetry,
    /// Known-address table with the §VI-D diversity metric.
    pub addrman: AddrMan,
    pending_outbound: BTreeSet<SockAddr>,
    /// Reconnection backoff per outbound address: `(consecutive failures,
    /// earliest next dial)`. Only consulted when
    /// `reconnect_backoff_base > 0`.
    reconnect_backoff: BTreeMap<SockAddr, (u32, Nanos)>,
    pending_local_blocks: Vec<btc_wire::Block>,
    pending_local_txs: Vec<btc_wire::Transaction>,
    rebuild_requested: bool,
    half_open_inbound: usize,
    now: Nanos,
    version_nonce: u64,
    /// Reusable scratch for the batch frame scan (`node/recv.rs`), so the
    /// steady-state receive path allocates nothing per delivery.
    frame_scratch: Vec<RawMessage>,
}

impl Node {
    /// Creates a node from `config`.
    pub fn new(config: NodeConfig) -> Self {
        let ban_policy = match config.peer_policy {
            PeerPolicy::NeverBan => BanPolicy::NeverBan,
            PeerPolicy::Disabled => BanPolicy::Disabled,
            PeerPolicy::Stock | PeerPolicy::GoodScore { .. } | PeerPolicy::TrustTiers => {
                BanPolicy::Standard
            }
        };
        let mut tracker = MisbehaviorTracker::new(config.core_version, ban_policy);
        tracker.threshold = config.ban_threshold;
        let banman = BanMan::with_duration(config.ban_duration);
        let mut addrman = AddrMan::new();
        for a in &config.outbound_targets {
            addrman.add(0, *a, AddrSource::Seed);
        }
        let reputation = ReputationEngine::new(ReputationConfig {
            version: config.core_version,
            ..ReputationConfig::default()
        });
        Node {
            tracker,
            banman,
            goodscore: GoodScoreTracker::new(),
            reputation,
            chain: Chain::with_network(config.network),
            mempool: Mempool::default(),
            telemetry: Telemetry::default(),
            peers: BTreeMap::new(),
            addrman,
            pending_outbound: BTreeSet::new(),
            reconnect_backoff: BTreeMap::new(),
            pending_local_blocks: Vec::new(),
            pending_local_txs: Vec::new(),
            rebuild_requested: false,
            half_open_inbound: 0,
            now: 0,
            version_nonce: 0,
            frame_scratch: Vec::new(),
            config,
        }
    }

    /// Currently connected peers.
    pub fn peer_count(&self) -> usize {
        self.peers.len()
    }

    /// Currently connected inbound peers.
    pub fn inbound_count(&self) -> usize {
        self.peers.values().filter(|p| p.inbound).count()
    }

    /// Currently connected outbound peers.
    pub fn outbound_count(&self) -> usize {
        self.peers.values().filter(|p| !p.inbound).count()
    }

    /// The peer connected from `addr`, if any.
    pub fn peer_by_addr(&self, addr: &SockAddr) -> Option<&Peer> {
        self.peers.values().find(|p| p.addr == *addr)
    }

    /// `getpeerinfo`-style snapshot of every connection.
    pub fn peer_infos(&self) -> Vec<PeerInfo> {
        self.peers
            .values()
            .map(|p| PeerInfo {
                addr: p.addr,
                inbound: p.inbound,
                handshake_complete: p.handshake_complete(),
                messages_received: p.messages_received,
                ban_score: self.tracker.score(&p.addr),
                good_score: self.goodscore.score(self.now, &p.addr),
                tier: if self.tiers_active() {
                    self.reputation.tier(self.now, &p.addr)
                } else {
                    Tier::Normal
                },
            })
            .collect()
    }

    /// Current ban score of `addr`.
    pub fn ban_score(&self, addr: &SockAddr) -> u32 {
        self.tracker.score(addr)
    }

    /// Outbound dials in flight (diagnostic).
    pub fn pending_outbound(&self) -> Vec<SockAddr> {
        self.pending_outbound.iter().copied().collect()
    }

    /// The paper's detection *response* (§VII): on an anomaly alert, drop
    /// every inbound connection and rebuild the peer set. Takes effect at
    /// the next maintenance tick (≤1 s of virtual time later).
    ///
    /// No sweep calls it, on purpose: the paper's detector only observes,
    /// so `repro reputation` reports its verdict as a column and leaves
    /// who is banned to the node's policy. The reaction is kept as the
    /// paper's §VII hook, exercised end to end by
    /// `tests/end_to_end.rs::detection_response_drops_and_rebuilds_connections`.
    pub fn request_connection_rebuild(&mut self) {
        self.rebuild_requested = true;
    }

    /// Queues a locally produced block; it is accepted and announced to
    /// peers on the next maintenance tick (≤1 s of virtual time later).
    pub fn submit_block(&mut self, block: btc_wire::Block) {
        self.pending_local_blocks.push(block);
    }

    /// Queues a locally produced transaction for mempool acceptance and
    /// announcement on the next maintenance tick.
    pub fn submit_tx(&mut self, tx: btc_wire::Transaction) {
        self.pending_local_txs.push(tx);
    }

    fn flush_local_submissions(&mut self, ctx: &mut Ctx<'_>) {
        for block in std::mem::take(&mut self.pending_local_blocks) {
            if let BlockVerdict::Accepted { .. } = self.chain.accept_block(&block) {
                self.evict_confirmed(&block);
                let inv = Inventory::new(InvType::Block, block.hash());
                self.broadcast_inv(ctx, inv, Some(&block), None);
            }
        }
        for tx in std::mem::take(&mut self.pending_local_txs) {
            let txid = tx.txid();
            if self.mempool.accept_owned(tx) == TxVerdict::Accepted {
                self.broadcast_inv(ctx, Inventory::new(InvType::Tx, txid), None, None);
            }
        }
    }

    fn our_netaddr(&self, ctx: &Ctx<'_>) -> NetAddr {
        NetAddr::new(ctx.ip(), self.config.listen_port)
    }

    /// Frames `msg` once into its wire buffer and hands that buffer to the
    /// transport, which segments it without a copy.
    fn send_message(&self, ctx: &mut Ctx<'_>, conn: ConnId, msg: &Message) {
        ctx.send_bytes(conn, msg.to_frame(self.config.network));
    }

    fn send_version(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, peer_addr: SockAddr) {
        // A fresh full-width draw per handshake: the previous
        // counter-or-RNG mix left the low 16 bits predictable, defeating
        // the nonce's self-connection check.
        self.version_nonce = ctx.rng().next_u64();
        let mut v = VersionMessage::new(
            self.our_netaddr(ctx),
            NetAddr::new(peer_addr.ip, peer_addr.port),
            self.version_nonce,
        );
        v.start_height = self.chain.height() as i32;
        v.timestamp = (self.now / SECS) as i64;
        self.send_message(ctx, conn, &Message::Version(v));
    }

    /// Whether the trust-tier engine governs this node's peers.
    fn tiers_active(&self) -> bool {
        self.config.peer_policy == PeerPolicy::TrustTiers
    }

    /// Forwards tier transitions recorded by the engine since the last
    /// call into telemetry (so `events_in_window` carries them).
    fn note_tier_events(&mut self) {
        for t in self.reputation.take_transitions() {
            self.telemetry.record_tier_change(t.time, t.peer, t.from, t.to);
        }
    }

    /// The one sanction: count the ban, hand the identifier to `BanMan`
    /// for the ban duration, and drop the connection.
    fn ban_peer(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, addr: SockAddr) {
        self.telemetry.bans += 1;
        self.banman.ban(self.now, addr);
        self.disconnect(ctx, conn, true);
    }

    /// The one strike path: applies `rule` against the peer under the
    /// configured policy, and bans and disconnects when the policy says
    /// so. [`Misbehavior::ChecksumCorrupt`] has no stock penalty; it is
    /// scored with the ablation's `punish_bad_checksum_score` points.
    /// Returns `true` when the peer was banned.
    fn misbehaving(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, rule: Misbehavior) -> bool {
        let Some(peer) = self.peers.get(&conn) else {
            return false;
        };
        let (addr, inbound) = (peer.addr, peer.inbound);
        let raw_points = match rule {
            Misbehavior::ChecksumCorrupt => self.config.punish_bad_checksum_score,
            _ => None,
        };
        let banned = match self.config.peer_policy {
            PeerPolicy::TrustTiers => {
                let outcome = match raw_points {
                    Some(points) => self.reputation.strike_raw(self.now, addr, points),
                    None => self.reputation.on_misbehavior(self.now, addr, inbound, rule),
                };
                self.note_tier_events();
                if outcome.graylisted() {
                    self.telemetry.graylists += 1;
                }
                outcome.banned()
            }
            // Good-score shield (§VIII): peers with earned credit are
            // exempt from identifier banning.
            PeerPolicy::GoodScore { min_credit }
                if self.goodscore.is_trusted(self.now, &addr, min_credit) =>
            {
                false
            }
            _ => {
                let verdict = match raw_points {
                    Some(points) => self.tracker.penalize(self.now, addr, points),
                    None => self.tracker.misbehaving(self.now, addr, inbound, rule),
                };
                matches!(verdict, Verdict::Ban { .. })
            }
        };
        if banned {
            self.ban_peer(ctx, conn, addr);
        }
        banned
    }

    fn disconnect(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, local: bool) {
        if let Some(peer) = self.peers.remove(&conn) {
            self.tracker.forget(&peer.addr);
            if local {
                ctx.close(conn);
            }
            if !peer.inbound {
                // Losing an outbound peer: rebuild a replacement — the
                // reconnection behaviour the `c` detection feature watches.
                self.telemetry.record_reconnect(self.now, peer.addr);
                self.note_outbound_failure(peer.addr);
                self.fill_outbound(ctx);
            }
        }
    }

    /// Records a failed or lost outbound connection for the capped
    /// exponential reconnection backoff. Inert unless
    /// `reconnect_backoff_base` is set, so the clean scenarios redial at
    /// full speed exactly as before.
    fn note_outbound_failure(&mut self, addr: SockAddr) {
        let base = self.config.reconnect_backoff_base;
        if base == 0 {
            return;
        }
        let cap = self.config.reconnect_backoff_cap.max(base);
        let entry = self.reconnect_backoff.entry(addr).or_insert((0, 0));
        entry.0 = entry.0.saturating_add(1);
        let delay = base
            .saturating_mul(1u64 << u64::from(entry.0 - 1).min(20))
            .min(cap);
        entry.1 = self.now.saturating_add(delay);
    }

    fn fill_outbound(&mut self, ctx: &mut Ctx<'_>) {
        let connected: BTreeSet<SockAddr> = self
            .peers
            .values()
            .filter(|p| !p.inbound)
            .map(|p| p.addr)
            .collect();
        let mut want = self
            .config
            .target_outbound
            .saturating_sub(connected.len() + self.pending_outbound.len());
        if want == 0 {
            return;
        }
        let mut candidates: Vec<SockAddr> = self
            .addrman
            .usable(self.now, &self.banman)
            .filter(|a| !connected.contains(a) && !self.pending_outbound.contains(a))
            .filter(|a| {
                self.config.reconnect_backoff_base == 0
                    || self
                        .reconnect_backoff
                        .get(a)
                        .map_or(true, |&(_, next_ok)| next_ok <= self.now)
            })
            .collect();
        if self.tiers_active() {
            // Deprioritize graylisted addresses: they are only dialed when
            // no better candidate remains (stable sort keeps the addrman
            // order within each group).
            candidates.sort_by_key(|a| self.reputation.deprioritized(self.now, a));
        }
        for addr in candidates {
            if want == 0 {
                break;
            }
            ctx.connect(addr);
            self.pending_outbound.insert(addr);
            want -= 1;
        }
    }

    /// Announces `inv` to every relaying peer but `except`. `block` is the
    /// block a block `inv` names, in hand: BIP152 high-bandwidth peers get
    /// it pushed as CMPCTBLOCK instead of the INV.
    fn broadcast_inv(
        &self,
        ctx: &mut Ctx<'_>,
        inv: Inventory,
        block: Option<&Block>,
        except: Option<ConnId>,
    ) {
        let tiers = self.tiers_active();
        let network = self.config.network;
        let relays_to = |p: &Peer| {
            p.handshake_complete()
                && Some(p.conn) != except
                // Graylisted peers are dropped from relay for the duration
                // of the soft-ban.
                && !(tiers && self.reputation.deprioritized(self.now, &p.addr))
        };
        // BIP152 high-bandwidth mode: peers that negotiated it get new
        // blocks pushed as CMPCTBLOCK instead of announced via INV.
        let compact = block
            .filter(|_| {
                self.peers
                    .values()
                    .any(|p| p.cmpct_announce && relays_to(p))
            })
            .map(|b| {
                let [nonce_seed, ..] = inv.hash.0;
                let cb =
                    btc_wire::compact::CompactBlock::from_block(b, u64::from(nonce_seed) | 0x100);
                Message::CmpctBlock(cb).to_frame(network)
            });
        // Each distinct frame is encoded once, on first use, and every
        // target gets a refcounted clone of it.
        let mut inv_frame = None;
        for p in self.peers.values().filter(|p| relays_to(p)) {
            let frame = match &compact {
                Some(cb) if p.cmpct_announce => cb,
                _ => &*inv_frame.get_or_insert_with(|| Message::Inv(vec![inv]).to_frame(network)),
            };
            ctx.send_bytes(p.conn, frame.clone());
        }
    }

    /// The post-handshake message handlers; returns without effect for
    /// messages that need no action. `raw` is the frame `msg` was decoded
    /// from, its checksum already verified against its payload.
    #[allow(clippy::too_many_lines)]
    fn handle_message(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, msg: Message, raw: &RawMessage) {
        let checksum = raw.header.checksum;
        // One arm per `Message` variant and no wildcard arm may be added:
        // rustc then refuses a new wire command until it is dispatched
        // here, as `RULES_BY_COMMAND` refuses one without a rule row.
        match msg {
            // Version/Verack are consumed by the handshake path before
            // this dispatcher runs; a stray duplicate that slips through
            // is simulated input, not a programming error — ignore it
            // rather than panic.
            Message::Version(_) | Message::Verack => {}
            Message::Ping(n) => {
                // The PONG's payload is the PING's eight bytes, so their
                // checksums are equal: echo the verified one, hash nothing.
                let pong = Message::Pong(n).to_frame_with_checksum(self.config.network, checksum);
                ctx.send_bytes(conn, pong);
            }
            Message::Pong(n) => {
                if let Some(peer) = self.peers.get_mut(&conn) {
                    if peer.ping_pending.map(|(want, _)| want) == Some(n) {
                        peer.ping_pending = None;
                    }
                }
            }
            Message::NotFound(_) | Message::Reject(_) | Message::MerkleBlock(_) => {}
            Message::Addr(addrs) => {
                if addrs.len() as u64 > MAX_ADDR_TO_SEND {
                    self.misbehaving(ctx, conn, Misbehavior::AddrOversize);
                    return;
                }
                for a in addrs {
                    self.addrman
                        .add(self.now, SockAddr::new(a.addr.ip, a.addr.port), AddrSource::Gossip);
                }
            }
            Message::GetAddr => {
                let list: Vec<TimestampedAddr> = self
                    .addrman
                    .addresses()
                    .take(MAX_ADDR_TO_SEND as usize)
                    .map(|a| TimestampedAddr {
                        time: (self.now / SECS) as u32,
                        addr: NetAddr::new(a.ip, a.port),
                    })
                    .collect();
                self.send_message(ctx, conn, &Message::Addr(list));
            }
            Message::Inv(mut wanted) => {
                if wanted.len() as u64 > MAX_INV_SZ {
                    self.misbehaving(ctx, conn, Misbehavior::InvOversize);
                    return;
                }
                let announced = wanted.len();
                let (mempool, chain) = (&self.mempool, &self.chain);
                wanted.retain(|inv| match inv.kind {
                    InvType::Tx | InvType::WitnessTx => !mempool.contains(&inv.hash),
                    InvType::Block | InvType::WitnessBlock | InvType::CmpctBlock => {
                        !chain.has_block(&inv.hash)
                    }
                    _ => false,
                });
                if wanted.len() == announced && !wanted.is_empty() {
                    // Every item is wanted: INV and GETDATA share one
                    // encoding and `wanted` re-encodes the decoded INV
                    // byte for byte, so the verified checksum is the
                    // GETDATA's. Echo it, hash nothing.
                    let network = self.config.network;
                    let getdata =
                        Message::GetData(wanted).to_frame_with_checksum(network, checksum);
                    ctx.send_bytes(conn, getdata);
                } else if !wanted.is_empty() {
                    self.send_message(ctx, conn, &Message::GetData(wanted));
                }
            }
            Message::GetData(invs) => {
                if invs.len() as u64 > MAX_INV_SZ {
                    self.misbehaving(ctx, conn, Misbehavior::GetDataOversize);
                    return;
                }
                let mut not_found = Vec::new();
                for inv in invs {
                    match inv.kind {
                        InvType::Block | InvType::WitnessBlock => {
                            // The stored frame is the reply: a refcount.
                            if let Some(frame) = self.chain.block_frame(&inv.hash) {
                                ctx.send_bytes(conn, frame.clone());
                            } else {
                                not_found.push(inv);
                            }
                        }
                        InvType::Tx | InvType::WitnessTx => {
                            if let Some(t) = self.mempool.get(&inv.hash).cloned() {
                                self.send_message(ctx, conn, &Message::Tx(t));
                            } else {
                                not_found.push(inv);
                            }
                        }
                        InvType::CmpctBlock => {
                            if let Some(b) = self.chain.block(&inv.hash) {
                                let nonce = ctx.rng().next_u64();
                                let cb = btc_wire::compact::CompactBlock::from_block(&b, nonce);
                                self.send_message(ctx, conn, &Message::CmpctBlock(cb));
                            } else {
                                not_found.push(inv);
                            }
                        }
                        InvType::FilteredBlock => {
                            // BIP37: serve a MERKLEBLOCK plus the matching
                            // transactions, filtered by the peer's loaded
                            // bloom filter.
                            let filter = self
                                .peers
                                .get(&conn)
                                .and_then(|p| p.filter.clone());
                            let block =
                                filter.and_then(|f| self.chain.block(&inv.hash).map(|b| (b, f)));
                            match block {
                                Some((b, f)) => {
                                    let mut matched = Vec::new();
                                    let mut flags = Vec::new();
                                    for (i, tx) in b.txs.iter().enumerate() {
                                        if f.contains(tx.txid().as_bytes()) {
                                            matched.push((i, tx.clone()));
                                            flags.push(1u8);
                                        } else {
                                            flags.push(0u8);
                                        }
                                    }
                                    let mb = MerkleBlockMsg {
                                        header: b.header,
                                        total_txs: b.txs.len() as u32,
                                        hashes: matched.iter().map(|(_, t)| t.txid()).collect(),
                                        flags,
                                    };
                                    self.send_message(ctx, conn, &Message::MerkleBlock(mb));
                                    for (_, tx) in matched {
                                        self.send_message(ctx, conn, &Message::Tx(tx));
                                    }
                                }
                                None => not_found.push(inv),
                            }
                        }
                        _ => not_found.push(inv),
                    }
                }
                if !not_found.is_empty() {
                    self.send_message(ctx, conn, &Message::NotFound(not_found));
                }
            }
            Message::GetHeaders(loc) => {
                let headers = self
                    .chain
                    .headers_after(&loc.hashes, MAX_HEADERS_RESULTS as usize);
                self.send_message(
                    ctx,
                    conn,
                    &Message::Headers(headers.into_iter().map(HeadersEntry).collect()),
                );
            }
            Message::GetBlocks(loc) => {
                let headers = self.chain.headers_after(&loc.hashes, 500);
                let invs: Vec<Inventory> = headers
                    .iter()
                    .map(|h| Inventory::new(InvType::Block, h.hash()))
                    .collect();
                if !invs.is_empty() {
                    self.send_message(ctx, conn, &Message::Inv(invs));
                }
            }
            Message::Headers(entries) => {
                if entries.len() as u64 > MAX_HEADERS_RESULTS {
                    self.misbehaving(ctx, conn, Misbehavior::HeadersOversize);
                    return;
                }
                let Some(first_parent) = entries.first().map(|e| e.0.prev_block) else {
                    return;
                };
                // Non-connecting batch: first header's parent unknown.
                if !self.chain.has_header(&first_parent) {
                    let strikes = if let Some(p) = self.peers.get_mut(&conn) {
                        p.unconnecting_headers += 1;
                        p.unconnecting_headers
                    } else {
                        return;
                    };
                    if strikes % MAX_UNCONNECTING_HEADERS == 0 {
                        self.misbehaving(ctx, conn, Misbehavior::HeadersUnconnecting);
                    }
                    return;
                }
                // Batch must be internally continuous.
                let mut prev = first_parent;
                for e in &entries {
                    if e.0.prev_block != prev {
                        self.misbehaving(ctx, conn, Misbehavior::HeadersNonContinuous);
                        return;
                    }
                    prev = e.0.hash();
                }
                let mut fetch = Vec::new();
                for e in &entries {
                    if let HeaderVerdict::Accepted { .. } = self.chain.accept_header(&e.0) {
                        let h = e.0.hash();
                        if !self.chain.has_block(&h) {
                            fetch.push(Inventory::new(InvType::Block, h));
                        }
                    }
                }
                if let Some(p) = self.peers.get_mut(&conn) {
                    p.unconnecting_headers = 0;
                }
                if !fetch.is_empty() {
                    self.send_message(ctx, conn, &Message::GetData(fetch));
                }
            }
            Message::Tx(tx) => {
                let txid = tx.txid();
                match self.mempool.accept_owned(tx) {
                    TxVerdict::InvalidSegwit(_) => {
                        self.misbehaving(ctx, conn, Misbehavior::TxInvalidSegwit);
                    }
                    TxVerdict::Accepted => {
                        let inv = Inventory::new(InvType::Tx, txid);
                        self.broadcast_inv(ctx, inv, None, Some(conn));
                    }
                    _ => {}
                }
            }
            Message::Block(block) => {
                self.process_block(ctx, conn, block, Some(raw));
            }
            Message::Mempool => {
                let invs: Vec<Inventory> = self
                    .mempool
                    .txids()
                    .into_iter()
                    .take(MAX_INV_SZ as usize)
                    .map(|h| Inventory::new(InvType::Tx, h))
                    .collect();
                self.send_message(ctx, conn, &Message::Inv(invs));
            }
            Message::FilterLoad(f) => {
                if !f.is_within_size_constraints() {
                    self.misbehaving(ctx, conn, Misbehavior::FilterLoadOversize);
                    return;
                }
                if let Some(p) = self.peers.get_mut(&conn) {
                    p.filter = Some(f);
                }
            }
            Message::FilterAdd(fa) => {
                if !fa.is_within_size_constraints() {
                    self.misbehaving(ctx, conn, Misbehavior::FilterAddOversize);
                    return;
                }
                let has_filter = self
                    .peers
                    .get(&conn)
                    .map(|p| p.filter.is_some())
                    .unwrap_or(false);
                if !has_filter {
                    // 0.20.0: FILTERADD without a loaded filter from a
                    // >=70011 peer is a 100-point misbehavior.
                    self.misbehaving(ctx, conn, Misbehavior::FilterAddProtocolVersion);
                    return;
                }
                if let Some(p) = self.peers.get_mut(&conn) {
                    if let Some(f) = p.filter.as_mut() {
                        f.insert(&fa.data);
                    }
                }
            }
            Message::FilterClear => {
                if let Some(p) = self.peers.get_mut(&conn) {
                    p.filter = None;
                }
            }
            Message::SendHeaders => {
                if let Some(p) = self.peers.get_mut(&conn) {
                    p.prefers_headers = true;
                }
            }
            Message::FeeFilter(rate) => {
                if let Some(p) = self.peers.get_mut(&conn) {
                    p.fee_filter = rate;
                }
            }
            Message::SendCmpct(sc) => {
                if let Some(p) = self.peers.get_mut(&conn) {
                    p.cmpct_announce = sc.announce;
                }
            }
            Message::CmpctBlock(cb) => {
                if cb.check().is_err() {
                    self.misbehaving(ctx, conn, Misbehavior::CmpctBlockInvalid);
                    return;
                }
                let keys = short_id_keys(&cb.header, cb.nonce);
                let mempool = &self.mempool;
                match cb.reconstruct(&|sid| mempool.by_short_id(keys, sid)) {
                    Ok(block) => {
                        self.process_block(ctx, conn, block, None);
                    }
                    Err(missing) => {
                        let hash = cb.header.hash();
                        let req = btc_wire::compact::BlockTxnRequest::from_absolute(hash, &missing);
                        if let Some(p) = self.peers.get_mut(&conn) {
                            p.pending_compact = Some(Box::new((hash, cb)));
                        }
                        self.send_message(ctx, conn, &Message::GetBlockTxn(req));
                    }
                }
            }
            Message::GetBlockTxn(req) => {
                let Some(block) = self.chain.block(&req.block_hash) else {
                    return;
                };
                match req.absolute_indices(block.txs.len() as u64) {
                    Err(_) => {
                        // Table I: out-of-bounds indices, +100.
                        self.misbehaving(ctx, conn, Misbehavior::GetBlockTxnOutOfBounds);
                    }
                    Ok(idxs) => {
                        // `absolute_indices` bounds-checked against the tx
                        // count, but the lookup stays fallible so a future
                        // validator change cannot turn peer input into a
                        // panic.
                        let mut txs = Vec::with_capacity(idxs.len());
                        for i in &idxs {
                            match block.txs.get(*i as usize) {
                                Some(tx) => txs.push(tx.clone()),
                                None => {
                                    self.misbehaving(
                                        ctx,
                                        conn,
                                        Misbehavior::GetBlockTxnOutOfBounds,
                                    );
                                    return;
                                }
                            }
                        }
                        self.send_message(
                            ctx,
                            conn,
                            &Message::BlockTxn(btc_wire::compact::BlockTxn {
                                block_hash: req.block_hash,
                                txs,
                            }),
                        );
                    }
                }
            }
            Message::BlockTxn(bt) => {
                let Some((_, cb)) = self
                    .peers
                    .get_mut(&conn)
                    .and_then(|p| p.pending_compact.take_if(|pending| pending.0 == bt.block_hash))
                    .map(|pending| *pending)
                else {
                    return;
                };
                let supplied = std::cell::RefCell::new(bt.txs.iter());
                let keys = short_id_keys(&cb.header, cb.nonce);
                let mempool = &self.mempool;
                let reconstructed = cb.reconstruct(&|sid| {
                    mempool
                        .by_short_id(keys, sid)
                        .or_else(|| supplied.borrow_mut().next().cloned())
                });
                if let Ok(block) = reconstructed {
                    self.process_block(ctx, conn, block, None);
                }
            }
        }
    }

    /// Evicts the transactions of an accepted block from the mempool: they
    /// are confirmed.
    fn evict_confirmed(&mut self, block: &Block) {
        for tx in &block.txs {
            self.mempool.remove(&tx.txid());
        }
    }

    /// Accepts `block` into the chain, which stores `received`, the frame
    /// it was decoded from, when there is one (else a frame it builds),
    /// and acts on the verdict with the block in hand.
    fn process_block(
        &mut self,
        ctx: &mut Ctx<'_>,
        conn: ConnId,
        block: Block,
        received: Option<&RawMessage>,
    ) {
        match self.chain.accept_block_framed(&block, received) {
            BlockVerdict::Accepted { .. } => {
                if let Some(addr) = self.peers.get(&conn).map(|p| p.addr) {
                    match self.config.peer_policy {
                        PeerPolicy::GoodScore { .. } => self.goodscore.credit(self.now, addr),
                        PeerPolicy::TrustTiers => {
                            // Good behaviour: credit promotion + strike
                            // forgiveness in the tier engine.
                            self.reputation.on_good_block(self.now, addr);
                            self.note_tier_events();
                        }
                        PeerPolicy::Stock | PeerPolicy::NeverBan | PeerPolicy::Disabled => {}
                    }
                }
                self.evict_confirmed(&block);
                let inv = Inventory::new(InvType::Block, block.hash());
                self.broadcast_inv(ctx, inv, Some(&block), Some(conn));
            }
            BlockVerdict::Duplicate => {}
            BlockVerdict::Mutated(_) => {
                self.misbehaving(ctx, conn, Misbehavior::BlockMutated);
            }
            BlockVerdict::CachedInvalid => {
                self.misbehaving(ctx, conn, Misbehavior::BlockCachedInvalid);
            }
            BlockVerdict::PrevInvalid => {
                self.misbehaving(ctx, conn, Misbehavior::BlockPrevInvalid);
            }
            BlockVerdict::PrevMissing => {
                self.misbehaving(ctx, conn, Misbehavior::BlockPrevMissing);
            }
        }
    }

    /// Handshake gatekeeping; returns `true` when `msg` was consumed.
    fn handshake(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, msg: &Message) -> bool {
        let Some(peer) = self.peers.get(&conn) else {
            return true;
        };
        let inbound = peer.inbound;
        let peer_addr = peer.addr;
        let has_version = peer.version.is_some();
        let got_verack = peer.got_verack;
        match msg {
            Message::Version(v) => {
                if has_version {
                    // Table I: duplicate VERSION, +1 (inbound only).
                    self.misbehaving(ctx, conn, Misbehavior::DuplicateVersion);
                    return true;
                }
                if let Some(p) = self.peers.get_mut(&conn) {
                    p.version = Some(v.clone());
                }
                if inbound {
                    self.send_version(ctx, conn, peer_addr);
                }
                self.send_message(ctx, conn, &Message::Verack);
                // Ask for their chain once the session is up.
                let loc = BlockLocator {
                    version: btc_wire::types::PROTOCOL_VERSION,
                    hashes: self.chain.locator(),
                    stop: Hash256::ZERO,
                };
                self.send_message(ctx, conn, &Message::GetHeaders(loc));
                true
            }
            Message::Verack => {
                if !has_version {
                    // A VERACK before VERSION is still "message before
                    // VERSION".
                    self.misbehaving(ctx, conn, Misbehavior::MessageBeforeVersion);
                    return true;
                }
                if let Some(p) = self.peers.get_mut(&conn) {
                    p.got_verack = true;
                }
                true
            }
            _ => {
                if !has_version {
                    // Table I: message before VERSION, +1.
                    self.misbehaving(ctx, conn, Misbehavior::MessageBeforeVersion);
                    return true;
                }
                if !got_verack {
                    // Table I (0.20.0 only): message before VERACK, +1.
                    self.misbehaving(ctx, conn, Misbehavior::MessageBeforeVerack);
                    return true;
                }
                false
            }
        }
    }

}

impl App for Node {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.now = ctx.now();
        ctx.listen(self.config.listen_port);
        self.fill_outbound(ctx);
        ctx.set_timer(SECS, timers::MAINTAIN);
        if self.config.ping_interval > 0 {
            ctx.set_timer(self.config.ping_interval, timers::PING);
        }
    }

    fn on_accept(&mut self, peer: SockAddr) -> bool {
        if self.banman.is_banned(self.now, &peer) {
            self.telemetry.refused_banned += 1;
            return false;
        }
        // Count half-open accepts too: a burst of SYNs must not overshoot
        // the slot limit before any handshake completes.
        if self.inbound_count() + self.half_open_inbound >= self.config.max_inbound {
            // Under the good-score countermeasure (and the trust-tier
            // policy) the node runs CKB-style eviction instead of
            // refusing: accept, then evict the worst-standing inbound peer
            // (§IX-A).
            if !self.config.peer_policy.evicts() {
                return false;
            }
        }
        self.half_open_inbound += 1;
        true
    }

    fn on_connected(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, peer: SockAddr, inbound: bool) {
        self.now = ctx.now();
        let mut state = Peer::new(conn, peer, inbound);
        state.connected_at = self.now;
        self.peers.insert(conn, state);
        if inbound {
            self.half_open_inbound = self.half_open_inbound.saturating_sub(1);
            if self.config.peer_policy.evicts() && self.inbound_count() > self.config.max_inbound {
                // Slot pressure: evict the inbound peer with the least
                // earned credit (ties broken deterministically). A fresh
                // zero-credit connection evicts itself before it can push
                // out anyone with history. Under the trust-tier policy
                // graylisted peers are the first eviction choice, then
                // lowest engine credit.
                let candidates: Vec<SockAddr> = self
                    .peers
                    .values()
                    .filter(|p| p.inbound)
                    .map(|p| p.addr)
                    .collect();
                let victim = if self.tiers_active() {
                    candidates
                        .iter()
                        .min_by_key(|a| {
                            (
                                !self.reputation.deprioritized(self.now, a),
                                self.reputation.credit_tracker().score(self.now, a),
                                **a,
                            )
                        })
                        .copied()
                } else {
                    self.goodscore.eviction_candidate(self.now, candidates.iter())
                };
                if let Some(victim) = victim {
                    if let Some(victim_conn) =
                        self.peers.values().find(|p| p.addr == victim).map(|p| p.conn)
                    {
                        self.disconnect(ctx, victim_conn, true);
                        if victim_conn == conn {
                            return;
                        }
                    }
                }
            }
        }
        if !inbound {
            self.pending_outbound.remove(&peer);
            self.reconnect_backoff.remove(&peer);
            self.addrman.mark_success(self.now, &peer);
            self.send_version(ctx, conn, peer);
        }
    }

    fn on_data(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, _peer: SockAddr, data: &[u8]) {
        self.now = ctx.now();
        if let Some(p) = self.peers.get_mut(&conn) {
            p.recv_buf.push(data);
            self.process_frames(ctx, conn);
        }
    }

    fn on_closed(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, _peer: SockAddr, _reason: CloseReason) {
        self.now = ctx.now();
        self.disconnect(ctx, conn, false);
    }

    fn on_connect_failed(&mut self, ctx: &mut Ctx<'_>, dst: SockAddr) {
        self.now = ctx.now();
        self.pending_outbound.remove(&dst);
        self.addrman.mark_failure(&dst);
        self.note_outbound_failure(dst);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        self.now = ctx.now();
        match token {
            timers::MAINTAIN => {
                self.banman.sweep(self.now);
                if self.rebuild_requested {
                    self.rebuild_requested = false;
                    let inbound: Vec<ConnId> = self
                        .peers
                        .values()
                        .filter(|p| p.inbound)
                        .map(|p| p.conn)
                        .collect();
                    for conn in inbound {
                        self.disconnect(ctx, conn, true);
                    }
                }
                // Resilience hardening (both knobs default-off): evict
                // peers stuck mid-handshake and peers that stopped
                // answering keepalives.
                if self.config.handshake_timeout > 0 || self.config.ping_timeout > 0 {
                    let hs = self.config.handshake_timeout;
                    let pt = self.config.ping_timeout;
                    let now = self.now;
                    let stale: Vec<ConnId> = self
                        .peers
                        .values()
                        .filter(|p| {
                            (hs > 0
                                && !p.handshake_complete()
                                && now.saturating_sub(p.connected_at) >= hs)
                                || (pt > 0
                                    && p.ping_pending
                                        .map_or(false, |(_, sent)| now.saturating_sub(sent) >= pt))
                        })
                        .map(|p| p.conn)
                        .collect();
                    for conn in stale {
                        self.disconnect(ctx, conn, true);
                    }
                }
                self.fill_outbound(ctx);
                self.flush_local_submissions(ctx);
                ctx.set_timer(SECS, timers::MAINTAIN);
            }
            timers::PING => {
                let targets: Vec<ConnId> = self
                    .peers
                    .values()
                    .filter(|p| p.handshake_complete())
                    .map(|p| p.conn)
                    .collect();
                for conn in targets {
                    let nonce = ctx.rng().next_u64();
                    if let Some(p) = self.peers.get_mut(&conn) {
                        // Track the latest nonce but keep the timestamp of
                        // the first unanswered ping, so the timeout
                        // measures total silence.
                        let sent = p.ping_pending.map_or(self.now, |(_, t)| t);
                        p.ping_pending = Some((nonce, sent));
                    }
                    self.send_message(ctx, conn, &Message::Ping(nonce));
                }
                ctx.set_timer(self.config.ping_interval, timers::PING);
            }
            _ => {}
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}
