//! A calibrated synthetic "Bitcoin Mainnet" peer.
//!
//! The paper trains its detector on ~35 hours of real Mainnet traffic with
//! a normal arrival rate of 252–390 messages/minute. We have no Mainnet
//! uplink, so this app generates the equivalent: a Poisson mix of
//! transaction announcements (`INV` → `GETDATA` → `TX`), keepalive pings
//! and address gossip, calibrated so that three feeders put the target
//! into the paper's normal band (see DESIGN.md, substitution table).

use btc_netsim::packet::SockAddr;
use btc_netsim::sim::{App, Ctx};
use btc_netsim::tcp::ConnId;
use btc_netsim::time::from_secs_f64;
use btc_wire::drain::FrameAssembler;
use btc_wire::message::{decode_frame, Message, VersionMessage};
use btc_wire::tx::{OutPoint, Transaction, TxIn, TxOut};
use btc_wire::types::{Hash256, InvType, Inventory, NetAddr, Network, TimestampedAddr};
use std::any::Any;
use std::collections::BTreeMap;

// Per-feeder message rates (events per minute): 3 feeders × (2×40 + 15 +
// 5) = 300 msg/min at the target, inside the paper's observed 252–390 band.

/// Transaction announcements per minute (each produces an `INV` and, after
/// the target's `GETDATA`, a `TX`).
const TX_PER_MIN: f64 = 40.0;
/// Pings per minute.
const PING_PER_MIN: f64 = 15.0;
/// `ADDR` gossip messages per minute.
const ADDR_PER_MIN: f64 = 5.0;

mod timers {
    pub const TX: u64 = 1;
    pub const PING: u64 = 2;
    pub const ADDR: u64 = 3;
}

/// The synthetic mainnet feeder app.
pub struct MainnetPeer {
    /// Who to feed.
    pub target: SockAddr,
    /// Network magic.
    pub network: Network,
    /// Messages sent so far.
    pub sent: u64,
    conn: Option<ConnId>,
    handshaked: bool,
    frames: FrameAssembler,
    txs: BTreeMap<Hash256, Transaction>,
    tx_counter: u64,
}

impl MainnetPeer {
    /// Creates a feeder for `target`.
    pub fn new(target: SockAddr) -> Self {
        MainnetPeer {
            target,
            network: Network::Regtest,
            sent: 0,
            conn: None,
            handshaked: false,
            frames: FrameAssembler::new(Network::Regtest),
            txs: BTreeMap::new(),
            tx_counter: 0,
        }
    }

    fn send_msg(&mut self, ctx: &mut Ctx<'_>, msg: &Message) {
        if let Some(conn) = self.conn {
            if ctx.send_bytes(conn, msg.to_frame(self.network)) {
                self.sent += 1;
            }
        }
    }

    fn schedule(&self, ctx: &mut Ctx<'_>, token: u64, per_min: f64) {
        if per_min <= 0.0 {
            return;
        }
        let mean_secs = 60.0 / per_min;
        let wait = ctx.rng().exponential(mean_secs);
        ctx.set_timer(from_secs_f64(wait.clamp(0.001, 600.0)), token);
    }

    fn fresh_tx(&mut self, ctx: &mut Ctx<'_>) -> Transaction {
        self.tx_counter += 1;
        let salt = ctx.rng().next_u64();
        Transaction::new(
            2,
            vec![TxIn::new(OutPoint::new(
                Hash256::hash(&salt.to_le_bytes()),
                (self.tx_counter % 4) as u32,
            ))],
            vec![TxOut::new(
                1_000 + (salt % 100_000) as i64,
                vec![0x51],
            )],
            0,
        )
    }
}

impl App for MainnetPeer {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.conn = Some(ctx.connect(self.target));
    }

    fn on_connected(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, peer: SockAddr, _inbound: bool) {
        self.conn = Some(conn);
        let local = ctx.local_of(conn).unwrap_or_default();
        let v = VersionMessage::new(
            NetAddr::new(local.ip, local.port),
            NetAddr::new(peer.ip, peer.port),
            ctx.rng().next_u64(),
        );
        ctx.send_bytes(conn, Message::Version(v).to_frame(self.network));
    }

    fn on_data(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, _peer: SockAddr, data: &[u8]) {
        self.frames.push(data);
        while let Some(raw) = self.frames.next_frame() {
            match decode_frame(&raw) {
                Ok(Message::Version(_)) => {
                    ctx.send_bytes(conn, Message::Verack.to_frame(self.network));
                }
                Ok(Message::Verack)
                    if !self.handshaked => {
                        self.handshaked = true;
                        self.schedule(ctx, timers::TX, TX_PER_MIN);
                        self.schedule(ctx, timers::PING, PING_PER_MIN);
                        self.schedule(ctx, timers::ADDR, ADDR_PER_MIN);
                    }
                Ok(Message::GetData(invs)) => {
                    // Serve the transactions we announced.
                    for inv in invs {
                        if let Some(tx) = self.txs.get(&inv.hash).cloned() {
                            self.send_msg(ctx, &Message::Tx(tx));
                        }
                    }
                }
                Ok(Message::Ping(n)) => {
                    self.send_msg(ctx, &Message::Pong(n));
                }
                _ => {}
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        if !self.handshaked {
            return;
        }
        match token {
            timers::TX => {
                let tx = self.fresh_tx(ctx);
                let txid = tx.txid();
                self.txs.insert(txid, tx);
                // Bound the served-tx memory.
                if self.txs.len() > 10_000 {
                    let drop_key = *self.txs.keys().next().expect("nonempty");
                    self.txs.remove(&drop_key);
                }
                self.send_msg(ctx, &Message::Inv(vec![Inventory::new(InvType::Tx, txid)]));
                self.schedule(ctx, timers::TX, TX_PER_MIN);
            }
            timers::PING => {
                let n = ctx.rng().next_u64();
                self.send_msg(ctx, &Message::Ping(n));
                self.schedule(ctx, timers::PING, PING_PER_MIN);
            }
            timers::ADDR => {
                let count = 1 + ctx.rng().gen_range(10) as u32;
                let now_secs = (ctx.now() / btc_netsim::time::SECS) as u32;
                let addrs = (0..count)
                    .map(|i| TimestampedAddr {
                        time: now_secs,
                        addr: NetAddr::new(
                            [172, 16, (i >> 8) as u8, i as u8],
                            8333,
                        ),
                    })
                    .collect();
                self.send_msg(ctx, &Message::Addr(addrs));
                self.schedule(ctx, timers::ADDR, ADDR_PER_MIN);
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

#[cfg(test)]
mod tests {
    use super::*;
    use btc_netsim::sim::{HostConfig, SimConfig, Simulator};
    use btc_netsim::time::SECS;
    use btc_node::node::{Node, NodeConfig};

    const TARGET: [u8; 4] = [10, 0, 0, 1];

    #[test]
    fn feeders_put_target_in_the_normal_band() {
        let mut sim = Simulator::new(SimConfig::default());
        sim.add_host(
            TARGET,
            Box::new(Node::new(NodeConfig::default())),
            HostConfig::default(),
        );
        for i in 0..3u8 {
            sim.add_host(
                [10, 0, 1, i + 1],
                Box::new(MainnetPeer::new(SockAddr::new(TARGET, 8333))),
                HostConfig::default(),
            );
        }
        // 10 minutes of virtual traffic.
        sim.run_for(10 * 60 * SECS);
        let node: &Node = sim.app(TARGET).unwrap();
        let total = node.telemetry.total_in_window(60 * SECS, 9 * 60 * SECS);
        let per_min = total as f64 / 8.0;
        assert!(
            (180.0..500.0).contains(&per_min),
            "message rate {per_min}/min"
        );
        // No feeder ever got punished: the traffic is clean.
        assert_eq!(node.telemetry.bans, 0);
        assert_eq!(node.tracker.tracked_peers(), 0);
        // TX and INV should dominate the distribution.
        let counts = node.telemetry.counts_in_window(0, 10 * 60 * SECS);
        let tx = counts[btc_node::metrics::msg_type_id("tx").unwrap() as usize];
        let inv = counts[btc_node::metrics::msg_type_id("inv").unwrap() as usize];
        let ping = counts[btc_node::metrics::msg_type_id("ping").unwrap() as usize];
        assert!(tx > ping && inv > ping, "tx {tx} inv {inv} ping {ping}");
    }
}
