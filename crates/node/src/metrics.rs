//! Node telemetry: the Monitor component of the paper's detection engine
//! taps these counters.
//!
//! Everything the three detection features need is recorded here:
//! per-message-type arrival timestamps (for the overall message rate `n`
//! and the count distribution `Λ`) and outbound-peer reconnection events
//! (for the reconnection rate `c`).

use btc_netsim::packet::SockAddr;
use btc_netsim::time::Nanos;

use crate::banscore::Tier;

/// Compact message-type index (position in
/// [`btc_wire::message::ALL_COMMANDS`]).
pub type MsgTypeId = u8;

/// Resolves a command string to its compact id.
pub fn msg_type_id(command: &str) -> Option<MsgTypeId> {
    btc_wire::message::ALL_COMMANDS
        .iter()
        .position(|c| *c == command)
        .map(|i| i as MsgTypeId)
}

/// Resolves a compact id back to its command string (`"?"` for an id
/// outside the table, so a corrupt record cannot panic a report).
pub fn msg_type_name(id: MsgTypeId) -> &'static str {
    btc_wire::message::ALL_COMMANDS
        .get(id as usize)
        .copied()
        .unwrap_or("?")
}

/// One received-message record.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MsgRecord {
    /// Arrival time.
    pub time: Nanos,
    /// Message type.
    pub msg_type: MsgTypeId,
    /// Payload size in bytes.
    pub size: u32,
    /// Sender.
    pub from: SockAddr,
}

/// What happened in one [`TelemetryEvent`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TelemetryEventKind {
    /// A message of the given type arrived.
    Message(MsgTypeId),
    /// An outbound reconnection was initiated after losing the peer.
    Reconnect,
    /// The trust-tier reputation engine moved the peer between tiers.
    TierChange {
        /// Tier before the transition.
        from: Tier,
        /// Tier after the transition.
        to: Tier,
    },
}

/// One event of the merged telemetry stream: the per-peer feed the
/// streaming detector consumes (see `btc_detect::serve`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TelemetryEvent {
    /// When it happened.
    pub time: Nanos,
    /// The peer it concerns (sender for messages, lost peer for
    /// reconnections).
    pub peer: SockAddr,
    /// What happened.
    pub kind: TelemetryEventKind,
}

/// One outbound-reconnection record (a replacement outbound connection was
/// initiated after losing one).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReconnectRecord {
    /// When the reconnection was initiated.
    pub time: Nanos,
    /// The peer that was lost.
    pub lost: SockAddr,
}

/// One tier-transition record from the trust-tier reputation engine.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TierChangeRecord {
    /// When the transition happened.
    pub time: Nanos,
    /// The peer that moved.
    pub peer: SockAddr,
    /// Tier before the transition.
    pub from: Tier,
    /// Tier after the transition.
    pub to: Tier,
}

/// The full telemetry log of a node.
#[derive(Clone, Debug, Default)]
pub struct Telemetry {
    /// Every accepted (checksum-valid, decodable) message, in arrival
    /// order.
    ///
    /// **Invariant:** `time` never decreases along the log. Only
    /// [`Telemetry::record_message`] appends, and the node passes its
    /// simulation clock, which never runs backwards. The window queries
    /// binary-search on this order, so a caller that pushes records out of
    /// order directly gets wrong window counts.
    pub messages: Vec<MsgRecord>,
    /// Outbound reconnection events.
    pub reconnects: Vec<ReconnectRecord>,
    /// Tier transitions from the trust-tier reputation engine (empty under
    /// the stock policy).
    pub tier_changes: Vec<TierChangeRecord>,
    /// Frames dropped for a bad Bitcoin-header checksum.
    pub bad_checksum_frames: u64,
    /// Frames dropped as undecodable/unknown.
    pub undecodable_frames: u64,
    /// Peers disconnected by the ban mechanism.
    pub bans: u64,
    /// Inbound connections refused because the identifier was banned.
    pub refused_banned: u64,
    /// Peers moved into the graylist soft-ban (trust-tier policy only).
    pub graylists: u64,
    /// Frames dropped by the graylist service rate limit.
    pub graylist_dropped: u64,
}

impl Telemetry {
    /// Records a message arrival. `time` must not precede the last
    /// recorded arrival (the order invariant of [`Telemetry::messages`]).
    pub fn record_message(&mut self, time: Nanos, msg_type: MsgTypeId, size: u32, from: SockAddr) {
        debug_assert!(
            self.messages.last().is_none_or(|m| m.time <= time),
            "telemetry messages recorded out of time order"
        );
        self.messages.push(MsgRecord {
            time,
            msg_type,
            size,
            from,
        });
    }

    /// Records an outbound reconnection.
    pub fn record_reconnect(&mut self, time: Nanos, lost: SockAddr) {
        self.reconnects.push(ReconnectRecord { time, lost });
    }

    /// Records a tier transition.
    pub fn record_tier_change(&mut self, time: Nanos, peer: SockAddr, from: Tier, to: Tier) {
        self.tier_changes.push(TierChangeRecord {
            time,
            peer,
            from,
            to,
        });
    }

    /// The messages within `[start, end)`: two binary searches over the
    /// time-ordered log. An inverted window (`start > end`) is empty.
    fn messages_in_window(&self, start: Nanos, end: Nanos) -> &[MsgRecord] {
        let lo = self.messages.partition_point(|m| m.time < start);
        let hi = self.messages.partition_point(|m| m.time < end);
        self.messages.get(lo..hi).unwrap_or_default()
    }

    /// Counts messages per type within `[start, end)`, indexed by
    /// [`MsgTypeId`].
    pub fn counts_in_window(&self, start: Nanos, end: Nanos) -> [u64; 26] {
        let mut out = [0u64; 26];
        for m in self.messages_in_window(start, end) {
            if let Some(slot) = out.get_mut(m.msg_type as usize) {
                *slot += 1;
            }
        }
        out
    }

    /// Total messages within `[start, end)`.
    pub fn total_in_window(&self, start: Nanos, end: Nanos) -> u64 {
        self.messages_in_window(start, end).len() as u64
    }

    /// Reconnections within `[start, end)`.
    pub fn reconnects_in_window(&self, start: Nanos, end: Nanos) -> u64 {
        self.reconnects
            .iter()
            .filter(|r| r.time >= start && r.time < end)
            .count() as u64
    }

    /// The merged, time-ordered event stream within `[start, end)`: the
    /// recorded traffic a streaming detector replays message by message.
    ///
    /// The message log is in arrival order (its invariant) and sliced by
    /// binary search; reconnections and tier changes are scanned, as
    /// nothing orders them. The merge keeps arrival order and breaks
    /// exact-timestamp ties deterministically (messages, then
    /// reconnections, then tier changes), so replaying the stream is
    /// reproducible.
    pub fn events_in_window(&self, start: Nanos, end: Nanos) -> Vec<TelemetryEvent> {
        let msgs = self
            .messages_in_window(start, end)
            .iter()
            .map(|m| TelemetryEvent {
                time: m.time,
                peer: m.from,
                kind: TelemetryEventKind::Message(m.msg_type),
            });
        let recs = self
            .reconnects
            .iter()
            .filter(|r| r.time >= start && r.time < end)
            .map(|r| TelemetryEvent {
                time: r.time,
                peer: r.lost,
                kind: TelemetryEventKind::Reconnect,
            });
        let tiers = self
            .tier_changes
            .iter()
            .filter(|t| t.time >= start && t.time < end)
            .map(|t| TelemetryEvent {
                time: t.time,
                peer: t.peer,
                kind: TelemetryEventKind::TierChange {
                    from: t.from,
                    to: t.to,
                },
            });
        let mut out: Vec<TelemetryEvent> = msgs.chain(recs).chain(tiers).collect();
        // Stable sort: same-timestamp events keep message-before-reconnect-
        // before-tier-change order from the chain above.
        out.sort_by_key(|e| e.time);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use btc_netsim::prop::{check, Gen};
    use btc_netsim::time::SECS;

    fn from(last: u8) -> SockAddr {
        SockAddr::new([10, 0, 0, last], 8333)
    }

    #[test]
    fn type_ids_roundtrip() {
        for (i, cmd) in btc_wire::message::ALL_COMMANDS.iter().enumerate() {
            assert_eq!(msg_type_id(cmd), Some(i as u8));
            assert_eq!(msg_type_name(i as u8), *cmd);
        }
        assert_eq!(msg_type_id("bogus"), None);
    }

    #[test]
    fn window_counts() {
        let mut t = Telemetry::default();
        let ping = msg_type_id("ping").unwrap();
        let tx = msg_type_id("tx").unwrap();
        t.record_message(SECS, ping, 8, from(1));
        t.record_message(2 * SECS, ping, 8, from(1));
        t.record_message(3 * SECS, tx, 250, from(2));
        t.record_message(10 * SECS, ping, 8, from(1));
        let counts = t.counts_in_window(0, 5 * SECS);
        assert_eq!(counts[ping as usize], 2);
        assert_eq!(counts[tx as usize], 1);
        assert_eq!(t.total_in_window(0, 5 * SECS), 3);
        assert_eq!(t.total_in_window(0, 11 * SECS), 4);
        // Window end is exclusive.
        assert_eq!(t.total_in_window(0, 10 * SECS), 3);
    }

    #[test]
    fn reconnect_windows() {
        let mut t = Telemetry::default();
        t.record_reconnect(SECS, from(9));
        t.record_reconnect(70 * SECS, from(9));
        assert_eq!(t.reconnects_in_window(0, 60 * SECS), 1);
        assert_eq!(t.reconnects_in_window(60 * SECS, 120 * SECS), 1);
    }

    #[test]
    fn event_stream_merges_in_time_order() {
        let mut t = Telemetry::default();
        let ping = msg_type_id("ping").unwrap();
        let tx = msg_type_id("tx").unwrap();
        t.record_message(SECS, ping, 8, from(1));
        t.record_message(3 * SECS, tx, 250, from(2));
        // Reconnect shares a timestamp with a message: message comes first.
        t.record_reconnect(3 * SECS, from(2));
        t.record_reconnect(2 * SECS, from(1));
        t.record_message(10 * SECS, ping, 8, from(1));
        let events = t.events_in_window(0, 10 * SECS);
        assert_eq!(events.len(), 4);
        let times: Vec<Nanos> = events.iter().map(|e| e.time).collect();
        assert_eq!(times, vec![SECS, 2 * SECS, 3 * SECS, 3 * SECS]);
        assert_eq!(events[2].kind, TelemetryEventKind::Message(tx));
        assert_eq!(events[3].kind, TelemetryEventKind::Reconnect);
        assert_eq!(events[3].peer, from(2));
        // Window end is exclusive.
        assert_eq!(t.events_in_window(0, 11 * SECS).len(), 5);
    }

    #[test]
    fn tier_changes_merge_after_same_time_events() {
        let mut t = Telemetry::default();
        let ping = msg_type_id("ping").unwrap();
        t.record_message(SECS, ping, 8, from(1));
        t.record_tier_change(SECS, from(1), Tier::Normal, Tier::Probation);
        t.record_tier_change(5 * SECS, from(1), Tier::Probation, Tier::Graylist);
        let events = t.events_in_window(0, 10 * SECS);
        assert_eq!(events.len(), 3);
        // Same timestamp: the message sorts before the tier change.
        assert_eq!(events[0].kind, TelemetryEventKind::Message(ping));
        assert_eq!(
            events[1].kind,
            TelemetryEventKind::TierChange {
                from: Tier::Normal,
                to: Tier::Probation,
            }
        );
    }

    /// The linear-filter window queries the binary-search ones replaced,
    /// kept as the oracle for `window_queries_match_linear_filter`.
    mod oracle {
        use super::*;

        fn in_window(time: Nanos, start: Nanos, end: Nanos) -> bool {
            time >= start && time < end
        }

        pub fn counts(t: &Telemetry, start: Nanos, end: Nanos) -> [u64; 26] {
            let mut out = [0u64; 26];
            for m in &t.messages {
                if in_window(m.time, start, end) {
                    if let Some(slot) = out.get_mut(m.msg_type as usize) {
                        *slot += 1;
                    }
                }
            }
            out
        }

        pub fn total(t: &Telemetry, start: Nanos, end: Nanos) -> u64 {
            t.messages
                .iter()
                .filter(|m| in_window(m.time, start, end))
                .count() as u64
        }

        pub fn events(t: &Telemetry, start: Nanos, end: Nanos) -> Vec<TelemetryEvent> {
            let msgs = t
                .messages
                .iter()
                .filter(|m| in_window(m.time, start, end))
                .map(|m| TelemetryEvent {
                    time: m.time,
                    peer: m.from,
                    kind: TelemetryEventKind::Message(m.msg_type),
                });
            let recs = t
                .reconnects
                .iter()
                .filter(|r| in_window(r.time, start, end))
                .map(|r| TelemetryEvent {
                    time: r.time,
                    peer: r.lost,
                    kind: TelemetryEventKind::Reconnect,
                });
            let tiers = t
                .tier_changes
                .iter()
                .filter(|c| in_window(c.time, start, end))
                .map(|c| TelemetryEvent {
                    time: c.time,
                    peer: c.peer,
                    kind: TelemetryEventKind::TierChange {
                        from: c.from,
                        to: c.to,
                    },
                });
            let mut out: Vec<TelemetryEvent> = msgs.chain(recs).chain(tiers).collect();
            out.sort_by_key(|e| e.time);
            out
        }
    }

    /// An in-order log: empty, all one timestamp, or a walk whose steps are
    /// often zero, so runs of ties land on the window edges. Reconnects and
    /// tier changes are unordered, as the node may record them.
    fn arb_log(g: &mut Gen) -> Telemetry {
        let mut t = Telemetry::default();
        let n = g.len_in(0, 200);
        let shape = g.u8() % 3;
        let mut time = g.u64_in(0, 1_000);
        for _ in 0..n {
            time += match shape {
                0 => 0,
                _ if g.bool() => 0,
                _ => g.u64_in(1, 50),
            };
            let kind = (g.u8() % 26) as MsgTypeId;
            t.record_message(time, kind, g.u32(), from(g.u8()));
        }
        for _ in 0..g.len_in(0, 8) {
            t.record_reconnect(g.u64_in(0, time + 100), from(g.u8()));
        }
        for _ in 0..g.len_in(0, 8) {
            let (a, b) = (Tier::Normal, Tier::Probation);
            t.record_tier_change(g.u64_in(0, time + 100), from(g.u8()), a, b);
        }
        t
    }

    /// A window bound: a recorded timestamp or its neighbour (the tie
    /// edges), before the log, after it, or anywhere.
    fn arb_bound(g: &mut Gen, t: &Telemetry) -> Nanos {
        let last = t.messages.last().map_or(0, |m| m.time);
        match g.u8() % 5 {
            0 if !t.messages.is_empty() => {
                let m = t.messages[g.usize_in(0, t.messages.len())];
                m.time.saturating_add(g.u64_in(0, 3)).saturating_sub(1)
            }
            1 => 0,
            2 => last + g.u64_in(1, 100),
            3 => Nanos::MAX,
            _ => g.u64_in(0, last + 2),
        }
    }

    #[test]
    fn window_queries_match_linear_filter() {
        check("window_queries_match_linear_filter", |g| {
            let t = arb_log(g);
            for _ in 0..16 {
                let start = arb_bound(g, &t);
                // Empty (`end == start`) and inverted windows included.
                let end = match g.u8() % 4 {
                    0 => start,
                    1 => start.saturating_sub(g.u64_in(1, 40)),
                    _ => arb_bound(g, &t),
                };
                assert_eq!(
                    t.counts_in_window(start, end),
                    oracle::counts(&t, start, end),
                    "counts in [{start}, {end})"
                );
                assert_eq!(
                    t.total_in_window(start, end),
                    oracle::total(&t, start, end),
                    "total in [{start}, {end})"
                );
                assert_eq!(
                    t.events_in_window(start, end),
                    oracle::events(&t, start, end),
                    "events in [{start}, {end})"
                );
            }
        });
    }
}
