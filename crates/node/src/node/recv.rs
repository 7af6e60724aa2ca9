//! The zero-copy, batch-drained receive path (DESIGN.md §14).
//!
//! One delivery tick runs two phases:
//!
//! * **Phase A — scan.** The peer is resolved once. Every complete frame
//!   in the buffered region is parsed in one pass with
//!   [`read_frame_at`]: payloads are refcounted slices of the peer's
//!   `RecvBuffer` window (no per-frame allocation), the read cursor
//!   advances past each frame, and the frames land in a scratch `Vec`
//!   reused across ticks. Scanning is pure — no charges, no telemetry, no
//!   state changes beyond the cursor and the `messages_received` count —
//!   so batching it cannot reorder anything observable.
//!
//! * **Phase B — process.** Each scanned frame pays the paper's stage
//!   sequence exactly as the frame-at-a-time loop did: charge checksum
//!   (+ interference), verify checksum (**before** any misbehavior
//!   tracking — BM-DoS vector 2 depends on this ordering), charge decode,
//!   decode, charge handler, record telemetry, then handshake gate /
//!   handler. The checksum stage hashes the payload once: the decoder
//!   receives its full digest, which a legacy TX takes as its txid, and
//!   the handler receives the verified frame: a PONG (and a GETDATA asking
//!   for every item of an INV) echoes its header checksum instead of
//!   hashing the same payload bytes again, and an accepted BLOCK is stored
//!   as a copy of it, neither encoded nor hashed. If a frame bans or
//!   disconnects the peer mid-batch, processing stops there, like the old
//!   loop's top-of-iteration peer lookup — later frames (and their CPU
//!   charges) never happen.
//!
//! A framing error found by the scan (wrong magic, oversized length)
//! disconnects the peer after the preceding well-formed frames are
//! processed — the same order the frame-at-a-time loop produced. After a
//! tick, a peer holding more unframed bytes than
//! `NodeConfig::recv_buffer_limit` is disconnected: a valid stream can
//! never buffer more than one incomplete frame.

use super::Node;
use crate::banscore::{Misbehavior, Tier};
use btc_netsim::sim::Ctx;
use btc_netsim::tcp::ConnId;
use btc_wire::encode::{DecodeError, DecodeResult};
use btc_wire::message::{read_frame_at, verify_checksum, FrameResult, Message};

impl Node {
    /// Drains and processes every complete frame buffered for `conn`.
    pub(super) fn process_frames(&mut self, ctx: &mut Ctx<'_>, conn: ConnId) {
        // Phase A: resolve the peer once and scan the whole buffered
        // region. The scratch vector lives on the node so the steady
        // state allocates nothing.
        let mut frames = std::mem::take(&mut self.frame_scratch);
        let mut scan_error: Option<DecodeError> = None;
        {
            let Some(peer) = self.peers.get_mut(&conn) else {
                self.frame_scratch = frames;
                return;
            };
            let window = peer.recv_buf.window();
            let mut offset = 0usize;
            loop {
                match read_frame_at(self.config.network, &window, offset) {
                    Ok(FrameResult::Frame { raw, consumed }) => {
                        offset += consumed;
                        peer.messages_received += 1;
                        frames.push(raw);
                    }
                    Ok(FrameResult::Incomplete) => break,
                    Err(e) => {
                        scan_error = Some(e);
                        break;
                    }
                }
            }
            peer.recv_buf.advance(offset);
        }

        // Phase B: run the per-frame stage sequence in arrival order.
        // Breaking out of the loop drops the remaining frames (and their
        // payload borrows of the peer buffer) with the `Drain`.
        for raw in frames.drain(..) {
            // A mid-batch ban/disconnect removed the peer: stop, exactly
            // where the frame-at-a-time loop stopped. Remaining frames are
            // dropped with the peer's buffer.
            if !self.peers.contains_key(&conn) {
                break;
            }
            // Stage 2: checksum. The victim pays the hash pass for every
            // frame, valid or not.
            ctx.charge_cpu(self.config.cost.checksum_cost(raw.payload.len()));
            let Ok(digest) = verify_checksum(&raw) else {
                // BM-DoS vector 2: dropped before misbehavior tracking;
                // the sender's score never moves.
                self.telemetry.bad_checksum_frames += 1;
                if self.config.punish_bad_checksum_score.is_some() {
                    // Counterfactual design (ablation): treat a
                    // checksum-corrupt frame as misbehavior.
                    self.misbehaving(ctx, conn, Misbehavior::ChecksumCorrupt);
                }
                continue;
            };
            // Trust-tier policy only: account the frame against the peer's
            // flood-pressure bucket and, for graylisted peers, the service
            // rate limit — before the node pays the decode cost. A no-op
            // under the stock policy, keeping its digests bit-identical.
            if self.tiers_active() {
                let Some(addr) = self.peers.get(&conn).map(|p| p.addr) else {
                    break;
                };
                let outcome = self.reputation.on_message(self.now, addr);
                self.note_tier_events();
                if outcome.changed() && outcome.to == Tier::Graylist {
                    self.telemetry.graylists += 1;
                }
                if outcome.banned() {
                    self.ban_peer(ctx, conn, addr);
                    continue;
                }
                if !outcome.deliver {
                    // Graylist service rate limit: the frame is dropped
                    // after the checksum stage, unserviced.
                    self.telemetry.graylist_dropped += 1;
                    continue;
                }
            }
            // Stage 3: decode, reusing the verified digest (a legacy TX
            // takes it as its txid instead of hashing the payload again).
            ctx.charge_cpu(self.config.cost.decode_cost(raw.payload.len()));
            let decoded: DecodeResult<Message> = raw
                .header
                .command_str()
                .and_then(|cmd| Message::decode_verified(cmd, &raw.payload, digest));
            let msg = match decoded {
                Ok(m) => m,
                Err(_) => {
                    // Unknown commands are ignored, like Core; malformed
                    // payloads count the same way.
                    self.telemetry.undecodable_frames += 1;
                    continue;
                }
            };
            // Stage 4: handler + misbehavior tracking.
            ctx.charge_cpu(self.config.cost.handler_cost(&msg));
            if let Some(p) = self.peers.get(&conn) {
                self.telemetry.record_message(
                    self.now,
                    msg.command_index(),
                    raw.payload.len() as u32,
                    p.addr,
                );
            }
            if !self.handshake(ctx, conn, &msg) {
                self.handle_message(ctx, conn, msg, &raw);
            }
        }
        self.frame_scratch = frames;

        if scan_error.is_some() && self.peers.contains_key(&conn) {
            // Wrong magic / insane length: drop the connection (no ban —
            // transport-level garbage).
            self.disconnect(ctx, conn, true);
            return;
        }
        if let Some(peer) = self.peers.get(&conn) {
            if peer.recv_buf.unconsumed() > self.config.recv_buffer_limit {
                // Drip-fed eternally-incomplete frame: bound the buffer.
                self.disconnect(ctx, conn, true);
            }
        }
    }
}
