//! # btc-attack
//!
//! The attack framework of the reproduced paper: Bitcoin-Message-based DoS
//! (BM-DoS) flooding with its three ban-score-evading vectors, the
//! pre-/post-connection Defamation attacks of §IV, the network-layer ICMP
//! flooding baseline, the attacker-side socket model, and the real-hardware
//! impact-cost meter that regenerates Table II.
//!
//! All attackers are [`btc_netsim::App`]s and run inside the simulator
//! against real [`btc_node::Node`] victims; none of them require (or get)
//! any cooperation from the victim's code.
//!
//! ```
//! use btc_attack::payload::FloodPayload;
//! use btc_netsim::SockAddr;
//! use btc_node::banscore::{unprotected_message_types, CoreVersion};
//! use btc_wire::encode::DecodeError;
//! use btc_wire::message::{read_frame, verify_checksum, FrameResult};
//! use btc_wire::types::Network;
//!
//! // Vector 1: PING has no ban-score rule in Table I, so it is never punished.
//! assert!(unprotected_message_types(CoreVersion::V0_20).contains(&"ping"));
//!
//! // Vector 2: a corrupted checksum drops the frame before tracking.
//! let bogus = FloodPayload::BogusChecksumBlock { payload_bytes: 1_000 }
//!     .build(Network::Regtest, SockAddr::default(), SockAddr::default(), 0);
//! let Ok(FrameResult::Frame { raw, .. }) = read_frame(Network::Regtest, &bogus) else {
//!     panic!("the frame itself is well-formed");
//! };
//! assert!(matches!(verify_checksum(&raw), Err(DecodeError::BadChecksum { .. })));
//! ```

#![warn(missing_docs)]

pub mod defamation;
pub mod evasive;
pub mod flood;
pub mod meter;
pub mod payload;
pub mod reset;
pub mod socket_model;

pub use defamation::{DefamationPayload, PostConnDefamer, PreConnDefamer};
pub use evasive::{EvasiveConfig, EvasiveFlooder};
pub use flood::{FloodConfig, Flooder, IcmpFlooder};
pub use payload::FloodPayload;
pub use reset::TcpResetAttacker;
