//! The debug nub and its wire protocol (paper, Sec. 4.2).
//!
//! A small stub loaded with every target program. It catches breakpoint
//! traps and faults, saves a *context* in target memory, and services
//! little-endian fetch/store requests from the debugger over a [`Wire`]
//! (in-process channels or TCP). The protocol never mentions breakpoints
//! or single-stepping: the debugger implements breakpoints entirely with
//! fetches and stores. If the debugger crashes, the nub preserves the
//! target's state and waits for a new connection.
//!
//! Every request and reply travels in the *session layer*
//! ([`proto::Envelope`]): checksummed, sequence-numbered frames with
//! at-most-once execution on the nub and bounded retransmission in the
//! client, so the protocol survives lossy or corrupting transports.
//! [`fault::FaultyWire`] injects exactly those faults, deterministically,
//! for testing.

pub mod arch;
pub mod client;
pub mod fault;
pub mod nub;
pub mod proto;
pub mod transport;

pub use client::{ClientConfig, NubClient, NubError, NubEvent, WireMetrics};
pub use fault::{FaultConfig, FaultStats, FaultyWire};
pub use nub::{spawn, spawn_machine, NubConfig, NubHandle};
pub use proto::{Envelope, Reply, Request, Sig, MAX_BLOCK};
pub use transport::{channel_pair, ChannelWire, DeadWire, TcpWire, Wire, MAX_FRAME};
