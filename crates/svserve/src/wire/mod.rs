//! The shard fabric's frame protocol and its in-process transport.
//!
//! ## Protocol
//!
//! Every message is one length-prefixed, checksummed frame
//! (the `frame` codec): `[u32 len][u64 fnv64 checksum][JSON body]`.  A
//! connection runs request-reply, one client frame answered by one shard
//! frame: `Submit` → `Response`.  A submission may instead be answered
//! `Closed` (or, by a peer that sheds, `Busy`), and any other frame `Err`, a
//! counted protocol error.  The
//! declared length is capped ([`MAX_FRAME_LEN`]) and the checksum is verified
//! *before* parsing, so corrupt bytes degrade to a counted error, never a
//! panic.
//!
//! ## Transport
//!
//! A [`Transport`] is one exchange: frame in, frame out.
//! [`LoopbackTransport`] runs in process, every frame still encoded and
//! decoded and answered by the one shard-side dispatcher.
//!
//! ## Placement and determinism
//!
//! A [`ShardFleet`] places each request by content hash — a pure function of
//! content and shard count — so per-shard caches stay disjoint and the fleet
//! answers byte-identically to direct submission at any shard count, warm or
//! cold.  A peer's `Busy` survives the wire: the fleet counts it in
//! [`FleetMetrics::shed_busy`].

mod frame;
mod remote;
mod transport;

pub use frame::{decode_frame, encode_frame, Frame, FrameError, WireOutcome, MAX_FRAME_LEN};
pub use remote::{FleetMetrics, ShardFleet};
pub use transport::{LoopbackTransport, Transport, WireError};
