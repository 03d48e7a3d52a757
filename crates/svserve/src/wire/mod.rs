//! The distributed shard fabric: a versioned wire protocol pushing the shard
//! boundary across processes.
//!
//! ## Protocol
//!
//! Every message is one length-prefixed, checksummed frame
//! (the `frame` codec): `[u32 len][u64 fnv64 checksum][JSON body]`.  A connection
//! opens with a `Hello{format_version, fingerprint}` exchange — any other
//! version or a model-identity mismatch refuses the connection instead of
//! silently serving different answers — then runs request-reply, one client
//! frame answered by one shard frame: `Submit` → `Response`; `SubmitTraced` →
//! `TraceReply`, which adds the spans the shard recorded under the driver's
//! trace context; `Stats` → `StatsReply`, the shard's live telemetry snapshot
//! ([`crate::RegistrySnapshot`]) that [`ShardFleet::fleet_stats`] merges
//! fleet-wide and `svobs top` diffs poll to poll.  A submission may instead
//! be answered `Busy` or `Closed`, and any other frame `Err`, a counted
//! protocol error.  One shard-side dispatcher answers every frame, for socket
//! connections and [`LoopbackTransport`] alike.  The declared length is capped
//! ([`MAX_FRAME_LEN`]) *before* allocation and the checksum is verified
//! *before* parsing, so a corrupt peer degrades to a counted error, never a
//! panic or an unbounded allocation.
//!
//! ## Transports
//!
//! A [`Transport`] is one exchange: frame in, frame out.
//!
//! * [`LoopbackTransport`] — in process, every frame still encoded and
//!   decoded, for deterministic tests that cover the codec;
//! * [`UnixTransport`] — `std::os::unix::net` stream to a
//!   [`ShardServer`] (or the `shard-serve` binary), with read/write
//!   timeouts so a killed shard can never hang a client.
//!
//! ## Placement and determinism
//!
//! [`shard_for_key`] places each request by content hash — a pure function of
//! content and shard count — so per-shard caches stay disjoint and a
//! [`ShardFleet`] evaluation is byte-identical to the in-process run at any
//! shard count, warm or cold.  `Busy` survives the
//! wire: the fleet counts it in [`FleetMetrics::shed_busy`], as a local pool
//! counts its own sheds.

mod frame;
mod remote;
mod server;
mod transport;

pub use frame::{
    decode_frame, encode_frame, read_frame, write_frame, Frame, FrameError, WireOutcome,
    MAX_FRAME_LEN, WIRE_FORMAT_VERSION,
};
pub use remote::{shard_for_key, FleetMetrics, FleetStats, RemoteShard, ShardFleet, ShardStats};
pub use server::ShardServer;
pub use transport::{LoopbackTransport, Transport, UnixTransport, WireError};
