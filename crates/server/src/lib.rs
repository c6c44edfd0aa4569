//! # certus-server
//!
//! A long-running, std-only TCP query service over one incomplete database.
//!
//! The crate turns the per-process [`certus::Session`] facade into a
//! concurrent service:
//!
//! * [`protocol`] — the hand-rolled length-prefixed binary wire format:
//!   requests (ping / prepare / execute / query / insert / stats / close /
//!   shutdown), responses, and codecs for the full `RaExpr` algebra. The
//!   grammar is documented in `PROTOCOL.md` at the repository root.
//! * [`server`] — the service itself: an acceptor and per-connection reader
//!   threads that execute their connection's requests in order, behind an
//!   admission gate bounding how many run and how many wait. Reads execute
//!   against pinned
//!   [`SnapshotStore`](certus::data::snapshot::SnapshotStore) snapshots, so
//!   writers never block readers; plans are shared process-wide through one
//!   [`certus::SharedPlanCache`] keyed by (fingerprint, certainty/semantics,
//!   schema epoch, threads).
//! * [`client`] — `certus-client`, a blocking client with closed-loop and
//!   pipelined (open-loop) request styles (both exercised by
//!   `tests/server.rs`); [`ClusterClient`] adds replica-aware read distribution,
//!   read failover and write redirect-following.
//! * [`replication`] — WAL-shipping replication: a primary streams its
//!   durable log to read replicas over `Subscribe`/`WalSegment`/`ReplicaAck`
//!   frames, with sync-quorum or async-lag modes and operator-driven
//!   `Promote` failover (log shipping, not consensus — see the module docs).
//!
//! ```no_run
//! use certus_server::{Server, ServerConfig};
//! use certus_server::client::Client;
//! use certus_server::protocol::WireCertainty;
//! use certus::{Database, RaExpr};
//!
//! let server = Server::start(Database::new(), ServerConfig::default()).unwrap();
//! let mut client = Client::connect(server.local_addr()).unwrap();
//! let epoch = client.ping().unwrap();
//! assert_eq!(epoch, server.epoch());
//! client.close().unwrap();
//! server.shutdown();
//! ```

pub mod client;
pub mod config;
pub mod protocol;
pub mod replication;
pub mod server;

pub use certus::algebra::RaExpr;
pub use client::{Client, ClientError, ClusterClient, RetryPolicy, WireAnswers};
pub use config::ServerConfig;
pub use protocol::{ErrorCode, ReplRole, Request, Response, ServerStats, WireCertainty};
pub use replication::{ReplMode, ReplicationConfig};
pub use server::{answer_body, Server};
