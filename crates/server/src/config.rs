//! Server tuning knobs.

use crate::replication::ReplicationConfig;
use certus::algebra::NullSemantics;
use std::path::PathBuf;

/// Configuration for a [`crate::Server`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Address to bind. Port 0 picks an ephemeral port; read the actual
    /// address back from [`crate::Server::local_addr`].
    pub addr: String,
    /// Admission control: connections beyond this cap are refused with
    /// [`crate::protocol::ErrorCode::TooManyConnections`].
    pub max_connections: usize,
    /// Admission control: how many requests may wait for an execution slot,
    /// admitted in arrival order. Requests beyond it are shed with
    /// [`crate::protocol::ErrorCode::Overloaded`] instead of building
    /// unbounded backlog.
    pub queue_capacity: usize,
    /// Execution slots: how many requests run at once, across all
    /// connections. Each runs on its connection's reader thread over its
    /// own pinned snapshot.
    pub executors: usize,
    /// Intra-query parallelism: worker threads the engine fans out on for a
    /// single request (one pool shared by every running request).
    pub engine_threads: usize,
    /// Null-comparison semantics sessions run under.
    pub semantics: NullSemantics,
    /// Capacity of the process-wide shared plan cache.
    pub cache_capacity: usize,
    /// Poll granularity for connection reads and the accept loop, in
    /// milliseconds. Smaller is more responsive to shutdown; larger burns
    /// less idle CPU.
    pub poll_interval_ms: u64,
    /// Close a connection that has sent nothing for this long since its
    /// last response, announcing the close with a clean `Ack` on the
    /// server channel (request id 0) first. `0` disables idle reaping.
    pub idle_timeout_ms: u64,
    /// Durability: when set, the server opens a
    /// [`certus::data::wal::DurableStore`] in this directory — recovering
    /// any state a previous process left there — and every `Insert` is
    /// WAL-logged and fsync'd *before* it is acknowledged. `None` serves
    /// from memory only (the pre-durability behavior).
    pub data_dir: Option<PathBuf>,
    /// In durable mode, fold the WAL into a fresh full checkpoint after
    /// this many logged records (bounds recovery replay time). `0` never
    /// checkpoints automatically.
    pub checkpoint_every: u64,
    /// WAL-shipping replication (requires [`ServerConfig::data_dir`] —
    /// replication ships the durable log). `None` runs standalone;
    /// [`ReplicationConfig::primary`] / [`ReplicationConfig::replica`]
    /// build the two roles. See the `replication` module docs for the
    /// failover model.
    pub replication: Option<ReplicationConfig>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            max_connections: 256,
            queue_capacity: 1024,
            executors: 4,
            engine_threads: 2,
            semantics: NullSemantics::Sql,
            cache_capacity: 128,
            poll_interval_ms: 20,
            idle_timeout_ms: 300_000,
            data_dir: None,
            checkpoint_every: 1024,
            replication: None,
        }
    }
}
