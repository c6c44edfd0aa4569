//! Canonical metric names. Call sites across the workspace register handles
//! by these constants so snapshots, tests and dashboards agree on spelling.

/// Plan-cache lookups that found a cached plan.
pub const PLAN_CACHE_HITS: &str = "plan_cache.hits";
/// Plan-cache lookups that found nothing.
pub const PLAN_CACHE_MISSES: &str = "plan_cache.misses";
/// Plans inserted into the plan cache.
pub const PLAN_CACHE_INSERTIONS: &str = "plan_cache.insertions";
/// Plan-cache entries dropped to make room.
pub const PLAN_CACHE_EVICTIONS: &str = "plan_cache.evictions";
/// Plan-cache entries dropped because their schema epoch went stale.
pub const PLAN_CACHE_INVALIDATIONS: &str = "plan_cache.invalidations";

/// Physical plans lowered to `CompiledPlan` form.
pub const ENGINE_COMPILES: &str = "engine.compiles";
/// Scalar subqueries evaluated while seeding compiled-plan scalar slots.
pub const ENGINE_SUBQUERY_EVALS: &str = "engine.subquery_evals";

/// Column-name resolutions against a schema (data substrate).
pub const DATA_NAME_RESOLUTIONS: &str = "data.name_resolutions";
/// Schema inferences over literal relations (data substrate).
pub const DATA_SCHEMA_INFERENCES: &str = "data.schema_inferences";
/// Columns extracted from rows into typed form (data substrate). A base
/// relation's columns are extracted once per snapshot and then cached.
pub const DATA_COLUMN_EXTRACTIONS: &str = "data.column_extractions";

/// Distinct strings currently held by the global interner (gauge).
pub const INTERNER_STRINGS: &str = "interner.strings";

/// Tasks executed by the shared worker pool (workers and helpers alike).
pub const EXEC_TASKS_EXECUTED: &str = "exec.tasks_executed";
/// Pool tasks taken from another worker's deque (work-stealing traffic).
pub const EXEC_TASKS_STOLEN: &str = "exec.tasks_stolen";

/// Prepared-query executions completed by the session facade.
pub const SESSION_EXECUTIONS: &str = "session.executions";
/// Latency histogram (nanoseconds) of prepared-query executions.
pub const SESSION_EXECUTE_NS: &str = "session.execute_ns";

/// Requests completed by the query server (all types, success or error).
pub const SERVER_REQUESTS: &str = "server.requests";
/// Requests waiting for an execution slot at the server's admission gate
/// (gauge).
pub const SERVER_QUEUE_DEPTH: &str = "server.queue_depth";
/// Requests shed by admission control (gate full or over connection cap).
pub const SERVER_REJECTED: &str = "server.rejected";
/// Database snapshots pinned by readers since process start.
pub const SERVER_SNAPSHOT_PINS: &str = "server.snapshot_pins";
/// Currently live pinned snapshots (gauge).
pub const SERVER_SNAPSHOT_PINS_LIVE: &str = "server.snapshot_pins_live";
/// Client connections currently open (gauge).
pub const SERVER_CONNECTIONS: &str = "server.connections";
/// Latency histogram (nanoseconds) of admitted server requests, from
/// taking an execution slot to the response written (slot wait excluded).
pub const SERVER_REQUEST_NS: &str = "server.request_ns";
/// Idle connections the server closed after `idle_timeout_ms`.
pub const SERVER_IDLE_CLOSED: &str = "server.idle_closed";
/// Requests that failed because their deadline expired (waiting for a slot
/// or running).
pub const SERVER_DEADLINE_EXCEEDED: &str = "server.deadline_exceeded";

/// Records appended to the write-ahead log.
pub const WAL_APPENDS: &str = "wal.appends";
/// Bytes appended to the write-ahead log (payload + envelope).
pub const WAL_APPEND_BYTES: &str = "wal.append_bytes";
/// `fsync` calls issued by the durability layer (appends and checkpoints).
pub const WAL_FSYNCS: &str = "wal.fsyncs";
/// Full-snapshot checkpoints written.
pub const WAL_CHECKPOINTS: &str = "wal.checkpoints";
/// Crash recoveries performed (checkpoint load + WAL replay).
pub const WAL_RECOVERIES: &str = "wal.recoveries";
/// WAL records replayed during recovery.
pub const WAL_RECOVERED_RECORDS: &str = "wal.recovered_records";
/// Torn or corrupt WAL tails truncated during recovery.
pub const WAL_TORN_TAILS: &str = "wal.torn_tails";
/// Latency histogram (nanoseconds) of durable appends (encode+write+fsync).
pub const WAL_APPEND_NS: &str = "wal.append_ns";

/// Replication segments a primary pushed to subscribers (all kinds:
/// records, checkpoints, rotates, heartbeats, closes).
pub const REPL_SEGMENTS_SENT: &str = "repl.segments_sent";
/// Payload bytes shipped in replication segments.
pub const REPL_SEGMENT_BYTES: &str = "repl.segment_bytes";
/// Replica acknowledgements a primary processed.
pub const REPL_ACKS: &str = "repl.acks";
/// Record batches a replica applied (CRC-checked, fsync'd, published).
pub const REPL_BATCHES_APPLIED: &str = "repl.batches_applied";
/// Record bytes a replica applied.
pub const REPL_APPLY_BYTES: &str = "repl.apply_bytes";
/// Checkpoint bootstraps a replica performed (full state transfer).
pub const REPL_BOOTSTRAPS: &str = "repl.bootstraps";
/// `Rotate` segments a replica followed (folding its WAL in lockstep).
pub const REPL_ROTATIONS: &str = "repl.rotations";
/// Times a replica re-subscribed after a stream fault or clean close.
pub const REPL_RESUBSCRIBES: &str = "repl.resubscribes";
/// Promotions (replica made writable by a `Promote` request).
pub const REPL_PROMOTIONS: &str = "repl.promotions";
/// Unacknowledged durable bytes of the laggiest live subscriber (gauge).
pub const REPL_LAG_BYTES: &str = "repl.lag_bytes";
/// Nanoseconds sync-mode inserts spent waiting for their replica quorum.
pub const REPL_QUORUM_WAIT_NS: &str = "repl.quorum_wait_ns";
/// Sync-mode inserts whose quorum never arrived before the ack timeout.
pub const REPL_QUORUM_TIMEOUTS: &str = "repl.quorum_timeouts";

/// Client-side request retries (overload backoff and timeout resends).
pub const CLIENT_RETRIES: &str = "client.retries";
