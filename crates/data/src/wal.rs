//! Durable snapshot storage: a write-ahead log with full-snapshot
//! checkpoints and crash recovery.
//!
//! The in-memory [`SnapshotStore`] gives readers torn-free snapshots and
//! writers atomic publication — but a process crash loses everything. This
//! module adds the missing durability half:
//!
//! * **WAL.** Every write is encoded with the workspace codec
//!   ([`crate::codec`] — the same bytes the server's wire protocol uses),
//!   wrapped in a checksummed envelope (`u32` length, `u32` CRC-32,
//!   payload), appended to the live `wal-<seq>` file and `fsync`'d *before*
//!   the write is acknowledged. An acknowledged write therefore survives
//!   any subsequent crash.
//! * **Checkpoints.** Every `checkpoint_every` records the
//!   full database is written to `checkpoint-<seq+1>.tmp`, `fsync`'d,
//!   atomically renamed to `checkpoint-<seq+1>`, and a fresh empty WAL is
//!   started; only then are the previous checkpoint and WAL deleted.
//!   Recovery never observes a state with no valid checkpoint on disk.
//! * **Recovery.** [`recover`] loads the newest checkpoint whose checksum
//!   validates (falling back to an older one if the newest is damaged) and
//!   replays its WAL record by record. A torn or corrupt record — a crash
//!   mid-append leaves exactly that — *truncates* the log at that point
//!   instead of failing: the tail beyond the first invalid record was never
//!   acknowledged, so dropping it is the correct (and only safe) reading of
//!   the log.
//!
//! The recovery invariant, which the fault-injection tests below and the
//! `experiments chaos` harness check end to end: after a crash at any
//! moment, recovery yields a database containing **every acknowledged
//! write and no torn one**, at a data version no older than the one the
//! crash interrupted.
//!
//! Fault-prone boundaries check the named failpoints [`FP_APPEND`],
//! [`FP_FSYNC`] and `wal.checkpoint` (see [`certus_obs::failpoint`]), so
//! tests can force torn appends, fsync failures and crashed checkpoints
//! deterministically.
//!
//! **Replication hooks.** The same checksummed log doubles as a replication
//! stream: a primary reads record-aligned byte chunks with
//! [`DurableStore::read_chunk`] (plus [`DurableStore::checkpoint_data`] for
//! bootstraps and [`DurableStore::last_rotation`] for fold hand-off), and a
//! replica ingests them with [`DurableStore::apply_records`],
//! [`DurableStore::install_checkpoint`] and [`DurableStore::rotate_to`] —
//! every applied batch is fsync'd locally before it is acknowledged, so
//! fsync-before-ack extends across the wire.

use crate::codec::{self, Reader};
use crate::database::{Database, TableDef};
use crate::snapshot::SnapshotStore;
use crate::tuple::Tuple;
use certus_obs::failpoint::{apply_delay, failpoints, FailAction};
use certus_obs::metrics::registry;
use certus_obs::{names, Timer};
use std::fs::{self, File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Failpoint checked before writing a WAL record ([`FailAction::Torn`]
/// leaves a torn tail behind, modeling a crash mid-append).
pub const FP_APPEND: &str = "wal.append";
/// Failpoint checked before the durability `fsync` of an append.
pub const FP_FSYNC: &str = "wal.fsync";
/// Failpoint checked while writing a checkpoint (before the atomic rename).
pub(crate) const FP_CHECKPOINT: &str = "wal.checkpoint";

/// Upper bound on one record's payload (matches the server's frame cap):
/// a corrupt length prefix fails fast instead of allocating gigabytes.
const MAX_RECORD_LEN: u32 = 64 * 1024 * 1024;

/// Envelope overhead per record: `u32` length + `u32` CRC-32.
const ENVELOPE: usize = 8;

/// Magic + version prefix of a checkpoint payload.
const CHECKPOINT_MAGIC: u32 = 0x434b_5054; // "CKPT"
const CHECKPOINT_VERSION: u8 = 1;

/// Errors surfaced by the durability layer.
#[derive(Debug)]
pub enum WalError {
    /// The underlying filesystem failed.
    Io(std::io::Error),
    /// A write was rejected before touching the log (unknown table, arity
    /// mismatch, …) — the database and the log are unchanged.
    Data(String),
    /// An armed failpoint forced this operation to fail.
    Injected(&'static str),
    /// A failed append left bytes past the last durable record, and cutting
    /// them off failed too. Every write retries the cut first; until one
    /// succeeds, writes are refused rather than stacked after a torn tail.
    Poisoned,
    /// The directory holds checkpoint files but none of them validates.
    /// Serving a fallback (or partial) database over damaged data would
    /// silently drop acknowledged writes, so opening refuses instead.
    Unrecoverable,
}

impl std::fmt::Display for WalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WalError::Io(e) => write!(f, "wal i/o: {e}"),
            WalError::Data(m) => write!(f, "{m}"),
            WalError::Injected(p) => write!(f, "injected fault at {p}"),
            WalError::Poisoned => {
                write!(f, "wal poisoned: the torn tail of a failed append could not be truncated")
            }
            WalError::Unrecoverable => write!(
                f,
                "no checkpoint in the data directory validates; refusing to serve a \
                 partial or fallback database over damaged data"
            ),
        }
    }
}

impl std::error::Error for WalError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WalError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for WalError {
    fn from(e: std::io::Error) -> Self {
        WalError::Io(e)
    }
}

/// Result alias for durability operations.
pub(crate) type WalResult<T> = Result<T, WalError>;

// ---------------------------------------------------------------------------
// CRC-32 (IEEE), table-driven — no external dependency.

fn crc_table() -> &'static [u32; 256] {
    static TABLE: std::sync::OnceLock<[u32; 256]> = std::sync::OnceLock::new();
    TABLE.get_or_init(|| {
        let mut table = [0u32; 256];
        for (i, entry) in table.iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            }
            *entry = c;
        }
        table
    })
}

/// CRC-32 (IEEE 802.3 polynomial) of `bytes`.
pub(crate) fn crc32(bytes: &[u8]) -> u32 {
    let table = crc_table();
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = table[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

// ---------------------------------------------------------------------------
// Record envelopes.

/// Wrap a payload in the on-disk envelope: `u32` LE length, `u32` LE
/// CRC-32 of the payload, payload bytes.
fn envelope(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(ENVELOPE + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// One step of scanning a buffer of envelope records.
enum Scan<'a> {
    /// A complete, checksum-valid record; `next` is the offset after it.
    Ok { payload: &'a [u8], next: usize },
    /// The buffer ends exactly at a record boundary.
    End,
    /// The bytes from the current offset on are torn or corrupt (short
    /// header, short payload, length over the cap, checksum mismatch).
    Torn,
}

/// Scan one envelope record at `at`.
fn scan_record(buf: &[u8], at: usize) -> Scan<'_> {
    if at == buf.len() {
        return Scan::End;
    }
    if buf.len() - at < ENVELOPE {
        return Scan::Torn;
    }
    let len = u32::from_le_bytes(buf[at..at + 4].try_into().unwrap());
    let crc = u32::from_le_bytes(buf[at + 4..at + 8].try_into().unwrap());
    if len > MAX_RECORD_LEN {
        return Scan::Torn;
    }
    let start = at + ENVELOPE;
    let end = match start.checked_add(len as usize) {
        Some(end) if end <= buf.len() => end,
        _ => return Scan::Torn,
    };
    let payload = &buf[start..end];
    if crc32(payload) != crc {
        return Scan::Torn;
    }
    Scan::Ok { payload, next: end }
}

// ---------------------------------------------------------------------------
// WAL record payloads.

/// A logical WAL record. Encoded with the workspace codec; the only kind
/// today is the server's row append.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// Append `rows` to `table` (the already-validated form of the server's
    /// `Insert` request).
    Insert {
        /// Target table.
        table: String,
        /// Rows appended, each matching the table's arity.
        rows: Vec<Tuple>,
    },
}

impl WalRecord {
    /// Encode to the codec byte form (tag, then fields).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            WalRecord::Insert { table, rows } => {
                codec::put_u8(&mut out, 0);
                codec::put_str(&mut out, table);
                codec::put_u32(&mut out, rows.len() as u32);
                for row in rows {
                    codec::put_tuple(&mut out, row);
                }
            }
        }
        out
    }

    /// Decode a payload produced by [`WalRecord::encode`].
    pub fn decode(payload: &[u8]) -> codec::CodecResult<WalRecord> {
        let mut r = Reader::new(payload);
        let record = match r.u8()? {
            0 => {
                let table = r.str()?;
                let n = r.len()?;
                let mut rows = Vec::with_capacity(n);
                for _ in 0..n {
                    rows.push(codec::get_tuple(&mut r)?);
                }
                WalRecord::Insert { table, rows }
            }
            other => return Err(codec::CodecError(format!("unknown wal record tag {other}"))),
        };
        r.finish()?;
        Ok(record)
    }

    /// Apply this record to a database (the replay half of recovery).
    fn apply(&self, db: &mut Database) -> crate::Result<()> {
        match self {
            WalRecord::Insert { table, rows } => db.append(table, rows),
        }
    }
}

// ---------------------------------------------------------------------------
// Checkpoint encoding.

/// Encode the full database: magic, format version, data version, then
/// every table's definition (name, schema, primary key) and instance. The
/// schema epoch is not stored: no plan outlives its process.
fn encode_database(db: &Database) -> Vec<u8> {
    let mut out = Vec::new();
    codec::put_u32(&mut out, CHECKPOINT_MAGIC);
    codec::put_u8(&mut out, CHECKPOINT_VERSION);
    codec::put_u64(&mut out, db.version());
    let defs: Vec<&TableDef> = db.table_defs().collect();
    codec::put_u32(&mut out, defs.len() as u32);
    for def in defs {
        codec::put_str(&mut out, &def.name);
        codec::put_schema(&mut out, &def.schema);
        codec::put_u32(&mut out, def.primary_key.len() as u32);
        for col in &def.primary_key {
            codec::put_str(&mut out, col);
        }
        let rel = db.relation(&def.name).expect("definition implies instance");
        codec::put_relation(&mut out, rel);
    }
    out
}

/// Decode a checkpoint payload back into a database (data version included).
fn decode_database(payload: &[u8]) -> codec::CodecResult<Database> {
    let mut r = Reader::new(payload);
    if r.u32()? != CHECKPOINT_MAGIC {
        return Err(codec::CodecError("bad checkpoint magic".into()));
    }
    let version = r.u8()?;
    if version != CHECKPOINT_VERSION {
        return Err(codec::CodecError(format!("unknown checkpoint version {version}")));
    }
    let data_version = r.u64()?;
    let tables = r.len()?;
    let mut db = Database::new();
    for _ in 0..tables {
        let name = r.str()?;
        let schema = codec::get_schema(&mut r)?;
        let keys = r.len()?;
        let mut primary_key = Vec::with_capacity(keys);
        for _ in 0..keys {
            primary_key.push(r.str()?);
        }
        let rel = codec::get_relation(&mut r)?;
        let def = TableDef { name, schema: schema.shared(), primary_key };
        db.install_table(def, rel);
    }
    r.finish()?;
    db.set_version(data_version);
    Ok(db)
}

// ---------------------------------------------------------------------------
// File naming.

fn checkpoint_path(dir: &Path, seq: u64) -> PathBuf {
    dir.join(format!("checkpoint-{seq:016x}"))
}

fn wal_path(dir: &Path, seq: u64) -> PathBuf {
    dir.join(format!("wal-{seq:016x}"))
}

/// Parse `<prefix>-<seq:016x>` file names back to sequence numbers.
fn parse_seq(name: &str, prefix: &str) -> Option<u64> {
    let rest = name.strip_prefix(prefix)?.strip_prefix('-')?;
    u64::from_str_radix(rest, 16).ok()
}

/// Best-effort directory fsync so renames and creations are themselves
/// durable (a no-op error on filesystems that refuse to sync directories).
fn sync_dir(dir: &Path) {
    if let Ok(d) = File::open(dir) {
        let _ = d.sync_all();
    }
}

// ---------------------------------------------------------------------------
// Recovery.

/// The outcome of [`recover`].
pub struct Recovery {
    /// The recovered database: newest valid checkpoint + replayed WAL.
    pub db: Database,
    /// Sequence of the checkpoint recovery started from.
    pub seq: u64,
    /// WAL records replayed on top of the checkpoint.
    pub replayed: u64,
    /// Valid byte length of the WAL (the torn tail beyond it, if any, has
    /// been truncated away on disk).
    pub wal_len: u64,
    /// Whether a torn/corrupt tail was found and truncated.
    pub truncated: bool,
}

/// Recover the newest consistent database state from `dir`, truncating any
/// torn WAL tail in place. Returns `Ok(None)` when the directory holds no
/// checksum-valid checkpoint (fresh directory, or every checkpoint file is
/// damaged). Never panics on corrupt input: damaged checkpoints fall back
/// to older ones, damaged WAL suffixes are dropped.
pub fn recover(dir: &Path) -> WalResult<Option<Recovery>> {
    let reg = registry();
    let mut checkpoints: Vec<u64> = Vec::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        if let Some(name) = entry.file_name().to_str() {
            if let Some(seq) = parse_seq(name, "checkpoint") {
                checkpoints.push(seq);
            }
        }
    }
    checkpoints.sort_unstable();

    // Newest valid checkpoint wins; a damaged one (torn tmp never renamed
    // cannot occur, but bit rot can) falls back to its predecessor.
    let mut base: Option<(u64, Database)> = None;
    for &seq in checkpoints.iter().rev() {
        let bytes = fs::read(checkpoint_path(dir, seq))?;
        if let Scan::Ok { payload, next } = scan_record(&bytes, 0) {
            if next == bytes.len() {
                if let Ok(db) = decode_database(payload) {
                    base = Some((seq, db));
                    break;
                }
            }
        }
    }
    let Some((seq, mut db)) = base else {
        return Ok(None);
    };

    // Replay the checkpoint's WAL, stopping (and truncating) at the first
    // torn or undecodable record — everything beyond it was never
    // acknowledged.
    let path = wal_path(dir, seq);
    let (mut replayed, mut wal_len, mut truncated) = (0u64, 0u64, false);
    if path.exists() {
        let bytes = fs::read(&path)?;
        let mut at = 0usize;
        loop {
            match scan_record(&bytes, at) {
                Scan::Ok { payload, next } => match WalRecord::decode(payload) {
                    Ok(record) if record.apply(&mut db).is_ok() => {
                        replayed += 1;
                        at = next;
                    }
                    _ => {
                        truncated = true;
                        break;
                    }
                },
                Scan::End => break,
                Scan::Torn => {
                    truncated = true;
                    break;
                }
            }
        }
        wal_len = at as u64;
        if truncated {
            let file = OpenOptions::new().write(true).open(&path)?;
            file.set_len(wal_len)?;
            file.sync_data()?;
            reg.counter(names::WAL_TORN_TAILS).incr();
        }
    }

    reg.counter(names::WAL_RECOVERIES).incr();
    reg.counter(names::WAL_RECOVERED_RECORDS).add(replayed);
    Ok(Some(Recovery { db, seq, replayed, wal_len, truncated }))
}

// ---------------------------------------------------------------------------
// Replication positions and chunks.

/// A position in the durable log: the checkpoint generation (`seq`) plus a
/// byte offset into that generation's WAL file. Offsets always land on
/// record boundaries, so positions order totally within a generation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ReplPosition {
    /// Checkpoint generation the offset refers to.
    pub seq: u64,
    /// Byte offset of durable, checksum-valid records within `wal-<seq>`.
    pub offset: u64,
}

impl std::fmt::Display for ReplPosition {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:x}:{}", self.seq, self.offset)
    }
}

/// Outcome of [`DurableStore::read_chunk`].
#[derive(Debug)]
pub enum WalChunk {
    /// Whole-record-aligned envelope bytes starting at the requested offset.
    Records(Vec<u8>),
    /// The requested position is the current durable position; nothing new.
    UpToDate,
    /// The requested generation is no longer the live one (the log was
    /// folded into a newer checkpoint); consult
    /// [`DurableStore::last_rotation`] or re-bootstrap from a checkpoint.
    Rotated,
}

// ---------------------------------------------------------------------------
// The live WAL handle.

struct Wal {
    file: File,
    /// Bytes of durable, checksum-valid records (the append offset).
    len: u64,
    /// A failed append may have left bytes past `len`; the next write must
    /// truncate them before appending.
    poisoned: bool,
}

impl Wal {
    fn open(path: &Path, valid_len: u64) -> WalResult<Wal> {
        let mut file = OpenOptions::new()
            .create(true)
            .truncate(false)
            .append(false)
            .write(true)
            .read(true)
            .open(path)?;
        // Recovery already truncated torn tails, but be defensive: never
        // append after bytes we have not validated.
        file.set_len(valid_len)?;
        file.seek(SeekFrom::Start(valid_len))?;
        Ok(Wal { file, len: valid_len, poisoned: false })
    }

    /// Append one payload and make it durable. On any failure the log is
    /// restored to its previous length when possible; a torn write that
    /// cannot be cleaned (modeling a crash) poisons the handle until the
    /// next write truncates the tail.
    fn append(&mut self, payload: &[u8]) -> WalResult<()> {
        self.heal()?;
        let reg = registry();
        let record = envelope(payload);

        match apply_delay(failpoints().check(FP_APPEND)) {
            FailAction::Off => {}
            FailAction::Error => return Err(WalError::Injected(FP_APPEND)),
            FailAction::Torn(keep) => {
                // A crash mid-write: part of the record reaches the file and
                // nothing can clean it up. The handle is dead; recovery must
                // truncate this tail.
                let keep = keep.min(record.len());
                let _ = self.file.write_all(&record[..keep]);
                let _ = self.file.sync_data();
                self.poisoned = true;
                return Err(WalError::Injected(FP_APPEND));
            }
            FailAction::SlowMs(_) => unreachable!("apply_delay resolves slow actions"),
        }

        if let Err(e) = self.file.write_all(&record) {
            self.rewind();
            return Err(WalError::Io(e));
        }

        let fsync_ok = match apply_delay(failpoints().check(FP_FSYNC)) {
            FailAction::Off => self.file.sync_data().map_err(WalError::Io),
            _ => Err(WalError::Injected(FP_FSYNC)),
        };
        if let Err(e) = fsync_ok {
            // The record reached the OS but was never durable: take it back
            // out so an unacknowledged write can never resurface.
            self.rewind();
            return Err(e);
        }

        self.len += record.len() as u64;
        reg.counter(names::WAL_APPENDS).incr();
        reg.counter(names::WAL_APPEND_BYTES).add(record.len() as u64);
        reg.counter(names::WAL_FSYNCS).incr();
        Ok(())
    }

    /// Append pre-enveloped record bytes (already checksummed by the node
    /// that produced them) and fsync — the replication ingest path. No
    /// failpoints here: replica-side faults are injected one level up
    /// (`repl.apply`), so arming the primary's WAL failpoints in a test
    /// never cross-fires into an in-process replica.
    fn append_enveloped(&mut self, bytes: &[u8]) -> WalResult<()> {
        self.heal()?;
        if let Err(e) = self.file.write_all(bytes) {
            self.rewind();
            return Err(WalError::Io(e));
        }
        if let Err(e) = self.file.sync_data() {
            self.rewind();
            return Err(WalError::Io(e));
        }
        self.len += bytes.len() as u64;
        let reg = registry();
        reg.counter(names::WAL_APPENDS).incr();
        reg.counter(names::WAL_APPEND_BYTES).add(bytes.len() as u64);
        reg.counter(names::WAL_FSYNCS).incr();
        Ok(())
    }

    /// Truncate back to the last durable record boundary after a failed
    /// append; if even that fails, poison the handle. Returns whether the
    /// truncation worked.
    fn rewind(&mut self) -> bool {
        let ok = self.file.set_len(self.len).is_ok()
            && self.file.seek(SeekFrom::Start(self.len)).is_ok();
        self.poisoned = !ok;
        ok
    }

    /// Before a write on a poisoned handle, cut the torn tail off as
    /// [`Wal::open`] does, so no record is ever stacked after it.
    fn heal(&mut self) -> WalResult<()> {
        if self.poisoned && !self.rewind() {
            return Err(WalError::Poisoned);
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// The durable store.

/// [`SnapshotStore`] plus durability: writes go through the WAL (fsync'd
/// before acknowledgement), checkpoints bound replay time, and
/// [`DurableStore::open`] recovers the pre-crash state from disk.
///
/// Readers are untouched: they pin snapshots from
/// [`DurableStore::snapshots`] exactly as before, wait-free with respect to
/// writers — durability adds cost to the write path only.
pub struct DurableStore {
    dir: PathBuf,
    store: Arc<SnapshotStore>,
    inner: Mutex<Inner>,
    checkpoint_every: u64,
    /// Checkpoints installed over the wire ([`DurableStore::install_checkpoint`]),
    /// i.e. replica bootstraps — exposed so tests can assert a graceful
    /// primary restart did not force a re-bootstrap.
    installed: AtomicU64,
}

struct Inner {
    wal: Wal,
    seq: u64,
    since_checkpoint: u64,
    /// The most recent fold, as (final position of the retired generation,
    /// new generation): a replication sender whose peer sits exactly at the
    /// retired position can hand it a cheap `rotate` instead of a full
    /// checkpoint re-bootstrap.
    last_rotation: Option<(ReplPosition, u64)>,
}

impl DurableStore {
    /// Open (or create) a durable store in `dir`. When the directory holds
    /// a valid checkpoint the on-disk state wins and `fallback` is ignored;
    /// a fresh (or unrecoverable) directory starts from `fallback`, which
    /// is checkpointed immediately so the no-valid-checkpoint window closes
    /// before any write is accepted. `checkpoint_every` is the number of
    /// WAL records after which the store folds the log into a fresh
    /// checkpoint (0 = never, for tests).
    pub fn open(dir: &Path, fallback: Database, checkpoint_every: u64) -> WalResult<DurableStore> {
        fs::create_dir_all(dir)?;
        // Sweep stale temp files from checkpoints interrupted mid-write.
        for entry in fs::read_dir(dir)? {
            let entry = entry?;
            if entry.file_name().to_str().is_some_and(|n| n.ends_with(".tmp")) {
                let _ = fs::remove_file(entry.path());
            }
        }

        let (db, seq, replayed, wal_len) = match recover(dir)? {
            Some(r) => (r.db, r.seq, r.replayed, r.wal_len),
            None => {
                // Distinguish a fresh directory from one whose checkpoints
                // are all damaged: quietly serving `fallback` over a damaged
                // directory would drop acknowledged writes.
                if has_checkpoint_files(dir)? {
                    return Err(WalError::Unrecoverable);
                }
                (fallback, 0, 0, 0)
            }
        };

        let checkpoint = checkpoint_path(dir, seq);
        if !checkpoint.exists() {
            write_checkpoint(dir, seq, &db)?;
        }
        let wal = Wal::open(&wal_path(dir, seq), wal_len)?;
        Ok(DurableStore {
            dir: dir.to_path_buf(),
            store: Arc::new(SnapshotStore::new(db)),
            inner: Mutex::new(Inner { wal, seq, since_checkpoint: replayed, last_rotation: None }),
            checkpoint_every,
            installed: AtomicU64::new(0),
        })
    }

    /// The snapshot store readers pin from (and the server executes over).
    pub fn snapshots(&self) -> &Arc<SnapshotStore> {
        &self.store
    }

    /// The directory holding the checkpoint and WAL files.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Durably append `rows` to `table` and publish the new snapshot.
    /// Returns the data version after the write. The sequence is strict:
    /// validate (a bad row never reaches the log), WAL append + fsync (the
    /// write is now crash-proof), publish, acknowledge — so a returned
    /// `Ok` version *is* the durability guarantee.
    pub fn insert(&self, table: &str, rows: &[Tuple]) -> WalResult<u64> {
        let timer = Timer::start();
        let mut inner = self.inner.lock().expect("durable store poisoned");

        // Validate the incoming rows against the current snapshot; writers
        // are serialized by the lock above, so nothing can invalidate this
        // between the check and the publish below.
        self.store.pin().check_rows(table, rows).map_err(|e| WalError::Data(e.to_string()))?;

        let record = WalRecord::Insert { table: table.to_string(), rows: rows.to_vec() };
        inner.wal.append(&record.encode())?;

        let version = self.store.update(|db| {
            record.apply(db).expect("validated above");
            db.version()
        });

        inner.since_checkpoint += 1;
        if self.checkpoint_every > 0 && inner.since_checkpoint >= self.checkpoint_every {
            // Checkpoint failure is not a write failure: the record above is
            // durable in the current WAL either way; the fold just retries
            // after the next write.
            let _ = self.fold_into_checkpoint(&mut inner);
        }
        registry().histogram(names::WAL_APPEND_NS).record(timer.elapsed_ns());
        Ok(version)
    }

    /// Force a checkpoint now (folds the WAL into a fresh full snapshot).
    pub fn checkpoint(&self) -> WalResult<()> {
        let mut inner = self.inner.lock().expect("durable store poisoned");
        self.fold_into_checkpoint(&mut inner)
    }

    /// Current WAL length in bytes (diagnostics and tests).
    pub fn wal_len(&self) -> u64 {
        self.inner.lock().expect("durable store poisoned").wal.len
    }

    /// The current durable position: generation + byte offset of every
    /// checksum-valid, fsync'd record. Everything at or before this position
    /// is exactly the set of acknowledged writes.
    pub fn position(&self) -> ReplPosition {
        let inner = self.inner.lock().expect("durable store poisoned");
        ReplPosition { seq: inner.seq, offset: inner.wal.len }
    }

    /// How many checkpoints this store installed over the wire
    /// ([`DurableStore::install_checkpoint`]) — replica bootstraps.
    pub fn checkpoints_installed(&self) -> u64 {
        self.installed.load(Ordering::Relaxed)
    }

    /// The most recent WAL fold, as (final position of the retired
    /// generation, new generation). A reader that was exactly at the retired
    /// position can continue via [`DurableStore::rotate_to`] on its own
    /// copy; any other stale position needs a checkpoint re-bootstrap.
    pub fn last_rotation(&self) -> Option<(ReplPosition, u64)> {
        self.inner.lock().expect("durable store poisoned").last_rotation
    }

    /// Read a record-aligned chunk of durable WAL bytes at `from`, capped
    /// near `max_bytes` (always at least one whole record). Returns
    /// [`WalChunk::UpToDate`] at the durable position and
    /// [`WalChunk::Rotated`] when `from` names a retired generation.
    pub fn read_chunk(&self, from: ReplPosition, max_bytes: usize) -> WalResult<WalChunk> {
        let inner = self.inner.lock().expect("durable store poisoned");
        if from.seq != inner.seq {
            return Ok(WalChunk::Rotated);
        }
        let len = inner.wal.len;
        if from.offset > len {
            return Err(WalError::Data(format!(
                "read at {from} is beyond the durable length {len}"
            )));
        }
        if from.offset == len {
            return Ok(WalChunk::UpToDate);
        }
        // The lock keeps rotation from deleting the file under us; reads go
        // through a private handle so the append cursor is untouched.
        let mut file = File::open(wal_path(&self.dir, inner.seq))?;
        file.seek(SeekFrom::Start(from.offset))?;
        let mut buf = vec![0u8; (len - from.offset) as usize];
        file.read_exact(&mut buf)?;
        let mut end = 0usize;
        loop {
            match scan_record(&buf, end) {
                Scan::Ok { next, .. } if end == 0 || next <= max_bytes => end = next,
                _ => break,
            }
        }
        if end == 0 {
            // Everything below `len` was validated before fsync; torn bytes
            // here mean the file changed underneath us (external damage).
            return Err(WalError::Data(format!("torn record inside the durable prefix at {from}")));
        }
        buf.truncate(end);
        Ok(WalChunk::Records(buf))
    }

    /// The current checkpoint generation's file bytes (enveloped, exactly as
    /// on disk) for bootstrapping a replica.
    pub fn checkpoint_data(&self) -> WalResult<(u64, Vec<u8>)> {
        let inner = self.inner.lock().expect("durable store poisoned");
        let bytes = fs::read(checkpoint_path(&self.dir, inner.seq))?;
        Ok((inner.seq, bytes))
    }

    /// Replica ingest: install a checkpoint received over the wire as
    /// generation `seq`, replacing all local state (disk and published
    /// snapshot). The bytes are validated (envelope checksum + full decode)
    /// before anything on disk or in memory changes. Statements prepared
    /// over the same tables stay executable (`Database::replace`).
    pub fn install_checkpoint(&self, seq: u64, bytes: &[u8]) -> WalResult<()> {
        let payload = match scan_record(bytes, 0) {
            Scan::Ok { payload, next } if next == bytes.len() => payload,
            _ => return Err(WalError::Data("received checkpoint fails its checksum".into())),
        };
        let db = decode_database(payload)
            .map_err(|e| WalError::Data(format!("received checkpoint does not decode: {}", e.0)))?;

        let mut inner = self.inner.lock().expect("durable store poisoned");
        let tmp = self.dir.join(format!("checkpoint-{seq:016x}.tmp"));
        let mut file = File::create(&tmp)?;
        file.write_all(bytes)?;
        file.sync_data()?;
        drop(file);
        fs::rename(&tmp, checkpoint_path(&self.dir, seq))?;
        let wal = Wal::open(&wal_path(&self.dir, seq), 0)?;
        sync_dir(&self.dir);
        // The new generation is durable; retire every other one.
        for entry in fs::read_dir(&self.dir)? {
            let entry = entry?;
            let Some(name) = entry.file_name().to_str().map(str::to_string) else { continue };
            let gen = parse_seq(&name, "checkpoint").or_else(|| parse_seq(&name, "wal"));
            if gen.is_some_and(|g| g != seq) {
                let _ = fs::remove_file(entry.path());
            }
        }
        self.store.update(|cur| cur.replace(db));
        inner.wal = wal;
        inner.seq = seq;
        inner.since_checkpoint = 0;
        inner.last_rotation = None;
        self.installed.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Replica ingest: append a chunk of already-enveloped records (as
    /// produced by [`DurableStore::read_chunk`] on the primary) that extends
    /// the local log at exactly (`seq`, `offset`), fsync it, and publish the
    /// applied state as a new snapshot. All records are CRC-checked and
    /// decoded, and the whole batch is applied to a private copy, before any
    /// disk write — a bad chunk changes nothing. Returns the new durable
    /// position.
    pub fn apply_records(&self, seq: u64, offset: u64, bytes: &[u8]) -> WalResult<ReplPosition> {
        let mut inner = self.inner.lock().expect("durable store poisoned");
        if seq != inner.seq || offset != inner.wal.len {
            return Err(WalError::Data(format!(
                "segment at {} does not extend the local log at {}",
                ReplPosition { seq, offset },
                ReplPosition { seq: inner.seq, offset: inner.wal.len },
            )));
        }
        let mut records = Vec::new();
        let mut at = 0usize;
        loop {
            match scan_record(bytes, at) {
                Scan::Ok { payload, next } => {
                    records.push(WalRecord::decode(payload).map_err(|e| WalError::Data(e.0))?);
                    at = next;
                }
                Scan::End => break,
                Scan::Torn => {
                    return Err(WalError::Data("torn record inside a replicated segment".into()))
                }
            }
        }
        let mut next_db = (*self.store.pin().database()).clone();
        for record in &records {
            record.apply(&mut next_db).map_err(|e| WalError::Data(e.to_string()))?;
        }
        inner.wal.append_enveloped(bytes)?;
        self.store.update(|db| *db = next_db);
        inner.since_checkpoint += records.len() as u64;
        Ok(ReplPosition { seq, offset: inner.wal.len })
    }

    /// Replica ingest: the primary folded its WAL into generation
    /// `new_seq`. Having applied the retired generation in full, fold the
    /// local snapshot into the same generation (writing our own checkpoint —
    /// byte equality of checkpoints is not required, state equality is).
    pub fn rotate_to(&self, new_seq: u64) -> WalResult<()> {
        let mut inner = self.inner.lock().expect("durable store poisoned");
        if new_seq <= inner.seq {
            return Err(WalError::Data(format!(
                "rotate to generation {new_seq:x} does not advance past {:x}",
                inner.seq
            )));
        }
        self.fold_to(&mut inner, new_seq)
    }

    fn fold_into_checkpoint(&self, inner: &mut Inner) -> WalResult<()> {
        let next = inner.seq + 1;
        self.fold_to(inner, next)
    }

    fn fold_to(&self, inner: &mut Inner, next: u64) -> WalResult<()> {
        let snapshot = self.store.pin();
        write_checkpoint(&self.dir, next, &snapshot)?;
        // The new checkpoint is durable; start its (empty) WAL and only then
        // retire the previous generation.
        let wal = Wal::open(&wal_path(&self.dir, next), 0)?;
        sync_dir(&self.dir);
        let _ = fs::remove_file(checkpoint_path(&self.dir, inner.seq));
        let _ = fs::remove_file(wal_path(&self.dir, inner.seq));
        inner.last_rotation = Some((ReplPosition { seq: inner.seq, offset: inner.wal.len }, next));
        inner.wal = wal;
        inner.seq = next;
        inner.since_checkpoint = 0;
        Ok(())
    }
}

/// Whether `dir` contains any `checkpoint-*` file (used to tell a fresh
/// directory apart from a damaged one when recovery comes back empty).
fn has_checkpoint_files(dir: &Path) -> WalResult<bool> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        if entry.file_name().to_str().is_some_and(|n| parse_seq(n, "checkpoint").is_some()) {
            return Ok(true);
        }
    }
    Ok(false)
}

/// Write `db` as `checkpoint-<seq>`: envelope to a temp file, fsync,
/// atomic rename, directory fsync. A crash at any offset leaves either the
/// previous state (temp never renamed) or the complete new checkpoint.
fn write_checkpoint(dir: &Path, seq: u64, db: &Database) -> WalResult<()> {
    let payload = encode_database(db);
    let record = envelope(&payload);
    let tmp = dir.join(format!("checkpoint-{seq:016x}.tmp"));

    let mut file = File::create(&tmp)?;
    match apply_delay(failpoints().check(FP_CHECKPOINT)) {
        FailAction::Off => file.write_all(&record)?,
        FailAction::Torn(keep) => {
            // Crash mid-checkpoint: a torn temp file that never gets
            // renamed. Recovery ignores it entirely.
            let keep = keep.min(record.len());
            let _ = file.write_all(&record[..keep]);
            let _ = file.sync_data();
            return Err(WalError::Injected(FP_CHECKPOINT));
        }
        FailAction::Error => return Err(WalError::Injected(FP_CHECKPOINT)),
        FailAction::SlowMs(_) => unreachable!("apply_delay resolves slow actions"),
    }
    file.sync_data()?;
    drop(file);
    fs::rename(&tmp, checkpoint_path(dir, seq))?;
    sync_dir(dir);
    let reg = registry();
    reg.counter(names::WAL_CHECKPOINTS).incr();
    reg.counter(names::WAL_FSYNCS).add(2);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::rel;
    use crate::value::Value;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::{PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

    /// The failpoint registry is process-global and `cargo test` runs this
    /// module's tests on parallel threads, so an armed point fires in
    /// whichever store reaches it first — not necessarily the arming test's.
    /// A test that arms a point holds this lock exclusively ([`arming`]);
    /// every other test that writes through a store holds it shared
    /// ([`unarmed`]) and therefore never runs while anything is armed.
    static FAILPOINT_USE: RwLock<()> = RwLock::new(());

    fn arming() -> RwLockWriteGuard<'static, ()> {
        FAILPOINT_USE.write().unwrap_or_else(PoisonError::into_inner)
    }

    fn unarmed() -> RwLockReadGuard<'static, ()> {
        FAILPOINT_USE.read().unwrap_or_else(PoisonError::into_inner)
    }

    fn temp_dir(tag: &str) -> PathBuf {
        static UNIQ: AtomicU64 = AtomicU64::new(0);
        let n = UNIQ.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("certus-wal-{tag}-{}-{n}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn seed_db() -> Database {
        let mut db = Database::new();
        db.insert_relation("r", rel(&["a", "b"], vec![vec![Value::Int(1), Value::str("x")]]));
        db
    }

    fn row(i: i64) -> Tuple {
        Tuple::new(vec![Value::Int(i), Value::str("w")])
    }

    fn rows_of(db: &Database) -> usize {
        db.relation("r").unwrap().len()
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE CRC-32 check values.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn acked_writes_survive_reopen() {
        let _failpoints = unarmed();
        let dir = temp_dir("reopen");
        {
            let store = DurableStore::open(&dir, seed_db(), 0).unwrap();
            for i in 0..5 {
                store.insert("r", &[row(i)]).unwrap();
            }
            assert_eq!(rows_of(&store.snapshots().pin()), 6);
            // Dropped without checkpointing: reopen replays the WAL.
        }
        let store = DurableStore::open(&dir, Database::new(), 0).unwrap();
        let snap = store.snapshots().pin();
        assert_eq!(rows_of(&snap), 6, "all five acked inserts recovered");
        assert!(snap.epoch() > 0, "recovered version never rewinds to zero");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoints_fold_the_wal_and_retire_old_generations() {
        let _failpoints = unarmed();
        let dir = temp_dir("ckpt");
        let store = DurableStore::open(&dir, seed_db(), 2).unwrap();
        for i in 0..5 {
            store.insert("r", &[row(i)]).unwrap();
        }
        // Two checkpoints happened (after records 2 and 4); only the newest
        // generation's files remain, and the live WAL holds one record.
        let names: Vec<String> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(names.len(), 2, "one checkpoint + one wal, got {names:?}");
        drop(store);
        let store = DurableStore::open(&dir, Database::new(), 2).unwrap();
        assert_eq!(rows_of(&store.snapshots().pin()), 6);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rejected_writes_leave_log_and_state_untouched() {
        let _failpoints = unarmed();
        let dir = temp_dir("reject");
        let store = DurableStore::open(&dir, seed_db(), 0).unwrap();
        let before = store.wal_len();
        let version = store.snapshots().epoch();
        // Wrong arity: validation fails before the WAL sees anything…
        let err = store.insert("r", &[Tuple::new(vec![Value::Int(1)])]);
        assert!(matches!(err, Err(WalError::Data(_))));
        let err = store.insert("missing", &[row(1)]);
        assert!(matches!(err, Err(WalError::Data(_))));
        // …also when only the batch's second row is wrong: nothing of it lands.
        let err = store.insert("r", &[row(2), Tuple::new(vec![Value::Int(3)])]);
        assert!(matches!(err, Err(WalError::Data(_))));
        assert_eq!(store.wal_len(), before);
        assert_eq!(rows_of(&store.snapshots().pin()), 1);
        assert_eq!(store.snapshots().epoch(), version);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_append_is_unacked_and_never_resurfaces() {
        let _failpoints = arming();
        let dir = temp_dir("torn");
        let store = DurableStore::open(&dir, seed_db(), 0).unwrap();
        store.insert("r", &[row(1)]).unwrap();
        // The next append tears after 5 bytes — a crash mid-write.
        failpoints().arm(FP_APPEND, FailAction::Torn(5), 0, 1);
        let err = store.insert("r", &[row(2)]);
        failpoints().disarm(FP_APPEND);
        assert!(matches!(err, Err(WalError::Injected(_))));
        drop(store);
        let store = DurableStore::open(&dir, Database::new(), 0).unwrap();
        let snap = store.snapshots().pin();
        assert_eq!(rows_of(&snap), 2, "acked write present, torn write gone");
        assert!(!snap.relation("r").unwrap().contains(&row(2)));
        // And the store keeps working after recovery truncated the tail.
        store.insert("r", &[row(4)]).unwrap();
        drop(store);
        let store = DurableStore::open(&dir, Database::new(), 0).unwrap();
        assert_eq!(rows_of(&store.snapshots().pin()), 3);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reopen_heals_a_poisoned_handle_without_losing_acked_writes() {
        let _failpoints = arming();
        let dir = temp_dir("heal");
        let store = DurableStore::open(&dir, seed_db(), 0).unwrap();
        store.insert("r", &[row(1)]).unwrap();
        failpoints().arm(FP_APPEND, FailAction::Torn(5), 0, 1);
        assert!(store.insert("r", &[row(2)]).is_err());
        failpoints().disarm(FP_APPEND);

        // Online healing: same handle, same snapshot store, no restart. The
        // next write cuts the torn tail off first, so its record lands at the
        // last durable boundary instead of being stacked after the torn bytes.
        let store_arc = Arc::clone(store.snapshots());
        let durable = store.wal_len();
        let version_before = store_arc.pin().epoch();
        store.insert("r", &[row(3)]).unwrap();
        let record = WalRecord::Insert { table: "r".into(), rows: vec![row(3)] }.encode();
        assert_eq!(store.wal_len(), durable + (ENVELOPE + record.len()) as u64);
        assert_eq!(fs::metadata(wal_path(&dir, 0)).unwrap().len(), store.wal_len());
        assert_eq!(rows_of(&store_arc.pin()), 3, "acked writes kept, torn write gone");
        assert!(store_arc.pin().epoch() > version_before, "version never rewinds");
        drop(store);
        let store = DurableStore::open(&dir, Database::new(), 0).unwrap();
        let snap = store.snapshots().pin();
        assert_eq!(rows_of(&snap), 3, "both acked writes present, torn write gone");
        assert!(!snap.relation("r").unwrap().contains(&row(2)));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn failed_fsync_rolls_the_record_back() {
        let _failpoints = arming();
        let dir = temp_dir("fsync");
        let store = DurableStore::open(&dir, seed_db(), 0).unwrap();
        failpoints().arm(FP_FSYNC, FailAction::Error, 0, 1);
        let err = store.insert("r", &[row(1)]);
        failpoints().disarm(FP_FSYNC);
        assert!(matches!(err, Err(WalError::Injected(_))));
        // The un-fsync'd record was rolled back: the log is clean and the
        // store accepts the retry.
        store.insert("r", &[row(1)]).unwrap();
        drop(store);
        let store = DurableStore::open(&dir, Database::new(), 0).unwrap();
        assert_eq!(rows_of(&store.snapshots().pin()), 2);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn crashed_checkpoint_keeps_the_previous_generation() {
        let _failpoints = arming();
        let dir = temp_dir("ckpt-crash");
        let store = DurableStore::open(&dir, seed_db(), 0).unwrap();
        for i in 0..3 {
            store.insert("r", &[row(i)]).unwrap();
        }
        failpoints().arm(FP_CHECKPOINT, FailAction::Torn(10), 0, 1);
        let err = store.checkpoint();
        failpoints().disarm(FP_CHECKPOINT);
        assert!(matches!(err, Err(WalError::Injected(_))));
        // Writes continue against the old generation…
        store.insert("r", &[row(9)]).unwrap();
        drop(store);
        // …and recovery sees checkpoint-0 + the full WAL (the torn temp
        // file is swept and ignored).
        let store = DurableStore::open(&dir, Database::new(), 0).unwrap();
        assert_eq!(rows_of(&store.snapshots().pin()), 5);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// The satellite fuzz: recovery over every truncation offset and every
    /// flipped byte of a real checkpoint + WAL directory must never panic,
    /// never lose an earlier record to a later corruption, and never
    /// resurrect bytes beyond the damage.
    #[test]
    fn recovery_survives_every_truncation_and_bit_flip() {
        let _failpoints = unarmed();
        let dir = temp_dir("fuzz-src");
        let store = DurableStore::open(&dir, seed_db(), 0).unwrap();
        for i in 0..4 {
            store.insert("r", &[row(i)]).unwrap();
        }
        drop(store);
        let wal_file = wal_path(&dir, 0);
        let ckpt_file = checkpoint_path(&dir, 0);
        let wal_bytes = fs::read(&wal_file).unwrap();
        let ckpt_bytes = fs::read(&ckpt_file).unwrap();

        // Record boundaries, for asserting prefix semantics.
        let mut boundaries = vec![0usize];
        let mut at = 0usize;
        while let Scan::Ok { next, .. } = scan_record(&wal_bytes, at) {
            boundaries.push(next);
            at = next;
        }
        assert_eq!(boundaries.len(), 5, "four records + origin");

        let scratch = temp_dir("fuzz-run");
        fs::create_dir_all(&scratch).unwrap();
        let run = |wal: &[u8], ckpt: &[u8]| -> Option<usize> {
            fs::write(checkpoint_path(&scratch, 0), ckpt).unwrap();
            fs::write(wal_path(&scratch, 0), wal).unwrap();
            let recovered = recover(&scratch).unwrap();
            recovered.map(|r| rows_of(&r.db))
        };

        // Every truncation of the WAL recovers the longest whole-record
        // prefix — never an error, never a panic, never a partial record.
        for cut in 0..=wal_bytes.len() {
            let rows = run(&wal_bytes[..cut], &ckpt_bytes).expect("checkpoint is intact");
            let whole = boundaries.iter().filter(|&&b| b <= cut).count() - 1;
            assert_eq!(rows, 1 + whole, "truncation at {cut}");
        }

        // Every single-byte corruption of the WAL yields a prefix of the
        // records before the damaged one (CRC catches the flip).
        for i in 0..wal_bytes.len() {
            let mut bad = wal_bytes.clone();
            bad[i] ^= 0xFF;
            let rows = run(&bad, &ckpt_bytes).expect("checkpoint is intact");
            let damaged_record = boundaries.iter().filter(|&&b| b <= i).count() - 1;
            assert!(
                rows <= 1 + damaged_record,
                "flip at {i}: {rows} rows resurrected past record {damaged_record}"
            );
        }

        // Every single-byte corruption of the only checkpoint makes
        // recovery refuse (None) — cleanly, without panicking.
        for i in 0..ckpt_bytes.len() {
            let mut bad = ckpt_bytes.clone();
            bad[i] ^= 0xFF;
            assert!(run(&wal_bytes, &bad).is_none(), "corrupt checkpoint at byte {i}");
        }

        fs::remove_dir_all(&dir).unwrap();
        fs::remove_dir_all(&scratch).unwrap();
    }

    #[test]
    fn damaged_newest_checkpoint_falls_back_to_its_predecessor() {
        let _failpoints = unarmed();
        let dir = temp_dir("fallback");
        let store = DurableStore::open(&dir, seed_db(), 0).unwrap();
        store.insert("r", &[row(1)]).unwrap();
        drop(store);
        // Forge a newer, corrupt checkpoint next to the valid generation 0.
        fs::write(checkpoint_path(&dir, 1), b"garbage that is not a checkpoint").unwrap();
        let recovered = recover(&dir).unwrap().expect("falls back");
        assert_eq!(recovered.seq, 0);
        assert_eq!(rows_of(&recovered.db), 2);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn read_chunk_streams_record_aligned_bytes() {
        let _failpoints = unarmed();
        let dir = temp_dir("chunk");
        let store = DurableStore::open(&dir, seed_db(), 0).unwrap();
        for i in 0..4 {
            store.insert("r", &[row(i)]).unwrap();
        }
        let end = store.position();
        assert_eq!(end.seq, 0);
        assert!(matches!(store.read_chunk(end, 1 << 20).unwrap(), WalChunk::UpToDate));

        // A tiny cap still yields one whole record per read; chaining reads
        // walks the full log.
        let mut pos = ReplPosition { seq: 0, offset: 0 };
        let mut collected = Vec::new();
        let mut chunks = 0;
        while pos < end {
            match store.read_chunk(pos, 1).unwrap() {
                WalChunk::Records(bytes) => {
                    pos.offset += bytes.len() as u64;
                    collected.extend_from_slice(&bytes);
                    chunks += 1;
                }
                other => panic!("expected records, got {other:?}"),
            }
        }
        assert_eq!(chunks, 4, "cap of one byte forces one record per chunk");
        assert_eq!(collected, fs::read(wal_path(&dir, 0)).unwrap());

        // A generous cap returns everything at once.
        match store.read_chunk(ReplPosition { seq: 0, offset: 0 }, 1 << 20).unwrap() {
            WalChunk::Records(bytes) => assert_eq!(bytes.len() as u64, end.offset),
            other => panic!("expected records, got {other:?}"),
        }

        // Reading past the durable length is an error, not torn data.
        let beyond = ReplPosition { seq: 0, offset: end.offset + 8 };
        assert!(matches!(store.read_chunk(beyond, 1 << 20), Err(WalError::Data(_))));

        // After a fold the old generation reports Rotated and last_rotation
        // names the hand-off.
        store.checkpoint().unwrap();
        assert!(matches!(store.read_chunk(end, 1 << 20).unwrap(), WalChunk::Rotated));
        assert_eq!(store.last_rotation(), Some((end, 1)));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn replica_ingest_mirrors_the_primary() {
        let _failpoints = unarmed();
        let primary_dir = temp_dir("repl-primary");
        let replica_dir = temp_dir("repl-replica");
        let primary = DurableStore::open(&primary_dir, seed_db(), 0).unwrap();
        for i in 0..3 {
            primary.insert("r", &[row(i)]).unwrap();
        }

        // Bootstrap: ship the checkpoint, then the WAL suffix.
        let replica = DurableStore::open(&replica_dir, Database::new(), 0).unwrap();
        let (seq, ckpt) = primary.checkpoint_data().unwrap();
        replica.install_checkpoint(seq, &ckpt).unwrap();
        assert_eq!(replica.checkpoints_installed(), 1);
        let mut pos = replica.position();
        assert_eq!(pos, ReplPosition { seq: 0, offset: 0 });
        while let WalChunk::Records(bytes) = primary.read_chunk(pos, 1 << 20).unwrap() {
            pos = replica.apply_records(pos.seq, pos.offset, &bytes).unwrap();
        }
        assert_eq!(pos, primary.position());
        assert_eq!(rows_of(&replica.snapshots().pin()), 4);
        assert_eq!(replica.snapshots().pin().epoch(), primary.snapshots().pin().epoch());

        // A chunk that does not extend the local log is refused untouched.
        let chunk = match primary.read_chunk(ReplPosition { seq: 0, offset: 0 }, 1 << 20).unwrap() {
            WalChunk::Records(bytes) => bytes,
            other => panic!("expected records, got {other:?}"),
        };
        assert!(matches!(replica.apply_records(0, 0, &chunk), Err(WalError::Data(_))));
        // And a torn chunk is refused before any disk write.
        let before = replica.wal_len();
        assert!(matches!(
            replica.apply_records(pos.seq, pos.offset, &chunk[..chunk.len() - 3]),
            Err(WalError::Data(_))
        ));
        assert_eq!(replica.wal_len(), before);

        // Rotation: primary folds, replica follows with its own fold.
        primary.checkpoint().unwrap();
        let (at, new_seq) = primary.last_rotation().unwrap();
        assert_eq!(at, pos);
        replica.rotate_to(new_seq).unwrap();
        assert_eq!(replica.position(), primary.position());

        // Live traffic keeps flowing on the new generation.
        primary.insert("r", &[row(9)]).unwrap();
        let mut pos = replica.position();
        while let WalChunk::Records(bytes) = primary.read_chunk(pos, 1 << 20).unwrap() {
            pos = replica.apply_records(pos.seq, pos.offset, &bytes).unwrap();
        }
        assert_eq!(rows_of(&replica.snapshots().pin()), 5);

        // The replica state is durable in its own right.
        drop(replica);
        let back = DurableStore::open(&replica_dir, Database::new(), 0).unwrap();
        assert_eq!(rows_of(&back.snapshots().pin()), 5);
        fs::remove_dir_all(&primary_dir).unwrap();
        fs::remove_dir_all(&replica_dir).unwrap();
    }

    #[test]
    fn installing_a_checkpoint_moves_the_schema_epoch_only_for_other_tables() {
        let _failpoints = unarmed();
        let dirs = [temp_dir("epoch-primary"), temp_dir("epoch-same"), temp_dir("epoch-other")];
        let primary = DurableStore::open(&dirs[0], seed_db(), 0).unwrap();
        primary.insert("r", &[row(1)]).unwrap();
        primary.checkpoint().unwrap();
        let (seq, ckpt) = primary.checkpoint_data().unwrap();
        let Scan::Ok { payload, .. } = scan_record(&ckpt, 0) else { panic!("a valid checkpoint") };
        let theirs = decode_database(payload).unwrap().schema_epoch();

        // A replica over the same tables keeps its schema epoch…
        let same = DurableStore::open(&dirs[1], seed_db(), 0).unwrap();
        let epoch = same.snapshots().pin().schema_epoch();
        same.install_checkpoint(seq, &ckpt).unwrap();
        assert_eq!(same.snapshots().pin().schema_epoch(), epoch);
        assert_eq!(rows_of(&same.snapshots().pin()), 2);

        // …while one whose `r` has another schema moves past both sides.
        let mut db = Database::new();
        db.insert_relation("r", rel(&["a"], vec![]));
        db.insert_relation("r", rel(&["a", "b", "c"], vec![]));
        let other = DurableStore::open(&dirs[2], db, 0).unwrap();
        let ours = other.snapshots().pin().schema_epoch();
        other.install_checkpoint(seq, &ckpt).unwrap();
        let after = other.snapshots().pin();
        assert!(after.schema_epoch() > ours.max(theirs), "ours {ours}, theirs {theirs}");
        assert_eq!(
            after.table_def("r").unwrap(),
            primary.snapshots().pin().table_def("r").unwrap()
        );
        assert_eq!(rows_of(&after), 2);
        for dir in dirs {
            fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn double_damaged_directory_refuses_to_open_with_a_clean_error() {
        let _failpoints = unarmed();
        let dir = temp_dir("double-damage");
        let store = DurableStore::open(&dir, seed_db(), 0).unwrap();
        store.insert("r", &[row(1)]).unwrap();
        store.checkpoint().unwrap();
        // Forge a fallback generation, then damage both checkpoints.
        fs::write(checkpoint_path(&dir, 0), b"older generation, also damaged").unwrap();
        let newest = checkpoint_path(&dir, 1);
        let mut bytes = fs::read(&newest).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        fs::write(&newest, &bytes).unwrap();
        drop(store);

        assert!(recover(&dir).unwrap().is_none(), "recovery reports no valid checkpoint");
        let err = DurableStore::open(&dir, seed_db(), 0);
        assert!(
            matches!(err, Err(WalError::Unrecoverable)),
            "open refuses rather than serving the fallback over damaged data"
        );
        // A genuinely fresh directory still starts from the fallback.
        let fresh = temp_dir("double-damage-fresh");
        assert!(DurableStore::open(&fresh, seed_db(), 0).is_ok());
        fs::remove_dir_all(&dir).unwrap();
        fs::remove_dir_all(&fresh).unwrap();
    }

    #[test]
    fn wal_records_round_trip_and_reject_malformed() {
        let record = WalRecord::Insert { table: "r".into(), rows: vec![row(1), row(2)] };
        let bytes = record.encode();
        assert_eq!(WalRecord::decode(&bytes).unwrap(), record);
        for cut in 0..bytes.len() {
            assert!(WalRecord::decode(&bytes[..cut]).is_err(), "truncation at {cut}");
        }
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert!(WalRecord::decode(&trailing).is_err());
        let mut bad_tag = bytes;
        bad_tag[0] = 9;
        assert!(WalRecord::decode(&bad_tag).is_err());
    }

    #[test]
    fn checkpoint_encoding_preserves_defs_and_epoch() {
        let mut db = Database::new();
        db.create_table(
            TableDef::new("keyed", crate::schema::Schema::of_names(&["k", "v"])).with_key(&["k"]),
        )
        .unwrap();
        db.relation_mut("keyed")
            .unwrap()
            .insert_values(vec![Value::Int(1), Value::str("a")])
            .unwrap();
        let payload = encode_database(&db);
        let back = decode_database(&payload).unwrap();
        assert_eq!(back.version(), db.version());
        assert_eq!(back.table_def("keyed").unwrap().primary_key, vec!["k"]);
        assert_eq!(back.relation("keyed").unwrap(), db.relation("keyed").unwrap());
    }
}
