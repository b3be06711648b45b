//! Write-ahead log: append-only redo records with group commit.
//!
//! Durability follows the classic redo-only protocol: every change is
//! appended to the log *before* the transaction's commit is
//! acknowledged, and recovery replays the log over the last checkpoint
//! base image. Records are framed as
//!
//! ```text
//! [u32 payload length][u32 CRC-32 of payload][payload]
//! ```
//!
//! so a crash mid-append leaves a torn tail that [`read_wal`] detects
//! (short frame or CRC mismatch) and treats as the end of the log —
//! exactly the "log ends at the first hole" rule of ARIES-style
//! recovery. Transactions whose `Commit` record did not make it into
//! the durable prefix are discarded wholesale by replay, which is what
//! makes crash recovery all-or-nothing per transaction.
//!
//! Group commit: appends are buffered writes under a mutex; an fsync
//! covers everything appended so far, so a committer whose commit LSN
//! is already covered by a concurrent fsync skips its own
//! ([`Wal::sync_to`]). The `wal_fsyncs` counter therefore counts
//! *physical* syncs, not commits.

use crate::mvcc::TxnId;
use crate::schema::{ColumnDef, Schema};
use crate::snapshot::{datatype_from, datatype_tag, get_str, get_value, put_str, put_value};
use crate::stats::Counters;
use crate::value::Value;
use crate::{RowId, StorageError};
use bytes::{Buf, BufMut};
use parking_lot::Mutex;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// CRC-32 (IEEE 802.3, reflected) over `bytes` — the checksum guarding
/// WAL frames and checkpoint pages. Table-driven, no external deps.
pub fn crc32(bytes: &[u8]) -> u32 {
    static TABLE: std::sync::OnceLock<[u32; 256]> = std::sync::OnceLock::new();
    let table = TABLE.get_or_init(|| {
        let mut t = [0u32; 256];
        for (i, e) in t.iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            }
            *e = c;
        }
        t
    });
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc = table[((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    crc ^ 0xFFFF_FFFF
}

/// One redo record. DML records carry the *rowid* their change landed
/// on, so replay reproduces identical rowids (spatial joins return
/// rowid pairs — they must survive recovery).
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// Transaction started.
    Begin {
        /// The starting transaction.
        txid: TxnId,
    },
    /// Row inserted at `rid`.
    Insert {
        /// Writing transaction.
        txid: TxnId,
        /// Target table (uppercase).
        table: String,
        /// Slot the row landed on.
        rid: RowId,
        /// The inserted row.
        row: Vec<Value>,
    },
    /// Row at `rid` replaced.
    Update {
        /// Writing transaction.
        txid: TxnId,
        /// Target table (uppercase).
        table: String,
        /// Updated slot.
        rid: RowId,
        /// The new row image (redo-only log: no before image).
        row: Vec<Value>,
    },
    /// Row at `rid` deleted.
    Delete {
        /// Writing transaction.
        txid: TxnId,
        /// Target table (uppercase).
        table: String,
        /// Deleted slot.
        rid: RowId,
    },
    /// Transaction committed — the durability point.
    Commit {
        /// The committing transaction.
        txid: TxnId,
    },
    /// Transaction rolled back (informational; replay discards the
    /// transaction's records either way).
    Abort {
        /// The aborted transaction.
        txid: TxnId,
    },
    /// `CREATE TABLE` (DDL is autocommitted; replay applies it
    /// immediately).
    CreateTable {
        /// New table name.
        name: String,
        /// Column definitions.
        schema: Schema,
    },
    /// `DROP TABLE`.
    DropTable {
        /// Dropped table name.
        name: String,
    },
    /// `CREATE INDEX ... INDEXTYPE IS ...` — recorded as a rebuild
    /// directive; recovery recreates the index from the recovered
    /// table, which by construction matches a fresh build.
    CreateIndex {
        /// Index name.
        index_name: String,
        /// Indexed table.
        table_name: String,
        /// Indexed column.
        column_name: String,
        /// Raw `PARAMETERS` string.
        parameters: String,
        /// Creation degree of parallelism.
        create_dop: usize,
    },
    /// `DROP INDEX`.
    DropIndex {
        /// Dropped index name.
        name: String,
    },
    /// `ANALYZE <table>` — the computed statistics, logged whole so
    /// estimates survive a crash without resampling (autocommitted like
    /// the other DDL records).
    Analyze {
        /// Analyzed table (uppercase).
        table: String,
        /// The statistics as computed.
        stats: crate::stats::TableStats,
    },
}

fn err(m: impl Into<String>) -> StorageError {
    StorageError::Io(format!("wal: {}", m.into()))
}

fn io(e: std::io::Error) -> StorageError {
    StorageError::Io(format!("wal: {e}"))
}

fn put_row(buf: &mut Vec<u8>, row: &[Value]) {
    buf.put_u32_le(row.len() as u32);
    for v in row {
        put_value(buf, v);
    }
}

fn get_row(buf: &mut impl Buf) -> Result<Vec<Value>, StorageError> {
    if buf.remaining() < 4 {
        return Err(err("truncated row arity"));
    }
    let n = buf.get_u32_le() as usize;
    let mut row = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        row.push(get_value(buf)?);
    }
    Ok(row)
}

impl WalRecord {
    /// Serialize the record payload (without framing).
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        match self {
            WalRecord::Begin { txid } => {
                buf.put_u8(1);
                buf.put_u64_le(*txid);
            }
            WalRecord::Insert { txid, table, rid, row } => {
                buf.put_u8(2);
                buf.put_u64_le(*txid);
                put_str(&mut buf, table);
                buf.put_u64_le(rid.as_u64());
                put_row(&mut buf, row);
            }
            WalRecord::Update { txid, table, rid, row } => {
                buf.put_u8(3);
                buf.put_u64_le(*txid);
                put_str(&mut buf, table);
                buf.put_u64_le(rid.as_u64());
                put_row(&mut buf, row);
            }
            WalRecord::Delete { txid, table, rid } => {
                buf.put_u8(4);
                buf.put_u64_le(*txid);
                put_str(&mut buf, table);
                buf.put_u64_le(rid.as_u64());
            }
            WalRecord::Commit { txid } => {
                buf.put_u8(5);
                buf.put_u64_le(*txid);
            }
            WalRecord::Abort { txid } => {
                buf.put_u8(6);
                buf.put_u64_le(*txid);
            }
            WalRecord::CreateTable { name, schema } => {
                buf.put_u8(7);
                put_str(&mut buf, name);
                let cols = schema.columns();
                buf.put_u32_le(cols.len() as u32);
                for c in cols {
                    put_str(&mut buf, &c.name);
                    buf.put_u8(datatype_tag(c.data_type));
                }
            }
            WalRecord::DropTable { name } => {
                buf.put_u8(8);
                put_str(&mut buf, name);
            }
            WalRecord::CreateIndex {
                index_name,
                table_name,
                column_name,
                parameters,
                create_dop,
            } => {
                buf.put_u8(9);
                put_str(&mut buf, index_name);
                put_str(&mut buf, table_name);
                put_str(&mut buf, column_name);
                put_str(&mut buf, parameters);
                buf.put_u32_le(*create_dop as u32);
            }
            WalRecord::DropIndex { name } => {
                buf.put_u8(10);
                put_str(&mut buf, name);
            }
            WalRecord::Analyze { table, stats } => {
                buf.put_u8(11);
                put_str(&mut buf, table);
                stats.encode(&mut buf);
            }
        }
        buf
    }

    /// Decode one record payload.
    pub fn decode(mut buf: &[u8]) -> Result<WalRecord, StorageError> {
        let b = &mut buf;
        if !b.has_remaining() {
            return Err(err("empty record"));
        }
        let need_u64 = |b: &mut &[u8]| -> Result<u64, StorageError> {
            if b.remaining() < 8 {
                return Err(err("truncated u64"));
            }
            Ok(b.get_u64_le())
        };
        let tag = b.get_u8();
        let rec = match tag {
            1 => WalRecord::Begin { txid: need_u64(b)? },
            2 | 3 => {
                let txid = need_u64(b)?;
                let table = get_str(b)?;
                let rid = RowId::new(need_u64(b)?);
                let row = get_row(b)?;
                if tag == 2 {
                    WalRecord::Insert { txid, table, rid, row }
                } else {
                    WalRecord::Update { txid, table, rid, row }
                }
            }
            4 => {
                let txid = need_u64(b)?;
                let table = get_str(b)?;
                let rid = RowId::new(need_u64(b)?);
                WalRecord::Delete { txid, table, rid }
            }
            5 => WalRecord::Commit { txid: need_u64(b)? },
            6 => WalRecord::Abort { txid: need_u64(b)? },
            7 => {
                let name = get_str(b)?;
                if b.remaining() < 4 {
                    return Err(err("truncated column count"));
                }
                let n = b.get_u32_le() as usize;
                let mut cols = Vec::with_capacity(n.min(256));
                for _ in 0..n {
                    let cname = get_str(b)?;
                    if !b.has_remaining() {
                        return Err(err("truncated column type"));
                    }
                    cols.push(ColumnDef::new(&cname, datatype_from(b.get_u8())?));
                }
                WalRecord::CreateTable { name, schema: Schema::new(cols) }
            }
            8 => WalRecord::DropTable { name: get_str(b)? },
            9 => {
                let index_name = get_str(b)?;
                let table_name = get_str(b)?;
                let column_name = get_str(b)?;
                let parameters = get_str(b)?;
                if b.remaining() < 4 {
                    return Err(err("truncated dop"));
                }
                let create_dop = b.get_u32_le() as usize;
                WalRecord::CreateIndex {
                    index_name,
                    table_name,
                    column_name,
                    parameters,
                    create_dop,
                }
            }
            10 => WalRecord::DropIndex { name: get_str(b)? },
            11 => {
                let table = get_str(b)?;
                let stats = crate::stats::TableStats::decode(b)?;
                WalRecord::Analyze { table, stats }
            }
            t => return Err(err(format!("bad record tag {t}"))),
        };
        if b.has_remaining() {
            return Err(err("trailing bytes in record"));
        }
        Ok(rec)
    }

    /// The transaction a DML/commit record belongs to, if any.
    pub fn txid(&self) -> Option<TxnId> {
        match self {
            WalRecord::Begin { txid }
            | WalRecord::Insert { txid, .. }
            | WalRecord::Update { txid, .. }
            | WalRecord::Delete { txid, .. }
            | WalRecord::Commit { txid }
            | WalRecord::Abort { txid } => Some(*txid),
            _ => None,
        }
    }
}

struct WalFile {
    file: File,
    /// Bytes durably *written* (not necessarily synced).
    len: u64,
}

/// An append-only write-ahead log over one file.
pub struct Wal {
    path: PathBuf,
    inner: Mutex<WalFile>,
    /// Byte offset up to which the file is known fsync'd.
    synced: AtomicU64,
    counters: Arc<Counters>,
}

impl std::fmt::Debug for Wal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Wal").field("path", &self.path).finish()
    }
}

impl Wal {
    /// Open (creating if absent) the log at `path`, appending at the
    /// end of the valid prefix.
    pub fn open(path: impl AsRef<Path>, counters: Arc<Counters>) -> Result<Wal, StorageError> {
        let path = path.as_ref().to_path_buf();
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)
            .map_err(io)?;
        // Append after the last whole record: a torn tail from a crash
        // is overwritten by the next append.
        let valid = valid_prefix_len(&path)?;
        file.set_len(valid).map_err(io)?;
        file.seek(SeekFrom::Start(valid)).map_err(io)?;
        Ok(Wal {
            path,
            inner: Mutex::new(WalFile { file, len: valid }),
            synced: AtomicU64::new(valid),
            counters,
        })
    }

    /// The log file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Append one record; returns the LSN (end offset) of the record.
    /// The append is buffered — call [`Wal::sync_to`] to make it
    /// durable.
    pub fn append(&self, rec: &WalRecord) -> Result<u64, StorageError> {
        let payload = rec.encode();
        let mut frame = Vec::with_capacity(8 + payload.len());
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&crc32(&payload).to_le_bytes());
        frame.extend_from_slice(&payload);
        let mut inner = self.inner.lock();
        inner.file.write_all(&frame).map_err(io)?;
        inner.len += frame.len() as u64;
        Counters::add(&self.counters.wal_bytes_written, frame.len() as u64);
        Ok(inner.len)
    }

    /// Ensure everything up to `lsn` is on stable storage. Group
    /// commit: if a concurrent committer's fsync already covered this
    /// LSN, return without a physical sync.
    pub fn sync_to(&self, lsn: u64) -> Result<(), StorageError> {
        if self.synced.load(Ordering::Acquire) >= lsn {
            return Ok(());
        }
        let inner = self.inner.lock();
        if self.synced.load(Ordering::Acquire) >= lsn {
            return Ok(()); // someone synced while we waited for the lock
        }
        inner.file.sync_data().map_err(io)?;
        Counters::bump(&self.counters.wal_fsyncs);
        self.synced.store(inner.len, Ordering::Release);
        Ok(())
    }

    /// Current end-of-log offset.
    pub fn len(&self) -> u64 {
        self.inner.lock().len
    }

    /// True when the log holds no records.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Discard every record — called after a checkpoint has persisted
    /// the state the log describes.
    pub fn truncate(&self) -> Result<(), StorageError> {
        let mut inner = self.inner.lock();
        inner.file.set_len(0).map_err(io)?;
        inner.file.seek(SeekFrom::Start(0)).map_err(io)?;
        inner.file.sync_data().map_err(io)?;
        Counters::bump(&self.counters.wal_fsyncs);
        inner.len = 0;
        self.synced.store(0, Ordering::Release);
        Ok(())
    }
}

/// Decode the valid record prefix of a WAL byte buffer. A torn or
/// corrupt tail ends the log silently — that is the crash-recovery
/// contract, not an error.
pub fn decode_wal(bytes: &[u8]) -> Vec<WalRecord> {
    let mut out = Vec::new();
    let mut pos = 0usize;
    while bytes.len() - pos >= 8 {
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
        let crc = u32::from_le_bytes(bytes[pos + 4..pos + 8].try_into().unwrap());
        let start = pos + 8;
        let Some(end) = start.checked_add(len).filter(|e| *e <= bytes.len()) else {
            break; // torn frame
        };
        let payload = &bytes[start..end];
        if crc32(payload) != crc {
            break; // corrupt frame
        }
        match WalRecord::decode(payload) {
            Ok(rec) => out.push(rec),
            Err(_) => break,
        }
        pos = end;
    }
    out
}

/// Read the valid record prefix of the log at `path` (empty if the
/// file does not exist).
pub fn read_wal(path: impl AsRef<Path>) -> Result<Vec<WalRecord>, StorageError> {
    let path = path.as_ref();
    if !path.exists() {
        return Ok(Vec::new());
    }
    let mut bytes = Vec::new();
    File::open(path).map_err(io)?.read_to_end(&mut bytes).map_err(io)?;
    Ok(decode_wal(&bytes))
}

/// Byte length of the valid record prefix at `path`.
fn valid_prefix_len(path: &Path) -> Result<u64, StorageError> {
    if !path.exists() {
        return Ok(0);
    }
    let mut bytes = Vec::new();
    File::open(path).map_err(io)?.read_to_end(&mut bytes).map_err(io)?;
    let mut pos = 0usize;
    while bytes.len() - pos >= 8 {
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
        let crc = u32::from_le_bytes(bytes[pos + 4..pos + 8].try_into().unwrap());
        let start = pos + 8;
        let Some(end) = start.checked_add(len).filter(|e| *e <= bytes.len()) else { break };
        if crc32(&bytes[start..end]) != crc || WalRecord::decode(&bytes[start..end]).is_err() {
            break;
        }
        pos = end;
    }
    Ok(pos as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::DataType;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("sdo-wal-test-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("wal.log")
    }

    fn sample_records() -> Vec<WalRecord> {
        vec![
            WalRecord::CreateTable {
                name: "T".into(),
                schema: Schema::of(&[("ID", DataType::Integer), ("NAME", DataType::Text)]),
            },
            WalRecord::Begin { txid: 1 },
            WalRecord::Insert {
                txid: 1,
                table: "T".into(),
                rid: RowId::new(0),
                row: vec![Value::Integer(1), Value::from("a")],
            },
            WalRecord::Update {
                txid: 1,
                table: "T".into(),
                rid: RowId::new(0),
                row: vec![Value::Integer(2), Value::from("b")],
            },
            WalRecord::Delete { txid: 1, table: "T".into(), rid: RowId::new(0) },
            WalRecord::Commit { txid: 1 },
            WalRecord::Abort { txid: 2 },
            WalRecord::CreateIndex {
                index_name: "T_SIDX".into(),
                table_name: "T".into(),
                column_name: "GEOM".into(),
                parameters: "tree_fanout=8".into(),
                create_dop: 2,
            },
            WalRecord::DropIndex { name: "T_SIDX".into() },
            WalRecord::Analyze {
                table: "T".into(),
                stats: crate::stats::TableStats {
                    table: "T".into(),
                    rows: 2,
                    analyzed_mods: 3,
                    columns: vec![crate::stats::ColumnStats {
                        ndv: 2,
                        null_count: 0,
                        min: Some(Value::Integer(1)),
                        max: Some(Value::Integer(2)),
                    }],
                    spatial: vec![
                        None,
                        Some(crate::stats::SpatialHistogram {
                            extent: sdo_geom::Rect::new(0.0, 0.0, 4.0, 4.0),
                            dim: 2,
                            counts: vec![1, 0, 0, 1],
                            avg_width: 0.5,
                            avg_height: 0.25,
                            sampled: 2,
                        }),
                    ],
                },
            },
            WalRecord::DropTable { name: "T".into() },
        ]
    }

    #[test]
    fn records_roundtrip() {
        for rec in sample_records() {
            assert_eq!(WalRecord::decode(&rec.encode()).unwrap(), rec);
        }
    }

    #[test]
    fn append_sync_read_roundtrip() {
        let path = tmp("roundtrip");
        let counters = Arc::new(Counters::new());
        let wal = Wal::open(&path, Arc::clone(&counters)).unwrap();
        let mut last = 0;
        for rec in sample_records() {
            last = wal.append(&rec).unwrap();
        }
        wal.sync_to(last).unwrap();
        assert_eq!(Counters::get(&counters.wal_fsyncs), 1, "group-commit: one sync");
        assert!(Counters::get(&counters.wal_bytes_written) >= last);
        // A second sync below the watermark is free.
        wal.sync_to(last).unwrap();
        assert_eq!(Counters::get(&counters.wal_fsyncs), 1);
        drop(wal);
        assert_eq!(read_wal(&path).unwrap(), sample_records());
    }

    #[test]
    fn torn_tail_ends_the_log_at_every_cut() {
        let path = tmp("torn");
        let wal = Wal::open(&path, Arc::new(Counters::new())).unwrap();
        for rec in sample_records() {
            wal.append(&rec).unwrap();
        }
        wal.sync_to(wal.len()).unwrap();
        drop(wal);
        let bytes = std::fs::read(&path).unwrap();
        let full = decode_wal(&bytes);
        assert_eq!(full.len(), sample_records().len());
        for cut in 0..bytes.len() {
            let prefix = decode_wal(&bytes[..cut]);
            assert!(prefix.len() <= full.len());
            assert_eq!(prefix[..], full[..prefix.len()], "prefix property at cut {cut}");
        }
        // Corrupting a byte of a payload ends the log before it.
        let mut corrupt = bytes.clone();
        corrupt[10] ^= 0xFF;
        assert!(decode_wal(&corrupt).len() < full.len());
    }

    #[test]
    fn reopen_truncates_torn_tail_and_appends() {
        let path = tmp("reopen");
        let counters = Arc::new(Counters::new());
        let wal = Wal::open(&path, Arc::clone(&counters)).unwrap();
        wal.append(&WalRecord::Begin { txid: 1 }).unwrap();
        let lsn = wal.append(&WalRecord::Commit { txid: 1 }).unwrap();
        wal.sync_to(lsn).unwrap();
        drop(wal);
        // Simulate a torn append.
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(&[0xAB, 0xCD, 0xEF]).unwrap();
        drop(f);
        let wal = Wal::open(&path, counters).unwrap();
        assert_eq!(wal.len(), lsn, "torn tail discarded on open");
        wal.append(&WalRecord::Begin { txid: 2 }).unwrap();
        let end = wal.append(&WalRecord::Commit { txid: 2 }).unwrap();
        wal.sync_to(end).unwrap();
        drop(wal);
        let recs = read_wal(&path).unwrap();
        assert_eq!(recs.len(), 4);
        assert_eq!(recs[3], WalRecord::Commit { txid: 2 });
    }

    #[test]
    fn truncate_empties_the_log() {
        let path = tmp("truncate");
        let wal = Wal::open(&path, Arc::new(Counters::new())).unwrap();
        wal.append(&WalRecord::Begin { txid: 1 }).unwrap();
        wal.truncate().unwrap();
        assert!(wal.is_empty());
        drop(wal);
        assert!(read_wal(&path).unwrap().is_empty());
    }

    #[test]
    fn crc32_known_vector() {
        // Standard test vector: CRC-32("123456789") = 0xCBF43926.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }
}
