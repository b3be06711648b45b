//! Binary snapshots of tables and catalogs.
//!
//! Oracle persists everything, of course; this in-memory engine offers
//! the equivalent through explicit snapshots: a versioned, deterministic
//! binary image of every table (schema + rows, tombstones included so
//! rowids survive) plus the index metadata rows. Domain indexes are not
//! serialized — they are rebuilt from their recorded parameters on
//! load, the same way `ALTER INDEX REBUILD` would.

use crate::catalog::{Catalog, IndexKind, IndexMetadata};
use crate::schema::{ColumnDef, DataType, Schema};
use crate::stats::TableStats;
use crate::table::Table;
use crate::value::Value;
use crate::{RowId, StorageError};
use bytes::{Buf, BufMut, Bytes};

/// Current snapshot version (the trailing magic byte). Version 2 added
/// per-table modification counters and the persisted `ANALYZE`
/// statistics section; version-1 images still load (no mods, no stats).
const MAGIC: &[u8; 6] = b"SDODB\x02";
const MAGIC_V1: &[u8; 6] = b"SDODB\x01";

/// An error of the checkpoint loader's own structure.
fn err(m: impl Into<String>) -> StorageError {
    StorageError::TypeError(format!("snapshot: {}", m.into()))
}

/// An error of the value codec ([`get_value`], [`get_str`]), which
/// checkpoints, the WAL, statistics and the wire protocol all share.
fn value_err(m: impl Into<String>) -> StorageError {
    StorageError::TypeError(format!("value encoding: {}", m.into()))
}

// ---------------------------------------------------------------------------
// primitives
// ---------------------------------------------------------------------------

pub(crate) fn put_str(buf: &mut Vec<u8>, s: &str) {
    buf.extend_from_slice(&(s.len() as u32).to_le_bytes());
    buf.extend_from_slice(s.as_bytes());
}

pub(crate) fn get_str(buf: &mut impl Buf) -> Result<String, StorageError> {
    if buf.remaining() < 4 {
        return Err(value_err("truncated string length"));
    }
    let n = buf.get_u32_le() as usize;
    if buf.remaining() < n {
        return Err(value_err("truncated string body"));
    }
    let mut bytes = vec![0u8; n];
    buf.copy_to_slice(&mut bytes);
    String::from_utf8(bytes).map_err(|_| value_err("invalid utf8"))
}

/// Append one tagged [`Value`]: the value encoding shared by
/// checkpoints, the WAL, persisted statistics and the wire protocol.
///
/// A tag byte, then: 0 NULL (nothing); 1 integer (`i64` LE); 2 double
/// (`f64` bits LE); 3 text (`u32` LE length + UTF-8 bytes); 4 rowid
/// (`u64` LE); 5 geometry (`u32` LE length + [`sdo_geom::codec`]
/// bytes).
pub fn put_value(buf: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Null => buf.push(0),
        Value::Integer(i) => {
            buf.push(1);
            buf.extend_from_slice(&i.to_le_bytes());
        }
        Value::Double(d) => {
            buf.push(2);
            buf.extend_from_slice(&d.to_le_bytes());
        }
        Value::Text(s) => {
            buf.push(3);
            put_str(buf, s);
        }
        Value::RowId(r) => {
            buf.push(4);
            buf.extend_from_slice(&r.as_u64().to_le_bytes());
        }
        Value::Geometry(g) => {
            buf.push(5);
            let at = buf.len();
            buf.extend_from_slice(&[0; 4]);
            sdo_geom::codec::put_geometry(buf, g);
            let len = (buf.len() - at - 4) as u32;
            buf[at..at + 4].copy_from_slice(&len.to_le_bytes());
        }
    }
}

/// The number of bytes [`put_value`] writes for `v`, so a caller can
/// size its buffer once.
pub fn value_len(v: &Value) -> usize {
    1 + match v {
        Value::Null => 0,
        Value::Integer(_) | Value::Double(_) | Value::RowId(_) => 8,
        Value::Text(s) => 4 + s.len(),
        Value::Geometry(g) => 4 + sdo_geom::codec::encoded_len(g),
    }
}

/// Read one value written by [`put_value`], advancing `buf` past it.
///
/// Every length is checked against the bytes that remain before
/// anything is allocated, and a geometry is fully validated, so bytes
/// of unknown provenance yield an error, never a panic.
pub fn get_value(buf: &mut impl Buf) -> Result<Value, StorageError> {
    if !buf.has_remaining() {
        return Err(value_err("truncated value tag"));
    }
    match buf.get_u8() {
        0 => Ok(Value::Null),
        1 if buf.remaining() >= 8 => Ok(Value::Integer(buf.get_i64_le())),
        2 if buf.remaining() >= 8 => Ok(Value::Double(buf.get_f64_le())),
        3 => Ok(Value::text(get_str(buf)?)),
        4 if buf.remaining() >= 8 => Ok(Value::RowId(RowId::new(buf.get_u64_le()))),
        5 => {
            if buf.remaining() < 4 {
                return Err(value_err("truncated geometry length"));
            }
            let n = buf.get_u32_le() as usize;
            if buf.remaining() < n {
                return Err(value_err("truncated geometry body"));
            }
            // Decode straight from the unread bytes (`chunk` is all of
            // them for the workspace's contiguous buffers).
            let g = sdo_geom::codec::decode_geometry(&buf.chunk()[..n])
                .map_err(|e| value_err(e.to_string()))?;
            buf.advance(n);
            Ok(Value::geometry(g))
        }
        1 | 2 | 4 => Err(value_err("truncated value body")),
        t => Err(value_err(format!("bad value tag {t}"))),
    }
}

pub(crate) fn datatype_tag(t: DataType) -> u8 {
    match t {
        DataType::Integer => 1,
        DataType::Double => 2,
        DataType::Text => 3,
        DataType::RowId => 4,
        DataType::Geometry => 5,
    }
}

pub(crate) fn datatype_from(tag: u8) -> Result<DataType, StorageError> {
    Ok(match tag {
        1 => DataType::Integer,
        2 => DataType::Double,
        3 => DataType::Text,
        4 => DataType::RowId,
        5 => DataType::Geometry,
        t => return Err(err(format!("bad datatype tag {t}"))),
    })
}

// ---------------------------------------------------------------------------
// tables and catalogs
// ---------------------------------------------------------------------------

fn put_table(buf: &mut Vec<u8>, t: &Table) {
    put_str(buf, t.name());
    let cols = t.schema().columns();
    buf.put_u32_le(cols.len() as u32);
    for c in cols {
        put_str(buf, &c.name);
        buf.put_u8(datatype_tag(c.data_type));
    }
    // Slots, tombstones included, so rowids survive the round trip.
    buf.put_u64_le(t.high_water_mark() as u64);
    for slot in 0..t.high_water_mark() {
        match t.get(RowId::new(slot as u64)) {
            Ok(row) => {
                buf.put_u8(1);
                buf.put_u32_le(row.len() as u32);
                for v in row.iter() {
                    put_value(buf, v);
                }
            }
            Err(_) => buf.put_u8(0), // tombstone
        }
    }
    buf.put_u64_le(t.mod_count());
}

fn get_table(buf: &mut impl Buf, version: u8) -> Result<Table, StorageError> {
    let name = get_str(buf)?;
    if buf.remaining() < 4 {
        return Err(err("truncated column count"));
    }
    let n_cols = buf.get_u32_le() as usize;
    let mut cols = Vec::with_capacity(n_cols);
    for _ in 0..n_cols {
        let cname = get_str(buf)?;
        if !buf.has_remaining() {
            return Err(err("truncated column type"));
        }
        cols.push(ColumnDef::new(&cname, datatype_from(buf.get_u8())?));
    }
    let mut table = Table::new(&name, Schema::new(cols));
    if buf.remaining() < 8 {
        return Err(err("truncated slot count"));
    }
    let hwm = buf.get_u64_le() as usize;
    for _ in 0..hwm {
        if !buf.has_remaining() {
            return Err(err("truncated slot flag"));
        }
        if buf.get_u8() == 1 {
            if buf.remaining() < 4 {
                return Err(err("truncated row arity"));
            }
            let arity = buf.get_u32_le() as usize;
            let mut row = Vec::with_capacity(arity);
            for _ in 0..arity {
                row.push(get_value(buf)?);
            }
            table.insert(row)?;
        } else {
            // Reconstruct the tombstone: insert a placeholder and
            // delete it so rowids keep their positions.
            let arity = table.schema().arity();
            let rid = table.insert(vec![Value::Null; arity])?;
            table.delete(rid)?;
        }
    }
    if version >= 2 {
        if buf.remaining() < 8 {
            return Err(err("truncated modification counter"));
        }
        // The rebuild above inflated `mods`; restore the stored value
        // so staleness is measured against the original history.
        let mods = buf.get_u64_le();
        table.set_mod_count(mods);
    }
    Ok(table)
}

/// Serialize a catalog (tables + index metadata) into snapshot bytes.
pub fn save_catalog(catalog: &Catalog, metas: &[IndexMetadata]) -> Bytes {
    let mut buf = Vec::new();
    buf.put_slice(MAGIC);
    let names = catalog.table_names();
    buf.put_u32_le(names.len() as u32);
    for name in &names {
        let t = catalog.table(name).expect("listed table exists");
        put_table(&mut buf, &t.read());
    }
    buf.put_u32_le(metas.len() as u32);
    for m in metas {
        put_str(&mut buf, &m.index_name);
        put_str(&mut buf, &m.table_name);
        put_str(&mut buf, &m.column_name);
        buf.put_u8(match m.kind {
            IndexKind::RTree => 1,
            IndexKind::Quadtree => 2,
        });
        buf.put_u32_le(m.create_dop as u32);
        put_str(&mut buf, &m.parameters);
    }
    let stats = catalog.all_table_stats();
    buf.put_u32_le(stats.len() as u32);
    for s in &stats {
        s.encode(&mut buf);
    }
    Bytes::from(buf)
}

/// The index-rebuild directives recovered from a snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IndexDirective {
    /// Index to recreate.
    pub index_name: String,
    /// Table it covers.
    pub table_name: String,
    /// Indexed column.
    pub column_name: String,
    /// `PARAMETERS` string recorded at creation.
    pub parameters: String,
    /// Degree of parallelism recorded at creation.
    pub create_dop: usize,
}

/// Restore tables into `catalog` and return the index-rebuild
/// directives (the caller recreates domain indexes through its
/// indextype registry).
pub fn load_catalog(
    catalog: &Catalog,
    mut buf: impl Buf,
) -> Result<Vec<IndexDirective>, StorageError> {
    if buf.remaining() < MAGIC.len() {
        return Err(err("truncated header"));
    }
    let mut magic = [0u8; 6];
    buf.copy_to_slice(&mut magic);
    let version = if &magic == MAGIC {
        2
    } else if &magic == MAGIC_V1 {
        1
    } else {
        return Err(err("bad magic / unsupported version"));
    };
    if buf.remaining() < 4 {
        return Err(err("truncated table count"));
    }
    let n_tables = buf.get_u32_le() as usize;
    for _ in 0..n_tables {
        let table = get_table(&mut buf, version)?;
        let handle = catalog.create_table(table.name(), table.schema().clone())?;
        *handle.write() = table
            .with_counters(std::sync::Arc::clone(catalog.counters()))
            .with_status(std::sync::Arc::clone(catalog.status()));
    }
    if buf.remaining() < 4 {
        return Err(err("truncated index count"));
    }
    let n_idx = buf.get_u32_le() as usize;
    let mut out = Vec::with_capacity(n_idx);
    for _ in 0..n_idx {
        let index_name = get_str(&mut buf)?;
        let table_name = get_str(&mut buf)?;
        let column_name = get_str(&mut buf)?;
        if buf.remaining() < 5 {
            return Err(err("truncated index record"));
        }
        let _kind = buf.get_u8();
        let create_dop = buf.get_u32_le() as usize;
        let parameters = get_str(&mut buf)?;
        out.push(IndexDirective { index_name, table_name, column_name, parameters, create_dop });
    }
    if version >= 2 {
        if buf.remaining() < 4 {
            return Err(err("truncated stats count"));
        }
        let n_stats = buf.get_u32_le() as usize;
        for _ in 0..n_stats {
            let stats = TableStats::decode(&mut buf)?;
            if catalog.table(&stats.table).is_ok() {
                catalog.set_table_stats(stats);
            }
        }
    }
    if buf.has_remaining() {
        return Err(err("trailing bytes"));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdo_geom::{Geometry, Point};

    fn sample_catalog() -> Catalog {
        let cat = Catalog::new();
        let t = cat
            .create_table(
                "t",
                Schema::of(&[
                    ("ID", DataType::Integer),
                    ("NAME", DataType::Text),
                    ("GEOM", DataType::Geometry),
                ]),
            )
            .unwrap();
        let mut guard = t.write();
        for i in 0..10 {
            guard
                .insert(vec![
                    Value::Integer(i),
                    Value::text(format!("row{i}")),
                    Value::geometry(Geometry::Point(Point::new(i as f64, -i as f64))),
                ])
                .unwrap();
        }
        guard.delete(RowId::new(3)).unwrap();
        guard.delete(RowId::new(7)).unwrap();
        drop(guard);
        cat.create_table("empty", Schema::of(&[("V", DataType::Double)])).unwrap();
        cat
    }

    #[test]
    fn catalog_roundtrip_preserves_rowids_and_tombstones() {
        let cat = sample_catalog();
        let bytes = save_catalog(&cat, &[]);
        let restored = Catalog::new();
        let directives = load_catalog(&restored, bytes).unwrap();
        assert!(directives.is_empty());
        assert_eq!(restored.table_names(), vec!["EMPTY".to_string(), "T".to_string()]);
        let t = restored.table("t").unwrap();
        let t = t.read();
        assert_eq!(t.len(), 8);
        assert_eq!(t.high_water_mark(), 10);
        assert!(!t.exists(RowId::new(3)));
        assert!(!t.exists(RowId::new(7)));
        let row = t.get(RowId::new(5)).unwrap();
        assert_eq!(row[0].as_integer(), Some(5));
        assert_eq!(row[1].as_text(), Some("row5"));
        assert_eq!(row[2].as_geometry().map(|g| g.bbox().center()), Some(Point::new(5.0, -5.0)));
    }

    #[test]
    fn index_directives_roundtrip() {
        let cat = sample_catalog();
        let meta = IndexMetadata {
            index_name: "T_X".into(),
            table_name: "T".into(),
            column_name: "GEOM".into(),
            kind: IndexKind::Quadtree,
            dimensions: 2,
            fanout: None,
            tiling_level: Some(7),
            create_dop: 4,
            parameters: "sdo_level=7".into(),
        };
        let bytes = save_catalog(&cat, &[meta]);
        let restored = Catalog::new();
        let directives = load_catalog(&restored, bytes).unwrap();
        assert_eq!(
            directives,
            vec![IndexDirective {
                index_name: "T_X".into(),
                table_name: "T".into(),
                column_name: "GEOM".into(),
                parameters: "sdo_level=7".into(),
                create_dop: 4,
            }]
        );
    }

    #[test]
    fn value_len_is_what_put_value_writes() {
        let hole = sdo_geom::Ring::new(vec![
            Point::new(1.0, 1.0),
            Point::new(1.0, 2.0),
            Point::new(2.0, 2.0),
            Point::new(2.0, 1.0),
        ])
        .unwrap();
        let square = sdo_geom::Polygon::from_rect(&sdo_geom::Rect::new(0.0, 0.0, 4.0, 4.0));
        let values = [
            Value::Null,
            Value::Integer(-3),
            Value::Double(0.5),
            Value::text("héllo"),
            Value::RowId(RowId::new(9)),
            Value::geometry(Geometry::Point(Point::new(1.0, 2.0))),
            Value::geometry(Geometry::Polygon(sdo_geom::Polygon::new(
                square.exterior().clone(),
                vec![hole],
            ))),
        ];
        for v in &values {
            let mut buf = vec![0xEE];
            put_value(&mut buf, v);
            assert_eq!(buf.len() - 1, value_len(v), "{v:?}");
            assert_eq!(&get_value(&mut &buf[1..]).unwrap(), v);
        }
    }

    #[test]
    fn corruption_is_an_error_not_a_panic() {
        let cat = sample_catalog();
        let good = save_catalog(&cat, &[]);
        for cut in 0..good.len().min(200) {
            let restored = Catalog::new();
            assert!(load_catalog(&restored, good.slice(..cut)).is_err());
        }
        let mut bad = good.to_vec();
        bad[0] ^= 0xFF;
        let restored = Catalog::new();
        assert!(load_catalog(&restored, &bad[..]).is_err());
    }
}
