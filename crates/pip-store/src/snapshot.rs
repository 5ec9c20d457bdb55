//! Checkpoint snapshots: one file per generation holding the entire
//! serialized catalog.
//!
//! ```text
//! snapshot-<gen>.pipsnap :=  MAGIC(8) gen(u64 LE) frame
//! frame                  :=  len(u32 LE) crc32(u32 LE) payload
//! ```
//!
//! `payload` is one JSON document: catalog version, the variable-id
//! allocator watermark, and every table (schema, rows, optional
//! optimizer-statistics blob — opaque to this crate, the engine encodes
//! and decodes it). Snapshots are written to a temp file, synced, then
//! atomically renamed into place, so a crash mid-checkpoint leaves the
//! previous generation untouched.

use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use pip_core::{PipError, Result};
use pip_ctable::CTable;
use pip_dist::DistributionRegistry;
use serde_json::Value as Json;

use crate::codec::{decode_table, encode_table};
use crate::wal::{crc32, frame, json_too_deep, MAX_JSON_DEPTH};

pub(crate) const SNAP_MAGIC: &[u8; 8] = b"PIPSNAP1";

/// One table in a snapshot: name, contents, and the engine's opaque
/// statistics payload (if statistics were fresh at checkpoint time).
#[derive(Debug, Clone)]
pub struct SnapshotTable {
    pub name: String,
    pub table: Arc<CTable>,
    pub stats: Option<Json>,
}

/// One secondary-index definition in a snapshot. Only the definition is
/// persisted; index contents are rebuilt from the table at recovery.
#[derive(Debug, Clone, PartialEq)]
pub struct SnapshotIndex {
    pub name: String,
    pub table: String,
    pub column: String,
}

/// Everything a checkpoint persists.
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// Catalog version at the checkpoint point.
    pub version: u64,
    /// Variable-id allocator watermark (next id that would be handed
    /// out); recovery reserves ids below it.
    pub next_var_id: u64,
    /// Tables sorted by name.
    pub tables: Vec<SnapshotTable>,
    /// Secondary-index definitions sorted by name. Checkpoints delete
    /// the WAL generations that carried the `CREATE INDEX` records, so
    /// definitions must ride in the snapshot itself.
    pub indexes: Vec<SnapshotIndex>,
}

pub(crate) fn snapshot_path(dir: &Path, gen: u64) -> PathBuf {
    dir.join(format!("snapshot-{gen:06}.pipsnap"))
}

fn encode_snapshot(s: &Snapshot) -> Json {
    Json::Object(vec![
        ("format".into(), Json::Number("1".into())),
        ("version".into(), Json::Number(s.version.to_string())),
        (
            "next_var_id".into(),
            Json::Number(s.next_var_id.to_string()),
        ),
        (
            "tables".into(),
            Json::Array(
                s.tables
                    .iter()
                    .map(|t| {
                        Json::Object(vec![
                            ("name".into(), Json::String(t.name.clone())),
                            ("table".into(), encode_table(&t.table)),
                            ("stats".into(), t.stats.clone().unwrap_or(Json::Null)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "indexes".into(),
            Json::Array(
                s.indexes
                    .iter()
                    .map(|i| {
                        Json::Object(vec![
                            ("name".into(), Json::String(i.name.clone())),
                            ("table".into(), Json::String(i.table.clone())),
                            ("column".into(), Json::String(i.column.clone())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

fn decode_snapshot(v: &Json, registry: &DistributionRegistry) -> Result<Snapshot> {
    let bad = || PipError::corrupt("malformed snapshot document");
    if v.get("format").and_then(Json::as_u64) != Some(1) {
        return Err(PipError::corrupt("unknown snapshot format version"));
    }
    let version = v.get("version").and_then(Json::as_u64).ok_or_else(bad)?;
    let next_var_id = v
        .get("next_var_id")
        .and_then(Json::as_u64)
        .ok_or_else(bad)?;
    let mut tables = Vec::new();
    for t in v.get("tables").and_then(Json::as_array).ok_or_else(bad)? {
        let name = t
            .get("name")
            .and_then(Json::as_str)
            .ok_or_else(bad)?
            .to_string();
        let table = decode_table(t.get("table").ok_or_else(bad)?, registry)?;
        let stats = t.get("stats").filter(|s| !s.is_null()).cloned();
        tables.push(SnapshotTable {
            name,
            table: Arc::new(table),
            stats,
        });
    }
    // Absent in pre-index snapshots: decode to no indexes.
    let mut indexes = Vec::new();
    if let Some(list) = v.get("indexes").and_then(Json::as_array) {
        for i in list {
            let field = |key: &str| -> Result<String> {
                i.get(key)
                    .and_then(Json::as_str)
                    .map(str::to_string)
                    .ok_or_else(bad)
            };
            indexes.push(SnapshotIndex {
                name: field("name")?,
                table: field("table")?,
                column: field("column")?,
            });
        }
    }
    Ok(Snapshot {
        version,
        next_var_id,
        tables,
        indexes,
    })
}

/// Serialize a snapshot to the standalone payload form replication ships
/// to a catching-up follower: the same JSON document a snapshot file
/// frames, without the file header. Enforces the write contract (nesting
/// depth) so nothing unreadable crosses the wire.
pub fn snapshot_to_bytes(s: &Snapshot) -> Result<Vec<u8>> {
    let encoded = encode_snapshot(s);
    if json_too_deep(&encoded) {
        return Err(PipError::io(format!(
            "snapshot serializes to JSON nested deeper than the \
             {MAX_JSON_DEPTH}-level payload limit"
        )));
    }
    let payload = serde_json::to_string(&encoded)
        .map_err(|e| PipError::io(format!("snapshot encode: {e}")))?;
    Ok(payload.into_bytes())
}

/// Decode a snapshot shipped as bytes (see [`snapshot_to_bytes`]). The
/// transport's checksum has already vouched for the bytes; any failure
/// here is corruption.
pub fn snapshot_from_bytes(bytes: &[u8], registry: &DistributionRegistry) -> Result<Snapshot> {
    let text = std::str::from_utf8(bytes)
        .map_err(|_| PipError::corrupt("snapshot payload is not UTF-8"))?;
    let json = serde_json::from_str(text)
        .map_err(|e| PipError::corrupt(format!("snapshot payload: {e}")))?;
    decode_snapshot(&json, registry)
}

/// Write generation `gen`'s snapshot (temp file + fsync + rename).
pub(crate) fn write_snapshot(dir: &Path, gen: u64, snapshot: &Snapshot) -> Result<()> {
    // A snapshot [`read_snapshot`] would refuse must never be written —
    // it would fail recovery outright (the WAL generations it superseded
    // are deleted right after this returns). `snapshot_to_bytes` carries
    // the nesting-depth half of that contract.
    let payload = snapshot_to_bytes(snapshot)?;
    // Same reasoning for the frame's length field: past u32 it would
    // wrap and the file would read back truncated/checksum-broken.
    if payload.len() > u32::MAX as usize {
        return Err(PipError::io(format!(
            "snapshot serializes to {} bytes, over the u32 frame length limit",
            payload.len()
        )));
    }
    let tmp = dir.join(format!("snapshot-{gen:06}.tmp"));
    {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(SNAP_MAGIC)?;
        f.write_all(&gen.to_le_bytes())?;
        f.write_all(&frame(&payload))?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, snapshot_path(dir, gen))?;
    // Make the rename itself durable.
    if let Ok(d) = std::fs::File::open(dir) {
        let _ = d.sync_all();
    }
    Ok(())
}

/// Read and verify generation `gen`'s snapshot. Any integrity failure is
/// an error — the caller falls back to an older generation (or empty).
pub(crate) fn read_snapshot(
    dir: &Path,
    gen: u64,
    registry: &DistributionRegistry,
) -> Result<Snapshot> {
    let path = snapshot_path(dir, gen);
    let bytes = std::fs::read(&path)?;
    if bytes.len() < 24 || &bytes[..8] != SNAP_MAGIC {
        return Err(PipError::corrupt(format!(
            "{} has no valid snapshot header",
            path.display()
        )));
    }
    let header_gen = u64::from_le_bytes(bytes[8..16].try_into().unwrap());
    if header_gen != gen {
        return Err(PipError::corrupt(format!(
            "{} claims generation {header_gen}, expected {gen}",
            path.display()
        )));
    }
    let len = u32::from_le_bytes(bytes[16..20].try_into().unwrap()) as usize;
    let crc = u32::from_le_bytes(bytes[20..24].try_into().unwrap());
    let payload = bytes
        .get(24..24 + len)
        .ok_or_else(|| PipError::corrupt(format!("{} is truncated", path.display())))?;
    if crc32(payload) != crc {
        return Err(PipError::corrupt(format!(
            "{} fails its checksum",
            path.display()
        )));
    }
    let text = std::str::from_utf8(payload)
        .map_err(|_| PipError::corrupt("snapshot payload is not UTF-8"))?;
    let json = serde_json::from_str(text)
        .map_err(|e| PipError::corrupt(format!("snapshot payload: {e}")))?;
    decode_snapshot(&json, registry)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pip_core::{DataType, Schema, Value};
    use pip_ctable::CRow;
    use pip_expr::Equation;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("pip-store-snaptest-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn snapshot_round_trip() {
        let dir = tmp_dir("rt");
        let reg = DistributionRegistry::with_builtins();
        let mut t = CTable::empty(Schema::of(&[("a", DataType::Int)]));
        t.push(CRow::unconditional(vec![Equation::val(Value::Int(7))]))
            .unwrap();
        let snap = Snapshot {
            version: 12,
            next_var_id: 99,
            tables: vec![SnapshotTable {
                name: "t".into(),
                table: Arc::new(t.clone()),
                stats: Some(Json::Object(vec![(
                    "rows".into(),
                    Json::Number("1".into()),
                )])),
            }],
            indexes: vec![SnapshotIndex {
                name: "t_a".into(),
                table: "t".into(),
                column: "a".into(),
            }],
        };
        write_snapshot(&dir, 4, &snap).unwrap();
        let back = read_snapshot(&dir, 4, &reg).unwrap();
        assert_eq!(back.version, 12);
        assert_eq!(back.next_var_id, 99);
        assert_eq!(back.indexes, snap.indexes);
        assert_eq!(back.tables.len(), 1);
        assert_eq!(*back.tables[0].table, t);
        assert_eq!(
            back.tables[0].stats.as_ref().unwrap().get("rows").unwrap(),
            &Json::Number("1".into())
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn snapshot_with_long_text_rows_round_trips() {
        // ~8 MB of text rows: string decoding must stay linear in the
        // document size, or recovery of such a snapshot stalls.
        let dir = tmp_dir("long-text");
        let reg = DistributionRegistry::with_builtins();
        let mut t = CTable::empty(Schema::of(&[("id", DataType::Int), ("p", DataType::Str)]));
        for i in 0..2000i64 {
            let text = format!("row {i} é \"q\" ").repeat(300);
            t.push(CRow::unconditional(vec![
                Equation::val(Value::Int(i)),
                Equation::val(Value::str(&text)),
            ]))
            .unwrap();
        }
        let snap = Snapshot {
            version: 3,
            next_var_id: 0,
            tables: vec![SnapshotTable {
                name: "events".into(),
                table: Arc::new(t.clone()),
                stats: None,
            }],
            indexes: Vec::new(),
        };
        write_snapshot(&dir, 1, &snap).unwrap();
        let t0 = std::time::Instant::now();
        let back = read_snapshot(&dir, 1, &reg).unwrap();
        let took = t0.elapsed();
        assert_eq!(*back.tables[0].table, t);
        assert!(took.as_secs_f64() < 10.0, "recovery read took {took:?}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn too_deep_snapshot_fails_loudly_instead_of_landing_unreadable() {
        let dir = tmp_dir("deep");
        let mut eq = Equation::val(Value::Float(1.0));
        for _ in 0..80 {
            eq = eq + Equation::val(Value::Float(1.0));
        }
        let mut t = CTable::empty(Schema::of(&[("x", DataType::Symbolic)]));
        t.push(CRow::unconditional(vec![eq])).unwrap();
        let snap = Snapshot {
            version: 1,
            next_var_id: 1,
            tables: vec![SnapshotTable {
                name: "t".into(),
                table: Arc::new(t),
                stats: None,
            }],
            indexes: vec![],
        };
        // A snapshot read_snapshot would refuse must fail the write —
        // once the old generations are cleaned up, an unreadable
        // snapshot would leave the data directory unopenable.
        assert!(matches!(
            write_snapshot(&dir, 3, &snap),
            Err(PipError::Io(_))
        ));
        assert!(
            !snapshot_path(&dir, 3).exists(),
            "refused snapshot must not be left behind"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn every_wal_accepted_row_also_snapshots() {
        use crate::codec::{CatalogRecord, WalEntry};
        use crate::wal::encode_payload;

        // The WAL guard keeps SNAPSHOT_DEPTH_HEADROOM below the parser
        // cap because a snapshot nests Insert rows one level deeper than
        // a WAL frame. Sweep chain lengths across the acceptance
        // boundary: anything the log acknowledges as durable must also
        // be checkpointable, or the catalog would hold rows every later
        // snapshot chokes on.
        let dir = tmp_dir("align");
        let mut accepted = 0;
        for ops in 50..=70 {
            let mut eq = Equation::val(Value::Float(1.0));
            for _ in 0..ops {
                eq = eq + Equation::val(Value::Float(1.0));
            }
            let row = CRow::unconditional(vec![eq]);
            let entry = WalEntry {
                version: 1,
                record: CatalogRecord::Insert {
                    name: "t".into(),
                    rows: vec![row.clone()],
                },
            };
            if encode_payload(&entry).is_err() {
                continue;
            }
            accepted += 1;
            let mut t = CTable::empty(Schema::of(&[("x", DataType::Symbolic)]));
            t.push(row).unwrap();
            write_snapshot(
                &dir,
                ops as u64,
                &Snapshot {
                    version: 1,
                    next_var_id: 1,
                    tables: vec![SnapshotTable {
                        name: "t".into(),
                        table: Arc::new(t),
                        stats: None,
                    }],
                    indexes: vec![],
                },
            )
            .unwrap_or_else(|e| panic!("WAL accepts {ops}-op chain but snapshot refuses: {e}"));
        }
        assert!(accepted > 0, "sweep never crossed the acceptance side");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_snapshot_is_rejected() {
        let dir = tmp_dir("bad");
        let reg = DistributionRegistry::with_builtins();
        let snap = Snapshot {
            version: 1,
            next_var_id: 1,
            tables: vec![],
            indexes: vec![],
        };
        write_snapshot(&dir, 2, &snap).unwrap();
        let path = snapshot_path(&dir, 2);
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 3;
        bytes[last] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            read_snapshot(&dir, 2, &reg),
            Err(PipError::Corrupt(_))
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
