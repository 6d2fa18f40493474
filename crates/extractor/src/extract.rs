//! The extractor: Darshan [`Log`] → per-module [`Table`]s.
//!
//! Both entry points — [`extract_tables`] over an in-memory log and
//! [`extract_stream`](crate::stream::extract_stream) over serialized
//! bytes — drive one private fold that owns the per-module record loops,
//! the lazily created [`ChunkedTableBuilder`]s and the file-id → path
//! index, so the two produce the same tables by construction.

use crate::chunked::{ChunkPager, ChunkedTableBuilder};
use crate::stream::DEFAULT_CHUNK_ROWS;
use crate::table::{ColumnData, Table, Value};
use darshan::counters::{
    LustreCounter, MpiioCounter, MpiioFCounter, PosixCounter, PosixFCounter, StdioCounter,
    StdioFCounter,
};
use darshan::dxt::{DxtRecord, DxtSegment, OpKind};
use darshan::heatmap::HeatmapRecord;
use darshan::log::Log;
use darshan::records::LustreRecord;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::io;
use std::sync::Arc;

/// The set of tables the extractor produces for one log.
#[derive(Debug, Clone, Default)]
pub struct TableSet {
    tables: HashMap<String, Table>,
}

impl TableSet {
    /// Fetch a table by module name (`POSIX`, `MPIIO`, `STDIO`, `LUSTRE`,
    /// `DXT`).
    #[must_use]
    pub fn get(&self, name: &str) -> Option<&Table> {
        self.tables.get(name)
    }

    /// Insert a table under its name.
    pub fn insert(&mut self, table: Table) {
        self.tables.insert(table.name.clone(), table);
    }

    /// Names of tables present (sorted for determinism).
    #[must_use]
    pub fn names(&self) -> Vec<&str> {
        let mut v: Vec<&str> = self.tables.keys().map(String::as_str).collect();
        v.sort_unstable();
        v
    }

    /// Number of tables.
    #[must_use]
    pub fn len(&self) -> usize {
        self.tables.len()
    }

    /// Whether the set is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.tables.is_empty()
    }

    /// Iterate `(name, table)` pairs in sorted order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Table)> {
        let mut v: Vec<(&str, &Table)> = self.tables.iter().map(|(k, t)| (k.as_str(), t)).collect();
        v.sort_by_key(|(k, _)| *k);
        v.into_iter()
    }
}

/// `file_name` of a record whose id has no name registered.
const UNKNOWN_PATH: &str = "<unknown>";

/// Column names common to every counter table.
const ID_COLUMNS: [&str; 3] = ["file_id", "file_name", "rank"];

/// `HEATMAP` table columns.
fn heatmap_columns() -> Vec<&'static str> {
    vec![
        "rank",
        "bin",
        "bin_start",
        "bin_end",
        "read_bytes",
        "write_bytes",
    ]
}

/// `DXT` table columns.
fn dxt_columns() -> Vec<&'static str> {
    vec![
        "file_id",
        "file_name",
        "rank",
        "module",
        "op",
        "segment",
        "offset",
        "length",
        "start_time",
        "end_time",
    ]
}

/// `POSIX` table columns.
fn posix_columns() -> Vec<&'static str> {
    let mut cols: Vec<&str> = ID_COLUMNS.to_vec();
    cols.extend(PosixCounter::ALL.iter().map(|c| c.name()));
    cols.extend(PosixFCounter::ALL.iter().map(|c| c.name()));
    cols
}

/// `MPIIO` table columns.
fn mpiio_columns() -> Vec<&'static str> {
    let mut cols: Vec<&str> = ID_COLUMNS.to_vec();
    cols.extend(MpiioCounter::ALL.iter().map(|c| c.name()));
    cols.extend(MpiioFCounter::ALL.iter().map(|c| c.name()));
    cols
}

/// `STDIO` table columns.
fn stdio_columns() -> Vec<&'static str> {
    let mut cols: Vec<&str> = ID_COLUMNS.to_vec();
    cols.extend(StdioCounter::ALL.iter().map(|c| c.name()));
    cols.extend(StdioFCounter::ALL.iter().map(|c| c.name()));
    cols
}

/// `LUSTRE` table columns.
fn lustre_columns() -> Vec<&'static str> {
    let mut cols: Vec<&str> = ID_COLUMNS.to_vec();
    cols.extend(LustreCounter::ALL.iter().map(|c| c.name()));
    cols.push("LUSTRE_OST_IDS");
    cols
}

fn id_cells(path: &Arc<str>, file_id: u64, rank: i32) -> Vec<Value> {
    vec![
        Value::Int(file_id as i64),
        Value::Str(Arc::clone(path)),
        Value::Int(i64::from(rank)),
    ]
}

/// One row of a counter table (`POSIX`/`MPIIO`/`STDIO`).
fn counter_row(
    file_id: u64,
    rank: i32,
    path: &Arc<str>,
    counters: &[i64],
    fcounters: &[f64],
) -> Vec<Value> {
    let mut row = id_cells(path, file_id, rank);
    row.extend(counters.iter().map(|&c| Value::Int(c)));
    row.extend(fcounters.iter().map(|&f| Value::Float(f)));
    row
}

/// One `LUSTRE` table row.
fn lustre_row(r: &LustreRecord, path: &Arc<str>) -> Vec<Value> {
    let mut row = id_cells(path, r.file_id, r.rank);
    row.extend(r.counters.iter().map(|&c| Value::Int(c)));
    let ids: Vec<String> = r.ost_ids.iter().map(ToString::to_string).collect();
    row.push(Value::Str(ids.join(" ").into()));
    row
}

/// One `HEATMAP` table row (one per time bin of a record).
fn heatmap_row(r: &HeatmapRecord, bin: usize, rd: u64, wr: u64) -> Vec<Value> {
    vec![
        Value::Int(i64::from(r.rank)),
        Value::Int(bin as i64),
        Value::Float(bin as f64 * r.bin_width),
        Value::Float((bin + 1) as f64 * r.bin_width),
        Value::Int(rd as i64),
        Value::Int(wr as i64),
    ]
}

/// One `DXT` table row (one per traced operation of a record).
fn dxt_row(
    r: &DxtRecord,
    path: &Arc<str>,
    seg_no: usize,
    kind: OpKind,
    s: &DxtSegment,
) -> Vec<Value> {
    vec![
        Value::Int(r.file_id as i64),
        Value::Str(Arc::clone(path)),
        Value::Int(i64::from(r.rank)),
        Value::Str(r.layer.name().into()),
        Value::Str(kind.name().into()),
        Value::Int(seg_no as i64),
        Value::Int(s.offset as i64),
        Value::Int(s.length as i64),
        Value::Float(s.start_time),
        Value::Float(s.end_time),
    ]
}

/// The builder in `slot`, created on first use so that modules without
/// records yield no table (module absence is a signal downstream).
fn builder<'a>(
    slot: &'a mut Option<ChunkedTableBuilder>,
    name: &str,
    columns: fn() -> Vec<&'static str>,
    chunk_rows: usize,
    pager: Option<&Arc<dyn ChunkPager>>,
) -> &'a mut ChunkedTableBuilder {
    slot.get_or_insert_with(|| match pager {
        Some(p) => ChunkedTableBuilder::with_pager(name, &columns(), chunk_rows, Arc::clone(p)),
        None => ChunkedTableBuilder::new(name, &columns(), chunk_rows),
    })
}

/// Log records → per-module chunked tables: the one record loop behind
/// both extractors. Feed it a whole log once ([`extract_tables`]) or one
/// decoded region at a time ([`crate::stream::extract_stream`]).
pub(crate) struct Fold {
    chunk_rows: usize,
    pager: Option<Arc<dyn ChunkPager>>,
    /// File id → path; the first registration wins, as in
    /// [`Log::path_for`].
    paths: HashMap<u64, Arc<str>>,
    unknown: Arc<str>,
    /// A name was registered after rows had been pushed, so some rows
    /// may say [`UNKNOWN_PATH`] for a file the finished log does name.
    late_names: bool,
    posix: Option<ChunkedTableBuilder>,
    mpiio: Option<ChunkedTableBuilder>,
    stdio: Option<ChunkedTableBuilder>,
    lustre: Option<ChunkedTableBuilder>,
    heatmap: Option<ChunkedTableBuilder>,
    dxt: Option<ChunkedTableBuilder>,
}

impl Fold {
    /// A fold holding at most `chunk_rows` uncompressed rows per table
    /// and spilling sealed chunks through `pager` when one is given.
    pub(crate) fn new(chunk_rows: usize, pager: Option<Arc<dyn ChunkPager>>) -> Fold {
        Fold {
            chunk_rows,
            pager,
            paths: HashMap::new(),
            unknown: Arc::from(UNKNOWN_PATH),
            late_names: false,
            posix: None,
            mpiio: None,
            stdio: None,
            lustre: None,
            heatmap: None,
            dxt: None,
        }
    }

    /// Index `log`'s names, then move its module records into the
    /// tables. Each record is dropped as soon as its rows are pushed, so
    /// a decoded region never sits in memory next to all of its rows.
    /// Names and the job record are left in place.
    ///
    /// # Errors
    ///
    /// Propagates pager failures.
    pub(crate) fn push(&mut self, log: &mut Log) -> io::Result<()> {
        let started = [
            &self.posix,
            &self.mpiio,
            &self.stdio,
            &self.lustre,
            &self.heatmap,
            &self.dxt,
        ]
        .iter()
        .any(|b| b.is_some());
        for n in &log.names {
            if let Entry::Vacant(slot) = self.paths.entry(n.id) {
                slot.insert(Arc::from(n.path.as_str()));
                self.late_names |= started;
            }
        }
        let (rows, pager) = (self.chunk_rows, self.pager.as_ref());
        let path = |id: u64| self.paths.get(&id).unwrap_or(&self.unknown);
        for r in log.posix.drain(..) {
            let row = counter_row(
                r.file_id,
                r.rank,
                path(r.file_id),
                &r.counters,
                &r.fcounters,
            );
            builder(&mut self.posix, "POSIX", posix_columns, rows, pager).push_row(row)?;
        }
        for r in log.mpiio.drain(..) {
            let row = counter_row(
                r.file_id,
                r.rank,
                path(r.file_id),
                &r.counters,
                &r.fcounters,
            );
            builder(&mut self.mpiio, "MPIIO", mpiio_columns, rows, pager).push_row(row)?;
        }
        for r in log.stdio.drain(..) {
            let row = counter_row(
                r.file_id,
                r.rank,
                path(r.file_id),
                &r.counters,
                &r.fcounters,
            );
            builder(&mut self.stdio, "STDIO", stdio_columns, rows, pager).push_row(row)?;
        }
        for r in log.lustre.drain(..) {
            builder(&mut self.lustre, "LUSTRE", lustre_columns, rows, pager)
                .push_row(lustre_row(&r, path(r.file_id)))?;
        }
        for r in log.heatmap.drain(..) {
            let b = builder(&mut self.heatmap, "HEATMAP", heatmap_columns, rows, pager);
            for (bin, (rd, wr)) in r.read_bytes.iter().zip(&r.write_bytes).enumerate() {
                b.push_row(heatmap_row(&r, bin, *rd, *wr))?;
            }
        }
        for r in log.dxt.drain(..) {
            let b = builder(&mut self.dxt, "DXT", dxt_columns, rows, pager);
            let path = path(r.file_id);
            for (seg_no, (kind, s)) in r.iter().enumerate() {
                b.push_row(dxt_row(&r, path, seg_no, kind, s))?;
            }
        }
        Ok(())
    }

    /// Seal every table and collect them; counts each table's rows under
    /// `extract.rows.<table>`.
    ///
    /// # Errors
    ///
    /// Propagates pager failures.
    pub(crate) fn finish(self) -> io::Result<TableSet> {
        let mut set = TableSet::default();
        for b in [
            self.posix,
            self.mpiio,
            self.stdio,
            self.lustre,
            self.heatmap,
            self.dxt,
        ]
        .into_iter()
        .flatten()
        {
            let mut t = b.finish()?;
            if self.late_names {
                t = resolve_late_names(t, &self.paths);
            }
            if ion_obs::enabled() {
                ion_obs::counter(&format!("extract.rows.{}", t.name), t.len() as u64);
            }
            set.insert(t);
        }
        Ok(set)
    }
}

/// Re-resolve [`UNKNOWN_PATH`] file names against the complete name
/// index. A log whose name region follows the records it names (legal
/// framing, though no writer here emits it) must extract the same
/// whether it is read whole or region by region.
fn resolve_late_names(t: Table, paths: &HashMap<u64, Arc<str>>) -> Table {
    let (Some(id_col), Some(name_col)) = (t.column_index("file_id"), t.column_index("file_name"))
    else {
        return t;
    };
    let mut names = ColumnData::empty();
    for row in 0..t.len() {
        let name = t.value(row, name_col).unwrap_or(Value::Null);
        let late = match (&name, t.value(row, id_col)) {
            (Value::Str(s), Some(Value::Int(id))) if &**s == UNKNOWN_PATH => {
                paths.get(&(id as u64))
            }
            _ => None,
        };
        names.push(late.map_or(name, |p| Value::Str(Arc::clone(p))));
    }
    let names = Arc::new(names.compressed());
    let columns = t
        .columns
        .iter()
        .enumerate()
        .map(|(i, c)| {
            let data = if i == name_col {
                Arc::clone(&names)
            } else {
                t.column_arc(i).expect("column index in range")
            };
            (c.name.clone(), data)
        })
        .collect();
    Table::from_columns(&t.name, columns)
}

/// Extract every module of `log` into CSV-shaped tables.
///
/// Only modules that actually collected records appear in the result —
/// ION's module mapping later uses absence (e.g. no `MPIIO` table) as a
/// signal in itself.
#[must_use]
pub fn extract_tables(log: &Log) -> TableSet {
    let mut span = ion_obs::span!("extract");
    // Counted (not just spanned) so cache layers can prove "zero
    // extractions happened" from a metrics snapshot alone.
    ion_obs::counter("extract.runs", 1);
    // The fold consumes the records it is given, so it gets a copy.
    let mut fold = Fold::new(DEFAULT_CHUNK_ROWS, None);
    let set = fold
        .push(&mut log.clone())
        .and_then(|()| fold.finish())
        .expect("chunks held in memory never fail to spill");
    span.attr("tables", set.len());
    set
}

#[cfg(test)]
mod tests {
    use super::*;
    use darshan::accum::PosixAccumulator;
    use darshan::dxt::{DxtLayer, DxtRecord, DxtSegment, OpKind};
    use darshan::log::LogWriter;
    use darshan::record_id;
    use darshan::records::{JobRecord, LustreRecord};

    fn sample_log() -> Log {
        let mut w = LogWriter::new(JobRecord::new(0, 1, 2));
        let id = record_id("/scratch/x.h5");
        w.register_name(id, "/scratch/x.h5");
        for rank in 0..2 {
            let mut acc = PosixAccumulator::new(id, rank);
            acc.open(0.0, 0.01);
            acc.write(0, 1024, 0.01, 0.02, true);
            acc.write(1024, 1024, 0.02, 0.03, true);
            acc.close(0.03, 0.04);
            w.add_posix_record(acc.finish());
        }
        w.add_lustre_record(LustreRecord::new(id, 0, 1 << 20, vec![2, 4]));
        let mut d = DxtRecord::new(id, 0, DxtLayer::Posix, "nid0");
        d.push(
            OpKind::Write,
            DxtSegment {
                offset: 0,
                length: 1024,
                start_time: 0.01,
                end_time: 0.02,
            },
        );
        d.push(
            OpKind::Read,
            DxtSegment {
                offset: 0,
                length: 512,
                start_time: 0.05,
                end_time: 0.06,
            },
        );
        w.add_dxt_record(d);
        w.into_log()
    }

    #[test]
    fn extracts_only_present_modules() {
        let set = extract_tables(&sample_log());
        assert_eq!(set.names(), vec!["DXT", "LUSTRE", "POSIX"]);
        assert!(set.get("MPIIO").is_none());
    }

    #[test]
    fn posix_table_shape_and_values() {
        let set = extract_tables(&sample_log());
        let t = set.get("POSIX").unwrap();
        assert_eq!(t.len(), 2);
        assert_eq!(
            t.columns.len(),
            3 + darshan::counters::PosixCounter::COUNT + darshan::counters::PosixFCounter::COUNT
        );
        assert_eq!(t.cell(0, "POSIX_WRITES"), Some(Value::Int(2)));
        assert_eq!(t.cell(0, "POSIX_BYTES_WRITTEN"), Some(Value::Int(2048)));
        assert_eq!(
            t.cell(0, "file_name"),
            Some(Value::Str("/scratch/x.h5".into()))
        );
    }

    #[test]
    fn dxt_table_one_row_per_operation() {
        let set = extract_tables(&sample_log());
        let t = set.get("DXT").unwrap();
        assert_eq!(t.len(), 2);
        // Writes come first (parser order).
        assert_eq!(t.cell(0, "op"), Some(Value::Str("write".into())));
        assert_eq!(t.cell(1, "op"), Some(Value::Str("read".into())));
        assert_eq!(t.cell(0, "length"), Some(Value::Int(1024)));
        assert_eq!(t.cell(0, "module"), Some(Value::Str("X_POSIX".into())));
    }

    #[test]
    fn lustre_table_carries_ost_list() {
        let set = extract_tables(&sample_log());
        let t = set.get("LUSTRE").unwrap();
        assert_eq!(t.cell(0, "LUSTRE_OST_IDS"), Some(Value::Str("2 4".into())));
        assert_eq!(t.cell(0, "LUSTRE_STRIPE_SIZE"), Some(Value::Int(1 << 20)));
    }

    #[test]
    fn counter_sums_match_log() {
        // CSV totals must equal counter totals in the log — the extractor
        // must not lose or duplicate information.
        let log = sample_log();
        let set = extract_tables(&log);
        let t = set.get("POSIX").unwrap();
        let csv_total: i64 = t
            .column_values("POSIX_BYTES_WRITTEN")
            .unwrap()
            .filter_map(|v| v.as_i64())
            .sum();
        let log_total: i64 = log
            .posix
            .iter()
            .map(|r| r.get(darshan::counters::PosixCounter::POSIX_BYTES_WRITTEN))
            .sum();
        assert_eq!(csv_total, log_total);
    }

    #[test]
    fn empty_log_yields_empty_set() {
        let log = Log::new(JobRecord::new(0, 1, 1));
        let set = extract_tables(&log);
        assert!(set.is_empty());
    }
}
