//! Log serialization.

use super::{Log, StreamWriter};
use crate::dxt::DxtRecord;
use crate::heatmap::HeatmapRecord;
use crate::records::{JobRecord, LustreRecord, MpiioRecord, PosixRecord, StdioRecord};
use crate::DarshanError;

/// Accumulates records and serializes them into the binary log format.
///
/// The writer mirrors how `darshan-core` assembles a log at MPI finalize
/// time: records are appended per module, and [`LogWriter::finish`] hands
/// them to a [`StreamWriter`], the one region framer, in a single pass.
#[derive(Debug, Clone)]
pub struct LogWriter {
    log: Log,
}

impl LogWriter {
    /// Start a log for the given job.
    #[must_use]
    pub fn new(job: JobRecord) -> Self {
        LogWriter { log: Log::new(job) }
    }

    /// Wrap an existing in-memory log for serialization.
    #[must_use]
    pub fn from_log(log: Log) -> Self {
        LogWriter { log }
    }

    /// Register a record id → path mapping.
    pub fn register_name(&mut self, id: u64, path: &str) {
        if !self.log.names.iter().any(|n| n.id == id) {
            self.log.names.push(crate::records::NameRecord {
                id,
                path: path.to_owned(),
            });
        }
    }

    /// Append a POSIX record.
    pub fn add_posix_record(&mut self, record: PosixRecord) {
        self.log.posix.push(record);
    }

    /// Append an MPI-IO record.
    pub fn add_mpiio_record(&mut self, record: MpiioRecord) {
        self.log.mpiio.push(record);
    }

    /// Append a STDIO record.
    pub fn add_stdio_record(&mut self, record: StdioRecord) {
        self.log.stdio.push(record);
    }

    /// Append a Lustre record.
    pub fn add_lustre_record(&mut self, record: LustreRecord) {
        self.log.lustre.push(record);
    }

    /// Append a DXT record.
    pub fn add_dxt_record(&mut self, record: DxtRecord) {
        self.log.dxt.push(record);
    }

    /// Append a heatmap record.
    pub fn add_heatmap_record(&mut self, record: HeatmapRecord) {
        self.log.heatmap.push(record);
    }

    /// Consume the writer and return the in-memory log without serializing.
    #[must_use]
    pub fn into_log(self) -> Log {
        self.log
    }

    /// Borrow the in-memory log.
    #[must_use]
    pub fn log(&self) -> &Log {
        &self.log
    }

    /// Serialize the log into bytes: a [`StreamWriter`] over a `Vec`,
    /// fed the name table and then one region per module that has
    /// records.
    ///
    /// # Errors
    ///
    /// Fails only if a string field (path, hostname, exe) exceeds the
    /// format's 64 KiB string limit.
    pub fn finish(&mut self) -> Result<Vec<u8>, DarshanError> {
        let log = &self.log;
        let mut w = StreamWriter::new(Vec::with_capacity(4096), &log.job)?;
        w.write_names(&log.names)?;
        if !log.posix.is_empty() {
            w.write_posix(&log.posix)?;
        }
        if !log.mpiio.is_empty() {
            w.write_mpiio(&log.mpiio)?;
        }
        if !log.stdio.is_empty() {
            w.write_stdio(&log.stdio)?;
        }
        if !log.lustre.is_empty() {
            w.write_lustre(&log.lustre)?;
        }
        if !log.dxt.is_empty() {
            w.write_dxt(&log.dxt)?;
        }
        if !log.heatmap.is_empty() {
            w.write_heatmap(&log.heatmap)?;
        }
        w.finish()
    }
}
