//! On-disk layout: content-addressed objects plus an append-only
//! manifest log.
//!
//! ```text
//! <root>/
//!   MANIFEST              versioned log of key → object-digest changes
//!   objects/ab/cdef…      artifact bytes, named by their SHA-256
//! ```
//!
//! Objects are immutable once written (their name *is* their content
//! hash), so a half-written object is the only corruption mode that
//! matters — objects are therefore written to a temp file in the same
//! directory and atomically renamed into place. Concurrent writers
//! racing on one object both produce identical bytes, so whichever
//! rename lands last is harmless.
//!
//! The manifest is a log ([`ManifestLog`]): each binding change appends
//! one line, and compaction rewrites the whole file through the same
//! temp-file-and-rename path.

use crate::digest::{digest_bytes, Digest};
use crate::StoreError;
use std::collections::BTreeMap;
use std::fs::{self, File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Unique-enough temp suffix: pid + process-wide counter.
fn temp_name(tag: &str) -> String {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    format!(
        ".tmp-{tag}-{}-{}",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    )
}

fn io_err(action: &str, path: &Path, e: std::io::Error) -> StoreError {
    StoreError::Io {
        action: action.to_owned(),
        path: path.display().to_string(),
        message: e.to_string(),
    }
}

/// Write `bytes` to `path` atomically (temp file + rename), returning an
/// append handle opened on the temp file, which the rename carries over
/// to `path`.
pub fn atomic_write(path: &Path, bytes: &[u8]) -> Result<File, StoreError> {
    let dir = path
        .parent()
        .ok_or_else(|| StoreError::Corrupt(format!("{} has no parent", path.display())))?;
    fs::create_dir_all(dir).map_err(|e| io_err("create dir", dir, e))?;
    let tmp = dir.join(temp_name("obj"));
    OpenOptions::new()
        .append(true)
        .create_new(true)
        .open(&tmp)
        .and_then(|mut file| file.write_all(bytes).map(|()| file))
        .and_then(|file| fs::rename(&tmp, path).map(|()| file))
        .map_err(|e| {
            let _ = fs::remove_file(&tmp);
            io_err("write", path, e)
        })
}

/// The content-addressed object directory.
#[derive(Debug, Clone)]
pub struct ObjectDir {
    root: PathBuf,
}

impl ObjectDir {
    /// Object directory under `root` (created lazily on first write).
    #[must_use]
    pub fn new(root: &Path) -> ObjectDir {
        ObjectDir {
            root: root.join("objects"),
        }
    }

    /// Path of the object holding `digest`.
    #[must_use]
    pub fn path_of(&self, digest: &Digest) -> PathBuf {
        let hex = digest.hex();
        self.root.join(&hex[..2]).join(&hex[2..])
    }

    /// Store `bytes`, returning their digest. Skips the write if the
    /// object already exists.
    pub fn put(&self, bytes: &[u8]) -> Result<Digest, StoreError> {
        let digest = digest_bytes(bytes);
        let path = self.path_of(&digest);
        if !path.exists() {
            atomic_write(&path, bytes)?;
        }
        Ok(digest)
    }

    /// Load the object with `digest`, verifying its content hash.
    pub fn get(&self, digest: &Digest) -> Result<Option<Vec<u8>>, StoreError> {
        let path = self.path_of(digest);
        let bytes = match fs::read(&path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(io_err("read", &path, e)),
        };
        if digest_bytes(&bytes) != *digest {
            return Err(StoreError::Corrupt(format!(
                "object {} fails content verification",
                digest.short()
            )));
        }
        Ok(Some(bytes))
    }

    /// Every object digest present on disk (sorted).
    pub fn list(&self) -> Result<Vec<Digest>, StoreError> {
        let mut out = Vec::new();
        let shards = match fs::read_dir(&self.root) {
            Ok(d) => d,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(out),
            Err(e) => return Err(io_err("list", &self.root, e)),
        };
        for shard in shards {
            let shard = shard.map_err(|e| io_err("list", &self.root, e))?;
            if !shard
                .file_type()
                .map_err(|e| io_err("stat", &shard.path(), e))?
                .is_dir()
            {
                continue;
            }
            let prefix = shard.file_name().to_string_lossy().into_owned();
            for entry in fs::read_dir(shard.path()).map_err(|e| io_err("list", &shard.path(), e))? {
                let entry = entry.map_err(|e| io_err("list", &shard.path(), e))?;
                let rest = entry.file_name().to_string_lossy().into_owned();
                if rest.starts_with(".tmp-") {
                    continue;
                }
                if let Some(d) = Digest::from_hex(&format!("{prefix}{rest}")) {
                    out.push(d);
                }
            }
        }
        out.sort_unstable();
        Ok(out)
    }

    /// Delete the object with `digest` (idempotent).
    pub fn remove(&self, digest: &Digest) -> Result<(), StoreError> {
        let path = self.path_of(digest);
        match fs::remove_file(&path) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(io_err("remove", &path, e)),
        }
    }
}

/// Current manifest format version. v2 added tombstone lines, so an
/// older binary rejects a v2 log instead of misreading `key\t-`.
pub const MANIFEST_VERSION: u32 = 2;

const MANIFEST_MAGIC: &str = "ion-store-manifest";

const TOMBSTONE: &str = "-";

/// Compact once the log's lines exceed this multiple of the live
/// bindings, counted as at least `COMPACT_MIN_LIVE` so a nearly empty
/// store does not compact on every spill pin.
const COMPACT_RATIO: usize = 4;
const COMPACT_MIN_LIVE: usize = 256;

fn log_line(key: &str, value: &str) -> String {
    format!("{key}\t{value}\n")
}

/// The dependency-key map (stage key → digest of the artifact object),
/// persisted as the append-only `MANIFEST` log.
///
/// After the header come the binding changes, one line each: `key\t<hex>`
/// binds `key` and `key\t-` unbinds it. Replay applies them in order, so
/// later lines win; a final line without its `\n` is a torn append and is
/// ignored, so a process crash loses at most the change in flight. Each
/// change is one append, O(line) rather than O(manifest). Compaction
/// rewrites the file atomically as the live bindings (counted as
/// `store.manifest_save`): on open when the log is not compact, before
/// the first change after a failed append, and when the log outgrows its
/// live bindings. One writer process per root; a log from a future
/// format version is rejected rather than misread.
#[derive(Debug)]
pub struct ManifestLog {
    root: PathBuf,
    entries: BTreeMap<String, Digest>,
    /// Append handle on the live `MANIFEST`. `None` before the first
    /// write to a fresh root and after a failed append; either way the
    /// next change compacts first.
    file: Option<File>,
    /// Binding lines in the file, live and superseded.
    lines: usize,
}

impl ManifestLog {
    /// Replay the log at `root` (empty if none exists yet), compacting
    /// it if it is not already compact.
    pub fn open(root: &Path) -> Result<ManifestLog, StoreError> {
        let mut log = ManifestLog {
            root: root.to_path_buf(),
            entries: BTreeMap::new(),
            file: None,
            lines: 0,
        };
        let path = root.join("MANIFEST");
        let bytes = match fs::read(&path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(log),
            Err(e) => return Err(io_err("read", &path, e)),
        };
        let file = if log.replay(&bytes)? {
            OpenOptions::new()
                .append(true)
                .open(&path)
                .map_err(|e| io_err("open", &path, e))?
        } else {
            log.compact()?
        };
        log.file = Some(file);
        Ok(log)
    }

    /// Apply the `\n`-terminated lines of `bytes`, returning whether the
    /// log is compact: current header, no superseded line or tombstone,
    /// and no torn tail.
    fn replay(&mut self, bytes: &[u8]) -> Result<bool, StoreError> {
        let text = std::str::from_utf8(bytes)
            .map_err(|_| StoreError::Corrupt("manifest is not UTF-8".into()))?;
        let (header, body) = text.split_once('\n').unwrap_or((text, ""));
        let version = header
            .strip_prefix(MANIFEST_MAGIC)
            .and_then(|rest| rest.trim().strip_prefix('v'))
            .and_then(|v| v.parse::<u32>().ok())
            .ok_or_else(|| StoreError::Corrupt(format!("bad manifest header `{header}`")))?;
        if !(1..=MANIFEST_VERSION).contains(&version) {
            return Err(StoreError::Version {
                found: version,
                supported: MANIFEST_VERSION,
            });
        }
        // Not ending in `\n` means a torn tail (or an unterminated header).
        let mut compact = version == MANIFEST_VERSION && text.ends_with('\n');
        let complete = &body[..body.rfind('\n').map_or(0, |end| end + 1)];
        for line in complete.lines().filter(|l| !l.is_empty()) {
            let (key, value) = line.split_once('\t').ok_or_else(|| {
                StoreError::Corrupt(format!("manifest line without tab: `{line}`"))
            })?;
            let previous = if value == TOMBSTONE {
                compact = false;
                self.entries.remove(key)
            } else {
                let digest = Digest::from_hex(value)
                    .ok_or_else(|| StoreError::Corrupt(format!("bad digest for key `{key}`")))?;
                self.entries.insert(key.to_owned(), digest)
            };
            compact &= previous.is_none();
            self.lines += 1;
        }
        Ok(compact)
    }

    /// Look a key up.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Digest> {
        self.entries.get(key)
    }

    /// Number of bindings.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether there are no bindings.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterate `(key, digest)` pairs in sorted key order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Digest)> {
        self.entries.iter().map(|(k, d)| (k.as_str(), d))
    }

    /// Every digest referenced by some key.
    #[must_use]
    pub fn referenced(&self) -> std::collections::BTreeSet<Digest> {
        self.entries.values().copied().collect()
    }

    /// Bind `key` to `digest`, appending one line unless the binding is
    /// unchanged.
    pub fn bind(&mut self, key: &str, digest: Digest) -> Result<(), StoreError> {
        if self.entries.get(key) == Some(&digest) {
            return Ok(());
        }
        self.append(&log_line(key, &digest.hex()), 1)?;
        self.entries.insert(key.to_owned(), digest);
        Ok(())
    }

    /// Unbind every key starting with `prefix` (one tombstone line each,
    /// in one append), returning how many were removed.
    pub fn unbind_prefix(&mut self, prefix: &str) -> Result<usize, StoreError> {
        let doomed: Vec<String> = self
            .entries
            .keys()
            .filter(|k| k.starts_with(prefix))
            .cloned()
            .collect();
        if doomed.is_empty() {
            return Ok(0);
        }
        let text: String = doomed.iter().map(|k| log_line(k, TOMBSTONE)).collect();
        self.append(&text, doomed.len())?;
        for key in &doomed {
            self.entries.remove(key);
        }
        Ok(doomed.len())
    }

    /// Append `lines` complete lines. A failed write drops the handle, so
    /// whatever torn bytes it left are compacted away before the next one.
    fn append(&mut self, text: &str, lines: usize) -> Result<(), StoreError> {
        let limit = COMPACT_RATIO * self.entries.len().max(COMPACT_MIN_LIVE);
        let mut file = match self.file.take() {
            Some(file) if self.lines <= limit => file,
            _ => self.compact()?,
        };
        file.write_all(text.as_bytes())
            .map_err(|e| io_err("append to", &self.root.join("MANIFEST"), e))?;
        self.file = Some(file);
        self.lines += lines;
        Ok(())
    }

    /// Rewrite the log atomically as the live bindings, returning an
    /// append handle opened on the temp file before its rename, so it
    /// never points at a renamed-away file.
    fn compact(&mut self) -> Result<File, StoreError> {
        let mut text = format!("{MANIFEST_MAGIC} v{MANIFEST_VERSION}\n");
        for (key, digest) in &self.entries {
            text.push_str(&log_line(key, &digest.hex()));
        }
        let file = atomic_write(&self.root.join("MANIFEST"), text.as_bytes())?;
        self.lines = self.entries.len();
        ion_obs::counter("store.manifest_save", 1);
        Ok(file)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ion-store-disk-{tag}-{}", temp_name("t")));
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn object_round_trip_and_dedup() {
        let dir = tmpdir("rt");
        let objects = ObjectDir::new(&dir);
        let d1 = objects.put(b"hello").unwrap();
        let d2 = objects.put(b"hello").unwrap();
        assert_eq!(d1, d2);
        assert_eq!(objects.get(&d1).unwrap().unwrap(), b"hello");
        assert_eq!(objects.list().unwrap(), vec![d1]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_object_is_none() {
        let dir = tmpdir("miss");
        let objects = ObjectDir::new(&dir);
        assert!(objects.get(&digest_bytes(b"nope")).unwrap().is_none());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_object_is_detected() {
        let dir = tmpdir("corrupt");
        let objects = ObjectDir::new(&dir);
        let d = objects.put(b"payload").unwrap();
        fs::write(objects.path_of(&d), b"tampered").unwrap();
        assert!(matches!(objects.get(&d), Err(StoreError::Corrupt(_))));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn manifest_round_trip() {
        let dir = tmpdir("roundtrip");
        let mut log = ManifestLog::open(&dir).unwrap();
        log.bind("trace/abc", digest_bytes(b"x")).unwrap();
        log.bind("issue/small-io/k", digest_bytes(b"y")).unwrap();
        let reopened = ManifestLog::open(&dir).unwrap();
        assert_eq!(reopened.entries, log.entries);
        assert_eq!(reopened.lines, 2);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn future_manifest_version_is_rejected() {
        let dir = tmpdir("future");
        fs::write(dir.join("MANIFEST"), b"ion-store-manifest v99\nk\t-\n").unwrap();
        assert!(matches!(
            ManifestLog::open(&dir),
            Err(StoreError::Version { found: 99, .. })
        ));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn manifest_load_save() {
        let dir = tmpdir("manifest");
        let mut log = ManifestLog::open(&dir).unwrap();
        log.bind("k", digest_bytes(b"v")).unwrap();
        log.file = Some(log.compact().unwrap());
        assert_eq!(ManifestLog::open(&dir).unwrap().entries, log.entries);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn later_lines_win_and_a_torn_tail_is_ignored() {
        let dir = tmpdir("replay");
        let (a, b) = (digest_bytes(b"a"), digest_bytes(b"b"));
        let log = format!(
            "ion-store-manifest v2\nk\t{}\nk\t{}\ngone\t{}\ngone\t-\nk\t-",
            a.hex(),
            b.hex(),
            a.hex()
        );
        let mut replayed = ManifestLog::open(&dir).unwrap();
        assert!(!replayed.replay(log.as_bytes()).unwrap());
        assert_eq!(replayed.get("k"), Some(&b));
        assert_eq!(replayed.get("gone"), None);
        assert_eq!(replayed.lines, 4);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_failed_append_compacts_before_the_next_change() {
        let dir = tmpdir("failed-append");
        let mut log = ManifestLog::open(&dir).unwrap();
        log.bind("kept", digest_bytes(b"kept")).unwrap();
        // A read-only handle stands in for a failing disk.
        log.file = Some(File::open(dir.join("MANIFEST")).unwrap());
        assert!(log.bind("lost", digest_bytes(b"lost")).is_err());
        assert!(log.file.is_none());
        assert_eq!(log.get("lost"), None);
        log.bind("next", digest_bytes(b"next")).unwrap();
        assert_eq!(ManifestLog::open(&dir).unwrap().entries, log.entries);
        assert_eq!(log.len(), 2);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_root_loads_empty_manifest() {
        let dir = tmpdir("empty");
        assert!(ManifestLog::open(&dir).unwrap().is_empty());
        let _ = fs::remove_dir_all(&dir);
    }
}
