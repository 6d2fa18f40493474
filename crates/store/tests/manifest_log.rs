//! The `MANIFEST` is an append-only log: every binding change is one
//! line, replay ignores a torn final line, and compaction happens on
//! open (or when the log outgrows its bindings), never per change.
//!
//! The crash sweep proves process-crash consistency by enumeration: a
//! crash can stop an append at any byte, so every prefix of a scripted
//! log must reopen to exactly the replay of its complete lines — and
//! stay writable afterwards.

use extractor::ChunkPager;
use ion_store::{SpillDir, Store};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// The global obs sink is process-wide; tests in this binary serialize.
static SINK: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn obs_guard() -> std::sync::MutexGuard<'static, ()> {
    SINK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ion-manifest-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn manifest_text(root: &Path) -> String {
    std::fs::read_to_string(root.join("MANIFEST")).unwrap()
}

/// Bindings as `key → digest hex`, the same shape as a log line.
fn bindings(store: &Store) -> BTreeMap<String, String> {
    store
        .bindings()
        .into_iter()
        .map(|(k, d)| (k, d.hex()))
        .collect()
}

/// Reference replay, written independently of the store: skip the
/// header, apply every `\n`-terminated line in order (`-` unbinds),
/// drop whatever follows the last `\n`.
fn replay_complete_lines(log: &str) -> BTreeMap<String, String> {
    let body = &log[log.find('\n').unwrap() + 1..];
    let complete = &body[..body.rfind('\n').map_or(0, |end| end + 1)];
    let mut out = BTreeMap::new();
    for line in complete.lines() {
        let (key, value) = line.split_once('\t').unwrap();
        if value == "-" {
            out.remove(key);
        } else {
            out.insert(key.to_owned(), value.to_owned());
        }
    }
    out
}

/// Puts, rebinds, spill pins and prefix unbinds against a fresh store;
/// returns the final bindings.
fn script(store: &Arc<Store>) -> BTreeMap<String, String> {
    store.put("trace/a", b"a1").unwrap();
    store.put("trace/b", b"b1").unwrap();
    store.put("trace/a", b"a2").unwrap();
    store.put("diag/c", b"c1").unwrap();
    let spill = SpillDir::in_store(store);
    for seq in 0..3 {
        spill
            .spill("T", seq, format!("chunk {seq}").as_bytes())
            .unwrap();
    }
    store.put("diag/d", b"d1").unwrap();
    assert_eq!(store.unbind_prefix("trace/b").unwrap(), 1);
    assert_eq!(spill.release().unwrap(), 3);
    store.put("trace/b", b"b2").unwrap();
    store.put("diag/c", b"c2").unwrap();
    bindings(store)
}

#[test]
fn every_crash_point_reopens_to_the_replay_of_its_complete_lines() {
    let _sink = obs_guard();
    let root = tmp_dir("sweep");
    let store = Arc::new(Store::open(&root).unwrap());
    let expected_final = script(&store);
    drop(store);
    let log = manifest_text(&root);
    assert_eq!(replay_complete_lines(&log), expected_final);
    // The sweep must cross superseded lines and tombstones, not just
    // fresh bindings.
    assert!(log.lines().filter(|l| l.ends_with("\t-")).count() >= 4);
    assert!(log.lines().count() > expected_final.len() + 4);

    let header_end = log.find('\n').unwrap() + 1;
    let copy = tmp_dir("sweep-copy");
    for k in header_end..=log.len() {
        let _ = std::fs::remove_dir_all(&copy);
        std::fs::create_dir_all(&copy).unwrap();
        std::fs::write(copy.join("MANIFEST"), &log.as_bytes()[..k]).unwrap();
        let expected = replay_complete_lines(&log[..k]);

        let reopened = Store::open(&copy).unwrap();
        assert_eq!(bindings(&reopened), expected, "prefix of {k} bytes");

        // The reopened log must accept a further change without gluing
        // it onto a torn line.
        let extra = reopened.put("extra", b"after the crash").unwrap();
        drop(reopened);
        let mut with_extra = expected;
        with_extra.insert("extra".to_owned(), extra.hex());
        let again = Store::open(&copy).unwrap();
        assert_eq!(
            bindings(&again),
            with_extra,
            "prefix of {k} bytes, then a bind"
        );
    }
    let _ = std::fs::remove_dir_all(copy);
    let _ = std::fs::remove_dir_all(root);
}

#[test]
fn a_v1_manifest_opens_with_identical_bindings() {
    let _sink = obs_guard();
    let root = tmp_dir("v1");
    let store = Store::open(&root).unwrap();
    store.put("trace/a", b"a").unwrap();
    store.put("memo/b", b"b").unwrap();
    let expected = bindings(&store);
    drop(store);

    // The previous format: a sorted, whole-file rewrite under a v1 header.
    let mut v1 = String::from("ion-store-manifest v1\n");
    for (key, hex) in &expected {
        v1.push_str(&format!("{key}\t{hex}\n"));
    }
    std::fs::write(root.join("MANIFEST"), v1).unwrap();

    let reopened = Store::open(&root).unwrap();
    assert_eq!(bindings(&reopened), expected);
    assert_eq!(&*reopened.get("trace/a").unwrap().unwrap(), b"a");
    // Opening upgrades the header, so tombstones are never appended
    // under a header that promises there are none.
    assert!(manifest_text(&root).starts_with("ion-store-manifest v2\n"));
    drop(reopened);
    assert_eq!(bindings(&Store::open(&root).unwrap()), expected);
    let _ = std::fs::remove_dir_all(root);
}

#[test]
fn store_backed_spill_appends_two_lines_per_chunk_and_never_rewrites() {
    const CHUNKS: usize = 8;
    let _sink = obs_guard();
    let root = tmp_dir("spill");
    let store = Arc::new(Store::open(&root).unwrap());
    store.put("trace/seed", b"seed").unwrap();
    let lines_before = manifest_text(&root).lines().count();

    ion_obs::reset();
    ion_obs::enable();
    let spill = SpillDir::in_store(&store);
    for seq in 0..CHUNKS {
        spill
            .spill("T", seq, format!("distinct chunk {seq}").as_bytes())
            .unwrap();
    }
    assert_eq!(spill.release().unwrap(), CHUNKS);
    let snap = ion_obs::snapshot();
    ion_obs::disable();
    ion_obs::reset();

    // One pin line per chunk, one tombstone per pin, no rewrite.
    assert_eq!(
        manifest_text(&root).lines().count(),
        lines_before + 2 * CHUNKS
    );
    assert_eq!(snap.counter("store.manifest_save"), 0);
    assert_eq!(snap.counter("store.chunks.spilled"), CHUNKS as u64);
    assert_eq!(store.len(), 1);
    let _ = std::fs::remove_dir_all(root);
}
