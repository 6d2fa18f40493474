//! Seeded input generation.
//!
//! Every trace comes from one of the repository's ten workload
//! generators. A trace's size knob is taken from a fixed grid and then
//! jittered by the seed inside its own grid cell, so:
//!
//! * traces of one workload have pairwise distinct digests (each knob
//!   value is used once per generator);
//! * the same seed gives byte-identical traces;
//! * different seeds give different traces with nearly the same size
//!   mix, so run-to-run spread reflects the program, not the inputs.
//!
//! Generated traces are written to files before set-up, so neither the
//! generator's memory nor the inputs themselves count in `peak_rss_mb`.

use darshan::log::LogWriter;
use std::path::{Path, PathBuf};
use workloads::e2e::{E2e, E2eVariant};
use workloads::ior;
use workloads::mdworkbench::MdWorkbench;
use workloads::openpmd::{OpenPmd, OpenPmdVariant};
use workloads::Workload;

/// The ten generators, in `ion_cli generate` naming.
pub const GENERATORS: [&str; 10] = [
    "ior-easy-2k",
    "ior-easy-1m",
    "ior-easy-fpp",
    "ior-hard",
    "ior-rnd4k",
    "mdworkbench",
    "openpmd",
    "openpmd-opt",
    "e2e",
    "e2e-opt",
];

/// SplitMix64: a small, well-mixed deterministic generator.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x6a09_e667_f3bc_c908)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

/// Generate one trace: `generator`'s knob at grid cell `cell`, jittered
/// inside the cell by `jitter` (any value; reduced per generator). With
/// a `tag`, every file path and the job id carry it, which makes traces
/// of equal knob distinct jobs over distinct files.
///
/// # Panics
///
/// On an unknown generator name or a generator failure.
#[must_use]
pub fn trace(generator: &str, cell: u64, jitter: u64, tag: Option<u64>) -> Vec<u8> {
    // The jitter stays inside its cell, so distinct cells give distinct
    // knob values.
    let knob = |lo: u64, per_cell: u64| lo + cell * per_cell + jitter % per_cell;
    let workload: Box<dyn Workload> = match generator {
        "ior-easy-2k" => Box::new(with_ops(ior::ior_easy_2kb_shared(0.1), knob(48, 24))),
        "ior-easy-1m" => Box::new(with_ops(ior::ior_easy_1mb_shared(0.1), knob(12, 6))),
        "ior-easy-fpp" => Box::new(with_ops(ior::ior_easy_1mb_fpp(0.1), knob(12, 6))),
        "ior-hard" => Box::new(with_ops(ior::ior_hard(0.01), knob(24, 12))),
        "ior-rnd4k" => {
            let mut w = with_ops(ior::ior_rnd4k(0.05), knob(24, 12));
            w.config.seed ^= jitter;
            Box::new(w)
        }
        "mdworkbench" => {
            let mut w = MdWorkbench::scaled(0.25);
            w.config.iterations_per_rank = knob(12, 6);
            Box::new(w)
        }
        "openpmd" => {
            let mut w = OpenPmd::scaled(OpenPmdVariant::Baseline, 0.0);
            w.writes_per_rank = knob(32, 8);
            w.reads_per_rank = w.writes_per_rank * 2 / 3;
            Box::new(w)
        }
        "openpmd-opt" => {
            let mut w = OpenPmd::scaled(OpenPmdVariant::Optimized, 0.0);
            w.nprocs = u32::try_from(knob(6, 2)).expect("rank count fits u32");
            Box::new(w)
        }
        "e2e" | "e2e-opt" => {
            let variant = if generator == "e2e" {
                E2eVariant::Baseline
            } else {
                E2eVariant::Optimized
            };
            let mut w = E2e::scaled(variant, 0.0);
            w.nprocs = u32::try_from(knob(16, 1)).expect("rank count fits u32");
            // Keep records unaligned: shift by whole 8-byte words.
            w.record_size += 8 * (jitter % 64);
            Box::new(w)
        }
        other => panic!("unknown generator {other}"),
    };
    let mut log = workload.generate();
    if let Some(tag) = tag {
        log.job.job_id = tag;
        for name in &mut log.names {
            name.path = format!("{}.{tag}", name.path);
        }
    }
    serialize(log)
}

fn with_ops(mut w: ior::IorWorkload, ops: u64) -> ior::IorWorkload {
    w.config.ops_per_rank = ops;
    w
}

/// A big `openpmd` baseline trace (about 1.5–2.5 MB, ~10^5 DXT rows)
/// at grid cell `cell`, jittered inside the cell.
#[must_use]
pub fn big_trace(cell: u64, jitter: u64) -> Vec<u8> {
    let mut w = OpenPmd::scaled(OpenPmdVariant::Baseline, 0.0);
    w.nprocs = 16 + 2 * u32::try_from(cell % 8).expect("small");
    w.writes_per_rank = 1000 + 4 * cell + jitter % 4;
    serialize(w.generate())
}

fn serialize(log: darshan::log::Log) -> Vec<u8> {
    LogWriter::from_log(log)
        .finish()
        .expect("a generated log serializes")
}

/// One staged trace file.
#[derive(Debug, Clone)]
pub struct Input {
    pub path: PathBuf,
    pub bytes: u64,
}

impl Input {
    pub fn read(&self) -> Vec<u8> {
        std::fs::read(&self.path).expect("staged trace is readable")
    }
}

/// Write `traces` into `dir` as `<index>.darshan`.
pub fn stage(dir: &Path, traces: Vec<Vec<u8>>) -> Vec<Input> {
    std::fs::create_dir_all(dir).expect("create input dir");
    let staged = traces
        .into_iter()
        .enumerate()
        .map(|(i, bytes)| {
            let path = dir.join(format!("{i:05}.darshan"));
            std::fs::write(&path, &bytes).expect("write staged trace");
            Input {
                path,
                bytes: bytes.len() as u64,
            }
        })
        .collect();
    crate::stats::settle_disk();
    staged
}

/// The fleet: `per_generator` traces from each of the ten generators,
/// one per grid cell, in a seeded interleaved order.
#[must_use]
pub fn fleet(seed: u64, per_generator: u64) -> Vec<Vec<u8>> {
    let mut rng = Rng::new(seed);
    let mut slots: Vec<(&'static str, u64, u64)> = Vec::new();
    for generator in GENERATORS {
        for cell in 0..per_generator {
            slots.push((generator, cell, rng.next_u64()));
        }
    }
    rng.shuffle(&mut slots);
    slots
        .into_iter()
        .map(|(generator, cell, jitter)| trace(generator, cell, jitter, None))
        .collect()
}

/// `count` small traces for the daemon, cycling through the ten
/// generators at the three smallest grid cells. Each carries a distinct
/// tag, so all digests differ while job sizes stay small.
#[must_use]
pub fn small_fleet(seed: u64, count: u64) -> Vec<Vec<u8>> {
    let mut rng = Rng::new(seed ^ 0x5e7e);
    let mut slots: Vec<(&'static str, u64, u64)> = (0..count)
        .map(|i| (GENERATORS[(i % 10) as usize], (i / 10) % 3, rng.next_u64()))
        .collect();
    rng.shuffle(&mut slots);
    slots
        .into_iter()
        .enumerate()
        .map(|(i, (generator, cell, jitter))| trace(generator, cell, jitter, Some(i as u64)))
        .collect()
}

/// Warm-up traces for set-up: one per generator at the smallest grid
/// cell, tagged apart from every workload trace. They are the same for
/// every seed, so every run's set-up does the same work.
#[must_use]
pub fn warm_up() -> Vec<Vec<u8>> {
    GENERATORS
        .iter()
        .zip(0u64..)
        .map(|(generator, g)| trace(generator, 0, 0, Some(u64::MAX - g)))
        .collect()
}

/// The bigtrace set: `count` distinct `openpmd` baseline traces, in
/// grid order so every seed processes the same size sequence (peak
/// memory depends on what the allocator went through before).
#[must_use]
pub fn bigtraces(seed: u64, count: u64) -> Vec<Vec<u8>> {
    let mut rng = Rng::new(seed ^ 0xb16);
    (0..count)
        .map(|cell| big_trace(cell, rng.next_u64()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn digests(traces: &[Vec<u8>]) -> Vec<String> {
        traces
            .iter()
            .map(|b| ion_store::digest_bytes(b).hex())
            .collect()
    }

    #[test]
    fn same_seed_same_digests_and_all_distinct() {
        for make in [fleet, small_fleet] {
            let a = digests(&make(7, 30));
            assert_eq!(a, digests(&make(7, 30)));
            assert_ne!(a, digests(&make(8, 30)));
            assert_eq!(a.iter().collect::<HashSet<_>>().len(), a.len());
        }
        let a = digests(&bigtraces(7, 4));
        assert_eq!(a, digests(&bigtraces(7, 4)));
        assert_ne!(a, digests(&bigtraces(8, 4)));
        assert_eq!(a.iter().collect::<HashSet<_>>().len(), a.len());
    }
}
