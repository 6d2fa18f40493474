//! The repository benchmark: seeded inputs, two workloads, checked
//! outputs, one JSON result line.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload fleet --seed 1 --seconds 30 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, measured with `ion-obs`
//! disabled. `--trace 1` is the separate traced run: it prints the
//! per-layer ledger, timed from this package around calls into each
//! crate's public functions. See `perfbench/README.md`.

mod bigtrace;
mod fleet;
mod inputs;
mod ledger;
mod serve;
mod stats;

use stats::Metrics;
use std::path::{Path, PathBuf};

/// What a run is asked to do.
pub struct Ctx {
    pub seed: u64,
    pub seconds: u64,
    pub traced: bool,
    /// Scratch directory for staged inputs and stores, inside the
    /// checkout; removed when the run ends.
    pub work: PathBuf,
}

impl Ctx {
    pub fn dir(&self, name: &str) -> PathBuf {
        self.work.join(name)
    }
}

/// What a workload reports.
pub struct Outcome {
    pub attempted: u64,
    pub failures: Vec<String>,
    pub metrics: Metrics,
}

struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        stats::settle_disk();
    }
}

fn usage(message: &str) -> ! {
    eprintln!("error: {message}");
    eprintln!(
        "usage: perfbench --workload <fleet|bigtrace> --seed <n> --seconds <n> --trace <0|1>"
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> String {
        let i = args
            .iter()
            .position(|a| a == flag)
            .unwrap_or_else(|| usage(&format!("{flag} is required")));
        args.get(i + 1)
            .cloned()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")))
    };
    let number = |flag: &str| -> u64 {
        value(flag)
            .parse()
            .unwrap_or_else(|_| usage(&format!("{flag} takes a whole number")))
    };
    let workload = value("--workload");
    let seed = number("--seed");
    // Work is sized per second; below 20 seconds some p90s would rest
    // on fewer than 100 samples.
    let seconds = number("--seconds").max(20);
    let traced = match number("--trace") {
        0 => false,
        1 => true,
        _ => usage("--trace takes 0 or 1"),
    };

    let work = Path::new(".bench_build")
        .join("perfbench-work")
        .join(format!("{workload}-{seed}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&work);
    std::fs::create_dir_all(&work).expect("create the work directory");
    let guard = WorkDir(work.clone());
    let ctx = Ctx {
        seed,
        seconds,
        traced,
        work,
    };
    let outcome = match workload.as_str() {
        "fleet" => fleet::run(&ctx),
        "bigtrace" => bigtrace::run(&ctx),
        other => usage(&format!("unknown workload {other}")),
    };
    drop(guard);

    for failure in outcome.failures.iter().take(10) {
        eprintln!("FAILED: {failure}");
    }
    eprint!("{}", outcome.metrics.table());
    let failed = outcome.failures.len() as u64;
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {}}}",
        failed == 0,
        outcome.attempted.max(1),
        outcome.metrics.json()
    );
}
