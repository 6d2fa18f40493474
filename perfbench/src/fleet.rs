//! `fleet`: the edit-and-re-analyze loop over many small traces.
//!
//! One caller, closed loop, in four shards over one store that starts
//! fresh. In each shard, a cold pass analyzes the shard's traces through
//! `StoredPipeline::analyze_bytes` and asks one Q&A question of each
//! report. Ten edit rounds follow; each adds an unused `LET` to the
//! first `COMPUTE` block of one issue context — the same kind of edit
//! every round, contexts in turn — and re-analyzes the shard's traces on
//! the warm store. A rerun must keep every verdict field of the cold
//! report.

use crate::inputs;
use crate::ledger::Ledger;
use crate::stats::{self, ms_since, timed, Metrics, Samples};
use crate::{Ctx, Outcome};
use darshan::log::LogReader;
use extractor::extract_tables;
use ion::analyzer::applicable_contexts;
use ion::{IonPipeline, IonReport, IssueContext};
use ion_store::{Store, StoredPipeline};
use std::sync::Arc;
use std::time::Instant;

/// The fleet is processed in shards, each a cold pass followed by its
/// edit rounds, so cold reports are spread over the whole run instead
/// of its first seconds.
const SHARDS: usize = 4;
/// Edit rounds per shard, one per issue context: over 5 traces per
/// `--seconds` second this gives 1000 reruns at 20 seconds.
const ROUNDS: usize = 10;
/// Latency limit a red rerun must meet to count towards goodput: near
/// the p90 of `rerun_ms` on a 2-core VM, so the slowest reruns miss it.
const RERUN_LIMIT_MS: f64 = 23.0;
pub const QUESTION: &str = "what issues were detected?";

/// Add an unused `LET` before the first `END` of context `round % 10`:
/// its first `COMPUTE` statement changes, its verdicts cannot.
pub fn edit(contexts: &mut [IssueContext], round: usize) {
    let n = contexts.len();
    let context = &mut contexts[round % n];
    let at = context
        .text
        .find("\nEND")
        .expect("every context has a COMPUTE block");
    context
        .text
        .insert_str(at, &format!("\n  LET perfbench_unused_{round} = 0"));
}

/// The fields a semantics-preserving edit must leave unchanged.
pub fn verdict_mismatch(cold: &IonReport, rerun: &IonReport) -> Option<String> {
    if cold.diagnoses.len() != rerun.diagnoses.len() {
        return Some("diagnosis count changed".into());
    }
    for (a, b) in cold.diagnoses.iter().zip(&rerun.diagnoses) {
        let same = a.issue == b.issue
            && a.detection == b.detection
            && a.severity == b.severity
            && a.findings == b.findings
            && a.mitigations == b.mitigations
            && a.notes == b.notes
            && a.conclusion == b.conclusion;
        if !same {
            return Some(format!("verdict of {} changed", a.issue));
        }
    }
    None
}

/// Open a fresh store and analyze the warm-up traces through the plain
/// pipeline: the program's set-up, including lazily built state the
/// first report of each kind would pay for, leaving the store empty.
/// Warming through the store made set-up time mostly file-system work,
/// whose median moved by 1.7x between sets of runs.
pub fn set_up_store(ctx: &Ctx, name: &str, warm: &[Vec<u8>]) -> Arc<Store> {
    let store = Arc::new(Store::open(ctx.dir(name)).expect("open store"));
    let pipeline = IonPipeline::new();
    for bytes in warm {
        pipeline.run_bytes(bytes).expect("warm-up trace analyzes");
    }
    store
}

/// Run `f` with `ion-obs` on from a clean registry, returning what it
/// recorded.
pub fn observed<T>(f: impl FnOnce() -> T) -> (T, ion_obs::render::Snapshot) {
    ion_obs::reset();
    ion_obs::enable();
    let out = f();
    ion_obs::disable();
    (out, ion_obs::snapshot())
}

pub fn run(ctx: &Ctx) -> Outcome {
    let inputs = inputs::stage(
        &ctx.dir("inputs"),
        inputs::fleet(ctx.seed, ctx.seconds.div_ceil(2)),
    );
    let warm = inputs::warm_up();
    let applies = applicability(&inputs);
    stats::reset_peak_rss();

    let mut setups = 0;
    let (store, setup_s) = stats::median_of(stats::SETUPS, || {
        setups += 1;
        set_up_store(ctx, &format!("store-{setups}"), &warm)
    });

    let mut failures = Vec::new();
    let mut attempted = 0u64;
    let mut ledger = Ledger::default();
    let mut total_mb = 0.0;
    let mut report_ms = Samples::default();
    let mut qa_ms = Samples::default();
    let mut rerun_ms = Samples::default();
    let mut within_limit = 0u64;
    let (mut cold_s, mut rounds_s) = (0.0, 0.0);
    let mut contexts = ion::builtin_contexts();
    let mut edits = 0;
    let pipeline_for = |contexts: &[IssueContext]| {
        StoredPipeline::new(Arc::clone(&store))
            .with_pipeline(IonPipeline::new().with_contexts(contexts.to_vec()))
    };

    let shard_len = inputs.len().div_ceil(SHARDS);
    for (shard, (part, applies)) in inputs
        .chunks(shard_len)
        .zip(applies.chunks(shard_len))
        .enumerate()
    {
        // Cold pass over this shard, with the library as edited so far.
        let pipeline = pipeline_for(&contexts);
        let mut cold = Vec::with_capacity(part.len());
        let t_cold = Instant::now();
        for (k, input) in part.iter().enumerate() {
            let bytes = input.read();
            attempted += 2;
            let report = if ctx.traced {
                traced_cold(&mut ledger, &pipeline, &bytes, k, &mut failures)
            } else {
                let (report, ms) = timed(|| pipeline.analyze_bytes(&bytes));
                report_ms.push(ms);
                report
            };
            let report = match report {
                Ok(r) => r,
                Err(e) => {
                    failures.push(format!("cold {}: {e}", input.path.display()));
                    cold.push(None);
                    continue;
                }
            };
            total_mb += input.bytes as f64 / 1e6;
            let (answer, ms) = timed(|| report.session().ask(QUESTION));
            qa_ms.push(ms);
            if answer.is_empty() || report.diagnoses.is_empty() {
                failures.push(format!(
                    "cold {}: empty report or answer",
                    input.path.display()
                ));
            }
            cold.push(Some(report));
        }
        cold_s += t_cold.elapsed().as_secs_f64();

        // Edit rounds over this shard.
        let t_rounds = Instant::now();
        for round in 0..ROUNDS {
            let edited = edits % contexts.len();
            edit(&mut contexts, edits);
            edits += 1;
            let pipeline = pipeline_for(&contexts);
            for (k, (input, cold)) in part.iter().zip(&cold).enumerate() {
                let bytes = input.read();
                let red = applies[k][edited];
                attempted += 1;
                let (rerun, ms) = if ctx.traced && k % 2 == 1 {
                    let ((rerun, ms), snap) = observed(|| timed(|| pipeline.analyze_bytes(&bytes)));
                    ledger.count_store(&snap, 1);
                    if (snap.counter("store.revalidate.red") > 0) != red {
                        failures.push(format!(
                            "shard {shard} round {round} {}: rerun red is not {red}",
                            input.path.display()
                        ));
                    }
                    (rerun, ms)
                } else {
                    timed(|| pipeline.analyze_bytes(&bytes))
                };
                if red {
                    rerun_ms.push(ms);
                    within_limit += u64::from(ms <= RERUN_LIMIT_MS);
                }
                total_mb += input.bytes as f64 / 1e6;
                let at = format!("shard {shard} round {round} {}", input.path.display());
                match (rerun, cold) {
                    (Ok(rerun), Some(cold)) => {
                        if let Some(why) = verdict_mismatch(cold, &rerun) {
                            failures.push(format!("{at}: {why}"));
                        }
                    }
                    (Err(e), _) => failures.push(format!("{at}: {e}")),
                    (Ok(_), None) => failures.push(format!("{at}: no cold report to compare")),
                }
            }
        }
        rounds_s += t_rounds.elapsed().as_secs_f64();
    }

    let mut metrics = Metrics::default();
    if ctx.traced {
        ledger.probe_store_gets(&store);
        failures.extend(crate::serve::probe(ctx, &warm, &mut ledger));
        metrics = ledger.metrics();
    } else {
        metrics.put("setup_s", setup_s, "s");
        metrics.put("report_p50_ms", report_ms.p50(), "ms");
        metrics.put("report_p90_ms", report_ms.p90(), "ms");
        metrics.put("reports_per_s", report_ms.len() as f64 / cold_s, "1/s");
        metrics.put("rerun_p50_ms", rerun_ms.p50(), "ms");
        metrics.put("rerun_p90_ms", rerun_ms.p90(), "ms");
        metrics.put("input_mb_per_s", total_mb / (cold_s + rounds_s), "MB/s");
        metrics.put(
            "goodput_jobs_per_s",
            within_limit as f64 / ctx.seconds as f64,
            "1/s",
        );
        metrics.put("qa_p50_ms", qa_ms.p50(), "ms");
        metrics.put("peak_rss_mb", stats::peak_rss_mb(), "MB");
    }
    Outcome {
        attempted,
        failures,
        metrics,
    }
}

/// Which builtin issue contexts apply to each trace, in
/// `ion::builtin_contexts()` order. An edit to a context that applies
/// makes the trace's rerun red; an edit to one whose modules the trace
/// lacks leaves it all green, with no model run.
fn applicability(inputs: &[inputs::Input]) -> Vec<Vec<bool>> {
    let contexts = ion::builtin_contexts();
    inputs
        .iter()
        .map(|input| {
            let log = LogReader::read(&input.read()).expect("trace decodes");
            let tables = extract_tables(&log);
            let (applicable, _) = applicable_contexts(&contexts, &tables);
            contexts
                .iter()
                .map(|c| applicable.iter().any(|a| a.id == c.id))
                .collect()
        })
        .collect()
}

/// One cold report in the traced run. Odd traces run with `ion-obs` on
/// and feed the counters and the traced latency; even traces run with
/// it off and feed the untraced latency, CPU time, the store's overhead
/// over `IonPipeline::run_bytes`, and the per-layer decomposition.
fn traced_cold(
    ledger: &mut Ledger,
    pipeline: &StoredPipeline<'_>,
    bytes: &[u8],
    i: usize,
    failures: &mut Vec<String>,
) -> Result<IonReport, ion_store::StoreError> {
    if i % 2 == 1 {
        let ((report, ms), snap) = observed(|| timed(|| pipeline.analyze_bytes(bytes)));
        ledger.count(&snap, 1);
        ledger.count_store(&snap, 1);
        ledger.traced_report_ms.push(ms);
        return report;
    }
    let cpu0 = stats::cpu_ms();
    let t0 = Instant::now();
    let report = pipeline.analyze_bytes(bytes);
    let ms = ms_since(t0);
    ledger.cpu_ms += stats::cpu_ms() - cpu0;
    ledger.cpu_reports += 1;
    ledger.untraced_report_ms.push(ms);

    let (_, plain_ms) = timed(|| IonPipeline::new().run_bytes(bytes));
    let overhead = ms - plain_ms;
    ledger.store_overhead_ms.push(overhead);
    let (decomposed, layer_ms) = ledger.decompose(bytes);
    ledger.layer_ms += layer_ms + overhead;
    ledger.report_wall_ms += ms;
    // The decomposition analyzes with the builtin library; later shards
    // analyze with the edited one, whose edits keep every verdict.
    if let Some(why) = report
        .as_ref()
        .ok()
        .and_then(|r| verdict_mismatch(r, &decomposed))
    {
        failures.push(format!("decomposed report: {why}"));
    }
    report
}

/// The store layer for a workload that has no store of its own to time
/// it on: ten small traces, one per generator, each analyzed cold
/// through `StoredPipeline::analyze_bytes` and through
/// `IonPipeline::run_bytes`; the store counters of the stored calls go
/// into the ledger. Returns the probe store.
pub fn probe_store_overhead(ctx: &Ctx, ledger: &mut Ledger, warm: &[Vec<u8>]) -> Arc<Store> {
    let store = set_up_store(ctx, "probe-store-overhead", warm);
    let pipeline = StoredPipeline::new(Arc::clone(&store));
    for bytes in inputs::small_fleet(ctx.seed, 10) {
        let ((report, stored_ms), snap) = observed(|| timed(|| pipeline.analyze_bytes(&bytes)));
        report.expect("probe trace analyzes");
        ledger.count_store(&snap, 1);
        let (_, plain_ms) = timed(|| IonPipeline::new().run_bytes(&bytes));
        ledger.store_overhead_ms.push(stored_ms - plain_ms);
    }
    store
}
