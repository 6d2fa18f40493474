//! `bigtrace`: large traces through the out-of-core path, no store.
//!
//! One caller, closed loop, over distinct `openpmd` baseline traces of
//! ~10^5 DXT rows each. Each trace goes the way `ion_cli analyze
//! --chunk-rows` takes it: `extractor::extract_stream` into chunked
//! tables, then `IonPipeline::run_tables`. One Q&A question follows, then
//! a re-analysis of the same tables after a knowledge edit (the pipeline
//! has no store, so every issue runs again). The first trace's report
//! must equal `IonPipeline::run_bytes` on the same bytes; every rerun
//! must keep the report's verdicts.

use crate::fleet::{self, edit, observed, QUESTION};
use crate::inputs;
use crate::ledger::Ledger;
use crate::stats::{self, ms_since, timed, Metrics, Samples};
use crate::{Ctx, Outcome};
use extractor::{extract_stream, DEFAULT_CHUNK_ROWS};
use ion::{IonPipeline, IonReport};
use std::time::Instant;

/// Traces per `--seconds` second: 100 at 20 seconds, so `report_p90_ms`
/// rests on 100 samples.
const TRACES_PER_SECOND: u64 = 5;
/// Latency limit a report must meet to count towards goodput: between
/// the p90 and p95 of `report_ms` on a 2-core VM, so the largest traces
/// miss it.
const LIMIT_MS: f64 = 190.0;

/// Bytes in, report out, through the streaming path.
fn stream_report(
    pipeline: &IonPipeline,
    bytes: &[u8],
) -> (IonReport, extractor::TableSet, ion::SystemParams) {
    let extracted = extract_stream(bytes, DEFAULT_CHUNK_ROWS, None).expect("trace stream-extracts");
    let params = pipeline.params_for(&extracted.skeleton);
    let report = pipeline.run_tables(&extracted.tables, &params);
    (report, extracted.tables, params)
}

pub fn run(ctx: &Ctx) -> Outcome {
    let inputs = inputs::stage(
        &ctx.dir("inputs"),
        inputs::bigtraces(ctx.seed, TRACES_PER_SECOND * ctx.seconds),
    );
    let warm = inputs::warm_up();
    let reference = IonPipeline::new()
        .run_bytes(&inputs[0].read())
        .expect("first trace decodes")
        .render_text();
    stats::reset_peak_rss();

    // Set-up: the pipelines (one per edited context library) and one
    // warm-up report per generator.
    let (pipelines, setup_s) = stats::median_of(stats::SETUPS, || {
        let pipeline = IonPipeline::new();
        for bytes in &warm {
            stream_report(&pipeline, bytes);
        }
        let edited: Vec<IonPipeline> = (0..10)
            .map(|round| {
                let mut contexts = ion::builtin_contexts();
                edit(&mut contexts, round);
                IonPipeline::new().with_contexts(contexts)
            })
            .collect();
        (pipeline, edited)
    });
    let (pipeline, edited) = pipelines;

    let mut failures = Vec::new();
    let mut ledger = Ledger::default();
    let mut report_ms = Samples::default();
    let mut rerun_ms = Samples::default();
    let mut qa_ms = Samples::default();
    let mut within_limit = 0u64;
    let mut mb = 0.0;
    let t0 = Instant::now();
    for (i, input) in inputs.iter().enumerate() {
        let bytes = input.read();
        let ((report, tables, params), ms) = if !ctx.traced {
            timed(|| stream_report(&pipeline, &bytes))
        } else if i % 2 == 1 {
            let (out, snap) = observed(|| timed(|| stream_report(&pipeline, &bytes)));
            ledger.count(&snap, 1);
            ledger.traced_report_ms.push(out.1);
            out
        } else {
            let cpu0 = stats::cpu_ms();
            let out = timed(|| stream_report(&pipeline, &bytes));
            ledger.cpu_ms += stats::cpu_ms() - cpu0;
            ledger.cpu_reports += 1;
            ledger.untraced_report_ms.push(out.1);
            // Every fourth trace is also decomposed into layer calls.
            if i % 4 == 0 {
                let (decomposed, layer_ms) = ledger.decompose_stream(&bytes, DEFAULT_CHUNK_ROWS);
                ledger.layer_ms += layer_ms;
                ledger.report_wall_ms += out.1;
                if decomposed.render_text() != out.0 .0.render_text() {
                    failures.push(format!("trace {i}: decomposed report differs"));
                }
            }
            out
        };
        report_ms.push(ms);
        mb += input.bytes as f64 / 1e6;
        within_limit += u64::from(ms <= LIMIT_MS);
        if i == 0 && report.render_text() != reference {
            failures.push("first trace: streaming report differs from run_bytes".into());
        }

        let t_qa = Instant::now();
        let answer = report.session().ask(QUESTION);
        qa_ms.push(ms_since(t_qa));
        if answer.is_empty() || report.diagnoses.is_empty() {
            failures.push(format!("trace {i}: empty report or answer"));
        }

        let (rerun, ms) = timed(|| edited[i % edited.len()].run_tables(&tables, &params));
        rerun_ms.push(ms);
        if let Some(why) = fleet::verdict_mismatch(&report, &rerun) {
            failures.push(format!("trace {i} rerun: {why}"));
        }
    }
    let wall_s = t0.elapsed().as_secs_f64();

    let mut metrics = Metrics::default();
    if ctx.traced {
        let store = fleet::probe_store_overhead(ctx, &mut ledger, &warm);
        ledger.probe_store_gets(&store);
        failures.extend(crate::serve::probe(ctx, &warm, &mut ledger));
        metrics = ledger.metrics();
    } else {
        metrics.put("setup_s", setup_s, "s");
        metrics.put("report_p50_ms", report_ms.p50(), "ms");
        metrics.put("report_p90_ms", report_ms.p90(), "ms");
        metrics.put(
            "reports_per_s",
            report_ms.len() as f64 / (report_ms.sum() / 1e3),
            "1/s",
        );
        metrics.put("rerun_p50_ms", rerun_ms.p50(), "ms");
        metrics.put("rerun_p90_ms", rerun_ms.p90(), "ms");
        metrics.put("input_mb_per_s", mb / wall_s, "MB/s");
        metrics.put(
            "goodput_jobs_per_s",
            within_limit as f64 / ctx.seconds as f64,
            "1/s",
        );
        metrics.put("qa_p50_ms", qa_ms.p50(), "ms");
        metrics.put("peak_rss_mb", stats::peak_rss_mb(), "MB");
    }
    Outcome {
        attempted: 3 * inputs.len() as u64,
        failures,
        metrics,
    }
}
