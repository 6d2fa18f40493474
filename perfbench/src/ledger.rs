//! The per-layer ledger of the traced run.
//!
//! Every number here is timed from this package, around calls into one
//! crate's public functions; counts come from the program's own `ion-obs`
//! counters, which only the traced run enables. The ledger always prints
//! every per-layer metric: where a workload's main loop bypasses a layer
//! (the store on `bigtrace`, the daemon on both) a short probe fills it,
//! named as such in the README.

use crate::stats::{timed, Metrics, Samples};
use darshan::log::{Log, LogReader, StreamDecoder};
use extractor::{extract_stream, extract_tables, TableSet};
use ion::analyzer::{applicable_contexts, Analyzer, SystemParams};
use ion::{IonPipeline, IonReport};
use ion_llm::api::{ModelAction, Role, Thread};
use ion_llm::{DeterministicExpert, LanguageModel};
use ion_obs::render::Snapshot;
use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

thread_local! {
    /// When this thread's model last returned; a run's steps all execute
    /// on the thread that called `Runtime::run`.
    static LAST_STEP_END: Cell<Option<Instant>> = const { Cell::new(None) };
}

/// A `LanguageModel` that times the deterministic expert. Time inside
/// `step` is model time; the gap between two steps of one run is the
/// tool (IQL) call the runtime made in between.
#[derive(Default)]
pub struct TimingModel {
    model_ns: AtomicU64,
    tool_ns: AtomicU64,
    steps: AtomicU64,
    runs: AtomicU64,
}

fn ns_between(a: Instant, b: Instant) -> u64 {
    u64::try_from(b.saturating_duration_since(a).as_nanos()).unwrap_or(u64::MAX)
}

impl LanguageModel for TimingModel {
    fn step(&self, thread: &Thread) -> ModelAction {
        let start = Instant::now();
        let resumed = thread.messages.last().is_some_and(|m| m.role == Role::Tool);
        if resumed {
            if let Some(end) = LAST_STEP_END.get() {
                self.tool_ns
                    .fetch_add(ns_between(end, start), Ordering::Relaxed);
            }
        } else {
            self.runs.fetch_add(1, Ordering::Relaxed);
        }
        let action = DeterministicExpert.step(thread);
        let end = Instant::now();
        self.model_ns
            .fetch_add(ns_between(start, end), Ordering::Relaxed);
        self.steps.fetch_add(1, Ordering::Relaxed);
        LAST_STEP_END.set(Some(end));
        action
    }

    fn model_id(&self) -> &str {
        DeterministicExpert.model_id()
    }
}

/// Client-side view of the daemon, from the serve probe.
#[derive(Default)]
pub struct ServeLayer {
    pub submit_ms: Samples,
    pub queued_ms: Samples,
    pub run_ms: Samples,
    pub report_fetch_ms: Samples,
    pub sender_late_ms: Samples,
    pub dedup_joined: u64,
    pub rejected: u64,
}

/// Store counters read per report.
pub const STORE_COUNTERS: [&str; 7] = [
    "store.hit",
    "store.miss",
    "store.put",
    "store.manifest_save",
    "store.revalidate.green",
    "store.revalidate.backdated",
    "store.revalidate.red",
];

#[derive(Default)]
pub struct Ledger {
    decode_ms: Samples,
    decode_mb: f64,
    extract_ms: Samples,
    extract_total_ms: f64,
    rows: u64,
    analyze_ms: Samples,
    issue_ms: BTreeMap<String, Samples>,
    summarize_ms: Samples,
    sequential_ms: f64,
    decomposed: u64,
    model: TimingModel,
    /// Issue analyses (model runs) per report, from `ion-obs`.
    pub issues_run: u64,
    /// IQL rows scanned, from `ion-obs`.
    pub rows_scanned: u64,
    /// Reports the obs counters above cover.
    pub counted_reports: u64,
    /// CPU time over untraced operations, and their count.
    pub cpu_ms: f64,
    pub cpu_reports: u64,
    pub store_overhead_ms: Samples,
    pub store_get_us: Samples,
    pub store_counts: BTreeMap<&'static str, u64>,
    pub store_reports: u64,
    pub serve: ServeLayer,
    /// Timed layer calls and the report wall time they sit inside.
    pub layer_ms: f64,
    pub report_wall_ms: f64,
    /// Report latency with `ion-obs` off and on, within the traced run.
    pub untraced_report_ms: Samples,
    pub traced_report_ms: Samples,
}

impl Ledger {
    /// The eager path, one public call at a time: `LogReader::read`,
    /// `extract_tables`, then analysis. Returns the report and the ms
    /// spent in those calls.
    pub fn decompose(&mut self, bytes: &[u8]) -> (IonReport, f64) {
        let (log, decode) = timed(|| LogReader::read(bytes).expect("trace decodes"));
        let (tables, extract) = timed(|| extract_tables(&log));
        self.note_decode(bytes.len(), decode);
        self.note_extract(&tables, extract);
        let params = IonPipeline::new().params_for(&log);
        let (report, analyze) = self.analyze(&tables, &params);
        (report, decode + extract + analyze)
    }

    /// The out-of-core path: a `StreamDecoder` pass alone (decode), then
    /// `extract_stream`, whose self time is its wall minus that decode.
    pub fn decompose_stream(&mut self, bytes: &[u8], chunk_rows: usize) -> (IonReport, f64) {
        let ((), decode) = timed(|| stream_decode(bytes));
        let (extracted, stream) =
            timed(|| extract_stream(bytes, chunk_rows, None).expect("trace stream-extracts"));
        let extract = (stream - decode).max(0.0);
        self.note_decode(bytes.len(), decode);
        self.note_extract(&extracted.tables, extract);
        let params = IonPipeline::new().params_for(&extracted.skeleton);
        let (report, analyze) = self.analyze(&extracted.tables, &params);
        (report, decode + extract + analyze)
    }

    fn note_decode(&mut self, bytes: usize, ms: f64) {
        self.decode_ms.push(ms);
        self.decode_mb += bytes as f64 / 1e6;
    }

    fn note_extract(&mut self, tables: &TableSet, ms: f64) {
        self.extract_ms.push(ms);
        self.extract_total_ms += ms;
        self.rows += tables.iter().map(|(_, t)| t.len() as u64).sum::<u64>();
    }

    /// `Analyzer::analyze` at the default exec width with the timing
    /// model, then each applicable issue alone through
    /// `Analyzer::analyze_issue` and `Analyzer::summarize`, whose sum
    /// over the parallel wall is the exec layer's speed-up.
    fn analyze(&mut self, tables: &TableSet, params: &SystemParams) -> (IonReport, f64) {
        let analyzer = Analyzer::with_model(&self.model);
        let (result, analyze) = timed(|| analyzer.analyze(tables, params));
        self.analyze_ms.push(analyze);

        let plain = Analyzer::new();
        let (applicable, _) = applicable_contexts(plain.contexts(), tables);
        let mut sequential = 0.0;
        for context in applicable {
            let (_, ms) = timed(|| plain.analyze_issue(context, tables, params));
            self.issue_ms
                .entry(context.id.to_owned())
                .or_default()
                .push(ms);
            sequential += ms;
        }
        let (_, summarize) = timed(|| plain.summarize(&result.diagnoses, tables));
        self.summarize_ms.push(summarize);
        self.sequential_ms += sequential + summarize;
        self.decomposed += 1;

        let report = IonReport {
            diagnoses: result.diagnoses,
            summary: result.summary,
            skipped: result.skipped,
            params: Some(*params),
        };
        (report, analyze)
    }

    /// Add the analysis counters of a snapshot taken from a clean
    /// registry over `reports` reports.
    pub fn count(&mut self, snap: &Snapshot, reports: u64) {
        self.issues_run += snap.counter("ion.issue_analyses");
        self.rows_scanned += snap.counter("iql.rows_scanned");
        self.counted_reports += reports;
    }

    /// Add the store counters of a snapshot taken from a clean registry
    /// over `reports` reports.
    pub fn count_store(&mut self, snap: &Snapshot, reports: u64) {
        for name in STORE_COUNTERS {
            *self.store_counts.entry(name).or_default() += snap.counter(name);
        }
        self.store_reports += reports;
    }

    /// Time `Store::get` over every binding of `store`, with obs off.
    pub fn probe_store_gets(&mut self, store: &ion_store::Store) {
        let was = ion_obs::enabled();
        ion_obs::disable();
        for (key, _) in store.bindings() {
            let t0 = Instant::now();
            let got = store.get(&key).expect("store get");
            self.store_get_us.push(t0.elapsed().as_secs_f64() * 1e6);
            assert!(got.is_some(), "bound key {key} has an object");
        }
        if was {
            ion_obs::enable();
        }
    }

    /// Every per-layer metric, by name.
    pub fn metrics(&self) -> Metrics {
        let mut m = Metrics::default();
        let per = |total: f64, n: u64| total / n.max(1) as f64;
        let decode_total: f64 = self.decode_ms.sum();

        m.put("darshan.decode_ms_p50", self.decode_ms.p50(), "ms");
        m.put(
            "darshan.decode_mb_per_s",
            self.decode_mb / (decode_total / 1e3),
            "MB/s",
        );
        m.put("extractor.extract_ms_p50", self.extract_ms.p50(), "ms");
        m.put(
            "extractor.rows_per_s",
            self.rows as f64 / (self.extract_total_ms / 1e3),
            "1/s",
        );
        m.put(
            "extractor.rows",
            per(self.rows as f64, self.decomposed),
            "count",
        );

        m.put("ion.analyze_ms_p50", self.analyze_ms.p50(), "ms");
        for context in ion::builtin_contexts() {
            let p50 = self.issue_ms.get(context.id).map_or(0.0, Samples::p50);
            m.put(format!("ion.issue_ms_p50.{}", context.id), p50, "ms");
        }
        m.put("ion.summarize_ms_p50", self.summarize_ms.p50(), "ms");
        m.put(
            "ion.issues_run",
            per(self.issues_run as f64, self.counted_reports),
            "count",
        );

        let model = &self.model;
        let load = |a: &AtomicU64| a.load(Ordering::Relaxed) as f64;
        m.put(
            "llm.model_ms",
            per(load(&model.model_ns) / 1e6, self.decomposed),
            "ms",
        );
        m.put(
            "llm.tool_ms",
            per(load(&model.tool_ns) / 1e6, self.decomposed),
            "ms",
        );
        m.put(
            "llm.steps",
            per(load(&model.steps), self.decomposed),
            "count",
        );
        m.put("llm.runs", per(load(&model.runs), self.decomposed), "count");
        m.put(
            "iql.rows_scanned",
            per(self.rows_scanned as f64, self.counted_reports),
            "count",
        );

        m.put(
            "exec.parallel_speedup",
            self.sequential_ms / self.analyze_ms.sum(),
            "x",
        );
        m.put(
            "process.cpu_ms_per_report",
            per(self.cpu_ms, self.cpu_reports),
            "ms",
        );

        m.put("store.overhead_ms_p50", self.store_overhead_ms.p50(), "ms");
        m.put("store.get_us_p50", self.store_get_us.p50(), "us");
        m.put("store.get_us_p99", self.store_get_us.q(0.99), "us");
        for name in STORE_COUNTERS {
            let total = self.store_counts.get(name).copied().unwrap_or(0);
            m.put(name, per(total as f64, self.store_reports), "count");
        }

        let s = &self.serve;
        m.put("serve.submit_ms_p50", s.submit_ms.p50(), "ms");
        m.put("serve.submit_ms_p99", s.submit_ms.q(0.99), "ms");
        m.put("serve.queued_ms_p50", s.queued_ms.p50(), "ms");
        m.put("serve.run_ms_p50", s.run_ms.p50(), "ms");
        m.put("serve.report_fetch_ms_p50", s.report_fetch_ms.p50(), "ms");
        m.put("serve.dedup_joined", s.dedup_joined as f64, "count");
        m.put("serve.rejected", s.rejected as f64, "count");
        m.put("serve.sender_late_ms_p99", s.sender_late_ms.q(0.99), "ms");

        m.put("attributed", self.layer_ms / self.report_wall_ms, "ratio");
        m.put(
            "obs.tracing_overhead_pct",
            100.0 * (self.traced_report_ms.p50() / self.untraced_report_ms.p50() - 1.0),
            "%",
        );
        m
    }
}

/// Decode every region of `bytes` through `StreamDecoder::next_region`
/// and `RawRegion::decode_into`, dropping records as they come.
fn stream_decode(bytes: &[u8]) {
    let mut decoder = StreamDecoder::new(bytes).expect("stream header decodes");
    let mut scratch = Log::new(darshan::records::JobRecord::new(0, 0, 0));
    while let Some(region) = decoder.next_region().expect("region frames") {
        region.decode_into(&mut scratch).expect("region decodes");
        scratch.names.clear();
        scratch.posix.clear();
        scratch.mpiio.clear();
        scratch.stdio.clear();
        scratch.lustre.clear();
        scratch.dxt.clear();
        scratch.heatmap.clear();
    }
}
