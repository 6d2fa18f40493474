//! The daemon layer, probed in every traced run.
//!
//! Neither workload crosses HTTP, so the traced run fills the `serve.*`
//! ledger rows from a short open loop against an in-process
//! `ion_serve::Daemon` with the default `ServeConfig` over a fresh
//! store: 30 small jobs from three tenants in a quarter-second Poisson
//! burst, faster than the daemon drains them, so jobs queue. 2% of
//! submissions duplicate the one before and join it in flight. One
//! thread sends on schedule; collector threads follow each job: long-poll
//! to a terminal state, fetch the report, ask one question. Every report
//! and answer must equal the in-process `IonPipeline::run_bytes` result
//! for the same trace.

use crate::fleet::QUESTION;
use crate::inputs::{self, Input, Rng};
use crate::ledger::{Ledger, ServeLayer};
use crate::stats::{ms_since, sleep_until, timed};
use crate::Ctx;
use ion_obs::json::Json;
use ion_serve::client::{get, post};
use ion_serve::{Daemon, ServeConfig};
use ion_store::Store;
use std::net::SocketAddr;
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Jobs in the burst, and the seconds they arrive over.
const JOBS: usize = 30;
const BURST_S: f64 = 0.25;
/// Share of submissions that duplicate the one before, from another
/// tenant at the same instant, and so join it in flight.
const JOIN_SHARE: f64 = 0.02;
const TENANTS: [&str; 3] = ["tenant-a", "tenant-b", "tenant-c"];
/// Collector threads. Each takes the next submitted job and follows it
/// to its report, so a slow job does not hold up the others.
const COLLECTORS: usize = 8;

/// One scheduled submission.
struct Job {
    /// Offset from the start of the schedule.
    due: Duration,
    /// Index into the trace pool.
    trace: usize,
    tenant: &'static str,
}

/// `n` arrivals over `seconds` with exponential gaps, rescaled so the
/// last gap ends exactly at `seconds`: the arrival count is fixed and
/// the arrival times are those of a Poisson process given that count.
/// A [`JOIN_SHARE`] of them repeat the trace and time of the one before.
fn schedule(rng: &mut Rng, n: usize, seconds: f64) -> Vec<Job> {
    let mut t = 0.0;
    let mut times = Vec::with_capacity(n);
    for _ in 0..n {
        t += -(1.0 - rng.unit()).ln();
        times.push(t);
    }
    let end = t - (1.0 - rng.unit()).ln();

    let mut join = vec![false; n];
    let joins = (n as f64 * JOIN_SHARE).round() as usize;
    let mut candidates: Vec<usize> = (1..n).collect();
    rng.shuffle(&mut candidates);
    for &i in candidates.iter().take(joins) {
        // Never join a join: the one before stays a first submission.
        if !join[i - 1] {
            join[i] = true;
        }
    }

    let mut jobs: Vec<Job> = Vec::with_capacity(n);
    let mut firsts = 0;
    for (at, join) in times.into_iter().zip(join) {
        let (due, trace) = if join {
            let before = jobs.last().expect("a join follows a first submission");
            (before.due, before.trace)
        } else {
            firsts += 1;
            (Duration::from_secs_f64(at / end * seconds), firsts - 1)
        };
        jobs.push(Job {
            due,
            trace,
            tenant: TENANTS[rng.below(3) as usize],
        });
    }
    jobs
}

/// The in-process report text and Q&A answer for every pool trace.
fn references(pool: &[Input]) -> Vec<(String, String)> {
    pool.iter()
        .map(|input| {
            let report = ion::IonPipeline::new()
                .run_bytes(&input.read())
                .expect("pool trace decodes");
            (report.render_text(), report.session().ask(QUESTION))
        })
        .collect()
}

/// Bind a daemon with the default configuration over a fresh store,
/// wait until `/healthz` answers, then run each warm-up trace to `done`.
fn set_up(ctx: &Ctx, warm: &[Vec<u8>]) -> Daemon {
    let store = Arc::new(Store::open(ctx.dir("probe-store")).expect("open store"));
    let daemon = Daemon::bind("127.0.0.1:0", store, ServeConfig::default()).expect("bind daemon");
    let addr = daemon.local_addr();
    while get(addr, "/healthz").map(|r| r.status).ok() != Some(200) {
        std::thread::sleep(Duration::from_millis(1));
    }
    for bytes in warm {
        let reply =
            post(addr, "/v1/jobs", &[("X-Ion-Tenant", "warm-up")], bytes).expect("warm-up submit");
        let id = job_id(&reply).expect("warm-up job id");
        let state = get(addr, &format!("/v1/jobs/{id}?wait_ms=30000"))
            .ok()
            .and_then(|r| r.json())
            .and_then(|d| d.get("state").and_then(|s| s.as_str().map(str::to_owned)));
        assert_eq!(state.as_deref(), Some("done"), "warm-up job finishes");
    }
    daemon
}

fn job_id(reply: &ion_serve::client::Reply) -> Option<String> {
    reply.json()?.get("job")?.as_str().map(str::to_owned)
}

/// Long-poll job `id` to `done`, then fetch its report and check it
/// against `want`. Returns the job status and the fetch time in ms.
fn await_report(addr: SocketAddr, id: &str, want: &str) -> Result<(Json, f64), String> {
    let status = get(addr, &format!("/v1/jobs/{id}?wait_ms=30000"))
        .map_err(|e| format!("poll: {e}"))?
        .json()
        .ok_or("poll reply is not JSON")?;
    let state = status.get("state").and_then(|s| s.as_str());
    if state != Some("done") {
        return Err(format!("ended {state:?}"));
    }
    let (report, fetch_ms) = timed(|| get(addr, &format!("/v1/jobs/{id}/report")));
    let report = report.map_err(|e| format!("report: {e}"))?;
    if report.status != 200 || report.text() != want {
        return Err(format!(
            "report differs from in-process ({})",
            report.status
        ));
    }
    Ok((status, fetch_ms))
}

/// Follow job `id` to its report and one answer, checking both against
/// `want`, and note the job's layer times.
fn collect(
    addr: SocketAddr,
    want: &(String, String),
    id: &str,
    layer: &mut ServeLayer,
) -> Result<(), String> {
    let (status, fetch_ms) = await_report(addr, id, &want.0)?;
    let answer = post(addr, &format!("/v1/jobs/{id}/qa"), &[], QUESTION.as_bytes())
        .ok()
        .and_then(|r| r.json())
        .and_then(|d| d.get("answer").and_then(|a| a.as_str().map(str::to_owned)));
    if answer.as_deref() != Some(want.1.as_str()) {
        return Err("answer differs from in-process".into());
    }
    let field = |name: &str| status.get(name).and_then(|v| v.as_f64()).unwrap_or(0.0);
    layer.queued_ms.push(field("queued_ms"));
    layer.run_ms.push(field("run_ms"));
    layer.report_fetch_ms.push(fetch_ms);
    Ok(())
}

/// Send `jobs` on schedule from one thread and collect with
/// [`COLLECTORS`] others. Returns the layer times and the failures.
fn open_loop(
    addr: SocketAddr,
    pool: &[Input],
    refs: &[(String, String)],
    jobs: &[Job],
) -> (ServeLayer, Vec<String>) {
    let (tx, rx) = mpsc::channel::<(usize, Result<String, String>)>();
    let rx = Mutex::new(rx);
    let start = Instant::now() + Duration::from_millis(20);
    std::thread::scope(|s| {
        let sender = s.spawn(move || {
            let mut layer = ServeLayer::default();
            let mut next = pool[jobs[0].trace].read();
            for (j, job) in jobs.iter().enumerate() {
                let due = start + job.due;
                sleep_until(due);
                layer.sender_late_ms.push(ms_since(due));
                let bytes = std::mem::take(&mut next);
                let (reply, ms) =
                    timed(|| post(addr, "/v1/jobs", &[("X-Ion-Tenant", job.tenant)], &bytes));
                layer.submit_ms.push(ms);
                let outcome = match reply {
                    Ok(r) if r.status == 202 || r.status == 200 => {
                        layer.dedup_joined += u64::from(r.status == 200);
                        job_id(&r).ok_or_else(|| "submit reply has no job id".to_owned())
                    }
                    Ok(r) => {
                        layer.rejected += u64::from(r.status == 429);
                        Err(format!("submit -> {} {}", r.status, r.text().trim()))
                    }
                    Err(e) => Err(format!("submit: {e}")),
                };
                tx.send((j, outcome)).expect("collectors are alive");
                if let Some(job) = jobs.get(j + 1) {
                    next = pool[job.trace].read();
                }
            }
            layer
        });

        let collectors: Vec<_> = (0..COLLECTORS)
            .map(|_| {
                s.spawn(|| {
                    let mut layer = ServeLayer::default();
                    let mut failures = Vec::new();
                    loop {
                        let next = rx.lock().expect("receiver mutex").recv();
                        let Ok((j, outcome)) = next else { break };
                        let collected = outcome
                            .and_then(|id| collect(addr, &refs[jobs[j].trace], &id, &mut layer));
                        if let Err(e) = collected {
                            failures.push(format!("job {j}: {e}"));
                        }
                    }
                    (layer, failures)
                })
            })
            .collect();
        let mut layer = sender.join().expect("sender thread");
        let mut failures = Vec::new();
        for collector in collectors {
            let (part, failed) = collector.join().expect("collector thread");
            layer.queued_ms.extend(&part.queued_ms);
            layer.run_ms.extend(&part.run_ms);
            layer.report_fetch_ms.extend(&part.report_fetch_ms);
            failures.extend(failed);
        }
        (layer, failures)
    })
}

/// Run the burst against a fresh default daemon and put its client-side
/// layer times into `ledger`. Returns the failures.
pub fn probe(ctx: &Ctx, warm: &[Vec<u8>], ledger: &mut Ledger) -> Vec<String> {
    let mut rng = Rng::new(ctx.seed ^ 0x9_0be);
    let jobs = schedule(&mut rng, JOBS, BURST_S);
    let firsts = jobs.iter().map(|j| j.trace + 1).max().unwrap_or(0) as u64;
    let pool = inputs::stage(
        &ctx.dir("probe-inputs"),
        inputs::small_fleet(ctx.seed, firsts),
    );
    let refs = references(&pool);
    let daemon = set_up(ctx, warm);
    // `Daemon::bind` switches `ion-obs` on for its /metrics endpoint.
    ion_obs::disable();
    let (layer, mut failures) = open_loop(daemon.local_addr(), &pool, &refs, &jobs);
    let summary = daemon.shutdown();
    if summary.failed + summary.cancelled + summary.deadlined > 0 {
        failures.push(format!(
            "serve probe daemon ledger: {} failed, {} cancelled, {} deadlined",
            summary.failed, summary.cancelled, summary.deadlined
        ));
    }
    ledger.serve = layer;
    failures
}
