//! The measured runs: campaigns back to back for a fixed host time, with
//! every campaign checked, reduced to the end-to-end metrics (plain run)
//! or the per-layer metrics (span run).

use crate::affinity::Rotation;
use crate::spans::{run_spanned, CampaignSpans};
use crate::stats::{median, percentile, sorted, tail, Tail};
use crate::workloads::{run_plain, setup, summarize, Outcome, SetupTimes, Workload};
use std::time::{Duration, Instant};

/// Fewest timed campaigns a run makes, whatever its time budget: enough
/// for the tail percentile to keep ten samples beyond it.
pub const MIN_CAMPAIGNS: usize = 20;

/// What to run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunSpec {
    /// The workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Host seconds of timed campaigns.
    pub seconds: f64,
    /// Full-size campaigns (`false` runs the smoke shape).
    pub full: bool,
    /// Host cores available.
    pub nproc: usize,
}

impl RunSpec {
    fn shape(&self) -> crate::workloads::Shape {
        if self.full {
            self.workload.shape()
        } else {
            self.workload.tiny()
        }
    }

    /// Execute-phase workers: the workload's own, capped at the cores.
    pub fn workers(&self) -> usize {
        self.shape().workers.min(self.nproc).max(1)
    }
}

/// One named metric of a result.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Value.
    pub value: f64,
}

fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

/// A finished run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Timed campaigns.
    pub campaigns: usize,
    /// The checked reference outcome every campaign matched.
    pub outcome: Outcome,
    /// The metrics, in output order.
    pub metrics: Vec<Metric>,
    /// Notes for the human-readable output and the result record.
    pub notes: Vec<String>,
    /// One JSON object per timed campaign: its host times (plain runs) or
    /// its spans (span runs).
    pub samples: Vec<String>,
}

/// One plain campaign: set-up and campaign host seconds, checked outcome.
fn plain_campaign(spec: &RunSpec, workers: usize) -> Result<(f64, f64, Outcome), String> {
    let shape = spec.shape();
    let t0 = Instant::now();
    let inputs = setup(spec.workload, shape, spec.seed, None);
    let t1 = Instant::now();
    let planned = inputs.planned_arrivals;
    let report = run_plain(inputs, workers);
    let t2 = Instant::now();
    let outcome = summarize(spec.workload, shape, planned, &report)?;
    Ok(((t1 - t0).as_secs_f64(), (t2 - t1).as_secs_f64(), outcome))
}

/// A campaign must reproduce the reference run exactly and leave the
/// audit ledger clean.
fn check(reference: &Outcome, got: &Outcome, what: &str) -> Result<(), String> {
    let violations = clip_core::audit::violation_count();
    if violations != 0 {
        return Err(format!(
            "{violations} budget-ledger violations after {what}"
        ));
    }
    if got != reference {
        return Err(format!(
            "{what} diverged from the reference run: report_fnv {:#018x} vs {:#018x}",
            got.report_fnv, reference.report_fnv
        ));
    }
    Ok(())
}

/// Host seconds of untimed, checked campaigns before a run measures
/// (capped at the run's own length). On the shared 2-vCPU Xeon VM the
/// benchmark was tuned on, the first 3-4 s of a serve-racks process that
/// followed serve-flat runs went 1.7x faster than the rest of it, and set
/// the run's fast-state level alone.
const WARMUP_S: f64 = 5.0;

/// The warm-up: untimed campaigns for [`WARMUP_S`]. They fill caches and
/// let the start-up transient pass; the first fixes the reference
/// outcome every later campaign must reproduce.
fn reference(spec: &RunSpec) -> Result<Outcome, String> {
    let start = Instant::now();
    let (_, _, outcome) = plain_campaign(spec, spec.workers())?;
    check(&outcome, &outcome, "the first warm-up campaign")?;
    while start.elapsed().as_secs_f64() < WARMUP_S.min(spec.seconds) {
        let (_, _, again) = plain_campaign(spec, spec.workers())?;
        check(&outcome, &again, "a warm-up campaign")?;
    }
    Ok(outcome)
}

/// A sharded campaign must give the same report at every worker count:
/// rerun it at one worker (or at two when the workload already runs
/// one) and compare.
fn replay_check(spec: &RunSpec, reference: &Outcome) -> Result<(), String> {
    if !spec.workload.is_sharded() {
        return Ok(());
    }
    let workers = if spec.workers() == 1 { 2 } else { 1 };
    let (_, _, got) = plain_campaign(spec, workers)?;
    check(reference, &got, &format!("the replay at {workers} workers"))
}

/// Peak resident set (VmHWM) in MB, 0 where /proc is unavailable.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn tail_note(what: &str, t: &Tail) -> String {
    format!(
        "{what} = p{} ({} of {} samples beyond it)",
        t.q, t.beyond, t.n
    )
}

/// Host-time window the fast/slow state is judged over.
const STATE_WINDOW_S: f64 = 1.0;
/// Fewest campaigns a window needs to be judged.
const MIN_WINDOW_CAMPAIGNS: usize = 5;
/// The fast state's reference level is the median of the third-fastest
/// judged window (index 2): a single unusually fast window does not set it.
const REFERENCE_WINDOW: usize = 2;
/// A window is in the fast state when its median campaign is within this
/// factor of the reference level.
const FAST_STATE_FACTOR: f64 = 1.2;

/// The state window a campaign starting `at_s` into the run belongs to.
fn window_of(at_s: f64) -> usize {
    (at_s / STATE_WINDOW_S) as usize
}

/// One timed plain campaign.
#[derive(Debug, Clone, Copy)]
struct Sample {
    /// Host seconds into the run when the campaign's set-up started.
    at_s: f64,
    setup_s: f64,
    campaign_s: f64,
}

/// Which campaigns the host ran in its fast state.
///
/// A shared 2-vCPU Xeon VM switches between a fast and a slow state that
/// each last from one to tens of seconds; the slow state stretches a
/// campaign by up to 1.8x while a pure ALU loop keeps its speed, so it is
/// contention for the memory hierarchy from outside the process, not the
/// program.
/// A run's plain median lands in whichever state held the majority of
/// its time. The run is split into [`STATE_WINDOW_S`] windows, and only
/// campaigns of windows whose median is within [`FAST_STATE_FACTOR`] of
/// the [`REFERENCE_WINDOW`]'s are kept (windows of fewer than
/// [`MIN_WINDOW_CAMPAIGNS`] are not judged and dropped); the result record
/// states how many.
fn fast_state(samples: &[Sample]) -> Vec<bool> {
    let window = |s: &Sample| window_of(s.at_s);
    let windows = samples.last().map_or(0, |s| window(s) + 1);
    let mut medians = vec![f64::INFINITY; windows];
    for (w, m) in medians.iter_mut().enumerate() {
        let times: Vec<f64> = samples
            .iter()
            .filter(|s| window(s) == w)
            .map(|s| s.campaign_s)
            .collect();
        if times.len() >= MIN_WINDOW_CAMPAIGNS {
            *m = median(&times);
        }
    }
    let mut judged: Vec<f64> = medians.iter().copied().filter(|m| m.is_finite()).collect();
    judged.sort_by(f64::total_cmp);
    let Some(&reference) = judged.get(REFERENCE_WINDOW.min(judged.len().saturating_sub(1))) else {
        // No window was judged: the run is too short to tell, keep all.
        return vec![true; samples.len()];
    };
    samples
        .iter()
        .map(|s| medians[window(s)] <= reference * FAST_STATE_FACTOR)
        .collect()
}

/// The plain run: campaigns back to back for `spec.seconds`, no span
/// code anywhere, reduced to the end-to-end metrics.
pub fn plain_run(spec: &RunSpec) -> Result<RunResult, String> {
    let reference = reference(spec)?;
    let workers = spec.workers();
    let deadline = Duration::from_secs_f64(spec.seconds);
    let start = Instant::now();
    // A single-threaded campaign moves to the next core every state
    // window (see `affinity`). A multi-worker campaign is never pinned:
    // its workers would inherit the one-core mask.
    let rotation = if workers == 1 { Rotation::new() } else { None };
    let mut samples = Vec::new();
    while samples.len() < MIN_CAMPAIGNS || start.elapsed() < deadline {
        let at_s = start.elapsed().as_secs_f64();
        if let Some(r) = &rotation {
            r.pin(window_of(at_s));
        }
        let (setup_s, campaign_s, outcome) = plain_campaign(spec, workers)?;
        check(&reference, &outcome, "a timed campaign")?;
        samples.push(Sample {
            at_s,
            setup_s,
            campaign_s,
        });
    }
    drop(rotation);
    replay_check(spec, &reference)?;

    let all: Vec<f64> = samples.iter().map(|s| s.campaign_s).collect();
    let fast = fast_state(&samples);
    let kept = || {
        samples
            .iter()
            .zip(&fast)
            .filter(|(_, &f)| f)
            .map(|(s, _)| s)
    };
    let campaigns: Vec<f64> = kept().map(|s| s.campaign_s).collect();
    let setups: Vec<f64> = kept().map(|s| s.setup_s).collect();
    let p50 = median(&campaigns);
    let t = tail(&campaigns);
    let o = &reference;
    let notes = vec![
        format!(
            "fast-state windows hold {} of {} campaigns; median over all campaigns {:.6} s, \
             over the fast state {:.6} s",
            campaigns.len(),
            all.len(),
            median(&all),
            p50
        ),
        tail_note("campaign_s_tail", &t),
    ];
    let metrics = vec![
        metric("setup_s", "s", median(&setups)),
        metric("node_epochs_per_s", "1/s", o.node_epochs as f64 / p50),
        metric("campaign_s_p50", "s", p50),
        metric("campaign_s_tail", "s", t.value),
        metric("peak_rss_mb", "MB", peak_rss_mb()),
        metric("sim_perf_its", "it/s", o.sim_perf_its),
        metric("budget_util", "ratio", o.budget_util),
        metric("slo_goodput", "ratio", o.goodput()),
    ];
    Ok(RunResult {
        campaigns: all.len(),
        outcome: reference,
        metrics,
        notes,
        samples: samples
            .iter()
            .zip(&fast)
            .map(|(s, f)| {
                format!(
                    "{{\"at_s\":{},\"setup_s\":{},\"campaign_s\":{},\"fast\":{f}}}",
                    s.at_s, s.setup_s, s.campaign_s
                )
            })
            .collect(),
    })
}

/// One span-run campaign: set-up spans, campaign host seconds, spans.
struct SpanSample {
    setup: SetupTimes,
    campaign_s: f64,
    spans: CampaignSpans,
}

impl SpanSample {
    /// Host seconds of the campaign no benchmark span covers (serve-flat:
    /// outside the engine-phase spans), or that is neither scheduler nor
    /// recorder time (sharded: `hierarchy.residual_s`).
    fn residual_s(&self) -> f64 {
        let obs = self.spans.obs.map_or(0, |o| o.ns);
        self.campaign_s - (self.spans.sched.busy_ns + obs) as f64 * 1e-9
    }

    fn unattributed_s(&self) -> f64 {
        match &self.spans.engine {
            Some(e) => {
                let covered = e.bracket_ns + e.epoch_ns.iter().sum::<u64>();
                self.campaign_s - covered as f64 * 1e-9
            }
            None => self.residual_s(),
        }
    }

    fn to_json(&self) -> String {
        let s = &self.spans;
        let mut out = format!(
            "{{\"campaign_s\":{},\"mlr.train_s\":{},\"cluster.build_s\":{},\
             \"serve.arrivals_s\":{},\"scheduler.calls\":{},\"scheduler.trial_calls\":{},\
             \"scheduler.busy_s\":{},\"scheduler.trial_s\":{},\"scheduler.profiles\":{}",
            self.campaign_s,
            self.setup.train_s,
            self.setup.build_s,
            self.setup.arrivals_s,
            s.sched.calls,
            s.sched.trial_calls,
            s.sched.busy_ns as f64 * 1e-9,
            s.sched.trial_ns as f64 * 1e-9,
            s.sched.profiles,
        );
        if let Some(e) = &s.engine {
            out.push_str(&format!(
                ",\"engine.bracket_s\":{},\"engine.prepare_self_s\":{},\
                 \"engine.settle_self_s\":{},\"cluster.execute_s\":{},\
                 \"service.boundary_self_s\":{},\"service.settled_s\":{}",
                e.bracket_ns as f64 * 1e-9,
                e.prepare_self_ns as f64 * 1e-9,
                e.settle_self_ns as f64 * 1e-9,
                e.execute_ns as f64 * 1e-9,
                e.boundary_self_ns as f64 * 1e-9,
                e.settled_ns as f64 * 1e-9,
            ));
        }
        if let Some(o) = &s.obs {
            out.push_str(&format!(
                ",\"obs.events\":{},\"obs.encode_s\":{}",
                o.events,
                o.ns as f64 * 1e-9
            ));
        }
        out.push('}');
        out
    }
}

fn ns_to_us(v: &[u64]) -> Vec<f64> {
    v.iter().map(|&ns| ns as f64 * 1e-3).collect()
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The span run: spanned campaigns alternating with plain ones (and, on
/// the sharded workloads, plain ones at one worker) for `spec.seconds`,
/// reduced to the per-layer metrics. Every campaign, spanned or not,
/// must reproduce the plain reference run exactly.
pub fn span_run(spec: &RunSpec) -> Result<RunResult, String> {
    let reference = reference(spec)?;
    let shape = spec.shape();
    let workers = spec.workers();
    let deadline = Duration::from_secs_f64(spec.seconds);
    let start = Instant::now();
    let mut samples: Vec<SpanSample> = Vec::new();
    let (mut plain, mut one_worker) = (Vec::new(), Vec::new());
    while samples.len() < MIN_CAMPAIGNS || start.elapsed() < deadline {
        // Alternate which side goes first so drift in the host's speed
        // does not favour one of them.
        let spanned_first = samples.len().is_multiple_of(2);
        if !spanned_first {
            plain.push(plain_campaign(spec, workers)?);
        }
        let mut setup_times = SetupTimes::default();
        let inputs = setup(spec.workload, shape, spec.seed, Some(&mut setup_times));
        let planned = inputs.planned_arrivals;
        let t = Instant::now();
        let (report, spans) = run_spanned(inputs, workers);
        let campaign_s = t.elapsed().as_secs_f64();
        let outcome = summarize(spec.workload, shape, planned, &report)?;
        check(&reference, &outcome, "a spanned campaign")?;
        samples.push(SpanSample {
            setup: setup_times,
            campaign_s,
            spans,
        });
        if spanned_first {
            plain.push(plain_campaign(spec, workers)?);
        }
        if spec.workload.is_sharded() {
            one_worker.push(plain_campaign(spec, 1)?);
        }
    }
    for (_, _, o) in plain.iter().chain(&one_worker) {
        check(&reference, o, "a plain campaign of the span run")?;
    }
    let plain_s: Vec<f64> = plain.iter().map(|p| p.1).collect();
    let one_worker_s: Vec<f64> = one_worker.iter().map(|p| p.1).collect();

    let med = |f: &dyn Fn(&SpanSample) -> f64| median(&samples.iter().map(f).collect::<Vec<_>>());
    let secs = |ns: u64| ns as f64 * 1e-9;
    let o = &reference;
    let last = samples
        .last()
        .map(|s| &s.spans)
        .cloned()
        .unwrap_or_default();

    let mut call_us = Vec::new();
    let mut epoch_us = Vec::new();
    for s in &samples {
        call_us.extend(ns_to_us(&s.spans.sched.call_ns));
        if let Some(e) = &s.spans.engine {
            epoch_us.extend(ns_to_us(&e.epoch_ns));
        }
    }
    let calls = sorted(&call_us);
    let call_tail = tail(&call_us);
    let epoch_tail = tail(&epoch_us);
    let engine = |f: &dyn Fn(&crate::spans::EngineSpans) -> u64| {
        med(&|s| s.spans.engine.as_ref().map_or(0.0, |e| secs(f(e))))
    };
    let sched_calls = last.sched.calls as f64;
    let campaign_p50 = med(&|s| s.campaign_s);
    let execute_s = engine(&|e| e.execute_ns);
    let node_epochs = o.node_epochs as f64;
    let executed_node_epochs = last.engine.as_ref().map_or(0, |e| e.node_epochs) as f64;
    let obs =
        |f: &dyn Fn(&crate::spans::ObsSpans) -> f64| med(&|s| s.spans.obs.as_ref().map_or(0.0, f));
    let encode_s = obs(&|x| secs(x.ns));
    let sharded = spec.workload.is_sharded();

    let metrics = vec![
        metric("mlr.train_s", "s", med(&|s| s.setup.train_s)),
        metric("cluster.build_s", "s", med(&|s| s.setup.build_s)),
        metric("serve.arrivals_s", "s", med(&|s| s.setup.arrivals_s)),
        metric("scheduler.calls", "count", sched_calls),
        metric(
            "scheduler.busy_s",
            "s",
            med(&|s| secs(s.spans.sched.busy_ns)),
        ),
        metric("scheduler.call_us_p50", "us", percentile(&calls, 50.0)),
        metric("scheduler.call_us_tail", "us", call_tail.value),
        metric(
            "scheduler.trial_calls",
            "count",
            last.sched.trial_calls as f64,
        ),
        metric("scheduler.profiles", "count", last.sched.profiles as f64),
        metric(
            "scheduler.kdb_hit_ratio",
            "ratio",
            ratio(sched_calls - last.sched.profiles as f64, sched_calls),
        ),
        metric("engine.prepare_self_s", "s", engine(&|e| e.prepare_self_ns)),
        metric("engine.settle_self_s", "s", engine(&|e| e.settle_self_ns)),
        metric("engine.epoch_us_p50", "us", median(&epoch_us)),
        metric("engine.epoch_us_tail", "us", epoch_tail.value),
        metric("engine.replans", "count", o.replans as f64),
        metric(
            "engine.replan_ratio",
            "ratio",
            ratio(o.replans as f64, o.epochs as f64),
        ),
        metric("cluster.execute_s", "s", execute_s),
        metric("cluster.node_epochs", "count", node_epochs),
        metric(
            "cluster.ns_per_node_epoch",
            "ns",
            ratio(execute_s * 1e9, executed_node_epochs),
        ),
        metric(
            "service.boundary_self_s",
            "s",
            engine(&|e| e.boundary_self_ns),
        ),
        metric("service.settled_s", "s", engine(&|e| e.settled_ns)),
        metric("service.arrivals", "count", o.service.planned as f64),
        metric("service.admitted", "count", o.service.admitted as f64),
        metric("service.refused", "count", o.service.refused as f64),
        metric("service.preemptions", "count", o.service.preemptions as f64),
        metric("service.scalings", "count", o.service.scalings as f64),
        metric(
            "service.admit_ratio",
            "ratio",
            ratio(o.service.admitted as f64, o.service.submitted as f64),
        ),
        metric(
            "hierarchy.rack_epochs",
            "count",
            if sharded { o.epochs as f64 } else { 0.0 },
        ),
        metric(
            "hierarchy.residual_s",
            "s",
            if sharded {
                med(&SpanSample::residual_s)
            } else {
                0.0
            },
        ),
        metric(
            "hierarchy.speedup_vs_w1",
            "ratio",
            if sharded {
                ratio(median(&one_worker_s), median(&plain_s))
            } else {
                0.0
            },
        ),
        metric("obs.events", "count", obs(&|x| x.events as f64)),
        metric("obs.frames", "count", o.obs.frames as f64),
        metric("obs.bytes", "bytes", o.obs.bytes as f64),
        metric("obs.dropped", "count", o.obs.dropped as f64),
        metric("obs.encode_s", "s", encode_s),
        metric(
            "obs.ns_per_frame",
            "ns",
            ratio(encode_s * 1e9, o.obs.frames as f64),
        ),
        metric(
            "spans.overhead_ratio",
            "ratio",
            ratio(campaign_p50, median(&plain_s)),
        ),
        metric(
            "spans.unattributed_frac",
            "ratio",
            med(&|s| ratio(s.unattributed_s(), s.campaign_s)),
        ),
    ];
    let notes = vec![
        tail_note("scheduler.call_us_tail", &call_tail),
        tail_note("engine.epoch_us_tail", &epoch_tail),
        format!(
            "{} spanned, {} plain and {} one-worker campaigns",
            samples.len(),
            plain_s.len(),
            one_worker_s.len()
        ),
    ];
    Ok(RunResult {
        campaigns: samples.len(),
        outcome: reference,
        metrics,
        notes,
        samples: samples.iter().map(SpanSample::to_json).collect(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(window_medians_ms: &[f64]) -> Vec<Sample> {
        let mut out = Vec::new();
        for (w, &ms) in window_medians_ms.iter().enumerate() {
            for i in 0..10 {
                out.push(Sample {
                    at_s: w as f64 * STATE_WINDOW_S + i as f64 * 0.05,
                    setup_s: 0.0,
                    campaign_s: ms * 1e-3,
                });
            }
        }
        out
    }

    #[test]
    fn fast_state_keeps_windows_near_the_third_fastest() {
        // One lone fast window (2.0) does not set the level, which would
        // keep it alone; the fast state is 3.0-3.5, the slow state 5.5.
        let samples = run(&[5.5, 2.0, 3.0, 5.5, 3.1, 3.5, 5.5, 3.0]);
        let fast = fast_state(&samples);
        let kept: Vec<f64> = samples
            .iter()
            .zip(&fast)
            .filter(|(_, &f)| f)
            .map(|(s, _)| s.campaign_s * 1e3)
            .collect();
        assert_eq!(kept.len(), 50);
        assert!(kept.iter().all(|&ms| ms <= 3.6));
    }

    #[test]
    fn a_uniform_run_keeps_everything() {
        let samples = run(&[5.5; 6]);
        assert!(fast_state(&samples).iter().all(|&f| f));
        // Too short to judge any window: keep all.
        assert!(fast_state(&samples[..4]).iter().all(|&f| f));
    }
}
