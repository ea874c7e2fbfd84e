//! The span run: benchmark-side timing wrappers around the program's
//! public layer boundaries.
//!
//! Nothing here is compiled into the program. [`SpanScheduler`] wraps
//! `ClipScheduler` behind the `PowerScheduler` trait, [`SpanPolicy`] wraps
//! the flat `ServiceTimeline` behind `EpochPolicy`, and [`SpanRecorder`]
//! wraps the program's `TraceRecorder` behind `Recorder`. Each forwards
//! every call unchanged and adds host time around it. On serve-flat the
//! benchmark also drives `EpochEngine`'s public phase loop itself, so
//! `begin_run` / `prepare_epoch` / `execute` / `settle_epoch` /
//! `finish_run` each get a span. Spans accumulate in memory; the run
//! writes them out when it ends.

use crate::workloads::{
    finish_rings, power_bound, ring_recorder, shard_config, Body, Inputs, Report,
};
use clip_core::service::ServiceRunReport;
use clip_core::{
    run_sharded, run_sharded_service, Boundary, ClipScheduler, EpochEngine, EpochPolicy,
    FaultHarnessConfig, PowerScheduler, SchedulePlan, ServiceTimeline,
};
use clip_obs::{EventClass, NoopRecorder, Recorder, RingSink, TraceEvent, TraceRecorder};
use cluster_sim::{Cluster, JobReport};
use simkit::Power;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;
use workload::{suite, AppModel};

fn ns_since(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Scheduler-layer spans: every `plan` / `plan_subset` call.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SchedSpans {
    /// Planning calls.
    pub calls: u64,
    /// Calls made inside the service boundary (admission trials).
    pub trial_calls: u64,
    /// Host ns inside all calls.
    pub busy_ns: u64,
    /// Host ns inside trial calls.
    pub trial_ns: u64,
    /// Smart-profiling passes (knowledge-database misses).
    pub profiles: u64,
    /// Per-call host ns.
    pub call_ns: Vec<u64>,
}

impl SchedSpans {
    fn merge(&mut self, o: &Self) {
        self.calls += o.calls;
        self.trial_calls += o.trial_calls;
        self.busy_ns += o.busy_ns;
        self.trial_ns += o.trial_ns;
        self.profiles += o.profiles;
        self.call_ns.extend_from_slice(&o.call_ns);
    }
}

/// `ClipScheduler` with a span around every planning call. `name`,
/// `set_tracing` and `drain_decisions` forward unchanged. The spans merge
/// into the shared book when the wrapper drops, which the sharded entry
/// points do at campaign end.
pub struct SpanScheduler {
    inner: ClipScheduler,
    local: SchedSpans,
    in_boundary: Arc<AtomicBool>,
    book: Arc<Mutex<SchedSpans>>,
    tracing: bool,
    untraced_is_trial: bool,
}

impl SpanScheduler {
    /// Wrap `inner`. Calls made while `in_boundary` is set count as
    /// admission trials.
    pub fn new(
        inner: ClipScheduler,
        in_boundary: Arc<AtomicBool>,
        book: Arc<Mutex<SchedSpans>>,
    ) -> Self {
        Self {
            inner,
            local: SchedSpans::default(),
            in_boundary,
            book,
            tracing: false,
            untraced_is_trial: false,
        }
    }

    /// Also count calls made with decision tracing off as admission
    /// trials. Under a recording engine tracing stays on for the whole
    /// run, and the service turns it off only around its admission trial
    /// (`ServiceTimeline::admission_screen`), so the rack policies that no
    /// wrapper can reach still have their trials counted.
    #[must_use]
    pub fn untraced_calls_are_trials(mut self) -> Self {
        self.untraced_is_trial = true;
        self
    }

    /// Spans recorded so far by this wrapper.
    pub fn spans(&self) -> &SchedSpans {
        &self.local
    }

    fn span<T>(&mut self, f: impl FnOnce(&mut ClipScheduler) -> T) -> T {
        let t = Instant::now();
        let v = f(&mut self.inner);
        let ns = ns_since(t);
        self.local.calls += 1;
        self.local.busy_ns += ns;
        self.local.call_ns.push(ns);
        if self.in_boundary.load(Ordering::Relaxed) || (self.untraced_is_trial && !self.tracing) {
            self.local.trial_calls += 1;
            self.local.trial_ns += ns;
        }
        v
    }
}

impl Drop for SpanScheduler {
    fn drop(&mut self) {
        self.local.profiles = self.inner.profiles_performed() as u64;
        if let Ok(mut book) = self.book.lock() {
            book.merge(&self.local);
        }
    }
}

impl PowerScheduler for SpanScheduler {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn plan(&mut self, cluster: &mut Cluster, app: &AppModel, budget: Power) -> SchedulePlan {
        self.span(|s| s.plan(cluster, app, budget))
    }

    fn plan_subset(
        &mut self,
        cluster: &mut Cluster,
        app: &AppModel,
        budget: Power,
        allowed: &[usize],
    ) -> SchedulePlan {
        self.span(|s| s.plan_subset(cluster, app, budget, allowed))
    }

    fn set_tracing(&mut self, on: bool) {
        self.tracing = on;
        self.inner.set_tracing(on);
    }

    fn drain_decisions(&mut self) -> Vec<TraceEvent> {
        self.inner.drain_decisions()
    }
}

/// The flat service policy with spans around its boundary and settle
/// hooks; `app_for_epoch` and `restrict_pool` forward unspanned.
pub struct SpanPolicy {
    /// The wrapped policy.
    pub inner: ServiceTimeline,
    in_boundary: Arc<AtomicBool>,
    /// Host ns inside `epoch_boundary` (trial planning included).
    pub boundary_ns: u64,
    /// Host ns inside `epoch_settled`.
    pub settled_ns: u64,
}

impl SpanPolicy {
    /// Wrap `inner`, raising `in_boundary` while its boundary runs.
    pub fn new(inner: ServiceTimeline, in_boundary: Arc<AtomicBool>) -> Self {
        Self {
            inner,
            in_boundary,
            boundary_ns: 0,
            settled_ns: 0,
        }
    }
}

impl<R: Recorder> EpochPolicy<R> for SpanPolicy {
    fn epoch_boundary(
        &mut self,
        cluster: &mut Cluster,
        scheduler: &mut dyn PowerScheduler,
        plan: &mut SchedulePlan,
        epoch: usize,
        rec: &mut R,
    ) -> Boundary {
        self.in_boundary.store(true, Ordering::Relaxed);
        let t = Instant::now();
        let b = <ServiceTimeline as EpochPolicy<R>>::epoch_boundary(
            &mut self.inner,
            cluster,
            scheduler,
            plan,
            epoch,
            rec,
        );
        self.boundary_ns += ns_since(t);
        self.in_boundary.store(false, Ordering::Relaxed);
        b
    }

    fn app_for_epoch(&self, epoch: usize) -> Option<&AppModel> {
        <ServiceTimeline as EpochPolicy<R>>::app_for_epoch(&self.inner, epoch)
    }

    fn restrict_pool(&self, pool: &mut Vec<usize>) {
        <ServiceTimeline as EpochPolicy<R>>::restrict_pool(&self.inner, pool);
    }

    fn epoch_settled(&mut self, report: &JobReport, epoch: usize, rec: &mut R) {
        let t = Instant::now();
        <ServiceTimeline as EpochPolicy<R>>::epoch_settled(&mut self.inner, report, epoch, rec);
        self.settled_ns += ns_since(t);
    }
}

/// The program's trace recorder with a span around every recording call;
/// `enabled` and `enabled_for` forward unchanged and unspanned.
pub struct SpanRecorder {
    /// The wrapped recorder.
    pub inner: TraceRecorder<RingSink>,
    /// `event_with` calls.
    pub events: u64,
    /// Host ns inside recording calls (events and metrics).
    pub ns: u64,
}

impl SpanRecorder {
    /// Wrap `inner`.
    pub fn new(inner: TraceRecorder<RingSink>) -> Self {
        Self {
            inner,
            events: 0,
            ns: 0,
        }
    }
}

impl Recorder for SpanRecorder {
    fn enabled(&self) -> bool {
        self.inner.enabled()
    }

    fn enabled_for(&self, class: EventClass) -> bool {
        self.inner.enabled_for(class)
    }

    fn event_with<F: FnOnce() -> TraceEvent>(&mut self, epoch: u64, class: EventClass, make: F) {
        self.events += 1;
        let t = Instant::now();
        self.inner.event_with(epoch, class, make);
        self.ns += ns_since(t);
    }

    fn counter_add(&mut self, name: &str, delta: u64) {
        let t = Instant::now();
        self.inner.counter_add(name, delta);
        self.ns += ns_since(t);
    }

    fn gauge_set(&mut self, name: &str, value: f64) {
        let t = Instant::now();
        self.inner.gauge_set(name, value);
        self.ns += ns_since(t);
    }

    fn observe(&mut self, name: &str, value: f64) {
        let t = Instant::now();
        self.inner.observe(name, value);
        self.ns += ns_since(t);
    }
}

/// Engine-phase spans of the serve-flat driven loop.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EngineSpans {
    /// `begin_run` + `finish_run` host ns.
    pub bracket_ns: u64,
    /// `prepare_epoch` ns minus the policy boundary and re-planning.
    pub prepare_self_ns: u64,
    /// `settle_epoch` ns minus the policy's settle hook.
    pub settle_self_ns: u64,
    /// `execute` host ns.
    pub execute_ns: u64,
    /// Nodes that executed, summed over epochs.
    pub node_epochs: u64,
    /// Per-epoch host ns (prepare + execute + settle).
    pub epoch_ns: Vec<u64>,
    /// Policy boundary ns minus admission-trial planning.
    pub boundary_self_ns: u64,
    /// Policy settle-hook ns.
    pub settled_ns: u64,
}

/// Recorder-layer spans of one campaign.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ObsSpans {
    /// `event_with` calls.
    pub events: u64,
    /// Host ns inside recording calls.
    pub ns: u64,
}

/// Every span one campaign recorded.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CampaignSpans {
    /// Scheduler spans, all racks.
    pub sched: SchedSpans,
    /// Engine spans (serve-flat only).
    pub engine: Option<EngineSpans>,
    /// Recorder spans (serve-racks only).
    pub obs: Option<ObsSpans>,
}

/// Run one campaign with every span wrapper in place. The modelled run
/// must equal [`crate::workloads::run_plain`]'s; the caller checks that
/// through the report fingerprint.
pub fn run_spanned(inputs: Inputs, workers: usize) -> (Report, CampaignSpans) {
    let Inputs {
        workload,
        shape,
        predictor,
        body,
        ..
    } = inputs;
    let app = suite::comd();
    let budget = power_bound(workload, shape);
    let book = Arc::new(Mutex::new(SchedSpans::default()));
    let flag = Arc::new(AtomicBool::new(false));
    let mut spans = CampaignSpans::default();
    let report = match body {
        Body::Flat { cluster, timeline } => {
            let sched =
                SpanScheduler::new(ClipScheduler::new(predictor), flag.clone(), book.clone());
            let (report, engine) =
                drive_service(sched, cluster, &app, timeline, shape.epochs, flag);
            spans.engine = Some(engine);
            Report::Flat(report)
        }
        Body::Sharded {
            fleet,
            faults,
            rack_faults,
            services: None,
        } => {
            let (shard, _) = run_sharded(
                fleet,
                |_rack| {
                    Box::new(SpanScheduler::new(
                        ClipScheduler::new(predictor.clone()),
                        flag.clone(),
                        book.clone(),
                    ))
                },
                &app,
                budget,
                &faults,
                &rack_faults,
                &shard_config(shape, workers),
                (0..shape.racks).map(|_| NoopRecorder).collect(),
                &mut NoopRecorder,
            );
            Report::Sharded {
                shard,
                services: Vec::new(),
                rings: Vec::new(),
                frames_written: 0,
            }
        }
        Body::Sharded {
            fleet,
            faults,
            rack_faults,
            services: Some(services),
        } => {
            let mut cluster_rec = SpanRecorder::new(ring_recorder());
            let (shard, services, recorders) = run_sharded_service(
                fleet,
                |_rack| {
                    Box::new(
                        SpanScheduler::new(
                            ClipScheduler::new(predictor.clone()),
                            flag.clone(),
                            book.clone(),
                        )
                        .untraced_calls_are_trials(),
                    )
                },
                &app,
                budget,
                &faults,
                &rack_faults,
                &shard_config(shape, workers),
                Some(services),
                (0..shape.racks)
                    .map(|_| SpanRecorder::new(ring_recorder()))
                    .collect(),
                &mut cluster_rec,
            );
            let mut obs = ObsSpans::default();
            let mut inner = Vec::with_capacity(recorders.len());
            for rec in recorders.into_iter().chain(std::iter::once(cluster_rec)) {
                obs.events += rec.events;
                obs.ns += rec.ns;
                inner.push(rec.inner);
            }
            let cluster = inner.pop().expect("the cluster recorder was chained last");
            // The snapshot frame `finish` appends is recorder work too.
            let t = Instant::now();
            let (rings, frames_written) = finish_rings(inner, cluster);
            obs.ns += ns_since(t);
            spans.obs = Some(obs);
            Report::Sharded {
                shard,
                services,
                rings,
                frames_written,
            }
        }
    };
    spans.sched = book.lock().map(|b| b.clone()).unwrap_or_default();
    (report, spans)
}

/// The serve-flat campaign through `EpochEngine`'s public phase loop —
/// what `run_service` does, with a span around every phase. The report
/// must be byte-identical to `run_service`'s.
fn drive_service(
    mut sched: SpanScheduler,
    mut cluster: Cluster,
    app: &AppModel,
    timeline: ServiceTimeline,
    epochs: usize,
    in_boundary: Arc<AtomicBool>,
) -> (ServiceRunReport, EngineSpans) {
    let cfg = FaultHarnessConfig {
        epochs,
        iterations_per_epoch: crate::workloads::service_cfg().iterations_per_epoch,
    };
    let mut policy = SpanPolicy::new(timeline, in_boundary);
    let mut engine = EpochEngine::new(policy.inner.grant(), NoopRecorder);
    let mut s = EngineSpans {
        epoch_ns: Vec::with_capacity(epochs),
        ..EngineSpans::default()
    };
    let t = Instant::now();
    let mut state = engine.begin_run(&mut sched, &mut cluster, app, &mut policy, &cfg);
    s.bracket_ns += ns_since(t);
    for epoch in 0..epochs {
        let (plan_ns, trial_ns) = (sched.spans().busy_ns, sched.spans().trial_ns);
        let boundary_ns = policy.boundary_ns;
        let settled_ns = policy.settled_ns;
        let t0 = Instant::now();
        let prep = engine.prepare_epoch(
            &mut state,
            &mut sched,
            &mut cluster,
            app,
            &mut policy,
            epoch,
        );
        let t1 = Instant::now();
        let report = engine.execute(
            &mut cluster,
            state.staged().unwrap_or(app),
            &state.plan,
            cfg.iterations_per_epoch,
        );
        let t2 = Instant::now();
        engine.settle_epoch(&mut state, prep, &report, &mut policy, epoch);
        let t3 = Instant::now();

        let d_boundary = policy.boundary_ns - boundary_ns;
        let d_trial = sched.spans().trial_ns - trial_ns;
        let d_replan = (sched.spans().busy_ns - plan_ns) - d_trial;
        let d_settled = policy.settled_ns - settled_ns;
        let prepare = (t1 - t0).as_nanos() as u64;
        let settle = (t3 - t2).as_nanos() as u64;
        s.prepare_self_ns += prepare.saturating_sub(d_boundary + d_replan);
        s.boundary_self_ns += d_boundary.saturating_sub(d_trial);
        s.settle_self_ns += settle.saturating_sub(d_settled);
        s.settled_ns += d_settled;
        s.execute_ns += (t2 - t1).as_nanos() as u64;
        s.node_epochs += state.plan.node_ids.len() as u64;
        s.epoch_ns.push((t3 - t0).as_nanos() as u64);
    }
    let t = Instant::now();
    let engine_report = engine.finish_run(state, &mut sched, &cluster);
    s.bracket_ns += ns_since(t);
    let report = ServiceRunReport {
        engine: engine_report,
        service: policy.inner.into_report(),
    };
    (report, s)
}
