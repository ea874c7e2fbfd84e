//! The benchmark's own checks: span wrappers forward faithfully, the
//! driven serve-flat loop equals `run_service`, span runs reproduce plain
//! runs, and every workload runs end to end at a tiny size.

use clip_core::{ClipScheduler, InflectionPredictor, PowerScheduler};
use clip_obs::{EventClass, Recorder, RingSink, TraceEvent, TraceFilter, TraceRecorder};
use clip_perfbench::bench::{plain_run, span_run, RunSpec};
use clip_perfbench::spans::{run_spanned, SpanRecorder, SpanScheduler};
use clip_perfbench::workloads::{run_plain, setup, summarize, Report, Workload, DEFAULT_SEED};
use cluster_sim::Cluster;
use simkit::Power;
use std::sync::atomic::AtomicBool;
use std::sync::{Arc, Mutex};
use workload::suite;

fn clip() -> ClipScheduler {
    ClipScheduler::new(InflectionPredictor::train_default(5))
}

#[test]
fn scheduler_wrapper_forwards_name_tracing_and_decisions() {
    let book = Arc::new(Mutex::new(Default::default()));
    let mut wrapped = SpanScheduler::new(clip(), Arc::new(AtomicBool::new(false)), book.clone());
    let mut bare = clip();
    assert_eq!(wrapped.name(), bare.name());

    let app = suite::comd();
    let budget = Power::watts(1400.0);
    let pool = [0, 1, 2, 3, 5];
    for tracing in [true, false] {
        wrapped.set_tracing(tracing);
        bare.set_tracing(tracing);
        let (mut c1, mut c2) = (Cluster::paper_testbed(7), Cluster::paper_testbed(7));
        assert_eq!(
            wrapped.plan_subset(&mut c1, &app, budget, &pool),
            bare.plan_subset(&mut c2, &app, budget, &pool)
        );
        assert_eq!(
            wrapped.plan(&mut c1, &app, budget),
            bare.plan(&mut c2, &app, budget)
        );
        let (d1, d2) = (wrapped.drain_decisions(), bare.drain_decisions());
        assert_eq!(d1, d2);
        assert_eq!(d1.is_empty(), !tracing, "decisions buffer only when traced");
    }
    assert_eq!(wrapped.spans().calls, 4);
    drop(wrapped);
    let merged = book.lock().expect("book").clone();
    assert_eq!(merged.calls, 4);
    assert_eq!(merged.profiles, 1, "one cold profile, then knowledge hits");
    assert_eq!(merged.trial_calls, 0, "no boundary was open");
}

#[test]
fn recorder_wrapper_forwards_gates_and_frames() {
    let filters = [
        TraceFilter::ALL,
        TraceFilter::NONE,
        TraceFilter::only(EventClass::Service).with(EventClass::Shard),
    ];
    let event = |n: usize| TraceEvent::PlanNode {
        node: n,
        cpu: Power::watts(120.0),
        dram: Power::watts(30.0),
    };
    for filter in filters {
        let mut wrapped = SpanRecorder::new(TraceRecorder::with_filter(RingSink::new(64), filter));
        let mut bare = TraceRecorder::with_filter(RingSink::new(64), filter);
        assert_eq!(wrapped.enabled(), bare.enabled());
        for class in EventClass::ALL {
            assert_eq!(wrapped.enabled_for(class), bare.enabled_for(class));
        }
        for n in 0..5 {
            wrapped.event_with(n as u64, EventClass::Scheduler, || event(n));
            bare.event_with(n as u64, EventClass::Scheduler, || event(n));
            wrapped.counter_add("epochs_total", 1);
            bare.counter_add("epochs_total", 1);
            wrapped.observe("epoch_time_secs", n as f64);
            bare.observe("epoch_time_secs", n as f64);
        }
        wrapped.gauge_set("survivors", 3.0);
        bare.gauge_set("survivors", 3.0);
        assert_eq!(wrapped.events, 5);
        let a: Vec<Vec<u8>> = wrapped
            .inner
            .finish()
            .frames()
            .map(<[u8]>::to_vec)
            .collect();
        let b: Vec<Vec<u8>> = bare.finish().frames().map(<[u8]>::to_vec).collect();
        assert_eq!(a, b, "wrapped recording must be byte-identical");
    }
}

#[test]
fn driven_phase_loop_equals_run_service() {
    let w = Workload::ServeFlat;
    let plain = run_plain(setup(w, w.shape(), DEFAULT_SEED, None), 1);
    let (spanned, spans) = run_spanned(setup(w, w.shape(), DEFAULT_SEED, None), 1);
    let (Report::Flat(a), Report::Flat(b)) = (&plain, &spanned) else {
        panic!("serve-flat yields flat reports");
    };
    let ja = serde_json::to_string(a).expect("serializes");
    let jb = serde_json::to_string(b).expect("serializes");
    assert_eq!(
        ja, jb,
        "the driven loop must reproduce run_service byte for byte"
    );
    let engine = spans.engine.expect("serve-flat records engine spans");
    assert_eq!(engine.epoch_ns.len(), w.shape().epochs);
    assert_eq!(
        spans.sched.trial_calls,
        a.service.jobs.len() as u64,
        "one admission trial per arrival"
    );
}

#[test]
fn spanned_campaigns_reproduce_plain_campaigns() {
    for w in Workload::ALL {
        let shape = w.tiny();
        let workers = shape.workers.min(2);
        let inputs = setup(w, shape, 11, None);
        let planned = inputs.planned_arrivals;
        let plain = summarize(w, shape, planned, &run_plain(inputs, workers)).expect("plain");
        let (report, spans) = run_spanned(setup(w, shape, 11, None), workers);
        let spanned = summarize(w, shape, planned, &report).expect("spanned");
        assert_eq!(plain, spanned, "{}", w.name());
        assert!(spans.sched.calls > 0, "{}: scheduler spans", w.name());
        if w == Workload::ServeRacks {
            let obs = spans.obs.expect("serve-racks records obs spans");
            assert!(obs.events > 0);
            assert_eq!(
                spans.sched.trial_calls, plain.service.submitted,
                "untraced calls are exactly the admission trials"
            );
        }
    }
}

#[test]
fn sharded_campaigns_replay_across_worker_counts() {
    for w in [Workload::Fleet10k, Workload::ServeRacks] {
        let shape = w.tiny();
        let outcome = |workers| {
            let inputs = setup(w, shape, 3, None);
            let planned = inputs.planned_arrivals;
            summarize(w, shape, planned, &run_plain(inputs, workers)).expect("checks pass")
        };
        assert_eq!(outcome(1), outcome(2), "{}", w.name());
    }
}

#[test]
fn the_seed_drives_the_inputs() {
    for w in Workload::ALL {
        let shape = w.tiny();
        let fnv = |seed| {
            let inputs = setup(w, shape, seed, None);
            let planned = inputs.planned_arrivals;
            summarize(w, shape, planned, &run_plain(inputs, 1))
                .expect("checks pass")
                .report_fnv
        };
        assert_eq!(fnv(DEFAULT_SEED), fnv(DEFAULT_SEED), "{}", w.name());
        assert_ne!(fnv(DEFAULT_SEED), fnv(DEFAULT_SEED + 1), "{}", w.name());
    }
}

/// `(names, units)` of one metric list of `BENCHMARK.json`.
fn declared(list: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let doc = serde_json::parse(&text).expect("BENCHMARK.json parses");
    let items = doc
        .get(list)
        .and_then(|v| v.as_array())
        .unwrap_or_else(|| panic!("{list} is a list"));
    items
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(|v| v.as_str())
                    .unwrap_or_else(|| panic!("{list} entry has {k}"))
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

#[test]
fn every_workload_runs_at_a_tiny_size() {
    let e2e = declared("end_to_end");
    let layers = declared("per_layer");
    for w in Workload::ALL {
        let spec = RunSpec {
            workload: w,
            seed: DEFAULT_SEED,
            seconds: 0.05,
            full: false,
            nproc: 2,
        };
        for (result, want) in [(plain_run(&spec), &e2e), (span_run(&spec), &layers)] {
            let result = result.unwrap_or_else(|e| panic!("{}: {e}", w.name()));
            let got: Vec<(String, String)> = result
                .metrics
                .iter()
                .map(|m| (m.name.to_string(), m.unit.to_string()))
                .collect();
            assert_eq!(&got, want, "{}: metrics match BENCHMARK.json", w.name());
            assert!(result.metrics.iter().all(|m| m.value.is_finite()));
            assert!(result.campaigns >= 20);
        }
    }
}
