//! Golden regression pins: the reproduction's key numbers, frozen.
//!
//! Everything in this repository is deterministic under `HARNESS_SEED`-style
//! fixed seeds, so the central results can be pinned exactly (or within a
//! hair for float noise). If a model refactor moves one of these, the change
//! is either a deliberate recalibration — update the pin and EXPERIMENTS.md
//! together — or a regression.

use clip_core::mlr::{actual_inflection, InflectionPredictor};
use clip_core::SmartProfiler;
use simnode::Node;
use workload::suite::{self, table2_suite};

/// Figure 6 pins: the classification ratios of all ten benchmarks.
#[test]
fn golden_fig6_ratios() {
    let expected: &[(&str, f64)] = &[
        ("BT-MZ", 0.923),
        ("LU-MZ", 0.749),
        ("SP-MZ", 1.337),
        ("CoMD", 0.500),
        ("AMG", 0.500),
        ("miniAero", 1.495),
        ("miniMD", 0.500),
        ("TeaLeaf", 1.249),
        ("CloverLeaf-128", 0.725),
        ("CloverLeaf-16", 0.725),
    ];
    let profiler = SmartProfiler::default();
    for ((name, want), entry) in expected.iter().zip(table2_suite()) {
        assert_eq!(*name, entry.app.name());
        let mut node = Node::haswell();
        let p = profiler.profile(&mut node, &entry.app);
        let got = p.half_all_ratio();
        assert!(
            (got - want).abs() < 0.005,
            "{name}: ratio {got:.3} drifted from pinned {want:.3}"
        );
    }
}

/// Figure 7 pins: predicted and actual inflection points.
#[test]
fn golden_fig7_inflections() {
    let expected: &[(&str, usize, usize)] = &[
        ("BT-MZ", 10, 10),
        ("LU-MZ", 10, 10),
        ("SP-MZ", 14, 14),
        ("miniAero", 12, 12),
        ("TeaLeaf", 14, 16),
        ("CloverLeaf-128", 10, 12),
        ("CloverLeaf-16", 10, 12),
    ];
    let predictor = InflectionPredictor::train_default(5);
    let profiler = SmartProfiler::default();
    let nonlinear: Vec<_> = table2_suite()
        .into_iter()
        .filter(|e| e.expected_class != workload::ScalabilityClass::Linear)
        .collect();
    for ((name, want_pred, want_actual), entry) in expected.iter().zip(nonlinear) {
        assert_eq!(*name, entry.app.name());
        let mut node = Node::haswell();
        let p = profiler.profile(&mut node, &entry.app);
        let predicted = predictor.predict(&p);
        let actual = actual_inflection(&mut node, &entry.app, p.policy, p.class);
        assert_eq!(predicted, *want_pred, "{name}: predicted NP drifted");
        assert_eq!(actual, *want_actual, "{name}: actual NP drifted");
    }
}

/// Node power-model calibration pins.
#[test]
fn golden_power_calibration() {
    use simkit::{Bandwidth, Frequency, Power};
    let pm = simnode::PowerModel::haswell();
    // Socket TDP: 12 compute-bound cores at 2.3 GHz.
    let socket = pm.pkg_power(&[12, 0], Frequency::ghz(2.3), 1.0) - Power::watts(9.0);
    assert!((socket.as_watts() - 119.9).abs() < 0.5, "socket {socket}");
    // DRAM envelope: 6 W idle, 33 W fully loaded (two sockets).
    assert!((pm.dram_power(Bandwidth::ZERO, 2).as_watts() - 6.0).abs() < 1e-9);
    assert!((pm.dram_power(Bandwidth::gbps(112.0), 2).as_watts() - 33.0).abs() < 1e-9);
}

/// The deterministic corpus hands the MLR the same training set forever.
#[test]
fn golden_corpus_fingerprint() {
    let corpus = workload::corpus::training_corpus(5, 3);
    // Spot-pin a few generated parameters (full equality is covered by the
    // reproducibility tests; this pins cross-version drift of the RNG).
    let (first, _) = &corpus[0];
    let p = &first.phases()[0];
    assert_eq!(first.name(), "synth-lin-00");
    assert!(
        (p.parallel_gcycles - 177.3536091967868).abs() < 1e-9,
        "RNG stream drifted: {}",
        p.parallel_gcycles
    );
}

/// Fault-timeline pins: CLIP driven through a fixed four-event fault plan
/// (cap jitter, a crash, a straggler, a second crash) on the seed-5 fleet.
/// The whole trajectory is a pure function of `(seed, FaultPlan)`, so the
/// re-coordination schedule and the reclaimed watts can be pinned exactly.
#[test]
fn golden_fault_timeline() {
    use clip_core::{run_with_faults, ClipScheduler, FaultHarnessConfig};
    use cluster_sim::{Cluster, FaultEvent, FaultKind, FaultPlan, VariabilityModel};
    use simkit::Power;

    let faults = FaultPlan::new(vec![
        FaultEvent {
            at_epoch: 1,
            node: 2,
            kind: FaultKind::CapJitter { fraction: 0.06 },
        },
        FaultEvent {
            at_epoch: 2,
            node: 5,
            kind: FaultKind::NodeCrash,
        },
        FaultEvent {
            at_epoch: 3,
            node: 1,
            kind: FaultKind::SlowNode { factor: 1.20 },
        },
        FaultEvent {
            at_epoch: 5,
            node: 0,
            kind: FaultKind::NodeCrash,
        },
    ]);
    let budget = Power::watts(1500.0);
    let mut cluster = Cluster::with_variability(8, &VariabilityModel::default(), 5);
    let mut sched = ClipScheduler::new(InflectionPredictor::train_default(5));
    let report = run_with_faults(
        &mut sched,
        &mut cluster,
        &suite::comd(),
        budget,
        &faults,
        &FaultHarnessConfig {
            epochs: 7,
            iterations_per_epoch: 1,
        },
        &mut clip_obs::NoopRecorder,
    );

    // The re-coordination schedule: each pool change recovers exactly one
    // epoch later. The straggle recovery reclaims nothing (the node lived).
    assert_eq!(report.survivors, 6);
    let schedule: Vec<(usize, usize)> = report
        .recoveries
        .iter()
        .map(|r| (r.fault_epoch, r.recovered_epoch))
        .collect();
    assert_eq!(schedule, vec![(2, 3), (3, 4), (5, 6)]);
    let reclaimed: Vec<f64> = report
        .recoveries
        .iter()
        .map(|r| r.reclaimed.as_watts())
        .collect();
    assert!(
        (reclaimed[0] - 193.563).abs() < 0.05,
        "crash 1: {:?}",
        reclaimed
    );
    assert!(reclaimed[1].abs() < 1e-9, "straggle: {:?}", reclaimed);
    assert!(
        (reclaimed[2] - 379.252).abs() < 0.05,
        "crash 2: {:?}",
        reclaimed
    );

    // Degraded epochs hold only the survivors' share of the budget;
    // every recovered epoch holds the full budget again.
    let caps: Vec<f64> = report
        .epochs
        .iter()
        .map(|e| e.caps_total.as_watts())
        .collect();
    assert!(
        (caps[2] - 1306.437).abs() < 0.05,
        "degraded caps {:?}",
        caps
    );
    assert!(
        (caps[5] - 1120.748).abs() < 0.05,
        "degraded caps {:?}",
        caps
    );
    for &e in &[0, 1, 3, 4, 6] {
        assert!((caps[e] - 1500.0).abs() < 1e-6, "epoch {e} caps {:?}", caps);
    }

    // The dead nodes never reappear; the straggler is dropped after its
    // recovery replan.
    for e in &report.epochs[3..] {
        assert!(
            !e.node_ids.contains(&5),
            "epoch {}: {:?}",
            e.epoch,
            e.node_ids
        );
    }
    assert!(!report.epochs[6].node_ids.contains(&0));
    assert!(!report.epochs[4].node_ids.contains(&1));

    // Throughput pins (CoMD iterations/s under the fixed seed).
    let close = |got: f64, want: f64| (got - want).abs() / want < 0.01;
    assert!(close(report.pre_fault_performance(), 1.5984), "pre-fault");
    assert!(close(report.post_fault_performance(), 0.9762), "post-fault");
    assert!(close(report.mean_performance(), 1.1803), "mean");
    assert_eq!(report.injected_overshoots, 0);
}

/// Cross-rack fault pins: a 3-rack sharded campaign (seed-5 fleet, 3000 W
/// global bound) through a node crash, cap jitter, a straggler, and a
/// whole-rack crash at epoch 3. The hierarchy makes the trajectory a pure
/// function of `(seed, topology, FaultPlan, RackFault)`, so the arbiter's
/// redistribution — who reclaims what, and when the survivors re-plan —
/// pins exactly.
#[test]
fn golden_rack_crash_timeline() {
    use clip_core::{run_sharded, ClipScheduler, RackFault, ShardConfig};
    use clip_obs::NoopRecorder;
    use cluster_sim::{
        FaultEvent, FaultKind, FaultPlan, RackTopology, ShardedFleet, VariabilityModel,
    };
    use simkit::Power;

    let topo = RackTopology::new(3, 4);
    let fleet = ShardedFleet::with_variability(topo, &VariabilityModel::default(), 5);
    // Global node indices: node 5 is rack 1 local 1; node 9 is rack 2
    // local 1. The rack-0 crash at epoch 3 retires a whole rack.
    let faults = FaultPlan::new(vec![
        FaultEvent {
            at_epoch: 1,
            node: 5,
            kind: FaultKind::NodeCrash,
        },
        FaultEvent {
            at_epoch: 2,
            node: 2,
            kind: FaultKind::CapJitter { fraction: 0.06 },
        },
        FaultEvent {
            at_epoch: 4,
            node: 9,
            kind: FaultKind::SlowNode { factor: 1.2 },
        },
    ]);
    let cfg = ShardConfig {
        epochs: 6,
        iterations_per_epoch: 1,
        shift_fraction: 0.5,
        workers: None,
        shuffle_seed: None,
    };
    let pred = InflectionPredictor::train_default(5);
    let budget = Power::watts(3000.0);
    let (report, _) = run_sharded(
        fleet,
        |_rack| Box::new(ClipScheduler::new(pred.clone())),
        &suite::comd(),
        budget,
        &faults,
        &[RackFault {
            at_epoch: 3,
            rack: 0,
        }],
        &cfg,
        vec![NoopRecorder, NoopRecorder, NoopRecorder],
        &mut NoopRecorder,
    );

    // Rack 0 dies at epoch 3 having run epochs 0..=2; the watts it held
    // (its even share plus the slack it had absorbed from rack 1's
    // degraded demand) return to the pool the same epoch.
    let dead = report.racks.first().expect("rack 0 exists");
    assert_eq!(dead.crashed_at, Some(3));
    assert_eq!(dead.report.epochs.len(), 3);
    assert_eq!(dead.granted, Power::ZERO);
    assert!(
        (dead.reclaimed.as_watts() - 1061.514).abs() < 0.05,
        "reclaimed {:.3}",
        dead.reclaimed.as_watts()
    );

    // Rack 1 lost node 5 at epoch 1 and recovered one epoch later,
    // reclaiming the dead node's cap share — the flat engine's TTR
    // contract, unchanged inside a shard.
    let r1 = report.racks.get(1).expect("rack 1 exists");
    let ttr: Vec<(usize, usize)> = r1
        .report
        .recoveries
        .iter()
        .map(|r| (r.fault_epoch, r.recovered_epoch))
        .collect();
    assert_eq!(ttr, vec![(1, 2)]);
    let reclaimed_node = r1
        .report
        .recoveries
        .first()
        .map(|r| r.reclaimed.as_watts())
        .unwrap_or_default();
    assert!((reclaimed_node - 246.056).abs() < 0.05, "{reclaimed_node}");

    // The straggler on rack 2 forces a replan but reclaims nothing.
    let r2 = report.racks.get(2).expect("rack 2 exists");
    let straggle: Vec<(usize, usize, f64)> = r2
        .report
        .recoveries
        .iter()
        .map(|r| (r.fault_epoch, r.recovered_epoch, r.reclaimed.as_watts()))
        .collect();
    assert_eq!(straggle.len(), 1);
    assert_eq!((straggle[0].0, straggle[0].1), (4, 5));
    assert!(straggle[0].2.abs() < 1e-9);

    // Redistribution: the survivors' final grants absorb the whole bound,
    // split by the arbiter's demand-driven shifting (not evenly — rack 1
    // runs degraded and rack 2 at full strength).
    assert!((r1.granted.as_watts() - 1331.907).abs() < 0.05);
    assert!((r2.granted.as_watts() - 1668.094).abs() < 0.05);
    assert!(
        (r1.granted.as_watts() + r2.granted.as_watts() - budget.as_watts()).abs() < 1e-6,
        "survivor grants must sum to the global bound"
    );

    // Both survivors re-planned at the crash epoch — redistribution lands
    // within one epoch of the rack fault.
    for rack in [r1, r2] {
        assert!(
            rack.report
                .epochs
                .iter()
                .any(|e| e.epoch == 3 && e.replanned),
            "rack {} must re-plan at the crash epoch",
            rack.rack
        );
    }

    // Survivors and aggregate throughput under the fixed seed.
    assert_eq!(report.survivors, 7);
    let agg = report.aggregate_performance();
    assert!((agg - 1.5613).abs() / 1.5613 < 0.01, "aggregate {agg:.4}");
}

/// Open-loop service pins: the smoke-scale CLIP service run from
/// `examples/service.rs` (three tenants, seeded Poisson arrivals, 2400 W
/// envelope, 12 epochs on the seed-7 testbed). The whole trajectory —
/// admissions, the one silver preemption, the autoscaler's climb from 4
/// to 8 nodes, and every completion latency — is a pure function of the
/// seed, so the service-level outcomes pin exactly. `scripts/check.sh`
/// greps the example's "overall SLO attainment" line against the same
/// numbers.
#[test]
fn golden_service_slo_attainment() {
    use clip_core::service::{run_service, ServiceTimeline};
    use clip_core::ClipScheduler;
    use clip_serve::{ArrivalPlan, ServiceConfig, Tenant};
    use cluster_sim::Cluster;
    use simkit::{Power, SimRng, TimeSpan};

    let tenants = vec![
        Tenant::new("gold", 3, TimeSpan::secs(30.0)),
        Tenant::new("silver", 2, TimeSpan::secs(60.0)),
        Tenant::new("bronze", 1, TimeSpan::secs(120.0)),
    ];
    let catalog = vec![suite::comd(), suite::amg(), suite::tea_leaf()];
    let mut rng = SimRng::seed_from_u64(2017);
    let plan = ArrivalPlan::poisson(&mut rng, &[0.35, 0.5, 0.7], catalog.len(), 12, (2, 8));
    let timeline = ServiceTimeline::new(
        tenants,
        catalog,
        plan,
        ServiceConfig {
            min_nodes: 2,
            max_nodes: 8,
            initial_nodes: 4,
            watts_per_node: Power::watts(300.0),
            grow_queue: 2,
            shrink_queue: 0,
            scale_step: 1,
            preempt_grace: 0.05,
            iterations_per_epoch: 2,
        },
        Power::watts(2400.0),
    );
    let mut cluster = Cluster::paper_testbed(7);
    let mut sched = ClipScheduler::new(InflectionPredictor::train_default(5));
    let report = run_service(
        &mut sched,
        &mut cluster,
        &suite::comd(),
        timeline,
        12,
        &mut clip_obs::NoopRecorder,
    );
    let svc = report.service;

    // Per-tenant (submitted, admitted, rejected, preemptions, completed).
    let rows: Vec<(usize, usize, usize, usize, usize)> = svc
        .tenants
        .iter()
        .map(|t| {
            (
                t.submitted,
                t.admitted,
                t.rejected,
                t.preemptions,
                t.completed,
            )
        })
        .collect();
    assert_eq!(
        rows,
        vec![(3, 3, 0, 0, 3), (11, 11, 0, 1, 0), (9, 9, 0, 0, 1)],
        "per-tenant service outcomes drifted"
    );

    // Everything that completed met its SLO under the smoke load.
    assert_eq!(svc.completed(), 4);
    assert_eq!(svc.overall_slo_attainment(), Some(1.0));

    // Gold's worst completion latency under the fixed seed.
    let gold = svc.tenants.first().expect("gold exists");
    let p95 = gold.latency_percentile(95.0).expect("gold completed jobs");
    assert!((p95 - 5.2).abs() < 0.1, "gold p95 {p95:.2} drifted");

    // The autoscaler climbed 4→8 one node at a time and stayed there.
    assert_eq!(svc.pool_scalings, 4);
    assert_eq!(svc.final_pool, 8);
}

/// Uncapped single-node performance pins for three representative apps.
#[test]
fn golden_uncapped_performance() {
    type Case = (&'static str, fn() -> workload::AppModel, f64);
    let cases: &[Case] = &[
        ("CoMD", suite::comd as fn() -> workload::AppModel, 0.2458),
        ("LU-MZ", suite::lu_mz, 0.419),
        ("SP-MZ", suite::sp_mz, 0.1099),
    ];
    for (name, mk, want) in cases {
        let mut node = Node::haswell();
        let got = node
            .execute(&mk(), 24, simnode::AffinityPolicy::Scatter, 1)
            .performance();
        assert!(
            (got - want).abs() / want < 0.02,
            "{name}: uncapped perf {got:.4} drifted from pinned {want:.4}"
        );
    }
}

/// Queue-dispatch pins: the `ext_queue` submission stream (six Table II
/// jobs on half-machine decompositions, staggered arrivals) through the
/// FCFS dispatcher at 1500 W on 8 homogeneous nodes. Each outcome is
/// `(job, start s, finish s, nodes, threads, grant W)` in completion
/// order; the whole report is a pure function of the stream and seed.
#[test]
fn golden_queue_dispatch() {
    use clip_core::dispatch::{Dispatcher, QueuedJob};
    use clip_core::ClipScheduler;
    use cluster_sim::Cluster;
    use simkit::{Power, TimeSpan};

    let mk = |app: workload::AppModel, t: f64| QueuedJob {
        app: app.with_preferred_node_counts(vec![1, 2, 4]),
        arrival: TimeSpan::secs(t),
        iterations: 3,
    };
    let jobs = vec![
        mk(suite::comd(), 0.0),
        mk(suite::sp_mz(), 0.0),
        mk(suite::lu_mz(), 2.0),
        mk(suite::tea_leaf(), 4.0),
        mk(suite::amg(), 6.0),
        mk(suite::mini_aero(), 8.0),
    ];
    let mut clip = ClipScheduler::new(InflectionPredictor::train_default(5));
    clip.coordinate_variability = false;
    let mut cluster = Cluster::homogeneous(8);
    let report = Dispatcher::new(clip, Power::watts(1500.0)).run(
        &mut cluster,
        &jobs,
        &mut clip_obs::NoopRecorder,
    );

    let expected: &[(&str, f64, f64, usize, usize, f64)] = &[
        ("CoMD", 0.0, 3.073218892050729, 4, 24, 1119.1684094440911),
        (
            "LU-MZ",
            3.073218892050729,
            5.331813257346682,
            4,
            24,
            985.452168,
        ),
        ("SP-MZ", 0.0, 7.496059267477416, 4, 10, 380.83159055590886),
        (
            "TeaLeaf",
            5.331813257346682,
            8.75192806008168,
            4,
            14,
            703.166355,
        ),
        (
            "AMG",
            7.496059267477416,
            10.726330636555778,
            4,
            24,
            796.833645,
        ),
        (
            "miniAero",
            8.75192806008168,
            15.064010271470575,
            4,
            12,
            604.8813282857142,
        ),
    ];
    let close = |a: f64, b: f64| (a - b).abs() <= 1e-9 * b.abs().max(1.0);
    assert_eq!(report.outcomes.len(), expected.len());
    for (o, &(job, start, finish, nodes, threads, grant)) in report.outcomes.iter().zip(expected) {
        assert_eq!(o.job, job, "completion order drifted");
        assert!(
            close(o.start.as_secs(), start),
            "{job}: start {:?}",
            o.start
        );
        assert!(
            close(o.finish.as_secs(), finish),
            "{job}: finish {:?}",
            o.finish
        );
        assert_eq!(
            (o.nodes, o.threads),
            (nodes, threads),
            "{job}: shape drifted"
        );
        assert!(
            close(o.granted_power.as_watts(), grant),
            "{job}: grant {}",
            o.granted_power
        );
    }
    assert!(close(report.makespan.as_secs(), 15.064010271470575));
}

/// Concurrent-job pins: the `ext_multijob` proportional-fairness split for
/// the compute+parabolic pair and the four-way mix at 1200 W and 1800 W on
/// 8 homogeneous nodes. Each plan is `(node ids, threads, per-node CPU cap
/// W, per-node DRAM cap W)` and is followed by the job's measured
/// iterations per second when the plans run side by side.
#[test]
fn golden_concurrent_plans() {
    use clip_core::{execute_concurrent, ClipScheduler, Dispatcher, SchedulePlan};
    use cluster_sim::Cluster;
    use simkit::Power;

    fn plan_mix(
        cluster: &mut Cluster,
        jobs: &[workload::AppModel],
        budget: Power,
    ) -> Vec<SchedulePlan> {
        let clip = ClipScheduler::new(InflectionPredictor::train_default(5));
        Dispatcher::new(clip, budget).plan_concurrent(cluster, jobs)
    }

    type Pin = (&'static [usize], usize, f64, f64, f64);
    let pair = vec![suite::comd(), suite::sp_mz()];
    let four = vec![
        suite::comd(),
        suite::sp_mz(),
        suite::lu_mz(),
        suite::tea_leaf(),
    ];
    let cases: Vec<(&Vec<workload::AppModel>, f64, Vec<Pin>)> = vec![
        (
            &pair,
            1200.0,
            vec![
                (
                    &[0, 1, 2, 3],
                    24,
                    137.94854777148822,
                    12.05145222851177,
                    0.6805333337599072,
                ),
                (
                    &[4, 5, 6, 7],
                    12,
                    129.69285714285715,
                    20.307142857142857,
                    0.5828733116661688,
                ),
            ],
        ),
        (
            &pair,
            1800.0,
            vec![
                (
                    &[0, 1, 2, 3],
                    24,
                    211.52248003644948,
                    13.477519963550527,
                    0.8918351523191873,
                ),
                (&[4, 5, 6, 7], 14, 202.475, 22.525, 0.5961060698413386),
            ],
        ),
        (
            &four,
            1200.0,
            vec![
                (
                    &[0, 1],
                    24,
                    137.94854777148822,
                    12.05145222851177,
                    0.3413576076520997,
                ),
                (
                    &[2, 3],
                    12,
                    129.69285714285715,
                    20.307142857142857,
                    0.29295506748580863,
                ),
                (
                    &[4, 5],
                    12,
                    114.1235,
                    35.876499999999986,
                    0.5816738360987411,
                ),
                (
                    &[6, 7],
                    12,
                    123.03928571428571,
                    26.96071428571429,
                    0.42464674314410905,
                ),
            ],
        ),
        (
            &four,
            1800.0,
            vec![
                (
                    &[0, 1],
                    24,
                    211.52248003644948,
                    13.477519963550527,
                    0.4477930201151469,
                ),
                (&[2, 3], 14, 202.475, 22.525, 0.29964136093011656),
                (
                    &[4, 5],
                    24,
                    189.1235,
                    35.876499999999986,
                    0.7473838044403115,
                ),
                (&[6, 7], 14, 194.7125, 30.2875, 0.4422250788314271),
            ],
        ),
    ];
    let close = |a: f64, b: f64| (a - b).abs() <= 1e-9 * b.abs().max(1.0);
    for (jobs, budget_w, pins) in cases {
        let cluster = Cluster::homogeneous(8);
        let mut planning = cluster.clone();
        let plans = plan_mix(&mut planning, jobs, Power::watts(budget_w));
        let mut exec = cluster.clone();
        let reports = execute_concurrent(&mut exec, jobs, &plans, 2, &mut clip_obs::NoopRecorder);
        assert_eq!(plans.len(), pins.len());
        for (((plan, report), app), &(ids, threads, cpu, dram, perf)) in
            plans.iter().zip(&reports).zip(jobs.iter()).zip(&pins)
        {
            let what = format!("{} at {budget_w} W", app.name());
            assert_eq!(plan.node_ids, ids, "{what}: node split drifted");
            assert_eq!(plan.threads_per_node, threads, "{what}: threads drifted");
            for caps in &plan.caps {
                assert!(
                    close(caps.cpu.as_watts(), cpu),
                    "{what}: cpu cap {}",
                    caps.cpu
                );
                assert!(
                    close(caps.dram.as_watts(), dram),
                    "{what}: dram cap {}",
                    caps.dram
                );
            }
            assert!(
                close(report.performance(), perf),
                "{what}: perf {}",
                report.performance()
            );
        }
    }
}

/// Fixed-launch pins: the `ext_runtime` LU-MZ plans on the paper testbed
/// (seed 5), four pinned launch shapes at 900 W and 1400 W. Each pin is
/// `(nodes, threads, budget W, node ids, policy, per-node (CPU W, DRAM W)
/// caps, measured it/s)`; the plan must honour the launch exactly and
/// only choose the caps, the split, the affinity and which nodes run.
#[test]
fn golden_fixed_launch_plans() {
    use clip_core::{execute_plan, ClipScheduler};
    use cluster_sim::Cluster;
    use simkit::Power;
    use simnode::AffinityPolicy;

    fn plan_fixed(
        cluster: &mut Cluster,
        app: &workload::AppModel,
        budget: Power,
        nodes: usize,
        threads: usize,
    ) -> clip_core::SchedulePlan {
        ClipScheduler::new(InflectionPredictor::train_default(5))
            .plan_fixed(cluster, app, budget, nodes, threads)
    }

    type Pin = (
        usize,
        usize,
        f64,
        &'static [usize],
        AffinityPolicy,
        &'static [(f64, f64)],
        f64,
    );
    const EIGHT: &[usize] = &[1, 4, 6, 7, 0, 3, 5, 2];
    let pins: &[Pin] = &[
        (
            8,
            24,
            900.0,
            EIGHT,
            AffinityPolicy::Scatter,
            &[
                (84.59499568460171, 24.044647235346332),
                (84.6980527568167, 24.044647235346332),
                (87.71717152584395, 24.044647235346332),
                (88.13456701933838, 24.044647235346332),
                (88.21885951006581, 24.044647235346332),
                (90.84550829447069, 24.044647235346332),
                (91.52543731281716, 24.044647235346332),
                (91.90823001327495, 24.044647235346332),
            ],
            1.1885975978801369,
        ),
        (
            8,
            24,
            1400.0,
            EIGHT,
            AffinityPolicy::Scatter,
            &[
                (133.14106620338313, 35.783254574643095),
                (133.30326407766, 35.783254574643095),
                (138.05494813000757, 35.783254574643095),
                (138.7118721073966, 35.783254574643095),
                (138.84453707176672, 35.783254574643095),
                (142.97852652193868, 35.783254574643095),
                (144.04864271158638, 35.783254574643095),
                (144.6511065791163, 35.783254574643095),
            ],
            1.8677158189051999,
        ),
        (
            4,
            24,
            900.0,
            &[1, 4, 6, 7],
            AffinityPolicy::Scatter,
            &[
                (185.50811562260526, 35.783254574643095),
                (185.73410917120077, 35.783254574643095),
                (192.35472578274616, 35.783254574643095),
                (193.27003112487543, 35.783254574643095),
            ],
            1.328259755756053,
        ),
        (
            4,
            24,
            1400.0,
            &[1, 4, 6, 7],
            AffinityPolicy::Scatter,
            &[
                (308.05812778298866, 35.783254574643095),
                (308.4334167520869, 35.783254574643095),
                (319.42773229066324, 35.783254574643095),
                (320.9477048756888, 35.783254574643095),
            ],
            1.328259755756053,
        ),
        (
            8,
            12,
            900.0,
            EIGHT,
            AffinityPolicy::Scatter,
            &[
                (73.36868313059365, 35.783254574643095),
                (73.45806385122042, 35.783254574643095),
                (76.0765256940964, 35.783254574643095),
                (76.43853005918326, 35.783254574643095),
                (76.51163638175495, 35.783254574643095),
                (78.78971158938144, 35.783254574643095),
                (79.379409553128, 35.783254574643095),
                (79.71140314349712, 35.783254574643095),
            ],
            1.343182388485965,
        ),
        (
            8,
            12,
            1400.0,
            EIGHT,
            AffinityPolicy::Scatter,
            &[
                (133.14106620338313, 35.783254574643095),
                (133.30326407766, 35.783254574643095),
                (138.05494813000757, 35.783254574643095),
                (138.7118721073966, 35.783254574643095),
                (138.84453707176672, 35.783254574643095),
                (142.97852652193868, 35.783254574643095),
                (144.04864271158638, 35.783254574643095),
                (144.6511065791163, 35.783254574643095),
            ],
            1.7263727764950132,
        ),
        (
            6,
            16,
            900.0,
            &[1, 4, 6, 7, 0, 3],
            AffinityPolicy::Scatter,
            &[
                (110.59133551626415, 35.783254574643095),
                (110.72606238938964, 35.783254574643095),
                (114.67296697927569, 35.783254574643095),
                (115.21862957657775, 35.783254574643095),
                (115.32882544629912, 35.783254574643095),
                (118.76265264433493, 35.783254574643095),
            ],
            1.4429122513990313,
        ),
        (
            6,
            16,
            1400.0,
            &[1, 4, 6, 7, 0, 3],
            AffinityPolicy::Scatter,
            &[
                (191.27954451779067, 35.783254574643095),
                (191.51256905633565, 35.783254574643095),
                (198.33916273733473, 35.783254574643095),
                (199.282944567847, 35.783254574643095),
                (199.4735401119703, 35.783254574643095),
                (205.41271156086282, 35.783254574643095),
            ],
            1.5713752547942563,
        ),
    ];
    let close = |a: f64, b: f64| (a - b).abs() <= 1e-9 * b.abs().max(1.0);
    let cluster = Cluster::paper_testbed(5);
    let app = suite::lu_mz();
    for &(nodes, threads, budget_w, ids, policy, caps, perf) in pins {
        let what = format!("{nodes}n x {threads}t at {budget_w} W");
        let budget = Power::watts(budget_w);
        let mut planning = cluster.clone();
        let plan = plan_fixed(&mut planning, &app, budget, nodes, threads);
        assert_eq!(plan.node_ids, ids, "{what}: node selection drifted");
        assert_eq!(
            plan.threads_per_node, threads,
            "{what}: launch not honoured"
        );
        assert_eq!(plan.policy, policy, "{what}: affinity drifted");
        assert_eq!(plan.caps.len(), caps.len(), "{what}: cap count");
        for (got, &(cpu, dram)) in plan.caps.iter().zip(caps) {
            assert!(
                close(got.cpu.as_watts(), cpu),
                "{what}: cpu cap {}",
                got.cpu
            );
            assert!(
                close(got.dram.as_watts(), dram),
                "{what}: dram cap {}",
                got.dram
            );
        }
        assert!(plan.within_budget(budget), "{what}: over budget");
        let mut exec = cluster.clone();
        let report = execute_plan(&mut exec, &app, &plan, 2, 0, &mut clip_obs::NoopRecorder);
        assert!(
            close(report.performance(), perf),
            "{what}: perf {}",
            report.performance()
        );
    }
}
