//! The three campaign workloads: seeded inputs, the plain campaign, and
//! the modelled-system summary every run checks.
//!
//! A campaign is one end-to-end program run on freshly built inputs.
//! [`setup`] builds those inputs from the seed (predictor training,
//! fleet and fault-plan construction, arrival plans and timelines);
//! [`run_plain`] hands them to the program's public entry point with no
//! benchmark code in the loop; [`summarize`] checks the result and
//! reduces it to the numbers the benchmark reports.

use crate::stats::fnv1a;
use clip_core::service::{run_service, ServiceRunReport, ServiceTimeline};
use clip_core::{
    run_sharded, run_sharded_service, ClipScheduler, InflectionPredictor, RackFault, ShardConfig,
    ShardRunReport,
};
use clip_obs::{NoopRecorder, RingSink, TraceRecorder};
use clip_serve::{ArrivalPlan, JobOutcome, ServiceConfig, ServiceReport, Tenant};
use cluster_sim::{Cluster, FaultPlan, RackTopology, ShardedFleet, VariabilityModel};
use simkit::{Power, SimRng, TimeSpan};
use std::time::Instant;
use workload::{suite, AppModel};

/// The seed a run uses when none is given.
pub const DEFAULT_SEED: u64 = 2017;
/// The held-out seed: never used while tuning a change, so a claimed
/// gain can be re-checked on inputs the change was not fitted to.
pub const HELD_OUT_SEED: u64 = 8_675_309;

/// Testbed seed of the flat service cluster (the service example's).
const TESTBED_SEED: u64 = 7;
/// Seed of the inflection predictor's training corpus (the examples').
const PREDICTOR_SEED: u64 = 5;
/// Flat service power envelope, and each service rack's.
const ENVELOPE_W: f64 = 2400.0;
/// Per-node budget of the 10k-node fleet campaign.
const FLEET_WATTS_PER_NODE: f64 = 175.0;
/// Per-tenant arrivals per epoch on the flat service (gold/silver/bronze).
const FLAT_RATES: [f64; 3] = [0.35, 0.5, 0.7];
/// Each service rack receives a quarter of the flat rates.
const RACK_RATES: [f64; 3] = [0.0875, 0.125, 0.175];
/// Iterations per arrival, drawn uniformly from this range.
const ARRIVAL_ITERATIONS: (usize, usize) = (2, 8);
/// Frames each ring can hold: far above a full serve-racks campaign's
/// per-recorder count, so no frame is ever evicted.
const RING_FRAMES: usize = 1 << 20;

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `run_service` with CLIP on the 8-node paper testbed.
    ServeFlat,
    /// `run_sharded` over 100×100 nodes, node and rack faults.
    Fleet10k,
    /// `run_sharded_service` over 32×8 nodes, traced into rings.
    ServeRacks,
}

/// The dimensions of one campaign.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shape {
    /// Racks (1 for the flat workload).
    pub racks: usize,
    /// Nodes per rack (the testbed's 8 for the flat workload).
    pub rack_nodes: usize,
    /// Coordination epochs.
    pub epochs: usize,
    /// Job iterations per epoch.
    pub iterations: usize,
    /// Execute-phase workers the sharded campaigns ask for.
    pub workers: usize,
}

impl Workload {
    /// Every workload, in the order the documentation lists them.
    pub const ALL: [Self; 3] = [Self::ServeFlat, Self::Fleet10k, Self::ServeRacks];

    /// The name the command line and the result record use.
    pub fn name(self) -> &'static str {
        match self {
            Self::ServeFlat => "serve-flat",
            Self::Fleet10k => "fleet-10k",
            Self::ServeRacks => "serve-racks",
        }
    }

    /// Parse a workload name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The benchmark's full-size shape.
    pub fn shape(self) -> Shape {
        match self {
            Self::ServeFlat => Shape {
                racks: 1,
                rack_nodes: 8,
                epochs: 400,
                iterations: service_cfg().iterations_per_epoch,
                workers: 1,
            },
            Self::Fleet10k => Shape {
                racks: 100,
                rack_nodes: 100,
                epochs: 40,
                iterations: 10,
                workers: 1,
            },
            Self::ServeRacks => Shape {
                racks: 32,
                rack_nodes: 8,
                epochs: 128,
                iterations: service_cfg().iterations_per_epoch,
                workers: 2,
            },
        }
    }

    /// A small shape with the same structure, for the smoke tests.
    pub fn tiny(self) -> Shape {
        match self {
            Self::ServeFlat => Shape {
                epochs: 24,
                ..self.shape()
            },
            Self::Fleet10k => Shape {
                racks: 4,
                rack_nodes: 8,
                epochs: 6,
                iterations: 2,
                workers: 1,
            },
            Self::ServeRacks => Shape {
                racks: 3,
                rack_nodes: 8,
                epochs: 12,
                ..self.shape()
            },
        }
    }

    /// True when the workload runs the open-loop service layer.
    pub fn is_service(self) -> bool {
        matches!(self, Self::ServeFlat | Self::ServeRacks)
    }

    /// True when the workload runs the rack hierarchy.
    pub fn is_sharded(self) -> bool {
        matches!(self, Self::Fleet10k | Self::ServeRacks)
    }
}

/// The three tenants of the service example: priority up, SLO down.
fn tenants() -> Vec<Tenant> {
    vec![
        Tenant::new("gold", 3, TimeSpan::secs(30.0)),
        Tenant::new("silver", 2, TimeSpan::secs(60.0)),
        Tenant::new("bronze", 1, TimeSpan::secs(120.0)),
    ]
}

/// The service example's job catalog.
fn catalog() -> Vec<AppModel> {
    vec![suite::comd(), suite::amg(), suite::tea_leaf()]
}

/// The service example's pool and autoscaling knobs.
pub(crate) fn service_cfg() -> ServiceConfig {
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
    }
}

/// An independent stream seed derived from the run seed (SplitMix64).
fn stream_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Host seconds spent in each set-up layer (filled only by span runs).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SetupTimes {
    /// `mlr`: training the inflection predictor.
    pub train_s: f64,
    /// `cluster`: building the fleet and its fault plans.
    pub build_s: f64,
    /// `serve`: drawing arrival plans and building service timelines.
    pub arrivals_s: f64,
}

/// Everything one campaign consumes, built from the seed.
pub struct Inputs {
    /// The workload these inputs belong to.
    pub workload: Workload,
    /// Its dimensions.
    pub shape: Shape,
    /// The trained predictor every CLIP scheduler of the campaign clones.
    pub predictor: InflectionPredictor,
    /// Arrivals the service plans hold (0 without a service).
    pub planned_arrivals: usize,
    /// The workload-specific rest.
    pub body: Body,
}

/// The workload-specific part of [`Inputs`].
#[allow(clippy::large_enum_variant)] // built once per campaign, then moved
pub enum Body {
    /// serve-flat: one testbed and one service timeline.
    Flat {
        /// The 8-node paper testbed.
        cluster: Cluster,
        /// The open-loop service policy with its arrival plan.
        timeline: ServiceTimeline,
    },
    /// fleet-10k and serve-racks: a sharded fleet and its faults.
    Sharded {
        /// The racks.
        fleet: ShardedFleet,
        /// Node faults, global indices.
        faults: FaultPlan,
        /// The mid-campaign rack crash.
        rack_faults: Vec<RackFault>,
        /// One service per rack (serve-racks only).
        services: Option<Vec<ServiceTimeline>>,
    },
}

/// Run `f`, adding its host seconds to `slot` when one is given.
fn timed<T>(slot: Option<&mut f64>, f: impl FnOnce() -> T) -> T {
    match slot {
        None => f(),
        Some(acc) => {
            let t = Instant::now();
            let v = f();
            *acc += t.elapsed().as_secs_f64();
            v
        }
    }
}

/// Build a campaign's inputs from `seed`. With `times`, each set-up
/// layer's host time is added to it (the span run's set-up spans).
pub fn setup(w: Workload, shape: Shape, seed: u64, mut times: Option<&mut SetupTimes>) -> Inputs {
    let predictor = timed(times.as_deref_mut().map(|t| &mut t.train_s), || {
        InflectionPredictor::train_default(PREDICTOR_SEED)
    });
    let (body, planned_arrivals) = match w {
        Workload::ServeFlat => {
            let cluster = timed(times.as_deref_mut().map(|t| &mut t.build_s), || {
                Cluster::paper_testbed(TESTBED_SEED)
            });
            let (timeline, planned) =
                timed(times.as_deref_mut().map(|t| &mut t.arrivals_s), || {
                    service(stream_seed(seed, 1), &FLAT_RATES, shape.epochs)
                });
            (Body::Flat { cluster, timeline }, planned)
        }
        Workload::Fleet10k | Workload::ServeRacks => {
            let topo = RackTopology::new(shape.racks, shape.rack_nodes);
            let (fleet, faults) = timed(times.as_deref_mut().map(|t| &mut t.build_s), || {
                let fleet = ShardedFleet::with_variability(
                    topo,
                    &VariabilityModel::default(),
                    stream_seed(seed, 2),
                );
                let mut rng = SimRng::seed_from_u64(stream_seed(seed, 3));
                let faults = FaultPlan::random(&mut rng, topo.total_nodes(), shape.epochs);
                (fleet, faults)
            });
            let rack_faults = vec![RackFault {
                at_epoch: shape.epochs / 2,
                rack: 1,
            }];
            let (services, planned) = if w == Workload::ServeRacks {
                timed(times.map(|t| &mut t.arrivals_s), || {
                    let (list, counts): (Vec<_>, Vec<_>) = (0..topo.racks())
                        .map(|r| {
                            service(stream_seed(seed, 100 + r as u64), &RACK_RATES, shape.epochs)
                        })
                        .unzip();
                    (Some(list), counts.into_iter().sum())
                })
            } else {
                (None, 0)
            };
            let body = Body::Sharded {
                fleet,
                faults,
                rack_faults,
                services,
            };
            (body, planned)
        }
    };
    Inputs {
        workload: w,
        shape,
        predictor,
        planned_arrivals,
        body,
    }
}

/// A service timeline with seeded Poisson arrivals at `rates` under a
/// [`ENVELOPE_W`] envelope, and the number of arrivals it plans.
fn service(seed: u64, rates: &[f64], epochs: usize) -> (ServiceTimeline, usize) {
    let mut rng = SimRng::seed_from_u64(seed);
    let plan = ArrivalPlan::poisson(&mut rng, rates, catalog().len(), epochs, ARRIVAL_ITERATIONS);
    let planned = plan.len();
    let timeline = ServiceTimeline::new(
        tenants(),
        catalog(),
        plan,
        service_cfg(),
        Power::watts(ENVELOPE_W),
    );
    (timeline, planned)
}

/// The whole power bound of a campaign, per epoch.
pub(crate) fn power_bound(w: Workload, shape: Shape) -> Power {
    match w {
        Workload::ServeFlat => Power::watts(ENVELOPE_W),
        Workload::Fleet10k => {
            Power::watts((shape.racks * shape.rack_nodes) as f64 * FLEET_WATTS_PER_NODE)
        }
        Workload::ServeRacks => Power::watts(shape.racks as f64 * ENVELOPE_W),
    }
}

/// The sharded campaigns' config at `workers` execute-phase workers.
pub(crate) fn shard_config(shape: Shape, workers: usize) -> ShardConfig {
    ShardConfig {
        epochs: shape.epochs,
        iterations_per_epoch: shape.iterations,
        shift_fraction: 0.5,
        workers: Some(workers),
        shuffle_seed: None,
    }
}

/// What a campaign produced, before it is checked and summarized.
pub enum Report {
    /// serve-flat's service run.
    Flat(ServiceRunReport),
    /// A sharded campaign.
    Sharded {
        /// The shard report.
        shard: ShardRunReport,
        /// Per-rack service reports (empty on fleet-10k).
        services: Vec<Option<ServiceReport>>,
        /// serve-racks' rings, rack order then the cluster's (empty on
        /// fleet-10k).
        rings: Vec<RingSink>,
        /// Frames the recorders wrote into `rings`.
        frames_written: u64,
    },
}

/// A traced recorder's frame count once [`TraceRecorder::finish`] has
/// appended its metrics snapshot.
fn frames_at_finish(rec: &TraceRecorder<RingSink>) -> u64 {
    rec.seq() + u64::from(!rec.metrics().is_empty())
}

/// A ring large enough that no campaign evicts a frame.
pub(crate) fn ring_recorder() -> TraceRecorder<RingSink> {
    TraceRecorder::new(RingSink::new(RING_FRAMES))
}

/// Close out traced recorders: count their frames, finish them into
/// their rings.
pub(crate) fn finish_rings(
    recorders: Vec<TraceRecorder<RingSink>>,
    cluster: TraceRecorder<RingSink>,
) -> (Vec<RingSink>, u64) {
    let mut frames = 0;
    let mut rings = Vec::with_capacity(recorders.len() + 1);
    for rec in recorders.into_iter().chain(std::iter::once(cluster)) {
        frames += frames_at_finish(&rec);
        rings.push(rec.finish());
    }
    (rings, frames)
}

/// Run one campaign through the program's public entry point, no
/// benchmark code inside: `run_service` for serve-flat, `run_sharded` /
/// `run_sharded_service` at `workers` for the sharded workloads.
pub fn run_plain(inputs: Inputs, workers: usize) -> Report {
    let Inputs {
        workload,
        shape,
        predictor,
        body,
        ..
    } = inputs;
    let app = suite::comd();
    let budget = power_bound(workload, shape);
    match body {
        Body::Flat {
            mut cluster,
            timeline,
        } => {
            let mut clip = ClipScheduler::new(predictor);
            Report::Flat(run_service(
                &mut clip,
                &mut cluster,
                &app,
                timeline,
                shape.epochs,
                &mut NoopRecorder,
            ))
        }
        Body::Sharded {
            fleet,
            faults,
            rack_faults,
            services: None,
        } => {
            let (shard, _) = run_sharded(
                fleet,
                |_rack| Box::new(ClipScheduler::new(predictor.clone())),
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
            let mut cluster_rec = ring_recorder();
            let (shard, services, recorders) = run_sharded_service(
                fleet,
                |_rack| Box::new(ClipScheduler::new(predictor.clone())),
                &app,
                budget,
                &faults,
                &rack_faults,
                &shard_config(shape, workers),
                Some(services),
                (0..shape.racks).map(|_| ring_recorder()).collect(),
                &mut cluster_rec,
            );
            let (rings, frames_written) = finish_rings(recorders, cluster_rec);
            Report::Sharded {
                shard,
                services,
                rings,
                frames_written,
            }
        }
    }
}

/// Service-layer counts of one campaign, summed over services.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServiceTally {
    /// Arrivals in the plans.
    pub planned: u64,
    /// Arrivals the services saw (a dead rack sees no more).
    pub submitted: u64,
    /// Admitted arrivals.
    pub admitted: u64,
    /// Refused arrivals.
    pub refused: u64,
    /// Completed within the tenant's SLO.
    pub slo_met: u64,
    /// Preemptions.
    pub preemptions: u64,
    /// Pool scalings.
    pub scalings: u64,
}

/// The program's recorder output of one campaign.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ObsTally {
    /// Frames the recorders wrote.
    pub frames: u64,
    /// Bytes the rings hold.
    pub bytes: u64,
    /// Frames the rings evicted.
    pub dropped: u64,
}

/// A checked campaign reduced to what the benchmark reports.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Outcome {
    /// FNV-1a over the serialized report(s).
    pub report_fnv: u64,
    /// Nodes that executed, summed over executed epochs (all racks).
    pub node_epochs: u64,
    /// Executed epoch records, summed over racks.
    pub epochs: u64,
    /// Epochs that re-planned, summed over racks.
    pub replans: u64,
    /// Rack-epochs in the campaign (racks × epochs; 1 rack when flat).
    pub rack_epochs: u64,
    /// Mean simulated performance (`aggregate_performance` if sharded).
    pub sim_perf_its: f64,
    /// Σ measured power ÷ Σ epoch power bound.
    pub budget_util: f64,
    /// Operations the goodput counts (arrivals, or rack-epochs).
    pub ops: u64,
    /// Operations that succeeded (within SLO, or not lost).
    pub ops_ok: u64,
    /// Service counts.
    pub service: ServiceTally,
    /// Recorder output.
    pub obs: ObsTally,
}

impl Outcome {
    /// Successful operations ÷ operations.
    pub fn goodput(&self) -> f64 {
        if self.ops == 0 {
            return 0.0;
        }
        self.ops_ok as f64 / self.ops as f64
    }
}

fn tally_service(t: &mut ServiceTally, s: &ServiceReport) -> Result<(), String> {
    let submitted = s.jobs.len() as u64;
    let refused: u64 = s.tenants.iter().map(|x| x.rejected as u64).sum();
    let completed: u64 = s.tenants.iter().map(|x| x.completed as u64).sum();
    let unfinished = s
        .jobs
        .iter()
        .filter(|j| matches!(j.outcome, JobOutcome::Unfinished))
        .count() as u64;
    let in_tenants: u64 = s.tenants.iter().map(|x| x.submitted as u64).sum();
    if in_tenants != submitted || refused + completed + unfinished != submitted {
        return Err(format!(
            "jobs not conserved: {submitted} arrivals vs {refused} refused + \
             {completed} completed + {unfinished} unfinished ({in_tenants} in tenant rows)"
        ));
    }
    t.submitted += submitted;
    t.refused += refused;
    t.admitted += s.tenants.iter().map(|x| x.admitted as u64).sum::<u64>();
    t.slo_met += s.tenants.iter().map(|x| x.slo_met as u64).sum::<u64>();
    t.preemptions += s.tenants.iter().map(|x| x.preemptions as u64).sum::<u64>();
    t.scalings += s.pool_scalings as u64;
    Ok(())
}

fn unserializable(e: serde_json::Error) -> String {
    format!("report does not serialize: {e:?}")
}

/// Check a campaign and reduce it. Errors name the failed check:
/// job conservation, service arrivals, ring decoding and frame counts,
/// evicted frames.
pub fn summarize(
    w: Workload,
    shape: Shape,
    planned_arrivals: usize,
    report: &Report,
) -> Result<Outcome, String> {
    let bound = power_bound(w, shape).as_watts();
    let mut o = Outcome {
        service: ServiceTally {
            planned: planned_arrivals as u64,
            ..ServiceTally::default()
        },
        ..Outcome::default()
    };
    match report {
        Report::Flat(r) => {
            o.report_fnv = fnv1a(serde_json::to_string(r).map_err(unserializable)?.as_bytes());
            let epochs = &r.engine.epochs;
            o.node_epochs = epochs.iter().map(|e| e.node_ids.len() as u64).sum();
            o.epochs = epochs.len() as u64;
            o.replans = epochs.iter().filter(|e| e.replanned).count() as u64;
            o.rack_epochs = shape.epochs as u64;
            o.sim_perf_its = r.engine.mean_performance();
            let measured: f64 = epochs.iter().map(|e| e.measured_power.as_watts()).sum();
            o.budget_util = measured / (bound * shape.epochs as f64);
            tally_service(&mut o.service, &r.service)?;
            if o.service.submitted != o.service.planned {
                return Err(format!(
                    "service saw {} arrivals, plan holds {}",
                    o.service.submitted, o.service.planned
                ));
            }
        }
        Report::Sharded {
            shard,
            services,
            rings,
            frames_written,
        } => {
            let mut bytes = serde_json::to_string(shard).map_err(unserializable)?;
            bytes.push_str(&serde_json::to_string(services).map_err(unserializable)?);
            o.report_fnv = fnv1a(bytes.as_bytes());
            let mut measured = 0.0;
            for rack in &shard.racks {
                let epochs = &rack.report.epochs;
                o.node_epochs += epochs.iter().map(|e| e.node_ids.len() as u64).sum::<u64>();
                o.epochs += epochs.len() as u64;
                o.replans += epochs.iter().filter(|e| e.replanned).count() as u64;
                measured += epochs
                    .iter()
                    .map(|e| e.measured_power.as_watts())
                    .sum::<f64>();
            }
            o.rack_epochs = (shard.racks.len() * shard.epochs) as u64;
            o.sim_perf_its = shard.aggregate_performance();
            o.budget_util = measured / (bound * shard.epochs as f64);
            for s in services.iter().flatten() {
                tally_service(&mut o.service, s)?;
            }
            if w == Workload::ServeRacks && services.iter().flatten().count() != shape.racks {
                return Err("a service rack returned no service report".into());
            }
            o.obs.frames = *frames_written;
            let mut decoded = 0u64;
            for ring in rings {
                o.obs.dropped += ring.dropped();
                for frame in ring.frames() {
                    o.obs.bytes += frame.len() as u64;
                    match clip_obs::wire::decode_frame(frame) {
                        Ok((_, [])) => decoded += 1,
                        Ok(_) => return Err("ring frame has trailing bytes".into()),
                        Err(e) => return Err(format!("ring frame does not decode: {e}")),
                    }
                }
            }
            if o.obs.dropped != 0 {
                return Err(format!("rings evicted {} frames", o.obs.dropped));
            }
            if decoded != o.obs.frames {
                return Err(format!(
                    "{decoded} frames decode, recorders wrote {}",
                    o.obs.frames
                ));
            }
            if w == Workload::ServeRacks && decoded == 0 {
                return Err("serve-racks recorded no frames".into());
            }
        }
    }
    if w.is_service() {
        // Arrivals a crashed rack never saw count as misses.
        o.ops = o.service.planned;
        o.ops_ok = o.service.slo_met;
    } else {
        o.ops = o.rack_epochs;
        o.ops_ok = o.epochs;
    }
    if o.ops == 0 || o.node_epochs == 0 {
        return Err("campaign did no work".into());
    }
    Ok(o)
}
