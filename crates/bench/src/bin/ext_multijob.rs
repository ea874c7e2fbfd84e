//! Extension harness: multi-job power sharing (the POWshed scenario of
//! §VI, driven by CLIP's models).
//!
//! Several applications share the cluster and one budget. The dispatcher's
//! concurrent planner assigns disjoint node sets by proportional-fairness hill
//! climbing on predicted throughput, then configures each job with the
//! ordinary CLIP recommendation. Compared against equal sharing (nodes
//! split evenly, all cores, naive DRAM pin).

use clip_bench::{clip_scheduler, emit};
use clip_core::{execute_concurrent, Dispatcher, SchedulePlan};
use cluster_sim::Cluster;
use simkit::stats::geomean;
use simkit::table::Table;
use simkit::Power;
use workload::{suite, AppModel};

fn equal_share_plans(jobs: &[AppModel], n_total: usize, budget: Power) -> Vec<SchedulePlan> {
    let per_job_nodes = n_total / jobs.len();
    let per_node = budget / (per_job_nodes * jobs.len()) as f64;
    let dram = 30.0f64.min(per_node.as_watts() * 0.5).max(1.0);
    jobs.iter()
        .enumerate()
        .map(|(j, _)| SchedulePlan {
            scheduler: "equal-share".into(),
            node_ids: (j * per_job_nodes..(j + 1) * per_job_nodes).collect(),
            threads_per_node: 24,
            policy: simnode::AffinityPolicy::Compact,
            caps: vec![
                simnode::PowerCaps::new(
                    Power::watts((per_node.as_watts() - dram).max(1.0)),
                    Power::watts(dram),
                );
                per_job_nodes
            ],
        })
        .collect()
}

fn main() {
    let mixes: Vec<(&str, Vec<AppModel>)> = vec![
        ("compute+parabolic", vec![suite::comd(), suite::sp_mz()]),
        ("memory+compute", vec![suite::lu_mz(), suite::mini_md()]),
        (
            "four-way mix",
            vec![
                suite::comd(),
                suite::sp_mz(),
                suite::lu_mz(),
                suite::tea_leaf(),
            ],
        ),
    ];

    let mut table = Table::new(
        "Extension: multi-job power sharing vs equal share (8 nodes)",
        &[
            "mix",
            "budget (W)",
            "job",
            "nodes",
            "threads",
            "CLIP it/s",
            "equal it/s",
            "gain",
        ],
    );
    let mut all_gains = Vec::new();

    for (label, jobs) in &mixes {
        for budget_w in [1200.0, 1800.0] {
            let budget = Power::watts(budget_w);
            let cluster = Cluster::homogeneous(8);

            let mut planning = cluster.clone();
            let plans =
                Dispatcher::new(clip_scheduler(), budget).plan_concurrent(&mut planning, jobs);
            let mut exec = cluster.clone();
            let smart = execute_concurrent(&mut exec, jobs, &plans, 2, &mut clip_obs::NoopRecorder);

            let eplans = equal_share_plans(jobs, 8, budget);
            let mut exec = cluster.clone();
            let equal =
                execute_concurrent(&mut exec, jobs, &eplans, 2, &mut clip_obs::NoopRecorder);

            for (i, app) in jobs.iter().enumerate() {
                let gain = smart[i].performance() / equal[i].performance();
                all_gains.push(gain);
                table.row(&[
                    label.to_string(),
                    format!("{budget_w:.0}"),
                    app.name().to_string(),
                    plans[i].nodes().to_string(),
                    plans[i].threads_per_node.to_string(),
                    format!("{:.4}", smart[i].performance()),
                    format!("{:.4}", equal[i].performance()),
                    format!("{:+.1}%", (gain - 1.0) * 100.0),
                ]);
            }
        }
    }
    emit(&table);
    println!(
        "\ngeomean per-job gain over equal share: {:+.1}%",
        (geomean(&all_gains) - 1.0) * 100.0
    );
}
