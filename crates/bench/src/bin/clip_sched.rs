//! `clip_sched` — the application execution module's user interface
//! (paper §IV-B3) as a command-line tool against the simulated testbed.
//!
//! ```text
//! clip_sched --app SP-MZ --budget 1200 [--nodes 8] [--iterations 10]
//!            [--fixed-nodes N --fixed-threads T] [--list] [--csv]
//! ```
//!
//! Looks the application up in the Table II suite, runs the CLIP pipeline
//! (smart profiling → classification → prediction → allocation), prints
//! the decision, executes it, and reports measured performance and power.
//! With `--fixed-nodes/--fixed-threads` the launch is pinned and CLIP
//! coordinates power only (`ClipScheduler::plan_fixed`).

use clip_bench::{clip_scheduler, HARNESS_SEED};
use clip_core::{execute_plan, PowerScheduler};
use cluster_sim::Cluster;
use simkit::Power;
use workload::suite::table2_suite;

struct Args {
    app: Option<String>,
    budget_w: f64,
    nodes: usize,
    iterations: usize,
    fixed_nodes: Option<usize>,
    fixed_threads: Option<usize>,
    list: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        app: None,
        budget_w: 1400.0,
        nodes: 8,
        iterations: 10,
        fixed_nodes: None,
        fixed_threads: None,
        list: false,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    let value = |i: &mut usize| -> Result<String, String> {
        *i += 1;
        argv.get(*i)
            .cloned()
            .ok_or_else(|| format!("missing value for {}", argv[*i - 1]))
    };
    while i < argv.len() {
        match argv[i].as_str() {
            "--app" => args.app = Some(value(&mut i)?),
            "--budget" => {
                args.budget_w = value(&mut i)?
                    .parse()
                    .map_err(|e| format!("bad --budget: {e}"))?
            }
            "--nodes" => {
                args.nodes = value(&mut i)?
                    .parse()
                    .map_err(|e| format!("bad --nodes: {e}"))?
            }
            "--iterations" => {
                args.iterations = value(&mut i)?
                    .parse()
                    .map_err(|e| format!("bad --iterations: {e}"))?
            }
            "--fixed-nodes" => {
                args.fixed_nodes = Some(
                    value(&mut i)?
                        .parse()
                        .map_err(|e| format!("bad --fixed-nodes: {e}"))?,
                )
            }
            "--fixed-threads" => {
                args.fixed_threads = Some(
                    value(&mut i)?
                        .parse()
                        .map_err(|e| format!("bad --fixed-threads: {e}"))?,
                )
            }
            "--list" => args.list = true,
            "--help" | "-h" => {
                println!(
                    "usage: clip_sched --app NAME --budget WATTS [--nodes N] \
                     [--iterations I] [--fixed-nodes N --fixed-threads T] [--list]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument: {other}")),
        }
        i += 1;
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };

    if args.list {
        println!("available applications:");
        for entry in table2_suite() {
            println!(
                "  {:<16} {} ({})",
                entry.app.name(),
                entry.description,
                entry.pattern
            );
        }
        return;
    }

    let Some(app_name) = args.app else {
        eprintln!("error: --app is required (see --list)");
        std::process::exit(2);
    };
    let Some(entry) = table2_suite()
        .into_iter()
        .find(|e| e.app.name().eq_ignore_ascii_case(&app_name))
    else {
        eprintln!("error: unknown application '{app_name}' (see --list)");
        std::process::exit(2);
    };
    let app = entry.app;
    let budget = Power::watts(args.budget_w);
    let mut cluster = Cluster::with_variability(
        args.nodes,
        &cluster_sim::VariabilityModel::default(),
        HARNESS_SEED,
    );

    println!(
        "scheduling {} on {} nodes under {:.0} W",
        app.name(),
        args.nodes,
        args.budget_w
    );

    let mut clip = clip_scheduler();
    let plan = match (args.fixed_nodes, args.fixed_threads) {
        (Some(n), Some(t)) => clip.plan_fixed(&mut cluster, &app, budget, n, t),
        (None, None) => {
            let plan = clip.plan(&mut cluster, &app, budget);
            let rec = clip.knowledge().get(app.name()).expect("profiled");
            println!(
                "profile: class={} half/all={:.3} NP={}",
                rec.profile.class,
                rec.profile.half_all_ratio(),
                rec.np
            );
            plan
        }
        _ => {
            eprintln!("error: --fixed-nodes and --fixed-threads go together");
            std::process::exit(2);
        }
    };

    println!(
        "plan ({}): {} nodes x {} threads, {} affinity",
        plan.scheduler,
        plan.nodes(),
        plan.threads_per_node,
        plan.policy
    );
    for (i, caps) in plan.caps.iter().enumerate() {
        println!(
            "  node {:>2}: CPU {:>6.1} W, DRAM {:>5.1} W",
            plan.node_ids[i],
            caps.cpu.as_watts(),
            caps.dram.as_watts()
        );
    }

    let report = execute_plan(
        &mut cluster,
        &app,
        &plan,
        args.iterations,
        0,
        &mut clip_obs::NoopRecorder,
    );
    println!("result:");
    println!("  performance   : {:.4} iterations/s", report.performance());
    println!("  cluster power : {:.1} W", report.cluster_power.as_watts());
    println!(
        "  budget        : {:.1} W ({})",
        args.budget_w,
        if report.cluster_power <= budget {
            "respected"
        } else {
            "EXCEEDED"
        }
    );
    println!("  imbalance     : {:.2}%", report.imbalance() * 100.0);
}
