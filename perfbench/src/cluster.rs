//! `cluster_unique` and `cluster_pooled`: the `accelsoc cluster-sim`
//! mix (4 nodes x 2 boards, sjf, queue depth 8, offered load 2.0, steal
//! and shed on) over an open-loop arrival schedule fixed before the
//! run, processed by repeated `ClusterSession::run` calls.

use crate::group::ReplayUnits;
use crate::inputs::{job_stream, tenants, BOARDS_PER_NODE, NODES};
use crate::probe::Probe;
use crate::split::Split;
use crate::stats::{median, ratio, Digest};
use crate::trace::CountingObserver;
use crate::{cold_setup, Args, Outcome, Timing};
use accelsoc_apps::archs::{arch_dsl_source, otsu_flow_engine_with, Arch};
use accelsoc_apps::image::{synthetic_scene, RgbImage};
use accelsoc_apps::otsu::otsu_reference;
use accelsoc_core::flow::{FlowEngine, FlowOptions};
use accelsoc_observe::NullObserver;
use accelsoc_serve::{
    pool_image_seeds, ClusterConfig, ClusterReport, ClusterSession, DseEstimator, JobSpec,
    PolicyKind, ServeConfig, ServeError, SimTables,
};
use std::any::Any;
use std::collections::{HashMap, HashSet};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Jobs per stream. Unique images make each job cost a board
/// simulation, so that stream is short; the pooled one is long enough
/// for the event loop to dominate.
const UNIQUE_JOBS: usize = 600;
const POOLED_JOBS: usize = 1_000_000;
/// Distinct images in the pooled stream.
const IMAGE_POOL: u64 = 64;
/// Jobs of the untimed warm-up run.
const WARMUP_JOBS: usize = 200;

struct Bench {
    engine: FlowEngine,
    jobs: Vec<JobSpec>,
    node_cfg: ServeConfig,
    session: ClusterSession,
    /// Host time of job-stream generation (and pooling).
    gen_ms: f64,
}

fn node_cfg() -> ServeConfig {
    ServeConfig::builder()
        .tenants(tenants().into_iter().map(|t| t.name))
        .boards(BOARDS_PER_NODE)
        .policy(PolicyKind::Sjf)
        .queue_depth(8)
        .build()
}

/// The architectures `jobs` use, in the order `SimTables::build` runs
/// their flows.
fn archs_of(jobs: &[JobSpec]) -> Vec<Arch> {
    Arch::all()
        .into_iter()
        .filter(|&a| jobs.iter().any(|j| j.arch == a))
        .collect()
}

/// The set-up `setup_s` times: a fresh engine, the flow run for each
/// architecture of the mix, job-stream generation (and pooling) and
/// the cluster configuration.
fn setup(args: &Args, options: FlowOptions) -> Result<Bench, String> {
    let pooled = args.workload == "cluster_pooled";
    let mut engine = otsu_flow_engine_with(options);
    for arch in [Arch::Arch1, Arch::Arch4] {
        engine
            .run_source(&arch_dsl_source(arch))
            .map_err(|e| format!("flow for {}: {e}", arch.name()))?;
    }
    let t = Instant::now();
    let mut jobs = job_stream(if pooled { POOLED_JOBS } else { UNIQUE_JOBS }, args.seed);
    if pooled {
        pool_image_seeds(&mut jobs, IMAGE_POOL);
    }
    let gen_ms = t.elapsed().as_secs_f64() * 1e3;
    let node_cfg = node_cfg();
    let cfg = ClusterConfig::builder()
        .nodes(NODES, &node_cfg)
        .steal(true)
        .shed(true)
        .threads(1)
        .seed(args.seed)
        .build()
        .map_err(|e| format!("cluster config: {e}"))?;
    Ok(Bench {
        engine,
        jobs,
        node_cfg,
        session: ClusterSession::new(cfg),
        gen_ms,
    })
}

/// One set-up, for `--setup-only`.
pub fn set_up_once(args: &Args) -> Result<Box<dyn Any>, String> {
    Ok(Box::new(setup(args, FlowOptions::default())?))
}

/// Checks one cluster run and returns how many of its jobs count as
/// failed: all of them when the run errs, breaks job accounting or
/// differs from the first run's report; otherwise the jobs it lost.
fn check(res: &Result<ClusterReport, ServeError>, jobs: u64, first: &mut Option<String>) -> u64 {
    let r = match res {
        Ok(r) => r,
        Err(e) => {
            eprintln!("FAILED   : cluster run: {e}");
            return jobs;
        }
    };
    if !r.accounting_ok() {
        eprintln!(
            "FAILED   : job accounting broken: {} submitted, {} admitted, {} rejected, {} shed, {} completed, {} late, {} timed out, {} failed",
            r.submitted, r.admitted, r.rejected, r.shed, r.completed, r.completed_late, r.timed_out, r.failed
        );
        return jobs;
    }
    let json = serde_json::to_string(r).expect("a cluster report serializes");
    let mut d = Digest::new();
    d.add(json.as_bytes());
    match first {
        None => *first = Some(d.hex()),
        Some(f) if *f != d.hex() => {
            eprintln!(
                "FAILED   : report digest {} differs from the first run's {f}",
                d.hex()
            );
            return jobs;
        }
        Some(_) => {}
    }
    r.failed
}

fn interactive_p99_ms(r: &ClusterReport) -> f64 {
    r.tenants
        .iter()
        .find(|t| t.tenant.name() == "interactive")
        .map_or(0.0, |t| t.p99_latency_ps as f64 / 1e9)
}

fn print_report(r: &ClusterReport, digest: &str) {
    eprintln!(
        "report   : {} submitted, {} admitted, {} completed, {} late, {} timed out, {} rejected, {} shed, {} failed",
        r.submitted, r.admitted, r.completed, r.completed_late, r.timed_out, r.rejected, r.shed, r.failed
    );
    eprintln!(
        "report   : {} forwarded, {} stolen, {} batches, makespan {:.6} ms, {:.3} jobs/sim-s, interactive p99 {:.6} ms, digest {digest}",
        r.forwarded,
        r.stolen,
        r.per_node.iter().map(|n| n.batches).sum::<u64>(),
        r.makespan_ps as f64 / 1e9,
        r.throughput_jobs_per_s,
        interactive_p99_ms(r)
    );
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    if args.trace {
        traced(args)
    } else {
        timed(args)
    }
}

fn timed(args: &Args) -> Result<Outcome, String> {
    let mut probe = Probe::new();
    let setup_s = cold_setup(args, &mut probe)?;
    let b = setup(args, FlowOptions::default())?;
    black_box(b.session.run(&b.jobs[..WARMUP_JOBS], &NullObserver).ok());

    let mut out = Outcome::default();
    let mut timing = Timing::new(probe);
    let mut first = None;
    let mut last = None;
    timing.start();
    let start = Instant::now();
    while timing.calls() == 0 || start.elapsed() < args.seconds {
        let t = Instant::now();
        let res = black_box(b.session.run(&b.jobs, &NullObserver));
        let secs = t.elapsed().as_secs_f64();
        let jobs = b.jobs.len() as u64;
        let failed = check(&res, jobs, &mut first);
        out.attempted += jobs;
        out.failed += failed;
        timing.call(secs, jobs - failed);
        last = res.ok();
    }
    eprintln!(
        "workload : {}, {} jobs x {} runs",
        args.workload,
        b.jobs.len(),
        timing.calls()
    );
    if let (Some(r), Some(d)) = (&last, &first) {
        print_report(r, d);
    }
    timing.finish(&mut out, setup_s);
    Ok(out)
}

/// Unique `(arch, side, image_seed)` keys of the statically admissible
/// jobs, in first-seen order, cut into same-architecture lane groups the
/// way `SimTables::build` cuts them.
fn lane_groups(jobs: &[JobSpec], cfg: &ServeConfig) -> Vec<(Arch, Vec<(u32, u64)>)> {
    let mut est = DseEstimator::new();
    let mut seen = HashSet::new();
    let mut groups: Vec<(Arch, Vec<(u32, u64)>)> = Vec::new();
    let mut open: HashMap<&'static str, usize> = HashMap::new();
    for job in jobs {
        let est_ps = est.estimate_ps(job.arch, job.side);
        let fits = job.input_bytes() + job.pixels() <= cfg.app.dram_bytes as u64;
        let in_time = job
            .deadline_ps
            .is_none_or(|d| d >= job.submit_ps + cfg.dispatch_overhead_ps + est_ps);
        if !(fits && in_time && seen.insert((job.arch.name(), job.side, job.image_seed))) {
            continue;
        }
        let slot = *open.entry(job.arch.name()).or_insert_with(|| {
            groups.push((job.arch, Vec::with_capacity(cfg.lanes)));
            groups.len() - 1
        });
        groups[slot].1.push((job.side, job.image_seed));
        if groups[slot].1.len() == cfg.lanes.max(1) {
            open.remove(job.arch.name());
        }
    }
    groups
}

type GroupInputs = (Arch, Vec<RgbImage>, Vec<(Vec<u8>, u8)>);

fn traced(args: &Args) -> Result<Outcome, String> {
    let obs = Arc::new(CountingObserver::default());
    let options = || FlowOptions::builder().observer(obs.clone()).build();
    let b = setup(args, options())?;
    let units = ReplayUnits::new(&b.engine);
    let archs = archs_of(&b.jobs);
    let groups: Vec<GroupInputs> = lane_groups(&b.jobs, &b.node_cfg)
        .into_iter()
        .map(|(arch, keys)| {
            let images: Vec<RgbImage> = keys
                .iter()
                .map(|&(side, seed)| RgbImage::from_gray(&synthetic_scene(side, side, seed)))
                .collect();
            let expected = images
                .iter()
                .map(|im| {
                    let (gray, thr) = otsu_reference(im);
                    (gray.data, thr)
                })
                .collect();
            (arch, images, expected)
        })
        .collect();
    let unique: usize = groups.iter().map(|g| g.1.len()).sum();
    black_box(b.session.run(&b.jobs[..WARMUP_JOBS], &NullObserver).ok());

    let mut split = Split::new();
    let (mut run_ms, mut tables_ms, mut loop_ms) = (Vec::new(), Vec::new(), Vec::new());
    let mut first = None;
    let mut last = None;
    let mut jobs_failed = 0u64;
    let time_run = || {
        let t = Instant::now();
        let res = b.session.run(&b.jobs, &NullObserver);
        (res, t.elapsed().as_secs_f64() * 1e3)
    };
    let time_build = || {
        let t = Instant::now();
        let tables = SimTables::build(&b.jobs, &b.node_cfg, 1).map_err(|e| e.to_string())?;
        let ms = t.elapsed().as_secs_f64() * 1e3;
        drop(black_box(tables));
        Ok::<f64, String>(ms)
    };
    let start = Instant::now();
    while run_ms.is_empty() || start.elapsed() < args.seconds {
        // Alternate which of the two is timed first, so host drift
        // between them does not always favour the same one.
        let ((res, run), build) = if run_ms.len().is_multiple_of(2) {
            let r = time_run();
            (r, time_build()?)
        } else {
            let t = time_build()?;
            (time_run(), t)
        };
        jobs_failed += check(&res, b.jobs.len() as u64, &mut first);
        last = res.ok();
        run_ms.push(run);
        tables_ms.push(build);
        loop_ms.push(run - build);
        // `SimTables::build` makes a fresh engine and runs the flows on
        // every call, so the replay does too: flow runs, kernel compiles
        // and cache misses land where the program pays them.
        let (program, traced) = split.fresh_flows(&archs, options)?;
        for (arch, images, expected) in &groups {
            split.group(
                program.of(*arch),
                traced.of(*arch),
                *arch,
                images,
                expected,
                &b.node_cfg.app,
                &obs,
                &units,
            );
        }
    }
    let calls = run_ms.len();
    let r = last.ok_or("no cluster run succeeded")?;
    print_report(&r, first.as_deref().unwrap_or("-"));

    let mut out = Outcome {
        attempted: (calls * b.jobs.len()) as u64 + split.attempted,
        failed: jobs_failed + split.failed,
        ..Default::default()
    };
    split.emit(&mut out, calls as f64);
    let (tables, event_loop) = (median(&tables_ms), median(&loop_ms));
    let tables_share: Vec<f64> = tables_ms
        .iter()
        .zip(&run_ms)
        .map(|(t, r)| 100.0 * t / r)
        .collect();
    let tables_pct = median(&tables_share);
    out.put("serve.workload_gen_ms", b.gen_ms);
    out.put("serve.tables_build_ms", tables);
    out.put("serve.unique_images", unique as f64);
    out.put(
        "serve.tables_us_per_image",
        ratio(tables * 1e3, unique as f64),
    );
    out.put("serve.event_loop_ms", event_loop);
    out.put(
        "serve.event_loop_ns_per_job",
        ratio(event_loop * 1e6, b.jobs.len() as f64),
    );
    out.put(
        "serve.batches",
        r.per_node.iter().map(|n| n.batches).sum::<u64>() as f64,
    );
    out.put("serve.forwarded", r.forwarded as f64);
    out.put("serve.stolen", r.stolen as f64);
    out.put("serve.shed", r.shed as f64);
    out.put("share.tables_pct", tables_pct);
    out.put("share.event_loop_pct", 100.0 - tables_pct);
    out.put("sim.p99_ms", interactive_p99_ms(&r));
    out.put("sim.jobs_per_s", r.throughput_jobs_per_s);
    let (premise, ok) = if args.workload == "cluster_unique" {
        (
            "serve.tables_build_ms is the largest share",
            tables > event_loop,
        )
    } else {
        (
            "serve.event_loop_ms is the largest share",
            event_loop > tables,
        )
    };
    split.report_premise(&args.workload, premise, ok);
    out.put("trace.premise_ok", if ok { 1.0 } else { 0.0 });
    split.write_spans(args)?;
    Ok(out)
}
