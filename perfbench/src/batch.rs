//! `batch_sw` (Arch2) and `batch_hw` (Arch4): a closed loop of
//! `run_application_group` calls over lane groups of four 64x64 scenes.

use crate::group::ReplayUnits;
use crate::inputs::scenes;
use crate::probe::Probe;
use crate::split::Split;
use crate::stats::{ratio, Digest};
use crate::trace::CountingObserver;
use crate::{cold_setup, report_failure, Args, Outcome, Timing};
use accelsoc_apps::archs::{arch_dsl_source, otsu_flow_engine_with, Arch};
use accelsoc_apps::image::RgbImage;
use accelsoc_apps::otsu::{otsu_reference, run_application_group, AppConfig};
use accelsoc_core::flow::{FlowArtifacts, FlowEngine, FlowOptions};
use std::any::Any;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

const SIDE: u32 = 64;
/// Distinct images per run; the loop cycles through them in order.
const POOL: usize = 256;
const LANES: usize = 4;
/// Untimed groups run before timing starts.
const WARMUP_GROUPS: usize = 8;

struct Bench {
    arch: Arch,
    engine: FlowEngine,
    artifacts: FlowArtifacts,
    images: Vec<RgbImage>,
    /// Reference `(pixels, threshold)` per image.
    expected: Vec<(Vec<u8>, u8)>,
}

impl Bench {
    fn group(&self, g: usize) -> (usize, &[RgbImage]) {
        let first = (g % (POOL / LANES)) * LANES;
        (first, &self.images[first..first + LANES])
    }
}

/// The set-up `setup_s` times: a fresh engine, the flow run for the
/// architecture, and input generation.
fn prepare(
    arch: Arch,
    seed: u64,
    options: FlowOptions,
) -> Result<(FlowEngine, FlowArtifacts, Vec<RgbImage>), String> {
    let mut engine = otsu_flow_engine_with(options);
    let artifacts = engine
        .run_source(&arch_dsl_source(arch))
        .map_err(|e| format!("flow for {}: {e}", arch.name()))?;
    Ok((engine, artifacts, scenes(POOL, SIDE, seed)))
}

fn arch_of(workload: &str) -> Arch {
    match workload {
        "batch_sw" => Arch::Arch2,
        _ => Arch::Arch4,
    }
}

/// One set-up, for `--setup-only`.
pub fn set_up_once(args: &Args) -> Result<Box<dyn Any>, String> {
    Ok(Box::new(prepare(
        arch_of(&args.workload),
        args.seed,
        FlowOptions::default(),
    )?))
}

fn setup(arch: Arch, seed: u64, options: FlowOptions) -> Result<Bench, String> {
    let (engine, artifacts, images) = prepare(arch, seed, options)?;
    let expected = images
        .iter()
        .map(|im| {
            let (gray, thr) = otsu_reference(im);
            (gray.data, thr)
        })
        .collect();
    Ok(Bench {
        arch,
        engine,
        artifacts,
        images,
        expected,
    })
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let arch = arch_of(&args.workload);
    if args.trace {
        traced(args, arch)
    } else {
        timed(args, arch)
    }
}

fn timed(args: &Args, arch: Arch) -> Result<Outcome, String> {
    let mut probe = Probe::new();
    let setup_s = cold_setup(args, &mut probe)?;
    let b = setup(arch, args.seed, FlowOptions::default())?;
    let cfg = AppConfig::default();
    for g in 0..WARMUP_GROUPS {
        black_box(run_application_group(arch, &b.engine, &b.artifacts, b.group(g).1, &cfg).ok());
    }

    let mut out = Outcome::default();
    let mut timing = Timing::new(probe);
    let mut sim_ns = 0.0;
    let mut digest = Digest::new();
    timing.start();
    let start = Instant::now();
    while start.elapsed() < args.seconds {
        let g = timing.calls();
        let (first, images) = b.group(g);
        let t = Instant::now();
        let res = black_box(run_application_group(
            arch,
            &b.engine,
            &b.artifacts,
            images,
            &cfg,
        ));
        let secs = t.elapsed().as_secs_f64();
        out.attempted += LANES as u64;
        let mut verified = 0;
        match res {
            Ok(ge) => {
                for (l, run) in ge.runs.iter().enumerate() {
                    let (pixels, thr) = &b.expected[first + l];
                    match run {
                        Ok(r) if &r.output.data == pixels && r.threshold == *thr => {
                            verified += 1;
                            sim_ns += r.total_ns;
                            if g < POOL / LANES {
                                digest.add(&r.output.data);
                                digest.add(&[r.threshold]);
                                digest.add(&r.total_ns.to_bits().to_le_bytes());
                                digest.add(&r.dma_bytes.to_le_bytes());
                            }
                        }
                        Ok(_) => {
                            report_failure(
                                out.failed,
                                format_args!("image {}: differs from otsu_reference", first + l),
                            );
                            out.failed += 1;
                        }
                        Err(e) => {
                            report_failure(out.failed, format_args!("image {}: {e}", first + l));
                            out.failed += 1;
                        }
                    }
                }
            }
            Err(e) => {
                report_failure(out.failed, format_args!("group at image {first}: {e}"));
                out.failed += LANES as u64;
            }
        }
        timing.call(secs, verified);
    }

    let verified = out.attempted - out.failed;
    eprintln!(
        "workload : {} ({}), {} groups of {LANES}, {verified} images verified, {} failed",
        args.workload,
        b.arch.name(),
        timing.calls(),
        out.failed
    );
    eprintln!(
        "sim      : mean {:.6} ms/image, digest {} over the first {} images",
        ratio(sim_ns, verified as f64) / 1e6,
        digest.hex(),
        timing.calls().min(POOL / LANES) * LANES
    );
    timing.finish(&mut out, setup_s);
    Ok(out)
}

fn traced(args: &Args, arch: Arch) -> Result<Outcome, String> {
    let obs = Arc::new(CountingObserver::default());
    let b = setup(
        arch,
        args.seed,
        FlowOptions::builder().observer(obs.clone()).build(),
    )?;
    let cfg = AppConfig::default();
    let units = ReplayUnits::new(&b.engine);
    let mut warm = Split::new();
    for g in 0..WARMUP_GROUPS {
        let (first, images) = b.group(g);
        let expected = &b.expected[first..first + LANES];
        warm.group(
            (&b.engine, &b.artifacts),
            (&b.engine, &b.artifacts),
            arch,
            images,
            expected,
            &cfg,
            &obs,
            &units,
        );
    }

    let mut split = Split::new();
    let start = Instant::now();
    let mut g = 0usize;
    while start.elapsed() < args.seconds {
        let (first, images) = b.group(g);
        let expected = &b.expected[first..first + LANES];
        split.group(
            (&b.engine, &b.artifacts),
            (&b.engine, &b.artifacts),
            arch,
            images,
            expected,
            &cfg,
            &obs,
            &units,
        );
        g += 1;
    }

    let mut out = Outcome {
        attempted: split.attempted,
        failed: split.failed,
        ..Default::default()
    };
    let shares = split.emit(&mut out, g as f64);
    out.put("sim.p99_ms", split.sim_p99_ms());
    let mean_ns = ratio(split.sim_ns.iter().sum(), split.sim_ns.len() as f64);
    out.put("sim.jobs_per_s", ratio(1e9, mean_ns));
    let (premise, ok) = match arch {
        Arch::Arch2 => (
            "kernel spans are the largest share",
            shares.kernel
                > shares
                    .core
                    .max(shares.stream_phase + shares.platform_other)
                    .max(shares.apps),
        ),
        _ => (
            "platform.stream_phase is the largest share",
            shares.stream_phase
                > shares
                    .core
                    .max(shares.kernel)
                    .max(shares.platform_other)
                    .max(shares.apps),
        ),
    };
    split.report_premise(&args.workload, premise, ok);
    out.put("trace.premise_ok", if ok { 1.0 } else { 0.0 });
    split.write_spans(args)?;
    Ok(out)
}
