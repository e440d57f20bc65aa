//! The traced per-layer split. Each lane group runs twice: once through
//! the program's `run_application_group` (untraced, timed as a whole)
//! and once through the traced replica in [`crate::group`]. Results,
//! simulated times and flow-event counts of the two must agree, or the
//! split is marked stale.

use crate::group::{replay_phase, run_group_traced, ReplayUnits, Tally};
use crate::stats::{percentile, ratio};
use crate::trace::{delta, layer_of, CountingObserver, Recorder};
use crate::{report_failure, Args, Outcome};
use accelsoc_apps::archs::{arch_dsl_source, otsu_flow_engine_with, Arch};
use accelsoc_apps::image::RgbImage;
use accelsoc_apps::otsu::{run_application_group, AppConfig};
use accelsoc_core::flow::{FlowArtifacts, FlowEngine, FlowOptions};
use std::time::Instant;

pub struct Split {
    pub rec: Recorder,
    pub tally: Tally,
    pub attempted: u64,
    pub failed: u64,
    /// Host time of the program's own group calls.
    untraced_ns: f64,
    /// Host time of the traced replica's group root spans.
    traced_ns: f64,
    /// Per-group untraced time minus the layer spans of the replica.
    glue_ns: f64,
    /// `KernelVmCacheHit` and `KernelCompiled` events seen on the
    /// program's path.
    vm_hits: u64,
    vm_misses: u64,
    /// Modelled per-image latency of every verified image.
    pub sim_ns: Vec<f64>,
    /// Why the split cannot be trusted, if it cannot.
    pub stale: Vec<String>,
    groups: u64,
    flows: u64,
}

/// A fresh engine with the flow run for each architecture in use.
pub struct Flows {
    engine: FlowEngine,
    artifacts: Vec<(Arch, FlowArtifacts)>,
}

impl Flows {
    /// Build the engine and run the flows; with `rec`, each
    /// `run_source` gets a `core.run_source` span in group `gid`.
    fn new(
        archs: &[Arch],
        options: FlowOptions,
        mut rec: Option<&mut Recorder>,
        gid: u64,
    ) -> Result<Self, String> {
        let mut engine = otsu_flow_engine_with(options);
        let mut artifacts = Vec::new();
        for &arch in archs {
            let span = rec.as_mut().map(|r| r.open("core.run_source", None, gid));
            let a = engine.run_source(&arch_dsl_source(arch));
            if let (Some(r), Some(s)) = (rec.as_mut(), span) {
                r.close(s);
            }
            let a = a.map_err(|e| format!("flow for {}: {e}", arch.name()))?;
            artifacts.push((arch, a));
        }
        Ok(Flows { engine, artifacts })
    }

    pub fn of(&self, arch: Arch) -> (&FlowEngine, &FlowArtifacts) {
        let a = &self
            .artifacts
            .iter()
            .find(|(a, _)| *a == arch)
            .unwrap_or_else(|| panic!("no flow was run for {}", arch.name()))
            .1;
        (&self.engine, a)
    }
}

impl Split {
    pub fn new() -> Self {
        Split {
            rec: Recorder::new(),
            tally: Tally::default(),
            attempted: 0,
            failed: 0,
            untraced_ns: 0.0,
            traced_ns: 0.0,
            glue_ns: 0.0,
            vm_hits: 0,
            vm_misses: 0,
            sim_ns: Vec::new(),
            stale: Vec::new(),
            groups: 0,
            flows: 0,
        }
    }

    fn mark_stale(&mut self, why: String) {
        if self.stale.len() < 8 {
            eprintln!("STALE    : {why}");
        }
        self.stale.push(why);
    }

    /// Two fresh engines with the flow run for each of `archs`, as
    /// `SimTables::build` makes one on every call: one for the program
    /// path, timed as a whole, and one for the traced path, with a
    /// `core.run_source` span per architecture. Which is built first
    /// alternates.
    pub fn fresh_flows(
        &mut self,
        archs: &[Arch],
        options: impl Fn() -> FlowOptions,
    ) -> Result<(Flows, Flows), String> {
        let (gid, first) = (self.groups, self.rec.spans.len());
        let program = || {
            let t = Instant::now();
            let f = Flows::new(archs, options(), None, gid);
            f.map(|f| (f, t.elapsed().as_nanos() as f64))
        };
        let traced = |rec: &mut Recorder| Flows::new(archs, options(), Some(rec), gid);
        let ((program, untraced), traced) = if self.flows.is_multiple_of(2) {
            let p = program()?;
            (p, traced(&mut self.rec)?)
        } else {
            let t = traced(&mut self.rec)?;
            (program()?, t)
        };
        self.flows += 1;
        let spans: u64 = self.rec.spans[first..].iter().map(|s| s.dur_ns()).sum();
        self.untraced_ns += untraced;
        self.traced_ns += spans as f64;
        self.glue_ns += untraced - spans as f64;
        Ok((program, traced))
    }

    /// Run one group through both paths: `program` is the engine and
    /// artifacts `run_application_group` gets, `traced` those the
    /// replica gets (the same ones, or a twin built the same way).
    /// `expected` holds the reference `(pixels, threshold)` of each
    /// image.
    #[allow(clippy::too_many_arguments)]
    pub fn group(
        &mut self,
        program: (&FlowEngine, &FlowArtifacts),
        traced: (&FlowEngine, &FlowArtifacts),
        arch: Arch,
        images: &[RgbImage],
        expected: &[(Vec<u8>, u8)],
        cfg: &AppConfig,
        obs: &CountingObserver,
        units: &ReplayUnits,
    ) {
        let gid = self.groups;
        self.groups += 1;
        self.attempted += images.len() as u64;

        // Alternate which path runs first, so neither is always the one
        // that finds the images and kernels warm in cache.
        let run_program = || {
            let c = obs.snapshot();
            let t = Instant::now();
            let out = run_application_group(arch, program.0, program.1, images, cfg);
            let ns = t.elapsed().as_nanos() as f64;
            (out, ns, delta(c, obs.snapshot()))
        };
        let first = self.rec.spans.len();
        let run_traced = |rec: &mut Recorder, tally: &mut Tally| {
            let c = obs.snapshot();
            let out = run_group_traced(traced.0, traced.1, arch, images, cfg, rec, gid, tally);
            (out, delta(c, obs.snapshot()))
        };
        let ((program, untraced, program_events), (traced, traced_events)) =
            if gid.is_multiple_of(2) {
                let p = run_program();
                (p, run_traced(&mut self.rec, &mut self.tally))
            } else {
                let t = run_traced(&mut self.rec, &mut self.tally);
                (run_program(), t)
            };
        let root = &self.rec.spans[first];
        let layers: u64 = self.rec.spans[first + 1..].iter().map(|s| s.dur_ns()).sum();
        self.untraced_ns += untraced;
        self.traced_ns += root.dur_ns() as f64;
        self.glue_ns += untraced - layers as f64;
        self.vm_hits += program_events.0;
        self.vm_misses += program_events.1;
        if program_events != traced_events {
            self.mark_stale(format!(
                "group {gid}: flow events (vm hits, compiles, sim phases) {program_events:?} on the program path vs {traced_events:?} traced"
            ));
        }

        let program = match program {
            Ok(p) => p,
            Err(e) => {
                report_failure(self.failed, format_args!("group {gid}: {e}"));
                self.failed += images.len() as u64;
                return;
            }
        };
        let traced = match traced {
            Ok(t) => t,
            Err(e) => {
                self.mark_stale(format!("group {gid}: traced path failed: {e}"));
                return;
            }
        };
        for (l, run) in program.runs.iter().enumerate() {
            let run = match run {
                Ok(r) if r.output.data == expected[l].0 && r.threshold == expected[l].1 => r,
                other => {
                    report_failure(
                        self.failed,
                        format_args!("group {gid} image {l}: {:?}", other.as_ref().err()),
                    );
                    self.failed += 1;
                    continue;
                }
            };
            self.sim_ns.push(run.total_ns);
            match &traced.results[l] {
                Ok(t)
                    if t.output == run.output.data
                        && t.threshold == run.threshold
                        && t.total_ns.to_bits() == run.total_ns.to_bits()
                        && t.dma_bytes == run.dma_bytes => {}
                other => self.mark_stale(format!(
                    "group {gid} image {l}: traced result differs from the program's ({:?})",
                    other.as_ref().err()
                )),
            }
        }
        for ph in traced.phases {
            let s = self.rec.open("kernel.accel_replay", None, gid);
            let out = replay_phase(arch, units, ph.input, ph.n);
            self.rec.close(s);
            if out.as_deref().ok() != Some(ph.output.as_slice()) {
                self.mark_stale(format!(
                    "group {gid}: accelerator replay output differs from the stream phase's"
                ));
            }
        }
    }

    /// Emit the per-layer metrics, each time normalised per timed call
    /// (`calls` of them were traced) and each count per image.
    pub fn emit(&self, out: &mut Outcome, calls: f64) -> Shares {
        let t = &self.tally;
        let images = t.images as f64;
        let self_times = self.rec.self_time_by_name();
        let by_name = |name: &str| -> (f64, f64) {
            self_times
                .iter()
                .find(|(n, _, _)| *n == name)
                .map_or((0.0, 0.0), |&(_, ns, count)| (ns as f64, count as f64))
        };
        let (exec_ns, exec_n) = by_name("core.exec_unit");
        let (board_ns, board_n) = by_name("core.build_board");
        let (flow_ns, _) = by_name("core.run_source");
        let (batch_ns, _) = by_name("kernel.run_batch");
        let (replay_ns, _) = by_name("kernel.accel_replay");
        let (phase_ns, _) = by_name("platform.stream_phase");
        let (dram_ns, _) = by_name("platform.dram");
        let (cpu_ns, _) = by_name("platform.cpu_execute");
        let per_call_ms = |ns: f64| ratio(ns, calls) / 1e6;

        out.put(
            "core.exec_unit_calls",
            ratio(t.exec_unit_calls as f64, images),
        );
        out.put("core.exec_unit_us", ratio(exec_ns, exec_n) / 1e3);
        out.put(
            "core.build_board_calls",
            ratio(t.build_board_calls as f64, images),
        );
        out.put("core.build_board_us", ratio(board_ns, board_n) / 1e3);
        out.put("hls.vm_cache_hits", ratio(self.vm_hits as f64, images));
        out.put("core.run_source_ms", per_call_ms(flow_ns));
        out.put("hls.vm_cache_misses", ratio(self.vm_misses as f64, calls));
        out.put("kernel.run_batch_ms", per_call_ms(batch_ns));
        out.put("kernel.ir_ops", ratio(t.ir_ops as f64, images));
        out.put("kernel.dispatches", ratio(t.dispatches as f64, images));
        out.put(
            "kernel.ops_per_dispatch",
            ratio(t.ir_ops as f64, t.dispatches as f64),
        );
        out.put("kernel.mops_per_s", ratio(t.ir_ops as f64, batch_ns) * 1e3);
        out.put("kernel.accel_replay_ms", per_call_ms(replay_ns));
        out.put(
            "platform.stream_phase_calls",
            ratio(t.stream_phase_calls as f64, images),
        );
        out.put("platform.stream_phase_ms", per_call_ms(phase_ns));
        out.put("platform.dram_ms", per_call_ms(dram_ns));
        out.put("platform.cpu_execute_ms", per_call_ms(cpu_ns));
        out.put("platform.sim_cycles", ratio(t.sim_cycles as f64, images));
        out.put(
            "platform.host_ns_per_sim_cycle",
            ratio(phase_ns, t.sim_cycles as f64),
        );
        out.put(
            "platform.stream_sim_est_ms",
            per_call_ms(phase_ns - replay_ns),
        );
        out.put(
            "platform.backpressure_stall_cycles",
            ratio(t.backpressure_stall_cycles as f64, images),
        );
        out.put(
            "platform.starvation_stall_cycles",
            ratio(t.starvation_stall_cycles as f64, images),
        );
        out.put(
            "platform.hp_stall_cycles",
            ratio(t.hp_stall_cycles as f64, images),
        );
        out.put("apps.glue_ms", per_call_ms(self.glue_ns));

        let pct = |ns: f64| 100.0 * ratio(ns, self.untraced_ns);
        let shares = Shares {
            core: pct(exec_ns + board_ns + flow_ns),
            kernel: pct(batch_ns),
            stream_phase: pct(phase_ns),
            platform_other: pct(dram_ns + cpu_ns),
            apps: pct(self.glue_ns),
        };
        out.put("share.core_pct", shares.core);
        out.put("share.kernel_pct", shares.kernel);
        out.put(
            "share.platform_pct",
            shares.stream_phase + shares.platform_other,
        );
        out.put("share.apps_pct", shares.apps);
        let sim_mean = ratio(self.sim_ns.iter().sum(), self.sim_ns.len() as f64);
        out.put("sim.image_ms", sim_mean / 1e6);
        out.put(
            "trace.overhead_pct",
            100.0 * ratio(self.traced_ns - self.untraced_ns, self.untraced_ns),
        );
        out.put("trace.stale", if self.stale.is_empty() { 0.0 } else { 1.0 });
        out.put("trace.spans", self.rec.spans.len() as f64);
        out.put("trace.calls", calls);

        eprintln!("self time by span (whole traced run):");
        for &(name, ns, count) in &self_times {
            eprintln!(
                "  {:<12} {:<28} {:>10.3} ms  {:>8} spans",
                layer_of(name),
                name,
                ns as f64 / 1e6,
                count
            );
        }
        shares
    }

    /// Print whether the workload's premise held, and whether the
    /// split is stale.
    pub fn report_premise(&self, workload: &str, premise: &str, ok: bool) {
        eprintln!(
            "premise  : {workload}: {premise}: {}",
            if ok { "confirmed" } else { "NOT confirmed" }
        );
        if !self.stale.is_empty() {
            eprintln!(
                "STALE    : {} mismatches between the traced replica and the program; the split above is stale",
                self.stale.len()
            );
        }
    }

    /// Write the spans to `<out>/spans-<workload>-<seed>.json`.
    pub fn write_spans(&self, args: &Args) -> Result<(), String> {
        std::fs::create_dir_all(&args.out).map_err(|e| format!("{}: {e}", args.out.display()))?;
        let path = args
            .out
            .join(format!("spans-{}-{}.json", args.workload, args.seed));
        std::fs::write(&path, self.rec.to_json())
            .map_err(|e| format!("{}: {e}", path.display()))?;
        eprintln!("spans    : {}", path.display());
        Ok(())
    }

    /// The p99 of modelled per-image latency, in simulated ms.
    pub fn sim_p99_ms(&self) -> f64 {
        percentile(&self.sim_ns, 99.0) / 1e6
    }
}

/// Shares of the program path's untraced host time, in percent.
pub struct Shares {
    pub core: f64,
    pub kernel: f64,
    pub stream_phase: f64,
    pub platform_other: f64,
    pub apps: f64,
}
