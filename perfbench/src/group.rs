//! The traced path: one lane group driven through the same public calls
//! `accelsoc_apps::otsu::run_application_group` makes, in the same
//! order, with a span around each call into a layer. The untraced
//! program path is the reference this replica is checked against, so
//! a drift in the program's call pattern shows up as a mismatch (the
//! split is then reported stale) instead of misattributed time.

use crate::trace::Recorder;
use accelsoc_apps::archs::Arch;
use accelsoc_apps::image::RgbImage;
use accelsoc_apps::kernels;
use accelsoc_apps::otsu::{
    grayscale_reference, histogram_reference, otsu_threshold_from_hist, AppConfig,
};
use accelsoc_axi::dma::DmaDescriptor;
use accelsoc_core::flow::{FlowArtifacts, FlowEngine};
use accelsoc_kernel::interp::{ExecError, StreamBundle};
use accelsoc_kernel::ir::Kernel;
use accelsoc_kernel::ExecUnit;
use accelsoc_platform::board::{Board, PhaseStats};
use std::collections::HashMap;
use std::sync::Arc;

// Buffer addresses the application runner uses.
const IN_BUF: u64 = 0x10_0000;
const OUT_BUF: u64 = 0x20_0000;

/// What one image produced: the fields compared against the program.
pub struct ImageResult {
    pub output: Vec<u8>,
    pub threshold: u8,
    pub total_ns: f64,
    pub dma_bytes: u64,
}

/// Work counts of the traced path, summed over groups.
#[derive(Default)]
pub struct Tally {
    pub images: u64,
    pub exec_unit_calls: u64,
    pub build_board_calls: u64,
    pub stream_phase_calls: u64,
    pub ir_ops: u64,
    pub dispatches: u64,
    pub sim_cycles: u64,
    pub backpressure_stall_cycles: u64,
    pub starvation_stall_cycles: u64,
    pub hp_stall_cycles: u64,
}

/// One lane's hardware phase as the board saw it: the tokens its DMA
/// fed in and the bytes it wrote back, for the accelerator replay.
pub struct PhaseIo {
    pub input: Vec<i64>,
    pub n: i64,
    pub output: Vec<u8>,
}

/// A lane's phase inputs: the tokens its DMA feeds, the same as DRAM
/// bytes, the output length, and the accelerators' scalar arguments.
type PhaseInputs<'a> = (Vec<i64>, Vec<u8>, u64, Vec<(usize, &'a str, i64)>);

pub struct TracedGroup {
    pub results: Vec<Result<ImageResult, String>>,
    pub phases: Vec<PhaseIo>,
}

struct Lanes<'a> {
    engine: &'a FlowEngine,
    rec: &'a mut Recorder,
    root: usize,
    group: u64,
    tally: &'a mut Tally,
    boards: Vec<Board>,
    tasks_ns: Vec<Vec<f64>>,
    failed: Vec<Option<String>>,
}

impl Lanes<'_> {
    fn alive(&self) -> Vec<usize> {
        (0..self.failed.len())
            .filter(|&l| self.failed[l].is_none())
            .collect()
    }

    fn span(&mut self, name: &'static str) -> usize {
        self.rec.open(name, Some(self.root), self.group)
    }

    /// One software task over `lanes` as a single lane-VM batch, each
    /// lane's CPU model charged with its own stats.
    fn sw_stage(
        &mut self,
        kernel: &Kernel,
        lanes: &[usize],
        scalars: Vec<HashMap<String, i64>>,
        bundles: &mut [StreamBundle],
    ) {
        if lanes.is_empty() {
            return;
        }
        let s = self.span("core.exec_unit");
        let unit = self.engine.exec_unit(kernel);
        self.rec.close(s);
        self.tally.exec_unit_calls += 1;
        let s = self.span("kernel.run_batch");
        let out = unit.run_batch(&scalars, bundles);
        self.rec.close(s);
        self.tally.dispatches += out.dispatches;
        for (i, res) in out.lanes.into_iter().enumerate() {
            let l = lanes[i];
            match res {
                Ok(o) => {
                    self.tally.ir_ops += o.stats.steps;
                    let s = self.span("platform.cpu_execute");
                    let ns = self.boards[l].cpu.execute(&o.stats);
                    self.rec.close(s);
                    self.tasks_ns[l].push(ns);
                }
                Err(e) => self.failed[l] = Some(e.to_string()),
            }
        }
    }

    /// One lane's streaming phase: DRAM load, the phase, DRAM dump.
    fn stream_phase(
        &mut self,
        l: usize,
        in_bytes: &[u8],
        out_len: u64,
        scalar_args: &[(usize, &str, i64)],
    ) -> Result<(PhaseStats, Vec<u8>), String> {
        let s = self.span("platform.dram");
        let loaded = self.boards[l].dram.load_bytes(IN_BUF, in_bytes);
        self.rec.close(s);
        loaded.map_err(|e| format!("{e:?}"))?;
        let s = self.span("platform.stream_phase");
        let stats = self.boards[l].run_stream_phase(
            &[(
                0,
                DmaDescriptor {
                    addr: IN_BUF,
                    len: in_bytes.len() as u64,
                },
            )],
            &[(
                0,
                DmaDescriptor {
                    addr: OUT_BUF,
                    len: out_len,
                },
            )],
            scalar_args,
        );
        self.rec.close(s);
        let stats = stats.map_err(|e| e.to_string())?;
        self.tally.stream_phase_calls += 1;
        self.tally.sim_cycles += stats.total_cycles;
        self.tally.backpressure_stall_cycles += stats.backpressure_stall_cycles;
        self.tally.starvation_stall_cycles += stats.starvation_stall_cycles;
        self.tally.hp_stall_cycles += stats.hp_stall_cycles;
        let s = self.span("platform.dram");
        let out = self.boards[l].dram.dump_bytes(OUT_BUF, out_len as usize);
        self.rec.close(s);
        Ok((stats, out.map_err(|e| format!("{e:?}"))?))
    }
}

fn u32s_to_bytes(v: &[u32]) -> Vec<u8> {
    v.iter().flat_map(|x| x.to_le_bytes()).collect()
}

fn n_scalar(n: i64) -> HashMap<String, i64> {
    HashMap::from([("n".to_string(), n)])
}

/// Run `images` through `arch` exactly as `run_application_group`
/// does, recording one span per layer call under a group root span.
#[allow(clippy::too_many_arguments)]
pub fn run_group_traced(
    engine: &FlowEngine,
    artifacts: &FlowArtifacts,
    arch: Arch,
    images: &[RgbImage],
    cfg: &AppConfig,
    rec: &mut Recorder,
    group: u64,
    tally: &mut Tally,
) -> Result<TracedGroup, String> {
    let k = images.len();
    let root = rec.open("apps.group", None, group);
    let mut g = Lanes {
        engine,
        rec,
        root,
        group,
        tally,
        boards: Vec::with_capacity(k),
        tasks_ns: vec![Vec::new(); k],
        failed: vec![None; k],
    };
    g.tally.images += k as u64;
    for (l, input) in images.iter().enumerate() {
        let s = g.span("core.build_board");
        let board = g.engine.build_board(artifacts, cfg.dram_bytes);
        g.rec.close(s);
        g.tally.build_board_calls += 1;
        let mut board = match board {
            Ok(b) => b,
            Err(e) => {
                g.rec.close(root);
                return Err(e.to_string());
            }
        };
        board.stream_fifo_depth = cfg.stream_fifo_depth.max(1);
        g.boards.push(board);
        g.tasks_ns[l].push(input.data.len() as f64 * 4.0 * 50.0);
    }

    let mut gray: Vec<Vec<i64>> = vec![Vec::new(); k];
    if !arch.hw_tasks().contains(&"grayScale") {
        let lanes = g.alive();
        let mut bundles: Vec<StreamBundle> = lanes
            .iter()
            .map(|&l| {
                let mut b = StreamBundle::new();
                b.feed("imageIn", images[l].data.iter().map(|&p| p as i64));
                b
            })
            .collect();
        let scalars = lanes
            .iter()
            .map(|&l| n_scalar(images[l].data.len() as i64))
            .collect();
        g.sw_stage(&kernels::grayscale(), &lanes, scalars, &mut bundles);
        for (i, &l) in lanes.iter().enumerate() {
            if g.failed[l].is_none() {
                gray[l] = bundles[i].output("imageOutCH").to_vec();
            }
        }
    }

    let mut hist: Vec<Vec<u32>> = vec![Vec::new(); k];
    if arch == Arch::Arch2 {
        let lanes = g.alive();
        let mut bundles: Vec<StreamBundle> = lanes
            .iter()
            .map(|&l| {
                let mut b = StreamBundle::new();
                b.feed("grayScaleImage", gray[l].iter().copied());
                b
            })
            .collect();
        let scalars = lanes
            .iter()
            .map(|&l| n_scalar(images[l].data.len() as i64))
            .collect();
        g.sw_stage(&kernels::compute_histogram(), &lanes, scalars, &mut bundles);
        for (i, &l) in lanes.iter().enumerate() {
            if g.failed[l].is_none() {
                hist[l] = bundles[i]
                    .output("histogram")
                    .iter()
                    .map(|&v| v as u32)
                    .collect();
            }
        }
    }

    // The hardware phase, per lane.
    let accel_of = |name: &str| artifacts.hls.iter().position(|(nm, _)| nm == name);
    let mut thr: Vec<Option<u8>> = vec![None; k];
    let mut seg: Vec<Option<Vec<u8>>> = vec![None; k];
    let mut dma_bytes = vec![0u64; k];
    let mut phases = Vec::new();
    for l in g.alive() {
        let n = images[l].data.len() as i64;
        let (in_tokens, in_bytes, out_len, args): PhaseInputs = match arch {
            Arch::Arch1 | Arch::Arch3 => {
                let bytes: Vec<u8> = gray[l].iter().map(|&v| v as u8).collect();
                let out_len = if arch == Arch::Arch1 { 256 * 4 } else { 4 };
                let hist_accel = accel_of("computeHistogram").expect("histogram accelerator");
                (
                    bytes.iter().map(|&b| b as i64).collect(),
                    bytes,
                    out_len,
                    vec![(hist_accel, "n", n)],
                )
            }
            Arch::Arch2 => (
                hist[l].iter().map(|&v| v as i64).collect(),
                u32s_to_bytes(&hist[l]),
                4,
                Vec::new(),
            ),
            Arch::Arch4 => (
                images[l].data.iter().map(|&p| p as i64).collect(),
                u32s_to_bytes(&images[l].data),
                images[l].data.len() as u64,
                ["grayScale", "computeHistogram", "segment"]
                    .iter()
                    .map(|a| (accel_of(a).expect("Arch4 accelerator"), "n", n))
                    .collect(),
            ),
        };
        match g.stream_phase(l, &in_bytes, out_len, &args) {
            Ok((stats, out)) => {
                dma_bytes[l] += stats.bytes_in + stats.bytes_out;
                g.tasks_ns[l].push(stats.ns);
                match arch {
                    Arch::Arch1 => {
                        hist[l] = out
                            .chunks_exact(4)
                            .map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]]))
                            .collect()
                    }
                    Arch::Arch2 | Arch::Arch3 => thr[l] = Some(out[0]),
                    Arch::Arch4 => {
                        // The threshold stays in the PL; the runner
                        // recomputes it host-side for reporting.
                        thr[l] = Some(otsu_threshold_from_hist(&histogram_reference(
                            &grayscale_reference(&images[l]),
                        )));
                        seg[l] = Some(out.clone());
                    }
                }
                phases.push(PhaseIo {
                    input: in_tokens,
                    n,
                    output: out,
                });
            }
            Err(e) => g.failed[l] = Some(e),
        }
    }

    let lanes: Vec<usize> = g
        .alive()
        .into_iter()
        .filter(|&l| thr[l].is_none())
        .collect();
    if !lanes.is_empty() {
        let mut bundles: Vec<StreamBundle> = lanes
            .iter()
            .map(|&l| {
                let mut b = StreamBundle::new();
                b.feed("histogram", hist[l].iter().map(|&v| v as i64));
                b
            })
            .collect();
        let scalars = lanes.iter().map(|_| HashMap::new()).collect();
        g.sw_stage(&kernels::half_probability(), &lanes, scalars, &mut bundles);
        for (i, &l) in lanes.iter().enumerate() {
            if g.failed[l].is_none() {
                thr[l] = Some(bundles[i].output("probability")[0] as u8);
            }
        }
    }

    let lanes: Vec<usize> = g
        .alive()
        .into_iter()
        .filter(|&l| seg[l].is_none())
        .collect();
    if !lanes.is_empty() {
        let mut bundles: Vec<StreamBundle> = lanes
            .iter()
            .map(|&l| {
                let mut b = StreamBundle::new();
                b.feed("otsuThreshold", [thr[l].expect("threshold set") as i64]);
                b.feed("grayScaleImage", gray[l].iter().copied());
                b
            })
            .collect();
        let scalars = lanes
            .iter()
            .map(|&l| n_scalar(images[l].data.len() as i64))
            .collect();
        g.sw_stage(&kernels::segment(), &lanes, scalars, &mut bundles);
        for (i, &l) in lanes.iter().enumerate() {
            if g.failed[l].is_none() {
                seg[l] = Some(
                    bundles[i]
                        .output("segmentedGrayImage")
                        .iter()
                        .map(|&v| v as u8)
                        .collect(),
                );
            }
        }
    }

    let mut results = Vec::with_capacity(k);
    for (l, input) in images.iter().enumerate() {
        if let Some(e) = g.failed[l].take() {
            results.push(Err(e));
            continue;
        }
        g.tasks_ns[l].push(input.data.len() as f64 * 50.0);
        results.push(Ok(ImageResult {
            output: seg[l].take().expect("alive lane has pixels"),
            threshold: thr[l].expect("alive lane has a threshold"),
            total_ns: g.tasks_ns[l].iter().sum(),
            dma_bytes: dma_bytes[l],
        }));
    }
    g.rec.close(root);
    Ok(TracedGroup { results, phases })
}

/// Execution units of the four Otsu kernels, resolved once so the
/// accelerator replay times kernel execution only.
pub struct ReplayUnits {
    gray: Arc<ExecUnit>,
    hist: Arc<ExecUnit>,
    half: Arc<ExecUnit>,
    seg: Arc<ExecUnit>,
}

impl ReplayUnits {
    pub fn new(engine: &FlowEngine) -> Self {
        ReplayUnits {
            gray: engine.exec_unit(&kernels::grayscale()),
            hist: engine.exec_unit(&kernels::compute_histogram()),
            half: engine.exec_unit(&kernels::half_probability()),
            seg: engine.exec_unit(&kernels::segment()),
        }
    }
}

fn run_unit(
    unit: &ExecUnit,
    n: Option<i64>,
    inputs: Vec<(&str, Vec<i64>)>,
    output: &str,
) -> Result<Vec<i64>, ExecError> {
    let mut b = StreamBundle::new();
    for (port, tokens) in inputs {
        b.feed(port, tokens);
    }
    let scalars = n.map(n_scalar).unwrap_or_default();
    unit.run(&scalars, &mut b)?;
    Ok(b.take_output(output).unwrap_or_default())
}

/// Replay one lane's hardware phase outside the board: each of the
/// architecture's accelerator kernels runs through `ExecUnit::run` on
/// the token stream the phase fed it. Returns the bytes the phase's
/// output DMA would write, for comparison with what it did write.
pub fn replay_phase(
    arch: Arch,
    units: &ReplayUnits,
    input: Vec<i64>,
    n: i64,
) -> Result<Vec<u8>, ExecError> {
    let u32_bytes =
        |v: &[i64]| -> Vec<u8> { v.iter().flat_map(|&t| (t as u32).to_le_bytes()).collect() };
    let scalar_n = n;
    let n = Some(n);
    Ok(match arch {
        Arch::Arch1 => u32_bytes(&run_unit(
            &units.hist,
            n,
            vec![("grayScaleImage", input)],
            "histogram",
        )?),
        Arch::Arch2 => u32_bytes(&run_unit(
            &units.half,
            None,
            vec![("histogram", input)],
            "probability",
        )?),
        Arch::Arch3 => {
            let h = run_unit(&units.hist, n, vec![("grayScaleImage", input)], "histogram")?;
            u32_bytes(&run_unit(
                &units.half,
                None,
                vec![("histogram", h)],
                "probability",
            )?)
        }
        Arch::Arch4 => {
            let mut b = StreamBundle::new();
            b.feed("imageIn", input);
            units.gray.run(&n_scalar(scalar_n), &mut b)?;
            let ch = b.take_output("imageOutCH").unwrap_or_default();
            let sg = b.take_output("imageOutSEG").unwrap_or_default();
            let h = run_unit(&units.hist, n, vec![("grayScaleImage", ch)], "histogram")?;
            let p = run_unit(&units.half, None, vec![("histogram", h)], "probability")?;
            run_unit(
                &units.seg,
                n,
                vec![("otsuThreshold", p), ("grayScaleImage", sg)],
                "segmentedGrayImage",
            )?
            .iter()
            .map(|&v| v as u8)
            .collect()
        }
    })
}
