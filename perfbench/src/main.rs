//! `perfbench`: one workload of the accelsoc benchmark per process.
//!
//! ```text
//! perfbench --workload <batch_sw|batch_hw|cluster_unique|cluster_pooled>
//!           --seed <u64> --seconds <s> --trace <0|1> [--out <dir>]
//! perfbench --workload <name> --seed <u64> --setup-only
//! ```
//!
//! With `--trace 0` it times the program's own calls with tracing off
//! and prints the end-to-end metrics; with `--trace 1` it runs the
//! traced split and prints the per-layer metrics, writing the spans to
//! `<out>/spans-<workload>-<seed>.json`. The last stdout line is the
//! result object; human-readable detail goes to stderr. `--setup-only`
//! sets the workload up, prints `ready` and exits; the timed run spawns
//! it to measure cold set-ups.

mod batch;
mod cluster;
mod group;
mod inputs;
mod probe;
mod split;
mod stats;
mod trace;

use probe::Probe;

use std::fmt::Write as _;
use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
    pub out: PathBuf,
    /// Only set up, print `ready` and exit: one sample of `setup_s`.
    pub setup_only: bool,
}

/// `BENCHMARK.json` at the repository root, the one list of metric
/// names and units.
const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// `(name, unit)` of every metric in BENCHMARK.json's `key` list:
/// `end_to_end` (measured with tracing off) or `per_layer` (from the
/// traced run). A workload that does not reach a layer reports it as 0.
fn metric_table(key: &str) -> Vec<(String, String)> {
    let doc = serde_json::from_str(BENCHMARK_JSON).expect("BENCHMARK.json parses");
    doc[key]
        .as_array()
        .unwrap_or_else(|| panic!("BENCHMARK.json has no `{key}` list"))
        .iter()
        .map(|m| {
            let field = |f: &str| {
                m[f].as_str()
                    .expect("metric fields are strings")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

/// What one run reports: the result line's fields.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    metrics: Vec<(&'static str, f64)>,
}

impl Outcome {
    pub fn put(&mut self, name: &'static str, value: f64) {
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.metrics.push((name, value));
    }

    /// The result line: every metric of `table`, in table order.
    fn to_json(&self, table: &[(String, String)]) -> String {
        let mut m = String::new();
        for (i, (name, unit)) in table.iter().enumerate() {
            let value = self
                .metrics
                .iter()
                .find(|(n, _)| n == name)
                .map_or(0.0, |&(_, v)| v);
            if i > 0 {
                m.push_str(", ");
            }
            let _ = write!(
                m,
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{m}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed
        )
    }
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut out = PathBuf::from(".");
    let mut setup_only = false;
    let mut i = 0;
    while i < argv.len() {
        if argv[i] == "--setup-only" {
            setup_only = true;
            i += 1;
            continue;
        }
        let val = argv
            .get(i + 1)
            .ok_or_else(|| format!("`{}` needs a value", argv[i]))?;
        match argv[i].as_str() {
            "--workload" => workload = Some(val.clone()),
            "--seed" => seed = Some(val.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = val.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(Duration::from_secs_f64(s));
            }
            "--trace" => {
                trace = Some(match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--out" => out = PathBuf::from(val),
            other => return Err(format!("unknown option `{other}`")),
        }
        i += 2;
    }
    if setup_only {
        seconds = seconds.or(Some(Duration::ZERO));
        trace = trace.or(Some(false));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        out,
        setup_only,
    })
}

/// The environment every result is stamped with: numbers from hosts
/// or lane-ISA tiers that differ here are not comparable.
fn env_stamp() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    #[cfg(target_arch = "x86_64")]
    let (avx2, avx512f) = (
        std::arch::is_x86_feature_detected!("avx2"),
        std::arch::is_x86_feature_detected!("avx512f"),
    );
    #[cfg(not(target_arch = "x86_64"))]
    let (avx2, avx512f) = (false, false);
    let lane_isa = std::env::var("ACCELSOC_LANE_ISA").unwrap_or_default();
    let commit = std::env::var("PERFBENCH_COMMIT").unwrap_or_else(|_| "unknown".into());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    format!(
        "{{\"nproc\": {nproc}, \"avx2\": {avx2}, \"avx512f\": {avx512f}, \"accelsoc_lane_isa\": \"{lane_isa}\", \"profile\": \"{profile}\", \"commit\": \"{commit}\"}}"
    )
}

/// `setup_s`: cold set-ups, each in a fresh process of this program
/// run with `--setup-only`. Each is timed from just before the spawn to
/// the child's `ready` line, so it covers process start, one-time
/// initialisation and first-touch page faults as well as the set-up
/// proper. Repeated at least 9 times and until 3 s has passed (at most
/// 30 times), each scaled by the host speed `probe` sees around it.
/// Returns the median raw and the median normalised seconds.
pub fn cold_setup(args: &Args, probe: &mut Probe) -> Result<(f64, f64), String> {
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    let start = Instant::now();
    let (mut raw, mut norm) = (Vec::new(), Vec::new());
    while raw.len() < 9 || (raw.len() < 30 && start.elapsed() < Duration::from_secs(3)) {
        let t = Instant::now();
        let mut child = Command::new(&exe)
            .args([
                "--workload",
                &args.workload,
                "--seed",
                &args.seed.to_string(),
            ])
            .arg("--setup-only")
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("set-up process: {e}"))?;
        let mut line = String::new();
        let read =
            BufReader::new(child.stdout.take().expect("stdout is piped")).read_line(&mut line);
        let dt = t.elapsed().as_secs_f64();
        let status = child.wait().map_err(|e| format!("set-up process: {e}"))?;
        if read.is_err() || line.trim() != "ready" || !status.success() {
            return Err(format!("set-up process failed ({status})"));
        }
        raw.push(dt);
        norm.push(dt * probe.speed(dt));
    }
    Ok((stats::median(&raw), stats::median(&norm)))
}

/// Host time of the timed calls, in blocks of at least `BLOCK`, each
/// scaled by the host speed measured around it.
pub struct Timing {
    probe: Probe,
    /// Raw seconds of every call.
    raw: Vec<f64>,
    /// Normalised seconds of every call.
    norm: Vec<f64>,
    /// Normalised items per second of every closed block.
    block_rates: Vec<f64>,
    open_from: usize,
    open_items: u64,
    items: u64,
}

/// Calls of one block: long enough that a probe every block costs a few
/// percent of the run.
const BLOCK: Duration = Duration::from_millis(200);

impl Timing {
    pub fn new(probe: Probe) -> Self {
        Timing {
            probe,
            raw: Vec::new(),
            norm: Vec::new(),
            block_rates: Vec::new(),
            open_from: 0,
            open_items: 0,
            items: 0,
        }
    }

    /// Start the first block now (after set-up and warm-up).
    pub fn start(&mut self) {
        self.probe.speed(0.0);
    }

    /// Record one call of `secs` that produced `items` verified items.
    pub fn call(&mut self, secs: f64, items: u64) {
        self.raw.push(secs);
        self.open_items += items;
        self.items += items;
        if self.raw[self.open_from..].iter().sum::<f64>() >= BLOCK.as_secs_f64() {
            self.close_block();
        }
    }

    fn close_block(&mut self) {
        if self.open_from == self.raw.len() {
            return;
        }
        let block_s: f64 = self.raw[self.open_from..].iter().sum();
        let speed = self.probe.speed(block_s);
        self.norm
            .extend(self.raw[self.open_from..].iter().map(|s| s * speed));
        self.block_rates
            .push(self.open_items as f64 / (block_s * speed));
        self.open_from = self.raw.len();
        self.open_items = 0;
    }

    pub fn calls(&self) -> usize {
        self.raw.len()
    }

    /// Emit the end-to-end metrics: the median of the blocks'
    /// normalised item rates and the median normalised call time.
    pub fn finish(mut self, out: &mut Outcome, setup: (f64, f64)) {
        self.close_block();
        let raw_rate = stats::ratio(self.items as f64, self.raw.iter().sum());
        let p90 = stats::percentile(&self.raw, 90.0);
        eprintln!(
            "raw      : setup_s {:.6}, items_per_s {:.3}, call_ms_p50 {:.4}, call_ms_p90 {:.4} ({} calls, {} above p90); {}",
            setup.0,
            raw_rate,
            stats::median(&self.raw) * 1e3,
            p90 * 1e3,
            self.raw.len(),
            self.raw.iter().filter(|&&s| s > p90).count(),
            self.probe.summary()
        );
        out.put("setup_s", setup.1);
        out.put("items_per_s", stats::median(&self.block_rates));
        out.put("call_ms_p50", stats::median(&self.norm) * 1e3);
        out.put("peak_rss_mb", peak_rss_mb());
    }
}

/// Print a failure; only the first few, as one broken call can fail
/// thousands of items. `failed` counts the failures before this one.
pub fn report_failure(failed: u64, what: std::fmt::Arguments) {
    if failed < 5 {
        eprintln!("FAILED   : {what}");
    }
}

/// `VmHWM` of this process in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.setup_only {
        let set_up = match args.workload.as_str() {
            "batch_sw" | "batch_hw" => batch::set_up_once(&args),
            "cluster_unique" | "cluster_pooled" => cluster::set_up_once(&args),
            other => Err(format!("unknown workload `{other}`")),
        };
        return match set_up {
            Ok(state) => {
                println!("ready");
                // The process is about to exit; freeing the set-up is
                // not part of it.
                std::mem::forget(state);
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let env = env_stamp();
    eprintln!("env      : {env}");
    let outcome = match args.workload.as_str() {
        "batch_sw" | "batch_hw" => batch::run(&args),
        "cluster_unique" | "cluster_pooled" => cluster::run(&args),
        other => Err(format!("unknown workload `{other}`")),
    };
    match outcome {
        Ok(o) => {
            println!("env {env}");
            let table = metric_table(if args.trace {
                "per_layer"
            } else {
                "end_to_end"
            });
            for (name, _) in &o.metrics {
                assert!(
                    table.iter().any(|(n, _)| n == name),
                    "metric {name} is not in the table of this mode"
                );
            }
            println!("{}", o.to_json(&table));
            if o.failed == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
