//! Golden tests pinning the serialized `BatchReport`, the `ServeReport`
//! of every scheduling policy, the serve run's event stream, every field
//! of a set of board stream phases and a `partition-sim` report
//! byte-for-byte.
//!
//! Both reports are virtual-time-only and deterministic by construction,
//! so their JSON must not drift when the execution engine underneath is
//! swapped (e.g. interpreter -> compiled kernel VM): any byte of
//! difference means simulated timing or results changed, which is a
//! semantic regression, not a refactor. Regenerate after an *intentional*
//! model change with `UPDATE_GOLDEN=1 cargo test --test golden_reports`.

use accelsoc_apps::archs::{arch_dsl_source, otsu_flow_engine, Arch};
use accelsoc_apps::batch::{image_stream, run_batch};
use accelsoc_apps::demo::{fig4_flow_engine, fig4_graph};
use accelsoc_apps::image::{synthetic_scene, RgbImage};
use accelsoc_apps::otsu::{grayscale_reference, histogram_reference, AppConfig};
use accelsoc_axi::dma::DmaDescriptor;
use accelsoc_core::flow::{FlowArtifacts, FlowEngine};
use accelsoc_core::observe::{CollectObserver, FlowObserver, NullObserver};
use accelsoc_partition::{run_partition_sim_observed, PartitionSimOptions};
use accelsoc_serve::{
    generate_workload, DseEstimator, JobSpec, PolicyKind, ServeConfig, ServeSession, TenantProfile,
    WorkloadSpec,
};
use serde::Serialize;
use std::path::Path;

fn check_or_update(golden_rel: &str, actual: &str) {
    let golden_path =
        Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden")).join(golden_rel);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(golden_path.parent().unwrap()).unwrap();
        std::fs::write(&golden_path, actual).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(&golden_path)
        .expect("golden report missing: run with UPDATE_GOLDEN=1 to create it");
    assert_eq!(
        actual,
        golden,
        "{} diverged from its pre-recorded golden; the simulated timing or \
         results changed. Rerun with UPDATE_GOLDEN=1 only if the model \
         change is intentional",
        golden_path.display()
    );
}

#[test]
fn batch_report_matches_golden() {
    let mut engine = otsu_flow_engine();
    let stream = image_stream(3, 24);
    let cfg = AppConfig::default();
    let mut out = String::new();
    for arch in [Arch::Arch2, Arch::Arch4] {
        let art = engine.run_source(&arch_dsl_source(arch)).expect("flow");
        let rep = run_batch(arch, &engine, &art, &stream, 2, &cfg).expect("batch");
        out.push_str(&serde_json::to_string_pretty(&rep).unwrap());
        out.push('\n');
    }
    check_or_update("batch_report.json", &out);
}

/// The serve workload of the report goldens: two tenants, 12 jobs,
/// deadlines on one tenant and transient faults on the other.
fn serve_workload() -> (Vec<String>, Vec<JobSpec>, u64) {
    workload(
        vec![
            TenantProfile {
                name: "interactive".into(),
                weight: 2,
                sides: vec![16, 24],
                archs: vec![Arch::Arch4],
                deadline_slack_pct: Some(5_000),
                fault_rate: 0.0,
            },
            TenantProfile {
                name: "batch".into(),
                weight: 1,
                sides: vec![32],
                archs: vec![Arch::Arch1],
                deadline_slack_pct: None,
                fault_rate: 0.1,
            },
        ],
        12,
        50_000_000,
        7,
    )
}

/// An overloaded variant for the event-stream golden: arrivals every
/// 5 us, tight deadlines on one tenant and frequent faults on the
/// other, so rejections, retries and deadline misses all occur.
fn stressed_workload() -> (Vec<String>, Vec<JobSpec>, u64) {
    workload(
        vec![
            TenantProfile {
                name: "interactive".into(),
                weight: 2,
                sides: vec![16],
                archs: vec![Arch::Arch4],
                deadline_slack_pct: Some(300),
                fault_rate: 0.0,
            },
            TenantProfile {
                name: "batch".into(),
                weight: 1,
                sides: vec![16, 24],
                archs: vec![Arch::Arch1],
                deadline_slack_pct: None,
                fault_rate: 0.5,
            },
        ],
        24,
        5_000_000,
        11,
    )
}

fn workload(
    profiles: Vec<TenantProfile>,
    jobs: usize,
    mean_interarrival_ps: u64,
    seed: u64,
) -> (Vec<String>, Vec<JobSpec>, u64) {
    let spec = WorkloadSpec {
        tenants: profiles.clone(),
        jobs,
        mean_interarrival_ps,
        seed,
    };
    let jobs = generate_workload(&spec, &mut DseEstimator::new());
    let names = profiles.into_iter().map(|t| t.name).collect();
    (names, jobs, seed)
}

fn serve_report_json(
    (tenants, jobs, seed): (Vec<String>, Vec<JobSpec>, u64),
    boards: usize,
    policy: PolicyKind,
    observer: &dyn FlowObserver,
) -> String {
    let cfg = ServeConfig::builder()
        .tenants(tenants)
        .boards(boards)
        .policy(policy)
        .queue_depth(if boards == 1 { 2 } else { 8 })
        .threads(2)
        .seed(seed)
        .build();
    let rep = ServeSession::new(cfg).run(&jobs, observer).expect("serve");
    serde_json::to_string_pretty(&rep).unwrap() + "\n"
}

fn event_lines(sink: &CollectObserver) -> String {
    let mut out = String::new();
    for ev in sink.events() {
        out.push_str(&serde_json::to_string(&ev).unwrap());
        out.push('\n');
    }
    out
}

#[test]
fn serve_report_matches_golden() {
    check_or_update(
        "serve_report.json",
        &serve_report_json(serve_workload(), 2, PolicyKind::Sjf, &NullObserver),
    );
}

#[test]
fn serve_reports_match_golden_for_fifo_and_round_robin() {
    for (policy, golden) in [
        (PolicyKind::Fifo, "serve_report_fifo.json"),
        (PolicyKind::RoundRobin, "serve_report_rr.json"),
    ] {
        check_or_update(
            golden,
            &serve_report_json(serve_workload(), 2, policy, &NullObserver),
        );
    }
}

/// The observer stream of the Sjf serve run, one JSON event per line:
/// admissions, dispatches and completions in emission order.
#[test]
fn serve_event_stream_matches_golden() {
    let sink = CollectObserver::new();
    serve_report_json(serve_workload(), 2, PolicyKind::Sjf, &sink);
    check_or_update("serve_events.jsonl", &event_lines(&sink));
}

/// The observer streams of the overloaded variant on one board with
/// queue depth 2, every policy in turn: besides admissions, dispatches
/// and completions they carry typed rejections, retries and deadline
/// misses.
#[test]
fn stressed_serve_event_streams_match_golden() {
    let sink = CollectObserver::new();
    for policy in PolicyKind::ALL {
        serve_report_json(stressed_workload(), 1, policy, &sink);
    }
    let events = sink.events();
    for kind in ["JobRejected", "JobRetried", "JobDeadlineMissed"] {
        assert!(
            events.iter().any(|ev| serde_json::to_string(ev)
                .unwrap()
                .starts_with(&format!("{{\"{kind}\""))),
            "the stressed workload no longer produces {kind}"
        );
    }
    check_or_update("serve_events_stressed.jsonl", &event_lines(&sink));
}

/// Everything one stream phase leaves behind: every `PhaseStats` field,
/// the S2MM output bytes (hex) and the DRAM traffic counters (which
/// include the input load).
#[derive(Serialize)]
struct PhaseRecord {
    label: String,
    ns: f64,
    total_cycles: u64,
    fill_cycles: u64,
    steady_cycles: u64,
    backpressure_stall_cycles: u64,
    starvation_stall_cycles: u64,
    hp_stall_cycles: u64,
    per_stage: Vec<(String, u64)>,
    bytes_in: u64,
    bytes_out: u64,
    output: String,
    dram_bytes_read: u64,
    dram_bytes_written: u64,
}

/// Run one stream phase on a fresh board at each FIFO depth in
/// {1, 2, 16}: `input` goes in through DMA 0 and `out_len` bytes come
/// back through DMA 0.
fn record_phases(
    label: &str,
    engine: &FlowEngine,
    art: &FlowArtifacts,
    input: &[u8],
    out_len: u64,
    args: &[(usize, &str, i64)],
    records: &mut Vec<PhaseRecord>,
) {
    const IN: u64 = 0x1000;
    const OUT: u64 = 0x8000;
    for depth in [1, 2, 16] {
        let mut board = engine.build_board(art, 1 << 16).expect("board");
        board.stream_fifo_depth = depth;
        board.dram.load_bytes(IN, input).unwrap();
        let s = board
            .run_stream_phase(
                &[(
                    0,
                    DmaDescriptor {
                        addr: IN,
                        len: input.len() as u64,
                    },
                )],
                &[(
                    0,
                    DmaDescriptor {
                        addr: OUT,
                        len: out_len,
                    },
                )],
                args,
            )
            .expect("stream phase");
        let output = board.dram.dump_bytes(OUT, s.bytes_out as usize).unwrap();
        records.push(PhaseRecord {
            label: format!("{label}/depth{depth}"),
            ns: s.ns,
            total_cycles: s.total_cycles,
            fill_cycles: s.fill_cycles,
            steady_cycles: s.steady_cycles,
            backpressure_stall_cycles: s.backpressure_stall_cycles,
            starvation_stall_cycles: s.starvation_stall_cycles,
            hp_stall_cycles: s.hp_stall_cycles,
            per_stage: s.per_stage,
            bytes_in: s.bytes_in,
            bytes_out: s.bytes_out,
            output: output.iter().map(|b| format!("{b:02x}")).collect(),
            dram_bytes_read: board.dram.bytes_read,
            dram_bytes_written: board.dram.bytes_written,
        });
    }
}

/// The hardware phase of Arch1–4 on one 24×24 scene, and the Fig. 4
/// GAUSS→EDGE pipeline on its gray pixels, at FIFO depths {1, 2, 16}.
#[test]
fn stream_phases_match_golden() {
    let scene = synthetic_scene(24, 24, 5);
    let rgb = RgbImage {
        width: 24,
        height: 24,
        data: scene
            .data
            .iter()
            .map(|&g| {
                let g = u32::from(g);
                (g << 16) | ((g ^ 0x5a) << 8) | (255 - g)
            })
            .collect(),
    };
    let gray = grayscale_reference(&rgb);
    let hist_bytes: Vec<u8> = histogram_reference(&gray)
        .iter()
        .flat_map(|v| v.to_le_bytes())
        .collect();
    let rgb_bytes: Vec<u8> = rgb.data.iter().flat_map(|v| v.to_le_bytes()).collect();
    let n = rgb.data.len() as i64;
    let mut records = Vec::new();
    let mut engine = otsu_flow_engine();
    for arch in Arch::all() {
        let art = engine.run_source(&arch_dsl_source(arch)).expect("flow");
        let accel = |name: &str| art.hls.iter().position(|(nm, _)| nm == name).unwrap();
        let (input, out_len, args) = match arch {
            Arch::Arch1 => (&gray.data, 1024, vec![(accel("computeHistogram"), "n", n)]),
            Arch::Arch2 => (&hist_bytes, 4, vec![]),
            Arch::Arch3 => (&gray.data, 4, vec![(accel("computeHistogram"), "n", n)]),
            Arch::Arch4 => (
                &rgb_bytes,
                n as u64,
                ["grayScale", "computeHistogram", "segment"]
                    .map(|a| (accel(a), "n", n))
                    .to_vec(),
            ),
        };
        record_phases(
            arch.name(),
            &engine,
            &art,
            input,
            out_len,
            &args,
            &mut records,
        );
    }
    let mut engine = fig4_flow_engine();
    let art = engine.run(&fig4_graph()).expect("fig4 flow");
    let accel = |name: &str| art.hls.iter().position(|(nm, _)| nm == name).unwrap();
    record_phases(
        "fig4_gauss_edge",
        &engine,
        &art,
        &gray.data,
        n as u64,
        &[(accel("GAUSS"), "n", n), (accel("EDGE"), "n", n)],
        &mut records,
    );
    check_or_update(
        "stream_phases.json",
        &(serde_json::to_string_pretty(&records).unwrap() + "\n"),
    );
}

/// The JSON `accelsoc partition-sim --scale 12 --boards 2 --side 16
/// --json` writes, at a configuration whose inter-board links fill
/// their receive FIFOs.
#[test]
fn partition_report_matches_golden() {
    let opts = PartitionSimOptions::builder()
        .scale(12)
        .max_boards(2)
        .side(16)
        .build();
    let report = run_partition_sim_observed(&opts, &NullObserver).expect("partition-sim");
    assert!(
        report.sim.links.iter().any(|l| l.handshake_stalls > 0),
        "no link of this configuration backpressures any more"
    );
    check_or_update(
        "partition_report.json",
        &(serde_json::to_string_pretty(&report).unwrap() + "\n"),
    );
}
