//! Golden tests pinning the serialized `BatchReport`, the `ServeReport`
//! of every scheduling policy and the serve run's event stream
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
use accelsoc_apps::otsu::AppConfig;
use accelsoc_core::observe::{CollectObserver, FlowObserver, NullObserver};
use accelsoc_serve::{
    generate_workload, DseEstimator, JobSpec, PolicyKind, ServeConfig, ServeSession, TenantProfile,
    WorkloadSpec,
};
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
