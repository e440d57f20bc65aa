//! In-memory span recording around the benchmark's own calls into each
//! layer, self-time derivation, and a counting `FlowObserver`.
//!
//! Spans are recorded only in the traced run; the timed run never
//! touches this module, so end-to-end numbers carry no tracing cost.

use accelsoc_observe::{FlowEvent, FlowObserver};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Layer a span name belongs to: the prefix before the first `.`.
pub fn layer_of(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub group: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Spans of one traced run, kept in memory until the run ends.
pub struct Recorder {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span; close it with [`Recorder::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, group: u64) -> usize {
        let t = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: t,
            end_ns: t,
            parent,
            group,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Self time of every span: its duration minus the part its
    /// children cover. Children never overlap one another here (the
    /// benchmark is single-threaded), so coverage is a plain sum.
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.dur_ns();
            }
        }
        self.spans
            .iter()
            .zip(child)
            .map(|(s, c)| s.dur_ns().saturating_sub(c))
            .collect()
    }

    /// Total self time per span name, in first-seen order.
    pub fn self_time_by_name(&self) -> Vec<(&'static str, u64, u64)> {
        let mut out: Vec<(&'static str, u64, u64)> = Vec::new();
        for (s, t) in self.spans.iter().zip(self.self_times_ns()) {
            match out.iter_mut().find(|(n, _, _)| *n == s.name) {
                Some(e) => {
                    e.1 += t;
                    e.2 += 1;
                }
                None => out.push((s.name, t, 1)),
            }
        }
        out
    }

    /// Spans as a JSON document.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(self.spans.len() * 80 + 64);
        s.push_str("{\"spans\":[\n");
        for (i, sp) in self.spans.iter().enumerate() {
            if i > 0 {
                s.push_str(",\n");
            }
            let parent = sp.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                s,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"group\":{}}}",
                sp.name, sp.start_ns, sp.end_ns, sp.group
            );
        }
        s.push_str("\n]}\n");
        s
    }
}

/// Counts the flow events the traced run cross-checks between the
/// program's path and the benchmark's traced replay of it.
#[derive(Default)]
pub struct CountingObserver {
    vm_cache_hits: AtomicU64,
    kernels_compiled: AtomicU64,
    sim_phases: AtomicU64,
}

/// `(KernelVmCacheHit, KernelCompiled, SimPhaseDone)` counts.
pub type EventCounts = (u64, u64, u64);

impl CountingObserver {
    pub fn snapshot(&self) -> EventCounts {
        (
            self.vm_cache_hits.load(Ordering::Relaxed),
            self.kernels_compiled.load(Ordering::Relaxed),
            self.sim_phases.load(Ordering::Relaxed),
        )
    }
}

impl FlowObserver for CountingObserver {
    fn on_event(&self, event: &FlowEvent) {
        let slot = match event {
            FlowEvent::KernelVmCacheHit { .. } => &self.vm_cache_hits,
            FlowEvent::KernelCompiled { .. } => &self.kernels_compiled,
            FlowEvent::SimPhaseDone { .. } => &self.sim_phases,
            _ => return,
        };
        slot.fetch_add(1, Ordering::Relaxed);
    }
}

pub fn delta(a: EventCounts, b: EventCounts) -> EventCounts {
    (b.0 - a.0, b.1 - a.1, b.2 - a.2)
}
