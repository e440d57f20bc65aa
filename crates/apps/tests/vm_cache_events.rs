//! Pins the kernel VM-cache event contract of the application runner:
//! every execution-unit lookup `run_application_group` makes (one per
//! software stage, one per accelerator of every board it builds) emits
//! exactly one `KernelVmCacheHit` or one `KernelCompiled`. Tools that
//! replay the runner's call pattern compare their own counts against
//! these, so the exact numbers are part of the contract.

use accelsoc_apps::archs::{arch_dsl_source, otsu_flow_engine_with, Arch};
use accelsoc_apps::image::{synthetic_scene, RgbImage};
use accelsoc_apps::otsu::{otsu_reference, run_application_group, AppConfig};
use accelsoc_core::flow::FlowOptions;
use accelsoc_core::observe::{FlowEvent, FlowObserver};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

#[derive(Default)]
struct VmCacheCounter {
    compiled: AtomicU64,
    hits: AtomicU64,
}

impl VmCacheCounter {
    fn take(&self) -> (u64, u64) {
        (
            self.compiled.swap(0, Ordering::Relaxed),
            self.hits.swap(0, Ordering::Relaxed),
        )
    }
}

impl FlowObserver for VmCacheCounter {
    fn on_event(&self, event: &FlowEvent) {
        match event {
            FlowEvent::KernelCompiled { .. } => self.compiled.fetch_add(1, Ordering::Relaxed),
            FlowEvent::KernelVmCacheHit { .. } => self.hits.fetch_add(1, Ordering::Relaxed),
            _ => 0,
        };
    }
}

#[test]
fn group_runs_emit_the_pinned_vm_cache_events() {
    let counter = Arc::new(VmCacheCounter::default());
    let mut engine =
        otsu_flow_engine_with(FlowOptions::builder().observer(counter.clone()).build());
    let images: Vec<RgbImage> = (0..4)
        .map(|seed| RgbImage::from_gray(&synthetic_scene(16, 16, seed)))
        .collect();

    // (arch, KernelCompiled, KernelVmCacheHit) per group of 4 images, on
    // one engine visited in `Arch::all()` order. Arch1 and Arch2 build
    // 4 boards of one accelerator each and run 3 software stages; Arch3
    // builds 4 boards of 2 accelerators and runs 2 stages; Arch4 builds 4
    // boards of 4 accelerators and runs none. Arch1 compiles all four
    // Otsu kernels on first use; every later lookup hits.
    let expected = [
        (Arch::Arch1, 4, 3),
        (Arch::Arch2, 0, 7),
        (Arch::Arch3, 0, 10),
        (Arch::Arch4, 0, 16),
    ];
    let mut total = (0, 0);
    for (arch, compiled, hits) in expected {
        let art = engine.run_source(&arch_dsl_source(arch)).unwrap();
        assert_eq!(
            counter.take(),
            (0, 0),
            "{arch:?}: the flow run looks up no unit"
        );
        let group =
            run_application_group(arch, &engine, &art, &images, &AppConfig::default()).unwrap();
        for (run, img) in group.runs.iter().zip(&images) {
            assert_eq!(run.as_ref().unwrap().output, otsu_reference(img).0);
        }
        assert_eq!(counter.take(), (compiled, hits), "{arch:?}");
        total = (total.0 + compiled, total.1 + hits);
    }
    // The engine's lifetime tallies agree with the events.
    let (hits, misses) = engine.vm_cache_counters();
    assert_eq!((misses, hits), total);
    assert_eq!(engine.compiled_kernels() as u64, total.0);
}
