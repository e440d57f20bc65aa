//! The 2-D line-buffer convolution kernels against a direct Rust 3×3
//! convolution: interior pixels must match it exactly; the streaming
//! structure must synthesize with BRAM line buffers. Executor agreement
//! on these kernels (lane VM and scalar VM vs the interpreter) is the
//! job of `crates/kernel/tests/prop_lanes.rs`.

use accelsoc_apps::image::synthetic_scene;
use accelsoc_apps::kernels::{gauss2d_core, sobel2d_core};
use accelsoc_kernel::interp::{Interpreter, StreamBundle};
use std::collections::HashMap;

fn run_kernel(k: &accelsoc_kernel::ir::Kernel, pixels: &[u8], width: u32) -> Vec<u8> {
    let mut s = StreamBundle::new();
    s.feed("in", pixels.iter().map(|&v| v as i64));
    let inputs = HashMap::from([
        ("n".to_string(), pixels.len() as i64),
        ("W".to_string(), width as i64),
    ]);
    Interpreter::new(k).run(&inputs, &mut s).unwrap();
    s.output("out").iter().map(|&v| v as u8).collect()
}

/// Direct 3×3 convolution reference. The streaming kernel emits, at
/// linear position `i` (row r, col x), the window whose *bottom-right*
/// corner is (r, x) — i.e. the result for centre pixel (r-1, x-1).
fn gauss_ref(pixels: &[u8], w: usize, h: usize) -> Vec<u8> {
    let k = [[1u16, 2, 1], [2, 4, 2], [1, 2, 1]];
    let get = |r: i64, x: i64| -> u16 {
        if r < 0 || x < 0 || r >= h as i64 || x >= w as i64 {
            0
        } else {
            pixels[r as usize * w + x as usize] as u16
        }
    };
    let mut out = vec![0u8; w * h];
    for r in 0..h as i64 {
        for x in 0..w as i64 {
            let mut acc = 0u16;
            for (dr, krow) in k.iter().enumerate() {
                for (dx, &kv) in krow.iter().enumerate() {
                    acc += kv * get(r - 2 + dr as i64, x - 2 + dx as i64);
                }
            }
            out[r as usize * w + x as usize] = (acc >> 4) as u8;
        }
    }
    out
}

fn sobel_ref(pixels: &[u8], w: usize, h: usize) -> Vec<u8> {
    let get = |r: i64, x: i64| -> i32 {
        if r < 0 || x < 0 || r >= h as i64 || x >= w as i64 {
            0
        } else {
            pixels[r as usize * w + x as usize] as i32
        }
    };
    let mut out = vec![0u8; w * h];
    for r in 0..h as i64 {
        for x in 0..w as i64 {
            // Window with bottom-right corner at (r, x), centre (r-1, x-1).
            let p = |dr: i64, dx: i64| get(r - 2 + dr, x - 2 + dx);
            let gx = (p(0, 2) + 2 * p(1, 2) + p(2, 2)) - (p(0, 0) + 2 * p(1, 0) + p(2, 0));
            let gy = (p(2, 0) + 2 * p(2, 1) + p(2, 2)) - (p(0, 0) + 2 * p(0, 1) + p(0, 2));
            out[r as usize * w + x as usize] = (gx.abs() + gy.abs()).min(255) as u8;
        }
    }
    out
}

/// Columns 2.. of rows 2.. are border-artifact-free (the streaming kernel
/// wraps its window across row boundaries at columns 0–1).
fn interior_equal(a: &[u8], b: &[u8], w: usize, h: usize) -> bool {
    for r in 2..h {
        for x in 2..w {
            if a[r * w + x] != b[r * w + x] {
                eprintln!(
                    "mismatch at ({r},{x}): {} vs {}",
                    a[r * w + x],
                    b[r * w + x]
                );
                return false;
            }
        }
    }
    true
}

#[test]
fn gauss2d_matches_direct_convolution_on_interior() {
    let (w, h) = (24usize, 16usize);
    let img = synthetic_scene(w as u32, h as u32, 5);
    let out = run_kernel(&gauss2d_core(), &img.data, w as u32);
    assert_eq!(out.len(), w * h);
    let reference = gauss_ref(&img.data, w, h);
    assert!(interior_equal(&out, &reference, w, h));
}

#[test]
fn sobel2d_matches_direct_convolution_on_interior() {
    let (w, h) = (20usize, 12usize);
    let img = synthetic_scene(w as u32, h as u32, 9);
    let out = run_kernel(&sobel2d_core(), &img.data, w as u32);
    let reference = sobel_ref(&img.data, w, h);
    assert!(interior_equal(&out, &reference, w, h));
}

#[test]
fn sobel2d_responds_to_edges_only() {
    // Flat image: zero response everywhere in the interior.
    let (w, h) = (16usize, 8usize);
    let flat = vec![100u8; w * h];
    let out = run_kernel(&sobel2d_core(), &flat, w as u32);
    for r in 2..h {
        for x in 2..w {
            assert_eq!(out[r * w + x], 0, "flat field must give 0 at ({r},{x})");
        }
    }
    // Vertical step: strong response at the step column.
    let step: Vec<u8> = (0..w * h)
        .map(|i| if i % w < w / 2 { 10 } else { 200 })
        .collect();
    let out = run_kernel(&sobel2d_core(), &step, w as u32);
    let mid = 4 * w + w / 2;
    assert!(out[mid] > 100 || out[mid + 1] > 100, "step edge detected");
}

#[test]
fn conv2d_kernels_synthesize_with_bram_line_buffers() {
    use accelsoc_hls::project::{synthesize_kernel, HlsOptions};
    for k in [gauss2d_core(), sobel2d_core()] {
        let r = synthesize_kernel(&k, &HlsOptions::default()).unwrap();
        // Two 4096x8 line buffers = 2 RAMB18.
        assert!(
            r.report.resources.bram18 >= 2,
            "{}: bram = {}",
            k.name,
            r.report.resources.bram18
        );
        // Line-buffer rotate is read-then-write on the same arrays: the
        // recurrence bounds II but stays small.
        let ii = r.report.loop_iis.iter().map(|(_, ii)| *ii).max().unwrap();
        assert!((1..=8).contains(&ii), "{}: II = {ii}", k.name);
        // No DSPs: all coefficient multiplies are shifts.
        assert_eq!(r.report.resources.dsp, 0, "{}", k.name);
    }
}

#[test]
fn gauss2d_then_sobel2d_pipeline_on_board() {
    use accelsoc_axi::dma::DmaDescriptor;
    use accelsoc_core::builder::TaskGraphBuilder;
    use accelsoc_core::flow::{FlowEngine, FlowOptions};
    let graph = TaskGraphBuilder::new("conv2d")
        .node("GAUSS2D", |n| n.stream("in").stream("out"))
        .node("SOBEL2D", |n| n.stream("in").stream("out"))
        .link_soc_to("GAUSS2D", "in")
        .link(("GAUSS2D", "out"), ("SOBEL2D", "in"))
        .link_to_soc("SOBEL2D", "out")
        .build()
        .unwrap();
    let mut engine = FlowEngine::new(FlowOptions::default());
    engine.register_kernel(gauss2d_core());
    engine.register_kernel(sobel2d_core());
    let art = engine.run(&graph).unwrap();
    assert!(art.timing.met());

    let (w, h) = (16u32, 8u32);
    let img = synthetic_scene(w, h, 3);
    let n = (w * h) as i64;
    let mut board = engine.build_board(&art, 1 << 20).unwrap();
    board.dram.load_bytes(0x1000, &img.data).unwrap();
    board
        .run_stream_phase(
            &[(
                0,
                DmaDescriptor {
                    addr: 0x1000,
                    len: n as u64,
                },
            )],
            &[(
                0,
                DmaDescriptor {
                    addr: 0x4000,
                    len: n as u64,
                },
            )],
            &[
                (0, "n", n),
                (0, "W", w as i64),
                (1, "n", n),
                (1, "W", w as i64),
            ],
        )
        .unwrap();
    let hw = board.dram.dump_bytes(0x4000, n as usize).unwrap();
    // Reference: interpreter composition.
    let smoothed = run_kernel(&gauss2d_core(), &img.data, w);
    let expect = run_kernel(&sobel2d_core(), &smoothed, w);
    assert_eq!(hw, expect, "board pipeline == interpreter composition");
}
