//! Differential property test: the scalar bytecode VM and the
//! batch-lane VM are observationally identical to the tree-walking
//! interpreter on randomly generated well-typed kernels — same scalar
//! outputs, same stream contents (including tokens left unconsumed on
//! input streams), same [`ExecStats`], and the same typed error when
//! execution fails (underflow, out-of-bounds, divide-by-zero, shift
//! range, missing scalar input, step limit).
//!
//! The generator only produces kernels the verifier accepts: every name
//! it references is declared, writes go to scalar-out params and
//! locals, and loop variables are globally unique (nested loops reusing
//! one variable name pass the verifier but are degenerate — see the
//! caveat in DESIGN.md §11).

use accelsoc_kernel::builder::*;
use accelsoc_kernel::compile::CompiledKernel;
use accelsoc_kernel::interp::{ExecError, ExecOutcome, Interpreter, StreamBundle};
use accelsoc_kernel::ir::{Expr, Kernel, Stmt};
use accelsoc_kernel::types::Ty;
use proptest::prelude::*;
use std::collections::HashMap;

/// Splitmix64 over the proptest-supplied case seed, so one `u64`
/// strategy drives the whole structured generation.
struct Gen {
    state: u64,
}

impl Gen {
    fn new(seed: u64) -> Gen {
        Gen {
            state: seed ^ 0x9e37_79b9_7f4a_7c15,
        }
    }

    fn next(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound.max(1)
    }

    fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len() as u64) as usize]
    }

    fn chance(&mut self, percent: u64) -> bool {
        self.below(100) < percent
    }

    fn ty(&mut self) -> Ty {
        *self.pick(&[
            Ty::U8,
            Ty::U16,
            Ty::U32,
            Ty::I8,
            Ty::I16,
            Ty::I32,
            Ty::signed(63),
            Ty::unsigned(5),
        ])
    }

    /// Small signed constant, occasionally extreme to stress wrapping
    /// and the non-folded fallible paths (div by 0, shift by 64).
    fn konst(&mut self) -> i64 {
        match self.below(10) {
            0 => 0,
            1 => i64::MAX,
            2 => -1,
            3 => 64,
            4 => 1 << self.below(12),
            _ => self.below(40) as i64 - 8,
        }
    }
}

/// Names available to expression/statement generation.
struct Scope {
    readable: Vec<String>,
    writable: Vec<String>,
    arrays: Vec<(String, u32)>,
    stream_ins: Vec<String>,
    stream_outs: Vec<String>,
    next_loop: u32,
}

fn expr(g: &mut Gen, sc: &Scope, depth: u32) -> Expr {
    if depth == 0 || g.chance(30) {
        return if g.chance(55) && !sc.readable.is_empty() {
            var(g.pick(&sc.readable).as_str())
        } else {
            c(g.konst())
        };
    }
    match g.below(12) {
        0 | 1 => {
            let ops: &[fn(Expr, Expr) -> Expr] = &[add, sub, mul];
            g.pick(ops)(expr(g, sc, depth - 1), expr(g, sc, depth - 1))
        }
        2 => div(expr(g, sc, depth - 1), expr(g, sc, depth - 1)),
        3 => rem(expr(g, sc, depth - 1), expr(g, sc, depth - 1)),
        4 => {
            let ops: &[fn(Expr, Expr) -> Expr] = &[shl, shr];
            g.pick(ops)(expr(g, sc, depth - 1), expr(g, sc, depth - 1))
        }
        5 => {
            let ops: &[fn(Expr, Expr) -> Expr] = &[band, bor, bxor];
            g.pick(ops)(expr(g, sc, depth - 1), expr(g, sc, depth - 1))
        }
        6 => {
            let ops: &[fn(Expr, Expr) -> Expr] = &[lt, le, gt, ge, eq, ne];
            g.pick(ops)(expr(g, sc, depth - 1), expr(g, sc, depth - 1))
        }
        7 => {
            if g.chance(50) {
                neg(expr(g, sc, depth - 1))
            } else {
                bnot(expr(g, sc, depth - 1))
            }
        }
        8 => select(
            expr(g, sc, depth - 1),
            expr(g, sc, depth - 1),
            expr(g, sc, depth - 1),
        ),
        9 if !sc.arrays.is_empty() => {
            let (name, len) = g.pick(&sc.arrays).clone();
            // Mostly in-bounds indices; out-of-bounds ones exercise the
            // identical-typed-error property.
            let ix = if g.chance(80) {
                c(g.below(len as u64) as i64)
            } else {
                expr(g, sc, depth - 1)
            };
            idx(&name, ix)
        }
        10 if !sc.stream_ins.is_empty() => read(g.pick(&sc.stream_ins).as_str()),
        _ => expr(g, sc, depth - 1),
    }
}

fn stmt(g: &mut Gen, sc: &mut Scope, depth: u32) -> Stmt {
    match g.below(10) {
        0..=2 if !sc.writable.is_empty() => {
            let dst = g.pick(&sc.writable).clone();
            assign(&dst, expr(g, sc, 3))
        }
        3 | 4 if !sc.arrays.is_empty() => {
            let (name, len) = g.pick(&sc.arrays).clone();
            let ix = if g.chance(85) {
                c(g.below(len as u64) as i64)
            } else {
                expr(g, sc, 2)
            };
            store(&name, ix, expr(g, sc, 3))
        }
        5 | 6 if !sc.stream_outs.is_empty() => {
            let port = g.pick(&sc.stream_outs).clone();
            write(&port, expr(g, sc, 3))
        }
        7 if depth > 0 => {
            let v = format!("L{}", sc.next_loop);
            sc.next_loop += 1;
            let hi = g.below(6) as i64;
            let body_len = 1 + g.below(3);
            // The loop var is readable inside the body. Typed loop vars
            // (satellite 6) are part of the generated space.
            sc.readable.push(v.clone());
            let body: Vec<Stmt> = (0..body_len).map(|_| stmt(g, sc, depth - 1)).collect();
            sc.readable.pop();
            if g.chance(30) {
                for_typed(&v, g.ty(), c(0), c(hi), body)
            } else {
                for_(&v, c(0), c(hi), body)
            }
        }
        8 if depth > 0 => {
            let then_len = 1 + g.below(2);
            let then: Vec<Stmt> = (0..then_len).map(|_| stmt(g, sc, depth - 1)).collect();
            if g.chance(50) {
                if_(expr(g, sc, 2), then)
            } else {
                let else_len = 1 + g.below(2);
                let els: Vec<Stmt> = (0..else_len).map(|_| stmt(g, sc, depth - 1)).collect();
                if_else(expr(g, sc, 2), then, els)
            }
        }
        _ => {
            // Fallback keeps every draw productive even when a branch's
            // precondition (e.g. "has arrays") fails.
            if sc.writable.is_empty() {
                if_(c(0), vec![write_or_nop(sc)])
            } else {
                let dst = g.pick(&sc.writable).clone();
                assign(&dst, expr(g, sc, 2))
            }
        }
    }
}

fn write_or_nop(sc: &Scope) -> Stmt {
    match sc.stream_outs.first() {
        Some(p) => write(p, c(0)),
        None => if_(c(0), vec![]),
    }
}

/// One random well-typed kernel plus matching inputs.
#[allow(clippy::type_complexity)]
fn kernel_case(seed: u64) -> (Kernel, HashMap<String, i64>, Vec<(String, Vec<i64>)>) {
    let mut g = Gen::new(seed);
    let mut b = KernelBuilder::new("prop");
    let mut sc = Scope {
        readable: vec![],
        writable: vec![],
        arrays: vec![],
        stream_ins: vec![],
        stream_outs: vec![],
        next_loop: 0,
    };
    let mut inputs = HashMap::new();
    for i in 0..g.below(3) {
        let name = format!("in{i}");
        b = b.scalar_in(&name, g.ty());
        // Occasionally leave a declared input unset to hit the
        // MissingScalarInput path identically in both engines.
        if g.chance(92) {
            inputs.insert(name.clone(), g.konst());
        }
        sc.readable.push(name);
    }
    let outs = 1 + g.below(2);
    for i in 0..outs {
        let name = format!("out{i}");
        b = b.scalar_out(&name, g.ty());
        sc.readable.push(name.clone());
        sc.writable.push(name);
    }
    for i in 0..g.below(3) {
        let name = format!("loc{i}");
        b = b.local(&name, g.ty());
        sc.readable.push(name.clone());
        sc.writable.push(name);
    }
    for i in 0..g.below(2) {
        let name = format!("arr{i}");
        let len = 2 + g.below(6) as u32;
        b = b.array(&name, g.ty(), len);
        sc.arrays.push((name, len));
    }
    let mut feeds = Vec::new();
    for i in 0..g.below(2) {
        let name = format!("sin{i}");
        b = b.stream_in(&name, g.ty());
        // Sometimes under-feed (underflow path), sometimes not at all.
        let tokens: Vec<i64> = (0..g.below(12)).map(|_| g.konst()).collect();
        if g.chance(85) {
            feeds.push((name.clone(), tokens));
        }
        sc.stream_ins.push(name);
    }
    for i in 0..g.below(2) {
        let name = format!("sout{i}");
        b = b.stream_out(&name, g.ty());
        sc.stream_outs.push(name);
    }
    let body_len = 1 + g.below(6);
    let mut body = Vec::new();
    for _ in 0..body_len {
        body.push(stmt(&mut g, &mut sc, 2));
    }
    // The verifier rejects scalar outputs that are never written;
    // close every one with a final assignment.
    for i in 0..outs {
        let mut e = expr(&mut g, &sc, 2);
        // Random expressions may still miss an out; force the write.
        if g.chance(40) {
            e = add(e, var(&format!("out{i}")));
        }
        body.push(assign(&format!("out{i}"), e));
    }
    let kernel = b
        .body(body)
        .try_build()
        .unwrap_or_else(|e| panic!("seed {seed}: generator emitted unverifiable kernel: {e:?}"));
    (kernel, inputs, feeds)
}

const STEP_LIMIT: u64 = 200_000;

fn bundle_of(feeds: &[(String, Vec<i64>)]) -> StreamBundle {
    let mut b = StreamBundle::new();
    for (port, tokens) in feeds {
        b.feed(port, tokens.iter().copied());
    }
    b
}

/// Engine `b` (run on bundle `sb`) against the interpreter's result `a`
/// (on `sa`): scalar outputs and stats, or the same typed error; the
/// same output streams; the same leftover input tokens (the engines
/// must consume exactly the same prefix, even on error paths).
fn assert_same(
    tag: &str,
    seed: u64,
    a: &Result<ExecOutcome, ExecError>,
    sa: &StreamBundle,
    b: &Result<ExecOutcome, ExecError>,
    sb: &StreamBundle,
    feeds: &[(String, Vec<i64>)],
) {
    match (a, b) {
        (Ok(x), Ok(y)) => {
            prop_assert_eq!(
                &x.scalar_outputs,
                &y.scalar_outputs,
                "{} seed {}",
                tag,
                seed
            );
            prop_assert_eq!(&x.stats, &y.stats, "{} seed {}", tag, seed);
        }
        (Err(x), Err(y)) => prop_assert_eq!(x, y, "{} seed {}", tag, seed),
        _ => panic!("{tag} seed {seed}: interp {a:?} vs {b:?}"),
    }
    // Output streams: same ports in the same order, same tokens.
    let ao: Vec<_> = sa.outputs().collect();
    let bo: Vec<_> = sb.outputs().collect();
    prop_assert_eq!(ao, bo, "{} seed {}", tag, seed);
    for (port, _) in feeds {
        prop_assert_eq!(
            sa.input_queue(port),
            sb.input_queue(port),
            "{} seed {} leftover on {}",
            tag,
            seed,
            port
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    /// The scalar VM and every lane of the batch-lane VM (the
    /// production executor) at K ∈ {1, 3}, each lane running the same
    /// case, match the interpreter.
    #[test]
    fn vm_is_observationally_identical_to_interpreter(seed in any::<u64>()) {
        let (kernel, inputs, feeds) = kernel_case(seed);
        let mut si = bundle_of(&feeds);
        let ri = Interpreter::with_step_limit(&kernel, STEP_LIMIT).run(&inputs, &mut si);
        let ck = CompiledKernel::compile(&kernel);

        let mut sv = bundle_of(&feeds);
        let rv = ck.run_with_step_limit(&inputs, &mut sv, STEP_LIMIT);
        assert_same("vm", seed, &ri, &si, &rv, &sv, &feeds);

        for k in [1usize, 3] {
            let lane_inputs = vec![inputs.clone(); k];
            let mut bundles: Vec<StreamBundle> = (0..k).map(|_| bundle_of(&feeds)).collect();
            let out = ck.run_batch_with_step_limit(&lane_inputs, &mut bundles, STEP_LIMIT);
            prop_assert_eq!(out.lanes.len(), k);
            for (l, (rl, sl)) in out.lanes.iter().zip(&bundles).enumerate() {
                assert_same(&format!("k{k}/lane{l}"), seed, &ri, &si, rl, sl, &feeds);
            }
        }
    }
}
