//! [`ExecUnit`]: the one handle hot paths hold to execute a kernel.
//!
//! A kernel has three executors, all bit-identical by contract:
//!
//! 1. the tree-walking **interpreter** ([`crate::interp`]) — the
//!    differential oracle, never on a hot path;
//! 2. the scalar register bytecode **VM** ([`crate::vm`]) — one
//!    match-dispatch per op; the second differential implementation
//!    and the baseline of the lane-speedup gate, never on a production
//!    path;
//! 3. the batch-lane **VM** ([`crate::lanes`]) — K invocations per
//!    decoded instruction stream, plus lane superinstructions; the
//!    production executor.
//!
//! `ExecUnit` compiles once and runs every call on the lane VM: a
//! batched call is one lane group, a scalar call a one-lane batch. The
//! engine-level `VmCache` stores one `Arc<ExecUnit>` per distinct kernel
//! IR (compared by equality, not digested), so compile cost is paid once
//! per engine per kernel.

use crate::compile::CompiledKernel;
use crate::interp::{ExecError, ExecOutcome, StreamBundle};
use crate::ir::Kernel;
use crate::lanes::BatchOutcome;
use std::collections::HashMap;

/// A compiled kernel; the unit the engine cache hands out and every
/// runtime consumer executes through.
#[derive(Debug)]
pub struct ExecUnit {
    compiled: CompiledKernel,
}

impl ExecUnit {
    /// Compile a kernel into an execution unit.
    pub fn new(kernel: &Kernel) -> ExecUnit {
        ExecUnit {
            compiled: CompiledKernel::compile(kernel),
        }
    }

    /// Scalar invocation: a one-lane batch on the lane VM.
    pub fn run(
        &self,
        scalar_inputs: &HashMap<String, i64>,
        streams: &mut StreamBundle,
    ) -> Result<ExecOutcome, ExecError> {
        let mut out = self.run_batch(
            std::slice::from_ref(scalar_inputs),
            std::slice::from_mut(streams),
        );
        out.lanes.pop().expect("one lane in, one lane out")
    }

    /// Batched invocation on the lane VM: one decoded instruction
    /// stream over all lanes. See [`CompiledKernel::run_batch`].
    pub fn run_batch(
        &self,
        scalar_inputs: &[HashMap<String, i64>],
        streams: &mut [StreamBundle],
    ) -> BatchOutcome {
        self.compiled.run_batch(scalar_inputs, streams)
    }
}
