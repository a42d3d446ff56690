//! The Eigen-style competitor: vectorized fixed-size expression templates.
//!
//! Eigen inlines everything (no call overhead) and vectorizes, but:
//! each statement is evaluated in isolation (C++ templates cannot fuse
//! across statements), kernels are generic loop code rather than
//! size-specialized straight-line code, and there is no algorithmic
//! autotuning. We model this by lowering with loops preferred, disabling
//! the cross-statement load/store forwarding, and capping unrolling.

use crate::BaselineCode;
use slingen_cir::passes::{optimize, PassConfig};
use slingen_ir::Program;
use slingen_lgen::{lower_program, LowerOptions};
use slingen_synth::{synthesize_program, AlgorithmDb, Policy};
use slingen_vm::KernelLib;

/// Generate Eigen-style template code.
///
/// # Errors
///
/// Propagates synthesis/lowering failures.
pub fn template_codegen(program: &Program) -> Result<BaselineCode, Box<dyn std::error::Error>> {
    let mut db = AlgorithmDb::new();
    let basic = synthesize_program(program, Policy::Lazy, 4, &mut db)?;
    let opts = LowerOptions { nu: 4, loop_threshold: 8 };
    let mut f = lower_program(program, &basic, program.name(), &opts)?;
    let passes = PassConfig {
        unroll_budget: 512,
        load_store_analysis: false,
        scalar_replacement: false,
        cse: true,
        fma_contraction: false,
        iterations: 2,
    };
    optimize(&mut f, &passes);
    Ok(BaselineCode { function: f, kernels: KernelLib::new() })
}

#[cfg(test)]
mod tests {
    use super::*;
    use slingen_ir::{Expr, OperandDecl, ProgramBuilder};

    #[test]
    fn template_code_is_vectorized() {
        let mut b = ProgramBuilder::new("axpyish");
        let a = b.declare(OperandDecl::mat_in("A", 8, 8));
        let c = b.declare(OperandDecl::mat_in("B", 8, 8));
        let y = b.declare(OperandDecl::mat_out("Y", 8, 8));
        b.assign(y, Expr::op(a).mul(Expr::op(c)));
        let p = b.build().unwrap();
        let code = template_codegen(&p).unwrap();
        let mut vops = 0;
        code.function.for_each_instr(&mut |i| {
            if matches!(i, slingen_cir::Instr::VBin { .. }) {
                vops += 1;
            }
        });
        assert!(vops > 0, "Eigen baseline vectorizes");
    }
}
