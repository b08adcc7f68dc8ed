//! Static verification of kernel micro-op [`Program`]s and
//! [`GpuConfig`](drs_sim::GpuConfig)s.
//!
//! The simulator's timing fidelity rests on hand-assembled programs whose
//! `Branch::reconverge` fields *declare* each branch's immediate
//! post-dominator. A wrong declaration makes the SIMT reconvergence stack
//! model impossible hardware — silently. This crate machine-checks every
//! program before it reaches the engine:
//!
//! 1. **CFG well-formedness** — nonempty, no dangling block targets,
//!    everything reachable from entry, an `Exit` reachable at all.
//! 2. **IPDOM verification** — true immediate post-dominators computed over
//!    the CFG and diffed against each branch's declared `reconverge`.
//! 3. **Register dataflow** — reads of registers no path ever writes
//!    (scoreboard lies) and writes no path ever reads.
//! 4. **SIMT-stack discipline** — abstract interpretation of push/pop
//!    balance: no path may reach `Exit` with reconvergence pending, and no
//!    cycle may grow the stack without bound.
//! 5. **Config lints** — cache geometry, MSHR sizing, bank/lane striping.
//!
//! Beyond the checklist, the crate is an **abstract-interpretation
//! framework**: [`solver`] is a generic worklist fixpoint solver over the
//! CFG (forward/backward, join-lattice [`solver::Analysis`] trait), and
//! [`liveness`] (backward liveness, reaching definitions, register
//! pressure) and [`shuffle`] (per-point live sets at shuffle-eligible
//! points — natural-loop headers and reconvergence points — plus static
//! SIMT-stack and scoreboard bounds) are analyses built on it. The
//! [`shuffle::LiveSetSummary`] pins the swap engine's 17-register
//! transfer cost: every shuffle point of both traversal kernels must have
//! exactly that many live registers.
//!
//! Entry points: [`verify_program`] / [`verify_blocks`] for programs,
//! [`verify_config`] for configurations, [`shuffle::live_set_summary`]
//! for the derived cost/bound summary, and [`assert_program_valid`] /
//! [`assert_shuffle_live`] for the debug-build hooks kernels call from
//! their constructors. The `experiments verify` command runs all of them
//! over every shipped kernel and the gtx780 configuration.

#![warn(missing_docs)]

mod cfg;
mod config_lint;
mod dataflow;
mod diag;
pub mod liveness;
mod loops;
pub mod shuffle;
pub mod solver;
mod stack;

pub use config_lint::verify_config;
pub use diag::{Check, Diagnostic, Report, Severity};
pub use loops::LoopInfo;
pub use shuffle::{live_set_summary, LiveSetSummary, ShufflePoint};

use drs_sim::{Block, Program};

/// Verify a fully-assembled program.
pub fn verify_program(program: &Program) -> Report {
    verify_blocks(program.blocks())
}

/// Verify raw blocks (usable before [`Program::new`], which panics on
/// dangling targets before a structured diagnostic could be produced).
pub fn verify_blocks(blocks: &[Block]) -> Report {
    let mut report = Report::default();
    if !cfg::check_structure(blocks, &mut report) {
        // The graph is broken; deeper passes would index out of range.
        return report;
    }
    let reach = cfg::reachable(blocks);
    cfg::check_reachability(blocks, &reach, &mut report);
    cfg::check_reconverge(blocks, &reach, &mut report);
    dataflow::check_register_range(blocks, &mut report);
    dataflow::check_read_before_write(blocks, &reach, &mut report);
    dataflow::check_dead_writes(blocks, &reach, &mut report);
    stack::check_stack_discipline(blocks, &mut report);
    report
}

/// Panic with the full report if `program` has any error-severity finding.
///
/// Kernel constructors call this under `cfg(debug_assertions)` so a bad
/// reconvergence declaration fails fast in development and tests while
/// release binaries skip the cost.
///
/// # Panics
///
/// Panics when verification reports at least one error.
pub fn assert_program_valid(name: &str, program: &Program) {
    let report = verify_program(program);
    assert!(report.is_clean(), "program `{name}` failed static verification:\n{report}");
}

/// Panic when any shuffle-eligible point of `program` has a live register
/// set whose size differs from `expected` (the kernel's declared per-ray
/// live-register count, e.g. `RAY_LIVE_REGISTERS`).
///
/// Kernel constructors call this under `cfg(debug_assertions)` so an edit
/// that changes the live state at a shuffle point — and therefore the
/// shuffle's true transfer cost — fails loudly at construction.
///
/// # Panics
///
/// Panics when any shuffle point's live count differs from `expected`.
pub fn assert_shuffle_live(name: &str, program: &Program, expected: usize) {
    let mut report = Report::default();
    shuffle::check_shuffle_live(program.blocks(), expected, &mut report);
    assert!(
        report.is_clean(),
        "program `{name}` has shuffle points whose live set is not {expected} registers:\n{report}"
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use drs_sim::{GpuConfig, MemSpace, MicroOp, Terminator};

    fn block(label: &'static str, ops: Vec<MicroOp>, t: Terminator) -> Block {
        Block::new(label, ops, t)
    }

    /// entry -> {body | exit}, body -> exit: the smallest valid diamond.
    fn tiny_valid() -> Vec<Block> {
        vec![
            block(
                "entry",
                vec![MicroOp::alu(0, &[], 1)],
                Terminator::Branch { cond: 0, on_true: 1, on_false: 2, reconverge: 2 },
            ),
            block("body", vec![MicroOp::alu(1, &[0], 1)], Terminator::Jump(2)),
            block("exit", vec![MicroOp::store(MemSpace::Global, 0, &[0])], Terminator::Exit),
        ]
    }

    #[test]
    fn tiny_program_is_clean() {
        let r = verify_blocks(&tiny_valid());
        assert!(r.is_clean(), "unexpected findings:\n{r}");
    }

    #[test]
    fn empty_program_flagged() {
        let r = verify_blocks(&[]);
        assert!(r.has(Check::EmptyProgram));
        assert!(!r.is_clean());
    }

    #[test]
    fn dangling_target_flagged() {
        let blocks = vec![block("entry", vec![], Terminator::Jump(7))];
        let r = verify_blocks(&blocks);
        assert!(r.has(Check::DanglingTarget));
    }

    #[test]
    fn unreachable_block_warns() {
        let mut blocks = tiny_valid();
        blocks.push(block("orphan", vec![], Terminator::Jump(2)));
        let r = verify_blocks(&blocks);
        assert!(r.has(Check::UnreachableBlock));
        // Unreachability alone is a warning, not an error.
        assert!(r.is_clean(), "{r}");
    }

    #[test]
    fn missing_exit_flagged() {
        let blocks =
            vec![block("a", vec![], Terminator::Jump(1)), block("b", vec![], Terminator::Jump(0))];
        let r = verify_blocks(&blocks);
        assert!(r.has(Check::NoExit));
    }

    #[test]
    fn wrong_reconverge_flagged() {
        let mut blocks = tiny_valid();
        // Declare reconvergence at the body instead of the true IPDOM (exit).
        blocks[0].terminator =
            Terminator::Branch { cond: 0, on_true: 1, on_false: 2, reconverge: 1 };
        let r = verify_blocks(&blocks);
        assert!(r.has(Check::ReconvergeMismatch), "{r}");
        let d = r.diagnostics.iter().find(|d| d.check == Check::ReconvergeMismatch).unwrap();
        assert!(d.message.contains("`body`") && d.message.contains("`exit`"), "{}", d.message);
    }

    #[test]
    fn loop_ipdom_verified() {
        // head: branch body/exit rec=exit; body jumps back to head.
        let blocks = vec![
            block(
                "head",
                vec![],
                Terminator::Branch { cond: 0, on_true: 1, on_false: 2, reconverge: 2 },
            ),
            block("body", vec![], Terminator::Jump(0)),
            block("exit", vec![], Terminator::Exit),
        ];
        assert!(verify_blocks(&blocks).is_clean());
        // Declaring the loop head as the reconvergence point is wrong: the
        // false path never passes through it again.
        let mut bad = blocks;
        bad[0].terminator = Terminator::Branch { cond: 0, on_true: 1, on_false: 2, reconverge: 0 };
        assert!(verify_blocks(&bad).has(Check::ReconvergeMismatch));
    }

    #[test]
    fn non_uniform_exit_flagged() {
        // The true path exits directly, bypassing the declared reconvergence.
        let blocks = vec![
            block(
                "entry",
                vec![],
                Terminator::Branch { cond: 0, on_true: 1, on_false: 2, reconverge: 2 },
            ),
            block("early_out", vec![], Terminator::Exit),
            block("exit", vec![], Terminator::Exit),
        ];
        let r = verify_blocks(&blocks);
        assert!(r.has(Check::NonUniformExit), "{r}");
        // The same CFG also has a reconvergence mismatch (paths never rejoin).
        assert!(r.has(Check::ReconvergeMismatch));
    }

    #[test]
    fn read_before_write_flagged() {
        let blocks = vec![
            block("entry", vec![MicroOp::alu(1, &[5], 1)], Terminator::Jump(1)),
            block("exit", vec![MicroOp::store(MemSpace::Global, 0, &[1])], Terminator::Exit),
        ];
        let r = verify_blocks(&blocks);
        assert!(r.has(Check::ReadBeforeWrite), "{r}");
        assert!(!r.is_clean());
    }

    #[test]
    fn loop_carried_defs_are_not_read_before_write() {
        // r1 is only written in the loop body, but the body's read of r1
        // *may* see the previous iteration's write — not an error.
        let blocks = vec![
            block(
                "head",
                vec![],
                Terminator::Branch { cond: 0, on_true: 1, on_false: 2, reconverge: 2 },
            ),
            block("body", vec![MicroOp::alu(1, &[1], 1)], Terminator::Jump(0)),
            block("exit", vec![MicroOp::store(MemSpace::Global, 0, &[1])], Terminator::Exit),
        ];
        let r = verify_blocks(&blocks);
        assert!(!r.has(Check::ReadBeforeWrite), "{r}");
    }

    #[test]
    fn dead_write_warns() {
        let blocks = vec![
            block("entry", vec![MicroOp::alu(3, &[], 1)], Terminator::Jump(1)),
            block("exit", vec![], Terminator::Exit),
        ];
        let r = verify_blocks(&blocks);
        assert!(r.has(Check::DeadWrite), "{r}");
        // Dead writes are warnings: the program still simulates correctly.
        assert!(r.is_clean());
    }

    #[test]
    fn register_out_of_range_flagged() {
        let blocks = vec![
            block("entry", vec![MicroOp::alu(63, &[], 1)], Terminator::Jump(1)),
            block("exit", vec![MicroOp::alu(64, &[63], 1)], Terminator::Exit),
        ];
        let r = verify_blocks(&blocks);
        assert!(r.has(Check::RegisterOutOfRange), "{r}");
    }

    #[test]
    fn nested_divergence_is_clean() {
        // Outer diamond with an inner diamond on the true path; both declare
        // correct IPDOMs. Stack discipline must accept all interleavings.
        let blocks = vec![
            block(
                "outer",
                vec![MicroOp::alu(0, &[], 1)],
                Terminator::Branch { cond: 0, on_true: 1, on_false: 4, reconverge: 4 },
            ),
            block(
                "inner",
                vec![],
                Terminator::Branch { cond: 1, on_true: 2, on_false: 3, reconverge: 3 },
            ),
            block("inner_t", vec![MicroOp::alu(1, &[0], 1)], Terminator::Jump(3)),
            block("inner_join", vec![], Terminator::Jump(4)),
            block("outer_join", vec![MicroOp::store(MemSpace::Global, 0, &[0])], Terminator::Exit),
        ];
        let r = verify_blocks(&blocks);
        assert!(r.is_clean(), "{r}");
        assert!(!r.has(Check::NonUniformExit));
        assert!(!r.has(Check::UnboundedStack));
    }

    #[test]
    fn assert_program_valid_panics_on_bad_program() {
        let mut blocks = tiny_valid();
        blocks[0].terminator =
            Terminator::Branch { cond: 0, on_true: 1, on_false: 2, reconverge: 1 };
        let program = Program::new(blocks);
        let err = std::panic::catch_unwind(|| assert_program_valid("fixture", &program))
            .expect_err("must panic");
        let msg = err.downcast_ref::<String>().expect("panic message");
        assert!(msg.contains("reconverge-mismatch"), "{msg}");
    }

    #[test]
    fn default_config_lints_clean_of_errors() {
        let r = verify_config(&GpuConfig::gtx780());
        assert!(r.is_clean(), "{r}");
    }

    #[test]
    fn config_lints_fire() {
        let mut cfg = GpuConfig::gtx780();
        cfg.mshr_entries = 0;
        cfg.line_bytes = 100;
        cfg.register_banks = 24;
        let r = verify_config(&cfg);
        assert!(r.has(Check::MshrTooFew));
        assert!(r.has(Check::BadLineSize));
        assert!(r.has(Check::BankLaneMismatch));
        assert!(!r.is_clean());
    }

    #[test]
    fn scheduler_warp_overflow_is_an_error() {
        let mut cfg = GpuConfig::gtx780();
        cfg.max_warps = cfg.warp_schedulers * drs_sim::MAX_WARPS_PER_SCHEDULER;
        assert!(!verify_config(&cfg).has(Check::SchedulerWarpOverflow));
        cfg.max_warps += 1;
        let r = verify_config(&cfg);
        assert!(r.has(Check::SchedulerWarpOverflow));
        assert!(!r.is_clean(), "{r}");
    }
}
