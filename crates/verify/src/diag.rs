//! Structured diagnostics produced by the static passes.

use drs_sim::{Block, BlockId};
use std::fmt;

/// How serious a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Suspicious but not necessarily wrong (dead writes, odd geometry).
    Warning,
    /// The program or configuration would make the timing model lie.
    Error,
}

/// Which static check produced a diagnostic. Every check has a stable,
/// distinct code string so tests (and CI greps) can key on it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Check {
    /// The program has no blocks at all.
    EmptyProgram,
    /// A terminator targets a block id outside the program.
    DanglingTarget,
    /// A block can never be reached from the entry block.
    UnreachableBlock,
    /// No `Exit` terminator is reachable from the entry block.
    NoExit,
    /// A branch's declared `reconverge` is not the true immediate
    /// post-dominator of the branch.
    ReconvergeMismatch,
    /// Some path reaches `Exit` with reconvergence entries still pending —
    /// a divergent subset of the warp would terminate the whole warp.
    NonUniformExit,
    /// The reconvergence stack grows without bound along some cycle.
    UnboundedStack,
    /// The stack abstract interpretation gave up before exploring every
    /// reachable (block, context) state.
    StackAnalysisTruncated,
    /// A register is read on some op although no path from entry ever
    /// writes it first.
    ReadBeforeWrite,
    /// A register write whose value no path ever reads.
    DeadWrite,
    /// A micro-op names a register the engine's scoreboard cannot track.
    RegisterOutOfRange,
    /// The live register set at a shuffle-eligible point does not match
    /// the kernel's declared per-ray live-register count.
    ShuffleLiveMismatch,
    /// Cache line size is not a power of two.
    BadLineSize,
    /// A cache level's set count is not a power of two (the index function
    /// then aliases unevenly).
    NonPowerOfTwoSets,
    /// Fewer than one MSHR entry — misses could never be outstanding.
    MshrTooFew,
    /// Register bank count does not divide evenly against the warp width.
    BankLaneMismatch,
    /// More warp schedulers than dispatch units.
    SchedulerOversubscribed,
    /// SIMD lane count outside the supported 1..=32 range.
    BadLaneCount,
    /// Zero resident warps.
    NoWarps,
    /// More warps on one scheduler than its ready mask holds.
    SchedulerWarpOverflow,
}

impl Check {
    /// Stable machine-readable code for this check.
    pub fn code(self) -> &'static str {
        match self {
            Check::EmptyProgram => "empty-program",
            Check::DanglingTarget => "dangling-target",
            Check::UnreachableBlock => "unreachable-block",
            Check::NoExit => "no-exit",
            Check::ReconvergeMismatch => "reconverge-mismatch",
            Check::NonUniformExit => "non-uniform-exit",
            Check::UnboundedStack => "unbounded-stack",
            Check::StackAnalysisTruncated => "stack-analysis-truncated",
            Check::ReadBeforeWrite => "read-before-write",
            Check::DeadWrite => "dead-write",
            Check::RegisterOutOfRange => "register-out-of-range",
            Check::ShuffleLiveMismatch => "shuffle-live-mismatch",
            Check::BadLineSize => "bad-line-size",
            Check::NonPowerOfTwoSets => "non-power-of-two-sets",
            Check::MshrTooFew => "mshr-too-few",
            Check::BankLaneMismatch => "bank-lane-mismatch",
            Check::SchedulerOversubscribed => "scheduler-oversubscribed",
            Check::BadLaneCount => "bad-lane-count",
            Check::NoWarps => "no-warps",
            Check::SchedulerWarpOverflow => "scheduler-warp-overflow",
        }
    }

    /// Default severity of this check.
    pub fn severity(self) -> Severity {
        match self {
            Check::UnreachableBlock
            | Check::StackAnalysisTruncated
            | Check::DeadWrite
            | Check::NonPowerOfTwoSets
            | Check::BankLaneMismatch => Severity::Warning,
            _ => Severity::Error,
        }
    }
}

/// One finding: a check, where it fired, and a human-readable message that
/// names block labels rather than raw indices.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// The check that fired.
    pub check: Check,
    /// Severity (derived from the check).
    pub severity: Severity,
    /// Block the finding anchors to, when applicable.
    pub block: Option<BlockId>,
    /// Full message.
    pub message: String,
}

impl Diagnostic {
    /// Build a diagnostic with the check's default severity.
    pub fn new(check: Check, block: Option<BlockId>, message: String) -> Diagnostic {
        Diagnostic { check, severity: check.severity(), block, message }
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let sev = match self.severity {
            Severity::Error => "error",
            Severity::Warning => "warning",
        };
        write!(f, "{sev}[{}]: {}", self.check.code(), self.message)
    }
}

/// The result of verifying one program or configuration.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// All findings, in pass order.
    pub diagnostics: Vec<Diagnostic>,
}

impl Report {
    /// Append a finding.
    pub fn push(&mut self, d: Diagnostic) {
        self.diagnostics.push(d);
    }

    /// Error-severity findings.
    pub fn errors(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics.iter().filter(|d| d.severity == Severity::Error)
    }

    /// Warning-severity findings.
    pub fn warnings(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics.iter().filter(|d| d.severity == Severity::Warning)
    }

    /// True when no error-severity diagnostic fired (warnings are allowed).
    pub fn is_clean(&self) -> bool {
        self.errors().next().is_none()
    }

    /// True if any diagnostic of `check` fired.
    pub fn has(&self, check: Check) -> bool {
        self.diagnostics.iter().any(|d| d.check == check)
    }

    /// Merge another report into this one.
    pub fn merge(&mut self, other: Report) {
        self.diagnostics.extend(other.diagnostics);
    }
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.diagnostics.is_empty() {
            return writeln!(f, "clean: no findings");
        }
        for d in &self.diagnostics {
            writeln!(f, "{d}")?;
        }
        Ok(())
    }
}

/// Format a block reference as ``block 3 `mid_head` `` for messages.
pub(crate) fn bname(blocks: &[Block], id: BlockId) -> String {
    match blocks.get(id as usize) {
        Some(b) => format!("block {id} `{}`", b.label),
        None => format!("block {id} (out of range)"),
    }
}
