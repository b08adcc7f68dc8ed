//! Deterministic fault injection for the experiment pool.
//!
//! Fault tolerance that is only exercised by real hardware failures is
//! untestable. A [`FaultPlan`] makes every failure mode the pool defends
//! against — worker panics, corrupted capture-cache entries, watchdog
//! trips, cycle-budget exhaustion, corrupted full-chip configurations —
//! reproducible on demand: faults are
//! addressed either at a fixed job index (`panic@3`) or pseudo-randomly
//! from a seed and the job's content id (`watchdog~8` ≈ one job in eight),
//! so the same plan over the same grid always injects the same faults.
//!
//! A rule fires on every attempt by default (a *permanent* fault that
//! exhausts the retry budget and surfaces as a
//! [`CellFailure`](crate::results::CellFailure)), or only on the first `T`
//! attempts with an `xT` suffix (a *transient* fault the retry layer
//! recovers from): `panic@1x1` panics the first attempt of job 1 and lets
//! the retry succeed.
//!
//! Plans parse from a compact spec string (the `--inject` flag):
//!
//! ```text
//! seed=7,panic@1,cache~4x1,watchdog@2,budget@0
//! ```

use crate::job::{fnv1a64, JobId};
use std::fmt;

/// The failure modes the pool can inject.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Panic inside the worker closure (exercises `catch_unwind` isolation).
    WorkerPanic,
    /// Flip a bit of this job's workload entry in the capture cache
    /// before the capture phase reads it, exercising the trace decoder's
    /// detection and the quarantine-and-recapture path end to end.
    /// Absorbed silently when the run has no cache (or the entry does not
    /// exist yet).
    CacheCorrupt,
    /// Trip the simulator's no-progress watchdog early.
    WatchdogTrip,
    /// Exhaust a tiny per-job cycle budget.
    BudgetExhaust,
    /// Corrupt the full-chip configuration (zero SMs) so the attempt
    /// fails the simulator's typed `chip_config` validation.
    ChipConfigCorrupt,
    /// Flip a bit of this job's result-store entry before the pool's
    /// store lookup, exercising the footer-checksum detection and the
    /// quarantine-and-recompute path end-to-end. Absorbed silently when
    /// the run has no store (or the entry does not exist yet).
    StoreCorrupt,
}

impl FaultKind {
    /// Spec keyword and failure-record label.
    pub fn label(&self) -> &'static str {
        match self {
            FaultKind::WorkerPanic => "panic",
            FaultKind::CacheCorrupt => "cache",
            FaultKind::WatchdogTrip => "watchdog",
            FaultKind::BudgetExhaust => "budget",
            FaultKind::ChipConfigCorrupt => "chipcfg",
            FaultKind::StoreCorrupt => "store",
        }
    }

    fn from_keyword(word: &str) -> Option<FaultKind> {
        match word {
            "panic" => Some(FaultKind::WorkerPanic),
            "cache" => Some(FaultKind::CacheCorrupt),
            "watchdog" => Some(FaultKind::WatchdogTrip),
            "budget" => Some(FaultKind::BudgetExhaust),
            "chipcfg" => Some(FaultKind::ChipConfigCorrupt),
            "store" => Some(FaultKind::StoreCorrupt),
            _ => None,
        }
    }
}

/// Which jobs a rule targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Target {
    /// The job at this index in the (deterministic) job order.
    Index(usize),
    /// Seed-addressed: jobs whose `fnv1a64(seed ‖ id ‖ kind) % n == 0`.
    OneIn(u64),
}

/// One injection rule: a fault kind, the jobs it hits, and how many
/// attempts it fires on (`None` = every attempt).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultRule {
    kind: FaultKind,
    target: Target,
    times: Option<u32>,
}

/// A deterministic set of injection rules. Equal plans over equal job
/// grids inject identical faults on every run and machine.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Seed mixed into the pseudo-random (`~n`) addressing.
    pub seed: u64,
    rules: Vec<FaultRule>,
}

/// A malformed `--inject` spec, with the offending clause.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultSpecError(String);

impl fmt::Display for FaultSpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "bad fault spec '{}': expected clauses like 'seed=N', 'panic@IDX[xT]' or \
             'watchdog~N[xT]' with kinds \
             panic|cache|watchdog|budget|chipcfg|store",
            self.0
        )
    }
}

impl std::error::Error for FaultSpecError {}

impl FaultPlan {
    /// Parse a comma-separated spec: `seed=N` sets the addressing seed;
    /// every other clause is `KIND@INDEX` or `KIND~ONE_IN`, optionally
    /// suffixed `xTIMES` to fire only on the first `TIMES` attempts.
    ///
    /// # Errors
    ///
    /// Returns [`FaultSpecError`] naming the first malformed clause.
    pub fn parse(spec: &str) -> Result<FaultPlan, FaultSpecError> {
        let mut plan = FaultPlan::default();
        for clause in spec.split(',').map(str::trim).filter(|c| !c.is_empty()) {
            if let Some(seed) = clause.strip_prefix("seed=") {
                plan.seed = seed.parse().map_err(|_| FaultSpecError(clause.to_string()))?;
                continue;
            }
            let err = || FaultSpecError(clause.to_string());
            let (head, times) = match clause.rsplit_once('x') {
                Some((head, t)) if !t.is_empty() && t.bytes().all(|b| b.is_ascii_digit()) => {
                    (head, Some(t.parse().map_err(|_| err())?))
                }
                _ => (clause, None),
            };
            if let Some(t) = times {
                if t == 0 {
                    return Err(err());
                }
            }
            let (kind, target) = if let Some((k, idx)) = head.split_once('@') {
                (k, Target::Index(idx.parse().map_err(|_| err())?))
            } else if let Some((k, n)) = head.split_once('~') {
                let n: u64 = n.parse().map_err(|_| err())?;
                if n == 0 {
                    return Err(err());
                }
                (k, Target::OneIn(n))
            } else {
                return Err(err());
            };
            let kind = FaultKind::from_keyword(kind).ok_or_else(err)?;
            plan.rules.push(FaultRule { kind, target, times });
        }
        Ok(plan)
    }

    /// True when the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// The fault (if any) to inject for attempt `attempt` (1-based) of the
    /// job at `index` with content id `id`. Pure: depends only on the
    /// arguments and the plan, never on timing or scheduling. The first
    /// matching rule wins.
    pub fn fault_for(&self, index: usize, id: JobId, attempt: u32) -> Option<FaultKind> {
        self.rules
            .iter()
            .find(|r| {
                let hits_job = match r.target {
                    Target::Index(i) => i == index,
                    Target::OneIn(n) => {
                        let key = format!("{};{};{}", self.seed, id, r.kind.label());
                        fnv1a64(key.as_bytes()).is_multiple_of(n)
                    }
                };
                hits_job && r.times.is_none_or(|t| attempt <= t)
            })
            .map(|r| r.kind)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_every_clause_form() {
        let plan = FaultPlan::parse(
            "seed=7,panic@1,cache~4x1,watchdog@2x3,budget@0,chipcfg@4,store@5,store~3",
        )
        .unwrap();
        assert_eq!(plan.seed, 7);
        assert_eq!(plan.rules.len(), 7);
        assert_eq!(
            plan.rules[0],
            FaultRule { kind: FaultKind::WorkerPanic, target: Target::Index(1), times: None }
        );
        assert_eq!(
            plan.rules[1],
            FaultRule { kind: FaultKind::CacheCorrupt, target: Target::OneIn(4), times: Some(1) }
        );
        assert_eq!(
            plan.rules[2],
            FaultRule { kind: FaultKind::WatchdogTrip, target: Target::Index(2), times: Some(3) }
        );
        assert_eq!(
            plan.rules[4],
            FaultRule { kind: FaultKind::ChipConfigCorrupt, target: Target::Index(4), times: None }
        );
        assert_eq!(
            plan.rules[5],
            FaultRule { kind: FaultKind::StoreCorrupt, target: Target::Index(5), times: None }
        );
        assert_eq!(
            plan.rules[6],
            FaultRule { kind: FaultKind::StoreCorrupt, target: Target::OneIn(3), times: None }
        );
        assert!(FaultPlan::parse("").unwrap().is_empty());
        assert!(FaultPlan::parse("  ").unwrap().is_empty());
    }

    #[test]
    fn rejects_malformed_clauses() {
        for bad in [
            "frob@1",
            "panic",
            "panic@",
            "panic@x",
            "panic~0",
            "panic@1x0",
            "seed=x",
            "@3",
            "~2",
            "disconnect@1",
        ] {
            let err = FaultPlan::parse(bad).unwrap_err();
            assert!(err.to_string().contains("bad fault spec"), "{bad}: {err}");
        }
    }

    #[test]
    fn index_rules_fire_on_the_right_job_and_attempts() {
        let plan = FaultPlan::parse("panic@2x1,watchdog@3").unwrap();
        let id = JobId(0xabcd);
        assert_eq!(plan.fault_for(2, id, 1), Some(FaultKind::WorkerPanic));
        assert_eq!(plan.fault_for(2, id, 2), None, "x1 rules stop after the first attempt");
        assert_eq!(plan.fault_for(3, id, 1), Some(FaultKind::WatchdogTrip));
        assert_eq!(plan.fault_for(3, id, 99), Some(FaultKind::WatchdogTrip));
        assert_eq!(plan.fault_for(0, id, 1), None);
    }

    #[test]
    fn seeded_rules_are_deterministic_and_seed_sensitive() {
        let a = FaultPlan::parse("seed=1,cache~2").unwrap();
        let b = FaultPlan::parse("seed=2,cache~2").unwrap();
        let ids: Vec<JobId> = (0..64).map(|i| JobId(0x1000 + i * 7919)).collect();
        let hit = |plan: &FaultPlan| -> Vec<bool> {
            ids.iter().map(|&id| plan.fault_for(0, id, 1).is_some()).collect()
        };
        assert_eq!(hit(&a), hit(&a), "same plan, same faults");
        assert_ne!(hit(&a), hit(&b), "different seeds address different jobs");
        let hits = hit(&a).iter().filter(|&&h| h).count();
        assert!(hits > 8 && hits < 56, "~one in two of 64 jobs, got {hits}");
    }

    #[test]
    fn first_matching_rule_wins() {
        let plan = FaultPlan::parse("budget@1,panic@1").unwrap();
        assert_eq!(plan.fault_for(1, JobId(1), 1), Some(FaultKind::BudgetExhaust));
    }
}
