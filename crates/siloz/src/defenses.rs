//! Competing software Rowhammer defenses (§3, §8.3), for comparison.
//!
//! Three families the paper analyzes:
//!
//! - **Guard-row schemes** (ZebRAM-like): reserve guard rows between normal
//!   rows. Protecting arbitrary data costs ≥50% of DRAM at 1 guard per
//!   normal row, rising to 80% at the 4 guards modern DIMMs require — versus
//!   Siloz's ≈0.024%/bank reservation for EPTs only.
//! - **Software refresh** (SoftTRR-like, §8.3): periodically refresh
//!   protected rows from software. Needs hard ≤1 ms periods, which generic
//!   Linux scheduling cannot guarantee: the paper observed gaps beyond 32 ms.
//! - **Copy-on-Flip**: react to ECC-corrected errors by migrating the
//!   attacked (movable) pages; leaves unmovable pages unprotected and leaks
//!   through corrected-error side channels.

use crate::hypervisor::Hypervisor;
use crate::vm::VmHandle;
use crate::SilozError;
use rand::Rng;

/// DRAM overhead of a guard-row scheme protecting arbitrary data with
/// `guards` guard rows per normal row (§3).
#[must_use]
pub fn guard_row_overhead(guards: u32) -> f64 {
    guards as f64 / (guards as f64 + 1.0)
}

/// Guard-row cost of protecting a region of `protect_rows` rows, in total
/// reserved rows.
#[must_use]
pub fn guard_rows_needed(protect_rows: u64, guards: u32) -> u64 {
    protect_rows * guards as u64
}

/// Report of a simulated software-refresh run (§8.3).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SoftRefreshReport {
    /// Ticks simulated.
    pub ticks: u64,
    /// Minimum achieved period, milliseconds.
    pub min_period_ms: f64,
    /// Maximum achieved period, milliseconds.
    pub max_period_ms: f64,
    /// Mean achieved period, milliseconds.
    pub mean_period_ms: f64,
    /// Periods exceeding the 1 ms protection deadline.
    pub missed_deadlines: u64,
    /// Periods exceeding 32 ms (over 32 times a safe period, §8.3).
    pub gross_misses: u64,
}

impl SoftRefreshReport {
    /// Whether the run left protected rows exposed at any point.
    #[must_use]
    pub fn left_rows_vulnerable(&self) -> bool {
        self.missed_deadlines > 0
    }
}

/// Scheduling environment for the software-refresh daemon.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SchedulerModel {
    /// Scheduler timeslice granularity in ms: a woken task waits at least
    /// this long between runs (Linux: ≥1 ms; §8.3: "we observed a minimum
    /// of 1 ms between software refreshes").
    pub min_period_ms: f64,
    /// Probability a tick is delayed by preemption/softirq pressure.
    pub preempt_prob: f64,
    /// Maximum preemption delay, ms.
    pub preempt_max_ms: f64,
    /// Probability a tick is dropped/delayed with interrupts disabled or
    /// the tick stopped on an idle core (§8.3), causing a long gap.
    pub tick_drop_prob: f64,
    /// Maximum long-gap length, ms.
    pub tick_drop_max_ms: f64,
}

impl Default for SchedulerModel {
    /// A generic production configuration (no real-time patches).
    fn default() -> Self {
        Self {
            min_period_ms: 1.0,
            preempt_prob: 0.02,
            preempt_max_ms: 4.0,
            tick_drop_prob: 0.0005,
            tick_drop_max_ms: 40.0,
        }
    }
}

/// Simulates a SoftTRR-style refresh daemon targeting a 1 ms period for
/// `ticks` iterations under `model` (§8.3).
pub fn simulate_soft_refresh<R: Rng>(
    model: &SchedulerModel,
    ticks: u64,
    rng: &mut R,
) -> SoftRefreshReport {
    let mut min = f64::INFINITY;
    let mut max: f64 = 0.0;
    let mut sum = 0.0;
    let mut missed = 0u64;
    let mut gross = 0u64;
    for _ in 0..ticks {
        let mut period = model.min_period_ms * (1.0 + rng.gen_range(0.0..0.05));
        if rng.gen_bool(model.preempt_prob) {
            period += rng.gen_range(0.0..model.preempt_max_ms);
        }
        if rng.gen_bool(model.tick_drop_prob) {
            period += rng.gen_range(model.tick_drop_max_ms / 2.0..model.tick_drop_max_ms);
        }
        min = min.min(period);
        max = max.max(period);
        sum += period;
        if period > 1.0 {
            missed += 1;
        }
        if period > 32.0 {
            gross += 1;
        }
    }
    SoftRefreshReport {
        ticks,
        min_period_ms: min,
        max_period_ms: max,
        mean_period_ms: sum / ticks.max(1) as f64,
        missed_deadlines: missed,
        gross_misses: gross,
    }
}

/// Result of a Copy-on-Flip response pass.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct CopyOnFlipReport {
    /// Corrected-error locations observed by the scrub.
    pub corrected_errors: usize,
    /// VM blocks migrated away from attacked rows.
    pub migrated_blocks: usize,
    /// Corrected errors in unmovable (non-VM) memory: Copy-on-Flip cannot
    /// protect these (§3).
    pub unmovable_hits: usize,
}

/// Runs one Copy-on-Flip response cycle for `vm`: patrol-scrubs the DRAM,
/// then migrates every VM backing block containing a corrected error.
///
/// Mirrors the §3 defense: it reacts only *after* ECC already corrected a
/// disturbance (which itself is a side channel), and cannot move unmovable
/// pages.
pub fn copy_on_flip_respond(
    hv: &mut Hypervisor,
    vm: VmHandle,
    max_migrations: usize,
) -> Result<CopyOnFlipReport, SilozError> {
    let scrub = hv.dram_mut().scrub();
    let mut report = CopyOnFlipReport {
        corrected_errors: scrub.corrected.len(),
        ..CopyOnFlipReport::default()
    };
    let backing = crate::vm::BackingIndex::new(hv.vm_unmediated_backing(vm)?);
    let decoder = hv.decoder().clone();
    // Sorted for O(log n) dedup below — a scrub pass over a wide blast
    // radius revisits the same blocks once per corrected line, and the
    // former `contains` scan made the loop quadratic in migrated blocks.
    let mut migrated_gpas: Vec<u64> = Vec::new();
    for (bank, row, _byte) in &scrub.corrected {
        // Which frames have lines in the corrected (bank, row)?
        let frames = crate::artificial::frames_touching_bank_row(&decoder, *bank, *row)?;
        let mut hit_vm = false;
        for frame in frames {
            if let Some(block) = backing.block_of_frame(frame) {
                hit_vm = true;
                let gpa = block.gpa;
                if let Err(slot) = migrated_gpas.binary_search(&gpa) {
                    if report.migrated_blocks < max_migrations {
                        hv.migrate_block(vm, gpa)?;
                        migrated_gpas.insert(slot, gpa);
                        report.migrated_blocks += 1;
                    }
                }
            }
        }
        if !hit_vm {
            report.unmovable_hits += 1;
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn guard_row_overheads_match_paper() {
        // §3: ZebRAM's 50% at 1:1 rises to 80% at 4 guards per normal row.
        assert!((guard_row_overhead(1) - 0.5).abs() < 1e-12);
        assert!((guard_row_overhead(4) - 0.8).abs() < 1e-12);
        assert_eq!(guard_rows_needed(1000, 4), 4000);
    }

    #[test]
    fn soft_refresh_misses_deadlines_under_generic_scheduling() {
        // §8.3: scheduling a 1 ms software refresh on a generic kernel does
        // not consistently meet deadlines; gaps can exceed 32 ms.
        let mut rng = rand::rngs::StdRng::seed_from_u64(83);
        let report = simulate_soft_refresh(&SchedulerModel::default(), 100_000, &mut rng);
        assert!(
            report.min_period_ms >= 1.0,
            "Linux enforces >= 1 ms periods"
        );
        assert!(report.missed_deadlines > 0);
        assert!(report.gross_misses > 0, "some gaps exceed 32 ms");
        assert!(report.max_period_ms > 32.0);
        assert!(report.left_rows_vulnerable());
    }

    #[test]
    fn ideal_real_time_scheduler_would_be_safe_but_is_unavailable() {
        // With zero jitter the scheme works — the paper's point is that
        // generic production kernels cannot provide this.
        let ideal = SchedulerModel {
            min_period_ms: 0.9,
            preempt_prob: 0.0,
            preempt_max_ms: 0.0,
            tick_drop_prob: 0.0,
            tick_drop_max_ms: 0.0,
        };
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let report = simulate_soft_refresh(&ideal, 10_000, &mut rng);
        assert_eq!(report.missed_deadlines, 0);
        assert!(!report.left_rows_vulnerable());
    }

    #[test]
    fn soft_refresh_report_statistics_are_coherent() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let report = simulate_soft_refresh(&SchedulerModel::default(), 5_000, &mut rng);
        assert!(report.min_period_ms <= report.mean_period_ms);
        assert!(report.mean_period_ms <= report.max_period_ms);
        assert_eq!(report.ticks, 5_000);
        assert!(report.gross_misses <= report.missed_deadlines);
    }
}
