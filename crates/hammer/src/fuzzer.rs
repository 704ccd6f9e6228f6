//! The Blacksmith fuzzing loop.

use crate::pattern::HammerPattern;
use crate::T_RC_NS;
use dram::flip::BitFlip;
use dram::{DramSystem, RunPlan};
use dram_addr::BankId;
use mitigation::Mitigation;
use rand::Rng;

/// tREFI in nanoseconds, mirroring the device's distributed-REF cadence —
/// the granularity at which defended campaigns feed decay ticks to a
/// [`Mitigation`] backend.
const TREFI_NS: u64 = dram::REFRESH_WINDOW_NS / dram::REFS_PER_WINDOW as u64;

/// Delivers one `on_refresh` tick per tREFI boundary crossed up to
/// `now_ns`, advancing the `next_decay_ns` cursor past it.
fn drain_decay_ticks(defense: &mut dyn Mitigation, now_ns: u64, next_decay_ns: &mut u64) {
    while now_ns >= *next_decay_ns {
        defense.on_refresh(*next_decay_ns * 1000);
        *next_decay_ns += TREFI_NS;
    }
}

/// Fuzzer configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FuzzConfig {
    /// Patterns to sample and try.
    pub patterns: u32,
    /// Pattern-period repetitions per attempt (hammering duration).
    pub periods_per_attempt: u32,
    /// Extra row-open time per activation, ns (RowPress knob; 0 = classic
    /// Rowhammer).
    pub extra_open_ns: u64,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        Self {
            patterns: 12,
            periods_per_attempt: 120_000,
            extra_open_ns: 0,
        }
    }
}

impl FuzzConfig {
    /// A short campaign for fleet scenarios: a churn simulator injects many
    /// attacks over thousands of lifecycle events, so each one samples few
    /// patterns but hammers them long enough to cross realistic Rowhammer
    /// thresholds.
    #[must_use]
    pub const fn fleet_campaign() -> Self {
        Self {
            patterns: 3,
            periods_per_attempt: 120_000,
            extra_open_ns: 0,
        }
    }
}

/// Result of a fuzzing campaign.
#[derive(Debug, Clone)]
pub struct FuzzReport {
    /// Patterns attempted.
    pub patterns_tried: u32,
    /// Total activations issued.
    pub acts: u64,
    /// Flips discovered (media coordinates), in discovery order.
    pub flips: Vec<BitFlip>,
    /// The first successful pattern, if any.
    pub effective_pattern: Option<HammerPattern>,
}

impl FuzzReport {
    /// Whether any bit flipped.
    #[must_use]
    pub fn any_flips(&self) -> bool {
        !self.flips.is_empty()
    }
}

/// The Blacksmith-style fuzzer: samples many-sided frequency-varied
/// patterns and hammers them until bits flip (§7.1).
///
/// # Examples
///
/// ```
/// use dram::DramSystemBuilder;
/// use dram_addr::{mini_geometry, BankId};
/// use hammer::{Blacksmith, FuzzConfig};
/// use rand::SeedableRng;
///
/// let mut dram = DramSystemBuilder::new(mini_geometry()).build();
/// let mut rng = rand::rngs::StdRng::seed_from_u64(7);
/// let mut fuzzer = Blacksmith::new(FuzzConfig::default());
/// let rows: Vec<u32> = (0..256).collect();
/// let report = fuzzer.fuzz(&mut dram, BankId(0), &rows, &mut rng);
/// assert!(report.any_flips(), "Blacksmith defeats the default TRR");
/// ```
#[derive(Debug)]
pub struct Blacksmith {
    config: FuzzConfig,
}

impl Blacksmith {
    /// Creates a fuzzer.
    #[must_use]
    pub fn new(config: FuzzConfig) -> Self {
        Self { config }
    }

    /// Runs the campaign against one bank, restricted to `allowed_rows`
    /// (the rows the attacker actually owns — e.g. a VM's provisioned
    /// rows). Returns all flips produced anywhere in the DRAM system during
    /// the campaign (escapes included — that is the point of the
    /// containment experiments).
    pub fn fuzz<R: Rng>(
        &mut self,
        dram: &mut DramSystem,
        bank: BankId,
        allowed_rows: &[u32],
        rng: &mut R,
    ) -> FuzzReport {
        let before = dram.flip_log().len();
        let mut acts = 0u64;
        let mut effective = None;
        let mut tried = 0u32;
        for _ in 0..self.config.patterns {
            tried += 1;
            let pattern = HammerPattern::random(allowed_rows, rng);
            let found = self.hammer(dram, bank, &pattern, &mut acts);
            if found && effective.is_none() {
                effective = Some(pattern);
                break;
            }
        }
        let flips = dram.flip_log().all()[before..].to_vec();
        FuzzReport {
            patterns_tried: tried,
            acts,
            flips,
            effective_pattern: effective,
        }
    }

    /// [`Blacksmith::fuzz`] with a live [`Mitigation`] backend in the loop:
    /// every activation is reported to `defense` (attributed to stream
    /// `source`), and any throttle delay it injects stalls the attacker in
    /// simulated time — giving refresh and TRR a chance to reset victims
    /// before their thresholds are crossed.
    ///
    /// With [`mitigation::NoMitigation`] this is bit-identical to the
    /// undefended [`Blacksmith::fuzz`] (same flips, acts, and clock).
    pub fn fuzz_defended<R: Rng>(
        &mut self,
        dram: &mut DramSystem,
        bank: BankId,
        allowed_rows: &[u32],
        rng: &mut R,
        defense: &mut dyn Mitigation,
        source: u16,
    ) -> FuzzReport {
        let before = dram.flip_log().len();
        let mut acts = 0u64;
        let mut effective = None;
        let mut tried = 0u32;
        for _ in 0..self.config.patterns {
            tried += 1;
            let pattern = HammerPattern::random(allowed_rows, rng);
            let found = self.hammer_defended(dram, bank, &pattern, &mut acts, defense, source);
            if found && effective.is_none() {
                effective = Some(pattern);
                break;
            }
        }
        let flips = dram.flip_log().all()[before..].to_vec();
        FuzzReport {
            patterns_tried: tried,
            acts,
            flips,
            effective_pattern: effective,
        }
    }

    /// Hammers one explicit pattern; returns whether new flips appeared.
    ///
    /// The pattern is compiled once: its per-period schedule is
    /// run-length-coalesced ([`HammerPattern::coalesced_schedule`], runs on
    /// rows outside the bank dropped) and resolved by
    /// [`DramSystem::plan_runs`] into aggressor rows, victim slots, and
    /// weights. Each period then replays the runs through
    /// [`DramSystem::apply_run`], with device state identical to issuing
    /// every ACT through the per-ACT path. Time advances only between
    /// periods, so no run ever spans a refresh boundary.
    pub fn hammer(
        &self,
        dram: &mut DramSystem,
        bank: BankId,
        pattern: &HammerPattern,
        acts: &mut u64,
    ) -> bool {
        let before = dram.flip_log().len();
        let (runs, plan) = self.compile(dram, bank, pattern);
        let acts_per_period: u64 = runs.iter().map(|&(_, count)| count).sum();
        let period_ns = pattern.schedule.len() as u64 * T_RC_NS;
        for _ in 0..self.config.periods_per_attempt {
            for i in 0..plan.len() {
                dram.apply_run(&plan, i);
            }
            *acts += acts_per_period;
            dram.advance_ns(period_ns);
        }
        dram.flip_log().len() > before
    }

    /// [`Blacksmith::hammer`] against a live [`Mitigation`] backend.
    ///
    /// Every ACT of each coalesced run is offered to `defense.on_act`
    /// first; the summed throttle delay advances simulated time *before*
    /// the run issues, so distributed refresh catches up while the
    /// attacker stalls — that time dilation is exactly how controller-level
    /// defenses contain flips here. Decay ticks ([`Mitigation::on_refresh`])
    /// are delivered once per tREFI of simulated attack time. The pattern
    /// is compiled once, as in [`Blacksmith::hammer`].
    pub fn hammer_defended(
        &self,
        dram: &mut DramSystem,
        bank: BankId,
        pattern: &HammerPattern,
        acts: &mut u64,
        defense: &mut dyn Mitigation,
        source: u16,
    ) -> bool {
        let before = dram.flip_log().len();
        let (runs, plan) = self.compile(dram, bank, pattern);
        let period_ns = pattern.schedule.len() as u64 * T_RC_NS;
        let mut next_decay_ns = (dram.now_ns() / TREFI_NS + 1) * TREFI_NS;
        for _ in 0..self.config.periods_per_attempt {
            for (i, &(row, count)) in runs.iter().enumerate() {
                let mut delay_ps = 0u64;
                for _ in 0..count {
                    let now_ps = dram.now_ns() * 1000 + delay_ps;
                    delay_ps += defense.on_act(bank.0, row, source, now_ps);
                }
                if delay_ps > 0 {
                    // Stall before the run: runs model back-to-back ACTs
                    // and must not internally span a refresh, so the
                    // injected delay lands between runs.
                    dram.advance_ns(delay_ps.div_ceil(1000));
                }
                dram.apply_run(&plan, i);
                *acts += count;
                drain_decay_ticks(defense, dram.now_ns(), &mut next_decay_ns);
            }
            dram.advance_ns(period_ns);
            drain_decay_ticks(defense, dram.now_ns(), &mut next_decay_ns);
        }
        dram.flip_log().len() > before
    }

    /// Compiles `pattern` for `bank`: its in-bank `(row, count)` runs and
    /// the device plan replaying them.
    fn compile(
        &self,
        dram: &mut DramSystem,
        bank: BankId,
        pattern: &HammerPattern,
    ) -> (Vec<(u32, u64)>, RunPlan) {
        let rows_per_bank = dram.geometry().rows_per_bank;
        let runs: Vec<(u32, u64)> = pattern
            .coalesced_schedule()
            .into_iter()
            .filter(|&(row, _)| row < rows_per_bank)
            .map(|(row, count)| (row, u64::from(count)))
            .collect();
        let plan = dram.plan_runs(bank, &runs, self.config.extra_open_ns);
        (runs, plan)
    }

    /// The uncompiled per-burst hammer loop — one `activate_burst` per run,
    /// re-deriving every run each period — kept as the oracle the compiled
    /// [`Blacksmith::hammer`] and [`Blacksmith::hammer_defended`] are pinned
    /// against. With `defense` it is the defended loop, else the plain one.
    #[cfg(test)]
    fn hammer_reference(
        &self,
        dram: &mut DramSystem,
        bank: BankId,
        pattern: &HammerPattern,
        acts: &mut u64,
        mut defense: Option<(&mut dyn Mitigation, u16)>,
    ) -> bool {
        let before = dram.flip_log().len();
        let rows_per_bank = dram.geometry().rows_per_bank;
        let runs = pattern.coalesced_schedule();
        let mut next_decay_ns = (dram.now_ns() / TREFI_NS + 1) * TREFI_NS;
        for _ in 0..self.config.periods_per_attempt {
            for &(row, count) in &runs {
                if row >= rows_per_bank {
                    continue;
                }
                if let Some((defense, source)) = defense.as_mut() {
                    let mut delay_ps = 0u64;
                    for _ in 0..count {
                        let now_ps = dram.now_ns() * 1000 + delay_ps;
                        delay_ps += defense.on_act(bank.0, row, *source, now_ps);
                    }
                    if delay_ps > 0 {
                        dram.advance_ns(delay_ps.div_ceil(1000));
                    }
                }
                dram.activate_burst(bank, row, count as u64, self.config.extra_open_ns);
                *acts += count as u64;
                if let Some((defense, _)) = defense.as_mut() {
                    drain_decay_ticks(&mut **defense, dram.now_ns(), &mut next_decay_ns);
                }
            }
            dram.advance_ns(pattern.schedule.len() as u64 * T_RC_NS);
            if let Some((defense, _)) = defense.as_mut() {
                drain_decay_ticks(&mut **defense, dram.now_ns(), &mut next_decay_ns);
            }
        }
        dram.flip_log().len() > before
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dram::{DimmProfile, DramSystemBuilder};
    use dram_addr::mini_geometry;
    use rand::SeedableRng;

    #[test]
    fn fuzzer_finds_flips_despite_trr() {
        // The §7.1 premise: Blacksmith defeats deployed TRR.
        let mut dram = DramSystemBuilder::new(mini_geometry()).trr(4, 2).build();
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let mut fuzzer = Blacksmith::new(FuzzConfig::default());
        let rows: Vec<u32> = (0..256).collect();
        let report = fuzzer.fuzz(&mut dram, BankId(0), &rows, &mut rng);
        assert!(report.any_flips());
        assert!(report.effective_pattern.is_some());
        assert!(report.acts > 0);
    }

    #[test]
    fn flips_stay_in_the_hammered_subarray() {
        let mut dram = DramSystemBuilder::new(mini_geometry()).build();
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let mut fuzzer = Blacksmith::new(FuzzConfig::default());
        // Restrict the attacker to subarray 1 (rows 256..512 in mini).
        let rows: Vec<u32> = (256..512).collect();
        let report = fuzzer.fuzz(&mut dram, BankId(3), &rows, &mut rng);
        assert!(report.any_flips());
        for f in &report.flips {
            assert_eq!(f.media_row / 256, 1, "flip escaped the subarray");
        }
    }

    #[test]
    fn invulnerable_dimm_survives_fuzzing() {
        let mut dram = DramSystemBuilder::new(mini_geometry())
            .profiles(vec![DimmProfile::invulnerable()])
            .build();
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let mut fuzzer = Blacksmith::new(FuzzConfig {
            patterns: 3,
            ..FuzzConfig::default()
        });
        let rows: Vec<u32> = (0..256).collect();
        let report = fuzzer.fuzz(&mut dram, BankId(0), &rows, &mut rng);
        assert!(!report.any_flips());
        assert_eq!(report.patterns_tried, 3);
    }

    /// Everything a hammer loop leaves observable, for loop-vs-loop pins:
    /// found, acts, flip log (ordered), stats, clock, device telemetry.
    fn outcome(
        dram: &DramSystem,
        found: bool,
        acts: u64,
    ) -> (bool, u64, Vec<BitFlip>, dram::DramStats, u64, String) {
        let reg = telemetry::Registry::new();
        dram.export_telemetry(&reg);
        (
            found,
            acts,
            dram.flip_log().all().to_vec(),
            *dram.stats(),
            dram.now_ns(),
            reg.snapshot().deterministic().to_json(),
        )
    }

    fn backend_telemetry(defense: &dyn Mitigation) -> String {
        let reg = telemetry::Registry::new();
        defense.export_telemetry(&reg);
        reg.snapshot().deterministic().to_json()
    }

    /// Default-TRR mini device; `repaired` adds spares in another subarray,
    /// on a subarray's last row, and on the next subarray's first row.
    fn pin_device(repaired: bool) -> DramSystem {
        let mut repairs = dram_addr::RepairMap::new();
        if repaired {
            for (row, spare) in [(40, 600), (41, 511), (100, 256), (101, 250)] {
                repairs.insert(BankId(0), row, spare);
            }
        }
        DramSystemBuilder::new(mini_geometry())
            .repairs(repairs)
            .build()
    }

    #[test]
    fn compiled_hammer_matches_per_burst_reference() {
        // Random Blacksmith patterns through the compiled loops and the
        // per-burst oracle: undefended, and defended by NoMitigation,
        // BlockHammer, and BreakHammer (whose telemetry must match too),
        // on plain and repaired DIMMs, with and without RowPress.
        type MakeDefense = fn() -> Box<dyn Mitigation>;
        let backends: [MakeDefense; 3] = [
            || Box::new(mitigation::NoMitigation::new()),
            || Box::new(mitigation::BlockHammer::new()),
            || Box::new(mitigation::BreakHammer::new()),
        ];
        let rows: Vec<u32> = (0..256).collect();
        let mut rng = rand::rngs::StdRng::seed_from_u64(13);
        let mut flipped = 0;
        for case in 0..8u32 {
            let repaired = case % 2 == 1;
            let fuzzer = Blacksmith::new(FuzzConfig {
                patterns: 1,
                periods_per_attempt: 20_000,
                extra_open_ns: if case % 4 == 2 { 1_500 } else { 0 },
            });
            let pattern = HammerPattern::random(&rows, &mut rng);
            let bank = BankId(0);

            let (mut compiled, mut reference) = (pin_device(repaired), pin_device(repaired));
            let (mut acts_c, mut acts_r) = (0u64, 0u64);
            let found_c = fuzzer.hammer(&mut compiled, bank, &pattern, &mut acts_c);
            let found_r =
                fuzzer.hammer_reference(&mut reference, bank, &pattern, &mut acts_r, None);
            assert_eq!(
                outcome(&compiled, found_c, acts_c),
                outcome(&reference, found_r, acts_r),
                "case {case}: undefended loops diverged"
            );
            flipped += u32::from(found_c);

            for make in backends {
                let (mut compiled, mut reference) = (pin_device(repaired), pin_device(repaired));
                let (mut defense_c, mut defense_r) = (make(), make());
                let (mut acts_c, mut acts_r) = (0u64, 0u64);
                let found_c = fuzzer.hammer_defended(
                    &mut compiled,
                    bank,
                    &pattern,
                    &mut acts_c,
                    &mut *defense_c,
                    5,
                );
                let found_r = fuzzer.hammer_reference(
                    &mut reference,
                    bank,
                    &pattern,
                    &mut acts_r,
                    Some((&mut *defense_r, 5)),
                );
                let name = defense_c.name();
                assert_eq!(
                    outcome(&compiled, found_c, acts_c),
                    outcome(&reference, found_r, acts_r),
                    "case {case}: {name} loops diverged"
                );
                assert_eq!(
                    backend_telemetry(&*defense_c),
                    backend_telemetry(&*defense_r),
                    "case {case}: {name} telemetry diverged"
                );
            }
        }
        assert!(flipped > 0, "some sampled pattern must flip bits");
    }

    /// A test defense that holds back the first ACT it sees by 40 tREFI and
    /// lets everything after it through. Unlike BreakHammer it leaves the
    /// rest of the attack unthrottled, so the hammering flips bits.
    #[derive(Debug)]
    struct StallFirstAct {
        pending_ps: u64,
    }

    impl StallFirstAct {
        fn new() -> Self {
            Self {
                pending_ps: 40 * TREFI_NS * 1000,
            }
        }
    }

    impl Mitigation for StallFirstAct {
        fn name(&self) -> &'static str {
            "stall-first-act"
        }

        fn on_act(&mut self, _bank: u32, _row: u32, _source: u16, _now_ps: u64) -> u64 {
            std::mem::take(&mut self.pending_ps)
        }

        fn export_telemetry(&self, reg: &telemetry::Registry) {
            reg.counter("pending_ps").add(self.pending_ps);
        }
    }

    /// One device driven by the compiled loops and one by the per-burst
    /// reference, with their ACT counters.
    struct LoopPair {
        compiled: DramSystem,
        reference: DramSystem,
        acts: [u64; 2],
    }

    impl LoopPair {
        fn new(repaired: bool) -> Self {
            Self {
                compiled: pin_device(repaired),
                reference: pin_device(repaired),
                acts: [0; 2],
            }
        }

        /// Runs one defended campaign through both loops (defenses for the
        /// compiled and the reference loop, in that order), asserts every
        /// observable agrees, and returns whether it found flips.
        fn defended(
            &mut self,
            fuzzer: &Blacksmith,
            bank: BankId,
            pattern: &HammerPattern,
            defenses: [&mut dyn Mitigation; 2],
        ) -> bool {
            let [dc, dr] = defenses;
            let found_c =
                fuzzer.hammer_defended(&mut self.compiled, bank, pattern, &mut self.acts[0], dc, 5);
            let found_r = fuzzer.hammer_reference(
                &mut self.reference,
                bank,
                pattern,
                &mut self.acts[1],
                Some((&mut *dr, 5)),
            );
            assert_eq!(
                outcome(&self.compiled, found_c, self.acts[0]),
                outcome(&self.reference, found_r, self.acts[1]),
                "{}: loops diverged on {bank:?}",
                dc.name()
            );
            assert_eq!(
                backend_telemetry(dc),
                backend_telemetry(dr),
                "{}: telemetry diverged on {bank:?}",
                dc.name()
            );
            found_c
        }
    }

    #[test]
    fn compiled_defended_hammer_on_a_fresh_bank_matches_reference() {
        // One device across two banks, as the VM-level attack loops share
        // it: bank 0 is hammered first, then a pattern is compiled for bank
        // 1, which nothing has activated yet, and that campaign's first run
        // is stalled across REFs before its first ACT. Two stalling
        // defenses: a BreakHammer shared by both campaigns whose source is
        // pushed past its budget in between, and one that stalls only the
        // first ACT, by 40 tREFI, so the campaign goes on to flip bits.
        let rows: Vec<u32> = (0..256).collect();
        let mut rng = rand::rngs::StdRng::seed_from_u64(29);
        let fuzzer = Blacksmith::new(FuzzConfig {
            patterns: 1,
            periods_per_attempt: 20_000,
            extra_open_ns: 0,
        });
        let mut fresh_flipped = 0;
        for case in 0..8u32 {
            let first = HammerPattern::random(&rows, &mut rng);
            let fresh = HammerPattern::random(&rows, &mut rng);
            let mut pair = LoopPair::new(case % 2 == 1);
            if case < 4 {
                let mut bh = [
                    mitigation::BreakHammer::new(),
                    mitigation::BreakHammer::new(),
                ];
                let [c, r] = &mut bh;
                pair.defended(&fuzzer, BankId(0), &first, [c, r]);
                for d in &mut bh {
                    for _ in 0..mitigation::backends::BH_BUDGET {
                        d.on_act(0, 0, 5, 0);
                    }
                    assert!(d.score(5) > mitigation::backends::BH_BUDGET);
                }
                let [c, r] = &mut bh;
                pair.defended(&fuzzer, BankId(1), &fresh, [c, r]);
            } else {
                let mut none = [
                    mitigation::NoMitigation::new(),
                    mitigation::NoMitigation::new(),
                ];
                let [c, r] = &mut none;
                pair.defended(&fuzzer, BankId(0), &first, [c, r]);
                let mut stall = [StallFirstAct::new(), StallFirstAct::new()];
                let [c, r] = &mut stall;
                fresh_flipped += u32::from(pair.defended(&fuzzer, BankId(1), &fresh, [c, r]));
            }
        }
        assert!(
            fresh_flipped > 0,
            "a stalled campaign on a fresh bank must flip bits"
        );

        // A case the refresh phase shows in: double-sided hammering of row
        // 21 on a TRR-free DIMM for ~15 ms after a 40-tREFI stall, as 320
        // short campaigns compared one by one. Were the compiled bank swept
        // by REFs from compile time on, row 21's first refresh would come
        // ~15 ms late instead of ~0.16 ms in, and it would flip sooner.
        let fuzzer = Blacksmith::new(FuzzConfig {
            patterns: 1,
            periods_per_attempt: 500,
            extra_open_ns: 0,
        });
        let no_trr = || DramSystemBuilder::new(mini_geometry()).trr(0, 0).build();
        let mut pair = LoopPair {
            compiled: no_trr(),
            reference: no_trr(),
            acts: [0; 2],
        };
        let mut stall = [StallFirstAct::new(), StallFirstAct::new()];
        let pattern = HammerPattern::double_sided(21);
        let mut found = false;
        for _ in 0..320 {
            let [c, r] = &mut stall;
            found |= pair.defended(&fuzzer, BankId(0), &pattern, [c, r]);
        }
        assert!(found, "row 21 must flip");
    }

    #[test]
    fn defended_hammer_with_none_backend_is_bit_identical() {
        // The trait-port pin at the attack layer: a NoMitigation hook in
        // the loop must not perturb flips, acts, or the simulated clock.
        let pattern = HammerPattern::n_sided(40, 8);
        let fuzzer = Blacksmith::new(FuzzConfig {
            patterns: 1,
            periods_per_attempt: 30_000,
            extra_open_ns: 0,
        });
        let mut plain = DramSystemBuilder::new(mini_geometry()).trr(0, 0).build();
        let mut plain_acts = 0u64;
        let plain_found = fuzzer.hammer(&mut plain, BankId(0), &pattern, &mut plain_acts);

        let mut defended = DramSystemBuilder::new(mini_geometry()).trr(0, 0).build();
        let mut noop = mitigation::NoMitigation::new();
        let mut defended_acts = 0u64;
        let defended_found = fuzzer.hammer_defended(
            &mut defended,
            BankId(0),
            &pattern,
            &mut defended_acts,
            &mut noop,
            3,
        );
        assert_eq!(plain_found, defended_found);
        assert_eq!(plain_acts, defended_acts);
        assert_eq!(plain.now_ns(), defended.now_ns());
        assert_eq!(plain.stats(), defended.stats());
        assert_eq!(plain.flip_log().all(), defended.flip_log().all());
        assert!(plain_found, "the undefended attack must actually flip bits");
    }

    #[test]
    fn blockhammer_throttling_contains_the_flips() {
        // Same pattern, same DIMM: undefended hammering flips bits, but a
        // BlockHammer hook blacklists the aggressor rows and the injected
        // per-ACT stalls let refresh reset victims before they cross
        // threshold.
        let pattern = HammerPattern::n_sided(40, 8);
        let fuzzer = Blacksmith::new(FuzzConfig {
            patterns: 1,
            periods_per_attempt: 30_000,
            extra_open_ns: 0,
        });
        let mut plain = DramSystemBuilder::new(mini_geometry()).trr(0, 0).build();
        let mut plain_acts = 0u64;
        assert!(fuzzer.hammer(&mut plain, BankId(0), &pattern, &mut plain_acts));

        let mut defended = DramSystemBuilder::new(mini_geometry()).trr(0, 0).build();
        let mut bh = mitigation::BlockHammer::new();
        let mut defended_acts = 0u64;
        let found = fuzzer.hammer_defended(
            &mut defended,
            BankId(0),
            &pattern,
            &mut defended_acts,
            &mut bh,
            3,
        );
        assert!(!found, "BlockHammer must contain this campaign");
        assert_eq!(defended.flip_log().len(), 0);
        assert_eq!(defended_acts, plain_acts, "throttling delays, not drops");
        assert!(
            defended.now_ns() > 4 * plain.now_ns(),
            "throttle stalls must dilate attack time: {} vs {}",
            defended.now_ns(),
            plain.now_ns()
        );
        let reg = telemetry::Registry::new();
        bh.export_telemetry(&reg);
        let snap = reg.snapshot();
        match snap.metrics["rows_blacklisted"] {
            telemetry::MetricValue::Counter { value, .. } => {
                assert!(value >= 8, "all aggressor rows blacklisted, got {value}");
            }
            ref other => panic!("unexpected metric {other:?}"),
        }
    }

    #[test]
    fn breakhammer_throttles_the_hammering_source() {
        let pattern = HammerPattern::n_sided(40, 8);
        let fuzzer = Blacksmith::new(FuzzConfig {
            patterns: 1,
            periods_per_attempt: 30_000,
            extra_open_ns: 0,
        });
        let mut plain = DramSystemBuilder::new(mini_geometry()).trr(0, 0).build();
        let mut plain_acts = 0u64;
        fuzzer.hammer(&mut plain, BankId(0), &pattern, &mut plain_acts);

        let mut defended = DramSystemBuilder::new(mini_geometry()).trr(0, 0).build();
        let mut bh = mitigation::BreakHammer::new();
        let mut defended_acts = 0u64;
        fuzzer.hammer_defended(
            &mut defended,
            BankId(0),
            &pattern,
            &mut defended_acts,
            &mut bh,
            9,
        );
        assert!(
            defended.flip_log().len() <= plain.flip_log().len(),
            "source throttling cannot make the attack stronger"
        );
        assert!(
            defended.now_ns() > 2 * plain.now_ns(),
            "stream throttling must slow the attacker: {} vs {}",
            defended.now_ns(),
            plain.now_ns()
        );
        let reg = telemetry::Registry::new();
        bh.export_telemetry(&reg);
        let snap = reg.snapshot();
        match snap.metrics["sources_throttled"] {
            telemetry::MetricValue::Counter { value, .. } => assert!(value >= 1),
            ref other => panic!("unexpected metric {other:?}"),
        }
    }

    #[test]
    fn rowpress_mode_flips_with_fewer_acts() {
        let rows: Vec<u32> = (0..64).collect();
        let run = |extra: u64| {
            let mut dram = DramSystemBuilder::new(mini_geometry()).trr(0, 0).build();
            let mut rng = rand::rngs::StdRng::seed_from_u64(4);
            let mut fuzzer = Blacksmith::new(FuzzConfig {
                patterns: 1,
                periods_per_attempt: 30_000,
                extra_open_ns: extra,
            });
            let r = fuzzer.fuzz(&mut dram, BankId(0), &rows, &mut rng);
            r.flips.len()
        };
        assert!(run(3_000) >= run(0), "RowPress cannot be weaker");
    }
}
