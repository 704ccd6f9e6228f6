//! Burst-vs-reference equivalence battery.
//!
//! `DramSystem::activate_burst` is specified to be *bit-identical* to the
//! per-ACT reference path for any run-ordered activation sequence: same flip
//! log (including order), same `DramStats`, same active-flip rows, same
//! deterministic telemetry. These properties drive randomized schedules —
//! across TRR configurations, RowPress open times, row repairs, and
//! subarray-boundary aggressors — through both paths and compare every
//! observable.

use dram::{DramStats, DramSystem, DramSystemBuilder};
use dram_addr::{mini_geometry, BankId, InternalMapConfig, RepairMap};
use proptest::prelude::*;

/// One distributed REF interval (tREFI).
const TREFI_NS: u64 = dram::REFRESH_WINDOW_NS / dram::REFS_PER_WINDOW as u64;

/// One coalescible run: `count` back-to-back ACTs of `(bank, row)` holding
/// the row open `extra_open_ns` beyond nominal, followed by a time advance.
#[derive(Debug, Clone)]
struct Run {
    bank: u32,
    row: u32,
    count: u64,
    extra_open_ns: u64,
    advance_ns: u64,
}

fn run_strategy() -> impl Strategy<Value = Run> {
    (0u32..4, 0u32..3, 0u32..2048, 0u64..2002, 0u32..2, 0u32..3).prop_map(
        |(bank, row_kind, row_any, count, press, adv_kind)| Run {
            bank,
            // Bias rows toward a few subarray-boundary-adjacent hot spots so
            // runs actually re-hammer the same victims past their thresholds.
            row: match row_kind {
                0 => 250 + row_any % 12, // straddles the 256-row subarray edge
                1 => 20 + row_any % 10,
                _ => row_any,
            },
            // 0 and 1 are degenerate bursts; anything else is a real run.
            count,
            extra_open_ns: if press == 0 { 0 } else { 1_500 }, // RowPress on/off
            advance_ns: match adv_kind {
                0 => 0,
                1 => 94,
                _ => 50_000,
            },
        },
    )
}

fn build(trr: (usize, usize), repairs: bool) -> DramSystem {
    let mut map = RepairMap::new();
    if repairs {
        // Repair a hot-spot row to a spare in another subarray, and a row
        // whose spare sits right at a subarray edge.
        map.insert(BankId(0), 22, 600);
        map.insert(BankId(1), 255, 511);
    }
    DramSystemBuilder::new(mini_geometry())
        .trr(trr.0, trr.1)
        .repairs(map)
        .internal_map(InternalMapConfig::identity())
        .build()
}

/// Replays `runs` per-ACT on `reference` and coalesced on `burst`, then
/// asserts every observable is bit-identical.
fn assert_equivalent(runs: &[Run], trr: (usize, usize), repairs: bool) -> DramStats {
    let mut reference = build(trr, repairs);
    let mut burst = build(trr, repairs);
    for r in runs {
        let bank = BankId(r.bank);
        for _ in 0..r.count {
            reference.activate_row(bank, r.row, r.extra_open_ns);
        }
        reference.advance_ns(r.advance_ns);
        burst.activate_burst(bank, r.row, r.count, r.extra_open_ns);
        burst.advance_ns(r.advance_ns);
    }
    assert_eq!(reference.stats(), burst.stats(), "DramStats diverged");
    assert_eq!(
        reference.flip_log().all(),
        burst.flip_log().all(),
        "flip logs diverged (order-sensitive)"
    );
    assert_eq!(
        reference.rows_with_active_flips(),
        burst.rows_with_active_flips(),
        "active flip rows diverged"
    );
    let snap = |d: &DramSystem| {
        let reg = telemetry::Registry::new();
        d.export_telemetry(&reg);
        reg.snapshot().deterministic().to_json()
    };
    assert_eq!(snap(&reference), snap(&burst), "telemetry diverged");
    *reference.stats()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// No TRR: pure disturbance accumulation, threshold crossings, refresh
    /// interleaving, and RowPress weight changes.
    #[test]
    fn burst_equals_reference_without_trr(
        runs in prop::collection::vec(run_strategy(), 1..40),
    ) {
        assert_equivalent(&runs, (0, 0), false);
    }

    /// Default TRR (capacity 4, serve 2): the counted observe must replay
    /// Misra-Gries decrement/replace churn and post-REF zero-count slots.
    #[test]
    fn burst_equals_reference_with_trr(
        runs in prop::collection::vec(run_strategy(), 1..40),
    ) {
        assert_equivalent(&runs, (4, 2), false);
    }

    /// Row repairs: bursts on repaired rows hammer the spare's neighbors and
    /// flips translate through the inverse repair map identically.
    #[test]
    fn burst_equals_reference_with_repairs(
        runs in prop::collection::vec(run_strategy(), 1..40),
    ) {
        assert_equivalent(&runs, (4, 2), true);
    }

    /// Long same-row sieges: single runs big enough to cross many weak-cell
    /// thresholds inside one burst, so the crossing-act solver and the
    /// ordered emission sweep are exercised hard.
    #[test]
    fn burst_equals_reference_on_long_sieges(
        row in 250u32..262,
        bank in 0u32..4,
        count in 30_000u64..90_000,
        press in 0u32..2,
    ) {
        let extra = if press == 0 { 0u64 } else { 2_000 };
        let runs = [
            Run { bank, row, count, extra_open_ns: extra, advance_ns: 100 },
            Run { bank, row: row + 2, count, extra_open_ns: 0, advance_ns: 0 },
            Run { bank, row, count: count / 2, extra_open_ns: 0, advance_ns: 60_000 },
        ];
        let stats = assert_equivalent(&runs, (0, 0), false);
        prop_assert!(stats.acts >= 75_000);
    }
}

// ----------------------------------------------------------------------
// Compiled plans: `plan_runs` + `apply_run` vs `activate_burst` vs the
// per-ACT `activate_row` reference.
// ----------------------------------------------------------------------

/// A repeated same-bank activation schedule, compiled once into a plan.
#[derive(Debug, Clone)]
struct Campaign {
    /// `(media row, count)` runs of one period.
    runs: Vec<(u32, u64)>,
    extra_open_ns: u64,
}

/// `periods` repetitions of one campaign's runs.
#[derive(Debug, Clone)]
struct Step {
    campaign: usize,
    periods: u32,
    /// Time advance after every run (9 µs > tREFI: each one crosses a REF).
    after_run_ns: u64,
    /// Time advance after every period.
    after_period_ns: u64,
}

fn campaign_strategy() -> impl Strategy<Value = Campaign> {
    let run = (0u32..3, 0u32..13, 0u64..4_000).prop_map(|(spot, off, count)| {
        // Two hot spots, rows a few apart, so the aggressors are each
        // other's distance-1/2 victims; one straddles the subarray edge at
        // 256, and both cover the repaired rows below.
        let row = match spot {
            0 => 18 + off,
            _ => 250 + off,
        };
        (row, count)
    });
    (prop::collection::vec(run, 1..6), 0u32..3).prop_map(|(runs, press)| Campaign {
        runs,
        extra_open_ns: if press == 0 { 1_500 } else { 0 }, // RowPress on/off
    })
}

fn step_strategy() -> impl Strategy<Value = Step> {
    (0usize..2, 1u32..10, 0u32..3, 0u32..2).prop_map(|(campaign, periods, run_adv, per_adv)| Step {
        campaign,
        periods,
        after_run_ns: [0, 94, 9_000][run_adv as usize],
        after_period_ns: [500, 50_000][per_adv as usize],
    })
}

/// Like [`build`], but every repair sits on bank 0, where the campaigns
/// run: a spare in another subarray (22 → 600), a spare on the last row of
/// a subarray (257 → 511), and one on the first row of the next (27 → 256),
/// so repaired aggressors have victims cut off by the subarray edge.
fn build_plan_device(trr: (usize, usize), repairs: bool) -> DramSystem {
    let mut map = RepairMap::new();
    if repairs {
        map.insert(BankId(0), 22, 600);
        map.insert(BankId(0), 257, 511);
        map.insert(BankId(0), 27, 256);
    }
    DramSystemBuilder::new(mini_geometry())
        .trr(trr.0, trr.1)
        .repairs(map)
        .internal_map(InternalMapConfig::identity())
        .build()
}

/// Asserts every observable of `a` and `b` is bit-identical.
fn assert_same_device(a: &DramSystem, b: &DramSystem, what: &str) {
    assert_eq!(a.stats(), b.stats(), "{what}: DramStats diverged");
    assert_eq!(
        a.flip_log().all(),
        b.flip_log().all(),
        "{what}: flip logs diverged (order-sensitive)"
    );
    assert_eq!(
        a.rows_with_active_flips(),
        b.rows_with_active_flips(),
        "{what}: active flip rows diverged"
    );
    assert_eq!(a.now_ns(), b.now_ns(), "{what}: clocks diverged");
    let snap = |d: &DramSystem| {
        let reg = telemetry::Registry::new();
        d.export_telemetry(&reg);
        reg.snapshot().deterministic().to_json()
    };
    assert_eq!(snap(a), snap(b), "{what}: telemetry diverged");
}

/// Drives `steps` through all three paths and compares them. Both plans
/// target bank 0. With `late_second_plan` off, both are built before any
/// replay — the second plan grows the shared victim arena after the first
/// resolved its slots; with it on, the second plan is built against a bank
/// the first has already hammered. `lead_in_ns` of simulated time passes
/// after the first plan is built and before anything is activated, so the
/// planned bank sits through REFs before its first ACT.
fn assert_plans_equivalent(
    campaigns: &[Campaign; 2],
    steps: &[Step],
    trr: (usize, usize),
    repairs: bool,
    late_second_plan: bool,
    lead_in_ns: u64,
) -> DramStats {
    let bank = BankId(0);
    let mut per_act = build_plan_device(trr, repairs);
    let mut burst = build_plan_device(trr, repairs);
    let mut planned = build_plan_device(trr, repairs);
    let mut plans = [None, None];
    plans[0] = Some(planned.plan_runs(bank, &campaigns[0].runs, campaigns[0].extra_open_ns));
    if !late_second_plan {
        plans[1] = Some(planned.plan_runs(bank, &campaigns[1].runs, campaigns[1].extra_open_ns));
    }
    for d in [&mut per_act, &mut burst, &mut planned] {
        d.advance_ns(lead_in_ns);
    }
    for step in steps {
        let c = &campaigns[step.campaign];
        if plans[step.campaign].is_none() {
            plans[step.campaign] = Some(planned.plan_runs(bank, &c.runs, c.extra_open_ns));
        }
        let plan = plans[step.campaign].as_ref().expect("built above");
        assert_eq!(plan.len(), c.runs.len());
        for _ in 0..step.periods {
            for (i, &(row, count)) in c.runs.iter().enumerate() {
                for _ in 0..count {
                    per_act.activate_row(bank, row, c.extra_open_ns);
                }
                burst.activate_burst(bank, row, count, c.extra_open_ns);
                planned.apply_run(plan, i);
                for d in [&mut per_act, &mut burst, &mut planned] {
                    d.advance_ns(step.after_run_ns);
                }
            }
            for d in [&mut per_act, &mut burst, &mut planned] {
                d.advance_ns(step.after_period_ns);
            }
        }
    }
    assert_same_device(&per_act, &burst, "activate_burst vs per-ACT");
    assert_same_device(&per_act, &planned, "plan + apply_run vs per-ACT");
    *per_act.stats()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Compiled plans replay bit-identically to both uncompiled paths,
    /// across TRR on/off, repairs (spares across subarray edges), RowPress,
    /// mutually-victimizing aggressors, interleaved plan construction, REF
    /// boundaries crossed between runs, and REFs between planning a fresh
    /// bank and its first ACT.
    #[test]
    fn plan_apply_equals_burst_and_reference(
        a in campaign_strategy(),
        b in campaign_strategy(),
        steps in prop::collection::vec(step_strategy(), 1..6),
        trr_on in any::<bool>(),
        repairs in any::<bool>(),
        late_second_plan in any::<bool>(),
        lead_in_refs in 0u64..60,
    ) {
        let trr = if trr_on { (4, 2) } else { (0, 0) };
        let lead_in_ns = lead_in_refs * TREFI_NS;
        assert_plans_equivalent(&[a, b], &steps, trr, repairs, late_second_plan, lead_in_ns);
    }
}

/// The aggressor self-refresh of a plan built before its aggressor had any
/// victim state: plan A hammers row 59 alone (no victim state for it
/// exists), then plan B double-sides row 59. Each of A's single ACTs must
/// reset what B piled onto row 59; if the replay skipped that refresh,
/// row 59 would cross its threshold and flip only on the planned device.
#[test]
fn plan_refreshes_an_aggressor_a_later_plan_victimizes() {
    let a = Campaign {
        runs: vec![(59, 1)],
        extra_open_ns: 0,
    };
    let b = Campaign {
        runs: vec![(58, 12_000), (60, 12_000)],
        extra_open_ns: 0,
    };
    let step = |campaign| Step {
        campaign,
        periods: 1,
        after_run_ns: 0,
        after_period_ns: 94,
    };
    let steps = [
        step(1),
        step(0),
        step(1),
        step(0),
        step(1),
        step(0),
        step(1),
    ];
    for late in [false, true] {
        assert_plans_equivalent(&[a.clone(), b.clone()], &steps, (0, 0), false, late, 0);
    }
    // Without A's refreshes, row 59 would have seen 96k ACTs of disturbance.
    let mut d = build_plan_device((0, 0), false);
    for _ in 0..4 {
        d.activate_burst(BankId(0), 58, 12_000, 0);
        d.activate_burst(BankId(0), 60, 12_000, 0);
    }
    assert!(
        d.flip_log().in_row_range(BankId(0), 59, 60).count() > 0,
        "unrefreshed, row 59 flips"
    );
}

/// A fixed heavy case that must flip bits, trigger TRR, and hit repaired
/// rows — so the randomized battery above can never pass vacuously.
#[test]
fn plan_apply_fixed_siege_flips_and_matches() {
    let a = Campaign {
        runs: vec![(20, 900), (22, 700), (24, 900), (257, 500), (0, 0)],
        extra_open_ns: 0,
    };
    let b = Campaign {
        runs: vec![(21, 800), (23, 600), (255, 400), (27, 900)],
        extra_open_ns: 1_500,
    };
    let steps = [
        Step {
            campaign: 0,
            periods: 40,
            after_run_ns: 0,
            after_period_ns: 500,
        },
        Step {
            campaign: 1,
            periods: 30,
            after_run_ns: 9_000,
            after_period_ns: 500,
        },
        Step {
            campaign: 0,
            periods: 30,
            after_run_ns: 94,
            after_period_ns: 50_000,
        },
    ];
    for trr in [(0, 0), (4, 2)] {
        for late in [false, true] {
            let stats =
                assert_plans_equivalent(&[a.clone(), b.clone()], &steps, trr, true, late, 0);
            assert!(stats.ref_steps > 0);
            if trr.0 > 0 {
                assert!(stats.trr_triggers > 0, "TRR served");
            }
        }
    }
    // Flips happened on at least the TRR-off device.
    let mut d = build_plan_device((0, 0), true);
    let plan = d.plan_runs(BankId(0), &a.runs, 0);
    for _ in 0..40 {
        for i in 0..plan.len() {
            d.apply_run(&plan, i);
        }
        d.advance_ns(500);
    }
    assert!(!d.flip_log().is_empty(), "the fixed siege must flip bits");
}

/// A bank's auto-refresh phase starts at its first ACT, on every path. The
/// plan materializes bank 0 long before anything activates it; if the REF
/// sweep already walked the planned bank in the meantime, its refresh
/// pointer would pass row 21 before the hammering starts, and the planned
/// device would skip the early refresh of that victim the other paths give
/// it — so its first flips would land periods earlier.
#[test]
fn plan_on_a_fresh_bank_starts_refreshing_at_its_first_act() {
    let bank = BankId(0);
    let runs = [(20u32, 1_000u64), (22, 1_000)];
    let mut per_act = build_plan_device((0, 0), false);
    let mut burst = build_plan_device((0, 0), false);
    let mut planned = build_plan_device((0, 0), false);
    let plan = planned.plan_runs(bank, &runs, 0);
    for d in [&mut per_act, &mut burst, &mut planned] {
        d.advance_ns(40 * TREFI_NS);
    }
    for period in 0..160 {
        for (i, &(row, count)) in runs.iter().enumerate() {
            for _ in 0..count {
                per_act.activate_row(bank, row, 0);
            }
            burst.activate_burst(bank, row, count, 0);
            planned.apply_run(&plan, i);
        }
        for d in [&mut per_act, &mut burst, &mut planned] {
            d.advance_ns(94_000);
        }
        let flips = per_act.flip_log().len();
        assert_eq!(burst.flip_log().len(), flips, "period {period}: burst");
        assert_eq!(planned.flip_log().len(), flips, "period {period}: planned");
    }
    assert_same_device(&per_act, &burst, "activate_burst vs per-ACT");
    assert_same_device(&per_act, &planned, "plan + apply_run vs per-ACT");
    assert!(!per_act.flip_log().is_empty(), "the siege must flip bits");
}
