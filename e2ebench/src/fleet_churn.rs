//! `fleet_churn`: one single-host `fleet::FleetSim` on the soak shape
//! (evaluation machine, Siloz backend, FirstFit, attacks, Copy-on-Flip,
//! defrag and incremental proofs all on), driven one `step()` at a time.
//! A run times whole soaks seeded from `--seed` (see [`run`]).
//!
//! Attack campaigns are paced at exactly the soak's rate: one per
//! `1 / attack_prob` arrivals, the tenant and the moment within its
//! lifetime drawn from the seed the way the trace generator draws them.
//! The generator's own coin per arrival gave 8–16 campaigns per soak, and
//! at ~0.6 s of host time each that swung a run's throughput by a third
//! between seeds; paced, every soak carries the same attack load.

use crate::report::{self, Outcome};
use fleet::{EventKind, FleetReport, FleetSim, Scenario};
use numa::PlacementStrategy;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use siloz::SilozError;
use std::time::Instant;
use telemetry::Registry;

/// Set-up samples (`FleetSim::new`, ~5 ms each) taken before each soak
/// and again after it, once its simulator is dropped, so no sample's
/// simulator counts in the soak's peak memory.
const SETUP_SAMPLES: usize = 7;

/// Tail percentile of step latency (≥10 samples beyond it at ~7k events).
const TAIL_PCT: f64 = 99.0;

/// Domain separator of the attack-pacing stream.
const ATTACK_STREAM: u64 = 0x6174_7461_636b_7331;

/// The `k`-th soak of a run: the soak scenario without the generator's
/// attack coin (the benchmark paces campaigns itself, see [`soak`]).
fn scenario(seed: u64, k: u64) -> Scenario {
    let mut s = Scenario::soak(report::sub_seed(seed, k), PlacementStrategy::FirstFit);
    s.attack_prob = 0.0;
    s
}

/// Boots the `k`-th soak and injects its paced attack campaigns: each
/// full block of `1 / attack_prob` arrivals gets one, against a seeded
/// choice of its tenants, at 20–90% of that tenant's nominal lifetime.
fn soak(seed: u64, k: u64) -> Result<FleetSim, SilozError> {
    let scenario = scenario(seed, k);
    let period =
        (1.0 / Scenario::soak(0, PlacementStrategy::FirstFit).attack_prob).round() as usize;
    let arrivals: Vec<(u64, u32, u64)> = fleet::generate_trace(&scenario)
        .0
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::Arrive { lifetime, .. } => Some((e.at, e.tenant, lifetime)),
            _ => None,
        })
        .collect();
    let mut rng = StdRng::seed_from_u64(scenario.seed ^ ATTACK_STREAM);
    let mut sim = FleetSim::new(scenario)?;
    for block in arrivals.chunks_exact(period) {
        let (at, tenant, lifetime) = block[rng.gen_range(0..period)];
        let frac: f64 = rng.gen_range(0.2..0.9);
        sim.inject(
            at + (lifetime as f64 * frac) as u64,
            tenant,
            EventKind::Attack,
        );
    }
    Ok(sim)
}

/// Renders every simulated statistic of `sim` so far for the digest.
fn render(sim: &FleetSim, report: &FleetReport) -> String {
    let reg = Registry::new();
    sim.export_telemetry(&reg);
    format!("{report:?}|{}", reg.snapshot().deterministic().to_json())
}

fn check_report(out: &mut Outcome, r: &FleetReport) {
    out.check(r.clean(), || {
        format!(
            "fleet soak seed {} not clean: {} violations, {} escapes",
            r.seed, r.violations_total, r.attack_escapes
        )
    });
}

fn sample_setup(seed: u64, setups: &mut Vec<f64>) {
    for _ in 0..SETUP_SAMPLES {
        setups.push(report::time_secs(1, || FleetSim::new(scenario(seed, 0))));
    }
}

/// The untraced closed loop: whole soaks, one `step()` at a time, while
/// the next soak (predicted by the last) fits in `seconds` of host time
/// inside `step()` — at least one. A soak takes 12–22 s on a 2-vCPU
/// Xeon VM, over half of a 20 s budget, so such a run times exactly one
/// soak.
pub fn run(seed: u64, seconds: f64) -> Outcome {
    let mut out = Outcome::default();
    if let Err(e) = closed_loop(seed, seconds, &mut out) {
        out.check(false, || format!("fleet step failed: {e}"));
    }
    out
}

fn closed_loop(seed: u64, seconds: f64, out: &mut Outcome) -> Result<(), SilozError> {
    let mut setups = Vec::new();
    let mut steps: Vec<f64> = Vec::with_capacity(16_384);
    let mut busy = 0.0f64;
    let (mut refused, mut arrivals) = (0u64, 0u64);
    let mut rss = 0.0;
    let mut k = 0u64;
    let mut last = 0.0f64;
    while k == 0 || busy + last <= seconds {
        let before = busy;
        sample_setup(seed, &mut setups);
        let mut sim = soak(seed, k)?;
        loop {
            let t = Instant::now();
            let more = sim.step()?;
            let dt = t.elapsed().as_secs_f64();
            if !more {
                break;
            }
            busy += dt;
            steps.push(dt);
        }
        let r = sim.run_to_completion()?;
        out.attempted += r.events_processed;
        check_report(out, &r);
        refused += r.rejections + r.abandoned;
        arrivals += r.arrivals;
        println!(
            "digest fleet_churn soak={k} events={} fnv={}",
            r.events_processed,
            report::digest(&render(&sim, &r))
        );
        if k == 0 {
            rss = report::peak_rss_mib();
        }
        drop(sim);
        sample_setup(seed, &mut setups);
        last = busy - before;
        k += 1;
    }
    println!(
        "fleet_churn: {} events over {k} soak(s), {busy:.3} s in step(); tail = p{TAIL_PCT} of {} steps",
        steps.len(),
        steps.len()
    );
    println!(
        "fleet_churn: fail_frac {:.6} ({refused} refused of {arrivals} arrivals)",
        report::ratio(refused, arrivals)
    );
    out.metric("setup_s", report::median(&mut setups));
    out.metric("ops_per_s", steps.len() as f64 / busy);
    out.metric("step_p50_ms", report::median(&mut steps) * 1e3);
    out.metric(
        "step_tail_ms",
        report::percentile(&mut steps, TAIL_PCT) * 1e3,
    );
    out.metric("peak_rss_mib", rss);
    Ok(())
}

// ---- traced run --------------------------------------------------------

/// Step kinds in attribution order, with their metrics: a step is the
/// first kind whose [`marks`] counter it advanced, or `other` (an orphan
/// event) when it advanced none.
const KINDS: [(&str, &str, &str, &str); 7] = [
    (
        "arrive",
        "fleet.arrive.count",
        "fleet.arrive.ns",
        "fleet.arrive.p50_us",
    ),
    (
        "attack",
        "fleet.attack.count",
        "fleet.attack.ns",
        "fleet.attack.p50_us",
    ),
    (
        "defrag",
        "fleet.defrag.count",
        "fleet.defrag.ns",
        "fleet.defrag.p50_us",
    ),
    (
        "expand",
        "fleet.expand.count",
        "fleet.expand.ns",
        "fleet.expand.p50_us",
    ),
    (
        "slice",
        "fleet.slice.count",
        "fleet.slice.ns",
        "fleet.slice.p50_us",
    ),
    (
        "depart",
        "fleet.depart.count",
        "fleet.depart.ns",
        "fleet.depart.p50_us",
    ),
    ("other", "fleet.other.count", "fleet.other.ns", ""),
];

/// The counters that tell step kinds apart, in [`KINDS`] order.
fn marks(sim: &FleetSim) -> [u64; 6] {
    let s = sim.stats();
    [
        s.arrivals,
        s.attacks,
        s.defrag_sweeps,
        s.expansions + s.expand_denials,
        s.slices,
        s.departures,
    ]
}

/// The deterministic counters both passes must agree on.
fn work(sim: &FleetSim) -> [u64; 5] {
    let reg = Registry::new();
    sim.export_telemetry(&reg);
    let snap = reg.snapshot();
    let s = sim.stats();
    [
        s.events_processed,
        report::counter(&snap, &["ctrl"], "accesses"),
        s.ledger_compiles,
        s.program_binds,
        s.full_proofs,
    ]
}

/// One untraced pass over the first soak of `--seed`: its host time in
/// `step()`, its work counters, and its report.
fn untraced_pass(seed: u64) -> Result<(f64, [u64; 5], FleetReport), SilozError> {
    let mut sim = soak(seed, 0)?;
    let t = Instant::now();
    while sim.step()? {}
    let ns = t.elapsed().as_nanos() as f64;
    let work = work(&sim);
    let r = sim.run_to_completion()?;
    println!(
        "digest fleet_churn soak=0 events={} fnv={}",
        r.events_processed,
        report::digest(&render(&sim, &r))
    );
    Ok((ns, work, r))
}

/// The traced run: the first soak of `--seed` whole, untraced (which
/// also warms the allocator), traced with every `step()` timed and
/// attributed, and untraced again as the overhead baseline.
pub fn trace(seed: u64) -> Outcome {
    let mut out = Outcome::default();
    if let Err(e) = trace_inner(seed, &mut out) {
        out.check(false, || format!("fleet step failed: {e}"));
    }
    out
}

fn trace_inner(seed: u64, out: &mut Outcome) -> Result<(), SilozError> {
    let (_, untraced_work, untraced) = untraced_pass(seed)?;
    check_report(out, &untraced);

    let mut sim = soak(seed, 0)?;
    let mut count = [0u64; 7];
    let mut ns = [0u64; 7];
    let mut lat: Vec<Vec<f64>> = vec![Vec::new(); 7];
    let t = Instant::now();
    loop {
        let before = marks(&sim);
        let s = Instant::now();
        if !sim.step()? {
            break;
        }
        let dt = s.elapsed().as_nanos() as u64;
        let after = marks(&sim);
        let kind = (0..6).find(|&i| after[i] > before[i]).unwrap_or(6);
        count[kind] += 1;
        ns[kind] += dt;
        lat[kind].push(dt as f64);
    }
    let traced_ns = t.elapsed().as_nanos() as f64;
    let traced_work = work(&sim);
    let r = sim.run_to_completion()?;
    check_report(out, &r);
    out.attempted = r.events_processed;
    let (untraced_ns, rerun_work, _) = untraced_pass(seed)?;

    // Work equivalence: both passes did the same simulated work, and the
    // attributed steps are exactly the events the engine processed.
    out.check(traced_work == untraced_work && rerun_work == untraced_work, || {
        format!("pass counters differ: untraced {untraced_work:?}, traced {traced_work:?}, rerun {rerun_work:?}")
    });
    out.check(count.iter().sum::<u64>() == r.events_processed, || {
        "attributed steps differ from events processed".into()
    });
    out.check(r == untraced, || {
        "traced pass changed the fleet report".into()
    });
    println!(
        "work-equivalence fleet_churn events={} ctrl_accesses={} ledger_compiles={} program_binds={} full_proofs={}",
        traced_work[0], traced_work[1], traced_work[2], traced_work[3], traced_work[4]
    );

    for (i, &(kind, count_name, ns_name, p50_name)) in KINDS.iter().enumerate() {
        out.metric(count_name, count[i] as f64);
        out.metric(ns_name, ns[i] as f64);
        if !p50_name.is_empty() {
            out.metric(p50_name, report::median(&mut lat[i]) / 1e3);
        }
        println!(
            "fleet_churn traced: {kind:<7} {:>6} steps {:>10.3} ms",
            count[i],
            ns[i] as f64 / 1e6
        );
    }
    let stats = sim.stats();
    out.metric("analysis.proof.ns", stats.check_wall_ns as f64);
    out.metric("analysis.proof.full", stats.full_proofs as f64);
    out.metric(
        "analysis.proof.incremental",
        stats.incremental_checks as f64,
    );
    out.metric(
        "analysis.proof.fast_ratio",
        report::ratio(stats.incremental_fast_checks, stats.incremental_checks),
    );
    out.metric("sim.compile.calls", stats.ledger_compiles as f64);
    out.metric("sim.bind.calls", stats.program_binds as f64);
    out.metric("memctrl.replay.ops", traced_work[1] as f64);
    out.metric(
        "fleet.rebind_ratio",
        report::ratio(stats.program_binds, stats.slices),
    );
    out.metric("fleet.admit_ratio", report::ratio(r.admitted, r.arrivals));
    out.metric("hammer.flips", r.attack_flips as f64);
    out.metric("siloz.cof_migrated", r.cof_migrated as f64);
    out.metric("siloz.defrag_oom", stats.defrag_oom as f64);
    out.metric(
        "fail_frac",
        report::ratio(r.rejections + r.abandoned, r.arrivals),
    );
    let attributed = ns.iter().sum::<u64>() as f64;
    out.metric(
        "unattributed_pct",
        100.0 * (traced_ns - attributed) / traced_ns,
    );
    out.metric(
        "trace_overhead_pct",
        100.0 * (traced_ns - untraced_ns) / untraced_ns,
    );
    println!(
        "fleet_churn traced: wall {:.3} s (untraced {:.3} s)",
        traced_ns * 1e-9,
        untraced_ns * 1e-9
    );
    Ok(())
}
