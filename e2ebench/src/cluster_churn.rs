//! `cluster_churn`: a `cluster::ClusterSim` on the `ClusterScenario::scale`
//! shape (256 mini hosts, Spread policy, attacks off) driven one
//! `step_epoch()` at a time across the benchmark's workers. A run chains
//! whole scenarios seeded from `--seed` (see [`run`]).

use crate::report::{self, Outcome};
use crate::WORKERS;
use cluster::{ClusterPolicy, ClusterReport, ClusterScenario, ClusterSim};
use siloz::SilozError;
use std::time::Instant;
use telemetry::Registry;

/// Hosts in the simulated fleet.
const HOSTS: u32 = 256;

/// Extra set-up samples (`ClusterSim::new`, ~25 ms each) taken after
/// each scenario, besides the scenario's own set-up.
const SETUP_SAMPLES: usize = 3;

/// Tail percentile of epoch latency (≥10 samples beyond it at ~100
/// epochs per scenario).
const TAIL_PCT: f64 = 90.0;

/// Epochs without a dispatch or placement after which the remaining
/// (unplaceable) work is left to `run_to_completion`'s abandonment rule.
const STALL_EPOCHS: u32 = 64;

fn scenario(seed: u64, k: u64) -> ClusterScenario {
    let mut s = ClusterScenario::scale(report::sub_seed(seed, k), ClusterPolicy::Spread, HOSTS);
    s.attack_prob = 0.0;
    s
}

/// Renders every simulated statistic of a finished scenario.
fn render(sim: &ClusterSim, report: &ClusterReport) -> String {
    let reg = Registry::new();
    sim.export_telemetry(&reg);
    format!("{report:?}|{}", reg.snapshot().deterministic().to_json())
}

fn check_report(out: &mut Outcome, r: &ClusterReport) {
    out.check(r.clean(), || {
        format!(
            "cluster seed {} not clean: {} host / {} cluster violations, {} escapes",
            r.seed, r.host_violations, r.cluster_violations, r.attack_escapes
        )
    });
    out.check(r.final_live == 0, || {
        format!(
            "cluster seed {} ended with {} live sandboxes",
            r.seed, r.final_live
        )
    });
    out.check(
        r.migrations > 0 && r.sync_proofs > 0 && r.full_proofs > 0,
        || {
            format!(
                "cluster seed {} exercised too little: {} migrations, {} sync / {} full proofs",
                r.seed, r.migrations, r.sync_proofs, r.full_proofs
            )
        },
    );
}

/// Steps epochs until the scenario drains (or stalls on unplaceable
/// work), handing each epoch's host time to `on_epoch`, then finishes it
/// with `run_to_completion` (final proofs and cluster verification).
/// Returns the report and the finishing call's host time.
fn drive(
    sim: &mut ClusterSim,
    mut on_epoch: impl FnMut(&mut ClusterSim, f64),
) -> Result<(ClusterReport, f64), SilozError> {
    let mut idle = 0u32;
    while !sim.is_done() && idle < STALL_EPOCHS {
        let before = (sim.stats().cluster_events, sim.scheduler().placements);
        let t = Instant::now();
        sim.step_epoch()?;
        let dt = t.elapsed().as_secs_f64();
        on_epoch(sim, dt);
        let after = (sim.stats().cluster_events, sim.scheduler().placements);
        idle = if after == before { idle + 1 } else { 0 };
    }
    let t = Instant::now();
    let report = sim.run_to_completion()?;
    Ok((report, t.elapsed().as_secs_f64()))
}

/// The untraced closed loop: whole scenarios while the next one
/// (predicted by the last) fits in `seconds` of host time — at least one.
pub fn run(seed: u64, seconds: f64) -> Outcome {
    let mut out = Outcome::default();
    if let Err(e) = closed_loop(seed, seconds, &mut out) {
        out.check(false, || format!("cluster epoch failed: {e}"));
    }
    out
}

fn closed_loop(seed: u64, seconds: f64, out: &mut Outcome) -> Result<(), SilozError> {
    let mut setups = Vec::new();
    let mut epochs: Vec<f64> = Vec::new();
    let mut busy = 0.0f64;
    let mut events = 0u64;
    let (mut refused, mut offered) = (0u64, 0u64);
    let mut rss = 0.0;
    let mut k = 0u64;
    let mut last = 0.0f64;
    while k == 0 || busy + last <= seconds {
        let before = busy;
        let t = Instant::now();
        let mut sim = ClusterSim::new(scenario(seed, k), WORKERS)?;
        setups.push(t.elapsed().as_secs_f64());
        let (r, finish) = drive(&mut sim, |_, dt| {
            busy += dt;
            epochs.push(dt);
        })?;
        busy += finish;
        last = busy - before;
        events += r.events_total();
        refused += r.admit_fails + r.migration_fails + r.abandoned_pending;
        offered += r.sandboxes + r.migrations;
        check_report(out, &r);
        println!(
            "digest cluster_churn scenario={k} events={} fnv={}",
            r.events_total(),
            report::digest(&render(&sim, &r))
        );
        if k == 0 {
            rss = report::peak_rss_mib();
        }
        drop(sim);
        for _ in 0..SETUP_SAMPLES {
            setups.push(report::time_secs(1, || {
                ClusterSim::new(scenario(seed, 0), WORKERS)
            }));
        }
        k += 1;
    }
    out.attempted = events;
    println!(
        "cluster_churn: {events} events over {k} scenario(s) of {HOSTS} hosts, {busy:.3} s; tail = p{TAIL_PCT} of {} epochs",
        epochs.len()
    );
    println!(
        "cluster_churn: fail_frac {:.6} ({refused} refused of {offered} sandboxes + migrations)",
        report::ratio(refused, offered)
    );
    out.metric("setup_s", report::median(&mut setups));
    out.metric("ops_per_s", events as f64 / busy);
    out.metric("step_p50_ms", report::median(&mut epochs) * 1e3);
    out.metric(
        "step_tail_ms",
        report::percentile(&mut epochs, TAIL_PCT) * 1e3,
    );
    out.metric("peak_rss_mib", rss);
    Ok(())
}

// ---- traced run --------------------------------------------------------

/// Per-epoch spans of the traced pass.
#[derive(Default)]
struct Spans {
    epochs: Vec<f64>,
    epoch_ns: u64,
    sched_ns: u64,
    sync_ns: u64,
    defrag_epochs: u64,
    defrag_ns: u64,
    /// Telemetry exports that detect defrag epochs: excluded from the
    /// traced wall time.
    probe_ns: u64,
}

/// Defrag migrations across every host so far.
fn defrag_migrations(sim: &ClusterSim) -> u64 {
    let reg = Registry::new();
    sim.export_telemetry(&reg);
    report::counter(
        &reg.snapshot(),
        &["cluster", "hosts", "fleet"],
        "defrag_migrations",
    )
}

/// The deterministic counters both passes must agree on.
fn work(sim: &ClusterSim, r: &ClusterReport) -> [u64; 5] {
    let reg = Registry::new();
    sim.export_telemetry(&reg);
    [
        r.events_total(),
        report::counter(&reg.snapshot(), &["cluster", "hosts", "ctrl"], "accesses"),
        r.ledger_compiles,
        r.program_binds,
        r.full_proofs,
    ]
}

/// One untraced pass over the first scenario of `--seed`: its host time
/// (set-up included), its work counters, and its report.
fn untraced_pass(seed: u64) -> Result<(f64, [u64; 5], ClusterReport), SilozError> {
    let t = Instant::now();
    let mut sim = ClusterSim::new(scenario(seed, 0), WORKERS)?;
    let (r, _) = drive(&mut sim, |_, _| {})?;
    let ns = t.elapsed().as_nanos() as f64;
    let work = work(&sim, &r);
    println!(
        "digest cluster_churn scenario=0 events={} fnv={}",
        r.events_total(),
        report::digest(&render(&sim, &r))
    );
    Ok((ns, work, r))
}

/// The traced run: the first scenario of `--seed` whole, untraced (which
/// also warms the allocator), traced with every epoch timed and split by
/// the engine's phase clocks, and untraced again as the overhead
/// baseline.
pub fn trace(seed: u64) -> Outcome {
    let mut out = Outcome::default();
    if let Err(e) = trace_inner(seed, &mut out) {
        out.check(false, || format!("cluster epoch failed: {e}"));
    }
    out
}

fn trace_inner(seed: u64, out: &mut Outcome) -> Result<(), SilozError> {
    let (_, untraced_work, untraced) = untraced_pass(seed)?;
    check_report(out, &untraced);

    let mut spans = Spans::default();
    let t = Instant::now();
    let s = Instant::now();
    let mut sim = ClusterSim::new(scenario(seed, 0), WORKERS)?;
    let new_ns = s.elapsed().as_nanos() as u64;
    let mut last = (0u64, 0u64, 0u64);
    let (r, finish) = drive(&mut sim, |sim, dt| {
        let ns = (dt * 1e9) as u64;
        let stats = sim.stats();
        let p = Instant::now();
        let defrag = defrag_migrations(sim);
        spans.probe_ns += p.elapsed().as_nanos() as u64;
        spans.epochs.push(dt);
        spans.epoch_ns += ns;
        spans.sched_ns += stats.sched_wall_ns - last.0;
        spans.sync_ns += stats.sync_wall_ns - last.1;
        if defrag > last.2 {
            spans.defrag_epochs += 1;
            spans.defrag_ns += ns;
        }
        last = (stats.sched_wall_ns, stats.sync_wall_ns, defrag);
    })?;
    let finish_ns = (finish * 1e9) as u64;
    let traced_ns = (t.elapsed().as_nanos() as u64).saturating_sub(spans.probe_ns) as f64;
    let traced_work = work(&sim, &r);
    check_report(out, &r);
    out.attempted = r.events_total();
    let skipped_retries = sim.stats().shard_retries_skipped;
    drop(sim);
    let (untraced_ns, rerun_work, _) = untraced_pass(seed)?;

    // Work equivalence: both passes did the same simulated work, and the
    // traced epochs are every epoch the engine ran.
    out.check(traced_work == untraced_work && rerun_work == untraced_work, || {
        format!("pass counters differ: untraced {untraced_work:?}, traced {traced_work:?}, rerun {rerun_work:?}")
    });
    out.check(r == untraced, || {
        "traced pass changed the cluster report".into()
    });
    println!(
        "work-equivalence cluster_churn events={} ctrl_accesses={} ledger_compiles={} program_binds={} full_proofs={} epochs={}/{}",
        traced_work[0],
        traced_work[1],
        traced_work[2],
        traced_work[3],
        traced_work[4],
        spans.epochs.len(),
        r.epochs
    );

    out.metric("cluster.new.ns", new_ns as f64);
    out.metric("cluster.epoch.count", spans.epochs.len() as f64);
    out.metric("cluster.epoch.ns", spans.epoch_ns as f64);
    out.metric(
        "cluster.epoch.p50_us",
        report::median(&mut spans.epochs) * 1e6,
    );
    out.metric("cluster.scheduler.ns", spans.sched_ns as f64);
    out.metric("cluster.sync.ns", spans.sync_ns as f64);
    out.metric(
        "cluster.hosts.ns",
        spans
            .epoch_ns
            .saturating_sub(spans.sched_ns + spans.sync_ns) as f64,
    );
    out.metric("cluster.defrag_epoch.count", spans.defrag_epochs as f64);
    out.metric("cluster.defrag_epoch.ns", spans.defrag_ns as f64);
    out.metric("cluster.final.ns", finish_ns as f64);
    out.metric("cluster.scheduler.placements", r.placements as f64);
    out.metric("cluster.scheduler.rejects", r.placement_rejects as f64);
    out.metric("cluster.migrations", r.migrations as f64);
    out.metric("cluster.pending.skipped_retries", skipped_retries as f64);
    out.metric(
        "cluster.ledger_reuse_ratio",
        1.0 - report::ratio(r.ledger_compiles, r.slices),
    );
    out.metric("sim.compile.calls", r.ledger_compiles as f64);
    out.metric("sim.bind.calls", r.program_binds as f64);
    out.metric("memctrl.replay.ops", traced_work[1] as f64);
    out.metric("analysis.proof.full", r.full_proofs as f64);
    out.metric("analysis.proof.incremental", r.incremental_checks as f64);
    out.metric(
        "analysis.proof.fast_ratio",
        report::ratio(r.incremental_fast_checks, r.incremental_checks),
    );
    out.metric(
        "fail_frac",
        report::ratio(
            r.admit_fails + r.migration_fails + r.abandoned_pending,
            r.sandboxes + r.migrations,
        ),
    );
    let attributed = (new_ns + spans.epoch_ns + finish_ns) as f64;
    out.metric(
        "unattributed_pct",
        100.0 * (traced_ns - attributed) / traced_ns,
    );
    out.metric(
        "trace_overhead_pct",
        100.0 * (traced_ns - untraced_ns) / untraced_ns,
    );
    println!(
        "cluster_churn traced: wall {:.3} s (untraced {:.3} s, defrag-detection probes {:.3} s excluded)",
        traced_ns * 1e-9,
        untraced_ns * 1e-9,
        spans.probe_ns as f64 * 1e-9
    );
    Ok(())
}
