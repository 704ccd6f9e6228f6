//! `paper_grid`: cold regeneration of the paper's performance grids at
//! evaluation geometry — Fig. 4, Fig. 5, and the arena's two defended
//! arms — each on a fresh `TraceCache`, the way every figure binary
//! starts.
//!
//! The grids' measurement seeds are fixed by the figure functions (seeds
//! `0..repeats`), so this workload's inputs do not vary with `--seed`:
//! the work is the paper's grid itself, and a run repeats it whole.

use crate::report::{self, Outcome};
use crate::WORKERS;
use dram::{DimmProfile, DramSystem, DramSystemBuilder};
use memctrl::{MemoryController, TraceResult};
use mitigation::Backend;
use rand::rngs::StdRng;
use rand::SeedableRng;
use siloz::{Hypervisor, HypervisorKind, SilozConfig, SilozError, VmHandle, VmSpec};
use sim::{Comparison, GuestLedger, SimConfig, TraceCache};
use std::collections::BTreeMap;
use std::time::Instant;
use telemetry::{Registry, Snapshot};
use workloads::{SubstrateSnapshot, WorkloadGen};

/// The two defended arena arms the grid regenerates.
const DEFENDED: [Backend; 2] = [Backend::BlockHammer, Backend::BreakHammer];

/// Set-up samples taken after each regeneration.
const SETUP_SAMPLES: usize = 7;

/// The evaluation-scale simulation parameters of the figure binaries.
fn grid_sim() -> SimConfig {
    SimConfig {
        ops: 120_000,
        repeats: 5,
        vm_memory: 6 << 30,
        vcpus: 40,
        working_set: 512 << 20,
    }
}

/// Fig. 4's roster as `compare_suite` reads it before its first cell:
/// name, metric, cost hint and working set of each workload.
type Roster = Vec<(String, workloads::Metric, u64, u64)>;

/// The set-up a regeneration does before its first cell: the evaluation
/// configuration, Fig. 4's fresh `TraceCache`, and Fig. 4's roster.
fn setup() -> (SilozConfig, TraceCache, Roster) {
    let config = SilozConfig::evaluation();
    let roster = workloads::exec_time_suite(grid_sim().working_set)
        .iter()
        .map(|w| (w.name(), w.metric(), w.cost_hint(), w.working_set()))
        .collect();
    (config, TraceCache::new(), roster)
}

/// One regeneration's simulated output.
struct Grid {
    fig4: Vec<Comparison>,
    fig5: Vec<Comparison>,
    arena: Vec<sim::ArenaRow>,
    /// Deterministic telemetry of all three phases.
    telemetry: Snapshot,
}

impl Grid {
    /// Every simulated statistic, rendered for the digest.
    fn render(&self) -> String {
        format!(
            "{:?}|{:?}|{:?}|{}",
            self.fig4,
            self.fig5,
            self.arena,
            self.telemetry.to_json()
        )
    }

    fn cells(&self) -> u64 {
        sum_counter(&self.telemetry, "cells_run")
    }
}

/// Sums every counter named `metric` anywhere in `snap`.
fn sum_counter(snap: &Snapshot, metric: &str) -> u64 {
    let own = match snap.metrics.get(metric) {
        Some(telemetry::MetricValue::Counter { value, .. }) => *value,
        _ => 0,
    };
    own + snap
        .children
        .values()
        .map(|c| sum_counter(c, metric))
        .sum::<u64>()
}

/// Regenerates the grid with `threads` workers through the figure
/// functions themselves.
fn regenerate(config: &SilozConfig, simc: &SimConfig, threads: usize) -> Result<Grid, SilozError> {
    let reg = Registry::new();
    let fig4 = sim::figure4_observed(config, simc, threads, &reg.child("fig4"))?;
    let fig5 = sim::figure5_observed(config, simc, threads, &reg.child("fig5"))?;
    let arena = sim::arena_observed(config, simc, threads, &DEFENDED, &reg.child("arena"))?;
    Ok(Grid {
        fig4,
        fig5,
        arena,
        telemetry: reg.snapshot().deterministic(),
    })
}

/// Output checks on one regeneration: every row present and finite.
fn check_grid(out: &mut Outcome, grid: &Grid, simc: &SimConfig) {
    let rows_ok = |rows: &[Comparison], n: usize| {
        rows.len() == n + 1
            && rows.last().is_some_and(|r| r.workload == "geomean")
            && rows
                .iter()
                .all(|r| r.reference.mean.is_finite() && r.candidate.mean.is_finite())
    };
    out.check(rows_ok(&grid.fig4, workloads::EXEC_TIME_SUITE_LEN), || {
        "Fig. 4 rows incomplete".into()
    });
    out.check(rows_ok(&grid.fig5, workloads::THROUGHPUT_SUITE_LEN), || {
        "Fig. 5 rows incomplete".into()
    });
    out.check(
        grid.arena.len() == DEFENDED.len()
            && grid
                .arena
                .iter()
                .all(|a| rows_ok(&a.rows, workloads::EXEC_TIME_SUITE_LEN)),
        || "arena rows incomplete".into(),
    );
    let expected = expected_cells(simc);
    out.check(grid.cells() == expected, || {
        format!("grid ran {} cells, expected {expected}", grid.cells())
    });
}

/// Cells one regeneration measures: (seed, workload, arm) per grid.
fn expected_cells(simc: &SimConfig) -> u64 {
    let per = |n: usize| u64::from(simc.repeats) * n as u64 * 2;
    per(workloads::EXEC_TIME_SUITE_LEN) * (1 + DEFENDED.len() as u64)
        + per(workloads::THROUGHPUT_SUITE_LEN)
}

/// Prints the digest and the simulated headline statistics.
fn print_simulated(grid: &Grid, label: &str) {
    println!(
        "digest paper_grid {label} fnv={}",
        report::digest(&grid.render())
    );
    let geo = |rows: &[Comparison]| rows.last().map_or(f64::NAN, Comparison::overhead_pct);
    print!(
        "simulated paper_grid siloz_geomean_overhead_pct fig4={:.6} fig5={:.6}",
        geo(&grid.fig4),
        geo(&grid.fig5)
    );
    for a in &grid.arena {
        print!(
            " arena_{}={:.6}",
            a.backend.name(),
            a.geomean_overhead_pct()
        );
    }
    println!();
}

/// The untraced closed loop: whole regenerations while the next one
/// (predicted by the last) fits in `seconds` of host time — at least one.
pub fn run(_seed: u64, seconds: f64) -> Outcome {
    let mut out = Outcome::default();
    let mut setups = Vec::new();
    let config = SilozConfig::evaluation();
    let simc = grid_sim();
    let mut regen_secs = Vec::new();
    let mut cells = 0u64;
    let mut first: Option<String> = None;
    let mut rss = 0.0;
    loop {
        let t = Instant::now();
        let grid = match regenerate(&config, &simc, WORKERS) {
            Ok(grid) => grid,
            Err(e) => {
                out.attempted += expected_cells(&simc);
                out.check(false, || format!("grid cell failed: {e}"));
                return out;
            }
        };
        let last = t.elapsed().as_secs_f64();
        regen_secs.push(last);
        cells += grid.cells();
        out.attempted += grid.cells();
        check_grid(&mut out, &grid, &simc);
        let rendered = grid.render();
        match &first {
            None => {
                print_simulated(&grid, &format!("regen=0 cells={}", grid.cells()));
                first = Some(rendered);
                rss = report::peak_rss_mib();
            }
            Some(f) => out.check(*f == rendered, || {
                "a repeated regeneration changed simulated output".into()
            }),
        }
        for _ in 0..SETUP_SAMPLES {
            setups.push(report::time_secs(1, setup));
        }
        if regen_secs.iter().sum::<f64>() + last > seconds {
            break;
        }
    }
    let busy: f64 = regen_secs.iter().sum();
    let n = regen_secs.len();
    println!(
        "paper_grid: {n} regenerations, {cells} cells, {busy:.3} s; step = one regeneration, tail = max of {n}"
    );
    println!("paper_grid: fail_frac 0 (every cell succeeded)");
    out.metric("setup_s", report::median(&mut setups));
    out.metric("ops_per_s", cells as f64 / busy);
    out.metric("step_p50_ms", report::median(&mut regen_secs.clone()) * 1e3);
    out.metric(
        "step_tail_ms",
        report::percentile(&mut regen_secs, 100.0) * 1e3,
    );
    out.metric("peak_rss_mib", rss);
    out
}

// ---- traced run --------------------------------------------------------

/// Span totals of the traced grid replay, in the layers' own terms.
#[derive(Default)]
struct Spans {
    /// Whether spans are timed; the untimed replay is the baseline of
    /// the tracing overhead.
    timing: bool,
    build_calls: u64,
    build_ns: u64,
    compile_calls: u64,
    compile_ns: u64,
    guest_ops: u64,
    boot_calls: u64,
    boot_ns: u64,
    bind_calls: u64,
    bind_ns: u64,
    replay_calls: u64,
    replay_ns: u64,
    replay_ops: u64,
    row_hits: u64,
    /// Per defended backend: hooked-minus-bare replay ns, and ACTs.
    hook_ns: [u64; 2],
    hook_acts: [u64; 2],
    /// Bare replays run only to price the hook: excluded from the
    /// traced wall time.
    probe_ns: u64,
    /// Cells and the controller accesses their outcomes account for.
    cells: u64,
    cell_accesses: u64,
}

fn timed<T>(on: bool, acc: &mut u64, f: impl FnOnce() -> T) -> T {
    if !on {
        return f();
    }
    let t = Instant::now();
    let v = f();
    *acc += t.elapsed().as_nanos() as u64;
    v
}

type Nth = fn(usize, u64) -> Box<dyn WorkloadGen>;

/// One grid (one `compare_suite` call) of a phase.
struct GridPlan {
    nth: Nth,
    len: usize,
    candidate: HypervisorKind,
    /// Index into [`DEFENDED`] of the candidate arm's hook, if any.
    defense: Option<usize>,
}

/// The per-phase memo mirroring `TraceCache`: one compile per ledger,
/// one boot per environment, one bind and replay per (ledger, env).
#[derive(Default)]
struct PhaseCache {
    substrates: BTreeMap<(String, u64), (SubstrateSnapshot, StdRng)>,
    ledgers: BTreeMap<(String, u64), GuestLedger>,
    envs: BTreeMap<String, (Hypervisor, VmHandle)>,
    /// Controller accesses of each (ledger, env) replay outcome.
    replays: BTreeMap<(String, u64, String), u64>,
    /// Bound programs and post-replay controllers, held until the phase
    /// ends as `TraceCache` holds them, so allocation costs match.
    retained: Vec<(memctrl::CompiledTrace, MemoryController)>,
}

impl PhaseCache {
    /// Builds (`workloads`) and compiles (`sim::compile`) the ledger of
    /// workload `i` at trace seed `seed`, reusing a pooled substrate
    /// preload the way the figure functions do.
    fn ensure_ledger(
        &mut self,
        spans: &mut Spans,
        plan: &GridPlan,
        i: usize,
        key: &(String, u64),
        simc: &SimConfig,
    ) {
        if self.ledgers.contains_key(key) {
            return;
        }
        let seed = key.1;
        let substrates = &mut self.substrates;
        let (mut w, mut rng) = timed(spans.timing, &mut spans.build_ns, || {
            let mut w = (plan.nth)(i, simc.working_set);
            let mut rng = StdRng::seed_from_u64(seed);
            if let Some(substrate) = w.substrate_key() {
                let pool_key = (substrate, seed);
                if let Some((snap, loaded)) = substrates.get(&pool_key) {
                    w.adopt_substrate(snap);
                    rng = loaded.clone();
                } else {
                    w.preload(&mut rng);
                    if let Some(snap) = w.export_substrate() {
                        substrates.insert(pool_key, (snap, rng.clone()));
                    }
                }
            }
            (w, rng)
        });
        spans.build_calls += 1;
        let threads = simc.vcpus.clamp(1, 16) as u16;
        let ledger = timed(spans.timing, &mut spans.compile_ns, || {
            GuestLedger::generate(w.as_mut(), simc.ops, threads, &mut rng)
        });
        spans.compile_calls += 1;
        spans.guest_ops += ledger.len() as u64;
        self.ledgers.insert(key.clone(), ledger);
    }

    /// Boots (`siloz`) the environment `env_key` names.
    fn ensure_env(
        &mut self,
        spans: &mut Spans,
        env_key: &str,
        kind: HypervisorKind,
        config: &SilozConfig,
        simc: &SimConfig,
    ) -> Result<(), SilozError> {
        if !self.envs.contains_key(env_key) {
            let env = timed(spans.timing, &mut spans.boot_ns, || {
                boot(config, kind, simc)
            })?;
            spans.boot_calls += 1;
            self.envs.insert(env_key.to_string(), env);
        }
        Ok(())
    }

    /// Binds (`sim`) and replays (`memctrl`, plus the hook when
    /// `defense` is set) a ledger in an environment, once per pair;
    /// returns the outcome's controller accesses.
    fn replay(
        &mut self,
        spans: &mut Spans,
        ledger_key: &(String, u64),
        env_key: &str,
        defense: Option<usize>,
        config: &SilozConfig,
    ) -> Result<u64, SilozError> {
        let replay_key = (ledger_key.0.clone(), ledger_key.1, env_key.to_string());
        if let Some(&accesses) = self.replays.get(&replay_key) {
            return Ok(accesses);
        }
        let (hv, vm) = &self.envs[env_key];
        let ledger = &self.ledgers[ledger_key];
        let program = timed(spans.timing, &mut spans.bind_ns, || {
            sim::vm_compiled(hv, *vm, ledger, 0)
        })?;
        spans.bind_calls += 1;
        spans.replay_calls += 1;
        let hook = defense.map(|d| DEFENDED[d]);
        let (result, ctrl) = match defense {
            Some(d) if spans.timing => {
                // The hook's cost is the hooked replay minus a bare one of
                // the same program; the bare replay itself is pricing work
                // the figure functions skip.
                let mut bare_ns = 0;
                timed(true, &mut bare_ns, || replay(config, hv, &program, None));
                let mut hooked_ns = 0;
                let hooked = timed(true, &mut hooked_ns, || replay(config, hv, &program, hook));
                spans.replay_ns += bare_ns;
                spans.hook_ns[d] += hooked_ns.saturating_sub(bare_ns);
                spans.probe_ns += bare_ns;
                spans.hook_acts[d] += hooked.0.stats.row_misses + hooked.0.stats.row_conflicts;
                hooked
            }
            _ => timed(spans.timing, &mut spans.replay_ns, || {
                replay(config, hv, &program, hook)
            }),
        };
        spans.replay_ops += result.stats.accesses;
        spans.row_hits += result.stats.row_hits;
        self.replays.insert(replay_key, result.stats.accesses);
        self.retained.push((program, ctrl));
        Ok(result.stats.accesses)
    }
}

fn boot(
    config: &SilozConfig,
    kind: HypervisorKind,
    simc: &SimConfig,
) -> Result<(Hypervisor, VmHandle), SilozError> {
    let dram = DramSystemBuilder::new(config.geometry)
        .profiles(vec![DimmProfile::invulnerable()])
        .build();
    let mut hv = Hypervisor::boot_with(config.clone(), kind, dram, dram_addr::RepairMap::new())?;
    let vm = hv.create_vm(VmSpec::new("perf-vm", simc.vcpus, simc.vm_memory))?;
    Ok((hv, vm))
}

fn replay(
    config: &SilozConfig,
    hv: &Hypervisor,
    program: &memctrl::CompiledTrace,
    hook: Option<Backend>,
) -> (TraceResult, MemoryController) {
    let mut scratch = DramSystem::new(config.geometry);
    let mut ctrl = MemoryController::new(hv.decoder().clone()).without_physics();
    if let Some(hook) = hook.and_then(Backend::controller_hook) {
        ctrl = ctrl.with_mitigation(hook);
    }
    let result = ctrl.run_compiled(&mut scratch, program);
    (result, ctrl)
}

/// Replays one phase's grids cell by cell, in the figure functions' seed-major
/// order, timing each call into a layer.
fn trace_phase(
    spans: &mut Spans,
    config: &SilozConfig,
    simc: &SimConfig,
    plans: &[GridPlan],
) -> Result<(), SilozError> {
    let mut cache = PhaseCache::default();
    for plan in plans {
        // The roster `compare_suite` builds before its first cell.
        let names: Vec<String> = timed(spans.timing, &mut spans.build_ns, || {
            (0..plan.len)
                .map(|i| (plan.nth)(i, simc.working_set).name())
                .collect()
        });
        spans.build_calls += plan.len as u64;
        for seed in 0..u64::from(simc.repeats) {
            for (i, name) in names.iter().enumerate() {
                let ledger_key = (name.clone(), seed);
                cache.ensure_ledger(spans, plan, i, &ledger_key, simc);
                // Reference arm (undefended baseline), then candidate arm.
                let arms = [
                    (HypervisorKind::Baseline, None),
                    (plan.candidate, plan.defense),
                ];
                for (kind, defense) in arms {
                    let hook = defense.map_or("", |d: usize| DEFENDED[d].name());
                    let env_key = format!("{kind:?}|{hook}");
                    cache.ensure_env(spans, &env_key, kind, config, simc)?;
                    let accesses = cache.replay(spans, &ledger_key, &env_key, defense, config)?;
                    spans.cells += 1;
                    spans.cell_accesses += accesses;
                }
            }
        }
    }
    Ok(())
}

/// Replays the grid phase by phase, each phase on a fresh cache, once
/// with spans (into `traced`) and once without (into `untimed`), back to
/// back in alternating order so the host's drifting speed falls on both
/// passes alike. Returns each pass's host time, pricing probes excluded.
fn trace_grid(
    traced: &mut Spans,
    untimed: &mut Spans,
    config: &SilozConfig,
    simc: &SimConfig,
) -> Result<(f64, f64), SilozError> {
    let exec = |candidate, defense| GridPlan {
        nth: workloads::exec_time_workload,
        len: workloads::EXEC_TIME_SUITE_LEN,
        candidate,
        defense,
    };
    let fig5 = GridPlan {
        nth: workloads::throughput_workload,
        len: workloads::THROUGHPUT_SUITE_LEN,
        candidate: HypervisorKind::Siloz,
        defense: None,
    };
    let arena: Vec<GridPlan> = DEFENDED
        .iter()
        .enumerate()
        .map(|(d, &b)| exec(sim::hypervisor_kind_for(b), Some(d)))
        .collect();
    let phases = [vec![exec(HypervisorKind::Siloz, None)], vec![fig5], arena];
    let mut wall = [0u64; 2];
    for (p, plans) in phases.iter().enumerate() {
        for timing in [p % 2 == 0, p % 2 == 1] {
            let spans = if timing { &mut *traced } else { &mut *untimed };
            let probe_ns = spans.probe_ns;
            let t = Instant::now();
            trace_phase(spans, config, simc, plans)?;
            let ns = t.elapsed().as_nanos() as u64;
            wall[usize::from(timing)] += ns.saturating_sub(spans.probe_ns - probe_ns);
        }
    }
    Ok((wall[1] as f64, wall[0] as f64))
}

/// The traced run: one serial regeneration through the figure functions
/// (untraced; it also warms the allocator), the same grid replayed cell
/// by cell through the layers' public calls with a span around each and,
/// interleaved with it, without spans (the tracing overhead's baseline),
/// and the serial regeneration again (the baseline the spans must
/// account for).
pub fn trace(_seed: u64) -> Outcome {
    let mut out = Outcome::default();
    let config = SilozConfig::evaluation();
    let simc = grid_sim();
    let grid = match regenerate(&config, &simc, 1) {
        Ok(grid) => grid,
        Err(e) => {
            out.attempted = expected_cells(&simc);
            out.check(false, || format!("grid cell failed: {e}"));
            return out;
        }
    };
    out.attempted = grid.cells();
    check_grid(&mut out, &grid, &simc);
    print_simulated(&grid, &format!("serial cells={}", grid.cells()));

    let mut spans = Spans {
        timing: true,
        ..Spans::default()
    };
    let mut untimed = Spans::default();
    let (traced_ns, untimed_ns) = match trace_grid(&mut spans, &mut untimed, &config, &simc) {
        Ok(walls) => walls,
        Err(e) => {
            out.check(false, || format!("replayed grid cell failed: {e}"));
            return out;
        }
    };

    let t = Instant::now();
    let rerun = regenerate(&config, &simc, 1);
    let untraced_ns = t.elapsed().as_nanos() as f64;
    out.check(rerun.is_ok_and(|r| r.render() == grid.render()), || {
        "the serial rerun changed simulated output".into()
    });

    // Work equivalence: the traced replay measured the cells the figure functions
    // measured, and its outcomes account for exactly the controller
    // accesses the figure functions' telemetry counted.
    let pipeline_accesses = sum_counter(&grid.telemetry, "accesses");
    for (pass, s) in [("traced", &spans), ("untimed", &untimed)] {
        out.check(s.cells == grid.cells(), || {
            format!(
                "{pass} replay ran {} cells, figure functions ran {}",
                s.cells,
                grid.cells()
            )
        });
        out.check(s.cell_accesses == pipeline_accesses, || {
            format!(
                "{pass} cells account for {} controller accesses, the figure functions counted {pipeline_accesses}",
                s.cell_accesses
            )
        });
    }
    println!(
        "work-equivalence paper_grid cells={} accesses={} compiles={} boots={} binds={} replays={}",
        spans.cells,
        spans.cell_accesses,
        spans.compile_calls,
        spans.boot_calls,
        spans.bind_calls,
        spans.replay_calls
    );

    let hook_ns: u64 = spans.hook_ns.iter().sum();
    let attributed = (spans.build_ns
        + spans.compile_ns
        + spans.boot_ns
        + spans.bind_ns
        + spans.replay_ns
        + hook_ns) as f64;
    out.metric("workloads.build.calls", spans.build_calls as f64);
    out.metric("workloads.build.ns", spans.build_ns as f64);
    out.metric("sim.compile.calls", spans.compile_calls as f64);
    out.metric("sim.compile.ns", spans.compile_ns as f64);
    out.metric("sim.compile.guest_ops", spans.guest_ops as f64);
    out.metric("siloz.boot.calls", spans.boot_calls as f64);
    out.metric("siloz.boot.ns", spans.boot_ns as f64);
    out.metric("sim.bind.calls", spans.bind_calls as f64);
    out.metric("sim.bind.ns", spans.bind_ns as f64);
    out.metric("memctrl.replay.calls", spans.replay_calls as f64);
    out.metric("memctrl.replay.ns", spans.replay_ns as f64);
    out.metric("memctrl.replay.ops", spans.replay_ops as f64);
    out.metric(
        "memctrl.row_hit_ratio",
        report::ratio(spans.row_hits, spans.replay_ops),
    );
    out.metric(
        "mitigation.blockhammer.ns_per_act",
        report::ratio(spans.hook_ns[0], spans.hook_acts[0]),
    );
    out.metric(
        "mitigation.breakhammer.ns_per_act",
        report::ratio(spans.hook_ns[1], spans.hook_acts[1]),
    );
    out.metric(
        "mitigation.acts",
        spans.hook_acts.iter().sum::<u64>() as f64,
    );
    out.metric("fail_frac", 0.0);
    // The remainder is taken against the figure functions' own serial
    // run, so work the replay skips (per-cell telemetry, the noise model,
    // result assembly) shows as unattributed.
    out.metric(
        "unattributed_pct",
        100.0 * (untraced_ns - attributed) / untraced_ns,
    );
    out.metric(
        "trace_overhead_pct",
        100.0 * (traced_ns - untimed_ns) / untimed_ns,
    );
    println!(
        "paper_grid traced: replay {:.3} s with spans, {:.3} s without (hook-pricing probes {:.3} s excluded); figure functions {:.3} s serial",
        traced_ns * 1e-9,
        untimed_ns * 1e-9,
        spans.probe_ns as f64 * 1e-9,
        untraced_ns * 1e-9
    );
    out
}
