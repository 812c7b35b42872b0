//! The `wide` workload: a closed loop of `Scenario::run` over §4.4
//! `general(32,8,4)` — 899 messages, 8 concurrent raisers, 4 nested
//! aborts — one action at a time.
//!
//! The seed generates a pool of network seeds; step `k` builds the
//! workload under the pool's `k mod POOL`-th seed and runs it. With one
//! client waiting on each call, an action's latency is its run's wall
//! time. Virtual-time metrics come from the pool's first pass only.

use crate::replay::{self, LayerInputs, ReplayStats, Taps};
use crate::trace::{Calibration, Tracer};
use crate::{median, secs_since, sub_seed, Outcome, Phase, RunConfig, Unit};
use caex::{analysis, workloads, RunReport};
use caex_action::ActionId;
use caex_net::NetConfig;
use std::time::Instant;

/// §4.4 shape `(n, p, q)`.
pub const NPQ: (u32, u32, u32) = (32, 8, 4);
/// Distinct network seeds per run seed.
pub const POOL: usize = 64;

/// Messages §4.4 predicts per run: `(N−1)(2P+3Q+1)` = 899.
#[must_use]
pub fn messages_per_action() -> u64 {
    let (n, p, q) = NPQ;
    analysis::messages_general(u64::from(n), u64::from(p), u64::from(q))
}

/// The seed's pool of network seeds.
#[must_use]
pub fn pool(seed: u64) -> Vec<u64> {
    (0..POOL as u64).map(|i| sub_seed(seed, i)).collect()
}

/// The network model for one pool entry.
#[must_use]
pub fn net_config(net_seed: u64) -> NetConfig {
    NetConfig::default().with_seed(net_seed)
}

/// Builds and runs one action — the timed unit of work.
#[must_use]
pub fn run_once(net_seed: u64) -> (ActionId, RunReport) {
    let (n, p, q) = NPQ;
    let w = workloads::general(n, p, q, net_config(net_seed));
    let action = w.action;
    (action, w.scenario.run())
}

/// Checks one run's outputs; returns the agreed exception.
pub fn gate(
    action: ActionId,
    report: &RunReport,
    out: &mut Outcome,
) -> Option<caex_tree::ExceptionId> {
    out.attempted += 1;
    let agreed = report.agreed_exception(action).map(|e| e.id());
    let handlers = report.handlers_for(action).len();
    let wrong = if agreed.is_none() {
        Some("no agreed exception".to_string())
    } else if handlers != NPQ.0 as usize {
        Some(format!("{handlers} handlers started, want {}", NPQ.0))
    } else if !report.deadlocked.is_empty() || report.hit_delivery_limit {
        Some("deadlocked or hit the delivery limit".to_string())
    } else if report.resolution_for(action).is_none() {
        Some("no resolution committed".to_string())
    } else {
        None
    };
    if let Some(reason) = wrong {
        out.wrong(reason);
    } else if report.total_messages() != messages_per_action() {
        out.fail(format!(
            "{} messages, want {}",
            report.total_messages(),
            messages_per_action()
        ));
    }
    agreed
}

/// Runs the workload as configured.
#[must_use]
pub fn run(config: &RunConfig) -> Outcome {
    let mut out = Outcome::default();
    let mut setup = Vec::new();
    let seeds = set_up(config.seed, &mut setup);
    std::hint::black_box(run_once(seeds[0]));
    if config.trace {
        traced(config, &seeds, &mut out);
    } else {
        untraced(config, &seeds, setup, &mut out);
    }
    out
}

/// Generates the seed's pool, recording the time it took.
fn set_up(seed: u64, times: &mut Vec<f64>) -> Vec<u64> {
    let t = Instant::now();
    let seeds = pool(seed);
    times.push(secs_since(t));
    seeds
}

#[allow(clippy::cast_precision_loss)]
fn untraced(config: &RunConfig, seeds: &[u64], mut setup: Vec<f64>, out: &mut Outcome) {
    let mut phase = Phase::new(config.budget());
    let mut virt = Vec::new();
    let mut k = 0usize;
    while k < POOL || !phase.over() {
        if phase.setup_due() {
            std::hint::black_box(set_up(config.seed, &mut setup));
        }
        let t = Instant::now();
        let (action, report) = run_once(seeds[k % POOL]);
        let dt = secs_since(t);
        if k < POOL {
            if let Some(r) = report.resolution_for(action) {
                virt.push(r.at.as_micros() as f64);
            }
        }
        let failed = out.failed;
        gate(action, &report, out);
        phase.record(Unit {
            wall_s: dt,
            actions: if out.failed == failed { 1.0 } else { 0.0 },
            cost_us: dt * 1e6,
            latency_us: Some(dt * 1e6),
        });
        k += 1;
    }
    phase.report(median(&mut setup), &mut virt, out);
}

#[allow(clippy::cast_precision_loss)]
fn traced(config: &RunConfig, seeds: &[u64], out: &mut Outcome) {
    let budget = config.budget();
    let calibration = Calibration::measure();
    let tracer = Tracer::new(Instant::now());
    let mut stats = ReplayStats::default();
    let mut engine_s = 0.0;
    let mut traced_s = 0.0;
    let start = Instant::now();
    let mut k = 0usize;
    while k == 0 || start.elapsed() < budget {
        let net_seed = seeds[k % POOL];
        let t = Instant::now();
        let (action, report) = run_once(net_seed);
        engine_s += secs_since(t);
        let agreed = gate(action, &report, out);

        let t = Instant::now();
        let (n, p, q) = NPQ;
        tracer.set_action(stats.actions);
        let w = tracer.span("workload.build", || {
            workloads::general(n, p, q, NetConfig::default())
        });
        let got = replay::replay(
            w.scenario,
            net_config(net_seed),
            Taps::Scenario,
            &tracer,
            &mut stats,
        );
        traced_s += secs_since(t);
        let resolved = got.resolved.iter().find(|(a, _)| *a == action).map(|r| r.1);
        if got.messages != report.total_messages()
            || resolved != agreed
            || got.resolve_mismatches > 0
        {
            out.error(format!(
                "replay of run {k} diverged: {} messages resolving {resolved:?}, engine {} resolving {agreed:?}",
                got.messages,
                report.total_messages()
            ));
        }
        k += 1;
    }
    let runs = k as f64;
    let fail_share = out.fail_share();
    let (spans, totals) = tracer.finish();
    replay::write_trace(config, &spans);
    let inputs = LayerInputs {
        totals,
        calibration,
        stats,
        engine_ns_per_action: engine_s * 1e9 / runs,
        traced_ns_per_action: traced_s * 1e9 / runs,
        scenario: true,
        fail_share,
        ..LayerInputs::default()
    };
    out.metrics.extend(replay::layer_metrics(&inputs));
}
