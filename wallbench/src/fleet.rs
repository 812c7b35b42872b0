//! The `fleet` and `fleet-obs` workloads: open-loop Poisson arrivals of
//! §4.4 `general_at(4,2,1)` instances through a one-shard
//! [`FleetEngine`] with 8 admission slots and a 20 ms deadline.
//!
//! The seed generates a pool of batches, each a Poisson window of
//! [`BATCH`] arrivals with its own network seed. The measured phase
//! cycles through the pool, one `FleetEngine` call per batch: the client
//! submits a batch and gets every outcome back when the call returns.
//! Virtual-time metrics come from the pool's first pass only, so they
//! are bit-identical per seed.

use crate::replay::{self, LayerInputs, ReplayStats, Taps};
use crate::trace::{Calibration, Tracer};
use crate::{
    median, nearest_rank, secs_since, sub_seed, Outcome, Phase, RunConfig, Unit, Workload,
};
use caex::shard::{ActionInstance, FleetConfig, FleetEngine, FleetReport};
use caex::{analysis, workloads};
use caex_load::ArrivalSpec;
use caex_net::{NetConfig, SimTime};
use caex_obs::{MetricsRegistry, Tee, Watchdog};
use std::time::Instant;

/// Offered load, actions per virtual second.
pub const RATE_PER_SEC: f64 = 12_800.0;
/// Arrivals per engine call.
pub const BATCH: usize = 128;
/// Distinct batches generated per seed. The first pass over them gives
/// the virtual-time metrics: 256 batches hold 32 768 actions, enough that
/// the queueing p99 moves only a few percent from seed to seed.
pub const POOL: usize = 256;
/// Admission slots of the single shard.
pub const CAPACITY: usize = 8;
/// Per-request latency budget.
pub const DEADLINE_MS: u64 = 20;
/// §4.4 instance shape `(n, p, q)`.
pub const NPQ: (u32, u32, u32) = (4, 2, 1);
/// Action ids per instance: the top-level action plus `q` nested ones.
const ACTIONS_PER_INSTANCE: u32 = 1 + NPQ.2;

/// One engine call's inputs.
#[derive(Debug, Clone)]
pub struct Batch {
    /// Open-loop arrival times, non-decreasing.
    pub arrivals: Vec<SimTime>,
    /// Seed of the shard's network model.
    pub net_seed: u64,
}

/// Messages §4.4 predicts per instance: `(N−1)(2P+3Q+1)` = 24.
#[must_use]
pub fn messages_per_action() -> u64 {
    let (n, p, q) = NPQ;
    analysis::messages_general(u64::from(n), u64::from(p), u64::from(q))
}

/// The seed's pool of batches.
#[must_use]
pub fn pool(seed: u64) -> Vec<Batch> {
    let spec = ArrivalSpec::Poisson {
        rate_per_sec: RATE_PER_SEC,
    };
    (0..POOL as u64)
        .map(|b| Batch {
            arrivals: spec.schedule(BATCH, sub_seed(seed, 2 * b)),
            net_seed: sub_seed(seed, 2 * b + 1),
        })
        .collect()
}

/// The `i`-th instance of a batch, relocated to private node/action
/// ranges.
#[must_use]
pub fn workload_at(i: u32) -> workloads::Workload {
    let (n, p, q) = NPQ;
    workloads::general_at(
        n,
        p,
        q,
        i * n,
        i * ACTIONS_PER_INSTANCE,
        NetConfig::default(),
    )
}

/// The network model of a batch.
#[must_use]
pub fn net_config(batch: &Batch) -> NetConfig {
    NetConfig::default().with_seed(batch.net_seed)
}

fn instances(batch: &Batch) -> Vec<ActionInstance> {
    batch
        .arrivals
        .iter()
        .enumerate()
        .map(|(i, &at)| {
            let w = workload_at(u32::try_from(i).expect("batch fits u32"));
            ActionInstance::from_scenario(w.scenario, at)
                .with_deadline(SimTime::from_millis(DEADLINE_MS))
        })
        .collect()
}

/// The attached observers' verdicts on one `fleet-obs` batch.
#[derive(Debug)]
pub struct ObsVerdict {
    /// `MetricsRegistry::law_holds`, made non-vacuous: every instance's
    /// round was checked against the law and matched it.
    pub law_holds: bool,
    /// `Watchdog::is_clean`.
    pub clean: bool,
}

/// Builds a batch's instances and runs them through the engine — the
/// timed unit of work. `observed` attaches the stock observers.
#[must_use]
pub fn run_batch(batch: &Batch, observed: bool) -> (FleetReport, Option<ObsVerdict>) {
    let engine = FleetEngine::new(FleetConfig {
        shards: 1,
        capacity: CAPACITY,
        net: net_config(batch),
        law: Some(analysis::messages_general),
        ..FleetConfig::default()
    });
    let instances = instances(batch);
    if observed {
        let mut metrics = MetricsRegistry::new().with_law(analysis::messages_general);
        let mut watchdog = Watchdog::new();
        let report = {
            let mut tee = Tee::new().with(&mut metrics).with(&mut watchdog);
            engine.run_observed(instances, &mut tee)
        };
        let rounds = metrics.resolutions();
        let verdict = ObsVerdict {
            law_holds: metrics.law_holds()
                && rounds.len() == batch.arrivals.len()
                && rounds.iter().all(|r| r.law_holds == Some(true)),
            clean: watchdog.is_clean(),
        };
        (report, Some(verdict))
    } else {
        (engine.run(instances), None)
    }
}

/// Checks one batch's outputs, counting every failed action.
pub fn gate(report: &FleetReport, verdict: Option<&ObsVerdict>, out: &mut Outcome) {
    let expected = messages_per_action();
    out.attempted += report.outcomes.len() as u64;
    let (n, _, _) = NPQ;
    let violation = verdict.is_some_and(|v| !v.clean);
    let law_broken = verdict.is_some_and(|v| !v.law_holds);
    for o in &report.outcomes {
        let stuck = report
            .deadlocked
            .iter()
            .any(|node| node.index() / n == u32::try_from(o.instance).unwrap_or(u32::MAX));
        let wrong = if o.committed.is_none() {
            Some("not committed")
        } else if stuck {
            Some("deadlocked participant")
        } else if report.hit_delivery_limit {
            Some("delivery limit hit")
        } else if violation {
            Some("watchdog violation")
        } else {
            None
        };
        let failed = if o.deadline_missed() {
            Some("deadline missed")
        } else if o.messages != expected || o.law_holds == Some(false) || law_broken {
            Some("message count off the §4.4 law")
        } else {
            None
        };
        match (wrong, failed) {
            (Some(reason), _) => out.wrong(format!("instance {}: {reason}", o.instance)),
            (None, Some(reason)) => out.fail(format!("instance {}: {reason}", o.instance)),
            (None, None) => {}
        }
    }
}

/// Runs the workload as configured.
#[must_use]
pub fn run(config: &RunConfig) -> Outcome {
    let observed = config.workload == Workload::FleetObs;
    let mut out = Outcome::default();
    let mut setup = Vec::new();
    let batches = set_up(config.seed, &mut setup);
    std::hint::black_box(run_batch(&batches[0], observed));
    if config.trace {
        traced(config, &batches, observed, &mut out);
    } else {
        untraced(config, &batches, observed, setup, &mut out);
    }
    out
}

/// Generates the seed's pool, recording the time it took.
fn set_up(seed: u64, times: &mut Vec<f64>) -> Vec<Batch> {
    let t = Instant::now();
    let batches = pool(seed);
    times.push(secs_since(t));
    batches
}

#[allow(clippy::cast_precision_loss)]
fn untraced(
    config: &RunConfig,
    batches: &[Batch],
    observed: bool,
    mut setup: Vec<f64>,
    out: &mut Outcome,
) {
    let mut phase = Phase::new(config.budget());
    let mut virt = Vec::new();
    let mut k = 0usize;
    while k < POOL || !phase.over() {
        if phase.setup_due() {
            std::hint::black_box(set_up(config.seed, &mut setup));
        }
        let batch = &batches[k % POOL];
        let t = Instant::now();
        let (report, verdict) = run_batch(batch, observed);
        let dt = secs_since(t);
        phase.record(Unit {
            wall_s: dt,
            actions: report.committed_count() as f64,
            cost_us: dt * 1e6 / batch.arrivals.len() as f64,
            latency_us: Some(dt * 1e6),
        });
        if k < POOL {
            virt.extend(report.latencies_us().into_iter().map(|us| us as f64));
        }
        gate(&report, verdict.as_ref(), out);
        k += 1;
    }
    phase.report(median(&mut setup), &mut virt, out);
}

#[allow(clippy::cast_precision_loss)]
fn traced(config: &RunConfig, batches: &[Batch], observed: bool, out: &mut Outcome) {
    let budget = config.budget();
    let calibration = Calibration::measure();
    let tracer = Tracer::new(Instant::now());
    let mut stats = ReplayStats::default();
    let mut engine_s = 0.0;
    let mut engine_actions = 0u64;
    let mut traced_s = 0.0;
    let mut queue_wait = Vec::new();
    let start = Instant::now();
    let mut k = 0usize;
    while k == 0 || start.elapsed() < budget {
        let batch = &batches[k % POOL];
        let t = Instant::now();
        let (report, verdict) = run_batch(batch, observed);
        engine_s += secs_since(t);
        engine_actions += report.outcomes.len() as u64;
        queue_wait.extend(report.outcomes.iter().map(|o| o.queue_wait_us() as f64));
        gate(&report, verdict.as_ref(), out);

        let t = Instant::now();
        for (i, o) in report.outcomes.iter().enumerate() {
            tracer.set_action(stats.actions);
            let w = tracer.span("workload.build", || {
                workload_at(u32::try_from(i).expect("batch fits u32"))
            });
            let got = replay::replay(
                w.scenario,
                net_config(batch),
                Taps::Fleet { observed },
                &tracer,
                &mut stats,
            );
            let want = o.resolved.as_ref().map(caex_tree::Exception::id);
            let diverged = got.messages != o.messages
                || got.resolved.first().map(|r| r.1) != want
                || got.resolve_mismatches > 0;
            if diverged {
                out.error(format!(
                    "replay of instance {i} diverged: {} messages resolving {:?}, engine {} resolving {:?}",
                    got.messages,
                    got.resolved.first(),
                    o.messages,
                    want
                ));
            }
        }
        traced_s += secs_since(t);
        k += 1;
    }
    let fail_share = out.fail_share();
    let (spans, totals) = tracer.finish();
    replay::write_trace(config, &spans);
    let inputs = LayerInputs {
        totals,
        calibration,
        engine_ns_per_action: engine_s * 1e9 / engine_actions as f64,
        traced_ns_per_action: traced_s * 1e9 / stats.actions.max(1) as f64,
        stats,
        queue_wait_us_p99: nearest_rank(&mut queue_wait, 0.99),
        fleet: true,
        fail_share,
        ..LayerInputs::default()
    };
    out.metrics.extend(replay::layer_metrics(&inputs));
}
