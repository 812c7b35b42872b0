//! Golden equivalence of the fleet engine at `K = 1`: a one-instance,
//! one-shard, one-slot [`FleetEngine`] must reproduce exactly what
//! [`Scenario::run`] produces for the same action — same message
//! counts, same resolution pick, same observability stream. This is
//! the safety net under the multi-action sharding refactor: the load
//! generator's engine *is* the single-action engine when the fleet
//! degenerates.

use caex::shard::{ActionInstance, FleetConfig, FleetEngine, FleetReport};
use caex::{analysis, workloads, NestedStrategy, Scenario};
use caex_action::{ActionRegistry, ActionScope};
use caex_net::{FaultPlan, LatencyModel, NetConfig, NodeId, SimTime};
use caex_obs::{MetricsRegistry, ObsEvent, ObsKind, Observer, Tee, Watchdog};
use caex_tree::{chain_tree, Exception, ExceptionId};
use proptest::prelude::*;
use std::sync::Arc;

/// Collects the raw event stream.
#[derive(Default)]
struct Recorder {
    events: Vec<ObsEvent>,
}

impl Observer for Recorder {
    fn on_event(&mut self, event: &ObsEvent) {
        self.events.push(event.clone());
    }
}

/// Runs one scenario both ways and returns
/// `(scenario events, fleet events, fleet report, scenario report)`.
fn both_ways(
    build: impl Fn() -> caex::Scenario,
) -> (Vec<ObsEvent>, Vec<ObsEvent>, caex::shard::FleetReport, caex::RunReport) {
    both_ways_over(NetConfig::default(), build)
}

/// [`both_ways`] with the fleet running over `net`, which should be
/// the network the scenario was built with (the fleet's network
/// config replaces the scenario's own).
fn both_ways_over(
    net: NetConfig,
    build: impl Fn() -> caex::Scenario,
) -> (Vec<ObsEvent>, Vec<ObsEvent>, caex::shard::FleetReport, caex::RunReport) {
    let mut direct_obs = Recorder::default();
    let direct = build().run_observed(&mut direct_obs);

    let mut fleet_obs = Recorder::default();
    let instance = ActionInstance::from_scenario(build(), SimTime::ZERO);
    let config = FleetConfig {
        shards: 1,
        capacity: 1,
        net,
        law: Some(analysis::messages_general),
        ..Default::default()
    };
    let fleet = FleetEngine::new(config).run_observed(vec![instance], &mut fleet_obs);
    (direct_obs.events, fleet_obs.events, fleet, direct)
}

fn assert_golden_equivalence(
    direct_events: &[ObsEvent],
    fleet_events: &[ObsEvent],
    fleet: &caex::shard::FleetReport,
    direct: &caex::RunReport,
) {
    // Message accounting is identical, kind by kind.
    assert_eq!(fleet.stats.sent_total(), direct.stats.sent_total());
    for kind in ["exception", "ack", "have_nested", "nested_completed", "commit"] {
        assert_eq!(
            fleet.stats.sent_of_kind(kind),
            direct.stats.sent_of_kind(kind),
            "kind {kind}"
        );
    }
    // The resolution pick matches.
    let outcome = &fleet.outcomes[0];
    match direct.resolution_for(outcome.key) {
        Some(r) => {
            assert_eq!(outcome.resolver, Some(r.resolver));
            assert_eq!(
                outcome.resolved.as_ref().map(|e| e.id()),
                Some(r.resolved.id())
            );
            assert_eq!(outcome.committed, Some(r.at));
        }
        None => assert_eq!(outcome.resolver, None),
    }
    // The observability stream is bit-identical (same spans, same
    // order, same timestamps), which subsumes span balance.
    assert_eq!(direct_events, fleet_events);
}

#[test]
fn example1_through_the_fleet_matches_the_scenario_engine() {
    let (de, fe, fleet, direct) =
        both_ways(|| workloads::example1(NetConfig::default()).0.scenario);
    assert_golden_equivalence(&de, &fe, &fleet, &direct);
    assert_eq!(fleet.outcomes[0].resolver, Some(NodeId::new(2)));
    assert!(fleet.law_all_hold());
}

#[test]
fn example2_through_the_fleet_matches_the_scenario_engine() {
    let (de, fe, fleet, direct) =
        both_ways(|| workloads::example2(NetConfig::default()).0.scenario);
    assert_golden_equivalence(&de, &fe, &fleet, &direct);
    // O2 resolves in A1 after the nested resolution is eliminated
    // (§4.3 Example 2's narration).
    assert_eq!(fleet.outcomes[0].resolver, Some(NodeId::new(2)));
}

/// Example 1 with `victim` crashing at `at` over 100 µs links.
fn crash_config(victim: NodeId, at: SimTime) -> NetConfig {
    NetConfig::default()
        .with_latency(LatencyModel::Constant(SimTime::from_micros(100)))
        .with_faults(FaultPlan::none().with_crash(victim, at))
}

/// The failover grid of Example 1 (victims O1–O3, crashes at 0–500 µs
/// in 10 µs steps): the fleet plays the failure detector exactly as
/// `Scenario::run` does, so no survivor is left stuck.
#[test]
fn example1_crash_grid_through_the_fleet_matches_the_scenario_engine() {
    for victim in (1..=3).map(NodeId::new) {
        for t in (0..=50).map(|k| SimTime::from_micros(k * 10)) {
            let net = crash_config(victim, t);
            let (de, fe, fleet, direct) =
                both_ways_over(net.clone(), || workloads::example1(net.clone()).0.scenario);
            assert_golden_equivalence(&de, &fe, &fleet, &direct);
            let survivors_stuck = |stuck: &[NodeId]| -> Vec<NodeId> {
                stuck.iter().copied().filter(|&n| n != victim).collect()
            };
            assert_eq!(
                survivors_stuck(&fleet.deadlocked),
                survivors_stuck(&direct.deadlocked),
                "victim={victim} t={t}"
            );
            assert!(
                survivors_stuck(&fleet.deadlocked).is_empty(),
                "victim={victim} t={t}: survivors stuck"
            );
            assert_eq!(fleet.hit_delivery_limit, direct.hit_delivery_limit);
        }
    }
}

/// Fig. 1a's `Wait` strategy: the resolution stalls until the nested
/// action's declared remaining time runs out, in the fleet too.
#[test]
fn wait_strategy_nested_remaining_through_the_fleet() {
    let build = || {
        let tree = Arc::new(chain_tree(2));
        let mut reg = ActionRegistry::new();
        let a1 = reg
            .declare(ActionScope::top_level(
                "A1",
                [NodeId::new(0), NodeId::new(1)],
                Arc::clone(&tree),
            ))
            .unwrap();
        let a2 = reg
            .declare(ActionScope::nested("A2", [NodeId::new(1)], tree, a1))
            .unwrap();
        Scenario::new(Arc::new(reg))
            .with_strategy(NestedStrategy::Wait)
            .enter_all_at(SimTime::ZERO, a1)
            .enter_at(SimTime::from_micros(1), NodeId::new(1), a2)
            .nested_remaining(NodeId::new(1), a2, Some(SimTime::from_millis(50)))
            .raise_at(
                SimTime::from_micros(10),
                NodeId::new(0),
                Exception::new(ExceptionId::new(1)),
            )
    };
    let (de, fe, fleet, direct) = both_ways(build);
    assert_golden_equivalence(&de, &fe, &fleet, &direct);
    assert_eq!(fleet.outcomes[0].committed, Some(SimTime::from_micros(50_210)));
}

/// Three objects reach A1's exit line; the acceptance test rejects
/// with E1.
fn rejecting_acceptance() -> Scenario {
    let tree = Arc::new(chain_tree(2));
    let mut reg = ActionRegistry::new();
    let a1 = reg
        .declare(ActionScope::top_level("A1", (0..3).map(NodeId::new), tree))
        .unwrap();
    let mut scenario = Scenario::new(Arc::new(reg))
        .enter_all_at(SimTime::ZERO, a1)
        .with_exit_acceptance(a1, || {
            Some(Exception::new(ExceptionId::new(1)).with_origin("acceptance test"))
        });
    for i in 0..3 {
        scenario = scenario.complete_at(SimTime::from_micros(10), NodeId::new(i), a1);
    }
    scenario
}

/// A rejecting exit-line acceptance test (Fig. 2b) turns into a
/// resolution in the fleet as in `Scenario::run`: O2 resolves E1 and
/// all three objects handle it.
#[test]
fn rejecting_exit_acceptance_through_the_fleet() {
    let (de, fe, fleet, direct) = both_ways(rejecting_acceptance);
    assert_golden_equivalence(&de, &fe, &fleet, &direct);
    let outcome = &fleet.outcomes[0];
    assert_eq!(outcome.resolver, Some(NodeId::new(2)));
    assert_eq!(outcome.resolved.as_ref().map(Exception::id), Some(ExceptionId::new(1)));
    let handlers = fe
        .iter()
        .filter(|e| matches!(e.kind, ObsKind::HandlerStart { .. }))
        .count();
    assert_eq!(handlers, 3);
    assert!(fleet.deadlocked.is_empty());
}

/// Acceptance tests travel with their instance to the shard threads.
#[test]
fn acceptance_tests_run_on_shard_threads() {
    let instances = (0..2)
        .map(|i| ActionInstance::from_scenario(rejecting_acceptance(), SimTime::from_micros(i)))
        .collect();
    let config = FleetConfig {
        shards: 2,
        ..Default::default()
    };
    let report = FleetEngine::new(config).run(instances);
    assert_eq!(report.committed_count(), 2);
    for o in &report.outcomes {
        assert_eq!(o.resolver, Some(NodeId::new(2)), "instance {}", o.instance);
        assert_eq!(o.resolved.as_ref().map(Exception::id), Some(ExceptionId::new(1)));
        assert!(o.finished.is_some(), "instance {} drained", o.instance);
    }
}

/// Valid §4.4 shapes: `N` participants, `1 <= P`, `P + Q <= N`, plus a
/// relocation offset pair for the fleet instance.
fn arb_shape() -> impl Strategy<Value = (u32, u32, u32, u32, u32)> {
    (2u32..7)
        .prop_flat_map(|n| (Just(n), 1..=n))
        .prop_flat_map(|(n, p)| (Just(n), Just(p), 0..=(n - p)))
        .prop_flat_map(|(n, p, q)| (Just(n), Just(p), Just(q), 0u32..40, 0u32..40))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A relocated general workload through the degenerate fleet
    /// reproduces the direct engine's outcomes: the §4.4 law count,
    /// the resolver (shifted by the node base), and the obs stream
    /// (shifted spans aside, verified via per-span event counts).
    #[test]
    fn relocated_k1_fleet_reproduces_the_general_workload(
        (n, p, q, node_base, action_base) in arb_shape()
    ) {
        let direct = workloads::general(n, p, q, NetConfig::default()).run();

        let w = workloads::general_at(n, p, q, node_base, action_base, NetConfig::default());
        let instance = ActionInstance::from_scenario(w.scenario, SimTime::ZERO);
        let config = FleetConfig {
            shards: 1,
            capacity: 1,
            law: Some(analysis::messages_general),
            ..Default::default()
        };
        let fleet = FleetEngine::new(config).run(vec![instance]);

        let outcome = &fleet.outcomes[0];
        // Message counts: fleet == direct == the closed-form law.
        prop_assert_eq!(fleet.stats.sent_total(), direct.stats.sent_total());
        prop_assert_eq!(
            outcome.messages,
            analysis::messages_general(u64::from(n), u64::from(p), u64::from(q))
        );
        prop_assert!(fleet.law_all_hold(), "§4.4 law after relocation");
        // Resolution pick: same resolver modulo the node relocation,
        // same exception, same commit time.
        let r = direct
            .resolution_for(direct.resolutions[0].action)
            .expect("general workload resolves");
        prop_assert_eq!(
            outcome.resolver,
            Some(NodeId::new(r.resolver.index() + node_base))
        );
        prop_assert_eq!(
            outcome.resolved.as_ref().map(caex_tree::Exception::id),
            Some(r.resolved.id())
        );
        prop_assert_eq!(outcome.committed, Some(r.at));
        prop_assert_eq!(outcome.finished, Some(direct.finished_at));
        prop_assert!(fleet.deadlocked.is_empty());
    }
}

/// `count` relocated `general_at(n, p, q)` instances, one every 40 µs,
/// at disjoint node/action ranges starting from the given bases.
fn relocated_batch(
    (n, p, q): (u32, u32, u32),
    count: u32,
    node_base: u32,
    action_base: u32,
) -> Vec<ActionInstance> {
    (0..count)
        .map(|i| {
            let w = workloads::general_at(
                n,
                p,
                q,
                node_base + i * n,
                action_base + i * (1 + q),
                NetConfig::default(),
            );
            ActionInstance::from_scenario(w.scenario, SimTime::from_micros(u64::from(i) * 40))
        })
        .collect()
}

fn fleet_config(law: fn(u64, u64, u64) -> u64, capacity: usize, net: NetConfig) -> FleetConfig {
    FleetConfig {
        shards: 1,
        capacity,
        net,
        law: Some(law),
        ..Default::default()
    }
}

fn law_off_by_one(n: u64, p: u64, q: u64) -> u64 {
    analysis::messages_general(n, p, q) + 1
}

#[test]
fn unobserved_fleet_computes_a_real_law_verdict_per_instance() {
    let config = fleet_config(analysis::messages_general, 3, NetConfig::default());
    let report = FleetEngine::new(config).run(relocated_batch((4, 2, 1), 12, 0, 0));
    assert_eq!(report.committed_count(), 12);
    for o in &report.outcomes {
        assert_eq!(o.law_holds, Some(true), "instance {}", o.instance);
        assert_eq!(o.law_predicted, Some(24), "instance {}", o.instance);
        assert_eq!(o.messages, 24);
    }
    assert!(report.law_all_hold());
}

#[test]
fn a_law_off_by_one_fails_every_instance() {
    let config = fleet_config(law_off_by_one, 3, NetConfig::default());
    let report = FleetEngine::new(config).run(relocated_batch((4, 2, 1), 6, 0, 0));
    for o in &report.outcomes {
        assert_eq!(o.law_holds, Some(false), "instance {}", o.instance);
        assert_eq!(o.law_predicted, Some(25), "instance {}", o.instance);
    }
    assert!(!report.law_all_hold());
}

#[test]
fn no_law_means_no_verdict() {
    let config = FleetConfig {
        law: None,
        ..fleet_config(analysis::messages_general, 3, NetConfig::default())
    };
    let report = FleetEngine::new(config).run(relocated_batch((4, 2, 1), 4, 0, 0));
    assert!(report
        .outcomes
        .iter()
        .all(|o| o.law_holds.is_none() && o.law_predicted.is_none()));
}

/// Runs a batch observed by `MetricsRegistry` + `Watchdog`, returning
/// the report and the registry (finalized by the engine).
fn observed(config: FleetConfig, batch: Vec<ActionInstance>) -> (FleetReport, MetricsRegistry, bool) {
    let mut metrics = match config.law {
        Some(law) => MetricsRegistry::new().with_law(law),
        None => MetricsRegistry::new(),
    };
    let mut watchdog = Watchdog::new();
    let report = {
        let mut tee = Tee::new().with(&mut metrics).with(&mut watchdog);
        FleetEngine::new(config).run_observed(batch, &mut tee)
    };
    (report, metrics, watchdog.is_clean())
}

/// Per-instance `(predicted, holds)` as an attached `MetricsRegistry`
/// reports them: its rounds grouped by the instance's action range.
fn registry_verdict(metrics: &MetricsRegistry, range: std::ops::Range<u32>) -> (Option<u64>, Option<bool>) {
    let mut predicted = None;
    let mut holds = None;
    for r in metrics.resolutions() {
        if !range.contains(&r.action.index()) {
            continue;
        }
        if let Some(want) = r.predicted {
            *predicted.get_or_insert(0) += want;
        }
        if let Some(h) = r.law_holds {
            let all = holds.get_or_insert(true);
            *all = *all && h;
        }
    }
    (predicted, holds)
}

/// Asserts two fleet reports agree on everything but observation.
fn assert_same_report(a: &FleetReport, b: &FleetReport) {
    assert_eq!(format!("{:?}", a.outcomes), format!("{:?}", b.outcomes));
    assert_eq!(a.stats, b.stats);
    assert_eq!(a.shard_finished, b.shard_finished);
    assert_eq!(a.deadlocked, b.deadlocked);
    assert_eq!(a.hit_delivery_limit, b.hit_delivery_limit);
}

#[test]
fn observed_and_unobserved_fleets_return_identical_outcomes() {
    let jitter = NetConfig::default()
        .with_latency(LatencyModel::Uniform {
            min: SimTime::from_micros(50),
            max: SimTime::from_micros(150),
        })
        .with_seed(7);
    for (shape, law) in [
        ((4, 2, 1), analysis::messages_general as fn(u64, u64, u64) -> u64),
        ((5, 3, 2), analysis::messages_general),
        ((4, 2, 1), law_off_by_one),
    ] {
        for net in [NetConfig::default(), jitter.clone()] {
            let config = fleet_config(law, 2, net);
            let batch = || relocated_batch(shape, 10, 3, 5);
            let plain = FleetEngine::new(config.clone()).run(batch());
            let (watched, metrics, clean) = observed(config, batch());
            assert!(clean, "watchdog violation on {shape:?}");
            assert_same_report(&plain, &watched);
            for o in &plain.outcomes {
                assert!(o.law_holds.is_some(), "every instance is checked");
            }
            // The engine's own verdict is the registry's, instance by
            // instance.
            let instances = relocated_batch(shape, 10, 3, 5);
            for (o, inst) in plain.outcomes.iter().zip(&instances) {
                assert_eq!(
                    (o.law_predicted, o.law_holds),
                    registry_verdict(&metrics, inst.action_range()),
                    "instance {} of {shape:?}",
                    o.instance
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The engine's per-instance law verdict and prediction equal what
    /// an attached `MetricsRegistry` computes from the event stream,
    /// under the true law and under one off by one.
    #[test]
    fn fleet_law_verdict_matches_the_metrics_registry(
        (n, p, q, node_base, action_base) in arb_shape(),
        off_by_one in any::<bool>(),
    ) {
        let law = if off_by_one { law_off_by_one } else { analysis::messages_general };
        let config = fleet_config(law, 2, NetConfig::default());
        let batch = || relocated_batch((n, p, q), 3, node_base, action_base);
        let plain = FleetEngine::new(config.clone()).run(batch());
        let (watched, metrics, _) = observed(config, batch());
        for (o, inst) in plain.outcomes.iter().zip(&batch()) {
            let want = registry_verdict(&metrics, inst.action_range());
            prop_assert_eq!((o.law_predicted, o.law_holds), want);
            prop_assert_eq!(o.law_holds, Some(!off_by_one));
        }
        prop_assert_eq!(format!("{:?}", plain.outcomes), format!("{:?}", watched.outcomes));
        prop_assert_eq!(&plain.stats, &watched.stats);
    }
}
