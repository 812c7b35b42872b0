//! The scenario engine with and without an observer: `Scenario::run`
//! skips the observability bridge entirely, and must still report
//! exactly what `Scenario::run_observed` reports. Also pins the order
//! of `RunReport::deadlocked`.

use caex::{workloads, NestedStrategy, RunReport, Scenario};
use caex_action::{ActionRegistry, ActionScope};
use caex_net::{FaultPlan, LatencyModel, NetConfig, NodeId, SimTime};
use caex_tree::{chain_tree, Exception, ExceptionId};
use std::sync::Arc;

fn jittery(seed: u64) -> NetConfig {
    NetConfig::default()
        .with_latency(LatencyModel::Uniform {
            min: SimTime::from_micros(50),
            max: SimTime::from_micros(500),
        })
        .with_seed(seed)
        .with_trace(true)
}

/// Asserts two reports agree field by field.
fn assert_same_report(a: &RunReport, b: &RunReport, tag: &str) {
    assert_eq!(a.resolutions, b.resolutions, "[{tag}] resolutions");
    assert_eq!(a.handler_starts, b.handler_starts, "[{tag}] handler starts");
    assert_eq!(a.failures, b.failures, "[{tag}] failures");
    assert_eq!(a.notes, b.notes, "[{tag}] notes");
    assert_eq!(a.stats, b.stats, "[{tag}] stats");
    assert_eq!(a.finished_at, b.finished_at, "[{tag}] finished_at");
    assert_eq!(a.deadlocked, b.deadlocked, "[{tag}] deadlocked");
    assert_eq!(a.hit_delivery_limit, b.hit_delivery_limit, "[{tag}] delivery limit");
    assert_eq!(a.trace, b.trace, "[{tag}] trace");
    assert_eq!(a.multicasts, b.multicasts, "[{tag}] multicasts");
    assert_eq!(a.wire_bytes, b.wire_bytes, "[{tag}] wire bytes");
}

/// The scenarios both paths run: the paper's examples, a wide §4.4
/// round, jitter with tracing on, duplicate/drop faults, and a deadlock.
fn cases() -> Vec<(&'static str, Scenario)> {
    let faulty = jittery(11).with_faults(
        FaultPlan::none()
            .with_duplicate_probability(0.2)
            .with_drop_probability(0.05),
    );
    vec![
        ("example1", workloads::example1(jittery(1)).0.scenario),
        ("example2", workloads::example2(jittery(2)).0.scenario),
        ("fig3", workloads::fig3(jittery(3)).scenario),
        ("general(32,8,4)", workloads::general(32, 8, 4, NetConfig::default()).scenario),
        ("general(6,3,2) jittery", workloads::general(6, 3, 2, jittery(4)).scenario),
        ("general(5,2,2) with faults", workloads::general(5, 2, 2, faulty).scenario),
        ("two stuck objects", stuck_scenario()),
    ]
}

#[test]
fn unobserved_and_observed_runs_report_identically() {
    for ((tag, plain), (_, observed)) in cases().into_iter().zip(cases()) {
        assert_same_report(&plain.run(), &observed.run_observed(&mut ()), tag);
    }
}

/// Fig. 1(a)'s wait-strategy deadlock, widened: a nested action at
/// object 3 never completes, so the raiser and the other participants
/// of the outer action wait on it forever.
fn stuck_scenario() -> Scenario {
    let tree = Arc::new(chain_tree(2));
    let mut reg = ActionRegistry::new();
    let nodes = [0, 1, 2, 3].map(NodeId::new);
    let a1 = reg
        .declare(ActionScope::top_level("A1", nodes, Arc::clone(&tree)))
        .unwrap();
    let a2 = reg
        .declare(ActionScope::nested("A2", [NodeId::new(3)], Arc::clone(&tree), a1))
        .unwrap();
    Scenario::new(Arc::new(reg))
        .with_strategy(NestedStrategy::Wait)
        .enter_all_at(SimTime::ZERO, a1)
        .enter_at(SimTime::from_micros(1), NodeId::new(3), a2)
        .nested_remaining(NodeId::new(3), a2, None)
        .raise_at(
            SimTime::from_micros(10),
            NodeId::new(2),
            Exception::new(ExceptionId::new(1)),
        )
        .raise_at(
            SimTime::from_micros(10),
            NodeId::new(0),
            Exception::new(ExceptionId::new(1)),
        )
}

#[test]
fn deadlocked_objects_are_reported_in_ascending_order() {
    let first = stuck_scenario().run();
    assert!(first.resolutions.is_empty());
    assert!(first.deadlocked.len() >= 2, "stuck: {:?}", first.deadlocked);
    assert!(
        first.deadlocked.windows(2).all(|w| w[0] < w[1]),
        "not ascending: {:?}",
        first.deadlocked
    );
    for _ in 0..8 {
        assert_eq!(stuck_scenario().run().deadlocked, first.deadlocked);
    }
}
