//! The traced replay of the sim workloads, and the per-layer metrics
//! every traced run reports.
//!
//! The engines' loops cannot be traced from outside, so the traced run
//! drives the same instances through a small replay built from the
//! public pieces the engines use — `Participant::new`/`handle`,
//! `SimNet` `schedule_local`/`send`/`next_delivery`, `ObsBridge` and
//! the observers — with a span around each call. Instances are
//! replayed one at a time. The caller compares every replay's message
//! count and resolved exception with the engine's own outcome; a
//! divergence voids the run. `ExceptionTree::resolve` runs inside
//! `Participant::handle`, so the replay times it by calling it again
//! on each committed round's raised set and checks that the answer is
//! the committed exception.
//!
//! This replay exists only until the engines emit their own spans.

use crate::trace::{Calibration, Span, Totals, Tracer};
use crate::{Metric, RunConfig};
use caex::{analysis, codec, Effect, Event, LeaveMode, Note, ObsBridge, Participant, Scenario};
use caex_action::ActionId;
use caex_net::{DeliverySource, NetConfig, NodeId, SimNet};
use caex_obs::{MetricsRegistry, ObsEvent, Observer, Tee, Watchdog};
use caex_tree::ExceptionId;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;

/// Which engine's taps the replay mirrors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Taps {
    /// `FleetEngine`: participants of the instance only, the engine's
    /// built-in `MetricsRegistry`, plus the attached observers when
    /// `observed`.
    Fleet {
        /// Attach `MetricsRegistry` + `Watchdog` as `fleet-obs` does.
        observed: bool,
    },
    /// `Scenario::run`: every node, the null observer, and
    /// `codec::encoded_len` per send.
    Scenario,
}

/// Counts gathered across replays.
#[derive(Debug, Default, Clone, Copy)]
pub struct ReplayStats {
    /// Actions (instances or runs) replayed.
    pub actions: u64,
    /// Effects returned by `Participant::handle`.
    pub effects: u64,
    /// Observation events emitted by the bridge.
    pub events: u64,
    /// Largest `SimNet` in-flight count seen.
    pub in_flight_max: u64,
    /// Raised exceptions summed over resolve calls.
    pub raised: u64,
    /// Encoded message bytes summed over `codec::encoded_len` calls.
    pub codec_bytes: u64,
}

/// What one replayed action produced.
#[derive(Debug, Default)]
pub struct Replayed {
    /// Protocol messages sent.
    pub messages: u64,
    /// Committed resolutions, in commit order.
    pub resolved: Vec<(ActionId, ExceptionId)>,
    /// Resolutions where the re-invoked resolve disagreed.
    pub resolve_mismatches: u64,
}

/// Counts events and forwards nothing.
#[derive(Default)]
struct Counter(u64);

impl Observer for Counter {
    fn on_event(&mut self, _event: &ObsEvent) {
        self.0 += 1;
    }
}

/// An observer wrapped in a span per event.
struct Timed<'t, O> {
    inner: O,
    tracer: &'t Tracer,
    name: &'static str,
}

impl<O: Observer> Observer for Timed<'_, O> {
    fn on_event(&mut self, event: &ObsEvent) {
        self.tracer.enter(self.name);
        self.inner.on_event(event);
        self.tracer.exit();
    }

    fn on_run_end(&mut self, at: caex_net::SimTime) {
        self.inner.on_run_end(at);
    }
}

/// Replays one action's scenario under `net_config`, recording spans
/// into `tracer` and counts into `stats`.
///
/// # Panics
///
/// Panics on the scenario programming errors the engines panic on.
#[allow(clippy::too_many_lines)]
pub fn replay(
    scenario: Scenario,
    net_config: NetConfig,
    taps: Taps,
    tracer: &Tracer,
    stats: &mut ReplayStats,
) -> Replayed {
    tracer.enter("action");
    let strategy = scenario.strategy();
    let group = scenario.resolver_group_size();
    let leave_mode = scenario.leave_mode();
    let failover = scenario.failover();
    let (registry, steps, handlers) = scenario.into_script();
    let nodes: Vec<NodeId> = match taps {
        Taps::Fleet { .. } => {
            let top = registry.top_level();
            registry
                .scope(top[0])
                .expect("top-level action is declared")
                .participants()
                .to_vec()
        }
        Taps::Scenario => {
            let n = registry
                .iter()
                .flat_map(|(_, s)| s.participants().iter().copied())
                .map(|n| n.index() + 1)
                .max()
                .unwrap_or(0);
            (0..n).map(NodeId::new).collect()
        }
    };
    let num_nodes = nodes.iter().map(|n| n.index() + 1).max().unwrap_or(0);
    let mut net: SimNet<Event> = SimNet::new(net_config, num_nodes);
    let mut participants: HashMap<NodeId, Participant> = HashMap::new();
    for &n in &nodes {
        let p = tracer.span("participant.new", || {
            let mut p = Participant::new(n, Arc::clone(&registry), strategy);
            p.set_resolver_group(group);
            p.set_leave_mode(leave_mode);
            p.set_failover(failover);
            p
        });
        participants.insert(n, p);
    }
    for (object, action, table) in handlers {
        participants
            .get_mut(&object)
            .expect("handler for unknown object")
            .set_handlers(action, table);
    }
    for (at, object, event) in steps {
        tracer.span("simnet.schedule", || net.schedule_local(at, object, event));
    }

    let (fleet, observed) = match taps {
        Taps::Fleet { observed } => (true, observed),
        Taps::Scenario => (false, false),
    };
    let mut counter = Counter::default();
    let mut builtin = Timed {
        inner: MetricsRegistry::new().with_law(analysis::messages_general),
        tracer,
        name: "obs.metrics",
    };
    let mut metrics = Timed {
        inner: MetricsRegistry::new().with_law(analysis::messages_general),
        tracer,
        name: "obs.metrics",
    };
    let mut watchdog = Timed {
        inner: Watchdog::new(),
        tracer,
        name: "obs.watchdog",
    };
    let mut bridge = ObsBridge::new();
    let mut leave_requests: HashMap<ActionId, BTreeSet<NodeId>> = HashMap::new();
    let mut out = Replayed::default();

    while let Some(delivery) = tracer.span("simnet.next_delivery", || net.next_delivery()) {
        let at = delivery.at;
        let object = delivery.to;
        let participant = participants
            .get_mut(&object)
            .expect("delivery to unknown object");
        let mut tee = Tee::new().with(&mut counter);
        if fleet {
            tee = tee.with(&mut builtin);
        }
        if observed {
            tee = tee.with(&mut metrics).with(&mut watchdog);
        }
        if let DeliverySource::Remote(from) = delivery.source {
            tracer.span("bridge.on_receive", || {
                bridge.on_receive(object, &delivery.payload, from, at, None, &mut tee);
            });
        }
        let pre = tracer.span("bridge.pre", || bridge.pre(participant, &delivery.payload));
        let effects = tracer.span("participant.handle", || {
            participant.handle(delivery.payload)
        });
        tracer.span("bridge.post", || {
            bridge.post(&pre, participant, &effects, at, None, &mut tee)
        });
        drop(tee);
        stats.effects += effects.len() as u64;
        for effect in effects {
            match effect {
                Effect::Send { to, msg } => {
                    if !fleet {
                        let len = tracer.span("codec.encoded_len", || codec::encoded_len(&msg));
                        stats.codec_bytes += len as u64;
                    }
                    tracer.span("simnet.send", || net.send(object, to, Event::Msg(msg)));
                    out.messages += 1;
                }
                Effect::After { delay, event } => {
                    tracer.span("simnet.schedule", || {
                        net.schedule_local_in(delay, object, event)
                    });
                }
                Effect::Note(note) => match &note {
                    Note::ResolutionCommitted {
                        action,
                        resolved,
                        raised,
                        ..
                    } => {
                        let tree = registry.scope(*action).expect("declared action").tree();
                        let again = tracer.span("tree.resolve", || {
                            tree.resolve(raised.iter().map(|(_, e)| e.id()))
                        });
                        if again.ok() != Some(resolved.id()) {
                            out.resolve_mismatches += 1;
                        }
                        stats.raised += raised.len() as u64;
                        out.resolved.push((*action, resolved.id()));
                    }
                    Note::LeaveRequested { object: o, action }
                        if leave_mode == LeaveMode::Managed =>
                    {
                        let waiting = leave_requests.entry(*action).or_default();
                        waiting.insert(*o);
                        let everyone = registry
                            .scope(*action)
                            .expect("declared action")
                            .participants();
                        if waiting.len() == everyone.len() {
                            for &member in everyone {
                                net.schedule_local(net.now(), member, Event::LeaveGranted(*action));
                            }
                        }
                    }
                    _ => {}
                },
            }
        }
    }
    stats.events += counter.0;
    stats.in_flight_max = stats.in_flight_max.max(net.stats().max_in_flight() as u64);
    stats.actions += 1;
    tracer.exit();
    out
}

/// Per-layer measurements of the wire workload.
#[derive(Debug, Default, Clone, Copy)]
pub struct WireLayers {
    /// Encoded bytes per protocol message.
    pub codec_bytes: f64,
    /// ns per `frame::encode_frame` of a protocol frame.
    pub frame_encode_ns: f64,
    /// ns per `frame::decode_frame` of a protocol frame.
    pub frame_decode_ns: f64,
    /// ns per `drive_node` handle callback.
    pub drive_handle_ns: f64,
    /// Median hop produced by a local event, µs.
    pub hop_local_us_p50: f64,
    /// Median hop produced by a received message, µs.
    pub hop_msg_us_p50: f64,
    /// Protocol frames sent per action.
    pub frames_per_action: f64,
    /// Detector suspicion flaps per action.
    pub suspicion_flaps: f64,
    /// Link reconnects per action.
    pub reconnects: f64,
    /// Median `WireBound::connect` + barrier time, ms.
    pub connect_ms: f64,
}

/// Everything a traced run feeds into [`layer_metrics`]. Fields a
/// workload does not exercise stay zero.
#[derive(Debug, Default)]
pub struct LayerInputs {
    /// Span totals by name.
    pub totals: BTreeMap<&'static str, Totals>,
    /// Span recording cost, taken out of every span time.
    pub calibration: Calibration,
    /// Replay counts (`actions` is the number of traced actions).
    pub stats: ReplayStats,
    /// Untraced wall ns per action, measured in the same run.
    pub engine_ns_per_action: f64,
    /// Traced wall ns per action.
    pub traced_ns_per_action: f64,
    /// Virtual queueing delay p99, µs (fleet only).
    pub queue_wait_us_p99: f64,
    /// The replayed engine is the fleet's shard loop.
    pub fleet: bool,
    /// The replayed engine is `Scenario::run`'s loop.
    pub scenario: bool,
    /// Failed share of attempted actions.
    pub fail_share: f64,
    /// Wire-only measurements.
    pub wire: WireLayers,
}

/// Span names whose self time is layer work (not replay bookkeeping,
/// and not the resolve re-invocation, which duplicates work done inside
/// `participant.handle`).
const LAYER_SPANS: [&str; 12] = [
    "workload.build",
    "participant.new",
    "participant.handle",
    "simnet.schedule",
    "simnet.send",
    "simnet.next_delivery",
    "bridge.on_receive",
    "bridge.pre",
    "bridge.post",
    "obs.metrics",
    "obs.watchdog",
    "codec.encoded_len",
];

#[allow(clippy::cast_precision_loss)]
fn ratio(num: f64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num / den as f64
    }
}

/// The per-layer metrics, every one on every workload, in a fixed order.
#[must_use]
#[allow(clippy::cast_precision_loss)]
pub fn layer_metrics(inp: &LayerInputs) -> Vec<Metric> {
    let t = |name: &str| inp.totals.get(name).copied().unwrap_or_default();
    let own = |name: &str| inp.calibration.self_ns(t(name));
    let acts = inp.stats.actions;
    let handle = t("participant.handle");
    let send = t("simnet.send");
    let deliver = t("simnet.next_delivery");
    let resolve = t("tree.resolve");
    let bridge_ns = own("bridge.on_receive") + own("bridge.pre") + own("bridge.post");
    let layer_self: f64 = LAYER_SPANS.iter().map(|n| own(n)).sum();
    let loop_ns = inp.engine_ns_per_action - ratio(layer_self, acts);
    let msgs_per_action = ratio(send.count as f64, acts);
    let overhead = if inp.engine_ns_per_action > 0.0 {
        inp.traced_ns_per_action / inp.engine_ns_per_action - 1.0
    } else {
        0.0
    };
    let w = inp.wire;
    let m = |name: &'static str, value: f64, unit: &'static str| Metric { name, value, unit };
    vec![
        m(
            "workload.build.ns",
            ratio(own("workload.build"), acts),
            "ns",
        ),
        m(
            "participant.handle.calls",
            ratio(handle.count as f64, acts),
            "count",
        ),
        m(
            "participant.handle.ns",
            ratio(own("participant.handle"), handle.count),
            "ns",
        ),
        m(
            "participant.handle.effects",
            ratio(inp.stats.effects as f64, handle.count),
            "count",
        ),
        m("simnet.msgs", msgs_per_action, "count"),
        m(
            "simnet.send.ns",
            ratio(own("simnet.send"), send.count),
            "ns",
        ),
        m(
            "simnet.deliver.ns",
            ratio(own("simnet.next_delivery"), deliver.count),
            "ns",
        ),
        m(
            "simnet.in_flight.max",
            inp.stats.in_flight_max as f64,
            "count",
        ),
        m(
            "tree.resolve.calls",
            ratio(resolve.count as f64, acts),
            "count",
        ),
        m(
            "tree.resolve.ns",
            ratio(own("tree.resolve"), resolve.count),
            "ns",
        ),
        m(
            "tree.resolve.raised",
            ratio(inp.stats.raised as f64, resolve.count),
            "count",
        ),
        m("bridge.ns", ratio(bridge_ns, handle.count), "ns"),
        m("obs.events", ratio(inp.stats.events as f64, acts), "count"),
        m(
            "obs.metrics.ns",
            ratio(own("obs.metrics"), inp.stats.events),
            "ns",
        ),
        m(
            "obs.watchdog.ns",
            ratio(own("obs.watchdog"), inp.stats.events),
            "ns",
        ),
        m("shard.queue_wait_us.p99", inp.queue_wait_us_p99, "us"),
        m(
            "shard.loop_ns_per_action",
            if inp.fleet { loop_ns } else { 0.0 },
            "ns",
        ),
        m(
            "engine.loop_ns_per_msg",
            if inp.scenario && msgs_per_action > 0.0 {
                loop_ns / msgs_per_action
            } else {
                0.0
            },
            "ns",
        ),
        m(
            "codec.bytes",
            if w.codec_bytes > 0.0 {
                w.codec_bytes
            } else {
                ratio(inp.stats.codec_bytes as f64, send.count)
            },
            "B",
        ),
        m("frame.encode.ns", w.frame_encode_ns, "ns"),
        m("frame.decode.ns", w.frame_decode_ns, "ns"),
        m("drive.handle.ns", w.drive_handle_ns, "ns"),
        m("drive.hop_us.local.p50", w.hop_local_us_p50, "us"),
        m("drive.hop_us.msg.p50", w.hop_msg_us_p50, "us"),
        m("wireport.frames_per_action", w.frames_per_action, "count"),
        m("wireport.suspicion_flaps", w.suspicion_flaps, "count"),
        m("wireport.reconnects", w.reconnects, "count"),
        m("wireport.connect_ms", w.connect_ms, "ms"),
        m("trace.overhead", overhead, "ratio"),
        m(
            "trace.span_ns",
            inp.calibration.own_ns + inp.calibration.parent_ns,
            "ns",
        ),
        m("fail_share", inp.fail_share, "share"),
    ]
}

/// Writes a traced run's spans to `out/spans-<workload>-<seed>.tsv`
/// inside the benchmark's directory; a write failure is reported on
/// stderr and does not void the run.
pub fn write_trace(config: &RunConfig, spans: &[Span]) {
    let path = crate::out_dir().join(format!(
        "spans-{}-{}.tsv",
        config.workload.name(),
        config.seed
    ));
    match crate::trace::write_spans(&path, spans) {
        Ok(()) => eprintln!(
            "wallbench: wrote {} spans to {}",
            spans.len(),
            path.display()
        ),
        Err(e) => eprintln!(
            "wallbench: could not write spans to {}: {e}",
            path.display()
        ),
    }
}
