//! Scenario scripting and the discrete-event execution engine.

use crate::{Effect, Event, LeaveMode, Msg, NestedStrategy, Note, Participant};
use caex_action::{ActionId, ActionRegistry, HandlerTable};
use caex_net::{NetConfig, NetStats, NodeId, SimNet, SimTime, TraceLog};
use caex_tree::Exception;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt;
use std::sync::Arc;

/// One committed resolution, as observed by the engine.
#[derive(Debug, Clone, PartialEq)]
pub struct ResolutionRecord {
    /// The action the resolution ran in.
    pub action: ActionId,
    /// The elected resolver (highest id among raisers).
    pub resolver: NodeId,
    /// The resolving exception everyone handles.
    pub resolved: Exception,
    /// The raised set that entered resolution.
    pub raised: Vec<(NodeId, Exception)>,
    /// Virtual time of the commit.
    pub at: SimTime,
}

/// One handler activation at one object.
#[derive(Debug, Clone, PartialEq)]
pub struct HandlerStart {
    /// The object.
    pub object: NodeId,
    /// The action whose handler ran.
    pub action: ActionId,
    /// The exception handled.
    pub exc: Exception,
    /// Virtual time of activation.
    pub at: SimTime,
}

/// Everything a scenario run produced.
#[derive(Debug)]
pub struct RunReport {
    /// Committed resolutions in commit order.
    pub resolutions: Vec<ResolutionRecord>,
    /// Every handler activation.
    pub handler_starts: Vec<HandlerStart>,
    /// Top-level action failures (object, action, failure exception).
    pub failures: Vec<(NodeId, ActionId, Exception)>,
    /// All notes, in emission order.
    pub notes: Vec<Note>,
    /// Message statistics of the run.
    pub stats: NetStats,
    /// Virtual time when the network went quiescent.
    pub finished_at: SimTime,
    /// Objects stuck mid-resolution at quiescence, ascending by id
    /// (deadlock/livelock indicators; empty on a healthy run).
    pub deadlocked: Vec<NodeId>,
    /// `true` if the run was stopped by the delivery limit.
    pub hit_delivery_limit: bool,
    /// Full network trace (empty unless tracing was enabled).
    pub trace: TraceLog,
    /// Protocol fan-outs by kind — the message count the §4.5 reliable
    /// multicast regime would need (each fan-out = one multicast, no
    /// ACKs).
    pub multicasts: BTreeMap<String, u64>,
    /// Total bytes the protocol messages would occupy on the wire
    /// (per the [`crate::codec`] encoding) — §2.1's "narrow bandwidth"
    /// accounting.
    pub wire_bytes: u64,
}

impl RunReport {
    /// The resolution committed in `action`, if one happened.
    #[must_use]
    pub fn resolution_for(&self, action: ActionId) -> Option<&ResolutionRecord> {
        self.resolutions.iter().find(|r| r.action == action)
    }

    /// Total protocol messages sent.
    #[must_use]
    pub fn total_messages(&self) -> u64 {
        self.stats.sent_total()
    }

    /// Protocol messages sent of one kind (`"exception"`, `"ack"`,
    /// `"have_nested"`, `"nested_completed"`, `"commit"`).
    #[must_use]
    pub fn messages_of(&self, kind: &str) -> u64 {
        self.stats.sent_of_kind(kind)
    }

    /// The handler activations for `action`.
    #[must_use]
    pub fn handlers_for(&self, action: ActionId) -> Vec<&HandlerStart> {
        self.handler_starts
            .iter()
            .filter(|h| h.action == action)
            .collect()
    }

    /// Checks the agreement invariant for `action`: every participant
    /// that started a handler started it for the same exception.
    /// Returns that exception, or `None` if no handler ran.
    ///
    /// # Panics
    ///
    /// Panics if two objects handled *different* exceptions — a protocol
    /// violation worth failing loudly on.
    #[must_use]
    pub fn agreed_exception(&self, action: ActionId) -> Option<Exception> {
        let mut agreed: Option<Exception> = None;
        for h in self.handlers_for(action) {
            match &agreed {
                None => agreed = Some(h.exc.clone()),
                Some(prev) => assert_eq!(
                    prev.id(),
                    h.exc.id(),
                    "agreement violated in {action}: {} vs {}",
                    prev.id(),
                    h.exc.id()
                ),
            }
        }
        agreed
    }

    /// `true` when the run ended cleanly: no deadlocked objects and no
    /// delivery-limit stop.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.deadlocked.is_empty() && !self.hit_delivery_limit
    }

    /// Count of suppressed raises (objects already suspended).
    #[must_use]
    pub fn suppressed_raises(&self) -> usize {
        self.notes
            .iter()
            .filter(|n| matches!(n, Note::RaiseSuppressed { .. }))
            .count()
    }

    /// Total multicasts the run would need under the §4.5 reliable
    /// multicast implementation (one per protocol fan-out, ACK-free).
    #[must_use]
    pub fn multicasts_total(&self) -> u64 {
        self.multicasts.values().sum()
    }

    /// Multicasts of one kind (`"exception"`, `"have_nested"`,
    /// `"nested_completed"`, `"commit"`).
    #[must_use]
    pub fn multicasts_of(&self, kind: &str) -> u64 {
        self.multicasts.get(kind).copied().unwrap_or(0)
    }

    /// Count of stale messages discarded.
    #[must_use]
    pub fn stale_messages(&self) -> usize {
        self.notes
            .iter()
            .filter(|n| matches!(n, Note::StaleMessage { .. }))
            .count()
    }
}

impl fmt::Display for RunReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "run finished at {} with {} resolution(s), {} message(s)",
            self.finished_at,
            self.resolutions.len(),
            self.total_messages()
        )?;
        for r in &self.resolutions {
            writeln!(
                f,
                "  {}: resolver {} committed {} over {{{}}} at {}",
                r.action,
                r.resolver,
                r.resolved.id(),
                r.raised
                    .iter()
                    .map(|(o, e)| format!("{o}:{}", e.id()))
                    .collect::<Vec<_>>()
                    .join(", "),
                r.at
            )?;
        }
        if !self.deadlocked.is_empty() {
            writeln!(f, "  DEADLOCKED: {:?}", self.deadlocked)?;
        }
        Ok(())
    }
}

/// A scripted execution: who enters which action when, who raises what
/// when, over which network. The scenario is the workload generator for
/// every experiment in the paper's evaluation.
///
/// # Examples
///
/// Example 1 of §4.3 — three objects, two concurrent exceptions:
///
/// ```
/// use caex::Scenario;
/// use caex_action::{ActionRegistry, ActionScope};
/// use caex_net::{NodeId, SimTime};
/// use caex_tree::{chain_tree, Exception, ExceptionId};
/// use std::sync::Arc;
///
/// let tree = Arc::new(chain_tree(3));
/// let mut reg = ActionRegistry::new();
/// let a1 = reg.declare(ActionScope::top_level(
///     "A1", (1..4).map(NodeId::new), Arc::clone(&tree),
/// )).unwrap();
///
/// let report = Scenario::new(Arc::new(reg))
///     .enter_all_at(SimTime::ZERO, a1)
///     .raise_at(SimTime::from_micros(10), NodeId::new(1),
///               Exception::new(ExceptionId::new(1)))
///     .raise_at(SimTime::from_micros(10), NodeId::new(2),
///               Exception::new(ExceptionId::new(2)))
///     .run();
///
/// let resolution = report.resolution_for(a1).unwrap();
/// assert_eq!(resolution.resolver, NodeId::new(2)); // max raiser
/// assert!(report.is_clean());
/// ```
pub struct Scenario {
    registry: Arc<ActionRegistry>,
    config: NetConfig,
    strategy: NestedStrategy,
    steps: Vec<(SimTime, NodeId, Event)>,
    handlers: Vec<(NodeId, ActionId, HandlerTable)>,
    nested_remaining: Vec<(NodeId, ActionId, Option<SimTime>)>,
    max_deliveries: u64,
    resolver_group: u32,
    leave_mode: LeaveMode,
    acceptance: Vec<(ActionId, AcceptanceTest)>,
    failover: bool,
    detection_delay: SimTime,
}

/// An exit-line acceptance test: `None` accepts, `Some(exc)` rejects
/// with the exception to raise (Fig. 2b).
type AcceptanceTest = Box<dyn FnMut() -> Option<Exception> + Send>;

impl fmt::Debug for Scenario {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Scenario")
            .field("actions", &self.registry.len())
            .field("steps", &self.steps.len())
            .field("strategy", &self.strategy)
            .finish()
    }
}

impl Scenario {
    /// Starts a scenario over the given action structure.
    #[must_use]
    pub fn new(registry: Arc<ActionRegistry>) -> Self {
        Scenario {
            registry,
            config: NetConfig::default(),
            strategy: NestedStrategy::Abort,
            steps: Vec::new(),
            handlers: Vec::new(),
            nested_remaining: Vec::new(),
            max_deliveries: 1_000_000,
            resolver_group: 1,
            leave_mode: LeaveMode::Managed,
            acceptance: Vec::new(),
            failover: true,
            detection_delay: SimTime::from_micros(100),
        }
    }

    /// Installs an acceptance test at `action`'s exit line (§2.2: all
    /// participants "leave it at the same time once the acceptance test
    /// … has been satisfied"; Fig. 2b). When every participant reaches
    /// the exit line, `test` runs: `None` accepts and the joint leave is
    /// granted; `Some(exc)` rejects and `exc` is raised (in the
    /// highest-numbered participant, which thereby becomes the
    /// resolver), driving recovery through the normal resolution
    /// machinery instead of the leave.
    ///
    /// Only meaningful under the centralized [`LeaveMode::Managed`]
    /// coordinator (the decentralized protocol would need an agreement
    /// round to evaluate a joint predicate).
    #[must_use]
    pub fn with_exit_acceptance<F>(mut self, action: ActionId, test: F) -> Self
    where
        F: FnMut() -> Option<Exception> + Send + 'static,
    {
        self.acceptance.push((action, Box::new(test)));
        self
    }

    /// Selects centralized (default, message-free) or decentralized
    /// (`LeaveReady` broadcasts) coordination of synchronized leaves.
    #[must_use]
    pub fn with_leave_mode(mut self, mode: LeaveMode) -> Self {
        self.leave_mode = mode;
        self
    }

    /// Sets the resolver-group size `k` (§4.4 fault-tolerance
    /// extension): the `k` highest raisers all resolve and commit.
    ///
    /// # Panics
    ///
    /// Panics if `k` is zero.
    #[must_use]
    pub fn with_resolver_group(mut self, k: u32) -> Self {
        assert!(k >= 1, "resolver group must contain at least one object");
        self.resolver_group = k;
        self
    }

    /// Replaces the network configuration (latency, faults, seed,
    /// tracing).
    #[must_use]
    pub fn with_config(mut self, config: NetConfig) -> Self {
        self.config = config;
        self
    }

    /// Selects the nested-action strategy (default: the paper's
    /// [`NestedStrategy::Abort`]).
    #[must_use]
    pub fn with_strategy(mut self, strategy: NestedStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Caps the number of deliveries before the run is stopped and
    /// flagged (livelock guard).
    #[must_use]
    pub fn with_delivery_limit(mut self, limit: u64) -> Self {
        self.max_deliveries = limit;
        self
    }

    /// Enables or disables resolver failover (default: enabled).
    ///
    /// With failover on, the engine plays the failure detector: every
    /// planned crash or restart in the fault plan is followed, one
    /// detection delay later, by an [`Event::DeserterSuspected`] at
    /// every survivor, and participants prune the deserter, re-elect a
    /// live resolver and fence the dead peer's late messages. With
    /// failover off the crash is still injected but never reported —
    /// the paper's literal §4.2 machine, which the model checker's
    /// CAEX018 proves can deadlock when the elected resolver dies.
    #[must_use]
    pub fn with_failover(mut self, enabled: bool) -> Self {
        self.failover = enabled;
        self
    }

    /// Sets the simulated failure-detector latency: the virtual time
    /// between a planned crash (or restart's down edge) and the
    /// [`Event::DeserterSuspected`] delivered to each survivor
    /// (default 100 µs). Only meaningful with failover enabled.
    #[must_use]
    pub fn with_detection_delay(mut self, delay: SimTime) -> Self {
        self.detection_delay = delay;
        self
    }

    /// Schedules `object` to enter `action` at `time`.
    #[must_use]
    pub fn enter_at(mut self, time: SimTime, object: NodeId, action: ActionId) -> Self {
        self.steps.push((time, object, Event::Enter(action)));
        self
    }

    /// Schedules every declared participant of `action` to enter it at
    /// `time`.
    ///
    /// # Panics
    ///
    /// Panics if `action` is not declared.
    #[must_use]
    pub fn enter_all_at(mut self, time: SimTime, action: ActionId) -> Self {
        let participants = self
            .registry
            .scope(action)
            .expect("enter_all_at of undeclared action")
            .participants()
            .to_vec();
        for p in participants {
            self.steps.push((time, p, Event::Enter(action)));
        }
        self
    }

    /// Schedules `object` to raise `exc` in its then-active action.
    #[must_use]
    pub fn raise_at(mut self, time: SimTime, object: NodeId, exc: Exception) -> Self {
        self.steps.push((time, object, Event::Raise(exc)));
        self
    }

    /// Schedules `object` to complete `action` at `time`.
    #[must_use]
    pub fn complete_at(mut self, time: SimTime, object: NodeId, action: ActionId) -> Self {
        self.steps.push((time, object, Event::Complete(action)));
        self
    }

    /// Installs a handler table for `(object, action)`; objects without
    /// one default to [`HandlerTable::recover_all`].
    #[must_use]
    pub fn handlers(mut self, object: NodeId, action: ActionId, table: HandlerTable) -> Self {
        self.handlers.push((object, action, table));
        self
    }

    /// Declares remaining run time of `action` at `object` for the
    /// [`NestedStrategy::Wait`] comparison (`None` = never completes).
    #[must_use]
    pub fn nested_remaining(
        mut self,
        object: NodeId,
        action: ActionId,
        remaining: Option<SimTime>,
    ) -> Self {
        self.nested_remaining.push((object, action, remaining));
        self
    }

    /// The action structure this scenario runs over. Exposed so static
    /// analysis passes (`caex-lint`) can cross-check the scripted
    /// timeline against the declarations without executing it.
    #[must_use]
    pub fn registry(&self) -> &Arc<ActionRegistry> {
        &self.registry
    }

    /// The scripted timeline as `(time, object, event)` triples, in
    /// script order (the engine sorts by time at run time; this view
    /// preserves insertion order).
    pub fn scripted(&self) -> impl Iterator<Item = (SimTime, NodeId, &Event)> {
        self.steps.iter().map(|(t, o, e)| (*t, *o, e))
    }

    /// The installed handler tables as `(object, action)` bindings.
    pub fn handler_tables(&self) -> impl Iterator<Item = (NodeId, ActionId, &HandlerTable)> {
        self.handlers.iter().map(|(o, a, t)| (*o, *a, t))
    }

    /// The declared [`nested_remaining`](Self::nested_remaining) run
    /// times as `(object, action, remaining)` triples, in declaration
    /// order. Exposed for static analysis of the `Wait` strategy's
    /// deadlock conditions (Fig. 1a).
    pub fn nested_remaining_declared(
        &self,
    ) -> impl Iterator<Item = (NodeId, ActionId, Option<SimTime>)> + '_ {
        self.nested_remaining.iter().copied()
    }

    /// The nested-action strategy participants will run under.
    #[must_use]
    pub fn strategy(&self) -> NestedStrategy {
        self.strategy
    }

    /// The leave-coordination mode participants will run under.
    #[must_use]
    pub fn leave_mode(&self) -> LeaveMode {
        self.leave_mode
    }

    /// The resolver-group size `k` participants will run under.
    #[must_use]
    pub fn resolver_group_size(&self) -> u32 {
        self.resolver_group
    }

    /// Whether resolver failover is enabled (see
    /// [`Scenario::with_failover`]).
    #[must_use]
    pub fn failover(&self) -> bool {
        self.failover
    }

    /// The simulated failure-detector latency (see
    /// [`Scenario::with_detection_delay`]).
    #[must_use]
    pub fn detection_delay(&self) -> SimTime {
        self.detection_delay
    }

    /// The actions carrying exit-line acceptance tests, in installation
    /// order. The tests themselves are opaque closures; analyses that
    /// cannot evaluate them (the model checker) use this to detect
    /// their presence and bow out rather than silently mis-model the
    /// exit line.
    #[must_use]
    pub fn acceptance_actions(&self) -> Vec<ActionId> {
        self.acceptance.iter().map(|(a, _)| *a).collect()
    }

    /// Decomposes the scenario into its owned script parts — action
    /// structure, scripted timeline, handler-table bindings — so
    /// another runtime (the threaded engine, `caex-wire`'s per-process
    /// harness) can execute the same script. Engine-specific settings
    /// (network config, delivery limit, leave mode, acceptance tests)
    /// are dropped: they belong to the simulator, not the script.
    #[must_use]
    #[allow(clippy::type_complexity)]
    pub fn into_script(
        self,
    ) -> (
        Arc<ActionRegistry>,
        Vec<(SimTime, NodeId, Event)>,
        Vec<(NodeId, ActionId, HandlerTable)>,
    ) {
        (self.registry, self.steps, self.handlers)
    }

    /// Executes the scenario to quiescence and reports.
    ///
    /// # Panics
    ///
    /// Panics on scenario programming errors surfaced by participants
    /// (entering actions out of nesting order, raising outside actions).
    #[must_use]
    pub fn run(self) -> RunReport {
        self.run_inner(None)
    }

    /// Like [`Scenario::run`], but streams typed [`caex_obs::ObsEvent`]s
    /// to `obs` while the protocol executes — the engine's structured
    /// observability tap. The [`crate::ObsBridge`] translation layers on
    /// top of (never replaces) the `TraceLog` and `RunReport`.
    ///
    /// # Panics
    ///
    /// Panics on the same scenario programming errors as [`Scenario::run`].
    #[must_use]
    pub fn run_observed(self, obs: &mut dyn caex_obs::Observer) -> RunReport {
        self.run_inner(Some(obs))
    }

    /// [`Scenario::run`] and [`Scenario::run_observed`]: installs the
    /// whole script at time zero into one [`SimDriver`] and records the
    /// report from its steps.
    fn run_inner(mut self, obs: Option<&mut dyn caex_obs::Observer>) -> RunReport {
        let num_nodes = self
            .registry
            .iter()
            .flat_map(|(_, s)| s.participants().iter().copied())
            .map(|n| n.index() + 1)
            .max()
            .unwrap_or(0);
        let config = std::mem::take(&mut self.config);
        let mut driver = SimDriver::new(config, num_nodes, self.max_deliveries, obs);
        let nodes: Vec<NodeId> = (0..num_nodes).map(NodeId::new).collect();
        driver.install(&mut self, &nodes, SimTime::ZERO);
        let mut recorded = Recorded::default();
        while driver.step(&mut recorded).is_some() {}
        driver.end();

        RunReport {
            resolutions: recorded.resolutions,
            handler_starts: recorded.handler_starts,
            failures: recorded.failures,
            notes: recorded.notes,
            stats: driver.net.stats().clone(),
            finished_at: driver.net.now(),
            deadlocked: driver.deadlocked(),
            hit_delivery_limit: driver.hit_delivery_limit,
            trace: driver.net.trace().clone(),
            multicasts: recorded.multicasts,
            wire_bytes: recorded.wire_bytes,
        }
    }
}

/// What [`Scenario::run`] records from the driver's steps.
#[derive(Default)]
struct Recorded {
    resolutions: Vec<ResolutionRecord>,
    handler_starts: Vec<HandlerStart>,
    failures: Vec<(NodeId, ActionId, Exception)>,
    notes: Vec<Note>,
    multicasts: BTreeMap<String, u64>,
    wire_bytes: u64,
}

impl Recorder for Recorded {
    fn sent(&mut self, msg: &Msg) {
        self.wire_bytes += crate::codec::encoded_len(msg) as u64;
    }

    fn note(&mut self, at: SimTime, note: Note) {
        match &note {
            Note::ResolutionCommitted {
                action,
                resolver,
                resolved,
                raised,
            } => self.resolutions.push(ResolutionRecord {
                action: *action,
                resolver: *resolver,
                resolved: resolved.clone(),
                raised: raised.clone(),
                at,
            }),
            Note::HandlerStarted {
                object,
                action,
                exc,
                ..
            } => self.handler_starts.push(HandlerStart {
                object: *object,
                action: *action,
                exc: exc.clone(),
                at,
            }),
            Note::ActionFailed {
                object,
                action,
                exc,
            } => self.failures.push((*object, *action, exc.clone())),
            Note::Multicast { kind, .. } => {
                *self.multicasts.entry((*kind).to_owned()).or_insert(0u64) += 1;
            }
            _ => {}
        }
        self.notes.push(note);
    }
}

/// What a [`SimDriver`]'s caller records from each step.
pub(crate) trait Recorder {
    /// `object` is about to handle `event`.
    fn delivering(&mut self, _object: NodeId, _event: &Event) {}

    /// A participant sent `msg`.
    fn sent(&mut self, msg: &Msg);

    /// A participant emitted `note` while handling a delivery at `at`.
    fn note(&mut self, at: SimTime, note: Note);
}

/// The discrete-event loop that drives [`Participant`]s over a
/// [`SimNet`] — the one loop behind both [`Scenario::run`] and the
/// fleet shard ([`crate::shard`]).
///
/// Callers [`install`](Self::install) scripts and
/// [`step`](Self::step) deliveries; the driver plays the rest of the
/// runtime: the centralized action manager's synchronized exit lines
/// (with their acceptance tests) and, with failover on, the failure
/// detector. Without an observer it never touches the
/// [`crate::ObsBridge`]: unobserved runs pay only for the protocol.
pub(crate) struct SimDriver<'o> {
    pub(crate) net: SimNet<Event>,
    /// Indexed by `NodeId::index()`; `None` until a script installs
    /// the node.
    participants: Vec<Option<Participant>>,
    /// The fault plan's down edges (crashes, then restarts) as
    /// `(at, node)`.
    downs: Vec<(SimTime, NodeId)>,
    max_deliveries: u64,
    /// `true` once the run was stopped by the delivery limit.
    pub(crate) hit_delivery_limit: bool,
    /// Synchronized exit lines: action -> objects waiting to leave.
    leave_requests: HashMap<ActionId, BTreeSet<NodeId>>,
    acceptance: HashMap<ActionId, AcceptanceTest>,
    bridge: crate::ObsBridge,
    obs: Option<&'o mut dyn caex_obs::Observer>,
}

impl<'o> SimDriver<'o> {
    /// A driver over `num_nodes` nodes with no script installed. Stops
    /// (and flags it) after `max_deliveries` deliveries.
    pub(crate) fn new(
        config: NetConfig,
        num_nodes: u32,
        max_deliveries: u64,
        obs: Option<&'o mut dyn caex_obs::Observer>,
    ) -> Self {
        let mut downs: Vec<(SimTime, NodeId)> =
            config.faults.crashes().map(|(n, at)| (at, n)).collect();
        downs.extend(config.faults.restarts().map(|(n, down, _)| (down, n)));
        SimDriver {
            net: SimNet::new(config, num_nodes),
            participants: (0..num_nodes).map(|_| None).collect(),
            downs,
            max_deliveries,
            hit_delivery_limit: false,
            leave_requests: HashMap::new(),
            acceptance: HashMap::new(),
            bridge: crate::ObsBridge::new(),
            obs,
        }
    }

    /// Installs `script` on `nodes`: builds their participants with the
    /// script's settings, handler tables and `nested_remaining` times,
    /// takes over its acceptance tests, and schedules its steps as
    /// offsets from `start`. With failover on, every down edge of a
    /// node in `nodes` is reported to the other nodes one detection
    /// delay later, as an [`Event::DeserterSuspected`]. The script's
    /// own network config and delivery limit are not read.
    pub(crate) fn install(&mut self, script: &mut Scenario, nodes: &[NodeId], start: SimTime) {
        for &id in nodes {
            let mut p = Participant::new(id, Arc::clone(&script.registry), script.strategy);
            p.set_resolver_group(script.resolver_group);
            p.set_leave_mode(script.leave_mode);
            p.set_failover(script.failover);
            self.participants[id.index() as usize] = Some(p);
        }
        let downs = self
            .downs
            .iter()
            .filter(|(_, v)| script.failover && nodes.contains(v));
        for &(down_at, victim) in downs {
            for &survivor in nodes.iter().filter(|&&n| n != victim) {
                self.net.schedule_local(
                    down_at + script.detection_delay,
                    survivor,
                    Event::DeserterSuspected { peer: victim },
                );
            }
        }
        for (object, action, table) in script.handlers.drain(..) {
            self.participants[object.index() as usize]
                .as_mut()
                .expect("handler for unknown object")
                .set_handlers(action, table);
        }
        for (object, action, remaining) in script.nested_remaining.drain(..) {
            self.participants[object.index() as usize]
                .as_mut()
                .expect("nested_remaining for unknown object")
                .set_nested_remaining(action, remaining);
        }
        self.acceptance.extend(script.acceptance.drain(..));
        for (offset, object, event) in script.steps.drain(..) {
            self.net.schedule_local(start + offset, object, event);
        }
    }

    /// Delivers the next event, dispatches its effects and hands each
    /// sent message and note to `rec`. Returns the delivery's time and
    /// recipient, or `None` at quiescence or at the delivery limit.
    ///
    /// # Panics
    ///
    /// Panics on a delivery to a node no script installed, and on the
    /// scenario programming errors participants panic on.
    pub(crate) fn step(&mut self, rec: &mut impl Recorder) -> Option<(SimTime, NodeId)> {
        let delivery = self.net.next_delivery()?;
        if self.net.delivered_count() > self.max_deliveries {
            self.hit_delivery_limit = true;
            return None;
        }
        let (at, object) = (delivery.at, delivery.to);
        rec.delivering(object, &delivery.payload);
        let participant = self.participants[object.index() as usize]
            .as_mut()
            .expect("delivery to unknown object");
        let effects = match self.obs.as_deref_mut() {
            Some(obs) => {
                if let caex_net::DeliverySource::Remote(from) = delivery.source {
                    self.bridge
                        .on_receive(object, &delivery.payload, from, at, None, obs);
                }
                let pre = self.bridge.pre(participant, &delivery.payload);
                let effects = participant.handle(delivery.payload);
                self.bridge.post(&pre, participant, &effects, at, None, obs);
                effects
            }
            None => participant.handle(delivery.payload),
        };
        for effect in effects {
            match effect {
                Effect::Send { to, msg } => {
                    rec.sent(&msg);
                    self.net.send(object, to, Event::Msg(msg));
                }
                Effect::After { delay, event } => self.net.schedule_local_in(delay, object, event),
                Effect::Note(note) => {
                    if let Note::LeaveRequested { object, action } = note {
                        self.leave_requested(object, action);
                    }
                    rec.note(at, note);
                }
            }
        }
        Some((at, object))
    }

    /// The centralized action manager's synchronized exit: grants the
    /// leave once every participant of `action` is at the line (only
    /// under [`LeaveMode::Managed`]; the distributed mode coordinates
    /// by messages).
    fn leave_requested(&mut self, object: NodeId, action: ActionId) {
        let p = self.participants[object.index() as usize]
            .as_ref()
            .expect("leave request from an installed node");
        if p.leave_mode != LeaveMode::Managed {
            return;
        }
        let everyone = p
            .registry
            .scope(action)
            .expect("declared action")
            .participants();
        let waiting = self.leave_requests.entry(action).or_default();
        waiting.insert(object);
        if waiting.len() < everyone.len() {
            return;
        }
        // Fig. 2b: the acceptance test runs at the exit line. Rejection
        // turns into a raised exception at the highest-numbered
        // participant; an exhausted (or absent) test accepts.
        let now = self.net.now();
        match self.acceptance.get_mut(&action).and_then(|t| t()) {
            Some(exc) => {
                waiting.clear();
                let tester = *everyone.last().expect("actions are non-empty");
                self.net.schedule_local(now, tester, Event::Raise(exc));
            }
            None => {
                for &member in everyone {
                    self.net
                        .schedule_local(now, member, Event::LeaveGranted(action));
                }
            }
        }
    }

    /// Ends the run: tells the observer, if any, the final time.
    pub(crate) fn end(&mut self) {
        if let Some(obs) = self.obs.as_deref_mut() {
            obs.on_run_end(self.net.now());
        }
    }

    /// `true` unless `node`'s participant is mid-resolution (a node no
    /// script installed counts as normal).
    pub(crate) fn is_normal(&self, node: NodeId) -> bool {
        self.participants
            .get(node.index() as usize)
            .and_then(Option::as_ref)
            .is_none_or(Participant::is_normal)
    }

    /// Objects stuck mid-resolution, ascending by id.
    pub(crate) fn deadlocked(&self) -> Vec<NodeId> {
        self.participants
            .iter()
            .flatten()
            .filter(|p| !p.is_normal())
            .map(Participant::id)
            .collect()
    }
}
