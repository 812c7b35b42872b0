//! Multi-action engine sharding: one process multiplexing a fleet of
//! independent CA actions.
//!
//! [`Scenario`](crate::Scenario) owns a single action structure per
//! run. Under load, a resolution server faces a different shape: many
//! independent top-level actions arriving over time, each resolving
//! its own exceptions, sharing the process. This module supplies that
//! shape:
//!
//! - [`ActionInstance`] — one action structure plus its scripted
//!   timeline, relocated to a private `NodeId` range and a private
//!   [`ActionId`] range (via [`ActionRegistry::with_base`]), so every
//!   instance keys its protocol state, metrics and observability by
//!   its own `(ActionId, round)` spans;
//! - [`FleetEngine`] — shards instances round-robin across worker
//!   threads; each shard is one [`caex_net::SimNet`] event loop (the
//!   same driver [`Scenario::run`](crate::Scenario::run) uses)
//!   interleaving all of its instances' deliveries in virtual-time
//!   order, with admission control (`capacity` concurrent slots per
//!   shard) so that offered load beyond capacity queues, exactly like
//!   a bounded worker pool;
//! - [`ActionOutcome`] / [`FleetReport`] — per-action arrival,
//!   admission, commit and completion times, message counts and the
//!   §4.4 `(N−1)(2P+3Q+1)` law verdict, plus fleet-wide stats.
//!
//! All measured quantities are *virtual time*: worker threads give
//! wall-clock speedup, but reports are bit-identical for a given seed
//! regardless of the host's scheduling.

use crate::engine::{Recorder, SimDriver};
use crate::{Event, Msg, Note, Scenario};
use caex_action::ActionId;
use caex_net::{Kinded, NetConfig, NetStats, NodeId, SimTime};
use caex_tree::Exception;
use std::collections::{BTreeMap, VecDeque};

/// One relocatable action structure plus its scripted timeline, ready
/// to be multiplexed by a [`FleetEngine`].
///
/// Build one from any single-top-level-action [`Scenario`] (the
/// canonical path is [`crate::workloads::general_at`], which relocates
/// the §4.4 workload to per-instance node/action bases).
#[derive(Debug)]
pub struct ActionInstance {
    /// The script, installed at admission with its scripted times as
    /// offsets from the admission time.
    scenario: Scenario,
    /// Open-loop arrival time (absolute virtual time).
    arrival: SimTime,
    /// Latency budget from arrival, if the request carries a deadline.
    deadline: Option<SimTime>,
    /// The single top-level action; commit of this action defines the
    /// instance's latency.
    key: ActionId,
    nodes: Vec<NodeId>,
}

impl ActionInstance {
    /// Wraps a scenario as a fleet instance arriving at `arrival`.
    /// The scenario's scripted times become offsets from admission.
    ///
    /// The instance runs the whole script exactly as
    /// [`Scenario::run`] would: handler tables, strategy and
    /// `nested_remaining` times, resolver group, leave mode, exit-line
    /// acceptance tests, failover and detection delay. The fleet
    /// overrides two settings: the scenario's [`NetConfig`] (the
    /// shard's [`FleetConfig::net`] applies, including its fault plan,
    /// whose times are absolute rather than offsets from admission)
    /// and its delivery limit ([`FleetConfig::max_deliveries`] caps
    /// the whole shard).
    ///
    /// # Panics
    ///
    /// Panics unless the scenario declares exactly one top-level
    /// action (an instance is one request; script several instances
    /// for several requests).
    #[must_use]
    pub fn from_scenario(scenario: Scenario, arrival: SimTime) -> Self {
        let registry = scenario.registry();
        let top = registry.top_level();
        assert_eq!(
            top.len(),
            1,
            "an ActionInstance is one top-level action, got {}",
            top.len()
        );
        let key = top[0];
        let nodes = registry
            .scope(key)
            .expect("top-level action is declared")
            .participants()
            .to_vec();
        ActionInstance {
            scenario,
            arrival,
            deadline: None,
            key,
            nodes,
        }
    }

    /// Attaches a per-request latency budget, measured from arrival.
    #[must_use]
    pub fn with_deadline(mut self, deadline: SimTime) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// The instance's open-loop arrival time.
    #[must_use]
    pub fn arrival(&self) -> SimTime {
        self.arrival
    }

    /// The instance's top-level action id.
    #[must_use]
    pub fn key(&self) -> ActionId {
        self.key
    }

    /// The nodes this instance occupies (participants of the top-level
    /// action; nested participants are a subset by §3.1).
    #[must_use]
    pub fn nodes(&self) -> &[NodeId] {
        &self.nodes
    }

    /// The instance's action-id range as `base..base+len`.
    #[must_use]
    pub fn action_range(&self) -> std::ops::Range<u32> {
        let registry = self.scenario.registry();
        registry.base()..registry.base() + registry.len() as u32
    }
}

/// Fleet engine configuration: how many shards, how many concurrent
/// admission slots each shard serves, and the shared network model.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Worker shards. Instances are assigned round-robin by index;
    /// shard `s` seeds its network with `net.seed` plus a per-shard
    /// offset (shard 0 keeps `net.seed` exactly, so a one-shard fleet
    /// of one instance reproduces `Scenario::run` bit-for-bit).
    pub shards: usize,
    /// Concurrent action slots per shard. Arrivals beyond capacity
    /// queue in arrival order; queueing delay shows up in virtual
    /// time, which is what the saturation curves measure.
    pub capacity: usize,
    /// Network model template applied per shard.
    pub net: NetConfig,
    /// Per-shard delivery cap (livelock guard).
    pub max_deliveries: u64,
    /// §4.4 message law injected into the per-round metrics check,
    /// e.g. [`crate::analysis::messages_general`].
    pub law: Option<fn(u64, u64, u64) -> u64>,
    /// Collect folded flame-graph stacks per shard (costs one string
    /// per distinct stack; off for pure throughput runs).
    pub collect_flame: bool,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            shards: 1,
            capacity: 8,
            net: NetConfig::default(),
            max_deliveries: 50_000_000,
            law: None,
            collect_flame: false,
        }
    }
}

/// What happened to one action instance under load.
#[derive(Debug, Clone)]
pub struct ActionOutcome {
    /// Global instance index (fleet submission order).
    pub instance: usize,
    /// Shard that served the instance.
    pub shard: usize,
    /// The instance's top-level action id.
    pub key: ActionId,
    /// Open-loop arrival time.
    pub arrival: SimTime,
    /// Admission time (`>= arrival`; the difference is queueing delay).
    pub admitted: SimTime,
    /// Commit time of the resolution, if one committed.
    pub committed: Option<SimTime>,
    /// Time the instance fully drained (handlers done, participants
    /// back to normal) and released its slot.
    pub finished: Option<SimTime>,
    /// The elected resolver, if a resolution committed.
    pub resolver: Option<NodeId>,
    /// The resolving exception everyone handled.
    pub resolved: Option<Exception>,
    /// Protocol messages sent on behalf of this instance's actions.
    pub messages: u64,
    /// The §4.4 prediction for the instance's rounds, when a law was
    /// injected and applicable.
    pub law_predicted: Option<u64>,
    /// Per-instance law verdict: `Some(true)` iff every resolution
    /// round of this instance matched the prediction.
    pub law_holds: Option<bool>,
    /// Absolute deadline (arrival + budget), if one was attached.
    pub deadline: Option<SimTime>,
}

impl ActionOutcome {
    /// Queueing delay: admission minus arrival, in µs.
    #[must_use]
    pub fn queue_wait_us(&self) -> u64 {
        self.admitted.saturating_sub(self.arrival).as_micros()
    }

    /// Arrival-to-commit latency in µs (`None` if never committed).
    #[must_use]
    pub fn latency_us(&self) -> Option<u64> {
        self.committed
            .map(|c| c.saturating_sub(self.arrival).as_micros())
    }

    /// `true` if the instance carried a deadline and blew it (either
    /// committed late or never committed).
    #[must_use]
    pub fn deadline_missed(&self) -> bool {
        match self.deadline {
            None => false,
            Some(d) => self.committed.is_none_or(|c| c > d),
        }
    }
}

/// Everything a fleet run produced.
#[derive(Debug)]
pub struct FleetReport {
    /// One outcome per instance, in submission order.
    pub outcomes: Vec<ActionOutcome>,
    /// Merged network statistics across shards (per-action counters
    /// included, since every shard's net is shared by many actions).
    pub stats: NetStats,
    /// Virtual time each shard went quiescent.
    pub shard_finished: Vec<SimTime>,
    /// Objects stuck mid-resolution at quiescence, across shards,
    /// ascending by id.
    pub deadlocked: Vec<NodeId>,
    /// `true` if any shard hit its delivery cap.
    pub hit_delivery_limit: bool,
    /// Folded flame-graph stacks merged across shards (only with
    /// [`FleetConfig::collect_flame`]).
    pub folded: Option<String>,
}

impl FleetReport {
    /// The fleet makespan: the latest shard quiescence time.
    #[must_use]
    pub fn makespan(&self) -> SimTime {
        self.shard_finished.iter().copied().max().unwrap_or(SimTime::ZERO)
    }

    /// Instances whose resolution committed.
    #[must_use]
    pub fn committed_count(&self) -> usize {
        self.outcomes.iter().filter(|o| o.committed.is_some()).count()
    }

    /// Instances that carried a deadline and missed it.
    #[must_use]
    pub fn deadline_misses(&self) -> usize {
        self.outcomes.iter().filter(|o| o.deadline_missed()).count()
    }

    /// `true` iff the §4.4 law held on every instance it applied to.
    #[must_use]
    pub fn law_all_hold(&self) -> bool {
        self.outcomes.iter().all(|o| o.law_holds != Some(false))
    }

    /// Arrival-to-commit latencies of all committed instances, µs.
    #[must_use]
    pub fn latencies_us(&self) -> Vec<u64> {
        self.outcomes.iter().filter_map(ActionOutcome::latency_us).collect()
    }

    /// Achieved throughput in actions per virtual second (committed
    /// count over the makespan).
    #[must_use]
    pub fn throughput_per_sec(&self) -> f64 {
        let span_us = self.makespan().as_micros();
        if span_us == 0 {
            return 0.0;
        }
        #[allow(clippy::cast_precision_loss)]
        {
            self.committed_count() as f64 * 1_000_000.0 / span_us as f64
        }
    }
}

/// The multi-action engine: shards a fleet of [`ActionInstance`]s
/// across worker threads and runs each shard's event loop to
/// quiescence.
///
/// # Examples
///
/// Two relocated §4.4 instances through one single-shard engine:
///
/// ```
/// use caex::shard::{ActionInstance, FleetConfig, FleetEngine};
/// use caex::{analysis, workloads};
/// use caex_net::SimTime;
///
/// let instances = (0..2)
///     .map(|i| {
///         let w = workloads::general_at(3, 1, 0, i * 3, i, Default::default());
///         ActionInstance::from_scenario(w.scenario, SimTime::from_micros(u64::from(i) * 10))
///     })
///     .collect();
/// let config = FleetConfig { law: Some(analysis::messages_general), ..Default::default() };
/// let report = FleetEngine::new(config).run(instances);
/// assert_eq!(report.committed_count(), 2);
/// assert!(report.law_all_hold());
/// assert_eq!(report.outcomes[0].messages, analysis::messages_general(3, 1, 0));
/// ```
#[derive(Debug, Default)]
pub struct FleetEngine {
    config: FleetConfig,
}

/// Per-shard golden-ratio seed stride, so shards draw independent
/// latency streams while shard 0 keeps the configured seed exactly.
const SHARD_SEED_STRIDE: u64 = 0x9E37_79B9_7F4A_7C15;

impl FleetEngine {
    /// Creates an engine with the given fleet configuration.
    #[must_use]
    pub fn new(config: FleetConfig) -> Self {
        FleetEngine { config }
    }

    /// Runs the fleet to quiescence. Instances are assigned to shards
    /// round-robin by index; give them non-decreasing arrival times
    /// for open-loop semantics.
    ///
    /// # Panics
    ///
    /// Panics if `shards` or `capacity` is zero, if two instances in
    /// one shard overlap in node range, or on scenario programming
    /// errors surfaced by participants.
    #[must_use]
    pub fn run(&self, instances: Vec<ActionInstance>) -> FleetReport {
        assert!(self.config.shards >= 1, "need at least one shard");
        assert!(self.config.capacity >= 1, "need at least one slot");
        let shards = self.config.shards;
        let mut per_shard: Vec<Vec<(usize, ActionInstance)>> =
            (0..shards).map(|_| Vec::new()).collect();
        for (i, inst) in instances.into_iter().enumerate() {
            per_shard[i % shards].push((i, inst));
        }

        let outputs: Vec<ShardOutput> = if shards == 1 {
            let batch = per_shard.pop().expect("one shard");
            vec![run_shard(batch, 0, &self.config, None)]
        } else {
            std::thread::scope(|scope| {
                let handles: Vec<_> = per_shard
                    .into_iter()
                    .enumerate()
                    .map(|(s, batch)| {
                        let config = &self.config;
                        scope.spawn(move || run_shard(batch, s, config, None))
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().expect("shard thread")).collect()
            })
        };
        merge_outputs(outputs, self.config.collect_flame)
    }

    /// Like [`FleetEngine::run`], but streams every shard's
    /// [`caex_obs::ObsEvent`]s to `obs`. Only available single-shard
    /// (an external observer cannot be shared across worker threads
    /// without destroying determinism).
    ///
    /// # Panics
    ///
    /// Panics if the configuration asks for more than one shard, plus
    /// the conditions of [`FleetEngine::run`].
    #[must_use]
    pub fn run_observed(
        &self,
        instances: Vec<ActionInstance>,
        obs: &mut dyn caex_obs::Observer,
    ) -> FleetReport {
        assert_eq!(self.config.shards, 1, "run_observed is single-shard");
        assert!(self.config.capacity >= 1, "need at least one slot");
        let batch = instances.into_iter().enumerate().collect();
        let output = run_shard(batch, 0, &self.config, Some(obs));
        merge_outputs(vec![output], self.config.collect_flame)
    }
}

/// What one shard hands back to the merger.
struct ShardOutput {
    outcomes: Vec<ActionOutcome>,
    stats: NetStats,
    finished_at: SimTime,
    deadlocked: Vec<NodeId>,
    hit_delivery_limit: bool,
    folded: Option<String>,
}

fn merge_outputs(outputs: Vec<ShardOutput>, collect_flame: bool) -> FleetReport {
    let mut outcomes = Vec::new();
    let mut stats = NetStats::default();
    let mut shard_finished = Vec::new();
    let mut deadlocked = Vec::new();
    let mut hit_delivery_limit = false;
    let mut folded_merged: BTreeMap<String, u64> = BTreeMap::new();
    for out in outputs {
        outcomes.extend(out.outcomes);
        stats.merge(&out.stats);
        shard_finished.push(out.finished_at);
        deadlocked.extend(out.deadlocked);
        hit_delivery_limit |= out.hit_delivery_limit;
        if let Some(folded) = out.folded {
            for line in folded.lines() {
                if let Some((stack, count)) = line.rsplit_once(' ') {
                    if let Ok(us) = count.parse::<u64>() {
                        *folded_merged.entry(stack.to_owned()).or_default() += us;
                    }
                }
            }
        }
    }
    outcomes.sort_by_key(|o| o.instance);
    deadlocked.sort_unstable();
    let folded = collect_flame.then(|| {
        let mut out = String::new();
        for (stack, us) in &folded_merged {
            out.push_str(&format!("{stack} {us}\n"));
        }
        out
    });
    FleetReport {
        outcomes,
        stats,
        shard_finished,
        deadlocked,
        hit_delivery_limit,
        folded,
    }
}

/// Tracking state for one admitted instance.
#[derive(Default)]
struct Live {
    admitted: SimTime,
    committed: Option<SimTime>,
    finished: Option<SimTime>,
    resolver: Option<NodeId>,
    resolved: Option<Exception>,
    handlers_open: u64,
}

/// One resolution round's §4.4 tally.
struct RoundTally {
    action: ActionId,
    /// Law-kind messages sent while this was the action's latest round.
    sends: u64,
    /// Distinct raised exceptions (`P`), fixed by the round's first
    /// commit; `None` while the round has not committed.
    raised: Option<u64>,
    /// Objects that aborted nested actions during the round (`Q`).
    aborters: Vec<NodeId>,
}

/// One action of the shard: its owning instance and its latest round.
#[derive(Clone, Copy)]
struct ActionSlot {
    /// Local slot of the owning instance in the shard's batch.
    owner: usize,
    /// Index of the action's latest round in [`ActionTable::rounds`].
    round: Option<usize>,
    open: bool,
}

/// The shard's actions, indexed by [`ActionId::index`], plus the §4.4
/// law tally the loop keeps from the effects it already handles.
///
/// The tally is the definition `MetricsRegistry` checks (DESIGN §8),
/// with rounds numbered as [`crate::ObsBridge`] numbers them: a raise
/// opens a round unless one is open, a commit closes it, and messages
/// count towards the action's latest round. `N` is the size of the
/// action's scope, `P` the distinct exceptions of the committed raised
/// set, `Q` the objects that aborted nested actions in the round.
struct ActionTable {
    slots: Vec<Option<ActionSlot>>,
    rounds: Vec<RoundTally>,
}

impl ActionTable {
    fn new(batch: &[(usize, ActionInstance)]) -> Self {
        let len = batch
            .iter()
            .map(|(_, inst)| inst.action_range().end as usize)
            .max()
            .unwrap_or(0);
        let mut slots = vec![None; len];
        for (owner, (_, inst)) in batch.iter().enumerate() {
            for a in inst.action_range() {
                slots[a as usize] = Some(ActionSlot {
                    owner,
                    round: None,
                    open: false,
                });
            }
        }
        ActionTable {
            slots,
            rounds: Vec::new(),
        }
    }

    fn slot(&mut self, action: ActionId) -> Option<&mut ActionSlot> {
        self.slots.get_mut(action.index() as usize)?.as_mut()
    }

    fn owner(&self, action: ActionId) -> Option<usize> {
        self.slots.get(action.index() as usize)?.map(|s| s.owner)
    }

    fn latest(&mut self, action: ActionId) -> Option<&mut RoundTally> {
        let round = self.slot(action)?.round?;
        Some(&mut self.rounds[round])
    }

    fn sent(&mut self, action: ActionId, kind: &str) {
        if caex_obs::metrics::LAW_KINDS.contains(&kind) {
            if let Some(round) = self.latest(action) {
                round.sends += 1;
            }
        }
    }

    fn raised(&mut self, action: ActionId) {
        let next = self.rounds.len();
        let Some(slot) = self.slot(action) else { return };
        if slot.open {
            return;
        }
        slot.open = true;
        slot.round = Some(next);
        self.rounds.push(RoundTally {
            action,
            sends: 0,
            raised: None,
            aborters: Vec::new(),
        });
    }

    fn aborted(&mut self, outer: ActionId, object: NodeId) {
        if let Some(round) = self.latest(outer) {
            if !round.aborters.contains(&object) {
                round.aborters.push(object);
            }
        }
    }

    fn committed(&mut self, action: ActionId, raised: &[(NodeId, Exception)]) {
        if let Some(slot) = self.slot(action) {
            slot.open = false;
        }
        if let Some(round) = self.latest(action) {
            let distinct = raised
                .iter()
                .enumerate()
                .filter(|(i, (_, e))| raised[..*i].iter().all(|(_, f)| f.id() != e.id()))
                .count();
            round.raised.get_or_insert(distinct as u64);
        }
    }

    /// Per-instance `(law_predicted, law_holds)`: the predictions of
    /// the instance's committed rounds summed, and their verdicts
    /// conjoined. Rounds outside the closed form's domain (`P = 0` or
    /// `P + Q > N`) don't count.
    fn verdicts(
        &self,
        batch: &[(usize, ActionInstance)],
        law: Option<fn(u64, u64, u64) -> u64>,
    ) -> Vec<(Option<u64>, Option<bool>)> {
        let mut out = vec![(None, None); batch.len()];
        let Some(law) = law else { return out };
        for round in &self.rounds {
            let (Some(p), Some(owner)) = (round.raised, self.owner(round.action)) else {
                continue;
            };
            let n = batch[owner]
                .1
                .scenario
                .registry()
                .scope(round.action)
                .map_or(0, |s| s.participants().len() as u64);
            let q = round.aborters.len() as u64;
            if p >= 1 && p + q <= n {
                let want = law(n, p, q);
                let (predicted, holds) = &mut out[owner];
                *predicted.get_or_insert(0) += want;
                let holds = holds.get_or_insert(true);
                *holds = *holds && want == round.sends;
            }
        }
        out
    }
}

/// One shard's bookkeeping around the [`SimDriver`]: admission into
/// `capacity` slots in arrival order, each live instance's commit and
/// completion, and the §4.4 law tally.
struct Shard {
    batch: Vec<(usize, ActionInstance)>,
    /// node -> local slot in `batch`.
    node_owner: Vec<Option<usize>>,
    actions: ActionTable,
    live: Vec<Option<Live>>,
    pending: VecDeque<usize>,
    active: usize,
    capacity: usize,
}

impl Shard {
    /// Admission: fill free slots in arrival order. Steps are offsets
    /// from admission time, so an instance admitted after its arrival
    /// (all slots were busy) starts late — that wait is the queueing
    /// delay the saturation study measures.
    fn admit(&mut self, driver: &mut SimDriver<'_>) {
        while self.active < self.capacity {
            let Some(local) = self.pending.pop_front() else { break };
            let inst = &mut self.batch[local].1;
            let start = inst.arrival.max(driver.net.now());
            driver.install(&mut inst.scenario, &inst.nodes, start);
            self.live[local] = Some(Live {
                admitted: start,
                ..Live::default()
            });
            self.active += 1;
        }
    }

    /// Completion check for the instance owning `object`, which just
    /// made progress: resolution committed, every handler it started
    /// has finished, and all of its participants are back to normal.
    /// A completed instance frees its slot for the next admission.
    fn progressed(&mut self, at: SimTime, object: NodeId, driver: &mut SimDriver<'_>) {
        let Some(local) = self.node_owner[object.index() as usize] else { return };
        let Some(slot) = self.live[local].as_mut() else { return };
        if slot.finished.is_none()
            && slot.committed.is_some()
            && slot.handlers_open == 0
            && self.batch[local].1.nodes.iter().all(|&n| driver.is_normal(n))
        {
            slot.finished = Some(at);
            self.active -= 1;
            self.admit(driver);
        }
    }
}

impl Recorder for Shard {
    fn delivering(&mut self, object: NodeId, event: &Event) {
        if let Event::HandlerDone { .. } = event {
            let owner = self.node_owner[object.index() as usize];
            if let Some(slot) = owner.and_then(|l| self.live[l].as_mut()) {
                slot.handlers_open = slot.handlers_open.saturating_sub(1);
            }
        }
    }

    fn sent(&mut self, msg: &Msg) {
        self.actions.sent(msg.action(), msg.kind());
    }

    fn note(&mut self, at: SimTime, note: Note) {
        match note {
            Note::Raised { action, .. } => self.actions.raised(action),
            Note::AbortedNested { object, outer, .. }
            | Note::WaitingForNested { object, outer, .. } => {
                self.actions.aborted(outer, object);
            }
            Note::ResolutionCommitted {
                action,
                resolver,
                resolved,
                raised,
            } => {
                self.actions.committed(action, &raised);
                if let Some(slot) = self.actions.owner(action).and_then(|l| self.live[l].as_mut()) {
                    if slot.committed.is_none() {
                        slot.committed = Some(at);
                        slot.resolver = Some(resolver);
                        slot.resolved = Some(resolved);
                    }
                }
            }
            Note::HandlerStarted { action, .. } => {
                if let Some(slot) = self.actions.owner(action).and_then(|l| self.live[l].as_mut()) {
                    slot.handlers_open += 1;
                }
            }
            _ => {}
        }
    }
}

/// Runs one shard: interleave all assigned instances' deliveries in
/// virtual-time order through one [`SimDriver`], admitting instances
/// into `capacity` slots in arrival order.
///
/// Without an observer (and without flame collection) the driver never
/// touches [`crate::ObsBridge`]: unobserved runs pay only for the
/// protocol and the shard's own bookkeeping.
fn run_shard(
    batch: Vec<(usize, ActionInstance)>,
    shard: usize,
    config: &FleetConfig,
    obs: Option<&mut dyn caex_obs::Observer>,
) -> ShardOutput {
    let num_nodes = batch
        .iter()
        .flat_map(|(_, inst)| inst.nodes.iter())
        .map(|n| n.index() + 1)
        .max()
        .unwrap_or(0);
    // Node ranges must be disjoint: one node serves one instance.
    let mut node_owner: Vec<Option<usize>> = vec![None; num_nodes as usize];
    for (local, (_, inst)) in batch.iter().enumerate() {
        for &n in &inst.nodes {
            assert!(
                node_owner[n.index() as usize].replace(local).is_none(),
                "node {n} assigned to two instances in shard {shard}"
            );
        }
    }

    let mut net_config = config.net.clone();
    net_config.seed = net_config
        .seed
        .wrapping_add(SHARD_SEED_STRIDE.wrapping_mul(shard as u64));

    let mut flame = caex_obs::FlameBuilder::new();
    let observing = obs.is_some() || config.collect_flame;
    let mut tee = caex_obs::Tee::new();
    if config.collect_flame {
        tee.push(&mut flame);
    }
    if let Some(obs) = obs {
        tee.push(obs);
    }
    let mut driver = SimDriver::new(
        net_config,
        num_nodes,
        config.max_deliveries,
        observing.then_some(&mut tee as &mut dyn caex_obs::Observer),
    );

    let mut state = Shard {
        actions: ActionTable::new(&batch),
        live: (0..batch.len()).map(|_| None).collect(),
        pending: (0..batch.len()).collect(),
        batch,
        node_owner,
        active: 0,
        capacity: config.capacity,
    };
    state.admit(&mut driver);
    while let Some((at, object)) = driver.step(&mut state) {
        state.progressed(at, object, &mut driver);
    }
    driver.end();

    let verdicts = state.actions.verdicts(&state.batch, config.law);
    let outcomes = state
        .batch
        .iter()
        .zip(state.live)
        .zip(verdicts)
        .map(|(((global, inst), slot), (law_predicted, law_holds))| {
            let messages = inst
                .action_range()
                .map(|a| driver.net.stats().action_counters(a).sent)
                .sum();
            ActionOutcome {
                instance: *global,
                shard,
                key: inst.key,
                arrival: inst.arrival,
                admitted: slot.as_ref().map_or(inst.arrival, |s| s.admitted),
                committed: slot.as_ref().and_then(|s| s.committed),
                finished: slot.as_ref().and_then(|s| s.finished),
                resolver: slot.as_ref().and_then(|s| s.resolver),
                resolved: slot.and_then(|s| s.resolved),
                messages,
                law_predicted,
                law_holds,
                deadline: inst.deadline.map(|d| inst.arrival + d),
            }
        })
        .collect();

    ShardOutput {
        outcomes,
        stats: driver.net.stats().clone(),
        finished_at: driver.net.now(),
        deadlocked: driver.deadlocked(),
        hit_delivery_limit: driver.hit_delivery_limit,
        folded: config.collect_flame.then(|| flame.folded()),
    }
}
