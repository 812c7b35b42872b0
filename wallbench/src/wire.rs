//! The `wire` workload: a closed loop over fresh in-process three-node
//! meshes on Unix-domain sockets, each resolving `general:3,2,0`
//! (10 messages, 2 concurrent raisers) through
//! [`caex::drive::drive_node`].
//!
//! A sample binds three [`WireBound`]s, connects them on three threads,
//! passes the mesh's start barrier, then drives every node from one
//! shared start instant, at which both raises are due. The benchmark
//! owns the `handle`/`note` callbacks. Mesh formation is set-up time;
//! the idle timeout that ends each node's loop is part of the sample's
//! wall cost but not of its latency.

use crate::replay::{self, LayerInputs, WireLayers};
use crate::trace::{merge_totals, Calibration, Span, Totals, Tracer};
use crate::{median, nearest_rank, secs_since, sub_seed, Outcome, Phase, RunConfig, Unit};
use caex::drive::drive_node;
use caex::{codec, workloads, Effect, LeaveMode, Msg, NestedStrategy, Note, Participant};
use caex_action::ActionRegistry;
use caex_net::{NetConfig, NodeId};
use caex_wire::frame::{decode_frame, encode_frame};
use caex_wire::{Frame, WireAddr, WireBound, WireConfig, WireScenario};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::path::PathBuf;
use std::sync::{Arc, Barrier, Mutex};
use std::thread;
use std::time::{Duration, Instant};

/// The resolved scenario.
pub const SPEC: &str = "general:3,2,0";
/// Quiet time after which a node's drive loop exits. Long enough that
/// no node leaves while a peer still holds its raise (up to 10 ms).
pub const IDLE_MS: u64 = 60;
/// Samples taken even when the time budget is already spent.
const MIN_SAMPLES: usize = 8;
/// Sim runs behind the virtual-latency guard.
const VIRT_RUNS: u64 = 64;
/// Encode/decode repetitions per recorded message in the codec replay.
const CODEC_REPS: u32 = 64;

/// One message a `handle` call returned, for the hop and codec replays.
struct SendRec {
    to: NodeId,
    /// The producing event was local (raise or continuation).
    local: bool,
    /// When the producing `handle` call returned.
    at: Instant,
    msg: Msg,
}

/// What one node thread reports.
struct NodeResult {
    id: NodeId,
    /// `(action, exception, when)` per `HandlerStarted`.
    handled: Vec<(u32, u32, Instant)>,
    sent: u64,
    flaps: u64,
    reconnects: u64,
    deserters: usize,
    connect_s: f64,
    sends: Vec<SendRec>,
    /// `(from, when the consuming handle call started)`.
    recvs: Vec<(NodeId, Instant)>,
    effects: u64,
    /// Raised exceptions summed over the re-invoked resolves.
    raised: u64,
    /// Re-invoked resolves that disagreed with the commit.
    resolve_mismatches: u64,
    spans: Vec<Span>,
    totals: BTreeMap<&'static str, Totals>,
}

/// One mesh's result.
struct Sample {
    setup_s: f64,
    cost_s: f64,
    /// Raise due → last node's `HandlerStarted`, when every node handled.
    latency_s: Option<f64>,
    nodes: Vec<NodeResult>,
}

fn sock_dir() -> PathBuf {
    let dir = crate::out_dir().join("sock");
    // Socket paths are limited to ~100 bytes: prefer a relative path.
    std::env::current_dir()
        .ok()
        .and_then(|cwd| dir.strip_prefix(&cwd).ok().map(PathBuf::from))
        .unwrap_or(dir)
}

fn sock_path(dir: &std::path::Path, node: u32) -> PathBuf {
    dir.join(format!("{}-{node}", std::process::id()))
}

/// Runs one node's drive loop; `tracer` turns on the spans.
fn drive(
    port: &caex_wire::WirePort,
    registry: &Arc<ActionRegistry>,
    steps: Vec<(caex_net::SimTime, caex::Event)>,
    completion: bool,
    start: Instant,
    tracer: Option<&Tracer>,
    result: &mut NodeResult,
) {
    let id = port.id();
    let mut participant = Participant::new(id, Arc::clone(registry), NestedStrategy::Abort);
    if completion {
        participant.set_leave_mode(LeaveMode::Distributed);
    }
    let (sends, recvs, effects) = (&mut result.sends, &mut result.recvs, &mut result.effects);
    let (handled, raised_total) = (&mut result.handled, &mut result.raised);
    let mismatches = &mut result.resolve_mismatches;
    let summary = drive_node(
        port,
        &mut participant,
        steps,
        start,
        Duration::from_millis(IDLE_MS),
        |p, ev, from| {
            let Some(tr) = tracer else {
                return p.handle(ev);
            };
            let began = Instant::now();
            tr.enter("drive.handle");
            let fx = tr.span("participant.handle", || p.handle(ev));
            let done = Instant::now();
            if let Some(peer) = from {
                recvs.push((peer, began));
            }
            *effects += fx.len() as u64;
            for e in &fx {
                if let Effect::Send { to, msg } = e {
                    sends.push(SendRec {
                        to: *to,
                        local: from.is_none(),
                        at: done,
                        msg: msg.clone(),
                    });
                }
            }
            tr.exit();
            fx
        },
        |n| match &n {
            Note::HandlerStarted { action, exc, .. } => {
                handled.push((action.index(), exc.id().index(), Instant::now()));
            }
            Note::ResolutionCommitted {
                action,
                raised,
                resolved,
                ..
            } => {
                if let Some(tr) = tracer {
                    let tree = registry.scope(*action).expect("declared action").tree();
                    let again = tr.span("tree.resolve", || {
                        tree.resolve(raised.iter().map(|(_, e)| e.id()))
                    });
                    if again.ok() != Some(resolved.id()) {
                        *mismatches += 1;
                    }
                    *raised_total += raised.len() as u64;
                }
            }
            _ => {}
        },
    );
    result.deserters = summary.deserted + participant.deserters().len();
    let stats = port.stats();
    let stats = stats.lock();
    result.sent = stats.sent_total();
    result.flaps = stats.recovery_of_kind("suspicion_flap");
    result.reconnects = stats.recovery_of_kind("reconnect");
}

/// Forms one mesh and resolves one action over it.
fn sample(
    scenario: &WireScenario,
    dir: &std::path::Path,
    traced: bool,
    epoch: Instant,
) -> Result<Sample, String> {
    let t0 = Instant::now();
    let n = scenario.num_nodes;
    let mut bounds = Vec::with_capacity(n as usize);
    for i in 0..n {
        let addr = WireAddr::Unix(sock_path(dir, i));
        bounds.push(
            WireBound::bind(NodeId::new(i), &addr, WireConfig::default())
                .map_err(|e| format!("bind {i}: {e}"))?,
        );
    }
    let addrs: Vec<WireAddr> = bounds.iter().map(|b| b.local_addr().clone()).collect();
    let ready = Arc::new(Barrier::new(n as usize + 1));
    let go = Arc::new(Barrier::new(n as usize + 1));
    let start_at: Arc<Mutex<Option<Instant>>> = Arc::new(Mutex::new(None));
    let completion = scenario.uses_completion();
    let mut joins = Vec::with_capacity(n as usize);
    for bound in bounds {
        let id = NodeId::new(joins.len() as u32);
        let addrs = addrs.clone();
        let registry = Arc::clone(&scenario.registry);
        let steps = scenario.steps_for(id);
        let (ready, go, start_at) = (Arc::clone(&ready), Arc::clone(&go), Arc::clone(&start_at));
        joins.push(thread::spawn(move || -> Result<NodeResult, String> {
            let tc = Instant::now();
            let port = bound
                .connect(&addrs)
                .map_err(|e| format!("connect {id}: {e}"))
                .and_then(|p| p.barrier(Duration::from_secs(10)).map(|()| p));
            let connect_s = secs_since(tc);
            ready.wait();
            go.wait();
            let port = port?;
            let start = start_at
                .lock()
                .expect("start lock")
                .expect("start set before go");
            let mut result = NodeResult {
                id,
                handled: Vec::new(),
                sent: 0,
                flaps: 0,
                reconnects: 0,
                deserters: 0,
                connect_s,
                sends: Vec::new(),
                recvs: Vec::new(),
                effects: 0,
                raised: 0,
                resolve_mismatches: 0,
                spans: Vec::new(),
                totals: BTreeMap::new(),
            };
            let tracer = traced.then(|| Tracer::new(epoch));
            drive(
                &port,
                &registry,
                steps,
                completion,
                start,
                tracer.as_ref(),
                &mut result,
            );
            drop(port);
            if let Some(tr) = tracer {
                (result.spans, result.totals) = tr.finish();
            }
            Ok(result)
        }));
    }
    ready.wait();
    let setup_s = secs_since(t0);
    let start = Instant::now();
    *start_at.lock().expect("start lock") = Some(start);
    go.wait();
    let mut nodes = Vec::with_capacity(joins.len());
    let mut error = None;
    for j in joins {
        match j.join() {
            Ok(Ok(r)) => nodes.push(r),
            Ok(Err(e)) => error = Some(e),
            Err(_) => error = Some("node thread panicked".to_string()),
        }
    }
    let cost_s = secs_since(start);
    for i in 0..n {
        let _ = std::fs::remove_file(sock_path(dir, i));
    }
    if let Some(e) = error {
        return Err(e);
    }
    let action = scenario.action.index();
    let last = nodes
        .iter()
        .map(|r| r.handled.iter().find(|h| h.0 == action).map(|h| h.2))
        .collect::<Option<Vec<Instant>>>()
        .and_then(|v| v.into_iter().max());
    Ok(Sample {
        setup_s,
        cost_s,
        latency_s: last.map(|t| t.saturating_duration_since(start).as_secs_f64()),
        nodes,
    })
}

/// Checks one sample: every node handling the same exception once
/// (else its outputs are wrong), the §4.4 message count, and no
/// deserters.
fn gate(scenario: &WireScenario, s: &Sample, out: &mut Outcome) {
    let expected = scenario.expected_messages.unwrap_or(0);
    let sent: u64 = s.nodes.iter().map(|r| r.sent).sum();
    let action = scenario.action.index();
    let mut agreed: Option<u32> = None;
    let mut agree = s.nodes.len() == scenario.num_nodes as usize;
    for r in &s.nodes {
        let mine: Vec<u32> = r
            .handled
            .iter()
            .filter(|h| h.0 == action)
            .map(|h| h.1)
            .collect();
        agree &= mine.len() == 1 && agreed.is_none_or(|a| a == mine[0]);
        agreed = agreed.or(mine.first().copied());
    }
    let deserters: usize = s.nodes.iter().map(|r| r.deserters).sum();
    let mismatches: u64 = s.nodes.iter().map(|r| r.resolve_mismatches).sum();
    if !agree {
        out.wrong("nodes disagree on the handled exception");
    } else if mismatches > 0 {
        out.wrong("re-invoked resolve disagrees with the commit");
    } else if sent != expected {
        out.fail(format!("{sent} messages, want {expected}"));
    } else if deserters > 0 {
        out.fail(format!("{deserters} deserter reports"));
    }
}

/// Virtual arrival-to-commit latency of the mesh's scenario in the
/// simulator, over the seed's first [`VIRT_RUNS`] network seeds — the
/// protocol-timing guard for this workload.
#[allow(clippy::cast_precision_loss)]
fn virt_latencies(seed: u64) -> Vec<f64> {
    (0..VIRT_RUNS)
        .filter_map(|i| {
            let w = workloads::general(3, 2, 0, NetConfig::default().with_seed(sub_seed(seed, i)));
            let action = w.action;
            w.scenario
                .run()
                .resolution_for(action)
                .map(|r| r.at.as_micros() as f64)
        })
        .collect()
}

/// Runs the workload as configured.
#[must_use]
#[allow(clippy::cast_precision_loss)]
pub fn run(config: &RunConfig) -> Outcome {
    let mut out = Outcome::default();
    let scenario = match WireScenario::build(SPEC) {
        Ok(s) => s,
        Err(e) => {
            out.error(e);
            return out;
        }
    };
    let dir = sock_dir();
    if let Err(e) = std::fs::create_dir_all(&dir) {
        out.error(format!("socket directory {}: {e}", dir.display()));
        return out;
    }
    let mut virt = virt_latencies(config.seed);
    let epoch = Instant::now();
    let mut phase = Phase::new(config.budget());
    let mut setup = Vec::new();
    let mut latency = Vec::new();
    let mut traced_latency = Vec::new();
    let mut traced_samples = Vec::new();
    let mut k = 0usize;
    while k < MIN_SAMPLES || !phase.over() {
        // A traced run alternates untraced and traced samples, so the
        // tracing overhead is measured under the same host conditions.
        let traced = config.trace && k % 2 == 1;
        out.attempted += 1;
        match sample(&scenario, &dir, traced, epoch) {
            Ok(s) => {
                let failed = out.failed;
                gate(&scenario, &s, &mut out);
                setup.push(s.setup_s);
                if traced {
                    traced_latency.extend(s.latency_s.map(|l| l * 1e6));
                    traced_samples.push(s);
                } else {
                    latency.extend(s.latency_s.map(|l| l * 1e6));
                    phase.record(Unit {
                        wall_s: s.cost_s,
                        actions: if out.failed == failed { 1.0 } else { 0.0 },
                        cost_us: s.cost_s * 1e6,
                        latency_us: s.latency_s.map(|l| l * 1e6),
                    });
                }
            }
            Err(e) => out.fail(format!("mesh error: {e}")),
        }
        k += 1;
    }
    let _ = std::fs::remove_dir(&dir);
    if config.trace {
        let fail_share = out.fail_share();
        let engine = nearest_rank(&mut latency, 0.5) * 1e3;
        let traced = nearest_rank(&mut traced_latency, 0.5) * 1e3;
        layers(
            config,
            &traced_samples,
            engine,
            traced,
            fail_share,
            &mut out,
        );
    } else {
        phase.report(median(&mut setup), &mut virt, &mut out);
    }
    out
}

/// Matches each recorded send to the handle call that consumed it
/// (FIFO per directed link) and returns `(local, msg)` hop times in µs.
fn hops(nodes: &[NodeResult]) -> (Vec<f64>, Vec<f64>) {
    let mut consumed: HashMap<(NodeId, NodeId), VecDeque<Instant>> = HashMap::new();
    for r in nodes {
        for &(from, at) in &r.recvs {
            consumed.entry((from, r.id)).or_default().push_back(at);
        }
    }
    let (mut local, mut msg) = (Vec::new(), Vec::new());
    for r in nodes {
        for s in &r.sends {
            if let Some(at) = consumed
                .get_mut(&(r.id, s.to))
                .and_then(VecDeque::pop_front)
            {
                let us = at.saturating_duration_since(s.at).as_secs_f64() * 1e6;
                if s.local {
                    local.push(us)
                } else {
                    msg.push(us)
                }
            }
        }
    }
    (local, msg)
}

/// Per-layer metrics of the traced samples.
#[allow(clippy::cast_precision_loss)]
fn layers(
    config: &RunConfig,
    samples: &[Sample],
    engine_ns: f64,
    traced_ns: f64,
    fail_share: f64,
    out: &mut Outcome,
) {
    let mut totals = BTreeMap::new();
    let mut spans = Vec::new();
    let (mut local, mut msg) = (Vec::new(), Vec::new());
    let mut connect_ms = Vec::new();
    let (mut sent, mut flaps, mut reconnects, mut effects, mut raised) =
        (0u64, 0u64, 0u64, 0u64, 0u64);
    for s in samples {
        let (l, m) = hops(&s.nodes);
        local.extend(l);
        msg.extend(m);
        for r in &s.nodes {
            merge_totals(&mut totals, &r.totals);
            spans.extend_from_slice(&r.spans);
            connect_ms.push(r.connect_s * 1e3);
            sent += r.sent;
            flaps += r.flaps;
            reconnects += r.reconnects;
            effects += r.effects;
            raised += r.raised;
        }
    }
    let n = samples.len().max(1) as f64;
    let (codec_bytes, frame_encode_ns, frame_decode_ns, round_trip) = codec_replay(samples);
    if !round_trip {
        out.error("a recorded frame did not survive encode/decode");
    }
    spans.sort_by_key(|s| s.start_ns);
    replay::write_trace(config, &spans);
    let calibration = Calibration::measure();
    let drive = totals.get("drive.handle").copied().unwrap_or_default();
    let stats = replay::ReplayStats {
        actions: samples.len() as u64,
        effects,
        raised,
        ..replay::ReplayStats::default()
    };
    let inputs = LayerInputs {
        totals,
        calibration,
        stats,
        engine_ns_per_action: engine_ns,
        traced_ns_per_action: traced_ns,
        fail_share,
        wire: WireLayers {
            codec_bytes,
            frame_encode_ns,
            frame_decode_ns,
            drive_handle_ns: if drive.count == 0 {
                0.0
            } else {
                calibration.total_ns(drive) / drive.count as f64
            },
            hop_local_us_p50: nearest_rank(&mut local, 0.5),
            hop_msg_us_p50: nearest_rank(&mut msg, 0.5),
            frames_per_action: sent as f64 / n,
            suspicion_flaps: flaps as f64 / n,
            reconnects: reconnects as f64 / n,
            connect_ms: median(&mut connect_ms),
        },
        ..LayerInputs::default()
    };
    out.metrics.extend(replay::layer_metrics(&inputs));
}

/// Encodes and frames every message the traced samples sent, then
/// decodes the frames back: returns bytes per encoded message, ns per
/// frame encode and decode, and whether every frame round-tripped.
#[allow(clippy::cast_precision_loss)]
fn codec_replay(samples: &[Sample]) -> (f64, f64, f64, bool) {
    let mut frames = Vec::new();
    for s in samples {
        for r in &s.nodes {
            for send in &r.sends {
                frames.push(Frame::Msg {
                    from: r.id,
                    sent_us: 0,
                    msg: send.msg.clone(),
                });
            }
        }
    }
    if frames.is_empty() {
        return (0.0, 0.0, 0.0, true);
    }
    let bytes: usize = frames
        .iter()
        .map(|f| match f {
            Frame::Msg { msg, .. } => codec::encode(msg).len(),
            _ => 0,
        })
        .sum();
    let t = Instant::now();
    let mut encoded = Vec::with_capacity(frames.len());
    for f in &frames {
        for _ in 1..CODEC_REPS {
            std::hint::black_box(encode_frame(std::hint::black_box(f)));
        }
        encoded.push(encode_frame(f));
    }
    let encode_ns = t.elapsed().as_nanos() as f64 / (frames.len() as f64 * f64::from(CODEC_REPS));
    let t = Instant::now();
    let mut decoded = Vec::with_capacity(frames.len());
    for b in &encoded {
        for _ in 1..CODEC_REPS {
            let _ = std::hint::black_box(decode_frame(std::hint::black_box(b)));
        }
        decoded.push(decode_frame(b).map(|(f, _)| f));
    }
    let decode_ns = t.elapsed().as_nanos() as f64 / (frames.len() as f64 * f64::from(CODEC_REPS));
    let round_trip = frames
        .iter()
        .zip(&decoded)
        .all(|(f, d)| d.as_ref().is_ok_and(|d| d == f));
    (
        bytes as f64 / frames.len() as f64,
        encode_ns,
        decode_ns,
        round_trip,
    )
}
