//! Wall-clock benchmark of the caex workspace.
//!
//! Four workloads, each driven by one client thread:
//!
//! - `fleet`: open-loop Poisson arrivals of §4.4 `general_at(4,2,1)`
//!   instances through a one-shard [`caex::shard::FleetEngine`];
//! - `fleet-obs`: the same instance stream through
//!   `FleetEngine::run_observed` with a `MetricsRegistry` and a
//!   `Watchdog` attached;
//! - `wide`: a closed loop of `Scenario::run` over `general(32,8,4)`;
//! - `wire`: a closed loop of fresh three-node Unix-socket meshes
//!   resolving `general:3,2,0` through `caex::drive::drive_node`.
//!
//! An untraced run reports the end-to-end metrics; a traced run
//! reports the per-layer metrics (see `NOTES.md` beside this crate).

pub mod fleet;
pub mod replay;
pub mod trace;
pub mod wide;
pub mod wire;

use std::time::{Duration, Instant};

/// Which workload to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Open-loop fleet, no observers attached.
    Fleet,
    /// Open-loop fleet with metrics and watchdog attached.
    FleetObs,
    /// Closed loop of one wide resolution at a time.
    Wide,
    /// Closed loop over fresh loopback socket meshes.
    Wire,
}

impl Workload {
    /// Parses a workload name.
    ///
    /// # Errors
    ///
    /// Names the accepted workloads when `s` is none of them.
    pub fn parse(s: &str) -> Result<Workload, String> {
        match s {
            "fleet" => Ok(Workload::Fleet),
            "fleet-obs" => Ok(Workload::FleetObs),
            "wide" => Ok(Workload::Wide),
            "wire" => Ok(Workload::Wire),
            other => Err(format!(
                "unknown workload `{other}` (want fleet, fleet-obs, wide or wire)"
            )),
        }
    }

    /// The workload's name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::Fleet => "fleet",
            Workload::FleetObs => "fleet-obs",
            Workload::Wide => "wide",
            Workload::Wire => "wire",
        }
    }
}

/// One run's settings.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// The workload.
    pub workload: Workload,
    /// Seed every input is derived from.
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of untraced (end-to-end).
    pub trace: bool,
}

impl RunConfig {
    /// The measured phase's length.
    #[must_use]
    pub fn budget(&self) -> Duration {
        Duration::from_secs_f64(self.seconds.max(0.0))
    }
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// What one run measured and whether its outputs were correct.
///
/// A failed action missed a check: its deadline, the §4.4 message count,
/// or a mesh that did not form. A wrong action failed because its
/// outputs were wrong: no agreed resolution, a missing handler, a
/// deadlock or a watchdog violation. Only wrong actions and run-level
/// errors make the run incorrect; every failure counts in `failed`.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Actions attempted in the run.
    pub attempted: u64,
    /// Attempted actions that failed a check.
    pub failed: u64,
    /// Failed actions whose outputs were wrong.
    pub wrong: u64,
    /// A run-level error (such as a replay that diverged) voided the run.
    pub void: bool,
    /// The first few failure reasons and errors, for the log.
    pub log: Vec<String>,
    /// The reported metrics.
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// `true` iff no output was wrong and nothing voided the run.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.wrong == 0 && !self.void && self.attempted > 0
    }

    fn note(&mut self, reason: String) {
        if self.log.len() < 8 {
            self.log.push(reason);
        }
    }

    /// Records one action that failed a check with right outputs.
    pub fn fail(&mut self, reason: impl Into<String>) {
        self.failed += 1;
        self.note(reason.into());
    }

    /// Records one action whose outputs were wrong.
    pub fn wrong(&mut self, reason: impl Into<String>) {
        self.wrong += 1;
        self.fail(reason);
    }

    /// Records a run-level error that voids the run.
    pub fn error(&mut self, reason: impl Into<String>) {
        self.void = true;
        self.note(reason.into());
    }

    /// Appends a metric.
    pub fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// The failed share of attempted actions.
    #[must_use]
    #[allow(clippy::cast_precision_loss)]
    pub fn fail_share(&self) -> f64 {
        if self.attempted == 0 {
            1.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }

    /// The final result line: `correct`, `attempted`, `failed`, `metrics`.
    #[must_use]
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_num(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A finite JSON number with all its digits (non-finite becomes 0).
#[must_use]
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

/// Share of a phase's timed units, the fastest, that the wall-clock
/// metrics are taken over. On a shared host the same unit's wall time
/// drifts over a range of about 2× as co-tenants come and go, and how
/// much of a run falls in the slow part differs from run to run; the
/// fastest units show what the program costs when the host is quiet.
pub const QUIET_SHARE: f64 = 0.02;
/// Fewest units the quiet share holds, when the phase has that many.
pub const QUIET_MIN: usize = 5;
/// Times set-up is timed again, evenly over a measured phase.
pub const SETUP_SAMPLES: usize = 20;

/// One timed unit of work: an engine call, a run or a mesh sample.
#[derive(Debug, Clone, Copy)]
pub struct Unit {
    /// Wall seconds the unit took.
    pub wall_s: f64,
    /// Actions it completed.
    pub actions: f64,
    /// Wall µs per action.
    pub cost_us: f64,
    /// Wall µs from an action's start to its resolution, when it
    /// resolved.
    pub latency_us: Option<f64>,
}

/// A measured phase: its time budget and the units it timed.
#[derive(Debug)]
pub struct Phase {
    start: Instant,
    budget: Duration,
    units: Vec<Unit>,
    /// Set-up slots [`Phase::setup_due`] has reported.
    setups: usize,
}

impl Phase {
    /// Starts a phase of length `budget` now.
    #[must_use]
    pub fn new(budget: Duration) -> Self {
        Phase {
            start: Instant::now(),
            budget,
            units: Vec::new(),
            setups: 0,
        }
    }

    /// `true` once the phase's time is spent.
    #[must_use]
    pub fn over(&self) -> bool {
        self.start.elapsed() >= self.budget
    }

    /// Records a timed unit.
    pub fn record(&mut self, unit: Unit) {
        self.units.push(unit);
    }

    /// `true` the first time it is called in each of [`SETUP_SAMPLES`]
    /// equal slices of the phase.
    #[allow(
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss,
        clippy::cast_precision_loss
    )]
    pub fn setup_due(&mut self) -> bool {
        let share = self.start.elapsed().as_secs_f64() / self.budget.as_secs_f64().max(1e-9);
        let slot = ((share * SETUP_SAMPLES as f64) as usize).min(SETUP_SAMPLES - 1);
        let fresh = slot >= self.setups;
        self.setups = self.setups.max(slot + 1);
        fresh
    }

    /// The quiet share: the fastest units by wall time.
    #[allow(
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss,
        clippy::cast_precision_loss
    )]
    fn quiet(&self) -> Vec<Unit> {
        let mut units = self.units.clone();
        units.sort_by(|a, b| a.wall_s.total_cmp(&b.wall_s));
        let keep = ((units.len() as f64 * QUIET_SHARE).ceil() as usize).max(QUIET_MIN);
        units.truncate(keep);
        units
    }

    /// Pushes every end-to-end metric: `setup_s`, the wall-clock ones
    /// from the quiet share, and the virtual-time ones from `virt`.
    pub fn report(&self, setup_s: f64, virt: &mut [f64], out: &mut Outcome) {
        let quiet = self.quiet();
        let wall: f64 = quiet.iter().map(|u| u.wall_s).sum();
        let actions: f64 = quiet.iter().map(|u| u.actions).sum();
        let mut cost: Vec<f64> = quiet.iter().map(|u| u.cost_us).collect();
        let mut latency: Vec<f64> = quiet.iter().filter_map(|u| u.latency_us).collect();
        out.push("setup_s", setup_s, "s");
        out.push(
            "actions_per_s",
            if wall > 0.0 { actions / wall } else { 0.0 },
            "1/s",
        );
        out.push("cost_us.p50", median(&mut cost), "us");
        out.push("latency_us.p50", median(&mut latency), "us");
        out.push("virt_latency_us.p50", nearest_rank(virt, 0.50), "virt_us");
        out.push("virt_latency_us.p99", nearest_rank(virt, 0.99), "virt_us");
    }
}

/// The `i`-th sub-seed of `seed` (splitmix64), for per-batch and
/// per-run inputs.
#[must_use]
pub fn sub_seed(seed: u64, i: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15_u64.wrapping_mul(i.wrapping_add(1)));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Exact nearest-rank `q`-quantile (`0 < q <= 1`) of `samples`,
/// sorting them in place; 0 when empty.
#[must_use]
#[allow(
    clippy::cast_precision_loss,
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss
)]
pub fn nearest_rank(samples: &mut [f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(f64::total_cmp);
    let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
    samples[rank - 1]
}

/// The median of `samples` (nearest rank).
#[must_use]
pub fn median(samples: &mut [f64]) -> f64 {
    nearest_rank(samples, 0.5)
}

/// Seconds since `t`.
#[must_use]
pub fn secs_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Directory the benchmark writes spans and sockets into, inside the
/// benchmark's own directory.
#[must_use]
pub fn out_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Runs one configured run.
#[must_use]
pub fn run(config: &RunConfig) -> Outcome {
    match config.workload {
        Workload::Fleet | Workload::FleetObs => fleet::run(config),
        Workload::Wide => wide::run(config),
        Workload::Wire => wire::run(config),
    }
}

/// Build and host facts recorded beside every result.
#[must_use]
pub fn provenance(config: &RunConfig) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    format!(
        "{{\"provenance\": {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"nproc\": {}, \"cpu\": \"{}\", \"rustc\": \"{}\", \"profile\": \"{}\", \"opt_level\": \"{}\", \"git_commit\": \"{}\"}}}}",
        config.workload.name(),
        config.seed,
        json_num(config.seconds),
        config.trace,
        nproc,
        escape(&cpu),
        escape(env!("WALLBENCH_RUSTC")),
        env!("WALLBENCH_PROFILE"),
        env!("WALLBENCH_OPT_LEVEL"),
        env!("WALLBENCH_GIT_COMMIT"),
    )
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}
