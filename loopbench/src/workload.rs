//! The closed-loop workloads and the runs that measure them.
//!
//! A client submits one iteration — every circuit of its optimizer step at
//! that step's θ — waits for the report, and only then sends the next. The
//! untraced run measures the end-to-end metrics; the traced run replays the
//! same inputs from the same set-up and times each public call the
//! compilation makes, one span per call.

use crate::gate;
use crate::inputs::{trajectory, Program};
use crate::stats;
use crate::trace::{self, Span, Tracer};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};
use vqc_core::{
    BlockOutcome, CompilationReport, CompilerOptions, PartialCompiler, Phase, Strategy, PHASE_COUNT,
};
use vqc_runtime::{
    CompilationRuntime, CompileJob, Priority, RuntimeMetrics, RuntimeOptions, Submission,
    TraceStage,
};
use vqc_transport::wire::{read_frame, write_frame};
use vqc_transport::{
    Client, ClientOptions, Request, Response, Server, ServerOptions, SubmitPayload, WireJob,
    DEFAULT_MAX_FRAME,
};

/// Sessions per untraced run. Each has its own service, its own seeded
/// inputs, its own set-up and a third of the run's loop time: the cost of a
/// full-GRAPE step depends on what the warm-start index learned from earlier
/// compiles, so one history per run would make the run's figures that
/// history's. `setup_s` is the median of the sessions' set-ups.
const SESSIONS: usize = 3;

/// Every this many iterations a remote report is kept and later compared
/// with an in-process compile of the same inputs.
const REMOTE_SAMPLE_EVERY: usize = 16;

/// Spans kept for the Chrome trace; later iterations are only aggregated.
const CHROME_SPAN_LIMIT: usize = 60_000;

/// How a client reaches the compilation service.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    /// `CompilationRuntime::submit` in the same process.
    InProcess,
    /// The loopback TCP `Client` against an in-process `Server`.
    Remote,
}

/// One closed-loop client.
#[derive(Debug, Clone)]
pub struct ClientSpec {
    /// Name used in reports.
    pub role: &'static str,
    /// The circuits of one optimizer step.
    pub programs: Vec<Program>,
    /// Compilation strategy of every submission.
    pub strategy: Strategy,
    /// How submissions travel.
    pub route: Route,
    /// Scheduling class.
    pub priority: Priority,
}

/// A named set of clients sharing one service.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Clients; the first is the latency-sensitive one, the last the batch one.
    pub clients: Vec<ClientSpec>,
    /// Percentile `iter_tail_ms` is reported at.
    pub tail_percentile: f64,
}

/// Names of every workload, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 2] = ["grape_loop", "mixed_priority"];

/// The circuits of a full-GRAPE client. Their searches run half a restart
/// budget apart, so one is in its cheap initial simplex (one θ moves per
/// step) while the other makes moves that change every θ: the per-step cost
/// stays level.
fn full_grape() -> Vec<Program> {
    vec![Program::beh2(), Program::nah()]
}

/// Looks a workload up by name.
pub fn workload(name: &str) -> Option<Workload> {
    // The tail is the highest percentile with ten samples beyond it at
    // today's rates whose run-to-run spread on a 2-vCPU host fits the bound
    // (IQR over median across ten seeds on grape_loop: p90 0.16, p95 0.24).
    let (clients, tail_percentile) = match name {
        // Every θ-dependent block misses the bound-key cache: pulse and
        // linear algebra do nearly all the work.
        "grape_loop" => (
            vec![ClientSpec {
                role: "grape",
                programs: full_grape(),
                strategy: Strategy::FullGrape,
                route: Route::InProcess,
                priority: Priority::NORMAL,
            }],
            90.0,
        ),
        // A flexible client whose every block is a structure-warm hit after
        // the pre-compute (latency is preparation, planning, keys, cache
        // probes, dispatch and the wire) shares the pool with the GRAPE
        // blocks of circuits it does not compile.
        "mixed_priority" => (
            vec![
                ClientSpec {
                    role: "interactive",
                    programs: vec![Program::h2(), Program::lih(), Program::qaoa_regular()],
                    strategy: Strategy::FlexiblePartial,
                    route: Route::Remote,
                    priority: Priority::HIGH,
                },
                ClientSpec {
                    role: "batch",
                    programs: full_grape(),
                    strategy: Strategy::FullGrape,
                    route: Route::Remote,
                    priority: Priority::LOW,
                },
            ],
            99.0,
        ),
        _ => return None,
    };
    Some(Workload {
        clients,
        tail_percentile,
    })
}

/// Bindings indexed by client, program and iteration.
#[derive(Debug, Clone)]
pub struct Inputs(Vec<Vec<Vec<Vec<f64>>>>);

impl Inputs {
    /// Generates every client's trajectories for one session from `seed`,
    /// long enough for a loop of `seconds` well beyond today's iteration
    /// rates.
    pub fn generate(workload: &Workload, seed: u64, session: usize, seconds: f64) -> Inputs {
        let per_second = |strategy| match strategy {
            Strategy::FullGrape => 100,
            _ => 2_000,
        };
        Inputs(
            workload
                .clients
                .iter()
                .enumerate()
                .map(|(c, spec)| {
                    let length = (per_second(spec.strategy) as f64 * seconds) as usize + 1;
                    let streams = spec.programs.len();
                    spec.programs
                        .iter()
                        .enumerate()
                        .map(|(p, program)| {
                            let phase = p as f64 / streams as f64;
                            let stream = (session * 64 + c * 8 + p) as u64;
                            trajectory(program, seed, stream, length, phase)
                        })
                        .collect()
                })
                .collect(),
        )
    }

    /// The jobs of client `client`'s iteration `k` (iteration 0 is the set-up).
    fn jobs(&self, spec: &ClientSpec, client: usize, k: usize) -> Vec<CompileJob> {
        spec.programs
            .iter()
            .zip(&self.0[client])
            .map(|(program, points)| {
                CompileJob::new(
                    program.circuit.clone(),
                    points[k % points.len()].clone(),
                    spec.strategy,
                )
            })
            .collect()
    }
}

/// A metric as printed on the result line.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name from `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit from `BENCHMARK.json`.
    pub unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// What one run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Metrics in print order.
    pub metrics: Vec<Metric>,
    /// Iterations attempted, set-ups included.
    pub attempted: u64,
    /// Attempted iterations that errored, were refused or failed a check.
    pub failed: u64,
    /// Human-readable lines printed before the result line.
    pub notes: Vec<String>,
    /// Violations of the correctness gate (first few are printed).
    pub violations: Vec<String>,
    /// Files to write under the output directory: (file name, contents).
    pub files: Vec<(String, String)>,
}

type Reports = Result<Vec<CompilationReport>, String>;

/// The service a run talks to: one runtime on the default worker count,
/// and when needed a loopback server with one connection per client.
struct Env {
    // Field order is drop order: connections close before the server drains,
    // and the runtime shuts down last.
    clients: Vec<Option<Client>>,
    _server: Option<Server>,
    runtime: Arc<CompilationRuntime>,
}

impl Env {
    fn start(workload: &Workload, connect_every_client: bool) -> Result<Env, String> {
        let runtime = Arc::new(CompilationRuntime::new(
            CompilerOptions::fast(),
            RuntimeOptions::default(),
        ));
        let remote = |spec: &ClientSpec| connect_every_client || spec.route == Route::Remote;
        let server = if workload.clients.iter().any(remote) {
            Some(
                Server::bind(
                    "127.0.0.1:0",
                    Arc::clone(&runtime),
                    ServerOptions::default(),
                )
                .map_err(|e| format!("cannot bind the loopback server: {e}"))?,
            )
        } else {
            None
        };
        let mut clients = Vec::new();
        for spec in &workload.clients {
            clients.push(match &server {
                Some(server) if remote(spec) => Some(
                    Client::connect(
                        server.local_addr(),
                        ClientOptions::default()
                            .with_name(spec.role)
                            .with_priority(spec.priority),
                    )
                    .map_err(|e| format!("cannot connect client {}: {e}", spec.role))?,
                ),
                _ => None,
            });
        }
        Ok(Env {
            clients,
            _server: server,
            runtime,
        })
    }

    fn submit_in_process(
        &self,
        spec: &ClientSpec,
        client: usize,
        jobs: Vec<CompileJob>,
    ) -> Reports {
        let handle = self
            .runtime
            .submit(
                Submission::batch(jobs)
                    .with_priority(spec.priority)
                    .with_client(client as u64 + 1),
            )
            .map_err(|e| e.to_string())?;
        collect_local(handle.wait().map_err(|e| e.to_string())?)
    }

    fn submit_remote(&self, client: usize, jobs: Vec<CompileJob>) -> Reports {
        let connection = self.clients[client]
            .as_ref()
            .ok_or_else(|| String::from("client has no connection"))?;
        let job = connection
            .submit(wire_payload(jobs))
            .map_err(|e| e.to_string())?;
        collect_remote(job.wait().map_err(|e| e.to_string())?)
    }

    fn submit(&self, spec: &ClientSpec, client: usize, jobs: Vec<CompileJob>) -> Reports {
        match spec.route {
            Route::InProcess => self.submit_in_process(spec, client, jobs),
            Route::Remote => self.submit_remote(client, jobs),
        }
    }

    /// The set-up: every client's first step, submitted together and
    /// awaited — for flexible clients the pre-compute (tuning and duration
    /// search), for full-GRAPE clients the first cold-table compile.
    fn set_up(&self, workload: &Workload, inputs: &Inputs) -> Result<(), String> {
        std::thread::scope(|scope| {
            let pending: Vec<_> = workload
                .clients
                .iter()
                .enumerate()
                .map(|(c, spec)| {
                    let jobs = inputs.jobs(spec, c, 0);
                    scope.spawn(move || self.submit(spec, c, jobs))
                })
                .collect();
            for ((spec, handle), c) in workload.clients.iter().zip(pending).zip(0..) {
                let reports = handle
                    .join()
                    .map_err(|_| String::from("set-up client panicked"))??;
                let violations = check(spec, &reports);
                if !violations.is_empty() {
                    return Err(format!("set-up of client {c}: {}", violations.join("; ")));
                }
            }
            Ok(())
        })
    }
}

fn wire_payload(jobs: Vec<CompileJob>) -> SubmitPayload {
    SubmitPayload::Batch(
        jobs.into_iter()
            .map(|job| WireJob {
                circuit: job.circuit,
                params: job.params,
                strategy: job.strategy,
            })
            .collect(),
    )
}

fn collect_local(results: Vec<Result<CompilationReport, vqc_core::CompileError>>) -> Reports {
    results
        .into_iter()
        .map(|r| r.map_err(|e| e.to_string()))
        .collect()
}

fn collect_remote(results: Vec<Result<CompilationReport, vqc_transport::WireError>>) -> Reports {
    results
        .into_iter()
        .map(|r| r.map_err(|e| format!("{e:?}")))
        .collect()
}

/// Gate violations of one iteration's reports.
fn check(spec: &ClientSpec, reports: &[CompilationReport]) -> Vec<String> {
    if reports.len() != spec.programs.len() {
        return vec![format!(
            "{}: {} reports for {} jobs",
            spec.role,
            reports.len(),
            spec.programs.len()
        )];
    }
    spec.programs
        .iter()
        .zip(reports)
        .flat_map(|(program, report)| gate::check_report(program.name, spec.strategy, report))
        .collect()
}

/// Pulse-quality tallies over a set of reports.
#[derive(Debug, Default, Clone)]
struct Quality {
    speedups: Vec<f64>,
    eligible_blocks: u64,
    converged_blocks: u64,
    grape_iterations: u64,
}

impl Quality {
    fn add(&mut self, reports: &[CompilationReport]) {
        for report in reports {
            self.speedups.push(report.pulse_speedup());
            for block in report.blocks.iter().filter(|b| b.num_ops > 1) {
                self.eligible_blocks += 1;
                self.converged_blocks += u64::from(block.converged);
                if !block.cached && block.measured_seconds > 0.0 {
                    self.grape_iterations += block.grape_iterations as u64;
                }
            }
        }
    }

    fn merge(&mut self, other: &Quality) {
        self.speedups.extend_from_slice(&other.speedups);
        self.eligible_blocks += other.eligible_blocks;
        self.converged_blocks += other.converged_blocks;
        self.grape_iterations += other.grape_iterations;
    }
}

/// One client's closed loop.
#[derive(Debug, Default)]
struct ClientRun {
    latencies_s: Vec<f64>,
    /// Seconds from the loop's start at which each successful iteration ended.
    completed_at: Vec<f64>,
    attempted: u64,
    failed: u64,
    violations: Vec<String>,
    quality: Quality,
    /// Seconds from the loop's start to the client's last completion.
    busy_seconds: f64,
    samples: Vec<(usize, Vec<CompilationReport>)>,
}

fn run_client(
    env: &Env,
    spec: &ClientSpec,
    client: usize,
    inputs: &Inputs,
    start: Instant,
    deadline: Instant,
) -> ClientRun {
    let mut run = ClientRun::default();
    let mut k = 1;
    while Instant::now() < deadline {
        let jobs = inputs.jobs(spec, client, k);
        let started = Instant::now();
        let result = env.submit(spec, client, jobs);
        let latency = started.elapsed().as_secs_f64();
        run.busy_seconds = start.elapsed().as_secs_f64();
        run.attempted += 1;
        match result {
            Ok(reports) => {
                let violations = check(spec, &reports);
                if violations.is_empty() {
                    run.latencies_s.push(latency);
                    run.completed_at.push(run.busy_seconds);
                    run.quality.add(&reports);
                    if spec.route == Route::Remote && k % REMOTE_SAMPLE_EVERY == 0 {
                        run.samples.push((k, reports));
                    }
                } else {
                    run.failed += 1;
                    run.violations.extend(violations);
                }
            }
            Err(error) => {
                run.failed += 1;
                run.violations
                    .push(format!("{}: iteration {k}: {error}", spec.role));
            }
        }
        k += 1;
    }
    run
}

/// Recompiles each kept remote report's inputs in process and describes
/// every iteration whose results disagree.
fn verify_samples(
    env: &Env,
    spec: &ClientSpec,
    client: usize,
    inputs: &Inputs,
    samples: &[(usize, Vec<CompilationReport>)],
) -> Vec<String> {
    samples
        .iter()
        .filter_map(|(k, remote)| {
            let local = env.submit_in_process(spec, client, inputs.jobs(spec, client, *k));
            match local {
                Ok(local)
                    if local.len() == remote.len()
                        && remote
                            .iter()
                            .zip(&local)
                            .all(|(r, l)| gate::same_result(r, l)) =>
                {
                    None
                }
                Ok(_) => Some(format!(
                    "{}: iteration {k}: remote report differs from the in-process report",
                    spec.role
                )),
                Err(error) => Some(format!(
                    "{}: iteration {k}: in-process recompile: {error}",
                    spec.role
                )),
            }
        })
        .collect()
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Appends one session's loop to the run's pooled loop of the same client.
fn pool(total: &mut ClientRun, session: ClientRun, offset_seconds: f64) {
    total.latencies_s.extend(session.latencies_s);
    total
        .completed_at
        .extend(session.completed_at.iter().map(|t| t + offset_seconds));
    total.attempted += session.attempted;
    total.failed += session.failed;
    total.violations.extend(session.violations);
    total.quality.merge(&session.quality);
    total.busy_seconds += session.busy_seconds;
    total.samples.extend(session.samples);
}

/// The untraced run: `SESSIONS` sessions, each a fresh service set up and
/// then every client's closed loop for a third of `seconds`. Produces the
/// end-to-end metrics over the pooled loops.
pub fn run_untraced(workload: &Workload, seed: u64, seconds: u64) -> Result<Outcome, String> {
    let mut outcome = Outcome::default();
    let session_seconds = seconds as f64 / SESSIONS as f64;
    let mut setups = Vec::new();
    let mut runs: Vec<ClientRun> = workload
        .clients
        .iter()
        .map(|_| ClientRun::default())
        .collect();
    let mut cross_checked = vec![0; workload.clients.len()];
    let mut wall = 0.0;
    for session in 0..SESSIONS {
        let inputs = Inputs::generate(workload, seed, session, session_seconds);
        let started = Instant::now();
        let env = Env::start(workload, false)?;
        outcome.attempted += 1;
        if let Err(error) = env.set_up(workload, &inputs) {
            outcome.failed += 1;
            outcome.violations.push(error);
        }
        setups.push(started.elapsed().as_secs_f64());

        let start = Instant::now();
        let deadline = start + Duration::from_secs_f64(session_seconds);
        let session_runs: Vec<ClientRun> = std::thread::scope(|scope| {
            let (env, inputs) = (&env, &inputs);
            let others: Vec<_> = workload
                .clients
                .iter()
                .enumerate()
                .skip(1)
                .map(|(c, spec)| {
                    scope.spawn(move || run_client(env, spec, c, inputs, start, deadline))
                })
                .collect();
            let mut runs = vec![run_client(
                env,
                &workload.clients[0],
                0,
                inputs,
                start,
                deadline,
            )];
            for other in others {
                runs.push(other.join().expect("client threads do not panic"));
            }
            runs
        });
        let session_wall = session_runs
            .iter()
            .map(|r| r.busy_seconds)
            .fold(0.0, f64::max);
        for (c, (spec, run)) in workload.clients.iter().zip(session_runs).enumerate() {
            let mismatches = verify_samples(&env, spec, c, &inputs, &run.samples);
            outcome.failed += mismatches.len() as u64;
            outcome.violations.extend(mismatches);
            cross_checked[c] += run.samples.len();
            pool(&mut runs[c], run, wall);
        }
        wall += session_wall;
    }

    let mut quality = Quality::default();
    for ((spec, run), checked) in workload.clients.iter().zip(&runs).zip(&cross_checked) {
        outcome.attempted += run.attempted;
        outcome.failed += run.failed;
        outcome.violations.extend(run.violations.iter().cloned());
        quality.merge(&run.quality);
        outcome.notes.push(format!(
            "client {} ({}, {:?}, {} circuits): {} iterations, {} failed, {} remote reports cross-checked, {} GRAPE iterations performed",
            spec.role,
            spec.strategy,
            spec.route,
            spec.programs.len(),
            run.attempted,
            run.failed,
            checked,
            run.quality.grape_iterations
        ));
    }

    let interactive = &runs[0];
    let batch = runs.last().ok_or("no clients")?;
    let latencies_ms: Vec<f64> = interactive.latencies_s.iter().map(|s| s * 1e3).collect();
    let completed: usize = runs.iter().map(|r| r.latencies_s.len()).sum();
    let tail = stats::tail(&latencies_ms, workload.tail_percentile).ok_or_else(|| {
        format!(
            "only {} iterations completed; a tail needs more than {}",
            latencies_ms.len(),
            stats::TAIL_MIN_BEYOND
        )
    })?;
    if tail.percentile != workload.tail_percentile {
        outcome.notes.push(format!(
            "too few iterations for p{}: iter_tail_ms fell back to p{}",
            workload.tail_percentile, tail.percentile
        ));
    }
    outcome.notes.push(format!(
        "iter_tail_ms is p{} of {} samples ({} beyond it)",
        tail.percentile, tail.samples, tail.beyond
    ));
    outcome.notes.push(format!(
        "peak resident set {:.1} MiB (VmHWM; a per-layer metric, see README)",
        peak_rss_mb().ok_or("no VmHWM")?
    ));
    for (spec, run) in workload.clients.iter().zip(&runs) {
        let mut lines = String::from("completed_at_s latency_ms\n");
        for (at, latency) in run.completed_at.iter().zip(&run.latencies_s) {
            lines.push_str(&format!("{at:.6} {:.6}\n", latency * 1e3));
        }
        outcome
            .files
            .push((format!("{}.latencies.txt", spec.role), lines));
    }
    let fallback = 1.0 - ratio(quality.converged_blocks, quality.eligible_blocks);
    outcome.notes.push(format!(
        "fallback_frac {:.4} ({} of {} GRAPE-eligible blocks unconverged); failed_frac {:.4} ({} of {} iterations)",
        fallback,
        quality.eligible_blocks - quality.converged_blocks,
        quality.eligible_blocks,
        ratio(outcome.failed, outcome.attempted),
        outcome.failed,
        outcome.attempted
    ));
    outcome.notes.push(format!(
        "set-ups (s): {}",
        setups
            .iter()
            .map(|s| format!("{s:.3}"))
            .collect::<Vec<_>>()
            .join(" ")
    ));

    outcome.metrics = vec![
        metric("setup_s", stats::median(&setups).ok_or("no set-up")?, "s"),
        metric(
            "iter_p50_ms",
            stats::median(&latencies_ms).ok_or("no iterations")?,
            "ms",
        ),
        metric("iter_tail_ms", tail.value, "ms"),
        metric("iters_per_s", completed as f64 / wall, "1/s"),
        metric(
            "batch_iters_per_s",
            batch.latencies_s.len() as f64 / batch.busy_seconds,
            "1/s",
        ),
        metric(
            "pulse_speedup",
            stats::geomean(&quality.speedups).ok_or("no pulse speedups")?,
            "x",
        ),
        metric(
            "converged_frac",
            ratio(quality.converged_blocks, quality.eligible_blocks),
            "share",
        ),
    ];
    Ok(outcome)
}

fn ratio(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

fn mean(total: f64, count: u64) -> f64 {
    if count == 0 {
        0.0
    } else {
        total / count as f64
    }
}

/// The layer each compile-profile phase belongs to.
fn phase_layer(phase: Phase) -> &'static str {
    match phase {
        Phase::Eigendecomposition | Phase::Propagation => "linalg",
        _ => "pulse",
    }
}

/// Per-iteration sums of one traced iteration.
#[derive(Debug, Default)]
struct IterationSums {
    prepare_us: f64,
    prepared_ops: f64,
    plan_us: f64,
    key_us: f64,
    estimate_us: f64,
    assemble_us: f64,
    blocks: f64,
    grape_iterations: u64,
}

/// Everything the traced run aggregates.
#[derive(Debug, Default)]
struct LayerTotals {
    per_iteration: BTreeMap<&'static str, Vec<f64>>,
    hit_us: f64,
    hits: u64,
    miss_us: f64,
    misses: u64,
    converged_misses: u64,
    cost_rel_err: Vec<f64>,
    worked_seconds: f64,
    worked_iterations: u64,
    setup_grape_iterations: u64,
    phase_seconds: [f64; PHASE_COUNT],
    jacobi_sweeps: u64,
    unitary_us: f64,
    unitaries: u64,
    layer_self_us: BTreeMap<&'static str, Vec<f64>>,
    layer_self_share: BTreeMap<&'static str, Vec<f64>>,
    layer_sum_frac: Vec<f64>,
    setup_layer_self_us: BTreeMap<&'static str, f64>,
    chrome: Vec<Span>,
}

impl LayerTotals {
    fn push(&mut self, name: &'static str, value: f64) {
        self.per_iteration.entry(name).or_default().push(value);
    }

    fn median(&self, name: &str) -> f64 {
        self.per_iteration
            .get(name)
            .and_then(|values| stats::median(values))
            .unwrap_or(0.0)
    }

    /// Folds a finished iteration's spans into the per-layer self times.
    fn fold_spans(&mut self, spans: Vec<Span>, setup: bool) {
        if spans.is_empty() {
            return;
        }
        let layers = trace::layer_self_times(&spans);
        if setup {
            self.setup_layer_self_us = layers;
        } else {
            let root = spans[0].duration_us();
            let below_root: f64 = layers
                .iter()
                .filter(|(layer, _)| **layer != "bench")
                .map(|(_, us)| us)
                .sum();
            self.layer_sum_frac.push(below_root / root);
            for layer in LAYERS {
                let own = layers.get(layer).copied().unwrap_or(0.0);
                self.layer_self_us.entry(layer).or_default().push(own);
                self.layer_self_share
                    .entry(layer)
                    .or_default()
                    .push(own / root);
            }
        }
        if self.chrome.len() < CHROME_SPAN_LIMIT {
            self.chrome.extend(spans);
        }
    }

    /// Compiles one job through the compiler's public seams, one span per
    /// call: prepare → plan → key and cost estimate per block → compile per
    /// block → assemble.
    fn decomposed_compile(
        &mut self,
        tracer: &mut Tracer,
        compiler: &PartialCompiler,
        job: &CompileJob,
        sums: &mut IterationSums,
        setup: bool,
    ) -> Result<CompilationReport, String> {
        let (prepared, micros) =
            tracer.span("circuit", "prepare", |_| compiler.prepare(&job.circuit));
        sums.prepare_us += micros;
        sums.prepared_ops += prepared.len() as f64;
        let (plan, micros) = tracer.span("core", "plan", |_| {
            compiler.plan(&job.circuit, &job.params, job.strategy)
        });
        sums.plan_us += micros;
        let plan = plan.map_err(|e| e.to_string())?;
        sums.blocks += plan.blocks.len() as f64;
        let mut estimates = Vec::with_capacity(plan.blocks.len());
        for block in &plan.blocks {
            let (_key, micros) =
                tracer.span("core", "dedup_key", |_| plan.dedup_key(block, &job.params));
            sums.key_us += micros;
            let (estimate, micros) = tracer.span("core", "cost_estimate", |_| {
                compiler.estimate_block_cost_seconds(&plan, block, &job.params)
            });
            sums.estimate_us += micros;
            estimates.push(estimate);
        }
        let mut outcomes: Vec<BlockOutcome> = Vec::with_capacity(plan.blocks.len());
        for (block, estimate) in plan.blocks.iter().zip(estimates) {
            let span = tracer.begin("core", "block_hit");
            let outcome = compiler.compile_block_outcome(&plan, block, &job.params);
            let micros = tracer.end(span);
            let outcome = outcome.map_err(|e| e.to_string())?;
            let report = &outcome.report;
            if report.measured_seconds > 0.0 {
                tracer.rename(span, "block_miss");
                self.miss_us += micros;
                self.misses += 1;
                self.converged_misses += u64::from(report.converged);
                let worked: u64 = [&outcome.precompute, &outcome.runtime]
                    .iter()
                    .filter(|estimate| estimate.measured_seconds > 0.0)
                    .map(|estimate| estimate.grape_iterations as u64)
                    .sum();
                self.worked_iterations += worked;
                if setup {
                    self.setup_grape_iterations += worked;
                } else {
                    sums.grape_iterations += worked;
                }
                self.worked_seconds += report.measured_seconds;
                self.cost_rel_err
                    .push((estimate - report.measured_seconds).abs() / report.measured_seconds);
                for (sum, seconds) in self
                    .phase_seconds
                    .iter_mut()
                    .zip(report.profile.phase_seconds)
                {
                    *sum += seconds;
                }
                self.jacobi_sweeps += report.profile.jacobi_sweeps;
                let phases: Vec<_> = Phase::ALL
                    .iter()
                    .map(|&phase| {
                        (
                            phase_layer(phase),
                            phase.name(),
                            report.profile.seconds(phase) * 1e6,
                        )
                    })
                    .collect();
                tracer.derive(span, &phases);
                // The target unitary a GRAPE block is optimized against.
                let bound = block.to_circuit(&plan.prepared).bind(&job.params);
                let (unitary, micros) = tracer.span("sim", "target_unitary", |_| {
                    vqc_sim::circuit_unitary(&bound)
                });
                std::hint::black_box(unitary);
                self.unitary_us += micros;
                self.unitaries += 1;
            } else {
                self.hit_us += micros;
                self.hits += 1;
            }
            outcomes.push(outcome);
        }
        let (report, micros) =
            tracer.span("core", "assemble", |_| compiler.assemble(&plan, outcomes));
        sums.assemble_us += micros;
        Ok(report)
    }
}

/// Layers of the self-time table, after the workspace modules, plus the
/// benchmark's own loop.
pub const LAYERS: [&str; 8] = [
    "circuit",
    "core",
    "pulse",
    "linalg",
    "sim",
    "runtime",
    "transport",
    "bench",
];

/// Sums worker busy time from the runtime's lifecycle ring: a block is busy
/// from its compile-start to its cache-hit or compiled event.
#[derive(Debug, Default)]
struct BusyMeter {
    high_water: u64,
    open: HashMap<(u64, u64), VecDeque<u64>>,
    busy_us: f64,
}

impl BusyMeter {
    fn read(&mut self, runtime: &CompilationRuntime) {
        let mut newest = self.high_water;
        for event in runtime
            .trace_events()
            .iter()
            .filter(|e| e.micros > self.high_water)
        {
            newest = newest.max(event.micros);
            let key = (event.submission, event.detail);
            match event.stage {
                TraceStage::CompileStart => {
                    self.open.entry(key).or_default().push_back(event.micros)
                }
                TraceStage::CacheHit | TraceStage::Compiled => {
                    if let Some(start) = self.open.get_mut(&key).and_then(VecDeque::pop_front) {
                        self.busy_us += event.micros.saturating_sub(start) as f64;
                    }
                }
                _ => {}
            }
        }
        self.high_water = newest;
    }
}

/// The traced run: one set-up through the compiler's public seams, then the
/// first client's loop with every call in a span; other clients run their
/// untraced loops beside it. Produces the per-layer metrics.
pub fn run_traced(workload: &Workload, seed: u64, seconds: u64) -> Result<Outcome, String> {
    let mut outcome = Outcome::default();
    let inputs = &Inputs::generate(workload, seed, 0, seconds as f64);
    let env = Env::start(workload, true)?;
    vqc_pulse::profile::set_armed(true);
    let compiler = env.runtime.compiler();
    let mut totals = LayerTotals::default();
    let mut tracer = Tracer::new();

    // Set-up, traced: the same first steps the untraced set-up submits.
    let root = tracer.begin("bench", "setup");
    let mut setup_sums = IterationSums::default();
    for (c, spec) in workload.clients.iter().enumerate() {
        for (program, job) in spec.programs.iter().zip(inputs.jobs(spec, c, 0)) {
            outcome.attempted += 1;
            let report =
                totals.decomposed_compile(&mut tracer, compiler, &job, &mut setup_sums, true);
            let violations = match report {
                Ok(report) => gate::check_report(program.name, spec.strategy, &report),
                Err(error) => vec![error],
            };
            if !violations.is_empty() {
                outcome.failed += 1;
                outcome.violations.extend(violations);
            }
        }
    }
    let setup_us = tracer.end(root);
    let spans = tracer.next_iteration(1);
    totals.fold_spans(spans, true);

    let spec = &workload.clients[0];
    let before: RuntimeMetrics = env.runtime.metrics();
    let mut busy = BusyMeter::default();
    busy.read(&env.runtime);
    busy.busy_us = 0.0;
    let mut traced_service_us = Vec::new();
    let mut untraced_service_us = Vec::new();
    let start = Instant::now();
    let deadline = start + Duration::from_secs(seconds);
    let others: Vec<ClientRun> = std::thread::scope(|scope| -> Result<Vec<ClientRun>, String> {
        let env_ref = &env;
        let handles: Vec<_> = workload
            .clients
            .iter()
            .enumerate()
            .skip(1)
            .map(|(c, other)| {
                scope.spawn(move || run_client(env_ref, other, c, inputs, start, deadline))
            })
            .collect();
        let mut k = 1;
        while Instant::now() < deadline {
            outcome.attempted += 1;
            let mut sums = IterationSums::default();
            let root = tracer.begin("bench", "iteration");
            let jobs = inputs.jobs(spec, 0, k);
            let mut violations = Vec::new();
            let mut local = Vec::new();
            for job in &jobs {
                match totals.decomposed_compile(&mut tracer, compiler, job, &mut sums, false) {
                    Ok(report) => local.push(report),
                    Err(error) => violations.push(error),
                }
            }
            // The wire round trip, then the in-process service path, on the
            // same inputs.
            let wire = tracer.begin("transport", "round_trip");
            let remote = env.submit_remote(0, jobs.clone());
            let wire_us = tracer.end(wire);
            let payload = wire_payload(jobs.clone());
            let admit = tracer.begin("runtime", "submit");
            let handle = env.runtime.submit(
                Submission::batch(jobs.clone())
                    .with_priority(spec.priority)
                    .with_client(1),
            );
            let admit_us = tracer.end(admit);
            let (service, queue_us, run_us) = match handle {
                Ok(handle) => {
                    let (_, queue_us) = tracer.span("runtime", "queue", |_| handle.wait_started());
                    let (results, run_us) = tracer.span("runtime", "run", |_| handle.wait());
                    (
                        results.map_err(|e| e.to_string()).and_then(collect_local),
                        queue_us,
                        run_us,
                    )
                }
                Err(error) => (Err(error.to_string()), 0.0, 0.0),
            };
            let in_process_us = admit_us + queue_us + run_us;
            tracer.derive(wire, &[("runtime", "server_side", in_process_us)]);
            // Frame codec on this iteration's actual Submit and Report payloads.
            let request = Request::Submit {
                id: k as u64,
                payload,
                priority: None,
                trace: None,
            };
            let response = Response::Report {
                id: k as u64,
                results: remote
                    .clone()
                    .unwrap_or_default()
                    .into_iter()
                    .map(Ok)
                    .collect(),
            };
            let ((submit_frame, report_frame), encode_us) =
                tracer.span("transport", "encode", |_| {
                    let (mut submit_frame, mut report_frame) = (Vec::new(), Vec::new());
                    let encoded = write_frame(&mut submit_frame, &request, usize::MAX).is_ok()
                        && write_frame(&mut report_frame, &response, usize::MAX).is_ok();
                    if !encoded {
                        submit_frame.clear();
                    }
                    (submit_frame, report_frame)
                });
            let (decoded, decode_us) = tracer.span("transport", "decode", |_| {
                let request: Result<Request, _> =
                    read_frame(&mut &submit_frame[..], DEFAULT_MAX_FRAME);
                let response: Result<Response, _> =
                    read_frame(&mut &report_frame[..], DEFAULT_MAX_FRAME);
                request.is_ok() && response.is_ok()
            });
            let iteration_us = tracer.end(root);
            if !decoded {
                violations.push(format!("iteration {k}: a frame did not decode"));
            }

            // Every path must agree on the result, and pass the gate.
            for (name, reports) in [
                ("decomposed", Ok(local)),
                ("remote", remote),
                ("in-process", service.clone()),
            ] {
                match reports {
                    Ok(reports) => {
                        violations.extend(check(spec, &reports));
                        if let Ok(service) = &service {
                            if reports.len() != service.len()
                                || !reports
                                    .iter()
                                    .zip(service)
                                    .all(|(a, b)| gate::same_result(a, b))
                            {
                                violations.push(format!(
                                    "iteration {k}: {name} report differs from the service report"
                                ));
                            }
                        }
                    }
                    Err(error) => violations.push(format!("iteration {k}: {name}: {error}")),
                }
            }
            if !violations.is_empty() {
                outcome.failed += 1;
                outcome.violations.extend(violations);
            }

            totals.push("iteration_us", iteration_us);
            totals.push("circuit.prepare_us", sums.prepare_us);
            totals.push("circuit.prepared_ops", sums.prepared_ops);
            totals.push("core.plan_us", sums.plan_us);
            totals.push("core.key_us", sums.key_us);
            totals.push("core.cost_estimate_us", sums.estimate_us);
            totals.push("core.assemble_us", sums.assemble_us);
            totals.push("core.blocks_per_iter", sums.blocks);
            totals.push("pulse.grape_iters_per_iter", sums.grape_iterations as f64);
            totals.push("runtime.admit_us", admit_us);
            totals.push("runtime.queue_us", queue_us);
            totals.push("runtime.run_ms", run_us / 1e3);
            totals.push("transport.wire_us", wire_us - in_process_us);
            totals.push("transport.encode_us", encode_us);
            totals.push("transport.decode_us", decode_us);
            totals.push(
                "transport.frame_bytes",
                (submit_frame.len() + report_frame.len()) as f64,
            );

            // The same service path again, untraced, for the tracing overhead.
            let traced = if spec.route == Route::Remote {
                wire_us
            } else {
                in_process_us
            };
            let started = Instant::now();
            let _ = env.submit(spec, 0, jobs);
            untraced_service_us.push(started.elapsed().as_secs_f64() * 1e6);
            traced_service_us.push(traced);

            busy.read(&env.runtime);
            k += 1;
            let spans = tracer.next_iteration(k as u64);
            totals.fold_spans(spans, false);
        }
        let mut runs = Vec::new();
        for handle in handles {
            runs.push(
                handle
                    .join()
                    .map_err(|_| String::from("client thread panicked"))?,
            );
        }
        Ok(runs)
    })?;
    let loop_seconds = start.elapsed().as_secs_f64();
    busy.read(&env.runtime);
    let after = env.runtime.metrics();
    let snapshot = env.runtime.telemetry_snapshot();
    let workers = env.runtime.workers();
    vqc_pulse::profile::set_armed(false);
    for run in &others {
        outcome.attempted += run.attempted;
        outcome.failed += run.failed;
        outcome.violations.extend(run.violations.iter().cloned());
    }
    drop(env);

    let loop_iterations = totals.per_iteration.get("iteration_us").map_or(0, Vec::len);
    if loop_iterations == 0 {
        return Err(String::from("no traced iteration completed"));
    }
    let hits = after.cache.hits - before.cache.hits;
    let misses = after.cache.misses - before.cache.misses;
    let warm = snapshot.warm_start;
    let worked = totals.worked_seconds.max(f64::MIN_POSITIVE);
    let share = |phase: Phase| totals.phase_seconds[phase as usize] / worked;
    let self_share = |layer: &str| {
        totals
            .layer_self_share
            .get(layer)
            .and_then(|values| stats::median(values))
            .unwrap_or(0.0)
    };
    let overhead_us = stats::median(&traced_service_us).unwrap_or(0.0)
        - stats::median(&untraced_service_us).unwrap_or(0.0);

    let mut metrics = vec![
        metric(
            "circuit.prepare_us",
            totals.median("circuit.prepare_us"),
            "us",
        ),
        metric(
            "circuit.prepared_ops",
            totals.median("circuit.prepared_ops"),
            "count",
        ),
        metric("core.plan_us", totals.median("core.plan_us"), "us"),
        metric("core.key_us", totals.median("core.key_us"), "us"),
        metric(
            "core.cost_estimate_us",
            totals.median("core.cost_estimate_us"),
            "us",
        ),
        metric("core.block_hit_us", mean(totals.hit_us, totals.hits), "us"),
        metric("core.assemble_us", totals.median("core.assemble_us"), "us"),
        metric(
            "core.blocks_per_iter",
            totals.median("core.blocks_per_iter"),
            "count",
        ),
        metric(
            "core.block_miss_ms",
            mean(totals.miss_us, totals.misses) / 1e3,
            "ms",
        ),
        metric(
            "core.cost_model_rel_err",
            stats::median(&totals.cost_rel_err).unwrap_or(0.0),
            "ratio",
        ),
        metric(
            "pulse.grape_iters_per_iter",
            totals.median("pulse.grape_iters_per_iter"),
            "count",
        ),
        metric(
            "pulse.setup_grape_iters",
            totals.setup_grape_iterations as f64,
            "count",
        ),
        metric(
            "pulse.us_per_grape_iter",
            1e6 * totals.worked_seconds / totals.worked_iterations.max(1) as f64,
            "us",
        ),
        metric(
            "pulse.seeded_ratio",
            ratio(warm.table_hits, warm.table_hits + warm.table_misses),
            "ratio",
        ),
        metric(
            "pulse.memo_hit_ratio",
            ratio(warm.memo_hits, warm.memo_hits + warm.memo_misses),
            "ratio",
        ),
        metric(
            "pulse.converged_ratio",
            ratio(totals.converged_misses, totals.misses),
            "ratio",
        ),
    ];
    for phase in [
        Phase::GradientContraction,
        Phase::DurationProbe,
        Phase::HyperparamTuning,
        Phase::MemoProbe,
    ] {
        metrics.push(metric(
            format!("pulse.{}_share", phase.name()),
            share(phase),
            "ratio",
        ));
    }
    metrics.extend([
        metric(
            "linalg.eigh_share",
            share(Phase::Eigendecomposition),
            "ratio",
        ),
        metric(
            "linalg.propagation_share",
            share(Phase::Propagation),
            "ratio",
        ),
        metric(
            "linalg.jacobi_sweeps_per_grape_iter",
            totals.jacobi_sweeps as f64 / totals.worked_iterations.max(1) as f64,
            "count",
        ),
        metric(
            "sim.target_unitary_us",
            mean(totals.unitary_us, totals.unitaries),
            "us",
        ),
        metric("runtime.admit_us", totals.median("runtime.admit_us"), "us"),
        metric("runtime.queue_us", totals.median("runtime.queue_us"), "us"),
        metric("runtime.run_ms", totals.median("runtime.run_ms"), "ms"),
        metric(
            "runtime.cache_hit_ratio",
            ratio(hits, hits + misses),
            "ratio",
        ),
        metric(
            "runtime.coalesced_waits",
            (after.coalesced_waits - before.coalesced_waits) as f64,
            "count",
        ),
        metric(
            "runtime.worker_busy_frac",
            busy.busy_us / 1e6 / (workers as f64 * loop_seconds),
            "ratio",
        ),
        metric(
            "transport.wire_us",
            totals.median("transport.wire_us"),
            "us",
        ),
        metric(
            "transport.encode_us",
            totals.median("transport.encode_us"),
            "us",
        ),
        metric(
            "transport.decode_us",
            totals.median("transport.decode_us"),
            "us",
        ),
        metric(
            "transport.frame_bytes",
            totals.median("transport.frame_bytes"),
            "bytes",
        ),
    ]);
    for layer in LAYERS {
        metrics.push(metric(
            format!("self.{layer}_share"),
            self_share(layer),
            "ratio",
        ));
    }
    metrics.extend([
        metric("mem.peak_rss_mb", peak_rss_mb().ok_or("no VmHWM")?, "MiB"),
        metric("trace.iteration_us", totals.median("iteration_us"), "us"),
        metric("trace.overhead_us", overhead_us, "us"),
        metric(
            "trace.layer_sum_frac",
            totals.layer_sum_frac.iter().copied().fold(0.0, f64::max),
            "ratio",
        ),
    ]);
    outcome.metrics = metrics;

    outcome.notes.push(format!(
        "traced: set-up {:.3} s through the compiler seams, {} traced iterations of client {}",
        setup_us / 1e6,
        loop_iterations,
        spec.role
    ));
    outcome.notes.push(format!(
        "tracing overhead on the service path: {:.1} us (traced median {:.1} us, untraced median {:.1} us, interleaved on identical inputs)",
        overhead_us,
        stats::median(&traced_service_us).unwrap_or(0.0),
        stats::median(&untraced_service_us).unwrap_or(0.0)
    ));
    let table = self_time_table(&totals, loop_iterations);
    outcome.notes.extend(table.lines().map(String::from));
    outcome.files.push((String::from("layers.txt"), table));
    outcome.files.push((
        String::from("trace.json"),
        trace::chrome_trace(&totals.chrome),
    ));
    Ok(outcome)
}

/// The per-layer self-time table: median self time per traced iteration and
/// its share of the median iteration, plus the set-up's split.
fn self_time_table(totals: &LayerTotals, iterations: usize) -> String {
    let iteration = totals.median("iteration_us");
    let setup_total: f64 = totals.setup_layer_self_us.values().sum();
    let mut table = format!(
        "{:<10} {:>14} {:>8} {:>14} {:>8}\n",
        "layer", "iter self us", "share", "setup self ms", "share"
    );
    for layer in LAYERS {
        let own = totals
            .layer_self_us
            .get(layer)
            .and_then(|values| stats::median(values))
            .unwrap_or(0.0);
        let setup = totals
            .setup_layer_self_us
            .get(layer)
            .copied()
            .unwrap_or(0.0);
        table.push_str(&format!(
            "{:<10} {:>14.1} {:>7.1}% {:>14.2} {:>7.1}%\n",
            layer,
            own,
            100.0 * own / iteration.max(f64::MIN_POSITIVE),
            setup / 1e3,
            100.0 * setup / setup_total.max(f64::MIN_POSITIVE)
        ));
    }
    table.push_str(&format!(
        "median traced iteration {:.1} us over {} iterations; layer self times sum to at most {:.4} of their iteration\n",
        iteration,
        iterations,
        totals.layer_sum_frac.iter().copied().fold(0.0, f64::max)
    ));
    table
}
