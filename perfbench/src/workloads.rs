//! The three benchmark workloads: set-up, the measured phase, and the
//! checks on their simulated outputs.
//!
//! `prepare_online` and `prepare_dt` do the set-up (platform parse and
//! routing, input generation and, for dt-sweep, calibration and trace
//! capture). `Online::run` and `run_dt` are the measured phase: one
//! `World::try_run` or one `run_sweep`, timed from outside. Errors and
//! panics of the simulator are caught and counted as failed operations
//! instead of aborting the run.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use smpi::{op, MpiProfile, RunReport, TiV2Reader, WaitMode, World};
use smpi_calibrate::{default_sizes, fit_best_affine, fit_piecewise, pingpong, RouteRef};
use smpi_obs::SelfProfile;
use smpi_platform::{HostIx, RoutedPlatform};
use smpi_sweep::{run_sweep, FabricKind, NoiseAxis, Program, SweepConfig, SweepReport};
use smpi_workloads::{build_graph, dt_rank, DtClass, DtGraph};
use surf_sim::TransferModel;

use crate::inputs::{self, digest, digest_bytes};
use crate::spans::Spans;

/// Workload names, as accepted on the command line.
pub const WORKLOADS: [&str; 3] = ["coll-online", "a2av-online", "dt-sweep"];

/// coll-online: ranks (several per griffon node) and compute+allreduce rounds.
pub const COLL_RANKS: usize = 1024;
pub const COLL_ROUNDS: usize = 2;
/// a2av-online: ranks (one per gdx node) and all-to-all rounds.
pub const A2AV_RANKS: usize = 32;
pub const A2AV_ROUNDS: usize = 6;
/// dt-sweep: replications of each jitter cell.
pub const SWEEP_REPS: u32 = 30;

/// What one measured phase produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Host seconds of the measured phase.
    pub wall_s: f64,
    /// Application MPI operations completed in it.
    pub ops: u64,
    /// Simulator operations attempted (runs or sweep scenarios).
    pub attempted: u64,
    /// Of those, how many returned an error or panicked.
    pub failed: u64,
    /// Named output checks and whether each held.
    pub checks: Vec<(&'static str, bool)>,
    /// Bitwise digest of the simulated outputs (identical for every run of
    /// one seed; compared against the committed references).
    pub digest: String,
    /// Simulated makespan of the run (dt-sweep: of the capture run).
    pub sim_time: f64,
    /// The simulator's self-profile (online workloads).
    pub profile: Option<SelfProfile>,
}

/// Runs a simulation, turning a `SimError` or a panic into `None`.
pub fn guarded<R>(f: impl FnOnce() -> Result<R, String>) -> Option<R> {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(Ok(r)) => Some(r),
        Ok(Err(e)) => {
            eprintln!("perfbench: simulation error: {e}");
            None
        }
        Err(_) => {
            eprintln!("perfbench: simulation panicked");
            None
        }
    }
}

/// Digest of a run's makespan and every rank's finish time, bit for bit.
pub fn run_digest<R>(report: &RunReport<R>) -> String {
    let words = std::iter::once(report.sim_time.to_bits())
        .chain(report.finish_times.iter().map(|t| t.to_bits()));
    format!("{:016x}-{:016x}", report.sim_time.to_bits(), digest(words))
}

/// The transfer model of the online workloads: a fixed affine model, so
/// their set-up is platform parse and routing only.
fn online_world(rp: Arc<RoutedPlatform>) -> World {
    World::smpi(rp, TransferModel::default_affine())
}

// ----- coll-online and a2av-online ----------------------------------------

/// The generated inputs of one online workload.
pub enum Inputs {
    /// coll-online: flops per (round, rank).
    Coll(Arc<Vec<Vec<f64>>>),
    /// a2av-online: bytes per (round, src, dst).
    A2av(Arc<Vec<Vec<Vec<u64>>>>),
}

/// An online workload, set up: its world and its inputs.
pub struct Online {
    pub world: World,
    pub inputs: Inputs,
}

/// What an online rank body returns: operations made, results correct.
pub type OnlineReport = RunReport<(u64, bool)>;

/// Set-up of an online workload: platform parse and routing, then the
/// seeded inputs.
pub fn prepare_online(workload: &str, seed: u64) -> Online {
    if workload == "coll-online" {
        Online {
            world: online_world(inputs::load_platform("griffon")),
            inputs: Inputs::Coll(Arc::new(inputs::coll_flops(seed, COLL_ROUNDS, COLL_RANKS))),
        }
    } else {
        Online {
            world: online_world(inputs::load_platform("gdx")),
            inputs: Inputs::A2av(Arc::new(inputs::a2av_sizes(seed, A2AV_ROUNDS, A2AV_RANKS))),
        }
    }
}

impl Online {
    /// The measured phase on `world` (this workload's world, possibly with
    /// metrics or capture switched on): one `World::try_run`, timed from
    /// outside. Returns the outcome and, when the run completed, its report.
    pub fn run(&self, world: &World) -> (Outcome, Option<OnlineReport>) {
        let t0 = Instant::now();
        let report = match &self.inputs {
            Inputs::Coll(flops) => guarded(|| run_coll(world, Arc::clone(flops))),
            Inputs::A2av(sizes) => guarded(|| run_a2av(world, Arc::clone(sizes))),
        };
        online_outcome(t0.elapsed().as_secs_f64(), report)
    }
}

/// coll-online: every round is a modelled compute burst followed by a
/// 3-double allreduce whose sums are exact integers, so each rank can check
/// its result bit for bit.
fn run_coll(w: &World, flops: Arc<Vec<Vec<f64>>>) -> Result<OnlineReport, String> {
    let n = COLL_RANKS;
    w.try_run(n, move |ctx| {
        let me = ctx.rank();
        let comm = ctx.world();
        let sum = op::sum::<f64>();
        let rank_sum = (n * (n - 1) / 2) as f64;
        let (mut ops, mut ok) = (0u64, true);
        for (round, per_rank) in flops.iter().enumerate() {
            ctx.compute(per_rank[me]);
            let got = ctx.allreduce(&[me as f64, round as f64, 1.0], &sum, &comm);
            ops += 2;
            ok &= got == [rank_sum, (round * n) as f64, n as f64];
        }
        (ops, ok)
    })
    .map_err(|e| e.to_string())
}

/// a2av-online: each round every rank posts all the receives and sends of
/// an irregular, data-less all-to-all at once, then waits for all of them,
/// and checks that every receive completed from the right source with the
/// generated size.
fn run_a2av(w: &World, sizes: Arc<Vec<Vec<Vec<u64>>>>) -> Result<OnlineReport, String> {
    let n = A2AV_RANKS;
    w.try_run(n, move |ctx| {
        let me = ctx.rank();
        let cid = ctx.world().cid();
        let peers: Vec<usize> = (0..n).filter(|&p| p != me).collect();
        let (mut ops, mut ok) = (0u64, true);
        for (round, sz) in sizes.iter().enumerate() {
            let tag = round as i32;
            let mut reqs = Vec::with_capacity(2 * peers.len());
            for &src in &peers {
                reqs.push(ctx.replay_recv(src as i32, cid, tag, sz[src][me]));
            }
            for &dst in &peers {
                reqs.push(ctx.replay_send(dst as u32, cid, tag, sz[me][dst]));
            }
            ops += reqs.len() as u64 + 1;
            let done = ctx.replay_wait(reqs, WaitMode::All);
            ok &= done.len() == 2 * peers.len();
            for c in done.iter().filter(|c| c.index < peers.len()) {
                let src = peers[c.index];
                ok &= c.source as usize == src && c.bytes == sz[src][me];
            }
        }
        (ops, ok)
    })
    .map_err(|e| e.to_string())
}

fn online_outcome(wall_s: f64, report: Option<OnlineReport>) -> (Outcome, Option<OnlineReport>) {
    let Some(report) = report else {
        let out = Outcome {
            wall_s,
            attempted: 1,
            failed: 1,
            checks: vec![("run_completed", false)],
            ..Outcome::default()
        };
        return (out, None);
    };
    let ops = report.results.iter().map(|r| r.0).sum();
    let results_ok = report.results.iter().all(|r| r.1);
    let last = report.finish_times.iter().copied().fold(0.0, f64::max);
    let out = Outcome {
        wall_s,
        ops,
        attempted: 1,
        failed: 0,
        checks: vec![
            ("rank_results", results_ok),
            (
                "makespan_is_last_finish",
                last.to_bits() == report.sim_time.to_bits(),
            ),
        ],
        digest: run_digest(&report),
        sim_time: report.sim_time,
        profile: Some(report.profile.clone()),
    };
    (out, Some(report))
}

// ----- dt-sweep ----------------------------------------------------------

/// Everything dt-sweep sets up before its measured sweep.
pub struct Dt {
    pub griffon: Arc<RoutedPlatform>,
    pub gdx: Arc<RoutedPlatform>,
    pub piecewise: TransferModel,
    pub affine: TransferModel,
    pub reader: Arc<TiV2Reader>,
    pub capture_path: PathBuf,
    /// Makespan and finish-time digest of the on-line capture run.
    pub capture_sim_time: f64,
    pub capture_digest: String,
    pub sweep_seed: u64,
}

/// The DT instance captured: class A, white-hole graph (21 ranks).
pub const DT_CLASS: DtClass = DtClass::A;
pub const DT_GRAPH: DtGraph = DtGraph::Wh;

/// The paper's calibration, step one: a ping-pong on the packet-level
/// griffon between two same-cabinet nodes.
pub fn calibrate_pingpong(griffon: &Arc<RoutedPlatform>) -> Vec<smpi_calibrate::Sample> {
    let testbed = World::testbed(Arc::clone(griffon), MpiProfile::openmpi_like());
    pingpong(&testbed, 0, 1, &default_sizes(), 1)
}

/// Step two: the 3-segment piece-wise model and the best affine model,
/// fitted to the ping-pong samples.
pub fn calibrate_fit(
    griffon: &RoutedPlatform,
    samples: &[smpi_calibrate::Sample],
) -> (TransferModel, TransferModel) {
    let route = RouteRef {
        latency: griffon.latency(HostIx(0), HostIx(1)),
        bandwidth: griffon.bandwidth(HostIx(0), HostIx(1)),
    };
    (
        fit_piecewise(samples, 3, route),
        fit_best_affine(samples, route),
    )
}

/// Captures one on-line DT run (RAM folding on, the default) straight to a
/// `TITRACE2` file. Returns the run report.
pub fn capture_dt(
    griffon: &Arc<RoutedPlatform>,
    model: &TransferModel,
    path: &Path,
) -> Result<RunReport<f64>, String> {
    let graph = Arc::new(build_graph(DT_CLASS, DT_GRAPH));
    let world = World::smpi(Arc::clone(griffon), model.clone()).capture_to(path);
    let g = Arc::clone(&graph);
    world
        .try_run(graph.num_nodes(), move |ctx| dt_rank(ctx, &g, DT_CLASS))
        .map_err(|e| e.to_string())
}

/// Set-up of dt-sweep: both platforms, the calibration and the capture,
/// each step inside a span of `sp` (the traced run reads their durations).
pub fn prepare_dt(sp: &mut Spans, scratch: &Path, seed: u64) -> Result<Dt, String> {
    let (griffon, gdx) = sp
        .time("platform.build", |_| {
            (
                inputs::load_platform("griffon"),
                inputs::load_platform("gdx"),
            )
        })
        .0;
    let samples = sp
        .time("calibrate.pingpong", |_| calibrate_pingpong(&griffon))
        .0;
    let (piecewise, affine) = sp
        .time("calibrate.fit", |_| calibrate_fit(&griffon, &samples))
        .0;
    let capture_path = scratch.join(format!("dt-{}.tit2", std::process::id()));
    let online = sp
        .time("capture", |_| {
            guarded(|| capture_dt(&griffon, &piecewise, &capture_path))
        })
        .0
        .ok_or("the DT capture run failed")?;
    let reader = TiV2Reader::open(&capture_path).map_err(|e| e.to_string())?;
    Ok(Dt {
        capture_sim_time: online.sim_time,
        capture_digest: run_digest(&online),
        griffon,
        gdx,
        piecewise,
        affine,
        reader: Arc::new(reader),
        capture_path,
        sweep_seed: inputs::sweep_seed(seed),
    })
}

/// The scenario matrix: {griffon, gdx} × surf × {piecewise-3, affine-best}
/// × {none, 5% jitter, 20% jitter}, the jitter cells replicated, on one
/// worker. Packet-fabric scenarios are left out on purpose (see README).
pub fn sweep_config(dt: &Dt, program: Program, strip_hostdep: bool) -> SweepConfig {
    SweepConfig {
        programs: vec![program],
        platforms: vec![
            ("griffon".into(), Arc::clone(&dt.griffon)),
            ("gdx".into(), Arc::clone(&dt.gdx)),
        ],
        fabrics: vec![("surf".into(), FabricKind::surf())],
        calibrations: vec![
            ("piecewise-3".into(), dt.piecewise.clone()),
            ("affine-best".into(), dt.affine.clone()),
        ],
        noises: vec![
            NoiseAxis::none(),
            NoiseAxis::jitter("j5", 0.05, SWEEP_REPS),
            NoiseAxis::jitter("j20", 0.20, SWEEP_REPS),
        ],
        workers: 1,
        seed: dt.sweep_seed,
        strip_hostdep,
    }
}

/// Runs a sweep config, catching a failed or panicking pool.
pub fn guarded_sweep(cfg: &SweepConfig) -> Option<(SweepReport, String)> {
    guarded(|| {
        let (report, bytes) = run_sweep(cfg, Vec::new()).map_err(|e| e.to_string())?;
        let table = String::from_utf8(bytes).map_err(|e| e.to_string())?;
        Ok((report, table))
    })
}

/// The measured phase of dt-sweep: one 1-worker sweep streamed from the
/// shared `TiV2Reader`. With `reference`, the same matrix is also fed from
/// the materialized trace afterwards (untimed) and the two tables must
/// agree byte for byte.
pub fn run_dt(dt: &Dt, reference: bool) -> Outcome {
    let cfg = sweep_config(dt, Program::stream("dt", Arc::clone(&dt.reader)), true);
    let scenarios = cfg.scenario_count() as u64;
    let t0 = Instant::now();
    let result = guarded_sweep(&cfg);
    let wall_s = t0.elapsed().as_secs_f64();
    let Some((report, table)) = result else {
        return Outcome {
            wall_s,
            attempted: scenarios,
            failed: scenarios,
            checks: vec![("sweep_completed", false)],
            ..Outcome::default()
        };
    };
    let mut checks = vec![("scenario_count", report.scenarios as u64 == scenarios)];
    // Replaying the capture on its own platform and model with no noise
    // must land exactly on the on-line makespan.
    let home = report.cells.iter().find(|c| {
        c.key.platform == "griffon" && c.key.calibration == "piecewise-3" && c.key.noise == "none"
    });
    checks.push((
        "replay_matches_capture",
        home.is_some_and(|c| {
            c.makespan.min.to_bits() == dt.capture_sim_time.to_bits()
                && c.makespan.max.to_bits() == dt.capture_sim_time.to_bits()
        }),
    ));
    if reference {
        let ok = match dt.reader.materialize() {
            Ok(trace) => {
                let ref_cfg = sweep_config(dt, Program::trace("dt", Arc::new(trace)), true);
                guarded_sweep(&ref_cfg).is_some_and(|(_, ref_table)| ref_table == table)
            }
            Err(e) => {
                eprintln!("perfbench: cannot materialize the capture: {e}");
                false
            }
        };
        checks.push(("stream_table_equals_trace_table", ok));
    }
    Outcome {
        wall_s,
        ops: dt.reader.total_ops() * scenarios,
        attempted: scenarios,
        failed: 0,
        checks,
        digest: format!(
            "{}-{:016x}",
            dt.capture_digest,
            digest_bytes(table.as_bytes())
        ),
        sim_time: dt.capture_sim_time,
        profile: None,
    }
}
