//! The traced run: per-layer metrics measured from outside the program.
//!
//! Every number here comes from timing a call into one crate's public
//! functions, with spans recorded around each call (`spans.rs`), or from a
//! counter the simulator already reports (`RunReport.profile`). Nothing is
//! traced inside the program. Microbenchmarks are driven with the
//! workload's own shapes: its actor count, its envelope stream, its flow
//! set and its trace, all derived from a capture of the workload itself.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use simix::{ActorEvent, Simix};
use smpi::matching::{MsgFifos, RecvFifos};
use smpi::{TiOp, TiTrace, TiV2Reader, World};
use smpi_obs::SelfProfile;
use smpi_platform::{HostIx, Materialized, RoutedPlatform};
use smpi_sweep::{FabricKind, NoiseAxis, Program, SweepConfig};
use surf_sim::{MaxMinProblem, Simulation, TransferModel};

use crate::inputs::{self, digest_bytes};
use crate::json::Obj;
use crate::spans::Spans;
use crate::workloads::{self, Outcome, A2AV_RANKS, COLL_RANKS};

/// Per-layer metrics in insertion order, plus the run's bookkeeping.
#[derive(Default)]
struct Ledger {
    metrics: Vec<(String, f64)>,
    checks: Vec<(String, bool)>,
    digest: String,
    attempted: u64,
    failed: u64,
}

impl Ledger {
    fn put(&mut self, name: &str, v: f64) {
        self.metrics.push((name.to_string(), v));
    }

    fn check(&mut self, name: &str, ok: bool) {
        self.checks.push((name.to_string(), ok));
    }

    fn outcome(&mut self, out: &Outcome) {
        self.digest = out.digest.clone();
        self.attempted += out.attempted;
        self.failed += out.failed;
        for (name, ok) in &out.checks {
            self.check(name, *ok);
        }
    }
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return f64::NAN;
    }
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// Nearest-rank percentile of a sample.
fn percentile(mut v: Vec<f64>, p: f64) -> f64 {
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil().max(1.0) as usize;
    v[rank.min(v.len()) - 1]
}

/// Runs `f` `reps` times inside one span each and returns the median of
/// the values `f` reports.
fn repeat(sp: &mut Spans, name: &str, reps: usize, mut f: impl FnMut(&mut Spans) -> f64) -> f64 {
    median((0..reps).map(|_| sp.time(name, &mut f).0).collect())
}

// ----- simix -------------------------------------------------------------

/// The bare baton handoff: `n` actors each make `pings` simcalls that the
/// loop answers at once. Microseconds per handoff.
fn simix_handoff_us(n: usize, pings: u32) -> f64 {
    let mut sx = Simix::<u32, u32>::new();
    for _ in 0..n {
        sx.spawn(move |h| {
            let mut x = 0;
            for _ in 0..pings {
                x = h.simcall(x);
            }
        });
    }
    let mut events = Vec::new();
    let mut handoffs = 0u64;
    let t0 = Instant::now();
    loop {
        sx.run_ready_into(&mut events);
        if events.is_empty() {
            break;
        }
        for ev in events.drain(..) {
            if let ActorEvent::Request(id, x) = ev {
                sx.resolve(id, x + 1);
                handoffs += 1;
            }
        }
    }
    t0.elapsed().as_secs_f64() * 1e6 / handoffs.max(1) as f64
}

/// Spawning `n` actors and running each to completion (join included).
/// Microseconds per actor.
fn simix_spawn_us(n: usize) -> f64 {
    let t0 = Instant::now();
    let mut sx = Simix::<u32, u32>::new();
    for _ in 0..n {
        sx.spawn(|_| {});
    }
    while !sx.run_ready().is_empty() {}
    t0.elapsed().as_secs_f64() * 1e6 / n as f64
}

// ----- the workload's envelope stream and flow set --------------------------

/// A message of the captured workload: envelope, size, and the wave it
/// belongs to (how many waits its sender had passed when posting it).
struct Msg {
    cid: u32,
    src: u32,
    dst: u32,
    tag: i32,
    bytes: u64,
    wave: usize,
}

/// A posted receive of the captured workload.
struct Post {
    cid: u32,
    dst: u32,
    src: i32,
    tag: i32,
}

/// Walks a trace into its sends and receive posts, ordered by wave, then
/// rank, then position, an approximation of the order they were posted.
fn envelopes(trace: &TiTrace) -> (Vec<Msg>, Vec<Post>) {
    let mut msgs = Vec::new();
    let mut posts = Vec::new();
    let mut recv_wave = Vec::new();
    for (rank, ops) in trace.ranks.iter().enumerate() {
        let mut wave = 0;
        for op in ops {
            match op {
                TiOp::Send {
                    dst,
                    cid,
                    tag,
                    bytes,
                } => msgs.push(Msg {
                    cid: *cid,
                    src: rank as u32,
                    dst: *dst,
                    tag: *tag,
                    bytes: *bytes,
                    wave,
                }),
                TiOp::Recv { src, cid, tag, .. } => {
                    posts.push(Post {
                        cid: *cid,
                        dst: rank as u32,
                        src: *src,
                        tag: *tag,
                    });
                    recv_wave.push(wave);
                }
                TiOp::Wait { .. } => wave += 1,
                _ => {}
            }
        }
    }
    msgs.sort_by_key(|m| m.wave);
    let mut order: Vec<usize> = (0..posts.len()).collect();
    order.sort_by_key(|&i| recv_wave[i]);
    let mut slots: Vec<Option<Post>> = posts.into_iter().map(Some).collect();
    let posts = order.into_iter().filter_map(|i| slots[i].take()).collect();
    (msgs, posts)
}

/// Drives `matching::{MsgFifos, RecvFifos}` with the envelope stream: once
/// with every message arriving unexpected before its receive is posted,
/// once with every receive posted first. Nanoseconds per match (one push
/// plus one pop), and whether every envelope found its partner.
fn match_ns(msgs: &[Msg], posts: &[Post]) -> (f64, bool) {
    let t0 = Instant::now();
    let mut matched = 0usize;
    let mut unexpected = MsgFifos::<u64>::new();
    for (i, m) in msgs.iter().enumerate() {
        unexpected.push(m.cid, m.dst, m.src, m.tag, i as u64, i as u64);
    }
    for p in posts {
        matched += usize::from(unexpected.pop_match(p.cid, p.dst, p.src, p.tag).is_some());
    }
    let mut posted = RecvFifos::<u64>::new();
    for (i, p) in posts.iter().enumerate() {
        posted.push(p.cid, p.dst, p.src, p.tag, i as u64, i as u64);
    }
    for m in msgs {
        matched += usize::from(posted.pop_match(m.cid, m.dst, m.src, m.tag).is_some());
    }
    let ns = t0.elapsed().as_secs_f64() * 1e9 / (2 * msgs.len()).max(1) as f64;
    (ns, matched == 2 * msgs.len() && msgs.len() == posts.len())
}

/// The flow set, wave by wave, as (source host, destination host, bytes)
/// under round-robin placement; self-messages never reach the fabric.
fn flow_waves(msgs: &[Msg], hosts: usize) -> Vec<Vec<(HostIx, HostIx, u64)>> {
    let mut waves: Vec<Vec<(HostIx, HostIx, u64)>> = Vec::new();
    for m in msgs.iter().filter(|m| m.src != m.dst) {
        if waves.len() <= m.wave {
            waves.resize_with(m.wave + 1, Vec::new);
        }
        let host = |r: u32| HostIx(r % hosts as u32);
        waves[m.wave].push((host(m.src), host(m.dst), m.bytes));
    }
    waves.retain(|w| !w.is_empty());
    waves
}

/// Drives the flow set directly on a `surf_sim::Simulation`: each wave
/// starts all its transfers and advances until they are all done.
/// Microseconds per `advance_to_next` call.
fn surf_advance_us(
    rp: &RoutedPlatform,
    model: &TransferModel,
    waves: &[Vec<(HostIx, HostIx, u64)>],
) -> f64 {
    let mut sim = Simulation::new();
    let mat = Materialized::build(rp, &mut sim);
    let mut advances = 0u64;
    let t0 = Instant::now();
    for wave in waves {
        let mut pending = 0usize;
        for &(s, d, bytes) in wave {
            if s != d {
                sim.start_transfer(&mat.route(rp, s, d), bytes as f64, model);
                pending += 1;
            }
        }
        while pending > 0 {
            let (_, done) = sim.advance_to_next().expect("pending transfers finish");
            pending -= done.len();
            advances += 1;
        }
    }
    t0.elapsed().as_secs_f64() * 1e6 / advances.max(1) as f64
}

/// The max-min problem of the widest wave: one constraint per link the
/// wave crosses, one variable per transfer bounded as the kernel bounds it.
fn widest_problem(
    rp: &RoutedPlatform,
    model: &TransferModel,
    waves: &[Vec<(HostIx, HostIx, u64)>],
) -> MaxMinProblem {
    let mut sim = Simulation::new();
    let mat = Materialized::build(rp, &mut sim);
    let widest = waves
        .iter()
        .max_by_key(|w| w.len())
        .cloned()
        .unwrap_or_default();
    let mut lmm = MaxMinProblem::new();
    let mut cnst = BTreeMap::new();
    for (s, d, bytes) in widest.into_iter().filter(|(s, d, _)| s != d) {
        let route = mat.route(rp, s, d);
        let ids: Vec<_> = route
            .iter()
            .map(|&l| {
                *cnst
                    .entry(l.index())
                    .or_insert_with(|| lmm.add_constraint(sim.link_bandwidth(l)))
            })
            .collect();
        let bound = model.segment_for(bytes as f64).bw_factor * sim.route_bandwidth(&route);
        lmm.add_variable(bound, &ids);
    }
    lmm
}

// ----- shared per-workload layers ------------------------------------------

/// Counters the simulator reports in its self-profile.
fn profile_counts(l: &mut Ledger, p: &SelfProfile) {
    l.put("smpi.simcalls", p.simcalls as f64);
    l.put("smpi.local_simcalls", p.local_simcalls as f64);
    l.put("smpi.tokens", p.tokens as f64);
    let k = p.kernel.clone().unwrap_or_default();
    l.put("surf.reshares", k.reshares as f64);
    l.put("surf.heap_rebuilds", k.heap_rebuilds as f64);
    l.put("surf.classes_folded", k.classes_folded as f64);
    l.put("surf.batched_completions", k.batched_completions as f64);
    l.put("surf.parallel_components", k.parallel_components as f64);
    l.put("surf.component_vars_mean", k.component_vars.mean());
}

/// Layers driven from a capture of the workload: simix at its actor count,
/// matching with its envelopes, surf with its flows, the codec and one
/// replay of its trace. Returns the trace's reader.
#[allow(clippy::too_many_arguments)]
fn trace_layers(
    sp: &mut Spans,
    l: &mut Ledger,
    scratch: &Path,
    trace: &TiTrace,
    rp: &Arc<RoutedPlatform>,
    model: &TransferModel,
    actors: usize,
    online_sim_time: f64,
) -> Arc<TiV2Reader> {
    let pings = (10_000 / actors).max(10) as u32;
    let v = repeat(sp, "simix.handoff", 3, |_| simix_handoff_us(actors, pings));
    l.put("simix.handoff_us", v);
    let v = repeat(sp, "simix.spawn", 3, |_| simix_spawn_us(actors));
    l.put("simix.spawn_us", v);

    let (msgs, posts) = envelopes(trace);
    let mut complete = true;
    let reps = (200_000 / msgs.len().max(1)).clamp(3, 2000);
    let v = repeat(sp, "smpi.match", reps, |_| {
        let (ns, ok) = match_ns(&msgs, &posts);
        complete &= ok;
        ns
    });
    l.put("smpi.match_ns", v);
    l.check("match_complete", complete);

    let waves = flow_waves(&msgs, rp.platform().num_hosts());
    let v = repeat(sp, "surf.advance", 3, |_| {
        surf_advance_us(rp, model, &waves)
    });
    l.put("surf.advance_us", v);
    let lmm = widest_problem(rp, model, &waves);
    let solves = (20_000 / lmm.num_variables().max(1)).clamp(5, 2000);
    let v = repeat(sp, "surf.solve", 5, |_| {
        let t0 = Instant::now();
        for _ in 0..solves {
            std::hint::black_box(std::hint::black_box(&lmm).solve());
        }
        t0.elapsed().as_secs_f64() * 1e6 / solves as f64
    });
    l.put("surf.solve_us", v);

    let path = scratch.join(format!("layers-{}.tit2", std::process::id()));
    let v1_bytes = trace.encode().len() as f64;
    let v = repeat(sp, "codec.encode", 3, |_| {
        let t0 = Instant::now();
        smpi_replay::save_trace_v2(&path, trace).expect("write the trace");
        v1_bytes / 1e6 / t0.elapsed().as_secs_f64()
    });
    l.put("codec.encode_mb_s", v);
    l.put(
        "codec.bytes",
        std::fs::metadata(&path).map_or(0.0, |m| m.len() as f64),
    );
    let mut total_ops = 0u64;
    let v = repeat(sp, "codec.decode", 3, |_| {
        let t0 = Instant::now();
        let reader = Arc::new(TiV2Reader::open(&path).expect("open the trace"));
        let ops: u64 = (0..reader.num_ranks())
            .map(|r| reader.rank_iter(r).count() as u64)
            .sum();
        total_ops = ops;
        ops as f64 / 1e6 / t0.elapsed().as_secs_f64()
    });
    l.put("codec.decode_mops_s", v);
    let reader = Arc::new(TiV2Reader::open(&path).expect("open the trace"));
    l.check("decode_complete", total_ops == reader.total_ops());
    std::fs::remove_file(&path).ok();

    let world = World::smpi(Arc::clone(rp), model.clone());
    let (report, secs) = sp.time("replay.scenario", |_| {
        smpi_replay::replay_stream(&world, Arc::clone(&reader))
    });
    l.put("replay.scenario_ms", secs * 1e3);
    l.put("replay.ops", reader.total_ops() as f64);
    l.attempted += 1;

    l.check(
        "replay_matches_online",
        report.sim_time.to_bits() == online_sim_time.to_bits(),
    );
    reader
}

/// Runs a sweep with per-scenario wall times kept (`strip_hostdep` off)
/// inside a span named `name` and records its scenario-time percentiles
/// and pool overhead. Returns the result table with the host-dependent
/// fields zeroed again, and the sweep's wall seconds.
fn sweep_layers(
    sp: &mut Spans,
    l: &mut Ledger,
    name: &str,
    cfg: &SweepConfig,
) -> (Option<String>, f64) {
    assert!(!cfg.strip_hostdep, "the per-scenario wall times are needed");
    let scenarios = cfg.scenario_count() as u64;
    l.attempted += scenarios;
    let (res, secs) = sp.time(name, |_| workloads::guarded_sweep(cfg));
    let Some((rep, table)) = res else {
        l.failed += scenarios;
        return (None, secs);
    };
    let walls: Vec<f64> = table.lines().filter_map(line_wall_s).collect();
    l.check("sweep_lines", walls.len() as u64 == scenarios);
    let busy: f64 = walls.iter().sum();
    l.put(
        "sweep.scenario_ms_p50",
        percentile(walls.clone(), 50.0) * 1e3,
    );
    l.put("sweep.scenario_ms_p90", percentile(walls, 90.0) * 1e3);
    l.put(
        "sweep.pool_overhead_pct",
        (rep.wall_s - busy) / rep.wall_s * 100.0,
    );
    let stripped = table.lines().map(|s| stripped_line(s) + "\n").collect();
    (Some(stripped), secs)
}

/// The `wall_s` field of a sweep result line written with
/// `strip_hostdep = false`.
fn line_wall_s(line: &str) -> Option<f64> {
    let rest = &line[line.find("\"wall_s\":")? + 9..];
    rest[..rest.find(',')?].parse().ok()
}

/// A result line with its host-dependent fields zeroed, exactly as the
/// sweep writes it under `strip_hostdep = true`.
fn stripped_line(line: &str) -> String {
    match line.find("\"wall_s\":") {
        Some(at) => format!("{}\"wall_s\":0,\"peak_bytes\":0}}", &line[..at]),
        None => line.to_string(),
    }
}

fn calibrate_layers(
    sp: &mut Spans,
    l: &mut Ledger,
    griffon: &Arc<RoutedPlatform>,
) -> (TransferModel, TransferModel) {
    let (samples, secs) = sp.time("calibrate.pingpong", |_| {
        workloads::calibrate_pingpong(griffon)
    });
    l.put("calibrate.pingpong_ms", secs * 1e3);
    let (models, secs) = sp.time("calibrate.fit", |_| {
        workloads::calibrate_fit(griffon, &samples)
    });
    l.put("calibrate.fit_ms", secs * 1e3);
    models
}

fn platform_layer(sp: &mut Spans, l: &mut Ledger, names: &[&str]) {
    let v = repeat(sp, "platform.build", 5, |_| {
        let t0 = Instant::now();
        for name in names {
            std::hint::black_box(inputs::load_platform(name));
        }
        t0.elapsed().as_secs_f64() * 1e3
    });
    l.put("platform.build_ms", v);
}

/// Self-profile phases of a metrics-on run, `other` being the rest of its
/// wall time.
fn phase_metrics(l: &mut Ledger, p: &SelfProfile) {
    let mut sum = 0.0;
    for (name, secs) in &p.phases {
        l.put(&format!("smpi.phase.{name}_s"), *secs);
        sum += secs;
    }
    l.put("smpi.phase.other_s", p.wall_seconds - sum);
}

// ----- the workloads -------------------------------------------------------

fn online(sp: &mut Spans, l: &mut Ledger, scratch: &Path, workload: &str, seed: u64) {
    let (platform, actors) = if workload == "coll-online" {
        ("griffon", COLL_RANKS)
    } else {
        ("gdx", A2AV_RANKS)
    };
    // Set-up, then the measured phase exactly as the untraced run does it.
    let w = sp
        .time("setup", |_| workloads::prepare_online(workload, seed))
        .0;
    let (out, _) = sp.time("workload.run", |_| w.run(&w.world).0);
    l.put("workload.wall_s", out.wall_s);
    l.outcome(&out);
    if let Some(p) = &out.profile {
        profile_counts(l, p);
    }
    // Once more with in-memory capture, for the workload's own shapes.
    let captured = sp.time("workload.capture", |_| {
        w.run(&w.world.clone().capture(true))
    });
    let (cap_out, report) = captured.0;
    l.attempted += 1;
    let Some(trace) = report.and_then(|r| r.ti_trace) else {
        l.failed += 1;
        return;
    };
    l.check("capture_is_inert", cap_out.digest == out.digest);

    platform_layer(sp, l, &[platform]);
    let griffon = inputs::load_platform("griffon");
    calibrate_layers(sp, l, &griffon);

    let rp = inputs::load_platform(platform);
    let model = TransferModel::default_affine();
    let reader = trace_layers(sp, l, scratch, &trace, &rp, &model, actors, out.sim_time);
    // A small sweep over the workload's own trace.
    let cfg = SweepConfig {
        programs: vec![Program::stream("trace", reader)],
        platforms: vec![(platform.into(), Arc::clone(&rp))],
        fabrics: vec![("surf".into(), FabricKind::surf())],
        calibrations: vec![("affine".into(), model.clone())],
        noises: vec![NoiseAxis::none(), NoiseAxis::jitter("j5", 0.05, 2)],
        workers: 1,
        seed: inputs::sweep_seed(seed),
        strip_hostdep: false,
    };
    sweep_layers(sp, l, "sweep", &cfg);
}

fn dt(sp: &mut Spans, l: &mut Ledger, scratch: &Path, seed: u64) {
    let setup = sp
        .time("setup", |sp| workloads::prepare_dt(sp, scratch, seed))
        .0;
    l.attempted += 1;
    let dt = match setup {
        Ok(dt) => dt,
        Err(e) => {
            eprintln!("perfbench: dt-sweep set-up failed: {e}");
            l.failed += 1;
            return;
        }
    };
    for (span, metric) in [
        ("calibrate.pingpong", "calibrate.pingpong_ms"),
        ("calibrate.fit", "calibrate.fit_ms"),
    ] {
        l.put(metric, sp.last_secs(span).unwrap_or(f64::NAN) * 1e3);
    }

    // The measured phase, with per-scenario wall times kept.
    let reader = Arc::clone(&dt.reader);
    let cfg = workloads::sweep_config(&dt, Program::stream("dt", Arc::clone(&reader)), false);
    let (stripped, secs) = sweep_layers(sp, l, "workload.run", &cfg);
    l.put("workload.wall_s", secs);
    if let Some(stripped) = stripped {
        l.digest = format!(
            "{}-{:016x}",
            dt.capture_digest,
            digest_bytes(stripped.as_bytes())
        );
    }

    platform_layer(sp, l, &["griffon", "gdx"]);
    let trace = reader.materialize().expect("materialize the capture");

    // One scenario on the capture's own platform and model: its counters,
    // and its cost with the metrics recorder on and off.
    let world = World::smpi(Arc::clone(&dt.griffon), dt.piecewise.clone());
    let (mut off, mut on) = (Vec::new(), Vec::new());
    let mut profiles = (None, None);
    for _ in 0..5 {
        let (r, secs) = sp.time("replay.metrics_off", |_| {
            smpi_replay::replay_stream(&world, Arc::clone(&reader))
        });
        off.push(secs);
        profiles.0 = Some(r.profile);
        let (r, secs) = sp.time("replay.metrics_on", |_| {
            smpi_replay::replay_stream(&world.clone().metrics(true), Arc::clone(&reader))
        });
        on.push(secs);
        profiles.1 = Some(r.profile);
    }
    let (p_off, p_on) = (profiles.0.expect("ran"), profiles.1.expect("ran"));
    profile_counts(l, &p_off);
    phase_metrics(l, &p_on);
    l.put("obs.overhead_pct", (median(on) / median(off) - 1.0) * 100.0);
    l.put(
        "obs.extra_simcalls",
        p_on.simcalls as f64 - p_off.simcalls as f64,
    );

    let ranks = trace.num_ranks();
    let (rp, model) = (&dt.griffon, &dt.piecewise);
    trace_layers(
        sp,
        l,
        scratch,
        &trace,
        rp,
        model,
        ranks,
        dt.capture_sim_time,
    );
    std::fs::remove_file(&dt.capture_path).ok();
}

/// Runs the traced layer pass of one workload and returns its JSON line.
pub fn run(workload: &str, seed: u64, spans_path: Option<&Path>) -> Obj {
    let scratch = crate::scratch_dir();
    let mut sp = Spans::new();
    let mut l = Ledger::default();
    sp.time(workload, |sp| match workload {
        "dt-sweep" => dt(sp, &mut l, &scratch, seed),
        _ => online(sp, &mut l, &scratch, workload, seed),
    });
    if let Some(path) = spans_path {
        if let Err(e) = sp.write_json(path) {
            eprintln!("perfbench: cannot write spans to {}: {e}", path.display());
        }
    }
    let mut o = Obj::new();
    o.uint("attempted", l.attempted)
        .uint("failed", l.failed)
        .str("digest", &l.digest);
    let mut checks = Obj::new();
    for (name, ok) in &l.checks {
        checks.bool(name, *ok);
    }
    o.obj("checks", checks);
    let mut metrics = Obj::new();
    for (name, v) in &l.metrics {
        metrics.num(name, *v);
    }
    o.obj("metrics", metrics);
    o
}
