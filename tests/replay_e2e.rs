//! Capture → replay end-to-end: cross-validation against the on-line
//! simulation, model-swap replay, determinism, and the golden trace file.

use std::sync::Arc;

use smpi_suite::platform::{gdx, griffon, RoutedPlatform};
use smpi_suite::replay;
use smpi_suite::smpi::{TiTrace, World};
use smpi_suite::surf::TransferModel;
use smpi_suite::workloads::{build_graph, dt_rank, ep_rank, DtClass, DtGraph, EpConfig};

fn griffon_world() -> World {
    let rp = Arc::new(RoutedPlatform::new(griffon()));
    World::smpi(rp, TransferModel::default_affine())
}

fn gdx_world() -> World {
    let rp = Arc::new(RoutedPlatform::new(gdx()));
    World::smpi(rp, TransferModel::default_affine())
}

fn dt_online(world: &World, class: DtClass, shape: DtGraph) -> smpi_suite::smpi::RunReport<f64> {
    let graph = Arc::new(build_graph(class, shape));
    let g = Arc::clone(&graph);
    world.run(graph.num_nodes(), move |ctx| dt_rank(ctx, &g, class))
}

/// NAS DT on griffon: the replayed makespan must match the on-line
/// simulated makespan within 0.1% on the same platform/model (it is in
/// fact bit-identical: same simcall stream, same kernel).
#[test]
fn dt_cross_validation_on_griffon() {
    let world = griffon_world().capture(true);
    let online = dt_online(&world, DtClass::W, DtGraph::Bh);
    let cv = replay::cross_validate(&world, &online);
    assert!(
        cv.within(0.001),
        "DT replay drifted: online {} vs replayed {} (rel {:.2e})",
        cv.online,
        cv.replayed,
        cv.rel_err
    );
    assert_eq!(cv.online, cv.replayed, "same-world replay should be exact");
}

/// Ranks sharing a host: DT class B shuffle has 192 ranks on griffon's 92
/// hosts, so round-robin placement stacks ranks on hosts and some graph
/// edges join two ranks of one host. Those messages take the local-copy
/// path; the run completes, and its capture replays bit-exactly.
#[test]
fn dt_class_b_shuffle_with_shared_hosts_replays_exactly() {
    let world = griffon_world().capture(true);
    let online = dt_online(&world, DtClass::B, DtGraph::Sh);
    let hosts = griffon().num_hosts();
    assert!(online.finish_times.len() > hosts, "ranks must share hosts");
    let replayed = replay::replay(&griffon_world(), online.ti_trace.as_ref().unwrap());
    assert_eq!(replayed.sim_time.to_bits(), online.sim_time.to_bits());
    assert_eq!(replayed.finish_times, online.finish_times);
}

/// NAS EP on griffon. EP's compute bursts are *measured* (wall-clock
/// sampling), so two online runs differ — but the captured trace pins the
/// measured values, and its replay must reproduce this run's makespan.
#[test]
fn ep_cross_validation_on_griffon() {
    let cfg = EpConfig {
        total_pairs: 1 << 16,
        blocks_per_rank: 8,
        sampling_ratio: 1.0,
    };
    let world = griffon_world().capture(true);
    let online = world.run(8, move |ctx| ep_rank(ctx, cfg));
    let cv = replay::cross_validate(&world, &online);
    assert!(
        cv.within(0.001),
        "EP replay drifted: online {} vs replayed {} (rel {:.2e})",
        cv.online,
        cv.replayed,
        cv.rel_err
    );
}

/// Model-swap power: a trace captured on griffon replays against gdx (a
/// different topology and link speed) without executing any application
/// code, and predicts a different — but finite, positive — makespan.
#[test]
fn griffon_trace_replays_against_gdx() {
    let world = griffon_world().capture(true);
    let online = dt_online(&world, DtClass::S, DtGraph::Bh);
    let trace = online.ti_trace.as_ref().unwrap();
    let on_gdx = replay::replay(&gdx_world(), trace);
    assert!(on_gdx.sim_time > 0.0 && on_gdx.sim_time.is_finite());
    assert_eq!(on_gdx.finish_times.len(), trace.num_ranks());
    // Different platform, different prediction (the whole point of replay).
    assert_ne!(on_gdx.sim_time, online.sim_time);
}

/// Determinism: two identical online runs produce byte-identical captured
/// traces and byte-identical `to_json()` reports. The host-dependent
/// report fields — `wall`, the wall-clock half of the self-profile
/// (`wall_seconds`, per-phase timings, kernel solve histogram), and the
/// time series' solver timings — are removed in one call through the
/// [`smpi_obs::Deterministic`] trait before comparing.
#[test]
fn identical_runs_are_byte_identical() {
    use smpi_obs::Deterministic as _;
    let run = || {
        let world = griffon_world()
            .capture(true)
            .metrics(true)
            .tracing(true)
            .timeseries(true);
        let mut report = dt_online(&world, DtClass::S, DtGraph::Bh);
        report.strip_nondeterminism();
        (
            report.ti_trace.as_ref().unwrap().encode(),
            report.to_json(),
            report.paje(),
        )
    };
    let (trace_a, json_a, paje_a) = run();
    let (trace_b, json_b, paje_b) = run();
    assert_eq!(trace_a, trace_b, "captured traces differ between runs");
    assert_eq!(json_a, json_b, "to_json() differs between runs");
    assert_eq!(paje_a, paje_b, "paje() differs between runs");
}

/// Replay reproduces the on-line run's telemetry byte-identically: the
/// replayed simcall stream equals the captured one on the same
/// platform/model, so every time-series bucket must agree once the
/// host-dependent solver timings are stripped. Uses a memory-free
/// workload (sendrecv + allreduce + compute) because replay does not
/// re-execute `shared_malloc`, so `mem_hwm` would legitimately differ
/// for workloads that allocate.
#[test]
fn replay_reproduces_the_timeseries_byte_identically() {
    let app = |ctx: &smpi_suite::smpi::Ctx| {
        let comm = ctx.world();
        let n = ctx.size();
        ctx.compute(5e6 * (1.0 + ctx.rank() as f64 / n as f64));
        let to = (ctx.rank() + 1) % n;
        let from = ((ctx.rank() + n) - 1) % n;
        let buf = vec![ctx.rank() as f64; 16 * 1024];
        let mut got = vec![0.0f64; buf.len()];
        ctx.sendrecv(&buf, to, 7, &mut got, from as i32, 7, &comm);
        assert_eq!(got[0], from as f64);
        let mine = [ctx.rank() as f64];
        let _ = ctx.allreduce(&mine, &smpi_suite::smpi::op::sum::<f64>(), &comm);
    };
    let world = griffon_world().capture(true).timeseries(true);
    let mut online = world.run(4, app);
    let trace = online.ti_trace.take().unwrap();

    let replay_world = griffon_world().timeseries(true);
    let mut replayed = replay::replay(&replay_world, &trace);
    assert_eq!(replayed.sim_time, online.sim_time);

    use smpi_obs::Deterministic as _;
    let mut ts_online = online.timeseries.take().unwrap();
    let mut ts_replay = replayed.timeseries.take().unwrap();
    ts_online.strip_nondeterminism();
    ts_replay.strip_nondeterminism();
    assert_eq!(
        ts_online.to_json(),
        ts_replay.to_json(),
        "replayed time series diverged from the on-line one"
    );
}

/// The checked-in golden trace: DT class S (BH graph, 5 ranks) captured
/// with regions on. Guards both the capture layer and the codec against
/// silent format drift. Regenerate with
/// `BLESS=1 cargo test --test replay_e2e`.
#[test]
fn captured_trace_matches_golden_file() {
    let world = griffon_world().capture(true).metrics(true);
    let online = dt_online(&world, DtClass::S, DtGraph::Bh);
    let encoded = online.ti_trace.as_ref().unwrap().encode();
    let golden_path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/dt_s_bh.tit");
    if std::env::var_os("BLESS").is_some() {
        std::fs::write(golden_path, &encoded).unwrap();
    }
    let golden = std::fs::read_to_string(golden_path).expect("golden file (run with BLESS=1)");
    assert_eq!(
        encoded, golden,
        "captured trace drifted from the golden file"
    );
    // And the golden file itself decodes and replays.
    let trace = TiTrace::decode(&golden).unwrap();
    let report = replay::replay(&griffon_world(), &trace);
    assert_eq!(report.sim_time, online.sim_time);
}

/// The checked-in `TITRACE2` golden: the same DT-S capture as the v1
/// golden, in the binary delta-encoded container. Guards the v2 wire
/// format (opcodes, deltas, dictionary, anchor compression) against
/// silent drift, and pins the v1 <-> v2 relationship: the binary golden
/// decodes to exactly the captured trace, while the v1 text golden is its
/// lossy downgrade (logical collectives re-spelled as region entries).
/// Regenerate both with `BLESS=1 cargo test --test replay_e2e`.
#[test]
fn captured_trace_matches_v2_golden_file() {
    use smpi_suite::smpi::{decode_v2, encode_v2};

    let world = griffon_world().capture(true).metrics(true);
    let online = dt_online(&world, DtClass::S, DtGraph::Bh);
    let trace = online.ti_trace.as_ref().unwrap();
    let encoded = encode_v2(trace);
    let golden_path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/dt_s_bh.tit2");
    if std::env::var_os("BLESS").is_some() {
        std::fs::write(golden_path, &encoded).unwrap();
    }
    let golden = std::fs::read(golden_path).expect("golden file (run with BLESS=1)");
    assert_eq!(
        encoded, golden,
        "captured v2 trace drifted from the golden file"
    );

    // Cross-format equality: v2 is lossless, v1 is the downgrade.
    let v2 = decode_v2(&golden).unwrap();
    assert_eq!(&v2, trace, "binary golden must decode to the capture");
    let v1_path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/dt_s_bh.tit");
    let v1 = TiTrace::decode(&std::fs::read_to_string(v1_path).unwrap()).unwrap();
    assert_eq!(
        v1,
        v2.downgraded(),
        "v1 and v2 goldens must describe the same capture"
    );

    // Replaying the binary golden reproduces the on-line makespan with
    // rel err 0 on the capture platform.
    let report = replay::replay(&griffon_world(), &v2);
    assert_eq!(report.sim_time, online.sim_time);
}
