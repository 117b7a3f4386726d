//! The sweep's central contract: worker count is a performance knob, not a
//! semantic one. The same matrix swept with 1, 4 and 16 workers must
//! produce a byte-identical streamed results table (ordered by stable
//! scenario id, not completion order) and identical per-cell
//! distributions — including the stochastic cells, whose perturbations are
//! drawn from counter-based streams keyed by the scenario, never by the
//! thread that happens to run it.

use std::sync::Arc;

use smpi::{TiTrace, World};
use smpi_platform::{flat_cluster, ClusterConfig, RoutedPlatform};
use smpi_sweep::{run_sweep, FabricKind, NoiseAxis, Program, SweepConfig};
use surf_sim::TransferModel;

fn platform(name: &str, hosts: usize) -> (String, Arc<RoutedPlatform>) {
    (
        name.to_string(),
        Arc::new(RoutedPlatform::new(flat_cluster(
            name,
            hosts,
            &ClusterConfig::default(),
        ))),
    )
}

/// Captures a little app exercising p2p (eager + rendezvous) and a
/// collective, so replays traverse the full protocol surface.
fn capture(rp: &Arc<RoutedPlatform>) -> Arc<TiTrace> {
    let world = World::smpi(Arc::clone(rp), TransferModel::default_affine()).capture(true);
    let report = world.run(6, |ctx| {
        ctx.compute(2e5 * (ctx.rank() % 3 + 1) as f64);
        let right = (ctx.rank() + 1) % ctx.size();
        let left = (ctx.rank() + ctx.size() - 1) % ctx.size();
        let mut small = vec![0.0f64; 16];
        let mut big = vec![0.0f64; 32 * 1024];
        let payload = vec![ctx.rank() as f64; 32 * 1024];
        ctx.sendrecv(
            &payload[..16],
            right,
            1,
            &mut small,
            left as i32,
            1,
            &ctx.world(),
        );
        ctx.sendrecv(&payload, right, 2, &mut big, left as i32, 2, &ctx.world());
        let x = [big[0] + 1.0];
        ctx.allreduce(&x, &smpi::op::sum::<f64>(), &ctx.world());
    });
    Arc::new(report.ti_trace.unwrap())
}

fn matrix(workers: usize) -> SweepConfig {
    let p0 = platform("alpha", 6);
    let trace = capture(&p0.1);
    SweepConfig {
        programs: vec![Program::trace("ring6", trace)],
        platforms: vec![p0, platform("beta", 12)],
        fabrics: vec![
            ("surf".into(), FabricKind::surf()),
            ("packet".into(), FabricKind::packet()),
        ],
        calibrations: vec![
            ("affine".into(), TransferModel::default_affine()),
            ("affine-slow".into(), TransferModel::affine(2.0, 0.7)),
        ],
        noises: vec![NoiseAxis::none(), NoiseAxis::jitter("j15", 0.15, 4)],
        workers,
        seed: 20260809,
        strip_hostdep: true,
    }
}

#[test]
fn worker_count_never_changes_results() {
    // 1 program × 2 platforms × (surf × 2 cals + packet) × 2 noise axes
    // = 12 cells, (1 + 4) reps per platform-fabric-cal group = 30 scenarios.
    let mut tables: Vec<String> = Vec::new();
    let mut reports = Vec::new();
    for workers in [1, 4, 16] {
        let cfg = matrix(workers);
        assert_eq!(cfg.scenario_count(), 30);
        let (mut report, lines) = run_sweep(&cfg, Vec::new()).unwrap();
        assert_eq!(report.workers, workers);
        assert_eq!(report.stats.total_scenarios(), 30);
        {
            use smpi_obs::Deterministic as _;
            report.strip_nondeterminism();
        }
        tables.push(String::from_utf8(lines).unwrap());
        reports.push(report);
    }

    // Byte-identical streamed tables, in stable scenario-id order.
    assert_eq!(tables[0], tables[1], "1 vs 4 workers");
    assert_eq!(tables[0], tables[2], "1 vs 16 workers");
    let ids: Vec<usize> = tables[0]
        .lines()
        .map(|l| {
            l.strip_prefix("{\"scenario\":")
                .and_then(|r| r.split(',').next())
                .and_then(|n| n.parse().ok())
                .expect("scenario id leads every line")
        })
        .collect();
    assert_eq!(ids, (0..30).collect::<Vec<_>>());

    // Identical aggregation: every cell's distribution matches exactly.
    for r in &reports[1..] {
        assert_eq!(r.cells.len(), reports[0].cells.len());
        for (a, b) in reports[0].cells.iter().zip(&r.cells) {
            assert_eq!(a.key, b.key);
            assert_eq!(a.makespan, b.makespan, "{:?}", a.key);
        }
        // The stripped per-cell JSON view is identical too (worker stats
        // legitimately differ in shape, so compare the cells section).
        let cells_json = |rep: &smpi_sweep::SweepReport| {
            let json = rep.to_json();
            json[json.find("\"cells\"").unwrap()..].to_string()
        };
        assert_eq!(cells_json(&reports[0]), cells_json(r));
    }

    // The deterministic axis really is deterministic, and jitter really
    // does produce spread (the axes are not accidentally swapped).
    for c in &reports[0].cells {
        match c.key.noise.as_str() {
            "none" => assert_eq!(c.makespan.n, 1),
            "j15" => {
                assert_eq!(c.makespan.n, 4);
                assert!(
                    c.makespan.max > c.makespan.min,
                    "jitter cell {:?} has zero spread",
                    c.key
                );
            }
            other => panic!("unexpected noise axis {other}"),
        }
    }
}

#[test]
fn rerunning_the_same_config_is_byte_stable() {
    let cfg = matrix(4);
    let (_, a) = run_sweep(&cfg, Vec::new()).unwrap();
    let (_, b) = run_sweep(&cfg, Vec::new()).unwrap();
    assert_eq!(a, b);
}

#[test]
fn seed_changes_stochastic_cells_only() {
    let mut cfg = matrix(2);
    let (ra, _) = run_sweep(&cfg, Vec::new()).unwrap();
    cfg.seed = 1;
    let (rb, _) = run_sweep(&cfg, Vec::new()).unwrap();
    let mut stochastic_changed = false;
    for (a, b) in ra.cells.iter().zip(&rb.cells) {
        if a.key.noise == "none" {
            assert_eq!(a.makespan, b.makespan, "seed leaked into {:?}", a.key);
        } else if a.makespan != b.makespan {
            stochastic_changed = true;
        }
    }
    assert!(stochastic_changed, "new seed must redraw the jitter");
}

#[test]
fn stripped_report_is_byte_identical_at_any_worker_count() {
    // After `strip_nondeterminism` the whole report — not just its cells —
    // is a function of the matrix and the seed: the worker count, the
    // per-worker split, steals and the reorder high-water mark are pool
    // scheduling, and must not leak into the serialized bytes.
    use smpi_obs::Deterministic as _;
    let reports: Vec<String> = [1, 2, 4]
        .into_iter()
        .map(|workers| {
            let (mut report, _) = run_sweep(&matrix(workers), Vec::new()).unwrap();
            report.strip_nondeterminism();
            report.to_json()
        })
        .collect();
    assert_eq!(reports[0], reports[1], "1 vs 2 workers");
    assert_eq!(reports[0], reports[2], "1 vs 4 workers");
    assert!(reports[0].contains("\"scenarios\":30"), "{}", reports[0]);
}
