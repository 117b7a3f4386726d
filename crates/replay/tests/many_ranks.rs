//! A 65 536-rank replay runs to completion without one OS thread per rank.
//!
//! A replayed rank is a cursor stepped by the maestro, so the rank count is
//! bounded by memory, not by the host's thread and mapping limits. The
//! trace is EP-shaped and written by hand: an on-line capture at this size
//! would itself need 65 536 rank threads.
//!
//! This file holds one test on purpose: its binary then runs no other
//! test thread that could make the process's thread count move.
//!
//! Keep it away from the threaded replay path (a `coll_hook`): that path
//! runs one OS thread per rank and would ask for 65 536 of them.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

use smpi::{TiOp, TiTrace, WaitMode, World};
use smpi_platform::{flat_cluster, ClusterConfig, RoutedPlatform};
use surf_sim::TransferModel;

const RANKS: usize = 65_536;

/// Per rank: one compute burst, then a small exchange with its partner
/// (`rank ^ 1`) and a wait on both posts.
fn ep_shaped_trace() -> TiTrace {
    let ranks = (0..RANKS)
        .map(|r| {
            let peer = (r ^ 1) as u32;
            vec![
                TiOp::Compute {
                    flops: 1e6 * (1 + r % 7) as f64,
                },
                TiOp::Recv {
                    src: peer as i32,
                    cid: 0,
                    tag: 1,
                    max_bytes: 64,
                },
                TiOp::Send {
                    dst: peer,
                    cid: 0,
                    tag: 1,
                    bytes: 64,
                },
                TiOp::Wait {
                    reqs: vec![0, 1],
                    mode: WaitMode::All,
                },
            ]
        })
        .collect();
    TiTrace { ranks }
}

/// The `Threads:` line of this process's status.
fn threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|v| v.trim().parse().ok())
        .expect("a Threads: line")
}

#[test]
fn replays_65536_ranks_without_a_thread_per_rank() {
    let trace = Arc::new(ep_shaped_trace());
    // An even host count keeps every partner pair on two distinct hosts.
    let rp = Arc::new(RoutedPlatform::new(flat_cluster(
        "ep",
        256,
        &ClusterConfig::default(),
    )));
    let world = World::smpi(rp, TransferModel::default_affine());

    // Sample the thread count while the replay runs; the sampler itself is
    // part of the baseline.
    let done = Arc::new(AtomicBool::new(false));
    let peak = Arc::new(AtomicUsize::new(0));
    let sampler = {
        let (done, peak) = (Arc::clone(&done), Arc::clone(&peak));
        std::thread::spawn(move || {
            while !done.load(Ordering::Relaxed) {
                peak.fetch_max(threads(), Ordering::Relaxed);
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
        })
    };
    let baseline = threads();

    let report = smpi_replay::replay_shared(&world, trace);

    peak.fetch_max(threads(), Ordering::Relaxed);
    done.store(true, Ordering::Relaxed);
    sampler.join().unwrap();

    assert_eq!(report.finish_times.len(), RANKS);
    assert!(report.sim_time > 0.0 && report.sim_time.is_finite());
    assert!(report.finish_times.iter().all(|&t| t > 0.0));
    // Compute, recv, send and wait: four simcalls per rank.
    assert_eq!(report.profile.simcalls, 4 * RANKS as u64);
    // The only threads a replay may start are the kernel's scoped workers
    // for independent LMM components, at most one per core; a thread per
    // rank would add 65 536.
    let solver_pool = std::thread::available_parallelism().map_or(1, |n| n.get());
    let peak = peak.load(Ordering::Relaxed);
    assert!(
        peak <= baseline + solver_pool,
        "thread count grew from {baseline} to {peak} during the replay"
    );
}
