//! # smpi-replay — off-line replay of time-independent traces
//!
//! The complement of the paper's on-line simulator: capture a run once
//! (with [`World::capture`] or, for bounded-memory streaming capture,
//! `World::capture_to`), then re-simulate its time-independent trace
//! against *any* platform spec and network model — no rank bodies, no
//! application compute, no payload allocation. Only the simulation kernel
//! runs, which is what makes thousands-of-run sensitivity sweeps (swap the
//! transfer model, the topology, the MPI profile) tractable.
//!
//! ```
//! use smpi::World;
//! use smpi_platform::{flat_cluster, ClusterConfig, RoutedPlatform};
//! use surf_sim::TransferModel;
//! use std::sync::Arc;
//!
//! let rp = Arc::new(RoutedPlatform::new(flat_cluster("c", 4, &ClusterConfig::default())));
//! let world = World::smpi(rp, TransferModel::default_affine()).capture(true);
//! let online = world.run(4, |ctx| {
//!     ctx.compute(1e6);
//!     let x = [ctx.rank() as f64];
//!     ctx.allreduce(&x, &smpi::op::sum::<f64>(), &ctx.world())[0]
//! });
//! let trace = online.ti_trace.as_ref().unwrap();
//!
//! // Same platform: the replayed makespan is the online makespan.
//! let replayed = smpi_replay::replay(&world, trace);
//! assert_eq!(replayed.sim_time, online.sim_time);
//! ```
//!
//! ## Trace sources
//!
//! The engine is generic over [`OpSource`]: anything that can hand each
//! rank an op iterator. Two sources ship:
//!
//! * [`TiTrace`] — a fully decoded in-memory trace (v1 text files, or the
//!   `ti_trace` field of a captured run report).
//! * [`smpi::TiV2Reader`] — a block-streaming `TITRACE2` reader
//!   ([`replay_stream`]): ops are decoded block-by-block as each rank's
//!   cursor advances, so replay memory is bounded by block size rather
//!   than trace length, and concurrent replays of the same file share
//!   decoded blocks (stream once, replay many).
//!
//! [`save_trace`]/[`load_trace`] stream through `BufWriter`/`BufRead` and
//! return typed [`TraceIoError`]s; `load_trace` sniffs the leading magic,
//! so v1 text and v2 binary files load through the same call forever.
//!
//! ## Thread-free ranks
//!
//! A replayed rank runs no application code, so it needs no thread. Each
//! rank is a [`ReplayCursor`]: a state machine over its op stream that
//! absorbs the maestro's answer to its previous simcall and returns its
//! next one. A cursor driver steps the runnable cursors in actor-id order
//! (the `simix` scheduling contract) through `World::try_drive`, so a
//! replay spawns no thread and passes no baton, and the rank count is
//! bounded by memory rather than by the host's thread limits. Outputs are
//! byte-identical to running each rank on a thread: same simcalls, same
//! order, same resolution order.
//!
//! Replays with a [`ReplayOptions::coll_hook`] are the exception: the hook
//! issues its substitute traffic through a live [`Ctx`], so each rank runs
//! on a thread that feeds the same cursor's simcalls through its `Ctx`.
//!
//! ## Semantics under model swap
//!
//! The trace fixes each rank's *order* of simcalls; the target world fixes
//! their *timing*. Eager/rendezvous is re-decided under the target world's
//! [`smpi::MpiProfile`], transfers are re-timed by its fabric, and waits
//! re-block until the re-timed requests complete. One divergence class
//! needs care: on a different platform, a captured `Poll`/`Waitany` may
//! complete a *different subset* of requests than it did on-line, so later
//! captured waits can name requests the replay has already consumed (or
//! miss ones it has not). The replayer tracks consumption per rank and
//! filters every captured wait down to the requests still live in *this*
//! replay, skipping waits that become empty. On the capture platform
//! nothing is ever filtered and the replay is bit-identical.
//!
//! ## Collective re-selection
//!
//! Captures record each collective as a logical [`TiOp::Coll`] annotated
//! with the algorithm variant the on-line run chose, followed by the
//! point-to-point traffic that variant produced. By default the replayer
//! plays that traffic faithfully. A [`ReplayOptions::coll_hook`] may
//! instead claim a collective: the hook issues whatever substitute traffic
//! it wants through the [`Ctx`] (e.g. calls a different algorithm), the
//! engine skips the captured span, and later waits stay aligned because
//! the skipped post indices are accounted for. Algorithm sweeps therefore
//! no longer require re-capturing the application.
//!
//! Replay is faithful only for applications whose communication structure
//! does not depend on message *values* or wall-clock races (the standard
//! time-independent-trace caveat); wildcard receives replay correctly as
//! long as their matching order stays deterministic.

use std::collections::HashMap;
use std::io::{BufRead, Write};
use std::path::Path;
use std::sync::Arc;

use smpi::capture::intern_region;
use smpi::capture_v2::{TiV2Reader, TiV2Writer, DEFAULT_BLOCK_OPS, TIT2_MAGIC};
use smpi::runtime::{ActorEvent, ActorId, Driver, RunQueue, SimResp, Simcall};
use smpi::{Ctx, ReqId, RunReport, SimError, TiOp, TiTrace, TraceIoError, World};

/// A per-rank supplier of time-independent ops. Implemented by in-memory
/// traces and by the streaming `TITRACE2` reader; the replay engine never
/// needs the whole trace at once.
pub trait OpSource: Send + Sync + 'static {
    /// Number of ranks the source describes.
    fn num_ranks(&self) -> usize;
    /// An owning iterator over rank `rank`'s ops, in capture order.
    fn rank_ops(self: Arc<Self>, rank: usize) -> Box<dyn Iterator<Item = TiOp> + Send>;
}

/// Owning cursor over one rank of an `Arc`'d in-memory trace.
struct TraceCursor {
    trace: Arc<TiTrace>,
    rank: usize,
    ix: usize,
}

impl Iterator for TraceCursor {
    type Item = TiOp;

    fn next(&mut self) -> Option<TiOp> {
        let op = self.trace.ranks[self.rank].get(self.ix)?.clone();
        self.ix += 1;
        Some(op)
    }
}

impl OpSource for TiTrace {
    fn num_ranks(&self) -> usize {
        TiTrace::num_ranks(self)
    }

    fn rank_ops(self: Arc<Self>, rank: usize) -> Box<dyn Iterator<Item = TiOp> + Send> {
        Box::new(TraceCursor {
            trace: self,
            rank,
            ix: 0,
        })
    }
}

impl OpSource for TiV2Reader {
    fn num_ranks(&self) -> usize {
        TiV2Reader::num_ranks(self)
    }

    fn rank_ops(self: Arc<Self>, rank: usize) -> Box<dyn Iterator<Item = TiOp> + Send> {
        Box::new(self.rank_iter(rank))
    }
}

/// One captured collective, as presented to a [`CollHook`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CollSite<'a> {
    /// Replaying rank.
    pub rank: usize,
    /// Collective name (`allreduce`, `bcast`, ...).
    pub name: &'a str,
    /// Algorithm variant the on-line run dispatched to (empty when the
    /// collective had no nested variant region).
    pub algo: &'a str,
    /// Captured ops implementing this collective (skipped if claimed).
    pub span: u32,
    /// Send/recv posts among those ops.
    pub posts: u32,
}

/// Replay-time collective interceptor. Returning `true` claims the
/// collective: the hook has issued substitute traffic through the [`Ctx`]
/// (or chosen to elide it) and the engine skips the captured span.
/// Returning `false` replays the captured traffic faithfully.
pub type CollHook = dyn Fn(&Ctx, &CollSite<'_>) -> bool + Send + Sync;

/// Knobs of [`replay_with`].
#[derive(Clone, Default)]
pub struct ReplayOptions {
    /// Collective interceptor (see [`CollHook`]). `None` replays
    /// everything faithfully.
    pub coll_hook: Option<Arc<CollHook>>,
}

/// Re-simulates a captured trace on `world` and returns the ordinary run
/// report (same observability artifacts as an on-line run: metrics, Paje
/// timelines, self-profile — per the world's configuration).
///
/// No application code executes: each rank is a [`ReplayCursor`] issuing
/// the captured simcalls with data-less messages, stepped by the maestro
/// itself with no thread per rank.
pub fn replay(world: &World, trace: &TiTrace) -> RunReport<()> {
    replay_shared(world, Arc::new(trace.clone()))
}

/// Like [`replay`], but over a shared `Arc`'d trace: no per-call deep copy
/// of the op streams. This is the entry point for replication sweeps, where
/// many worker threads replay the *same* captured trace concurrently
/// against different platforms/models/perturbations — each call builds its
/// own private runtime and fabric, so replay sessions are independent and
/// `Send` while the trace and the parsed platform stay shared and
/// immutable.
pub fn replay_shared(world: &World, trace: Arc<TiTrace>) -> RunReport<()> {
    replay_source(world, trace)
}

/// Replays a streaming `TITRACE2` file through its shared block decoder:
/// each rank's cursor holds one decoded block at a time, and concurrent
/// replays of the same reader share in-flight blocks. Peak decoded memory
/// is bounded by block size, not trace length.
pub fn replay_stream(world: &World, reader: Arc<TiV2Reader>) -> RunReport<()> {
    replay_source(world, reader)
}

/// Replays any [`OpSource`] with default options.
pub fn replay_source<S: OpSource>(world: &World, source: Arc<S>) -> RunReport<()> {
    replay_with(world, source, ReplayOptions::default())
}

/// Replays any [`OpSource`] with explicit [`ReplayOptions`]. Panics on a
/// deadlock or stall; [`try_replay_with`] returns those as errors.
pub fn replay_with<S: OpSource>(
    world: &World,
    source: Arc<S>,
    opts: ReplayOptions,
) -> RunReport<()> {
    try_replay_with(world, source, opts).unwrap_or_else(|e| panic!("{e}"))
}

/// Like [`replay_with`], but surfaces deadlocks, stalls and protocol
/// violations of the trace as a [`SimError`] (with its postmortem).
///
/// Without a collective hook the ranks are [`ReplayCursor`]s stepped by a
/// thread-free driver. A [`ReplayOptions::coll_hook`] needs a live [`Ctx`]
/// to issue its substitute traffic, so hooked replays run each rank on a
/// thread that feeds the *same* cursor's simcalls through its [`Ctx`].
pub fn try_replay_with<S: OpSource>(
    world: &World,
    source: Arc<S>,
    opts: ReplayOptions,
) -> Result<RunReport<()>, SimError> {
    let nranks = source.num_ranks();
    assert!(nranks > 0, "cannot replay an empty trace");
    let obs = world.metrics_enabled();
    let Some(hook) = opts.coll_hook else {
        let mut driver = CursorDriver::new(
            (0..nranks)
                .map(|r| ReplayCursor::new(r, Arc::clone(&source).rank_ops(r), obs))
                .collect(),
        );
        return world.try_drive(&mut driver);
    };
    world.try_run(nranks, move |ctx| {
        let ops = Arc::clone(&source).rank_ops(ctx.rank());
        let mut cursor = ReplayCursor::new(ctx.rank(), ops, obs);
        let mut resp = None;
        while let Some(call) = cursor.next_call(resp.take(), |site| hook(ctx, site)) {
            resp = Some(ctx.replay_simcall(call));
        }
    })
}

/// One replayed rank as a state machine over its op stream: the whole
/// replay "application". Each [`next_call`](Self::next_call) absorbs the
/// maestro's answer to the previous simcall and runs the trace forward to
/// the next one, so a driver needs no stack and no thread to step it.
///
/// Requests are named by post index in the trace; the cursor maps each
/// not-yet-consumed index to its request in *this* replay and filters
/// every captured wait down to the requests still live here (see the crate
/// docs on divergence under model swap).
pub struct ReplayCursor<I> {
    rank: usize,
    ops: I,
    /// Whether region annotations become simcalls (metrics on).
    obs: bool,
    n_posted: u32,
    live: HashMap<u32, ReqId>,
    /// Trace post index of each request in the last wait simcall, in the
    /// order of its request list (completions name them by position).
    waited: Vec<u32>,
}

impl<I: Iterator<Item = TiOp>> ReplayCursor<I> {
    /// A cursor at the start of rank `rank`'s op stream. `obs` mirrors
    /// [`World::metrics_enabled`]: region annotations are issued only then.
    pub fn new(rank: usize, ops: I, obs: bool) -> Self {
        ReplayCursor {
            rank,
            ops,
            obs,
            n_posted: 0,
            live: HashMap::new(),
            waited: Vec::new(),
        }
    }

    /// Absorbs `resp`, the maestro's answer to the previous simcall (`None`
    /// on the first step), and returns this rank's next simcall, or `None`
    /// once its trace is exhausted.
    ///
    /// Every captured collective is offered to `claim`; returning `true`
    /// means the caller issued substitute traffic itself, and the cursor
    /// skips the captured span and its post indices.
    pub fn next_call(
        &mut self,
        resp: Option<SimResp>,
        mut claim: impl FnMut(&CollSite<'_>) -> bool,
    ) -> Option<Simcall> {
        self.absorb(resp);
        while let Some(op) = self.ops.next() {
            match op {
                TiOp::Compute { flops } => return Some(Simcall::Exec { flops }),
                TiOp::Sleep { secs } => return Some(Simcall::Sleep { secs }),
                TiOp::Send {
                    dst,
                    cid,
                    tag,
                    bytes,
                } => {
                    return Some(Simcall::IsendSized {
                        dst,
                        cid,
                        tag,
                        bytes,
                    });
                }
                TiOp::Recv {
                    src,
                    cid,
                    tag,
                    max_bytes,
                } => {
                    return Some(Simcall::Irecv {
                        src,
                        cid,
                        tag,
                        max_bytes,
                    });
                }
                TiOp::Wait { reqs, mode } => {
                    self.waited.clear();
                    let mut ids = Vec::new();
                    for ix in reqs {
                        if let Some(&req) = self.live.get(&ix) {
                            self.waited.push(ix);
                            ids.push(req);
                        }
                    }
                    if ids.is_empty() {
                        continue; // captured wait already satisfied here
                    }
                    return Some(Simcall::Wait { reqs: ids, mode });
                }
                TiOp::Region { name, enter } => {
                    if self.obs {
                        let name = intern_region(&name);
                        return Some(Simcall::Region { name, enter });
                    }
                }
                TiOp::Coll {
                    name,
                    algo,
                    span,
                    posts,
                } => {
                    let site = CollSite {
                        rank: self.rank,
                        name: &name,
                        algo: &algo,
                        span,
                        posts,
                    };
                    if claim(&site) {
                        // Skip the captured implementation (through the
                        // closing region exit) and advance the post counter
                        // past its posts, so later captured waits keep their
                        // index alignment; waits naming the skipped indices
                        // find nothing live and are filtered.
                        for _ in 0..span {
                            self.ops.next();
                        }
                        self.n_posted += posts;
                    } else if self.obs {
                        let name = intern_region(&name);
                        return Some(Simcall::Region { name, enter: true });
                    }
                }
            }
        }
        None
    }

    fn absorb(&mut self, resp: Option<SimResp>) {
        match resp {
            // A send/recv post: the request of the next post index.
            Some(SimResp::Req(req)) => {
                self.live.insert(self.n_posted, req);
                self.n_posted += 1;
            }
            Some(SimResp::Done(done)) => {
                for c in done {
                    self.live.remove(&self.waited[c.index]);
                }
            }
            None | Some(SimResp::Unit) => {}
            Some(other) => unreachable!("a replay cursor never asks for {other:?}"),
        }
    }
}

/// The thread-free replay driver: steps runnable cursors in actor-id
/// order, answering each with the maestro's last response — the simix
/// scheduling contract, with a function call where simix passes a baton.
struct CursorDriver<I> {
    cursors: Vec<ReplayCursor<I>>,
    /// The maestro's pending answer to each cursor.
    answers: Vec<Option<SimResp>>,
    queue: RunQueue,
}

impl<I> CursorDriver<I> {
    fn new(cursors: Vec<ReplayCursor<I>>) -> Self {
        let mut queue = RunQueue::new();
        for _ in 0..cursors.len() {
            queue.add_actor();
        }
        CursorDriver {
            answers: cursors.iter().map(|_| None).collect(),
            cursors,
            queue,
        }
    }
}

impl<I: Iterator<Item = TiOp>> Driver<Simcall, SimResp> for CursorDriver<I> {
    fn num_actors(&self) -> usize {
        self.cursors.len()
    }

    fn run_ready_into(&mut self, events: &mut Vec<ActorEvent<Simcall>>) {
        events.clear();
        let batch = self.queue.take_batch();
        for &id in &batch {
            let rank = id.0 as usize;
            let resp = self.answers[rank].take();
            events.push(match self.cursors[rank].next_call(resp, |_| false) {
                Some(call) => ActorEvent::Request(id, call),
                None => ActorEvent::Finished(id),
            });
        }
        self.queue.recycle(batch);
    }

    fn resolve(&mut self, id: ActorId, resp: SimResp) {
        self.answers[id.0 as usize] = Some(resp);
        self.queue.wake(id);
    }

    fn has_runnable(&self) -> bool {
        self.queue.has_runnable()
    }
}

/// Outcome of an on-line vs replayed comparison on the same world.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CrossValidation {
    /// On-line simulated makespan (seconds).
    pub online: f64,
    /// Replayed simulated makespan (seconds).
    pub replayed: f64,
    /// `|replayed - online| / online`.
    pub rel_err: f64,
}

impl CrossValidation {
    /// `true` when the replayed makespan is within `tol` relative error.
    pub fn within(&self, tol: f64) -> bool {
        self.rel_err <= tol
    }
}

/// Replays `online`'s captured trace on the *same* world and compares
/// makespans. Panics if the report carries no trace (run the world with
/// [`World::capture`]).
pub fn cross_validate<R>(world: &World, online: &RunReport<R>) -> CrossValidation {
    let trace = online
        .ti_trace
        .as_ref()
        .expect("cross_validate needs a captured trace (World::capture)");
    let replayed = replay(world, trace);
    CrossValidation {
        online: online.sim_time,
        replayed: replayed.sim_time,
        rel_err: (replayed.sim_time - online.sim_time).abs() / online.sim_time,
    }
}

/// Writes a trace to `path` in the `TITRACE v1` text format, streaming
/// line-by-line through a [`std::io::BufWriter`].
pub fn save_trace(path: impl AsRef<Path>, trace: &TiTrace) -> Result<(), TraceIoError> {
    let file = std::fs::File::create(path)?;
    let mut w = std::io::BufWriter::new(file);
    trace.encode_to(&mut w)?;
    w.flush()?;
    Ok(())
}

/// Writes a trace to `path` in the binary `TITRACE2` format, streaming
/// block-by-block (the whole encoded document never exists in memory).
pub fn save_trace_v2(path: impl AsRef<Path>, trace: &TiTrace) -> Result<(), TraceIoError> {
    let file = std::fs::File::create(path)?;
    let mut w = TiV2Writer::new(std::io::BufWriter::new(file), trace.num_ranks());
    for (r, ops) in trace.ranks.iter().enumerate() {
        for chunk in ops.chunks(DEFAULT_BLOCK_OPS) {
            w.write_block(r as u32, chunk)?;
        }
    }
    w.finish()?;
    Ok(())
}

/// Reads a trace file into memory, sniffing the format from the leading
/// magic: `TITRACE2` binary containers and `TITRACE v1` text documents
/// both load here, forever. Short reads, truncation and corruption all
/// surface as typed [`TraceIoError`]s — never a panic.
///
/// For block-streaming access to a v2 file (bounded memory, shared
/// decoding), open it with [`smpi::TiV2Reader`] instead.
pub fn load_trace(path: impl AsRef<Path>) -> Result<TiTrace, TraceIoError> {
    let path = path.as_ref();
    let file = std::fs::File::open(path)?;
    let mut r = std::io::BufReader::new(file);
    let head = r.fill_buf()?;
    if head.starts_with(TIT2_MAGIC) {
        drop(r);
        TiV2Reader::open(path)?.materialize()
    } else {
        TiTrace::decode_from(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smpi::WaitMode;
    use smpi_platform::{flat_cluster, ClusterConfig, RoutedPlatform};
    use surf_sim::TransferModel;

    fn small_world() -> World {
        let rp = Arc::new(RoutedPlatform::new(flat_cluster(
            "n",
            4,
            &ClusterConfig::default(),
        )));
        World::smpi(rp, TransferModel::default_affine())
    }

    /// A little app exercising p2p (eager + rendezvous), wildcard waits,
    /// collectives and compute.
    fn app(ctx: &Ctx) -> f64 {
        let w = ctx.world();
        ctx.compute(5e5 * (ctx.rank() + 1) as f64);
        let right = (ctx.rank() + 1) % ctx.size();
        let left = (ctx.rank() + ctx.size() - 1) % ctx.size();
        let mut buf = vec![0.0f64; 64 * 1024];
        let big = vec![ctx.rank() as f64; 64 * 1024];
        ctx.sendrecv(&big, right, 7, &mut buf, left as i32, 7, &w);
        let x = [buf[0] + 1.0];
        ctx.allreduce(&x, &smpi::op::sum::<f64>(), &w)[0]
    }

    #[test]
    fn same_world_replay_is_exact() {
        let world = small_world().capture(true);
        let online = world.run(4, app);
        let trace = online.ti_trace.as_ref().unwrap();
        assert!(trace.summary().sends > 0);
        let replayed = replay(&world, trace);
        assert_eq!(replayed.sim_time, online.sim_time);
        assert_eq!(replayed.finish_times, online.finish_times);
        let cv = cross_validate(&world, &online);
        assert!(cv.within(0.0));
    }

    #[test]
    fn recapturing_a_replay_reproduces_the_trace() {
        // Capturing a replay must yield the original trace: the replayer
        // issues exactly the captured simcall stream.
        let world = small_world().capture(true);
        let online = world.run(4, app);
        let trace = online.ti_trace.unwrap();
        let replayed = replay(&world, &trace);
        assert_eq!(replayed.ti_trace.unwrap(), trace);
    }

    #[test]
    fn recapturing_a_metrics_replay_reproduces_colls() {
        // With metrics on, captures carry logical collectives. Replaying
        // them faithfully re-issues the same region simcalls, so a capture
        // of the replay re-synthesizes identical Coll ops.
        let world = small_world().capture(true).metrics(true);
        let online = world.run(4, app);
        let trace = online.ti_trace.unwrap();
        let has_coll = trace
            .ranks
            .iter()
            .flatten()
            .any(|op| matches!(op, TiOp::Coll { name, algo, .. } if name == "allreduce" && !algo.is_empty()));
        assert!(has_coll, "metrics capture synthesizes annotated colls");
        let replayed = replay(&world, &trace);
        assert_eq!(replayed.sim_time, online.sim_time);
        assert_eq!(replayed.ti_trace.unwrap(), trace);
    }

    #[test]
    fn coll_hook_substitutes_collectives() {
        let world = small_world().capture(true).metrics(true);
        let online = world.run(4, app);
        let trace = Arc::new(online.ti_trace.clone().unwrap());

        // Claim every allreduce and substitute the *same* collective via
        // the normal API: on the same platform the makespan must come out
        // identical (the hook re-runs what the capture recorded).
        let seen = Arc::new(std::sync::Mutex::new(Vec::new()));
        let seen2 = Arc::clone(&seen);
        let opts = ReplayOptions {
            coll_hook: Some(Arc::new(move |ctx: &Ctx, site: &CollSite<'_>| {
                if site.name != "allreduce" {
                    return false;
                }
                seen2
                    .lock()
                    .unwrap()
                    .push((site.algo.to_string(), site.span, site.posts));
                let x = [0.0f64];
                ctx.allreduce(&x, &smpi::op::sum::<f64>(), &ctx.world());
                true
            })),
        };
        let substituted = replay_with(&world, Arc::clone(&trace), opts);
        assert_eq!(substituted.sim_time, online.sim_time);

        let seen = seen.lock().unwrap();
        assert_eq!(seen.len(), 4, "one claimed allreduce per rank");
        assert!(seen
            .iter()
            .all(|(algo, span, _)| !algo.is_empty() && *span > 0));

        // Eliding the collective entirely must finish too (wait filtering
        // absorbs the skipped posts) and finish strictly earlier.
        let opts = ReplayOptions {
            coll_hook: Some(Arc::new(|_: &Ctx, site: &CollSite<'_>| {
                site.name == "allreduce"
            })),
        };
        let elided = replay_with(&world, trace, opts);
        assert!(elided.sim_time < online.sim_time);
    }

    #[test]
    fn replay_carries_observability() {
        let world = small_world().capture(true).metrics(true);
        let online = world.run(4, app);
        let trace = online.ti_trace.as_ref().unwrap();
        let replayed = replay(&world.clone().metrics(true), trace);
        // Paje export works on the replayed report too.
        assert!(replayed.paje().contains("PajeSetState"));
        let metrics = replayed.metrics.expect("replay run produces metrics");
        let online_metrics = online.metrics.unwrap();
        // Same protocol traffic either way, including region counters.
        let counter = |m: &smpi_obs::MetricsReport, key: &str| {
            m.counters
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| *v)
                .unwrap_or(0)
        };
        assert_eq!(
            counter(&online_metrics, "core.coll.allreduce"),
            counter(&metrics, "core.coll.allreduce"),
        );
        assert_eq!(
            counter(&online_metrics, "core.sends.eager"),
            counter(&metrics, "core.sends.eager"),
        );
        assert!(counter(&metrics, "core.coll.allreduce") > 0);
    }

    #[test]
    fn replay_reproduces_attribution_byte_identically() {
        // The contention attribution section is a pure function of the
        // simcall stream and the platform, so replaying a captured trace on
        // the same world must reproduce it exactly — same flows in the same
        // order, same share integrals, same bottleneck residencies.
        let world = small_world().capture(true).metrics(true);
        let online = world.run(4, app);
        let trace = online.ti_trace.as_ref().unwrap();
        let replayed = replay(&world.clone().metrics(true), trace);
        let c_online = online.contention.as_ref().expect("online attribution");
        let c_replay = replayed.contention.as_ref().expect("replayed attribution");
        assert!(!c_online.flows.is_empty(), "the app sends messages");
        assert_eq!(c_online.to_json(), c_replay.to_json());
    }

    /// A hand-written trace whose second wait re-lists an index that the
    /// first wait consumed and adds nothing live.
    fn consumed_waits_trace() -> TiTrace {
        TiTrace {
            ranks: vec![
                vec![
                    TiOp::Send {
                        dst: 1,
                        cid: 0,
                        tag: 1,
                        bytes: 100,
                    },
                    TiOp::Wait {
                        reqs: vec![0],
                        mode: WaitMode::All,
                    },
                    TiOp::Wait {
                        reqs: vec![0],
                        mode: WaitMode::All,
                    },
                ],
                vec![
                    TiOp::Recv {
                        src: 0,
                        cid: 0,
                        tag: 1,
                        max_bytes: 100,
                    },
                    TiOp::Wait {
                        reqs: vec![0],
                        mode: WaitMode::Any,
                    },
                    TiOp::Wait {
                        reqs: vec![0, 0],
                        mode: WaitMode::Poll,
                    },
                ],
            ],
        }
    }

    #[test]
    fn waits_on_consumed_requests_are_skipped() {
        // Replay must skip the consumed wait rather than panic, and still
        // finish.
        let report = replay(&small_world(), &consumed_waits_trace());
        assert!(report.sim_time > 0.0);
    }

    // ----- differential oracle: cursor driver vs threaded driver --------

    /// Replays on rank threads: a hook that claims nothing forces the
    /// threaded path, which feeds the same cursor through the `Ctx`.
    fn threaded<S: OpSource>(world: &World, source: Arc<S>) -> Result<RunReport<()>, SimError> {
        let opts = ReplayOptions {
            coll_hook: Some(Arc::new(|_: &Ctx, _: &CollSite<'_>| false)),
        };
        try_replay_with(world, source, opts)
    }

    /// Replays with thread-free cursors (the default, hook-less path).
    fn cursors<S: OpSource>(world: &World, source: Arc<S>) -> Result<RunReport<()>, SimError> {
        try_replay_with(world, source, ReplayOptions::default())
    }

    /// Everything deterministic a replay produces, serialized: the report
    /// JSON, makespan and finish-time bits, Paje, contention, time series
    /// and the lossless re-capture of the replay itself.
    fn fingerprint(mut r: RunReport<()>) -> Vec<(&'static str, String)> {
        use smpi_obs::Deterministic as _;
        r.strip_nondeterminism();
        let bits: Vec<u64> = r.finish_times.iter().map(|t| t.to_bits()).collect();
        vec![
            ("report", r.to_json()),
            ("sim_time", r.sim_time.to_bits().to_string()),
            ("finish_times", format!("{bits:?}")),
            ("paje", r.paje()),
            (
                "contention",
                r.contention
                    .as_ref()
                    .map(|c| c.to_json())
                    .unwrap_or_default(),
            ),
            (
                "timeseries",
                r.timeseries
                    .as_ref()
                    .map(|t| t.to_json())
                    .unwrap_or_default(),
            ),
            (
                "recapture",
                r.ti_trace
                    .as_ref()
                    .map(smpi::encode_v2)
                    .map(|b| format!("{b:?}"))
                    .unwrap_or_default(),
            ),
        ]
    }

    /// Both drivers, full observability on `world`, byte-identical outputs.
    fn assert_drivers_agree<S: OpSource>(label: &str, world: &World, source: Arc<S>) {
        let world = world
            .clone()
            .capture(true)
            .metrics(true)
            .tracing(true)
            .timeseries(true);
        let a = fingerprint(cursors(&world, Arc::clone(&source)).unwrap());
        let b = fingerprint(threaded(&world, source).unwrap());
        for ((what, x), (_, y)) in a.iter().zip(&b) {
            assert!(
                !x.is_empty() || *what == "contention",
                "{label}: empty {what}"
            );
            assert_eq!(x, y, "{label}: {what} differs between the drivers");
        }
    }

    fn griffon_world() -> World {
        let rp = Arc::new(RoutedPlatform::new(smpi_platform::griffon()));
        World::smpi(rp, TransferModel::default_affine())
    }

    fn golden(name: &str) -> std::path::PathBuf {
        std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../tests/golden")
            .join(name)
    }

    #[test]
    fn cursor_driver_matches_threads_on_the_golden_traces() {
        let v1 = Arc::new(load_trace(golden("dt_s_bh.tit")).unwrap());
        assert_drivers_agree("dt_s_bh.tit", &griffon_world(), v1);
        let v2 = Arc::new(TiV2Reader::open(golden("dt_s_bh.tit2")).unwrap());
        assert_drivers_agree("dt_s_bh.tit2", &griffon_world(), v2);
    }

    #[test]
    fn cursor_driver_matches_threads_on_a_model_swap() {
        // Captured on griffon, replayed on gdx: waits may be filtered.
        let rp = Arc::new(RoutedPlatform::new(smpi_platform::gdx()));
        let gdx = World::smpi(rp, TransferModel::default_affine());
        let trace = Arc::new(load_trace(golden("dt_s_bh.tit2")).unwrap());
        assert_drivers_agree("griffon trace on gdx", &gdx, trace);
    }

    #[test]
    fn cursor_driver_matches_threads_on_app_and_hand_written_traces() {
        let online = small_world().capture(true).metrics(true).run(4, app);
        let trace = Arc::new(online.ti_trace.unwrap());
        assert_drivers_agree("app", &small_world(), trace);
        assert_drivers_agree(
            "consumed waits",
            &small_world(),
            Arc::new(consumed_waits_trace()),
        );
    }

    #[test]
    fn cursor_driver_matches_threads_on_a_deadlock() {
        // Rank 1 waits for a tag rank 0 never sends.
        let post = |tag, send| {
            if send {
                TiOp::Send {
                    dst: 1,
                    cid: 0,
                    tag,
                    bytes: 8,
                }
            } else {
                TiOp::Recv {
                    src: 0,
                    cid: 0,
                    tag,
                    max_bytes: 8,
                }
            }
        };
        let wait = TiOp::Wait {
            reqs: vec![0],
            mode: WaitMode::All,
        };
        let trace = Arc::new(TiTrace {
            ranks: vec![
                vec![TiOp::Compute { flops: 1e6 }, post(7, true), wait.clone()],
                vec![post(9, false), wait],
            ],
        });
        let world = small_world();
        let a = cursors(&world, Arc::clone(&trace)).unwrap_err();
        let b = threaded(&world, trace).unwrap_err();
        assert!(matches!(a, SimError::Deadlock { .. }), "{a}");
        assert_eq!(a.to_string(), b.to_string());
        assert_eq!(a.postmortem(), b.postmortem());
        assert_eq!(a.postmortem().to_json(), b.postmortem().to_json());
    }

    #[test]
    fn save_and_load_roundtrip() {
        let world = small_world().capture(true);
        let trace = world.run(3, app).ti_trace.unwrap();
        let dir = std::env::temp_dir().join("smpi_replay_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("app.tit");
        save_trace(&path, &trace).unwrap();
        assert_eq!(load_trace(&path).unwrap(), trace);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn save_and_load_roundtrip_v2() {
        // The binary format keeps the Coll annotations a v1 text save
        // degrades, so a metrics capture round-trips exactly.
        let world = small_world().capture(true).metrics(true);
        let trace = world.run(3, app).ti_trace.unwrap();
        let dir = std::env::temp_dir().join("smpi_replay_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("app.tit2");
        save_trace_v2(&path, &trace).unwrap();
        assert_eq!(load_trace(&path).unwrap(), trace);
        // And the streaming reader agrees with the materializing loader.
        let reader = TiV2Reader::open(&path).unwrap();
        assert_eq!(reader.materialize().unwrap(), trace);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn streamed_replay_matches_in_memory_replay() {
        let dir = std::env::temp_dir().join("smpi_replay_stream_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("streamed.tit2");
        // Capture straight to disk with a tiny budget to force many blocks.
        let world = small_world()
            .capture_to(&path)
            .capture_tuning(16, 1024)
            .metrics(true);
        let online = world.run(4, app);
        assert!(online.ti_trace.is_none(), "streamed capture stays on disk");
        let codec = online.profile.codec.as_ref().expect("codec stats");
        assert!(codec.ops > 0 && codec.blocks > 1);

        let reader = Arc::new(TiV2Reader::open(&path).unwrap());
        let replay_world = small_world().metrics(true);
        let streamed = replay_stream(&replay_world, Arc::clone(&reader));
        assert_eq!(streamed.sim_time, online.sim_time);
        assert_eq!(streamed.finish_times, online.finish_times);

        // The streamed ops equal an in-memory capture of the same run.
        let mem = small_world().capture(true).metrics(true).run(4, app);
        assert_eq!(reader.materialize().unwrap(), mem.ti_trace.unwrap());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn load_rejects_garbage() {
        let dir = std::env::temp_dir().join("smpi_replay_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("garbage.tit");
        std::fs::write(&path, "not a trace\n").unwrap();
        let err = load_trace(&path).unwrap_err();
        assert!(matches!(err, TraceIoError::Format(_)), "got {err:?}");
        // A truncated v2 container is a typed v2 error, not a panic.
        std::fs::write(&path, b"TITRACE2\x04").unwrap();
        let err = load_trace(&path).unwrap_err();
        assert!(matches!(err, TraceIoError::V2(_)), "got {err:?}");
        std::fs::remove_file(&path).ok();
    }
}
