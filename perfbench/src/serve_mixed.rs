//! `serve-mixed`: the exploitation path as rack controllers see it.
//!
//! Set-up characterizes a fleet through `CampaignRunner::open` (durable
//! journal on disk) and boots `serve()` on loopback. Ops are requests
//! from `CLIENTS` keep-alive connections, each a controller that waits
//! for its reply before sending the next (closed loop). The mix and
//! order replay the seeded `loadgen` trace: 90 % safe-point lookups that
//! revalidate with `If-None-Match`, plus status, campaign polls and
//! `/metrics`. Once `roll_every` of phase time has passed since the last
//! roll, the client that claims the next request first calls
//! `ControlState::roll_epoch`, so writes run beside reads. Every reply is
//! checked: status, body against the snapshot published at its version,
//! and no stale reads.
//!
//! A timed phase is cut into slices of [`SLICE`]. At the end of each, the
//! clients pause while a reference pass runs, and the slice's requests
//! and wall time are scaled by the passes around it.
//!
//! Closed loop because an open-loop replay needs a pacing thread that
//! keeps to its schedule, which a shared 2-core host does not.

use crate::measure::{median, repeated_setup, Phase, WorkloadRun, MIN_OPS};
use crate::trace::{analyze, Tracer, NO_OP, OP_SPAN};
use crate::{host::HostSample, mix, reference, Ctx, Fnv, Scale, WARMUP_SEED, WORKERS};
use control_plane::{
    parse_request, serve, CampaignRunner, CampaignSpec, CampaignState, ControlState, Limits,
    LoadProfile, Parsed, Response, Router, ServerConfig, ServerHandle, ServerMetrics,
};
use fleet::SafePointStore;
use std::collections::{BTreeMap, HashMap};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError, RwLock};
use std::thread;
use std::time::{Duration, Instant};

/// Keep-alive connections, one client thread each.
const CLIENTS: usize = 2;
/// Campaigns characterized in set-up: ids 0–3, the ids `loadgen` polls.
const CAMPAIGNS: u64 = 4;
/// Offset of the warm-up trace seed, clear of the timed trace's.
const WARMUP_BASE: u64 = 1 << 40;
/// How long a client waits for the snapshot a reply names to be recorded.
const VERSION_WAIT: Duration = Duration::from_secs(2);
/// Latency samples per phase: every request is timed and checked, and
/// this many evenly spaced ones are the samples `p50_ms` and `tail_ms`
/// are taken over, at a fixed memory cost.
const SAMPLES: usize = TAIL_SETS * SET_SAMPLES;
/// Interleaved sets of samples; `tail_ms` is the median of their tails.
const TAIL_SETS: usize = 32;
/// Samples per set, which fixes the tail at p99.5 whatever the
/// throughput. The 11th-slowest of every request of a run would be set by
/// host preemptions. At p99.5 the tail lies among the `/metrics` requests
/// (about 1 % of the mix, the slowest route); at p99.75 it sat on the
/// edge of the few requests a vCPU steal stretched to milliseconds
/// (p99.9 was 1.3–2.7 ms), and moved by a quarter with the host's steal.
const SET_SAMPLES: usize = 2000;
/// In a traced phase every `TRACE_EVERY`-th request is traced: its wire
/// round trip and its in-process replay get spans, and it is a sample.
const TRACE_EVERY: u64 = 64;
/// Published snapshots kept for checking replies, beyond those a client
/// still checks against. A reply may name a version only as old as the
/// latest one when its request was sent; each client pins that version
/// until it has checked the reply, because the other client can roll the
/// epoch many times meanwhile (at the test size, with rolls every 20
/// requests, a descheduled client's version was gone 8 rolls later).
const KEEP_VERSIONS: usize = 8;
/// Seconds of seeded `loadgen` trace generated; requests cycle through it.
const TRACE_SECONDS: f64 = 16.0;
/// Length of a slice of a timed phase; each is followed by a reference
/// pass of about 10 ms with the clients paused.
const SLICE: Duration = Duration::from_millis(250);

struct Sizes {
    /// Boards per campaign (also the lookup board space).
    boards: u32,
    /// Phase time between epoch rolls. Time, not a request count: the
    /// control plane's master database keeps every epoch, so with a roll
    /// every 2000 requests its heap grew with the requests a run served
    /// (9.5–11.5 MB over five runs), and a faster run read as a memory
    /// regression. At about 130 000 requests/s, 16 ms is about 2000.
    roll_every: Duration,
    /// Untimed requests per connection in set-up.
    warmup: u64,
}

fn sizes(scale: Scale) -> Sizes {
    match scale {
        Scale::Full => Sizes {
            boards: 16,
            roll_every: Duration::from_millis(16),
            warmup: 1000,
        },
        Scale::Tiny => Sizes {
            boards: 2,
            roll_every: Duration::from_millis(2),
            warmup: 10,
        },
    }
}

/// One request of the replayed trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Req {
    SafePoint(u32),
    Status,
    Campaign(u32),
    Metrics,
}

impl Req {
    fn parse(target: &str) -> Req {
        if let Some(board) = target.strip_prefix("/v1/safe-point/") {
            Req::SafePoint(board.parse().expect("loadgen board ids are u32"))
        } else if let Some(id) = target.strip_prefix("/v1/campaigns/") {
            Req::Campaign(id.parse().expect("loadgen campaign ids are u32"))
        } else if target == "/v1/status" {
            Req::Status
        } else {
            Req::Metrics
        }
    }

    fn target(self) -> String {
        match self {
            Req::SafePoint(b) => format!("/v1/safe-point/{b}"),
            Req::Status => "/v1/status".to_owned(),
            Req::Campaign(id) => format!("/v1/campaigns/{id}"),
            Req::Metrics => "/metrics".to_owned(),
        }
    }

    fn handle_span(self) -> &'static str {
        match self {
            Req::SafePoint(_) => "control-plane.handle.safe-point",
            Req::Status => "control-plane.handle.status",
            Req::Campaign(_) => "control-plane.handle.campaigns",
            Req::Metrics => "control-plane.handle.metrics",
        }
    }
}

/// The seeded `loadgen` trace as a compact request list.
fn trace_requests(seed: u64, boards: u32, seconds: f64) -> Vec<Req> {
    let profile = LoadProfile {
        seed,
        duration_s: seconds,
        base_qps: 5000.0,
        clients: CLIENTS as u32,
        board_space: boards,
        ..LoadProfile::default()
    };
    profile
        .generate()
        .events
        .iter()
        .map(|e| Req::parse(&e.target))
        .collect()
}

/// A booted control plane over a characterized fleet.
struct Server {
    handle: Option<ServerHandle>,
    state: Arc<ControlState>,
    router: Arc<Router>,
    dir: PathBuf,
    /// Wall time from the first submission to the last completion.
    campaign_s: f64,
    /// Bytes the durable journals and manifest hold after the campaigns.
    journal_bytes: u64,
    /// Expected `GET /v1/campaigns/{id}` bodies.
    records: Vec<String>,
    /// Expected `GET /v1/status` body.
    status: String,
    /// Boards per campaign: lookups draw from `0..boards`.
    boards: u32,
    /// The store every roll republishes at a new epoch.
    store: SafePointStore,
    /// Fingerprint of the published lookups, records and status.
    fingerprint: u64,
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Some(handle) = self.handle.take() {
            handle.shutdown();
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn dir_bytes(dir: &std::path::Path) -> u64 {
    std::fs::read_dir(dir)
        .into_iter()
        .flatten()
        .flatten()
        .map(|entry| match entry.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&entry.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

fn data_dir(rep: usize) -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| ".bench_build".into());
    PathBuf::from(target)
        .join("perfbench")
        .join(format!("serve-{}-{rep}", std::process::id()))
}

fn boot(seed: u64, boards: u32, rep: usize) -> Server {
    let dir = data_dir(rep);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("serve data dir is creatable");
    let state = Arc::new(ControlState::new());
    let runner = CampaignRunner::open(state.clone(), &dir);
    let started = Instant::now();
    for k in 0..CAMPAIGNS {
        let spec = CampaignSpec {
            workers: WORKERS,
            ..CampaignSpec::new(boards, mix(seed, k))
        };
        assert_eq!(runner.submit(spec), Some(k), "campaign ids start at 0");
    }
    while (0..CAMPAIGNS).any(|id| {
        runner
            .record(id)
            .is_none_or(|r| r.state != CampaignState::Completed)
    }) {
        thread::sleep(Duration::from_millis(1));
    }
    let campaign_s = started.elapsed().as_secs_f64();
    let journal_bytes = dir_bytes(&dir);
    let records: Vec<String> = (0..CAMPAIGNS)
        .map(|id| serde::json::to_string(&runner.record(id).expect("completed campaign")))
        .collect();
    let status = serde::json::to_string(state.status().as_ref());
    let snapshot = state.snapshot();
    let mut store = SafePointStore::new();
    let mut fp = Fnv::default();
    for board in snapshot.index.boards() {
        let entry = snapshot.index.entry(board).expect("indexed board");
        store.insert(entry.point.clone());
        let view = snapshot.lookup(board).expect("indexed board");
        fp.push(serde::json::to_string(&view).as_bytes());
    }
    for body in records.iter().chain([&status]) {
        fp.push(body.as_bytes());
    }
    let router = Arc::new(Router::new(
        state.clone(),
        runner,
        Arc::new(ServerMetrics::new()),
    ));
    let config = ServerConfig {
        workers: WORKERS,
        ..ServerConfig::default()
    };
    let handle = serve(router.clone(), config).expect("loopback server boots");
    Server {
        handle: Some(handle),
        state,
        router,
        dir,
        campaign_s,
        journal_bytes,
        records,
        status,
        boards,
        store,
        fingerprint: fp.finish(),
    }
}

/// A keep-alive HTTP/1.1 client connection.
struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
}

struct Reply {
    status: u16,
    etag: Option<String>,
    body: Vec<u8>,
}

impl Conn {
    fn open(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(5)))?;
        Ok(Conn {
            stream,
            buf: Vec::with_capacity(8192),
        })
    }

    fn fill(&mut self) -> io::Result<()> {
        let mut chunk = [0u8; 8192];
        let n = self.stream.read(&mut chunk)?;
        if n == 0 {
            return Err(io::ErrorKind::UnexpectedEof.into());
        }
        self.buf.extend_from_slice(&chunk[..n]);
        Ok(())
    }

    fn send(&mut self, request: &[u8]) -> io::Result<Reply> {
        self.stream.write_all(request)?;
        let head_end = loop {
            if let Some(pos) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break pos;
            }
            self.fill()?;
        };
        let head = String::from_utf8_lossy(&self.buf[..head_end]).into_owned();
        let mut lines = head.split("\r\n");
        let status = lines
            .next()
            .and_then(|l| l.split(' ').nth(1))
            .and_then(|s| s.parse().ok())
            .ok_or(io::ErrorKind::InvalidData)?;
        let mut length = 0usize;
        let mut etag = None;
        for line in lines {
            if let Some((name, value)) = line.split_once(':') {
                match name.trim().to_ascii_lowercase().as_str() {
                    "content-length" => {
                        length = value
                            .trim()
                            .parse()
                            .map_err(|_| io::ErrorKind::InvalidData)?;
                    }
                    "etag" => etag = Some(value.trim().to_owned()),
                    _ => {}
                }
            }
        }
        let total = head_end + 4 + length;
        while self.buf.len() < total {
            self.fill()?;
        }
        let body = self.buf[head_end + 4..total].to_vec();
        self.buf.drain(..total);
        Ok(Reply { status, etag, body })
    }
}

fn request_bytes(req: Req, if_none_match: Option<&str>) -> Vec<u8> {
    let mut out = format!("GET {} HTTP/1.1\r\nhost: perfbench\r\n", req.target());
    if let Some(tag) = if_none_match {
        out.push_str("if-none-match: ");
        out.push_str(tag);
        out.push_str("\r\n");
    }
    out.push_str("\r\n");
    out.into_bytes()
}

/// Version named by a `"sp-{version}"` entity tag.
fn tag_version(tag: &str) -> Option<u64> {
    tag.trim_matches('"').strip_prefix("sp-")?.parse().ok()
}

/// Published snapshots the replies are checked against.
struct Published {
    /// Version → expected lookup body per board, for the latest
    /// [`KEEP_VERSIONS`] versions.
    bodies: RwLock<BTreeMap<u64, Arc<Vec<Option<String>>>>>,
    /// Latest version whose publication finished.
    latest: AtomicU64,
    /// Per client, the oldest version it may still check a reply
    /// against (`u64::MAX` between requests): never dropped.
    pinned: [AtomicU64; CLIENTS],
    next_epoch: AtomicU32,
    roll_lock: Mutex<()>,
}

impl Published {
    fn new(server: &Server) -> Self {
        let published = Published {
            bodies: RwLock::new(BTreeMap::new()),
            latest: AtomicU64::new(0),
            pinned: [const { AtomicU64::new(u64::MAX) }; CLIENTS],
            next_epoch: AtomicU32::new(CAMPAIGNS as u32),
            roll_lock: Mutex::new(()),
        };
        published.record(&server.state, server.boards);
        published
    }

    /// Records the served snapshot's lookup bodies and marks it latest;
    /// drops the oldest beyond [`KEEP_VERSIONS`] that no client pins.
    fn record(&self, state: &ControlState, boards: u32) {
        let snapshot = state.snapshot();
        let bodies = (0..boards)
            .map(|b| snapshot.lookup(b).map(|v| serde::json::to_string(&v)))
            .collect();
        let floor = self
            .pinned
            .iter()
            .map(|p| p.load(Ordering::SeqCst))
            .min()
            .unwrap_or(u64::MAX);
        let mut published = self.bodies.write().expect("published map poisoned");
        published.insert(snapshot.version, Arc::new(bodies));
        while published.len() > KEEP_VERSIONS
            && published.first_key_value().is_some_and(|(&v, _)| v < floor)
        {
            published.pop_first();
        }
        drop(published);
        self.latest.fetch_max(snapshot.version, Ordering::SeqCst);
    }

    /// Republishes the store at the next epoch.
    fn roll(&self, server: &Server) {
        let _serial = self.roll_lock.lock().expect("roll lock poisoned");
        let epoch = self.next_epoch.fetch_add(1, Ordering::SeqCst);
        server.state.roll_epoch(epoch, &server.store);
        self.record(&server.state, server.boards);
    }

    /// Pins the latest version for `client` and returns it: the oldest
    /// version a reply to a request sent now may name.
    /// (It is pinned right after it was the latest; dropping it would
    /// take [`KEEP_VERSIONS`] later rolls in between.)
    fn pin(&self, client: usize) -> u64 {
        let latest = self.latest.load(Ordering::SeqCst);
        self.pinned[client].store(latest, Ordering::SeqCst);
        latest
    }

    /// The expected body of `board` at `version`, waiting briefly for a
    /// roll that swapped the snapshot but has not recorded it yet. `None`
    /// for a version no longer kept or never recorded.
    fn body(&self, version: u64, board: u32) -> Option<Option<String>> {
        let deadline = Instant::now() + VERSION_WAIT;
        loop {
            {
                let published = self.bodies.read().expect("published map poisoned");
                if let Some(bodies) = published.get(&version) {
                    return bodies.get(board as usize).cloned();
                }
                if published
                    .first_key_value()
                    .is_some_and(|(&v, _)| version < v)
                {
                    return None;
                }
            }
            if Instant::now() > deadline {
                return None;
            }
            thread::yield_now();
        }
    }
}

/// Samples at a fixed memory cost: keeps every `stride`-th sample and,
/// when full, drops every other kept one and doubles the stride, so the
/// kept samples stay evenly spaced over all offered ones.
struct Sampler<T> {
    kept: Vec<T>,
    capacity: usize,
    stride: u64,
    offered: u64,
}

impl<T> Sampler<T> {
    /// Keeps between `capacity / 2` and `capacity` samples once that
    /// many were offered.
    fn new(capacity: usize) -> Self {
        Sampler {
            kept: Vec::with_capacity(capacity),
            capacity,
            stride: 1,
            offered: 0,
        }
    }

    fn offer(&mut self, sample: T) {
        if self.offered.is_multiple_of(self.stride) {
            if self.kept.len() == self.capacity {
                let mut i = 0;
                self.kept.retain(|_| {
                    i += 1;
                    i % 2 == 1
                });
                self.stride *= 2;
            }
            if self.offered.is_multiple_of(self.stride) {
                self.kept.push(sample);
            }
        }
        self.offered += 1;
    }
}

/// The clock of a timed phase. It cuts the phase into slices: at the end
/// of each, the clients pause (between requests) while the phase's own
/// thread runs a reference pass. It also says when an epoch roll is due.
struct Pacer {
    /// Set while the clients should pause.
    pause: AtomicBool,
    state: Mutex<PacerState>,
    changed: Condvar,
    start: Instant,
    roll_every_ns: u64,
    /// Phase time at which the next roll is due, ns.
    next_roll_ns: AtomicU64,
}

struct PacerState {
    /// Slices finished; a paused client waits for this to move.
    slice: u32,
    /// Clients paused in the current pause.
    paused: usize,
    /// Clients still running (one that panicked has left).
    active: usize,
    /// The phase is over: paused clients leave instead of resuming.
    done: bool,
}

/// Held by a client thread; counts it out of the pacer when it ends.
struct Leave<'a>(&'a Pacer);

impl Drop for Leave<'_> {
    fn drop(&mut self) {
        self.0.lock().active -= 1;
        self.0.changed.notify_all();
    }
}

impl Pacer {
    fn new(clients: usize, roll_every: Duration) -> Self {
        let roll_every_ns = u64::try_from(roll_every.as_nanos()).unwrap_or(u64::MAX);
        Pacer {
            pause: AtomicBool::new(false),
            state: Mutex::new(PacerState {
                slice: 0,
                paused: 0,
                active: clients,
                done: false,
            }),
            changed: Condvar::new(),
            start: Instant::now(),
            roll_every_ns,
            next_roll_ns: AtomicU64::new(roll_every_ns),
        }
    }

    /// Whether an epoch roll is due; true for the one client that claims
    /// it, and the next one is due `roll_every` later.
    fn roll_due(&self) -> bool {
        let now = u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let due = self.next_roll_ns.load(Ordering::SeqCst);
        now >= due
            && self
                .next_roll_ns
                .compare_exchange(
                    due,
                    now.saturating_add(self.roll_every_ns),
                    Ordering::SeqCst,
                    Ordering::SeqCst,
                )
                .is_ok()
    }

    fn lock(&self) -> MutexGuard<'_, PacerState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// A client between requests: pauses if asked. Returns the slice
    /// its next request belongs to, or `None` when the phase is over.
    fn between(&self, slice: u32) -> Option<u32> {
        if !self.pause.load(Ordering::Acquire) {
            return Some(slice);
        }
        let mut state = self.lock();
        state.paused += 1;
        self.changed.notify_all();
        while state.slice == slice && !state.done {
            state = self
                .changed
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
        (!state.done).then_some(state.slice)
    }

    /// The phase's own thread: lets the clients run slice after slice,
    /// each followed by a reference pass, until `deadline` has passed and
    /// `next` reached `min_requests` (or every client left). Returns each
    /// slice's wall time and the pass after it, s.
    fn run(&self, deadline: Instant, next: &AtomicU64, min_requests: u64) -> (Vec<f64>, Vec<f64>) {
        let (mut walls, mut passes) = (Vec::new(), Vec::new());
        loop {
            let start = Instant::now();
            thread::sleep(SLICE);
            self.pause.store(true, Ordering::Release);
            let mut state = self.lock();
            while state.paused < state.active {
                state = self
                    .changed
                    .wait(state)
                    .unwrap_or_else(PoisonError::into_inner);
            }
            walls.push(start.elapsed().as_secs_f64());
            drop(state);
            passes.push(reference::pass());
            let mut state = self.lock();
            state.done = state.active == 0
                || (Instant::now() >= deadline && next.load(Ordering::SeqCst) >= min_requests);
            state.slice += 1;
            state.paused = 0;
            self.pause.store(false, Ordering::Release);
            self.changed.notify_all();
            if state.done {
                return (walls, passes);
            }
        }
    }
}

/// Per-connection counters.
#[derive(Debug, Default, Clone, Copy)]
struct Tally {
    requests: u64,
    failed: u64,
    lookups: u64,
    not_modified: u64,
    misses: u64,
}

/// Everything a client thread needs.
struct Load<'a> {
    server: &'a Server,
    published: &'a Published,
    requests: &'a [Req],
    next: &'a AtomicU64,
    roll_every: Duration,
    tracer: Option<&'a Tracer>,
}

/// Controller `id`: claims request indices below `end`, and with a
/// `pacer` pauses between slices until the phase is over. Returns evenly
/// spaced latencies of its requests (of its traced ones in a traced
/// phase) with the slice of each, at most [`SAMPLES`] of them.
fn client(load: &Load<'_>, id: usize, pacer: Option<&Pacer>, end: u64) -> (Vec<(f32, u32)>, Tally) {
    let _leave = pacer.map(Leave);
    let addr = load.server.handle.as_ref().expect("server is up").addr();
    let mut conn = Conn::open(addr).ok();
    let mut cache: HashMap<u32, (String, Vec<u8>)> = HashMap::new();
    let mut latencies = Sampler::new(SAMPLES);
    let mut tally = Tally::default();
    let mut slice = 0;
    loop {
        if let Some(pacer) = pacer {
            match pacer.between(slice) {
                Some(next) => slice = next,
                None => break,
            }
        }
        let index = load.next.fetch_add(1, Ordering::SeqCst);
        if index >= end {
            break;
        }
        if pacer.is_some_and(Pacer::roll_due) {
            match load.tracer {
                Some(tracer) => tracer.span("control-plane.roll", 0, NO_OP, |_| {
                    load.published.roll(load.server)
                }),
                None => load.published.roll(load.server),
            }
        }
        let req = load.requests[(index % load.requests.len() as u64) as usize];
        let cached_tag = match req {
            Req::SafePoint(board) => cache.get(&board).map(|(tag, _)| tag.clone()),
            _ => None,
        };
        let bytes = request_bytes(req, cached_tag.as_deref());
        let min_version = load.published.pin(id);
        let traced = load.tracer.filter(|_| index.is_multiple_of(TRACE_EVERY));
        let version_before = traced.map(|_| load.server.state.snapshot().version);
        let t0 = Instant::now();
        let reply = match (&mut conn, traced) {
            (Some(c), None) => c.send(&bytes).map(|reply| (reply, None)),
            (Some(c), Some(tracer)) => tracer.span(OP_SPAN, 0, index, |root| {
                let reply = tracer.span("control-plane.wire", root, index, |_| c.send(&bytes));
                let local = in_process(tracer, root, index, &load.server.router, &bytes, req);
                reply.map(|reply| (reply, Some(local)))
            }),
            (None, _) => Err(io::ErrorKind::NotConnected.into()),
        };
        let secs = t0.elapsed().as_secs_f64();
        let ok = match reply {
            Ok((reply, local)) => {
                let same_snapshot = version_before == Some(load.server.state.snapshot().version);
                let agrees = local.is_none_or(|local| agree(&local, &reply, req, same_snapshot));
                let checked = check(
                    load,
                    req,
                    cached_tag,
                    reply,
                    min_version,
                    &mut cache,
                    &mut tally,
                );
                agrees && checked
            }
            Err(_) => {
                conn = Conn::open(addr).ok();
                false
            }
        };
        load.published.pinned[id].store(u64::MAX, Ordering::SeqCst);
        tally.requests += 1;
        tally.failed += u64::from(!ok);
        if load.tracer.is_none() || traced.is_some() {
            latencies.offer((secs as f32, slice));
        }
    }
    (latencies.kept, tally)
}

/// Checks one reply; updates the lookup cache and tallies.
fn check(
    load: &Load<'_>,
    req: Req,
    sent_tag: Option<String>,
    reply: Reply,
    min_version: u64,
    cache: &mut HashMap<u32, (String, Vec<u8>)>,
    tally: &mut Tally,
) -> bool {
    let server = load.server;
    match req {
        Req::SafePoint(board) => {
            tally.lookups += 1;
            tally.misses += u64::from(sent_tag.is_none());
            let Some(version) = reply.etag.as_deref().and_then(tag_version) else {
                return false;
            };
            if version < min_version {
                return false; // stale read
            }
            match reply.status {
                304 => {
                    tally.not_modified += 1;
                    sent_tag.is_some() && reply.etag == sent_tag
                }
                200 => {
                    let want = load.published.body(version, board);
                    let ok = matches!(&want, Some(Some(body)) if body.as_bytes() == reply.body);
                    if ok {
                        cache.insert(board, (reply.etag.unwrap_or_default(), reply.body));
                    }
                    ok
                }
                _ => false,
            }
        }
        Req::Status => reply.status == 200 && reply.body == server.status.as_bytes(),
        Req::Campaign(id) => {
            reply.status == 200
                && server
                    .records
                    .get(id as usize)
                    .is_some_and(|r| r.as_bytes() == reply.body)
        }
        // Per-route request series appear only once a request completed;
        // the connection counter is always exported.
        Req::Metrics => {
            reply.status == 200
                && String::from_utf8_lossy(&reply.body).contains("control_plane_connections_total")
        }
    }
}

/// Whether the in-process reply agrees with the wire's: status and body,
/// unless a roll moved the snapshot between them. `/metrics` counts
/// requests, so only its status can agree.
fn agree(local: &Response, wire: &Reply, req: Req, same_snapshot: bool) -> bool {
    match req {
        Req::Metrics => local.status == wire.status,
        _ if !same_snapshot => true,
        _ => local.status == wire.status && local.body == wire.body,
    }
}

/// The same request through the router in process, with spans around
/// `parse_request`, `Router::handle` and `Response::encode`.
fn in_process(
    tracer: &Tracer,
    root: u64,
    op: u64,
    router: &Router,
    bytes: &[u8],
    req: Req,
) -> Response {
    let limits = Limits::default();
    let parsed = tracer.span("control-plane.parse", root, op, |_| {
        parse_request(bytes, &limits)
    });
    let Ok(Parsed::Complete { request, .. }) = parsed else {
        return Response::error(400, "benchmark request did not parse");
    };
    let response = tracer.span(req.handle_span(), root, op, |_| router.handle(&request));
    tracer.span("control-plane.encode", root, op, |_| response.encode());
    response
}

/// Runs `CLIENTS` controllers for `seconds` (and at least [`MIN_OPS`]
/// traced requests' worth) over request indices from 0 (a traced phase
/// replays the untraced phase's requests), slice by slice.
fn phase(load: &Load<'_>, seconds: f64) -> (Phase, Tally) {
    load.next.store(0, Ordering::SeqCst);
    crate::heap::reset_peak();
    let host_before = HostSample::read();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let pacer = &Pacer::new(CLIENTS, load.roll_every);
    let ((walls, passes), results) = thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|id| scope.spawn(move || client(load, id, Some(pacer), u64::MAX)))
            .collect();
        let slices = pacer.run(deadline, load.next, MIN_OPS as u64 * TRACE_EVERY);
        let results: Vec<(Vec<(f32, u32)>, Tally)> = handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect();
        (slices, results)
    });
    let scales: Vec<f64> = (0..passes.len())
        .map(|k| reference::scale(&passes, k))
        .collect();
    let mut op_secs = Vec::new();
    let mut op_scale = Vec::new();
    let mut tally = Tally::default();
    // Each client's samples in time order, one client after the other:
    // every interleaved set spans the whole phase on every connection.
    let per_client = SAMPLES / CLIENTS;
    for (latencies, t) in results {
        let n = latencies.len();
        let picks: Vec<(f32, u32)> = if load.tracer.is_some() || n <= per_client {
            latencies
        } else {
            (0..per_client)
                .map(|j| latencies[j * n / per_client])
                .collect()
        };
        for (secs, slice) in picks {
            op_secs.push(f64::from(secs));
            op_scale.push(scales[slice as usize]);
        }
        tally.requests += t.requests;
        tally.failed += t.failed;
        tally.lookups += t.lookups;
        tally.not_modified += t.not_modified;
        tally.misses += t.misses;
    }
    let phase = Phase {
        op_secs,
        op_scale,
        tail_sets: TAIL_SETS,
        attempted: tally.requests,
        failed: tally.failed,
        work: tally.requests,
        wall_s: walls.iter().sum(),
        scaled_wall_s: walls.iter().zip(&scales).map(|(w, k)| w * k).sum(),
        reference_s: passes,
        host_before,
        host_after: HostSample::read(),
        heap_peak_mb: crate::heap::peak_mb(),
        ..Phase::default()
    };
    (phase, tally)
}

pub fn run(ctx: &Ctx<'_>) -> WorkloadRun {
    let sizes = sizes(ctx.scale);
    let campaign_s = std::cell::RefCell::new(Vec::new());
    let (setup, (server, requests, warmup_failed)) = repeated_setup(|rep| {
        let requests = trace_requests(ctx.seed, sizes.boards, TRACE_SECONDS);
        let warmup = trace_requests(mix(WARMUP_SEED, WARMUP_BASE), sizes.boards, 5.0);
        let server = boot(ctx.seed, sizes.boards, rep);
        campaign_s.borrow_mut().push(server.campaign_s);
        let published = Published::new(&server);
        let next = AtomicU64::new(0);
        let load = Load {
            server: &server,
            published: &published,
            requests: &warmup,
            next: &next,
            roll_every: Duration::MAX,
            tracer: None,
        };
        // Warm-up: `warmup` requests per connection, untimed but checked.
        let failed: u64 = thread::scope(|scope| {
            let clients: Vec<_> = (0..CLIENTS)
                .map(|id| {
                    let load = &load;
                    scope.spawn(move || client(load, id, None, sizes.warmup * CLIENTS as u64))
                })
                .collect();
            clients
                .into_iter()
                .map(|c| c.join().expect("warm-up client panicked").1.failed)
                .sum()
        });
        (server, requests, failed)
    });

    let mut run = WorkloadRun {
        setup_s: setup.scaled,
        setup_wall_s: setup.wall,
        work_unit: "requests",
        fingerprints: vec![(0, server.fingerprint)],
        ..WorkloadRun::default()
    };
    if warmup_failed > 0 {
        run.setup_failures.push(format!(
            "{warmup_failed} warm-up requests failed their checks"
        ));
    }
    if !ctx.fingerprint_ok(0, server.fingerprint) {
        run.setup_failures.push(format!(
            "published lookups, records and status fingerprint {:016x} differs from the recorded one",
            server.fingerprint
        ));
    }
    let published = Published::new(&server);
    let next = AtomicU64::new(0);
    let mut load = Load {
        server: &server,
        published: &published,
        requests: &requests,
        next: &next,
        roll_every: sizes.roll_every,
        tracer: None,
    };
    let seconds = if ctx.trace {
        ctx.seconds / 2.0
    } else {
        ctx.seconds
    };
    run.measured = phase(&load, seconds).0;
    if !ctx.trace {
        return run;
    }

    let tracer = Tracer::default();
    load.tracer = Some(&tracer);
    let (traced, tally) = phase(&load, seconds);
    let spans = tracer.spans();
    let a = analyze(&spans);
    let us = |name: &str| a.get(name).mean(1e3);
    let handle_ns: u64 = [
        "control-plane.handle.safe-point",
        "control-plane.handle.status",
        "control-plane.handle.campaigns",
        "control-plane.handle.metrics",
    ]
    .iter()
    .map(|n| a.get(n).total_ns)
    .sum();
    let wire = a.get("control-plane.wire");
    let in_process_ns =
        a.get("control-plane.parse").total_ns + handle_ns + a.get("control-plane.encode").total_ns;
    let lookups = tally.lookups.max(1) as f64;
    run.layers = vec![
        ("control-plane.parse_us", us("control-plane.parse")),
        (
            "control-plane.handle_us.safe-point",
            us("control-plane.handle.safe-point"),
        ),
        (
            "control-plane.handle_us.status",
            us("control-plane.handle.status"),
        ),
        (
            "control-plane.handle_us.campaigns",
            us("control-plane.handle.campaigns"),
        ),
        (
            "control-plane.handle_us.metrics",
            us("control-plane.handle.metrics"),
        ),
        ("control-plane.encode_us", us("control-plane.encode")),
        (
            "control-plane.transport_us",
            (wire.total_ns as f64 - in_process_ns as f64) / wire.count.max(1) as f64 / 1e3,
        ),
        (
            "control-plane.roll_ms",
            a.get("control-plane.roll").mean(1e6),
        ),
        ("fleet.campaign_s", median(&campaign_s.borrow())),
        ("fleet.journal_bytes", server.journal_bytes as f64),
        (
            "control-plane.not_modified_ratio",
            tally.not_modified as f64 / lookups,
        ),
        ("control-plane.miss_ratio", tally.misses as f64 / lookups),
    ];
    run.traced = Some(traced);
    run.spans = spans;
    run
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_sampler_keeps_evenly_spaced_samples_in_fixed_memory() {
        let mut sampler = Sampler::<f32>::new(8);
        let capacity = sampler.kept.capacity();
        for i in 0..100u16 {
            sampler.offer(f32::from(i));
        }
        // Stride 16 after three halvings: offers 0, 16, …, 96.
        assert_eq!(sampler.kept, [0.0, 16.0, 32.0, 48.0, 64.0, 80.0, 96.0]);
        assert_eq!(sampler.kept.capacity(), capacity, "never reallocates");
        let mut short = Sampler::<f32>::new(8);
        for i in 0..5u16 {
            short.offer(f32::from(i));
        }
        assert_eq!(short.kept, [0.0, 1.0, 2.0, 3.0, 4.0]);
    }
}
