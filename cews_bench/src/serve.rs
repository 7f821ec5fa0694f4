//! `serve_open`: open-loop `vc_serve` at a fixed Poisson rate.
//!
//! Online scheduling, latency-bound at batch sizes of one or two. The
//! daemon runs in-process on loopback TCP with its default configuration
//! and a checkpoint built during set-up. One generator thread sends over
//! two connections on a seeded Poisson schedule whether or not earlier
//! replies have come back; latency runs from each request's due time.

use crate::report::{
    arena_held_mib, complete, metric, peak_rss_mib, Outcome, END_TO_END, PER_LAYER,
};
use crate::stats::{derive_seed, median, percentile, windowed_percentile, Answered, InFlight};
use crate::Run;
use drl_cews::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::net::TcpStream;
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};
use vc_env::prelude::*;
use vc_nn::prelude::*;
use vc_rl::prelude::*;
use vc_serve::batcher::{apply_snapshot, BATCH_OCCUPANCY_BOUNDS};
use vc_serve::prelude::*;
use vc_serve::protocol::{
    decode_request, decode_response, encode_request, encode_response, read_frame, write_frame,
};
use vc_telemetry::Telemetry;

/// Offered load over all connections, requests per second.
const RATE: f64 = 1000.0;
/// Client connections.
const CONNS: usize = 2;
/// Daemon start-ups timed per run.
const SETUPS: usize = 9;
/// Closed-loop requests per connection before the timed loop.
const WARMUP: usize = 50;
/// Closed-loop pings in the traced run.
const PINGS: usize = 2000;
/// Requests whose server-side calls the traced run replays.
const REPLAYS: usize = 2000;
/// Length of the windows whose p99s are combined into the tail metric.
const WINDOW_S: f64 = 2.0;
/// How long to wait for the last replies once everything is sent.
const DRAIN: Duration = Duration::from_secs(5);

/// A `paper_default` DRL-CEWS trainer's v2 checkpoint.
fn checkpoint(seed: u64) -> Result<Vec<u8>, String> {
    let mut env = EnvConfig::paper_default();
    env.seed = derive_seed(seed, 21);
    let mut cfg = TrainerConfig::drl_cews(env);
    cfg.num_employees = 2;
    cfg.seed = derive_seed(seed, 22);
    let mut trainer = Trainer::new(cfg).map_err(|e| format!("trainer: {e}"))?;
    Ok(trainer.checkpoint_v2().map_err(|e| format!("checkpoint: {e}"))?.to_vec())
}

/// Request `k` of connection `conn`: a random snapshot of 2 workers and 200
/// PoI levels, reproducible on its own from the seed.
fn request(seed: u64, conn: usize, k: usize) -> ScheduleRequest {
    let mut rng = StdRng::seed_from_u64(derive_seed(derive_seed(seed, 40 + conn as u64), k as u64));
    let workers = (0..2)
        .map(|_| WorkerState {
            x: rng.gen_range(0.0..16.0),
            y: rng.gen_range(0.0..16.0),
            energy: rng.gen_range(0.0..40.0),
        })
        .collect();
    let poi_data = (0..200).map(|_| rng.gen_range(0.0..1.0)).collect();
    ScheduleRequest { id: (k * CONNS + conn) as u64, deadline_ms: 0, workers, poi_data }
}

/// Poisson arrival times of one connection over `seconds`.
fn arrivals(seed: u64, conn: usize, seconds: f64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(derive_seed(seed, 30 + conn as u64));
    let rate = RATE / CONNS as f64;
    let mut t = 0.0;
    let mut due = Vec::new();
    loop {
        t += -(1.0 - rng.gen::<f64>()).ln() / rate;
        if t > seconds {
            return due;
        }
        due.push(t);
    }
}

/// A started daemon and its client connections.
struct Daemon {
    server: Server,
    conns: Vec<TcpStream>,
}

/// Checkpoint → artifact, daemon start, and connect: the timed set-up.
fn start(ckpt: &[u8], telemetry: Telemetry) -> Result<(Daemon, f64), String> {
    let t = Instant::now();
    let artifact = PolicyArtifact::from_bytes(ckpt).map_err(|e| format!("artifact: {e}"))?;
    let server =
        Server::start(artifact, ServeConfig::default(), telemetry, Some("127.0.0.1:0"), None)
            .map_err(|e| format!("daemon start: {e}"))?;
    let addr = server.tcp_addr().ok_or("daemon has no TCP address")?;
    let mut conns = Vec::new();
    for _ in 0..CONNS {
        let s = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
        s.set_nodelay(true).map_err(|e| format!("nodelay: {e}"))?;
        conns.push(s);
    }
    Ok((Daemon { server, conns }, t.elapsed().as_secs_f64()))
}

impl Daemon {
    /// Closes the connections, then drains and joins the daemon.
    fn stop(self) {
        drop(self.conns);
        let _ = self.server.shutdown(Duration::from_secs(2));
    }
}

/// One closed-loop exchange on a blocking stream.
fn exchange(stream: &mut TcpStream, req: &Request) -> Result<Response, String> {
    stream.set_read_timeout(Some(DRAIN)).map_err(|e| e.to_string())?;
    write_frame(stream, &encode_request(req)).map_err(|e| format!("send: {e}"))?;
    let payload = read_frame(stream).map_err(|e| format!("receive: {e}"))?;
    decode_response(&payload).ok_or_else(|| "undecodable reply".to_owned())
}

/// Untimed closed-loop traffic so threads, caches and arenas are warm.
fn warm_up(d: &mut Daemon, seed: u64) -> Result<(), String> {
    for (c, stream) in d.conns.iter_mut().enumerate() {
        for k in 0..WARMUP {
            let mut req = request(seed ^ 0x5741_524d, c, k);
            req.id = u64::MAX - k as u64;
            match exchange(stream, &Request::Schedule(req))? {
                Response::Schedule(_) => {}
                other => return Err(format!("warm-up reply {other:?}")),
            }
        }
    }
    Ok(())
}

/// What one connection's reply reader saw.
#[derive(Default)]
struct ConnLog {
    answered: Vec<Answered>,
    queued_ms: Vec<f64>,
    scheduled: u64,
    degraded: u64,
    shed: u64,
    problems: Vec<String>,
    end_s: f64,
}

impl ConnLog {
    fn reply(&mut self, payload: &[u8], at_s: f64, in_flight: &mut InFlight) {
        let (id, ok) = match decode_response(payload) {
            Some(Response::Schedule(r)) => {
                let ok = r.actions.len() == 2
                    && r.actions.iter().all(|a| a.move_index < NUM_MOVES as u64)
                    && r.mode == "policy";
                self.degraded += u64::from(r.mode != "policy");
                if !ok {
                    self.problems
                        .push(format!("reply {}: mode {} actions {:?}", r.id, r.mode, r.actions));
                }
                self.queued_ms.push(r.queued_ms);
                (r.id, ok)
            }
            Some(Response::Rejected(e)) => {
                let shed =
                    matches!(e, WireError::QueueFull { .. } | WireError::DeadlineExceeded { .. });
                self.shed += u64::from(shed);
                self.problems.push(format!("rejected: {e:?}"));
                (e.id(), false)
            }
            other => {
                self.problems.push(format!("unexpected reply {other:?}"));
                return;
            }
        };
        match in_flight.answered(id, at_s) {
            Ok(a) => {
                self.answered.push(a);
                self.scheduled += u64::from(ok);
            }
            Err(e) => self.problems.push(e),
        }
    }
}

fn lock(m: &Mutex<InFlight>) -> std::sync::MutexGuard<'_, InFlight> {
    // Every update leaves the queue valid, so a poisoned lock is usable.
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The generator: sends each connection's requests at their due times
/// (seconds after `epoch`), sleeping in between, whether or not earlier
/// replies have come back. Each request is encoded before its due time and
/// recorded as in flight before it is written, so its reply cannot
/// overtake the record.
fn generate(
    mut streams: Vec<TcpStream>,
    epoch: Instant,
    dues: &[Vec<f64>],
    in_flight: &[Mutex<InFlight>],
    make: impl Fn(usize, usize) -> (u64, Vec<u8>),
) -> Result<(), String> {
    let mut order: Vec<(f64, usize, usize)> = dues
        .iter()
        .enumerate()
        .flat_map(|(c, due)| due.iter().enumerate().map(move |(k, &t)| (t, c, k)))
        .collect();
    order.sort_by(|a, b| a.0.total_cmp(&b.0));
    for (due, c, k) in order {
        let (id, payload) = make(c, k);
        let wait = due - epoch.elapsed().as_secs_f64();
        if wait > 0.0 {
            std::thread::sleep(Duration::from_secs_f64(wait));
        }
        lock(&in_flight[c]).sent(id, due, epoch.elapsed().as_secs_f64());
        write_frame(&mut streams[c], &payload).map_err(|e| format!("send: {e}"))?;
    }
    Ok(())
}

/// A connection's reply reader: blocks until each of the `n` replies
/// arrives and matches it to its request.
fn collect(
    mut stream: TcpStream,
    epoch: Instant,
    n: usize,
    in_flight: &Mutex<InFlight>,
) -> ConnLog {
    let mut log = ConnLog::default();
    if let Err(e) = stream.set_read_timeout(Some(DRAIN)) {
        log.problems.push(e.to_string());
        return log;
    }
    for _ in 0..n {
        match read_frame(&mut stream) {
            Ok(payload) => {
                let at = epoch.elapsed().as_secs_f64();
                log.reply(&payload, at, &mut lock(in_flight));
            }
            Err(e) => {
                log.problems.push(format!("{} of {n} replies, then: {e}", log.answered.len()));
                break;
            }
        }
    }
    log.end_s = epoch.elapsed().as_secs_f64();
    log
}

/// The merged result of one open-loop phase.
struct Phase {
    latency_ms: Vec<f64>,
    /// Latencies grouped into consecutive [`WINDOW_S`] windows of due time.
    windows: Vec<Vec<f64>>,
    late_ms: Vec<f64>,
    queued_ms: Vec<f64>,
    overtaken: u64,
    sent: u64,
    scheduled: u64,
    degraded: u64,
    shed: u64,
    wall_s: f64,
}

/// Runs the open loop for `seconds` over the daemon's connections: one
/// generator thread sends on all of them, one reader per connection
/// collects the replies.
fn open_loop(d: &Daemon, seed: u64, seconds: f64, out: &mut Outcome) -> Result<Phase, String> {
    let lead = 0.01;
    let dues: Vec<Vec<f64>> = (0..d.conns.len())
        .map(|c| arrivals(seed, c, seconds).into_iter().map(|t| t + lead).collect())
        .collect();
    let clone = |s: &TcpStream| s.try_clone().map_err(|e| e.to_string());
    let senders = d.conns.iter().map(clone).collect::<Result<Vec<_>, _>>()?;
    let readers = d.conns.iter().map(clone).collect::<Result<Vec<_>, _>>()?;
    let in_flight: Vec<Mutex<InFlight>> = d.conns.iter().map(|_| Mutex::default()).collect();
    let epoch = Instant::now();
    let (sent, logs) = std::thread::scope(|s| {
        let collectors: Vec<_> = readers
            .into_iter()
            .zip(&dues)
            .zip(&in_flight)
            .map(|((stream, due), q)| s.spawn(move || collect(stream, epoch, due.len(), q)))
            .collect();
        let sent = generate(senders, epoch, &dues, &in_flight, |c, k| {
            let req = request(seed, c, k);
            (req.id, encode_request(&Request::Schedule(req)))
        });
        let logs: Vec<ConnLog> = collectors
            .into_iter()
            .map(|h| {
                h.join().unwrap_or_else(|_| ConnLog {
                    problems: vec!["reader panicked".into()],
                    ..ConnLog::default()
                })
            })
            .collect();
        (sent, logs)
    });
    sent?;
    let mut p = Phase {
        latency_ms: Vec::new(),
        windows: vec![Vec::new(); ((seconds / WINDOW_S) as usize).max(1)],
        late_ms: Vec::new(),
        queued_ms: Vec::new(),
        overtaken: 0,
        sent: dues.iter().map(|d| d.len() as u64).sum(),
        scheduled: 0,
        degraded: 0,
        shed: 0,
        wall_s: 0.0,
    };
    for log in logs {
        p.latency_ms.extend(log.answered.iter().map(|a| a.latency_ms));
        for a in &log.answered {
            // A trailing part-window is left out of the windowed tail.
            if let Some(w) = p.windows.get_mut(((a.due_s - lead) / WINDOW_S) as usize) {
                w.push(a.latency_ms);
            }
        }
        p.late_ms.extend(log.answered.iter().map(|a| a.late_ms));
        p.overtaken += log.answered.iter().filter(|a| a.overtaken).count() as u64;
        p.queued_ms.extend(log.queued_ms);
        p.scheduled += log.scheduled;
        p.degraded += log.degraded;
        p.shed += log.shed;
        p.wall_s = p.wall_s.max(log.end_s - lead);
        out.problems.extend(log.problems);
    }
    out.attempted += p.sent;
    out.failed += p.sent - p.scheduled;
    let (sent, answered) = (p.sent, p.latency_ms.len() as u64);
    out.check(sent == answered, || format!("{answered} replies to {sent} requests"));
    Ok(p)
}

/// Runs the workload.
pub fn run(run: Run) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let ckpt = checkpoint(run.seed)?;
    let mut setup = Vec::new();
    let mut daemon = None;
    for _ in 0..SETUPS {
        let (d, s) = start(&ckpt, Telemetry::off())?;
        setup.push(s);
        if let Some(old) = daemon.replace(d) {
            Daemon::stop(old);
        }
    }
    let mut d = daemon.ok_or("no daemon")?;
    warm_up(&mut d, run.seed)?;
    let base_s = if run.trace { run.seconds / 3.0 } else { run.seconds };
    let base = open_loop(&d, run.seed, base_s, &mut out)?;
    d.stop();
    if run.trace {
        return traced(run, &ckpt, &base, out);
    }
    let p50 = percentile(&base.latency_ms, 50.0)?;
    let p99 = windowed_percentile(&base.windows, 99.0)?;
    let late = percentile(&base.late_ms, 99.0)?;
    out.notes.push(format!("generator late p99 {:.4} ms", late.value));
    out.metrics = complete(
        END_TO_END,
        vec![
            metric(
                "setup_s",
                "s",
                median(&setup),
                setup.len(),
                "checkpoint -> artifact, daemon start, 2 connects",
            ),
            metric("peak_rss_mb", "MiB", peak_rss_mib().unwrap_or(f64::NAN), 1, "VmHWM"),
            metric(
                "work_per_s",
                "1/s",
                base.scheduled as f64 / base.wall_s,
                base.latency_ms.len(),
                "schedules answered per second at 1000 req/s offered",
            ),
            metric(
                "op_ms_p50",
                "ms",
                p50.value,
                p50.samples,
                "serve.latency_ms_p50, due time -> reply",
            ),
            metric(
                "op_ms_tail",
                "ms",
                p99.value,
                p99.samples,
                format!(
                    "serve.latency_ms_p99, median of {} {WINDOW_S} s windows' ({} beyond)",
                    base.windows.len(),
                    p99.beyond
                ),
            ),
        ],
    )?;
    Ok(out)
}

/// Counter and histogram readings of the traced daemon.
fn daemon_tallies(t: &Telemetry) -> (u64, f64, u64) {
    let occupancy = t.histogram("serve_batch_occupancy", &BATCH_OCCUPANCY_BOUNDS).snapshot();
    (occupancy.count, occupancy.sum, t.counter("serve_degraded_batches_total").get())
}

fn traced(run: Run, ckpt: &[u8], base: &Phase, mut out: Outcome) -> Result<Outcome, String> {
    let telemetry = Telemetry::new();
    let (mut d, _) = start(ckpt, telemetry.clone())?;
    warm_up(&mut d, run.seed)?;
    set_kernel_telemetry(true);
    let mut rtt_ms = Vec::with_capacity(PINGS);
    for _ in 0..PINGS {
        let t = Instant::now();
        let reply = exchange(&mut d.conns[0], &Request::Ping)?;
        rtt_ms.push(t.elapsed().as_secs_f64() * 1e3);
        out.check(reply == Response::Pong, || format!("ping answered {reply:?}"));
    }
    let before = daemon_tallies(&telemetry);
    let phase = open_loop(&d, run.seed, run.seconds / 3.0, &mut out)?;
    let after = daemon_tallies(&telemetry);
    set_kernel_telemetry(false);
    d.stop();

    let replay = replay(run.seed, ckpt)?;
    let lat = percentile(&phase.latency_ms, 50.0)?;
    let lat99 = percentile(&phase.latency_ms, 99.0)?;
    let q50 = percentile(&phase.queued_ms, 50.0)?;
    let q99 = percentile(&phase.queued_ms, 99.0)?;
    let late = percentile(&phase.late_ms, 99.0)?;
    let rtt = percentile(&rtt_ms, 50.0)?;
    let accounted = rtt.value
        + q50.value
        + (replay.codec_us + replay.make_env_us + replay.snapshot_us + replay.forward_us) / 1e3;
    let residual = lat.value - accounted;
    out.notes.push(format!(
        "latency p50 {:.4} ms = ping {:.4} + codec {:.4} + queue {:.4} + make_env {:.4} + snapshot {:.4} + forward {:.4} + residual {:.4} (socket and thread hand-off; see vc_serve.overtaken_frac)",
        lat.value, rtt.value, replay.codec_us / 1e3, q50.value, replay.make_env_us / 1e3,
        replay.snapshot_us / 1e3, replay.forward_us / 1e3, residual
    ));
    out.notes
        .push(format!("traced serve.latency_ms_p99 {:.4} ({} beyond)", lat99.value, lat99.beyond));
    out.notes.push(format!(
        "{:.1}% of replies arrived after the next request on their connection was sent",
        100.0 * phase.overtaken as f64 / phase.sent.max(1) as f64
    ));
    let batches = (after.0 - before.0) as f64;
    let sent = phase.sent.max(1) as f64;
    let overhead = lat.value / percentile(&base.latency_ms, 50.0)?.value - 1.0;
    let n = phase.latency_ms.len();
    out.metrics = complete(
        PER_LAYER,
        vec![
            metric(
                "vc_env.encode_us",
                "us",
                replay.encode_us,
                REPLAYS,
                "encode_into of a 2-worker snapshot (replay)",
            ),
            metric(
                "vc_rl.sample_us",
                "us",
                replay.forward_us,
                REPLAYS,
                "sample_actions_batched, greedy B=1 (replay)",
            ),
            metric(
                "drl_cews.make_env_us",
                "us",
                replay.make_env_us,
                REPLAYS,
                "PolicyArtifact::make_env (replay)",
            ),
            metric(
                "vc_serve.snapshot_us",
                "us",
                replay.snapshot_us,
                REPLAYS,
                "env clone + apply_snapshot (replay)",
            ),
            metric(
                "vc_serve.codec_us",
                "us",
                replay.codec_us,
                REPLAYS,
                "encode/decode of request and response (replay)",
            ),
            metric("vc_serve.ping_rtt_ms_p50", "ms", rtt.value, rtt.samples, "Ping round trip"),
            metric("vc_serve.queue_wait_ms_p50", "ms", q50.value, q50.samples, "reply queued_ms"),
            metric(
                "vc_serve.queue_wait_ms_p99",
                "ms",
                q99.value,
                q99.samples,
                format!("reply queued_ms ({} beyond)", q99.beyond),
            ),
            metric(
                "vc_serve.batch_size_mean",
                "requests",
                (after.1 - before.1) / batches,
                batches as usize,
                "serve_batch_occupancy mean",
            ),
            metric(
                "vc_serve.degraded_frac",
                "ratio",
                phase.degraded as f64 / sent,
                n,
                "replies in greedy mode",
            ),
            metric(
                "vc_serve.overtaken_frac",
                "ratio",
                phase.overtaken as f64 / sent,
                n,
                "replies arriving after the next request was sent",
            ),
            metric(
                "vc_serve.shed_frac",
                "ratio",
                phase.shed as f64 / sent,
                n,
                "QueueFull or DeadlineExceeded",
            ),
            metric(
                "vc_baselines.greedy_batches",
                "count",
                (after.2 - before.2) as f64,
                batches as usize,
                "serve_degraded_batches_total",
            ),
            metric(
                "serve.generator_late_ms_p99",
                "ms",
                late.value,
                late.samples,
                "send time - due time",
            ),
            metric(
                "vc_nn.gemm_calls",
                "calls/op",
                replay.gemm_calls,
                REPLAYS,
                "GEMM dispatches per B=1 forward",
            ),
            metric(
                "vc_nn.gemm_gflop",
                "GFLOP/op",
                replay.gemm_gflop,
                REPLAYS,
                "GEMM GFLOP per B=1 forward",
            ),
            metric(
                "vc_nn.arena_hit_frac",
                "ratio",
                replay.arena_hit_frac,
                REPLAYS,
                "arena hits / takes in a forward",
            ),
            metric(
                "vc_nn.arena_held_mb",
                "MiB",
                arena_held_mib(),
                1,
                "bytes parked in the tensor arenas at the end",
            ),
            metric("trace_overhead_frac", "ratio", overhead, n, "latency p50, telemetry on vs off"),
            metric(
                "unaccounted_frac",
                "ratio",
                residual / lat.value,
                n,
                "latency p50 residual after the split (not gated)",
            ),
            metric(
                "failed_frac",
                "ratio",
                out.failed as f64 / out.attempted.max(1) as f64,
                out.attempted as usize,
                "requests not answered with a schedule",
            ),
        ],
    )?;
    Ok(out)
}

/// Median per-request cost of the daemon's own calls, replayed on one
/// thread against the same artifact and generated requests.
struct Replay {
    make_env_us: f64,
    snapshot_us: f64,
    encode_us: f64,
    forward_us: f64,
    codec_us: f64,
    gemm_calls: f64,
    gemm_gflop: f64,
    arena_hit_frac: f64,
}

fn replay(seed: u64, ckpt: &[u8]) -> Result<Replay, String> {
    let artifact = PolicyArtifact::from_bytes(ckpt).map_err(|e| format!("artifact: {e}"))?;
    let opts = PolicyOptions { mode: SampleMode::Greedy, mask_invalid: artifact.mask_invalid };
    let mut rng = StdRng::seed_from_u64(derive_seed(seed, 23));
    let mut times = [(); 5].map(|()| Vec::with_capacity(REPLAYS));
    let mut buf = Vec::new();
    set_kernel_telemetry(true);
    let (k0, a0) = (kernel_counters(), arena_stats());
    for k in 0..REPLAYS {
        let req = request(seed, k % CONNS, k / CONNS);
        let t = Instant::now();
        let base = artifact.make_env().map_err(|e| e.to_string())?;
        times[0].push(t.elapsed().as_secs_f64());

        let t = Instant::now();
        let mut env = base.clone();
        apply_snapshot(&mut env, &req);
        times[1].push(t.elapsed().as_secs_f64());

        buf.clear();
        let t = Instant::now();
        encode_into(&env, &mut buf);
        times[2].push(t.elapsed().as_secs_f64());

        let t = Instant::now();
        let sampled =
            sample_actions_batched(&artifact.net, &artifact.store, &[&env], opts, &mut rng);
        times[3].push(t.elapsed().as_secs_f64());

        let t = Instant::now();
        let id = req.id;
        let wire = encode_request(&Request::Schedule(req));
        let decoded = decode_request(&wire);
        let actions = sampled[0]
            .actions
            .iter()
            .map(|a| ActionOut { move_index: a.movement.index() as u64, charge: a.charge })
            .collect();
        let reply = Response::Schedule(ScheduleReply {
            id,
            mode: "policy".into(),
            actions,
            queued_ms: 0.25,
        });
        let back = decode_response(&encode_response(&reply));
        times[4].push(t.elapsed().as_secs_f64());
        if decoded.is_none() || back != Some(reply) {
            return Err(format!("codec round trip of request {id} failed"));
        }
    }
    let (k1, a1) = (kernel_counters(), arena_stats());
    set_kernel_telemetry(false);
    let us = |v: &Vec<f64>| median(v) * 1e6;
    let hits = (a1.hits - a0.hits) as f64;
    let misses = (a1.misses - a0.misses) as f64;
    Ok(Replay {
        make_env_us: us(&times[0]),
        snapshot_us: us(&times[1]),
        encode_us: us(&times[2]),
        forward_us: us(&times[3]),
        codec_us: us(&times[4]),
        gemm_calls: (k1.gemm_calls - k0.gemm_calls) as f64 / REPLAYS as f64,
        gemm_gflop: (k1.gemm_flops - k0.gemm_flops) as f64 / REPLAYS as f64 / 1e9,
        arena_hit_frac: hits / (hits + misses),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_derive_from_the_seed_alone() {
        assert_eq!(arrivals(5, 0, 2.0), arrivals(5, 0, 2.0));
        assert_ne!(arrivals(5, 0, 2.0), arrivals(5, 1, 2.0));
        assert_ne!(arrivals(5, 0, 2.0), arrivals(6, 0, 2.0));
        assert_eq!(request(5, 1, 9), request(5, 1, 9));
        assert_ne!(request(5, 1, 9).poi_data, request(6, 1, 9).poi_data);
        let r = request(5, 1, 9);
        assert_eq!((r.id, r.workers.len(), r.poi_data.len()), (19, 2, 200));
    }

    #[test]
    fn arrivals_hold_the_offered_rate() {
        let due = arrivals(3, 0, 20.0);
        let rate = due.len() as f64 / 20.0;
        let want = RATE / CONNS as f64;
        assert!((rate - want).abs() < 0.05 * want, "{rate} req/s vs {want}");
        assert!(due.windows(2).all(|w| w[0] < w[1]));
    }
}
