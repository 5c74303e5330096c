//! One measured run of one workload: repeated fresh set-ups, the timed
//! phase, the correctness check, and the end-to-end metrics.

use std::fs::File;
use std::io::{self, BufReader};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use aalign_bio::alphabet::PROTEIN;
use aalign_bio::matrices::BLOSUM62;
use aalign_bio::{SeqDatabase, Sequence};
use aalign_core::{AlignConfig, Aligner, GapModel};
use aalign_obs::wire::JsonValue;
use aalign_par::wire::report_from_wire;
use aalign_par::{EngineHandle, SearchOptions, SearchReport};
use aalign_serve::SearchRequest;
use aalign_shard::{ShardOptions, ShardQuery, Supervisor, WorkerCommand};

use crate::check::References;
use crate::client::{http, peak_rss_mb, Daemon};
use crate::inputs::{read_requests, Request, Workload, TOP_N};
use crate::stats::{median, p90};
use crate::trace::Tracer;

/// Set-ups per window: at least `MIN`, at most `MAX`, and no new one
/// once `SETUP_BUDGET` has been spent. Each run has two windows.
const SETUPS_MIN: usize = 8;
const SETUPS_MAX: usize = 80;
const SETUP_BUDGET: Duration = Duration::from_millis(2000);
/// Pause between set-ups. A set-up takes a few milliseconds, and on a
/// shared host the CPU's speed shifts in spells of tens to hundreds of
/// milliseconds, by up to 1.8× on a search set-up; spacing the set-ups
/// out, in two windows of up to two seconds ten seconds apart, samples
/// many spells instead of one or two.
const SETUP_GAP: Duration = Duration::from_millis(25);

/// A closed loop keeps going past `--seconds` until it has this many
/// requests, so its p90 always has ten samples beyond it.
const MIN_REQUESTS: usize = 100;

/// Client connections (and sender threads) of the open loop.
const CONNECTIONS: usize = 2;

/// What one run needs to know.
#[derive(Debug)]
pub struct Ctx {
    pub workload: Workload,
    pub inputs: PathBuf,
    pub out: PathBuf,
    pub seconds: f64,
    pub aalign: PathBuf,
    pub threads: usize,
}

impl Ctx {
    pub fn db_path(&self) -> PathBuf {
        self.inputs.join("db.fa")
    }
}

/// The aligner configuration `aalign serve` runs by default.
pub fn align_config() -> AlignConfig {
    AlignConfig::local(GapModel::affine(-10, -2), &BLOSUM62)
}

/// An in-process search stack, ready to answer.
#[derive(Debug)]
pub struct Local {
    pub db: SeqDatabase,
    pub aligner: Aligner,
    pub engine: EngineHandle,
}

/// inputs on disk → ready: `from_fasta`, certified aligner, pool spawn.
pub fn setup_local(
    db_path: &Path,
    threads: usize,
    tr: &mut Tracer,
    rid: u64,
) -> io::Result<(Local, Duration)> {
    let t0 = Instant::now();
    let span = tr.begin("setup", None, rid);
    let a = Instant::now();
    let db = SeqDatabase::from_fasta(BufReader::new(File::open(db_path)?), &PROTEIN)
        .map_err(io::Error::other)?;
    let b = Instant::now();
    let max_len = db.stats().max_len;
    let aligner = Aligner::new(align_config()).with_certified_bounds(max_len, max_len);
    let c = Instant::now();
    let engine = EngineHandle::new(threads);
    let d = Instant::now();
    tr.record("bio.from_fasta", span, rid, a, b);
    tr.record("core.certify", span, rid, b, c);
    tr.record("par.pool_spawn", span, rid, c, d);
    tr.end(span);
    Ok((
        Local {
            db,
            aligner,
            engine,
        },
        t0.elapsed(),
    ))
}

/// `from_fasta` + `Supervisor::launch` with one engine thread per child.
pub fn setup_shards(
    ctx: &Ctx,
    tr: &mut Tracer,
    rid: u64,
) -> io::Result<(Arc<Supervisor>, Duration)> {
    let t0 = Instant::now();
    let span = tr.begin("setup", None, rid);
    let a = Instant::now();
    let db = SeqDatabase::from_fasta(BufReader::new(File::open(ctx.db_path())?), &PROTEIN)
        .map_err(io::Error::other)?;
    let b = Instant::now();
    let cmd = WorkerCommand::serve_stdio(&ctx.aalign, &["--threads".to_string(), "1".to_string()]);
    let sup = Supervisor::launch(&db, cmd, ShardOptions::new(ctx.threads))?;
    let c = Instant::now();
    tr.record("bio.from_fasta", span, rid, a, b);
    tr.record("shard.launch", span, rid, b, c);
    tr.end(span);
    Ok((sup, t0.elapsed()))
}

/// `aalign serve` exec → first `200` on `/v1/health`.
pub fn setup_daemon(ctx: &Ctx, tr: &mut Tracer, rid: u64) -> io::Result<(Daemon, Duration)> {
    let span = tr.begin("setup", None, rid);
    let a = Instant::now();
    let log = ctx.out.join(format!("daemon-{rid}.log"));
    let (daemon, ready) = Daemon::start(&ctx.aalign, &ctx.db_path(), ctx.threads, &log)?;
    tr.record("serve.daemon_ready", span, rid, a, a + ready);
    tr.end(span);
    Ok((daemon, ready))
}

/// Fresh set-ups in two windows around `phase`, each torn down before
/// the next. The last set-up of the first window is kept: `phase` runs
/// on it, and it is returned with every set-up's duration in seconds and
/// the phase's result.
pub fn around_setups<T, R>(
    tr: &mut Tracer,
    mut setup: impl FnMut(&mut Tracer, u64) -> io::Result<(T, Duration)>,
    mut teardown: impl FnMut(T) -> io::Result<()>,
    phase: impl FnOnce(&mut Tracer, &T) -> R,
) -> io::Result<(T, Vec<f64>, R)> {
    let mut times = Vec::new();
    let mut window =
        |tr: &mut Tracer, times: &mut Vec<f64>, keep_last: bool| -> io::Result<Option<T>> {
            let started = Instant::now();
            let mut n = 0;
            loop {
                let (it, d) = setup(tr, times.len() as u64)?;
                times.push(d.as_secs_f64());
                n += 1;
                let done =
                    n >= SETUPS_MAX || (n >= SETUPS_MIN && started.elapsed() >= SETUP_BUDGET);
                if done && keep_last {
                    return Ok(Some(it));
                }
                teardown(it)?;
                if done {
                    return Ok(None);
                }
                std::thread::sleep(SETUP_GAP);
            }
        };
    let kept = window(tr, &mut times, true)?.expect("the first window keeps its last set-up");
    let result = phase(tr, &kept);
    window(tr, &mut times, false)?;
    Ok((kept, times, result))
}

/// The result of one request of the timed phase.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    pub request: usize,
    pub latency_ms: f64,
    /// Closed loop: gap between the previous response and this send.
    /// Open loop: how late this request was sent against its schedule.
    pub gen_lag_ms: f64,
    pub report: Option<Arc<SearchReport>>,
    pub batched: bool,
    /// Typed refusal (overloaded, draining, quota) or transport error.
    pub refused: bool,
    pub error: Option<String>,
    /// Whether this request was wrapped in spans (traced run only).
    pub traced: bool,
    /// Filled in by the correctness check.
    pub ok: bool,
}

/// The timed phase's raw results.
#[derive(Debug)]
pub struct Phase {
    pub outcomes: Vec<Outcome>,
    pub wall: Duration,
    /// `None` when `/proc` could not be read for any of the processes.
    pub peak_rss_mb: Option<f64>,
}

/// Closed loop with one client: the next request goes out when the
/// previous answer is in.
fn closed_loop(
    ctx: &Ctx,
    reqs: &[Request],
    tr: &mut Tracer,
    span_name: &'static str,
    mut call: impl FnMut(usize) -> Result<SearchReport, String>,
) -> (Vec<Outcome>, Duration) {
    let start = Instant::now();
    let mut last = start;
    let mut outcomes = Vec::new();
    while start.elapsed().as_secs_f64() < ctx.seconds || outcomes.len() < MIN_REQUESTS {
        let i = outcomes.len();
        let traced = tr.enabled() && i % 2 == 1;
        let span = if traced {
            tr.begin("request", None, i as u64)
        } else {
            None
        };
        let t0 = Instant::now();
        let result = call(i % reqs.len());
        let t1 = Instant::now();
        if traced {
            tr.record(span_name, span, i as u64, t0, t1);
        }
        let (report, error) = match result {
            Ok(r) => (Some(Arc::new(r)), None),
            Err(e) => (None, Some(e)),
        };
        outcomes.push(Outcome {
            request: i % reqs.len(),
            latency_ms: (t1 - t0).as_secs_f64() * 1e3,
            gen_lag_ms: (t0 - last).as_secs_f64() * 1e3,
            report,
            error,
            traced,
            ..Outcome::default()
        });
        last = t1;
        tr.end(span);
    }
    (outcomes, last - start)
}

/// The wire request the benchmark sends for one query.
pub fn search_request(query_id: &str, residues: &str) -> SearchRequest {
    let mut q = SearchRequest::new(residues);
    q.query_id = query_id.to_string();
    q.top_n = TOP_N;
    q
}

/// One sender thread's exchanges, spans and last completion time.
type SenderLog = (
    Vec<(Outcome, Result<(u16, String), String>)>,
    Tracer,
    Instant,
);

/// Open loop: requests go out on the seeded schedule from
/// [`CONNECTIONS`] sender threads; latency counts from the scheduled
/// send time, so a late send is charged to the request.
fn open_loop(addr: &str, reqs: &[Request], tr: &mut Tracer) -> (Vec<Outcome>, Duration) {
    let bodies: Vec<String> = reqs
        .iter()
        .map(|r| search_request(&r.query_id, &r.residues).to_wire().render())
        .collect();
    // Traced and untraced requests alternate by arrival, so both
    // requests of a duplicate burst land on the same side.
    let arrival: Vec<usize> = reqs
        .iter()
        .scan((0usize, None), |(n, prev), r| {
            if *prev != Some(r.due_us) {
                *n += 1;
                *prev = Some(r.due_us);
            }
            Some(*n)
        })
        .collect();
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    let (traced, origin) = (tr.enabled(), tr.origin());
    let results: Vec<SenderLog> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|_| {
                let next = &next;
                let (bodies, arrival) = (&bodies, &arrival);
                s.spawn(move || {
                    let mut local = Tracer::new(traced, origin);
                    let mut out = Vec::new();
                    let mut last = start;
                    loop {
                        // ORDER: Relaxed — a ticket counter that
                        // publishes no other data.
                        let k = next.fetch_add(1, Ordering::Relaxed);
                        if k >= reqs.len() {
                            break;
                        }
                        let due = start + Duration::from_micros(reqs[k].due_us);
                        let now = Instant::now();
                        if due > now {
                            std::thread::sleep(due - now);
                        }
                        let is_traced = traced && arrival[k] % 2 == 1;
                        let span = if is_traced {
                            local.begin("request", None, k as u64)
                        } else {
                            None
                        };
                        let sent = Instant::now();
                        let res =
                            http(addr, "POST", "/v1/search", &bodies[k]).map_err(|e| e.to_string());
                        let done = Instant::now();
                        if is_traced {
                            local.record("http.post", span, k as u64, sent, done);
                        }
                        local.end(span);
                        last = last.max(done);
                        out.push((
                            Outcome {
                                request: k,
                                latency_ms: (done - due).as_secs_f64() * 1e3,
                                gen_lag_ms: sent.saturating_duration_since(due).as_secs_f64() * 1e3,
                                traced: is_traced,
                                ..Outcome::default()
                            },
                            res,
                        ));
                    }
                    (out, local, last)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("sender thread panicked"))
            .collect()
    });
    let mut end = start;
    let mut outcomes = Vec::new();
    for (outs, local, last) in results {
        tr.absorb(local);
        end = end.max(last);
        for (mut o, res) in outs {
            decode_http(&mut o, res);
            outcomes.push(o);
        }
    }
    outcomes.sort_by_key(|o| o.request);
    (outcomes, end - start)
}

/// Turn an HTTP exchange into the outcome's report, refusal or error.
fn decode_http(o: &mut Outcome, res: Result<(u16, String), String>) {
    match res {
        Ok((200, body)) => {
            match JsonValue::parse(&body)
                .map_err(|e| e.to_string())
                .and_then(|doc| {
                    let batched = doc.get("batched").and_then(JsonValue::as_bool) == Some(true);
                    report_from_wire(&doc)
                        .map(|r| (r, batched))
                        .map_err(|e| e.to_string())
                }) {
                Ok((r, batched)) => {
                    o.report = Some(Arc::new(r));
                    o.batched = batched;
                }
                Err(e) => o.error = Some(format!("undecodable response: {e}")),
            }
        }
        Ok((status, body)) => {
            o.refused = true;
            o.error = Some(format!("HTTP {status}: {body}"));
        }
        Err(e) => {
            o.refused = true;
            o.error = Some(e);
        }
    }
}

fn parse_queries(reqs: &[Request]) -> io::Result<Vec<Sequence>> {
    reqs.iter()
        .map(|r| {
            Sequence::protein(r.query_id.as_str(), r.residues.as_bytes()).map_err(io::Error::other)
        })
        .collect()
}

/// Everything a run measured, for the metric and ladder stages.
#[derive(Debug)]
pub struct Measured {
    pub requests: Vec<Request>,
    pub queries: Vec<Sequence>,
    pub setup_s: Vec<f64>,
    pub phase: Phase,
    pub local: Local,
    pub daemon: Option<Daemon>,
    pub shards: Option<Arc<Supervisor>>,
    pub mismatches: Vec<String>,
    /// Kernel backends the workload's queries ran on (`backend`, count).
    pub backends: Vec<(String, usize)>,
    pub certified_widths: Vec<u32>,
    /// Reference hits of every distinct query (filled by the check).
    pub refs: References,
}

/// Set up, run the timed phase, then check every answer.
pub fn measure(ctx: &Ctx, tr: &mut Tracer) -> io::Result<Measured> {
    let requests = read_requests(&ctx.inputs, ctx.workload)?;
    let queries = parse_queries(&requests)?;
    let opts = SearchOptions::new().top_n(TOP_N);
    let untraced_local = || {
        setup_local(
            &ctx.db_path(),
            ctx.threads,
            &mut Tracer::new(false, Instant::now()),
            0,
        )
        .map(|(l, _)| l)
    };
    let (phase, setup_s, local, daemon, shards) = match ctx.workload {
        Workload::SearchShort | Workload::SearchLong => {
            let (local, setup_s, phase) = around_setups(
                tr,
                |tr, rid| setup_local(&ctx.db_path(), ctx.threads, tr, rid),
                |l| {
                    drop(l);
                    Ok(())
                },
                |tr, local| {
                    let (outcomes, wall) =
                        closed_loop(ctx, &requests, tr, "par.engine_search", |k| {
                            local
                                .engine
                                .search(&local.aligner, &queries[k], &local.db, &opts)
                                .map_err(|e| e.to_string())
                        });
                    let peak_rss_mb = peak_rss_mb(None);
                    Phase {
                        outcomes,
                        wall,
                        peak_rss_mb,
                    }
                },
            )?;
            (phase, setup_s, local, None, None)
        }
        Workload::ServeOpen => {
            let (daemon, setup_s, phase) = around_setups(
                tr,
                |tr, rid| setup_daemon(ctx, tr, rid),
                Daemon::stop,
                |tr, daemon| {
                    let (outcomes, wall) = open_loop(&daemon.addr, &requests, tr);
                    let peak_rss_mb = peak_rss_mb(Some(daemon.pid()));
                    Phase {
                        outcomes,
                        wall,
                        peak_rss_mb,
                    }
                },
            )?;
            (phase, setup_s, untraced_local()?, Some(daemon), None)
        }
        Workload::ShardSearch => {
            let (sup, setup_s, phase) = around_setups(
                tr,
                |tr, rid| setup_shards(ctx, tr, rid),
                |s| {
                    s.shutdown();
                    Ok(())
                },
                |tr, sup| {
                    let (outcomes, wall) = closed_loop(ctx, &requests, tr, "shard.search", |k| {
                        let r = &requests[k];
                        let q = ShardQuery::new(r.residues.as_str())
                            .top_n(TOP_N)
                            .query_id(r.query_id.as_str());
                        sup.search(&q).map_err(|e| e.to_string())
                    });
                    // Supervisor + every child; one unreadable process
                    // leaves the metric missing.
                    let peak_rss_mb = (0..sup.shards())
                        .map(|i| sup.shard_pid(i).and_then(|p| peak_rss_mb(Some(p))))
                        .chain([peak_rss_mb(None)])
                        .sum::<Option<f64>>();
                    Phase {
                        outcomes,
                        wall,
                        peak_rss_mb,
                    }
                },
            )?;
            (phase, setup_s, untraced_local()?, None, Some(sup))
        }
    };
    let mut m = Measured {
        requests,
        queries,
        setup_s,
        phase,
        local,
        daemon,
        shards,
        mismatches: Vec::new(),
        backends: Vec::new(),
        certified_widths: Vec::new(),
        refs: References::default(),
    };
    check(&mut m).map_err(io::Error::other)?;
    Ok(m)
}

/// The distinct queries of a request list, first-seen order.
pub fn distinct(queries: &[Sequence]) -> Vec<&Sequence> {
    let mut seen: Vec<&Sequence> = Vec::new();
    for q in queries {
        if !seen.iter().any(|s| s.id() == q.id()) {
            seen.push(q);
        }
    }
    seen
}

/// Compute references, then mark each outcome ok or not.
fn check(m: &mut Measured) -> Result<(), String> {
    let qs = distinct(&m.queries);
    let refs = References::compute(
        m.local.aligner.config(),
        &m.local.db,
        &qs,
        m.local.engine.threads(),
    )?;
    for o in &mut m.phase.outcomes {
        let Some(report) = &o.report else { continue };
        if report.partial || !report.errors.is_empty() {
            o.error = Some(format!("partial report: {:?}", report.errors));
            continue;
        }
        match refs.check(m.requests[o.request].query_id.as_str(), &report.hits) {
            Ok(()) => o.ok = true,
            Err(e) => {
                if m.mismatches.len() < 5 {
                    m.mismatches.push(e);
                }
                o.error = Some("hits differ from the reference".to_string());
            }
        }
        if !m.certified_widths.contains(&report.metrics.certified_width) {
            m.certified_widths.push(report.metrics.certified_width);
        }
    }
    m.certified_widths.sort_unstable();
    // Which kernel backend each distinct query actually ran on, taken
    // from its best reference subject with the workload's own aligner.
    for q in &qs {
        let Some(top) = refs.top(q.id()) else {
            continue;
        };
        let out = m
            .local
            .aligner
            .align(q, m.local.db.get(top.db_index))
            .map_err(|e| e.to_string())?;
        match m.backends.iter_mut().find(|(b, _)| *b == out.backend) {
            Some((_, n)) => *n += 1,
            None => m.backends.push((out.backend, 1)),
        }
    }
    m.refs = refs;
    Ok(())
}

/// One reported metric: value (missing when the rule forbids it),
/// unit, and the number of samples behind it.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: Option<f64>,
    pub unit: &'static str,
    pub samples: usize,
}

pub fn metric(
    name: &'static str,
    value: Option<f64>,
    unit: &'static str,
    samples: usize,
) -> Metric {
    Metric {
        name,
        value,
        unit,
        samples,
    }
}

/// The seven end-to-end metrics of a run.
pub fn end_to_end(ctx: &Ctx, m: &Measured) -> Vec<Metric> {
    let outs = &m.phase.outcomes;
    let wall = m.phase.wall.as_secs_f64();
    let residues = m.local.db.stats().total_residues as f64;
    let ok: Vec<&Outcome> = outs.iter().filter(|o| o.ok).collect();
    let cells: f64 = ok
        .iter()
        .map(|o| m.queries[o.request].len() as f64 * residues)
        .sum();
    let lat: Vec<f64> = ok.iter().map(|o| o.latency_ms).collect();
    let limit = ctx.workload.latency_limit_ms();
    let good = ok.iter().filter(|o| o.latency_ms <= limit).count();
    vec![
        metric("setup_s", median(&m.setup_s), "s", m.setup_s.len()),
        metric(
            "throughput_gcups",
            Some(cells / wall / 1e9),
            "GCUPS",
            ok.len(),
        ),
        metric("latency_ms_p50", median(&lat), "ms", lat.len()),
        metric("latency_ms_p90", p90(&lat), "ms", lat.len()),
        metric("goodput_rps", Some(good as f64 / wall), "1/s", outs.len()),
        metric(
            "ok_frac",
            Some(ok.len() as f64 / outs.len().max(1) as f64),
            "frac",
            outs.len(),
        ),
        metric("peak_rss_mb", m.phase.peak_rss_mb, "MiB", 1),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, Write};
    use std::net::TcpListener;

    /// A one-connection-at-a-time HTTP stub that answers after `delay`.
    fn slow_server(delay: Duration, requests: usize) -> (String, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let handle = std::thread::spawn(move || {
            for _ in 0..requests {
                let (stream, _) = listener.accept().unwrap();
                let mut reader = io::BufReader::new(stream.try_clone().unwrap());
                let mut line = String::new();
                while reader.read_line(&mut line).unwrap() > 2 {
                    line.clear();
                }
                std::thread::sleep(delay);
                let mut out = stream;
                write!(
                    out,
                    "HTTP/1.1 429 Too Many Requests\r\nContent-Length: 2\r\n\r\n{{}}"
                )
                .unwrap();
            }
        });
        (addr, handle)
    }

    #[test]
    fn open_loop_latency_counts_from_the_scheduled_send_time() {
        // Four requests due at once, two connections, a server that
        // answers one request at a time after 40 ms: the last request
        // waits for a free connection and then for the server, and its
        // latency must include both waits.
        let delay = Duration::from_millis(40);
        let (addr, server) = slow_server(delay, 4);
        let reqs: Vec<Request> = (0..4)
            .map(|i| Request {
                due_us: 0,
                query_id: format!("q{i}"),
                residues: "MKV".to_string(),
            })
            .collect();
        let mut tr = Tracer::new(false, Instant::now());
        let (outs, wall) = open_loop(&addr, &reqs, &mut tr);
        server.join().unwrap();
        assert_eq!(outs.len(), 4);
        assert!(outs.iter().all(|o| o.refused));
        let mut lat: Vec<f64> = outs.iter().map(|o| o.latency_ms).collect();
        lat.sort_by(f64::total_cmp);
        let step = delay.as_secs_f64() * 1e3;
        for (i, l) in lat.iter().enumerate() {
            assert!(*l >= step * (i + 1) as f64 - 1.0, "latencies {lat:?}");
        }
        // Late sends are charged to the request: latency ≥ lag + service.
        for o in &outs {
            assert!(o.latency_ms >= o.gen_lag_ms + step - 1.0);
        }
        assert!(outs.iter().any(|o| o.gen_lag_ms >= step - 1.0));
        assert!(wall.as_secs_f64() * 1e3 >= 4.0 * step - 1.0);
    }
}
