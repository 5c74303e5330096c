//! The traced run's per-layer metrics.
//!
//! Set-up and request spans give the layers the benchmark drives
//! directly. The rest is a ladder: every distinct query of the workload
//! is replayed, one at a time and unloaded, at each rung —
//!
//! * L0 `Aligner::align_prepared` over every subject on one thread,
//! * L1 `EngineHandle::search`,
//! * L2 `Dispatcher::search` in-process over the same engine,
//! * L3 an HTTP round trip to an idle `aalign serve`,
//! * L5 `Supervisor::search` over `nproc` one-thread children —
//!
//! and a rung's self time is the paired difference of per-query medians.

use std::collections::{BTreeMap, BTreeSet};
use std::hint::black_box;
use std::io;
use std::time::Instant;

use aalign_bio::Sequence;
use aalign_core::AlignScratch;
use aalign_obs::wire::JsonValue;
use aalign_par::wire::report_from_wire;
use aalign_par::{Hit, SearchOptions};
use aalign_serve::{Dispatcher, DispatcherConfig, SearchRequest};
use aalign_shard::{ShardQuery, Supervisor};

use crate::client::{http, Daemon};
use crate::inputs::{Request, Workload, TOP_N};
use crate::run::{
    around_setups, distinct, metric, search_request, setup_daemon, setup_local, setup_shards, Ctx,
    Measured, Metric,
};
use crate::stats::{median, p90};
use crate::trace::{ladder_self, median_of_medians, Tracer};

/// Replays of each query at each rung.
const REPS: usize = 4;
/// Iterations of each JSON codec timing.
const CODEC_ITERS: u32 = 200;

fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Kernel and worker counters gathered on the ladder's first pass.
#[derive(Debug, Default)]
struct Counters {
    alignments: u64,
    i8_alignments: u64,
    columns: u64,
    scan_columns: u64,
    iterate_columns: u64,
    lazy_sweeps: u64,
    switches: u64,
    first_width_misses: u64,
    engine_alignments: u64,
    busy_s: f64,
    busy_capacity_s: f64,
    imbalance: Vec<f64>,
    scratch_kb: Vec<f64>,
    shard_retried: u64,
    shard_failed: u64,
    /// Ladder answers that differ from the reference.
    mismatches: Vec<String>,
}

/// Per-query samples of each rung, in milliseconds.
#[derive(Debug)]
struct Rungs {
    prepare_us: Vec<f64>,
    l0: Vec<Vec<f64>>,
    l0_cells: f64,
    l0_secs: f64,
    l1: Vec<Vec<f64>>,
    l1_threads: Vec<usize>,
    l2: Vec<Vec<f64>>,
    l3: Vec<Vec<f64>>,
    l5: Vec<Vec<f64>>,
    /// L5 wall minus the children's reported engine time.
    l5_hop: Vec<Vec<f64>>,
    encode_us: Vec<f64>,
}

/// Run the ladder and derive every per-layer metric.
pub fn per_layer(ctx: &Ctx, m: &mut Measured, tr: &mut Tracer) -> io::Result<Vec<Metric>> {
    // In-process set-ups for the layers the workload's own set-up does
    // not pass through (search_* already did exactly these).
    if matches!(ctx.workload, Workload::ServeOpen | Workload::ShardSearch) {
        let (local, _, ()) = around_setups(
            tr,
            |tr, rid| setup_local(&ctx.db_path(), ctx.threads, tr, 1000 + rid),
            |l| {
                drop(l);
                Ok(())
            },
            |_, _| (),
        )?;
        m.local = local;
    }
    // Workloads that did not start a daemon or shard children start one
    // of each here, so every rung exists on every workload.
    let fresh_daemon = match m.daemon {
        Some(_) => None,
        None => Some(setup_daemon(ctx, tr, 2000)?.0),
    };
    let fresh_shards = match m.shards {
        Some(_) => None,
        None => Some(setup_shards(ctx, tr, 3000)?.0),
    };
    let daemon = m
        .daemon
        .as_ref()
        .or(fresh_daemon.as_ref())
        .expect("a daemon is running");
    let sup = m
        .shards
        .as_ref()
        .or(fresh_shards.as_ref())
        .expect("shards are running");

    let queries: Vec<Sequence> = distinct(&m.queries).into_iter().cloned().collect();
    let (rungs, mut counters) = climb(m, &queries, daemon, sup)?;
    m.mismatches.append(&mut counters.mismatches);
    let respawns = sup.respawns();
    drop(fresh_daemon);
    if let Some(s) = fresh_shards {
        s.shutdown();
    }

    // Entry rung of the workload: unloaded latency of the same query at
    // the layer the workload's requests enter.
    let entry = match ctx.workload {
        Workload::SearchShort | Workload::SearchLong => &rungs.l1,
        Workload::ServeOpen => &rungs.l3,
        Workload::ShardSearch => &rungs.l5,
    };
    let unloaded: BTreeMap<&str, f64> = queries
        .iter()
        .zip(entry)
        .filter_map(|(q, s)| Some((q.id(), median(s)?)))
        .collect();
    let outs = &m.phase.outcomes;
    let ok: Vec<_> = outs.iter().filter(|o| o.ok).collect();
    let load_wait: Vec<f64> = ok
        .iter()
        .filter_map(|o| Some(o.latency_ms - unloaded.get(m.requests[o.request].query_id.as_str())?))
        .collect();
    let lag: Vec<f64> = outs.iter().map(|o| o.gen_lag_ms).collect();
    let traced_lat: Vec<f64> = ok
        .iter()
        .filter(|o| o.traced)
        .map(|o| o.latency_ms)
        .collect();
    let plain_lat: Vec<f64> = ok
        .iter()
        .filter(|o| !o.traced)
        .map(|o| o.latency_ms)
        .collect();
    let trace_overhead = median(&traced_lat)
        .zip(median(&plain_lat))
        .map(|(t, p)| t / p - 1.0);
    let coalesced = ok.iter().filter(|o| o.batched).count() as f64 / ok.len().max(1) as f64;
    let refused = outs.iter().filter(|o| o.refused).count() as f64;

    let c = &counters;
    let nq = queries.len();
    let frac = |a: u64, b: u64| (b > 0).then(|| a as f64 / b as f64);
    let (decode_us, bodies) = codec_decode_us(&m.requests);
    Ok(vec![
        span_metric(tr, "bio.db_load_ms", "bio.from_fasta"),
        span_metric(tr, "core.certify_ms", "core.certify"),
        metric(
            "core.prepare_us",
            median(&rungs.prepare_us),
            "us",
            rungs.prepare_us.len(),
        ),
        metric(
            "core.pair_gcups",
            Some(rungs.l0_cells / rungs.l0_secs / 1e9),
            "GCUPS",
            c.alignments as usize,
        ),
        metric(
            "core.scan_col_frac",
            frac(c.scan_columns, c.columns),
            "frac",
            c.columns as usize,
        ),
        metric(
            "core.lazy_sweeps_per_col",
            frac(c.lazy_sweeps, c.iterate_columns),
            "ratio",
            c.iterate_columns as usize,
        ),
        metric(
            "core.switches_per_kcol",
            frac(c.switches * 1000, c.columns),
            "1/kcol",
            c.columns as usize,
        ),
        metric(
            "core.i8_frac",
            frac(c.i8_alignments, c.alignments),
            "frac",
            c.alignments as usize,
        ),
        metric(
            "core.first_width_ok_frac",
            frac(
                c.engine_alignments.saturating_sub(c.first_width_misses),
                c.engine_alignments,
            ),
            "frac",
            c.engine_alignments as usize,
        ),
        span_metric(tr, "par.pool_spawn_ms", "par.pool_spawn"),
        metric("par.search_ms_p50", median_of_medians(&rungs.l1), "ms", nq),
        metric(
            "par.self_ms_p50",
            ladder_self(&rungs.l1, &scaled(&rungs.l0, &rungs.l1_threads)),
            "ms",
            nq,
        ),
        metric(
            "par.busy_frac",
            (c.busy_capacity_s > 0.0).then(|| c.busy_s / c.busy_capacity_s),
            "frac",
            nq,
        ),
        metric(
            "par.imbalance",
            median(&c.imbalance),
            "ratio",
            c.imbalance.len(),
        ),
        metric(
            "par.scratch_kb",
            median(&c.scratch_kb),
            "KiB",
            c.scratch_kb.len(),
        ),
        metric("obs.json_decode_us", decode_us, "us", bodies),
        metric(
            "obs.json_encode_us",
            median(&rungs.encode_us),
            "us",
            rungs.encode_us.len(),
        ),
        span_metric(tr, "serve.daemon_ready_ms", "serve.daemon_ready"),
        metric(
            "serve.dispatch_self_ms_p50",
            ladder_self(&rungs.l2, &rungs.l1),
            "ms",
            nq,
        ),
        metric(
            "serve.http_self_ms_p50",
            ladder_self(&rungs.l3, &rungs.l2),
            "ms",
            nq,
        ),
        metric(
            "serve.load_wait_ms_p50",
            median(&load_wait),
            "ms",
            load_wait.len(),
        ),
        metric(
            "serve.load_wait_ms_p90",
            p90(&load_wait),
            "ms",
            load_wait.len(),
        ),
        metric("serve.coalesced_frac", Some(coalesced), "frac", ok.len()),
        metric("serve.refused", Some(refused), "count", outs.len()),
        span_metric(tr, "shard.launch_ms", "shard.launch"),
        metric(
            "shard.search_ms_p50",
            median_of_medians(&rungs.l5),
            "ms",
            nq,
        ),
        metric(
            "shard.self_ms_p50",
            ladder_self(&rungs.l5, &rungs.l1),
            "ms",
            nq,
        ),
        metric(
            "shard.hop_ms_p50",
            median_of_medians(&rungs.l5_hop),
            "ms",
            nq,
        ),
        metric(
            "shard.retried",
            Some(c.shard_retried as f64),
            "count",
            nq * REPS,
        ),
        metric(
            "shard.failed",
            Some(c.shard_failed as f64),
            "count",
            nq * REPS,
        ),
        metric("shard.respawns", Some(respawns as f64), "count", 1),
        metric("bench.gen_lag_ms_p90", p90(&lag), "ms", lag.len()),
        metric(
            "bench.trace_overhead_frac",
            trace_overhead,
            "frac",
            traced_lat.len(),
        ),
        metric(
            "bench.unaccounted_frac",
            tr.unaccounted_frac(),
            "frac",
            tr.spans().len(),
        ),
    ])
}

/// Median duration of the spans named `span`, in ms.
fn span_metric(tr: &Tracer, name: &'static str, span: &str) -> Metric {
    let d = tr.durations_ms(span);
    metric(name, median(&d), "ms", d.len())
}

/// ΣL0 ÷ threads used: the kernel-only share of an L1 sweep.
fn scaled(l0: &[Vec<f64>], threads: &[usize]) -> Vec<Vec<f64>> {
    l0.iter()
        .zip(threads)
        .map(|(s, &t)| s.iter().map(|x| x / t.max(1) as f64).collect())
        .collect()
}

/// `JsonValue::parse` + `SearchRequest::from_wire` per distinct request
/// body: the median in µs, and the number of bodies.
fn codec_decode_us(reqs: &[Request]) -> (Option<f64>, usize) {
    let mut seen = BTreeSet::new();
    let mut per_body = Vec::new();
    for r in reqs.iter().filter(|r| seen.insert(r.query_id.as_str())) {
        let body = search_request(&r.query_id, &r.residues).to_wire().render();
        let t = Instant::now();
        for _ in 0..CODEC_ITERS {
            let v = JsonValue::parse(black_box(&body)).expect("a rendered request parses");
            black_box(SearchRequest::from_wire(&v).expect("a rendered request decodes"));
        }
        per_body.push(t.elapsed().as_secs_f64() * 1e6 / f64::from(CODEC_ITERS));
    }
    (median(&per_body), per_body.len())
}

/// Replay every query at every rung, `REPS` times, interleaving rungs
/// so drift hits them alike.
fn climb(
    m: &Measured,
    queries: &[Sequence],
    daemon: &Daemon,
    sup: &Supervisor,
) -> io::Result<(Rungs, Counters)> {
    let local = &m.local;
    let opts = SearchOptions::new().top_n(TOP_N);
    let dispatcher = Dispatcher::with_engine(
        local.engine.clone(),
        local.aligner.clone(),
        local.db.clone(),
        DispatcherConfig::default(),
    );
    let n = queries.len();
    let mut r = Rungs {
        prepare_us: Vec::new(),
        l0: vec![Vec::new(); n],
        l0_cells: 0.0,
        l0_secs: 0.0,
        l1: vec![Vec::new(); n],
        l1_threads: vec![1; n],
        l2: vec![Vec::new(); n],
        l3: vec![Vec::new(); n],
        l5: vec![Vec::new(); n],
        l5_hop: vec![Vec::new(); n],
        encode_us: Vec::new(),
    };
    let mut c = Counters::default();
    let mut scratch = AlignScratch::new();
    let residues = local.db.stats().total_residues as f64;
    let err = |e: &dyn std::fmt::Display| io::Error::other(e.to_string());
    // Every ladder answer is checked against the reference too.
    let verify = |c: &mut Counters, rung: &str, id: &str, hits: &[Hit]| {
        if let Err(e) = m.refs.check(id, hits) {
            c.mismatches.push(format!("{rung} {e}"));
        }
    };
    for rep in 0..REPS {
        for (i, q) in queries.iter().enumerate() {
            let first = rep == 0;
            // L0: prepare once, then every subject on this thread.
            let t = Instant::now();
            let pq = local.aligner.prepare(q).map_err(|e| err(&e))?;
            r.prepare_us.push(ms(t) * 1e3);
            let t = Instant::now();
            for s in local.db.sequences() {
                let out = local
                    .aligner
                    .align_prepared(&pq, s, &mut scratch)
                    .map_err(|e| err(&e))?;
                if first {
                    c.alignments += 1;
                    c.i8_alignments += u64::from(out.elem_bits == 8);
                }
            }
            let l0 = ms(t);
            r.l0[i].push(l0);
            r.l0_cells += q.len() as f64 * residues;
            r.l0_secs += l0 / 1e3;

            let req = search_request(q.id(), &String::from_utf8(q.text()).expect("ASCII"));
            // L1 and L2 swap order every repeat, so neither always runs
            // straight after the single-threaded L0 sweep.
            let order = if rep % 2 == 0 { [1, 2] } else { [2, 1] };
            for rung in order {
                if rung == 1 {
                    // L1: the engine.
                    let t = Instant::now();
                    let rep1 = local
                        .engine
                        .search(&local.aligner, q, &local.db, &opts)
                        .map_err(|e| err(&e))?;
                    r.l1[i].push(ms(t));
                    r.l1_threads[i] = rep1.threads_used;
                    verify(&mut c, "L1", q.id(), &rep1.hits);
                    if first {
                        let k = &rep1.metrics.kernel_stats;
                        c.scan_columns += k.scan_columns as u64;
                        c.iterate_columns += k.iterate_columns as u64;
                        c.columns += (k.scan_columns + k.iterate_columns) as u64;
                        c.lazy_sweeps += k.lazy_sweeps;
                        c.switches += k.switches_to_scan as u64;
                        c.first_width_misses += rep1.metrics.width_retries + rep1.metrics.rescued;
                        c.engine_alignments += rep1.subjects as u64;
                        let busy: Vec<f64> = rep1
                            .metrics
                            .per_worker
                            .iter()
                            .map(|w| w.busy.as_secs_f64())
                            .collect();
                        let sum: f64 = busy.iter().sum();
                        c.busy_s += sum;
                        c.busy_capacity_s +=
                            rep1.threads_used as f64 * rep1.metrics.sweep.as_secs_f64();
                        if sum > 0.0 {
                            let max = busy.iter().copied().fold(0.0, f64::max);
                            c.imbalance.push(max / (sum / busy.len() as f64));
                        }
                        let scratch: usize = rep1
                            .metrics
                            .per_worker
                            .iter()
                            .map(|w| w.scratch_bytes)
                            .sum();
                        c.scratch_kb.push(scratch as f64 / 1024.0);
                    }
                } else {
                    // L2: the dispatcher over the same engine.
                    let t = Instant::now();
                    let resp = dispatcher.search(&req).map_err(|e| err(&e))?;
                    r.l2[i].push(ms(t));
                    verify(&mut c, "L2", q.id(), &resp.report.hits);
                    if first {
                        let t = Instant::now();
                        for _ in 0..CODEC_ITERS {
                            black_box(resp.to_wire().render());
                        }
                        r.encode_us
                            .push(t.elapsed().as_secs_f64() * 1e6 / f64::from(CODEC_ITERS));
                    }
                }
            }

            // L3: one HTTP round trip to an idle daemon.
            let body = req.to_wire().render();
            let t = Instant::now();
            let (status, body) = http(&daemon.addr, "POST", "/v1/search", &body)?;
            r.l3[i].push(ms(t));
            let report = JsonValue::parse(&body)
                .map_err(|e| e.to_string())
                .and_then(|doc| report_from_wire(&doc).map_err(|e| e.to_string()))
                .map_err(|e| io::Error::other(format!("unloaded HTTP search ({status}): {e}")))?;
            verify(&mut c, "L3", q.id(), &report.hits);

            // L5: fan-out over the shard children.
            let sq = ShardQuery::new(req.query.as_str())
                .top_n(TOP_N)
                .query_id(q.id());
            let t = Instant::now();
            let rep5 = sup.search(&sq).map_err(|e| err(&e))?;
            let l5 = ms(t);
            r.l5[i].push(l5);
            verify(&mut c, "L5", q.id(), &rep5.hits);
            // The merge keeps the slowest child's prepare and sweep
            // walls; the rest of the wall is the stdio hop and merge.
            let child = rep5.metrics.prepare + rep5.metrics.sweep;
            r.l5_hop[i].push(l5 - child.as_secs_f64() * 1e3);
            c.shard_retried += rep5.metrics.shards.retried;
            c.shard_failed += rep5.metrics.shards.failed;
        }
    }
    Ok((r, c))
}
