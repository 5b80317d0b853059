//! Mantle benchmark: builds a cluster per workload, drives it in a closed
//! loop from two client threads through public APIs only, checks the
//! results, and prints every metric by name and unit. See `README.md`.
//!
//! Usage: `perfbench --workload <stat-zipf|ingest|spark-commit> --seed <n>
//! --seconds <n> --trace <0|1> [--out <dir>] [--rev <git revision>]`
//!
//! The last line of standard output is the JSON result.

mod check;
mod drive;
mod exec;
mod layers;
mod setup;
mod stats;
mod sys;
mod workload;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

use mantle_types::clock::TimeCategory;
use mantle_types::{Phase, RetryClass};

use drive::{Client, PhaseLog};
use exec::{Layer, Tracer};
use layers::{Counters, Delta, SpanAgg};
use serde_json::Value as Json;
use stats::{median, percentile, ratio};
use workload::{Workload, CLIENTS, KINDS};

/// Measured rounds per traced pass; rate metrics are medians over rounds.
const ROUNDS: usize = 5;
/// Clusters an untraced run builds and measures in turn, `setup_s` being
/// their median build time; each runs `ROUNDS_PER_BUILD` rounds, so one
/// cluster's luck (leader placement, thread timing) cannot set the result.
const BUILDS: usize = 3;
const ROUNDS_PER_BUILD: usize = 3;
/// Fewest ops in a measured phase: p99.9 then has at least ten samples
/// beyond it, and `ingest` applies more than one IndexNode snapshot
/// interval (1,024 entries) of mkdirs.
const MIN_OPS: u64 = 12_000;
/// Cap on ops per client in a traced pass, which bounds span memory.
const TRACE_MAX_OPS_PER_CLIENT: u64 = 40_000;
/// Spans of each pass written to the spans file.
const SPANS_WRITTEN: usize = 50_000;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    out: PathBuf,
    rev: String,
}

fn parse_args() -> Result<Args, String> {
    let mut kv: BTreeMap<String, String> = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(k) = it.next() {
        let key = k
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {k:?}"))?;
        let v = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
        kv.insert(key.to_string(), v);
    }
    let get = |k: &str| kv.get(k).ok_or_else(|| format!("missing --{k}"));
    let num = |k: &str| -> Result<u64, String> {
        get(k)?
            .parse()
            .map_err(|_| format!("--{k} must be a whole number"))
    };
    let workload = Workload::parse(get("workload")?)
        .ok_or_else(|| "--workload must be stat-zipf, ingest or spark-commit".to_string())?;
    let seconds = num("seconds")?;
    if seconds == 0 || seconds > 120 {
        return Err("--seconds must be in 1..=120".into());
    }
    let trace = match get("trace")?.as_str() {
        "0" => false,
        "1" => true,
        _ => return Err("--trace must be 0 or 1".into()),
    };
    Ok(Args {
        workload,
        seed: num("seed")?,
        seconds,
        trace,
        out: PathBuf::from(kv.get("out").map_or(".bench_out", String::as_str)),
        rev: kv.get("rev").cloned().unwrap_or_else(|| "unknown".into()),
    })
}

/// Ops per client: warm-up, and per measured round.
struct Sizing {
    warm: u64,
    per_round: u64,
}

/// Splits the run's ops into `rounds` equal rounds of at most
/// `max_per_round` ops per client.
fn sizing(args: &Args, rounds: usize, max_per_round: u64) -> Sizing {
    let total = (args.seconds * args.workload.nominal_ops_per_s()).max(MIN_OPS);
    let per_round = total
        .div_ceil(rounds as u64 * CLIENTS as u64)
        .min(max_per_round);
    let warm = (per_round / 2).max(500);
    println!(
        "closed loop: {CLIENTS} clients, warm-up {warm} ops/client, \
         {rounds} rounds of {per_round} ops/client"
    );
    Sizing { warm, per_round }
}

impl Sizing {
    fn record(&self, rounds: usize) -> Vec<(String, Json)> {
        vec![
            ("clients".into(), Json::U64(CLIENTS as u64)),
            ("warmup_ops_per_client".into(), Json::U64(self.warm)),
            ("rounds".into(), Json::U64(rounds as u64)),
            ("ops_per_client_per_round".into(), Json::U64(self.per_round)),
        ]
    }
}

fn clients(bench: &setup::Bench, args: &Args, base: Instant) -> Vec<Client> {
    bench
        .generators(args.workload, args.seed)
        .into_iter()
        .enumerate()
        .map(|(id, gen)| Client {
            id,
            gen,
            tracer: Tracer::new(false, base),
            acked: Vec::new(),
            seq: 0,
        })
        .collect()
}

fn set_tracing(clients: &mut [Client], on: bool) {
    for c in clients {
        c.tracer.on = on;
    }
}

/// Ops/s and CPU µs/op of each round of a phase.
fn round_rates(log: &PhaseLog, per_round: u64) -> (Vec<f64>, Vec<f64>) {
    let ops = (per_round * CLIENTS as u64) as f64;
    let ops_per_s = log
        .round_wall_ns
        .iter()
        .map(|w| ops / (*w as f64 / 1e9))
        .collect();
    let cpu = log
        .round_cpu_ns
        .iter()
        .map(|c| *c as f64 / 1e3 / ops)
        .collect();
    (ops_per_s, cpu)
}

/// Ops/s and CPU µs/op of a phase: medians over its rounds.
fn rates(log: &PhaseLog, per_round: u64) -> (f64, f64) {
    let (ops_per_s, cpu) = round_rates(log, per_round);
    (median(&ops_per_s), median(&cpu))
}

fn obj<K: Into<String>>(fields: impl IntoIterator<Item = (K, Json)>) -> Json {
    Json::Object(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
}

fn render(v: &Json) -> String {
    serde_json::to_string(v).expect("serializing a Value cannot fail")
}

fn jstr(s: impl Into<String>) -> Json {
    Json::Str(s.into())
}

struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// Tail visibility: retries per op by class and the single worst op.
fn tails(log: &PhaseLog) -> Json {
    let ops = log.ops() as f64;
    let by_class: Vec<(String, f64)> = RetryClass::ALL
        .iter()
        .enumerate()
        .map(|(i, class)| {
            let n: u64 = log.clients.iter().map(|c| c.retries[i]).sum();
            (class.label().to_string(), n as f64 / ops)
        })
        .collect();
    let worst = log
        .clients
        .iter()
        .map(|c| c.worst.clone())
        .max_by_key(|w| w.lat_ns)
        .unwrap_or_default();
    let shown: Vec<String> = by_class
        .iter()
        .map(|(k, v)| format!("{k}={v:.6}"))
        .collect();
    println!("retries per op: {}", shown.join(" "));
    println!(
        "worst op: {} virtual {:.1} us, {} retries",
        worst.kind,
        worst.lat_ns as f64 / 1e3,
        worst.retries
    );
    obj([
        (
            "retries_per_op",
            Json::Object(
                by_class
                    .into_iter()
                    .map(|(k, v)| (k, Json::F64(v)))
                    .collect(),
            ),
        ),
        (
            "worst_op",
            obj([
                ("kind", jstr(worst.kind)),
                ("virtual_us", Json::F64(worst.lat_ns as f64 / 1e3)),
                ("retries", Json::U64(worst.retries)),
            ]),
        ),
    ])
}

fn op_mix(log: &PhaseLog) -> Json {
    Json::Object(
        KINDS
            .iter()
            .enumerate()
            .map(|(i, k)| {
                let n: u64 = log.clients.iter().map(|c| c.kinds[i]).sum();
                (k.to_string(), Json::U64(n))
            })
            .filter(|(_, v)| !matches!(v, Json::U64(0)))
            .collect(),
    )
}

/// Exact `(p50, p99.9)` in µs of the values; sorts one temporary copy.
fn p50_p999(values: impl Iterator<Item = u64>) -> (f64, f64) {
    let mut v: Vec<u64> = values.collect();
    v.sort_unstable();
    let us = |q| percentile(&v, q) as f64 / 1e3;
    (us(0.5), us(0.999))
}

/// Per-op latency percentiles of a phase: modeled (virtual clock), real
/// (wall time of the call), and their sum, the end-to-end latency.
struct Latencies {
    samples: usize,
    model: (f64, f64),
    real: (f64, f64),
    total: (f64, f64),
    model_mean_us: f64,
}

fn latencies(log: &PhaseLog) -> Latencies {
    let model = || log.clients.iter().flat_map(|c| c.lat_ns.iter().copied());
    let real = || log.clients.iter().flat_map(|c| c.real_ns.iter().copied());
    let samples = model().count();
    let l = Latencies {
        samples,
        model: p50_p999(model()),
        real: p50_p999(real()),
        total: p50_p999(model().zip(real()).map(|(m, r)| m + r)),
        model_mean_us: model().sum::<u64>() as f64 / samples as f64 / 1e3,
    };
    println!(
        "latency n={samples} ({} beyond p99.9), exact: modeled p50 {:.3} p99.9 {:.3} us; \
         real p50 {:.3} p99.9 {:.3} us; end-to-end p50 {:.3} p99.9 {:.3} us",
        stats::beyond(samples, 0.999),
        l.model.0,
        l.model.1,
        l.real.0,
        l.real.1,
        l.total.0,
        l.total.1,
    );
    l
}

/// Samples a round needs before its own p99.9 is reported (ten beyond it).
const ROUND_P999_SAMPLES: u64 = 10_000;

/// End-to-end `(p50, p99.9)` in µs: the median over rounds of each round's
/// exact percentiles when every round has enough samples for its own
/// p99.9, so one round's burst of stalls cannot move the result; else the
/// exact percentiles of the whole phase.
fn e2e_latency(log: &PhaseLog, per_round: u64, all: &Latencies) -> (f64, f64) {
    if per_round * (CLIENTS as u64) < ROUND_P999_SAMPLES {
        return all.total;
    }
    let (mut p50, mut p999) = (Vec::new(), Vec::new());
    for r in 0..log.round_wall_ns.len() {
        let span = r * per_round as usize..(r + 1) * per_round as usize;
        let (a, b) = p50_p999(
            log.clients
                .iter()
                .flat_map(|c| c.lat_ns[span.clone()].iter().zip(&c.real_ns[span.clone()]))
                .map(|(m, r)| m + r),
        );
        p50.push(a);
        p999.push(b);
    }
    println!("per-round end-to-end p50 {p50:?} us, p99.9 {p999:?} us");
    (median(&p50), median(&p999))
}

fn wrong_replies(log: &PhaseLog) -> Vec<String> {
    log.clients.iter().flat_map(|c| c.wrong.clone()).collect()
}

struct Run {
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    metrics: Vec<Metric>,
    extra: Vec<(String, Json)>,
}

fn untraced(args: &Args, base: Instant) -> Run {
    let sz = sizing(args, BUILDS * ROUNDS_PER_BUILD, u64::MAX);
    let max_ops = sz.warm + ROUNDS_PER_BUILD as u64 * sz.per_round;
    let mut setup_s = Vec::new();
    let mut log: Option<PhaseLog> = None;
    let mut errors = Vec::new();
    for _ in 0..BUILDS {
        let t = Instant::now();
        let bench = setup::build(args.workload, args.seed, max_ops);
        setup_s.push(t.elapsed().as_secs_f64());
        let mut clients = clients(&bench, args, base);
        let core = |op: &_, ctx: &mut _, tr: &mut _| exec::run_core(&bench.cluster, op, ctx, tr);
        drive::run_phase(&mut clients, 1, sz.warm, &core);
        let part = drive::run_phase(&mut clients, ROUNDS_PER_BUILD, sz.per_round, &core);
        errors.extend(wrong_replies(&part));
        errors.extend(check::run(args.workload, &bench, &clients));
        match log.as_mut() {
            Some(l) => l.append(part),
            None => log = Some(part),
        }
    }
    let log = log.expect("BUILDS > 0");
    println!("setup_s per build: {setup_s:?}");

    let (round_ops, round_cpu) = round_rates(&log, sz.per_round);
    println!("per-round ops/s {round_ops:.0?}");
    let (ops_per_s, cpu_us) = (median(&round_ops), median(&round_cpu));
    let lat = latencies(&log);
    let (p50, p999) = e2e_latency(&log, sz.per_round, &lat);
    let n = lat.samples;
    let (attempted, failed) = (log.ops(), log.failed());
    println!(
        "failed_frac {} ({failed} of {attempted})",
        failed as f64 / attempted as f64
    );
    let tails = tails(&log);
    Run {
        attempted,
        failed,
        errors,
        metrics: vec![
            metric("ops_per_s", ops_per_s, "1/s"),
            metric("cpu_us_per_op", cpu_us, "us"),
            metric("lat_p50_us", p50, "us"),
            metric("lat_p999_us", p999, "us"),
            metric(
                "ok_frac",
                (attempted - failed) as f64 / attempted as f64,
                "frac",
            ),
            metric("setup_s", median(&setup_s), "s"),
            metric("peak_rss_mb", sys::peak_rss_mb(), "MiB"),
        ],
        extra: [
            ("latency_samples".into(), Json::U64(n as u64)),
            (
                "p999_samples_beyond".into(),
                Json::U64(stats::beyond(n, 0.999) as u64),
            ),
            ("model_lat_p50_us".into(), Json::F64(lat.model.0)),
            ("model_lat_p999_us".into(), Json::F64(lat.model.1)),
            ("real_lat_p50_us".into(), Json::F64(lat.real.0)),
            ("real_lat_p999_us".into(), Json::F64(lat.real.1)),
            (
                "failed_frac".into(),
                Json::F64(failed as f64 / attempted as f64),
            ),
            (
                "setup_s_runs".into(),
                Json::Array(setup_s.iter().map(|s| Json::F64(*s)).collect()),
            ),
            ("op_mix".into(), op_mix(&log)),
            (
                "round_wall_s".into(),
                Json::Array(
                    log.round_wall_ns
                        .iter()
                        .map(|w| Json::F64(*w as f64 / 1e9))
                        .collect(),
                ),
            ),
            (
                "round_cpu_s".into(),
                Json::Array(
                    log.round_cpu_ns
                        .iter()
                        .map(|c| Json::F64(*c as f64 / 1e9))
                        .collect(),
                ),
            ),
            ("tails".into(), tails),
        ]
        .into_iter()
        .chain(sz.record(BUILDS * ROUNDS_PER_BUILD))
        .collect(),
    }
}

fn spans_json(tag: &str, clients: &[Client]) -> Vec<String> {
    clients
        .iter()
        .flat_map(|c| c.tracer.spans.iter().enumerate())
        .take(SPANS_WRITTEN)
        .map(|(idx, s)| {
            // `parent` is the `idx` of the enclosing span of the same
            // client (the op id's high 16 bits), `u32::MAX` for none.
            obj([
                ("pass", jstr(tag)),
                ("idx", Json::U64(idx as u64)),
                ("name", jstr(s.name)),
                ("op", Json::U64(s.op)),
                ("parent", Json::U64(s.parent as u64)),
                ("start_ns", Json::U64(s.start_ns)),
                ("real_ns", Json::U64(s.real_ns)),
                ("cpu_ns", Json::U64(s.cpu_ns)),
                ("virt_ns", Json::U64(s.virt_ns)),
            ])
        })
        .map(|v| render(&v))
        .collect()
}

fn span_table(aggs: &BTreeMap<&'static str, SpanAgg>) -> Json {
    Json::Object(
        aggs.iter()
            .map(|(k, a)| {
                (
                    k.to_string(),
                    obj([
                        ("count", Json::U64(a.count)),
                        ("real_us", Json::F64(a.mean_real_us())),
                        ("cpu_us", Json::F64(a.mean_cpu_us())),
                        (
                            "virt_us",
                            Json::F64(ratio(a.virt_ns as f64, a.count as f64 * 1e3)),
                        ),
                        (
                            "self_real_us",
                            Json::F64(ratio(a.self_real_ns as f64, a.count as f64 * 1e3)),
                        ),
                        ("self_cpu_us", Json::F64(a.mean_self_cpu_us())),
                    ]),
                )
            })
            .collect(),
    )
}

enum Mode {
    /// `MetadataService` calls, with or without a span around each.
    Core { spans: bool },
    /// The proxy's layer calls, each spanned.
    Layers,
}

/// A traced-run pass and what it left behind.
struct Pass {
    clients: Vec<Client>,
    log: PhaseLog,
    /// Counters before and after the measured rounds.
    k0: Counters,
    k1: Counters,
    errors: Vec<String>,
}

/// Builds a fresh cluster, warms it up untraced and runs the measured
/// rounds in `mode`; every pass of a run issues the same op stream.
fn pass(args: &Args, sz: &Sizing, max_ops: u64, base: Instant, mode: Mode) -> Pass {
    let b = setup::build(args.workload, args.seed, max_ops);
    let mut clients = clients(&b, args, base);
    let core = |op: &_, ctx: &mut _, tr: &mut _| exec::run_core(&b.cluster, op, ctx, tr);
    drive::run_phase(&mut clients, 1, sz.warm, &core);
    set_tracing(&mut clients, !matches!(mode, Mode::Core { spans: false }));
    let k0 = Counters::read(&b.cluster);
    let log = match mode {
        Mode::Core { .. } => drive::run_phase(&mut clients, ROUNDS, sz.per_round, &core),
        Mode::Layers => {
            let layer = Layer::new(b.cluster.clone(), b.ids.clone());
            let run = |op: &_, ctx: &mut _, tr: &mut _| layer.run(op, ctx, tr);
            drive::run_phase(&mut clients, ROUNDS, sz.per_round, &run)
        }
    };
    let k1 = Counters::read(&b.cluster);
    let mut errors = wrong_replies(&log);
    errors.extend(check::run(args.workload, &b, &clients));
    Pass {
        clients,
        log,
        k0,
        k1,
        errors,
    }
}

fn traced(args: &Args, base: Instant) -> Run {
    let sz = sizing(args, ROUNDS, TRACE_MAX_OPS_PER_CLIENT / ROUNDS as u64);
    let per_round = sz.per_round;
    let max_ops = sz.warm + 2 * ROUNDS as u64 * per_round;
    let cfg = setup::config(args.workload);

    // Core pass: spans around each MetadataService call. The same ops run
    // untraced on a second cluster for the tracing overhead, and as layer
    // calls on a third for the layer spans.
    let core = pass(args, &sz, max_ops, base, Mode::Core { spans: true });
    let plain = pass(args, &sz, max_ops, base, Mode::Core { spans: false });
    let lay = pass(args, &sz, max_ops, base, Mode::Layers);
    let (k0, k1, core_log, plain_log, layer_log) = (core.k0, core.k1, core.log, plain.log, lay.log);
    let mut errors = core.errors;
    errors.extend(plain.errors);
    errors.extend(lay.errors);
    let (ca, cb) = (core.clients, lay.clients);
    let core_spans = layers::aggregate(ca.iter().flat_map(|c| c.tracer.spans.iter()));
    let lspans = layers::aggregate(cb.iter().flat_map(|c| c.tracer.spans.iter()));
    let mut span_lines = spans_json("core", &ca);
    span_lines.extend(spans_json("layer", &cb));

    let gets: Vec<_> = cb
        .iter()
        .flat_map(|c| c.tracer.get_keys.iter().cloned())
        .collect();
    let puts: Vec<_> = cb
        .iter()
        .flat_map(|c| c.tracer.put_keys.iter().cloned())
        .collect();
    let (get_ns, put_ns) = layers::engine_replay(&gets, &puts);
    let wal_ns = layers::wal_replay(cfg.sim, cb.iter().map(|c| c.tracer.wal_records).sum());
    let rpcs: u64 = layer_log.clients.iter().map(|c| c.rpcs).sum();
    let rpc_ns = layers::rpc_replay(cfg.sim, rpcs.clamp(10_000, 2_000_000));

    let (t_ops, t_cpu) = rates(&core_log, per_round);
    let (u_ops, u_cpu) = rates(&plain_log, per_round);
    println!(
        "tracing overhead: traced {t_ops:.1} ops/s {t_cpu:.2} us/op vs untraced {u_ops:.1} ops/s {u_cpu:.2} us/op"
    );

    let lat = latencies(&core_log);
    let d = Delta { a: &k0, b: &k1 };
    let ops = core_log.ops() as f64;
    let span = |name: &str| lspans.get(name).copied().unwrap_or_default();
    let core_all = core_spans.values().fold(SpanAgg::default(), |mut acc, s| {
        acc.count += s.count;
        acc.real_ns += s.real_ns;
        acc.cpu_ns += s.cpu_ns;
        acc
    });
    let per_op = |v: f64| v / ops;
    let sum_clients = |f: &dyn Fn(&drive::ClientLog) -> f64| -> f64 {
        core_log.clients.iter().map(f).sum::<f64>()
    };
    let clock_us = |cat: TimeCategory| per_op(sum_clients(&|c| c.time.nanos(cat) as f64)) / 1e3;
    let phase_us = |p: Phase| {
        let i = Phase::ALL
            .iter()
            .position(|x| *x == p)
            .expect("known phase");
        per_op(sum_clients(&|c| c.phase_ns[i] as f64)) / 1e3
    };
    let retries = |class: RetryClass| {
        let i = RetryClass::ALL
            .iter()
            .position(|x| *x == class)
            .expect("known class");
        per_op(sum_clients(&|c| c.retries[i] as f64))
    };
    let (levels_n, levels_sum) = d.hist("index_resolve_levels");
    let (batches, batch_entries) = d.hist("raft_replicate_batch_entries");
    let (_, permit_wait_ns) = d.hist("simnode_permit_wait_nanos");
    let topdir = d.obs("index_cache_hits_total");
    let topdir_miss = d.obs("index_cache_misses_total");
    let (pc_hits, pc_misses) = (d.pcache(|s| s.hits), d.pcache(|s| s.misses));
    let committed = d.db(|c| c.txns_committed);
    let aborted = d.db(|c| c.txns_aborted);
    let fsyncs = d.obs("wal_fsyncs_total");
    let read_index_any = {
        let (a, b) = (span("raft.read_index"), span("raft.read_index_after_write"));
        ratio(
            (a.real_ns + b.real_ns) as f64,
            (a.count + b.count) as f64 * 1e3,
        )
    };

    let metrics = vec![
        metric("core.op_real_us", core_all.mean_real_us(), "us"),
        metric("core.op_cpu_us", core_all.mean_cpu_us(), "us"),
        metric("core.self_cpu_us", span("op").mean_self_cpu_us(), "us"),
        metric("core.lookup_phase_us", phase_us(Phase::Lookup), "us"),
        metric("core.execute_phase_us", phase_us(Phase::Execute), "us"),
        metric(
            "core.loop_detect_phase_us",
            phase_us(Phase::LoopDetect),
            "us",
        ),
        metric("model.lat_p50_us", lat.model.0, "us"),
        metric("model.lat_p999_us", lat.model.1, "us"),
        metric("real.lat_p50_us", lat.real.0, "us"),
        metric("real.lat_p999_us", lat.real.1, "us"),
        metric(
            "pathcache.hit_ratio",
            ratio(pc_hits, pc_hits + pc_misses),
            "ratio",
        ),
        metric(
            "pathcache.revalidations_per_op",
            per_op(d.pcache(|s| s.revalidations)),
            "1/op",
        ),
        metric(
            "pathcache.invalidations_per_op",
            per_op(d.pcache(|s| s.invalidations)),
            "1/op",
        ),
        metric(
            "pathcache.rejected_fills",
            d.pcache(|s| s.rejected_fills),
            "count",
        ),
        metric(
            "pathcache.probe_ns",
            span("pathcache.probe").mean_real_ns(),
            "ns",
        ),
        metric(
            "pathcache.invalidate_ns",
            span("pathcache.invalidate").mean_real_ns(),
            "ns",
        ),
        metric(
            "index.lookup_real_us",
            span("index.lookup").mean_real_us(),
            "us",
        ),
        metric(
            "index.lookup_cpu_us",
            span("index.lookup").mean_cpu_us(),
            "us",
        ),
        metric(
            "index.topdir_hit_ratio",
            ratio(topdir, topdir + topdir_miss),
            "ratio",
        ),
        metric(
            "index.levels_per_resolve",
            ratio(levels_sum, levels_n),
            "count",
        ),
        metric(
            "index.follower_read_frac",
            ratio(d.obs("index_follower_reads_total"), levels_n),
            "ratio",
        ),
        metric(
            "index.insert_dir_real_us",
            span("index.insert_dir").mean_real_us(),
            "us",
        ),
        metric(
            "index.rename_prepare_real_us",
            span("index.rename_prepare").mean_real_us(),
            "us",
        ),
        metric(
            "index.rename_commit_real_us",
            span("index.rename_commit").mean_real_us(),
            "us",
        ),
        metric(
            "raft.read_index_real_us",
            span("raft.read_index_after_write").mean_real_us(),
            "us",
        ),
        metric("raft.read_index_any_real_us", read_index_any, "us"),
        metric(
            "raft.propose_real_us",
            span("raft.propose").mean_real_us(),
            "us",
        ),
        metric(
            "raft.propose_cpu_us",
            span("raft.propose").mean_cpu_us(),
            "us",
        ),
        metric(
            "raft.entries_per_append",
            ratio(batch_entries, batches),
            "count",
        ),
        metric(
            "raft.appends_per_op",
            per_op(d.obs("raft_appends_total")),
            "1/op",
        ),
        metric("raft.snapshots", d.obs("raft_snapshots_total"), "count"),
        metric(
            "tafdb.get_object_cpu_us",
            span("tafdb.get_object").mean_cpu_us(),
            "us",
        ),
        metric(
            "tafdb.dir_stat_cpu_us",
            span("tafdb.dir_stat").mean_cpu_us(),
            "us",
        ),
        metric(
            "tafdb.readdir_real_us",
            span("tafdb.readdir").mean_real_us(),
            "us",
        ),
        metric(
            "tafdb.execute_real_us",
            span("tafdb.execute").mean_real_us(),
            "us",
        ),
        metric(
            "tafdb.execute_cpu_us",
            span("tafdb.execute").mean_cpu_us(),
            "us",
        ),
        metric("tafdb.txns_per_op", per_op(committed), "1/op"),
        metric(
            "tafdb.delta_appends_per_op",
            per_op(d.db(|c| c.delta_appends)),
            "1/op",
        ),
        metric("tafdb.compactions", d.db(|c| c.compactions), "count"),
        metric(
            "tafdb.abort_ratio",
            ratio(aborted, committed + aborted),
            "ratio",
        ),
        metric(
            "tafdb.lock_conflicts_per_op",
            per_op(d.obs("tafdb_lock_conflicts_total")),
            "1/op",
        ),
        metric("engine.get_ns", get_ns, "ns"),
        metric("engine.put_ns", put_ns, "ns"),
        metric("engine.lock_wait_us", d.lock_wait_ns() / 1e3, "us"),
        metric("engine.lock_waits", d.lock_waits(), "count"),
        metric("store.wal_fsyncs_per_op", per_op(fsyncs), "1/op"),
        metric(
            "store.wal_records_per_fsync",
            ratio(d.obs("wal_appends_total"), fsyncs),
            "count",
        ),
        metric("store.wal_append_ns", wal_ns, "ns"),
        metric(
            "rpc.rpcs_per_op",
            per_op(sum_clients(&|c| c.rpcs as f64)),
            "1/op",
        ),
        metric("rpc.call_ns", rpc_ns, "ns"),
        metric("rpc.permit_wait_us", per_op(permit_wait_ns) / 1e3, "us"),
        metric("rpc.retries_per_op.txn", retries(RetryClass::Txn), "1/op"),
        metric(
            "rpc.retries_per_op.rename",
            retries(RetryClass::Rename),
            "1/op",
        ),
        metric(
            "rpc.retries_per_op.unavailable",
            retries(RetryClass::Unavailable),
            "1/op",
        ),
        metric(
            "rpc.retries_per_op.stale_route",
            retries(RetryClass::StaleRoute),
            "1/op",
        ),
        metric(
            "rpc.max_retries_one_op",
            core_log
                .clients
                .iter()
                .map(|c| c.max_retries)
                .max()
                .unwrap_or(0) as f64,
            "count",
        ),
        metric("clock.rtt_us", clock_us(TimeCategory::Rtt), "us"),
        metric("clock.fsync_us", clock_us(TimeCategory::Fsync), "us"),
        metric("clock.service_us", clock_us(TimeCategory::Service), "us"),
        metric("clock.queue_us", clock_us(TimeCategory::Queue), "us"),
        metric("clock.commit_us", clock_us(TimeCategory::Commit), "us"),
        metric("clock.backoff_us", clock_us(TimeCategory::Backoff), "us"),
        metric("trace.ops_per_s", t_ops, "1/s"),
        metric("trace.cpu_us_per_op", t_cpu, "us"),
        metric("trace.untraced_ops_per_s", u_ops, "1/s"),
        metric("trace.untraced_cpu_us_per_op", u_cpu, "us"),
    ];
    let modeled_mean_us = lat.model_mean_us;
    let ledger_us: f64 = TimeCategory::ALL.iter().map(|c| clock_us(*c)).sum();
    println!("modeled mean {modeled_mean_us:.3} us; clock ledger sum {ledger_us:.3} us");

    let spans_path = args.out.join(format!(
        "{}-seed{}.spans.jsonl",
        args.workload.name(),
        args.seed
    ));
    std::fs::write(&spans_path, span_lines.join("\n") + "\n").expect("write spans file");
    println!("spans written: {}", spans_path.display());

    Run {
        attempted: core_log.ops() + plain_log.ops() + layer_log.ops(),
        failed: core_log.failed() + plain_log.failed() + layer_log.failed(),
        errors,
        metrics,
        extra: [
            ("core_spans".into(), span_table(&core_spans)),
            ("layer_spans".into(), span_table(&lspans)),
            ("modeled_mean_us".into(), Json::F64(modeled_mean_us)),
            ("clock_ledger_sum_us".into(), Json::F64(ledger_us)),
            ("op_mix".into(), op_mix(&core_log)),
            ("tails".into(), tails(&core_log)),
        ]
        .into_iter()
        .chain(sz.record(ROUNDS))
        .collect(),
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    std::fs::create_dir_all(&args.out).expect("create output dir");
    let base = Instant::now();
    let config = format!("{:?}", setup::config(args.workload));
    println!(
        "workload {} seed {} seconds {} trace {} nproc {} rev {}",
        args.workload.name(),
        args.seed,
        args.seconds,
        args.trace as u8,
        sys::nproc(),
        args.rev
    );
    println!("config: {config}");
    let run = if args.trace {
        traced(&args, base)
    } else {
        untraced(&args, base)
    };
    for m in &run.metrics {
        println!("{:<34} {:>16.4} {}", m.name, m.value, m.unit);
    }
    let correct = run.errors.is_empty();
    if correct {
        println!("checks: all passed");
    }
    for e in run.errors.iter().take(20) {
        println!("CHECK FAILED: {e}");
    }
    let metrics = Json::Object(
        run.metrics
            .iter()
            .map(|m| {
                (
                    m.name.clone(),
                    obj([("value", Json::F64(m.value)), ("unit", jstr(m.unit))]),
                )
            })
            .collect(),
    );
    let mut record = vec![
        ("workload".to_string(), jstr(args.workload.name())),
        ("seed".into(), Json::U64(args.seed)),
        ("seconds".into(), Json::U64(args.seconds)),
        ("trace".into(), Json::Bool(args.trace)),
        ("nproc".into(), Json::U64(sys::nproc() as u64)),
        ("git_rev".into(), jstr(args.rev.clone())),
        ("config".into(), jstr(config)),
        ("correct".into(), Json::Bool(correct)),
        (
            "check_errors".into(),
            Json::Array(run.errors.iter().map(|e| Json::Str(e.clone())).collect()),
        ),
    ];
    record.extend(run.extra);
    let result = obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::U64(run.attempted)),
        ("failed", Json::U64(run.failed)),
        ("metrics", metrics),
    ]);
    let result_line = render(&result);
    record.push(("result".into(), result));
    let record = Json::Object(record);
    let path = args.out.join(format!(
        "{}-seed{}-trace{}.json",
        args.workload.name(),
        args.seed,
        args.trace as u8
    ));
    std::fs::write(&path, render(&record) + "\n").expect("write result record");
    println!("record written: {}", path.display());
    println!("{result_line}");
}
