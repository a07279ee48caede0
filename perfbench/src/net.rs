//! `net-mixed`: mixed AND/OR queries served over the TCP front door.
//!
//! Set-up: a forest table, a labeled mixed workload, and one GB × complex
//! (Limited Disjunction Encoding) estimator with a PostgreSQL-style
//! fallback, shared by [`TENANTS`] tenant shards behind a loopback
//! `NetServer`, all on production defaults (`ShardConfig::default()`,
//! `NetConfig::default()`). Load: a closed loop of [`CLIENTS`]
//! connections with one client thread each; tenants rotate per request
//! and queries are drawn by seed from the held-out test set.
//!
//! Server internals cannot be entered from outside, so the traced half
//! peels the layers: it issues each query of the same stream once per
//! public entry point, from the TCP round trip down to the binned
//! featurize and the compiled tree walk. A layer's self time is its span
//! minus the next inner entry point's span for the same query.

use std::io::{BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use qfe::core::estimator::CardinalityEstimator;
use qfe::core::featurize::{AttributeSpace, BinnedFeatureMatrix, LimitedDisjunctionEncoding};
use qfe::core::{q_error, Deadline, Query, TableId};
use qfe::data::forest::{generate_forest, ForestConfig};
use qfe::estimators::labels::label_queries;
use qfe::estimators::{LearnedEstimator, PostgresEstimator};
use qfe::ml::gbdt::{Gbdt, GbdtConfig};
use qfe::ml::train::Regressor;
use qfe::obs::HistogramSnapshot;
use qfe::serve::proto::MAX_FRAME_LEN;
use qfe::serve::{
    Frame, NetConfig, NetServer, ServiceConfig, Shard, ShardConfig, ShardKey, ShardRegistry,
    SharedEstimator, REQUEST_LATENCY_METRIC,
};
use qfe::workload::{generate_mixed_with_data, MixedConfig};

use crate::common::{
    measure, median, regressor_of, repeated_setup, trace_path, Args, Cycle, Phases, Report, Run,
    Samples,
};
use crate::trace::Trace;

const TABLE: TableId = TableId(0);
const FOREST_ROWS: usize = 4_000;
const TRAIN_QUERIES: usize = 1_200;
const TEST_QUERIES: usize = 400;
const BUCKETS: usize = 16;
const GBDT_TREES: usize = 60;
const TENANTS: usize = 4;
const CLIENTS: usize = 2;
/// Untimed requests per connection at the end of set-up.
const WARMUP_REQUESTS: usize = 50;
/// The reported tail percentile. Not p99: every request crosses several
/// thread hand-offs, so the few per cent of CPU time a hypervisor steals
/// moves a window's p99 by a factor of three between runs.
const TAIL_Q: f64 = 0.9;
/// Window over which rate, tail and CPU per request are taken; a window
/// holds well over a thousand requests, so its p90 has ten beyond it.
const WINDOW_S: f64 = 2.0;

/// One client connection speaking the length-prefixed wire protocol.
struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    out: Vec<u8>,
    body: Vec<u8>,
    sent_bytes: u64,
    sent_frames: u64,
}

impl Client {
    fn connect(addr: SocketAddr) -> Self {
        let stream = TcpStream::connect(addr).expect("connect to the loopback front door");
        stream
            .set_nodelay(true)
            .expect("disable Nagle on the client socket");
        Client {
            writer: stream.try_clone().expect("clone the client socket"),
            reader: BufReader::new(stream),
            out: Vec::new(),
            body: Vec::new(),
            sent_bytes: 0,
            sent_frames: 0,
        }
    }

    /// Send one frame and read its reply. With a trace, the calls into
    /// the proto layer (encode, decode) are recorded as spans of `op`.
    fn round_trip(
        &mut self,
        request: &Frame,
        trace: Option<(&mut Trace, u64)>,
    ) -> std::io::Result<Frame> {
        let t0 = Instant::now();
        let payload = request.encode();
        let t1 = Instant::now();
        self.out.clear();
        self.out
            .extend_from_slice(&(payload.len() as u32).to_le_bytes());
        self.out.extend_from_slice(&payload);
        self.writer.write_all(&self.out)?;
        self.sent_bytes += self.out.len() as u64;
        self.sent_frames += 1;
        let mut header = [0u8; 4];
        self.reader.read_exact(&mut header)?;
        let len = u32::from_le_bytes(header) as usize;
        if len > MAX_FRAME_LEN {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                "reply frame longer than the protocol allows",
            ));
        }
        self.body.resize(len, 0);
        self.reader.read_exact(&mut self.body)?;
        let t2 = Instant::now();
        let reply = Frame::decode(&self.body)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()));
        if let Some((trace, op)) = trace {
            trace.record(op, "proto.encode", "tcp", t0, t1);
            trace.record(op, "proto.decode", "tcp", t2, Instant::now());
        }
        reply
    }
}

/// What the client threads share.
struct Workload {
    queries: Vec<Query>,
    truths: Vec<f64>,
    /// The learned stage's direct `try_estimate` answer per query, as
    /// bits: every served value must equal it exactly.
    direct: Vec<u64>,
    tenants: Vec<u128>,
    registry: Arc<ShardRegistry>,
    learned: Arc<LearnedEstimator>,
    /// The learned stage's tree ensemble, for the peeled trace.
    regressor: Box<dyn Regressor + Send + Sync>,
}

/// Field order is drop order: connections close before the server
/// shuts down.
struct Setup {
    clients: Vec<Client>,
    work: Workload,
    server: NetServer,
}

fn setup(phases: &mut Phases) -> Setup {
    let (db, train, test) = phases.time("generate", || {
        let db = generate_forest(&ForestConfig {
            rows: FOREST_ROWS,
            quantitative_only: true,
            seed: 0xF0_4E57,
        });
        let train = generate_mixed_with_data(&db, &MixedConfig::new(TABLE, TRAIN_QUERIES, 303));
        let test = generate_mixed_with_data(&db, &MixedConfig::new(TABLE, TEST_QUERIES, 404));
        (db, train, test)
    });
    let (train, test) = phases.time("label", || {
        (label_queries(&db, train), label_queries(&db, test))
    });
    let (learned, postgres) = phases.time("train", || {
        let space = AttributeSpace::for_table(db.catalog(), TABLE);
        let mut learned = LearnedEstimator::new(
            Box::new(LimitedDisjunctionEncoding::new(space, BUCKETS).expect("buckets > 0")),
            Box::new(Gbdt::new(GbdtConfig {
                n_trees: GBDT_TREES,
                min_samples_leaf: 3,
                max_leaves: 64,
                ..GbdtConfig::default()
            })),
        );
        learned
            .fit(&train)
            .expect("mixed queries featurize under the complex QFT");
        (
            Arc::new(learned),
            Arc::new(PostgresEstimator::analyze_default(&db)),
        )
    });
    phases.time("bind", || {
        // Serve only queries the learned stage answers, so no request
        // legitimately falls through to the fallback.
        let (mut queries, mut truths, mut direct) = (Vec::new(), Vec::new(), Vec::new());
        for (q, &truth) in test.queries.iter().zip(&test.cardinalities) {
            if let Ok(est) = learned.try_estimate(q) {
                queries.push(q.clone());
                truths.push(truth);
                direct.push(est.value.to_bits());
            }
        }
        let registry = Arc::new(ShardRegistry::new());
        let tenants = (0..TENANTS)
            .map(|t| {
                let name = format!("tenant{t}");
                let key = ShardKey::for_tenant(&name);
                let stages = vec![
                    Arc::clone(&learned) as SharedEstimator,
                    Arc::clone(&postgres) as SharedEstimator,
                ];
                registry
                    .register(Shard::new(&name, key, stages, ShardConfig::default()))
                    .expect("tenant keys are distinct");
                key.0
            })
            .collect();
        let server =
            NetServer::bind_loopback_with_retry(Arc::clone(&registry), NetConfig::default(), 5)
                .expect("bind a loopback port");
        let regressor = regressor_of(&learned);
        let work = Workload {
            queries,
            truths,
            direct,
            tenants,
            registry,
            learned,
            regressor,
        };
        let mut clients: Vec<Client> = (0..CLIENTS)
            .map(|_| Client::connect(server.local_addr()))
            .collect();
        for (c, client) in clients.iter_mut().enumerate() {
            for k in 0..WARMUP_REQUESTS {
                let qi = k % work.queries.len();
                let request = request(&work, c, u64::MAX - k as u64, k, qi);
                let _ = client.round_trip(&request, None);
            }
        }
        Setup {
            clients,
            work,
            server,
        }
    })
}

fn request(work: &Workload, client: usize, id: u64, k: usize, qi: usize) -> Frame {
    Frame::EstimateRequest {
        request_id: id,
        tenant: work.tenants[(k + client) % work.tenants.len()],
        budget_micros: 0,
        query: work.queries[qi].clone(),
    }
}

#[derive(Default)]
struct Tally {
    samples: Samples,
    /// In-process `ShardRegistry::estimate_within` calls (traced half).
    registry_calls: u64,
    /// Operation ids of the traced round trips.
    ops: Vec<u64>,
}

/// One client thread's closed loop until `until`. Traced, every query is
/// also issued to each inner entry point (see the module docs).
#[allow(clippy::too_many_arguments)]
fn drive(
    work: &Workload,
    client: &mut Client,
    c: usize,
    seed: u64,
    epoch: Instant,
    until: Instant,
    tally: &mut Tally,
    mut trace: Option<&mut Trace>,
) {
    let mut stream = Cycle::new(
        work.queries.len(),
        seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (c as u64 + 1),
    );
    let budget = ServiceConfig::default().default_budget;
    let mut k = 0usize;
    while Instant::now() < until {
        let qi = stream.draw();
        let op = (c as u64) << 40 | k as u64;
        let request = request(work, c, op, k, qi);
        let bits = work.direct[qi];
        let t0 = Instant::now();
        let reply = client.round_trip(&request, trace.as_deref_mut().map(|t| (t, op)));
        let t1 = Instant::now();
        let mut good = match &reply {
            Ok(Frame::EstimateOk {
                request_id, value, ..
            }) if *request_id == op && value.to_bits() == bits => {
                tally.samples.qerrors.push(q_error(work.truths[qi], *value));
                true
            }
            _ => false,
        };
        if let Some(trace) = trace.as_deref_mut() {
            trace.record(op, "tcp", "client", t0, t1);
            let tenant = ShardKey(work.tenants[(k + c) % work.tenants.len()]);
            good &= peel(work, trace, op, tenant, &work.queries[qi], bits, budget);
            tally.registry_calls += 1;
            tally.ops.push(op);
        }
        tally.samples.op(epoch, t0, t1, good);
        k += 1;
    }
}

/// Issue `query` once to each public entry point below the TCP front
/// door, innermost last; true when every answer is bit-equal to `bits`.
fn peel(
    work: &Workload,
    trace: &mut Trace,
    op: u64,
    key: ShardKey,
    query: &Query,
    bits: u64,
    budget: Duration,
) -> bool {
    let one = std::slice::from_ref(query);
    let same = |v: f64| v.to_bits() == bits;
    let routed = trace.time(op, "shard.route", "registry", || work.registry.route(key));
    let shard = routed.expect("the registry holds every tenant");
    let fleet = trace.time(op, "registry", "tcp", || {
        work.registry
            .estimate_within(key, query, Deadline::within(budget))
    });
    let service = trace.time(op, "service", "registry", || {
        shard
            .service()
            .estimate_batch_within(one, Deadline::within(budget))
    });
    let estimator = trace.time(op, "estimator", "service", || {
        work.learned.estimate_batch(one)
    });
    let binner = work
        .regressor
        .feature_binner()
        .expect("a compiled GB publishes its feature binner");
    let matrix = trace.time(op, "featurize", "estimator", || {
        BinnedFeatureMatrix::build(work.learned.featurizer(), binner, one)
    });
    let (rows, _, bins, _) = matrix.into_raw();
    let predictions = trace.time(op, "ml", "estimator", || {
        work.regressor.predict_batch_binned(rows, &bins)
    });
    fleet.is_ok_and(|e| same(e.value))
        && matches!(service.first(), Some(Ok(e)) if same(e.value))
        && matches!(estimator.first(), Some(Ok(e)) if same(e.value))
        && predictions.is_some()
}

/// Run every client's loop for `seconds`; traced, also return the spans.
fn timed_phase(
    work: &Workload,
    clients: &mut [Client],
    seed: u64,
    seconds: f64,
    traced: bool,
) -> (Run, Tally, Trace) {
    let clock = measure(seconds, WINDOW_S, |epoch, until| {
        std::thread::scope(|s| {
            let handles: Vec<_> = clients
                .iter_mut()
                .enumerate()
                .map(|(c, client)| {
                    s.spawn(move || {
                        let mut tally = Tally::default();
                        let mut trace = Trace::new(epoch);
                        let t = traced.then_some(&mut trace);
                        drive(work, client, c, seed, epoch, until, &mut tally, t);
                        (tally, trace)
                    })
                })
                .collect();
            let mut samples = Samples::default();
            let mut all = Tally::default();
            let mut trace = Trace::new(epoch);
            for h in handles {
                let (tally, t) = h.join().expect("client thread");
                samples.absorb(tally.samples);
                all.registry_calls += tally.registry_calls;
                all.ops.extend(tally.ops);
                trace.absorb(t);
            }
            (samples, (all, trace))
        })
    });
    let (run, (tally, trace)) = Run::new(clock);
    (run, tally, trace)
}

fn routed_total(registry: &ShardRegistry) -> u64 {
    registry.shards().iter().map(|s| s.stats().routed).sum()
}

pub fn run(args: &Args, started: Instant) -> Report {
    let (
        Setup {
            mut clients,
            work,
            mut server,
        },
        setup_times,
    ) = repeated_setup(started, setup);
    println!(
        "net-mixed: {} held-out mixed queries; {TENANTS} tenant shards sharing one GB x complex \
         model (PostgreSQL-style fallback) on ShardConfig::default() (quota 64; \
         ServiceConfig::default(): 1 ms batch-fill wait, 100 ms budget, 2 batcher workers) \
         behind NetConfig::default(); closed loop, {CLIENTS} connections, one client thread each",
        work.queries.len()
    );
    let routed_before = routed_total(&work.registry);
    let mut report = Report::new(args.trace);
    let seconds = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let (untraced, _, _) = timed_phase(&work, &mut clients, args.seed, seconds, false);
    let traced = args
        .trace
        .then(|| timed_phase(&work, &mut clients, args.seed ^ 0x7EAC, seconds, true));
    let sent =
        untraced.ok + untraced.failed + traced.as_ref().map_or(0, |(r, _, _)| r.ok + r.failed);
    let registry_calls = traced.as_ref().map_or(0, |(_, t, _)| t.registry_calls);
    let (sent_bytes, sent_frames) = clients
        .iter()
        .fold((0, 0), |(b, f), c| (b + c.sent_bytes, f + c.sent_frames));
    drop(clients);

    // Gates, at quiescence: every client thread has its last reply.
    let net = server.stats();
    report.gate(
        net.proto_errors == 0 && net.io_errors == 0,
        format!(
            "front door saw {} protocol and {} transport errors",
            net.proto_errors, net.io_errors
        ),
    );
    let shards = work.registry.shards();
    let conserved = shards.iter().all(|s| s.stats().conserved());
    report.gate(conserved, "every shard has routed == admitted + quota_shed");
    let routed = routed_total(&work.registry) - routed_before;
    report.gate(
        routed == sent + registry_calls,
        format!(
            "shards routed {routed} requests for {sent} sent and {registry_calls} in-process calls"
        ),
    );

    match traced {
        None => report.end_to_end(&setup_times, &untraced, TAIL_Q, "request"),
        Some((traced_run, tally, trace)) => {
            report.attempted = sent;
            report.failed = untraced.failed + traced_run.failed;
            setup_times.report_phases(&mut report);
            layer_metrics(&mut report, &work, &shards, &untraced, &tally, &trace);
            report.metric(
                "proto.bytes_per_req",
                sent_bytes as f64 / sent_frames.max(1) as f64,
                format!("mean over {sent_frames} request frames, length prefix included"),
            );
            report.metric(
                "net.proto_errors",
                net.proto_errors as f64,
                "NetServer::stats",
            );
            report.metric("net.io_errors", net.io_errors as f64, "NetServer::stats");
            trace.write_tsv(&trace_path("net-mixed"));
        }
    }
    server.shutdown();
    report
}

fn layer_metrics(
    report: &mut Report,
    work: &Workload,
    shards: &[Arc<Shard>],
    untraced: &Run,
    tally: &Tally,
    trace: &Trace,
) {
    let ops = &tally.ops;
    let n = ops.len();
    let totals = trace.totals();
    let per_op = |layer| {
        ops.iter()
            .map(|&op| totals.get(op, layer))
            .collect::<Vec<_>>()
    };
    let net_self = median(&totals.self_per_op(ops, "tcp", &["registry"]));
    let route = median(&per_op("shard.route"));
    let batch_self = median(&totals.self_per_op(ops, "registry", &["shard.route", "service"]));
    let service_self = median(&totals.self_per_op(ops, "service", &["estimator"]));
    let estimator_self = median(&totals.self_per_op(ops, "estimator", &["featurize", "ml"]));
    let featurize = median(&per_op("featurize"));
    let ml = median(&per_op("ml"));
    let attributed = net_self + route + batch_self + service_self + estimator_self + featurize + ml;
    let peeled = format!("median over n={n} peeled queries");
    report.attribution(
        &untraced.latencies_us,
        &per_op("tcp"),
        attributed,
        "round trip",
    );
    let ops_untraced = (untraced.ok + untraced.failed).max(1) as f64;
    report.metric(
        "proc.ctx_switches_per_op",
        untraced.usage.ctx_switches / ops_untraced,
        "getrusage, untraced half",
    );
    report.metric(
        "proto.encode_us",
        median(&trace.durations_us("proto.encode")),
        &peeled,
    );
    report.metric(
        "proto.decode_us",
        median(&trace.durations_us("proto.decode")),
        &peeled,
    );
    report.metric(
        "net.self_us_p50",
        net_self,
        "TCP round trip minus ShardRegistry::estimate_within",
    );
    report.metric("shard.route_us", route, &peeled);
    report.metric(
        "batch.self_us_p50",
        batch_self,
        "registry minus route minus service: quota gate, batcher fill wait and hand-off",
    );
    report.metric(
        "service.self_us_p50",
        service_self,
        "estimate_batch_within minus the estimator: admission, stage loop, watchdog",
    );
    report.metric(
        "estimator.us_p50",
        median(&trace.durations_us("estimator")),
        &peeled,
    );
    report.metric(
        "estimator.self_us_p50",
        estimator_self,
        "estimate_batch minus binned featurize and tree walk",
    );
    report.metric(
        "estimator.fallbacks",
        work.learned.fallback_count() as f64,
        "LearnedEstimator::fallback_count",
    );
    report.metric(
        "featurize.us_per_query",
        featurize,
        "BinnedFeatureMatrix::build, one row",
    );
    report.metric("ml.predict_us_per_row", ml, "predict_batch_binned, one row");

    // The program's own counters, summed over the shards.
    let (mut answered, mut depth0, mut floor, mut timeouts) = (0, 0, 0, 0);
    let (mut drains, mut batched, mut expired, mut shed) = (0, 0, 0, 0);
    let mut latency: Option<HistogramSnapshot> = None;
    for shard in shards {
        let stats = shard.service().stats();
        answered += stats.answered;
        floor += stats.floor_answers;
        depth0 += stats.stages.first().map_or(0, |s| s.hits);
        timeouts += stats.stages.iter().map(|s| s.timeouts).sum::<u64>();
        drains += stats.batch_drains;
        batched += stats.batched_requests;
        shed += shard.stats().quota_shed;
        let snapshot = shard.service().metrics();
        expired += snapshot.counter("serve.batch.expired");
        if let Some(h) = snapshot.histogram(REQUEST_LATENCY_METRIC) {
            latency = Some(match latency {
                None => h.clone(),
                Some(mut merged) => {
                    for (a, b) in merged.buckets.iter_mut().zip(h.buckets.iter()) {
                        *a += b;
                    }
                    merged.count += h.count;
                    merged.sum_nanos += h.sum_nanos;
                    merged.max_nanos = merged.max_nanos.max(h.max_nanos);
                    merged
                }
            });
        }
    }
    let counted = "program counters, whole run";
    report.metric("shard.quota_shed", shed as f64, counted);
    report.metric(
        "batch.mean_size",
        batched as f64 / drains.max(1) as f64,
        "batched_requests / batch_drains",
    );
    report.metric("batch.expired", expired as f64, counted);
    report.metric(
        "service.depth0_frac",
        depth0 as f64 / answered.max(1) as f64,
        "stage-0 hits / answered",
    );
    report.metric("service.floor_answers", floor as f64, counted);
    report.metric("service.stage_timeouts", timeouts as f64, counted);
    if let Some(latency) = latency {
        let note = format!(
            "{REQUEST_LATENCY_METRIC}, log2-bucket upper bound, n={}",
            latency.count
        );
        report.metric(
            "service.request_p50_us",
            latency.p50_nanos() as f64 / 1e3,
            &note,
        );
        report.metric(
            "service.request_p99_us",
            latency.p99_nanos() as f64 / 1e3,
            &note,
        );
    }
}
