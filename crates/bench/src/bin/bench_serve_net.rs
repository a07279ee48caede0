//! Loopback throughput record for the sharded TCP front door: a
//! registry of per-tenant shards (PostgreSQL-style baseline estimators
//! over tiny per-tenant tables) behind `NetServer`, driven by client
//! threads speaking the length-prefixed wire protocol over real TCP.
//! Writes the machine-readable record to `BENCH_serve_net.json`
//! (override with `QFE_BENCH_JSON`).
//!
//! Hard gates (exit non-zero on any violation, hardware-independent):
//!
//! * **Zero protocol errors** — every response decodes as a typed
//!   frame, every request gets `EstimateOk` for its own request id.
//! * **Conservation** — per shard, `routed == admitted + quota_shed`
//!   at quiescence, and the fleet-wide routed total equals the number
//!   of requests sent.
//!
//! Throughput (qps) and latency quantiles are recorded but not gated
//! here: they are hardware-dependent, so the CI compare step gates
//! them generously against the committed record instead, and the
//! `environment` field spells out the caveat for small containers.

use std::io::BufReader;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Instant;

use qfe_bench::Scale;
use qfe_core::predicate::{CmpOp, CompoundPredicate, PredicateExpr};
use qfe_core::query::{ColumnRef, Query};
use qfe_core::schema::{ColumnId, TableId};
use qfe_core::Value;
use qfe_data::{Column, Database, Table};
use qfe_estimators::PostgresEstimator;
use qfe_serve::{
    read_frame, write_frame, Frame, NetConfig, ServiceConfig, Shard, ShardConfig, ShardKey,
    ShardRegistry,
};

const TENANTS: usize = 4;
const CONNECTIONS: usize = 8;

fn tenant_db(rows: usize, seed: i64) -> Database {
    Database::new(
        vec![Table::new(
            "t",
            vec![
                (
                    "a".into(),
                    Column::Int((0..rows as i64).map(|v| (v * 7 + seed) % 50).collect()),
                ),
                (
                    "b".into(),
                    Column::Int((0..rows as i64).map(|v| (v + seed) % 10).collect()),
                ),
            ],
        )],
        &[],
    )
}

fn query_for(value: i64) -> Query {
    Query {
        tables: vec![TableId(0)],
        joins: vec![],
        predicates: vec![CompoundPredicate {
            column: ColumnRef::new(TableId(0), ColumnId(0)),
            expr: PredicateExpr::leaf(CmpOp::Le, Value::Int(value % 50)),
        }],
    }
}

struct ClientTally {
    latencies_micros: Vec<u64>,
    estimate_errors: u64,
    proto_anomalies: u64,
}

fn drive_connection(
    addr: std::net::SocketAddr,
    tenants: &[u128],
    first_id: u64,
    requests: usize,
) -> ClientTally {
    let stream = TcpStream::connect(addr).expect("connect to loopback front door");
    stream.set_nodelay(true).expect("nodelay");
    let mut writer = stream.try_clone().expect("clone stream");
    let mut reader = BufReader::new(stream);
    let mut tally = ClientTally {
        latencies_micros: Vec::with_capacity(requests),
        estimate_errors: 0,
        proto_anomalies: 0,
    };
    for i in 0..requests {
        let request_id = first_id + i as u64;
        let req = Frame::EstimateRequest {
            request_id,
            tenant: tenants[i % tenants.len()],
            budget_micros: 0, // server default
            query: query_for(request_id as i64),
        };
        let t0 = Instant::now();
        write_frame(&mut writer, &req).expect("write request");
        match read_frame(&mut reader) {
            Ok(Some(Frame::EstimateOk {
                request_id: rid,
                value,
                ..
            })) if rid == request_id && value.is_finite() && value >= 1.0 => {
                tally.latencies_micros.push(t0.elapsed().as_micros() as u64);
            }
            Ok(Some(Frame::EstimateErr { .. })) => tally.estimate_errors += 1,
            other => {
                eprintln!("protocol anomaly on request {request_id}: {other:?}");
                tally.proto_anomalies += 1;
            }
        }
    }
    tally
}

fn quantile(sorted_micros: &[u64], q: f64) -> u64 {
    if sorted_micros.is_empty() {
        return 0;
    }
    let idx = ((sorted_micros.len() - 1) as f64 * q).round() as usize;
    sorted_micros[idx]
}

fn main() {
    let scale = Scale::from_env();
    let total_requests: usize = std::env::var("QFE_NET_REQUESTS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(10_000);
    let per_connection = total_requests.div_ceil(CONNECTIONS);
    let total_requests = per_connection * CONNECTIONS;

    eprintln!(
        "building {TENANTS} tenant shards at scale '{}'…",
        scale.label
    );
    let registry = Arc::new(ShardRegistry::new());
    let mut tenant_keys = Vec::with_capacity(TENANTS);
    for t in 0..TENANTS {
        let name = format!("tenant{t}");
        let db = tenant_db(64 + 16 * t, t as i64);
        let key = ShardKey::for_tenant(&name);
        registry
            .register(Shard::new(
                &name,
                key,
                vec![Arc::new(PostgresEstimator::analyze_default(&db))],
                ShardConfig {
                    quota: 64,
                    service: ServiceConfig::default(),
                },
            ))
            .expect("register tenant shard");
        tenant_keys.push(key.0);
    }

    // Satellite flake-proofing: bind on port 0 with retries, never a
    // fixed port that a parallel CI job could be squatting on.
    let mut server = qfe_serve::NetServer::bind_loopback_with_retry(
        Arc::clone(&registry),
        NetConfig {
            max_connections: CONNECTIONS + 4,
            ..NetConfig::default()
        },
        5,
    )
    .expect("bind loopback front door");
    let addr = server.local_addr();
    eprintln!("front door listening on {addr}");

    let t0 = Instant::now();
    let mut handles = Vec::new();
    for c in 0..CONNECTIONS {
        let tenants = tenant_keys.clone();
        // Offset each connection's tenant rotation so every connection
        // carries a mixed-tenant stream rather than a single tenant.
        let rotated: Vec<u128> = (0..tenants.len())
            .map(|i| tenants[(i + c) % tenants.len()])
            .collect();
        let first_id = (c * per_connection) as u64;
        handles.push(std::thread::spawn(move || {
            drive_connection(addr, &rotated, first_id, per_connection)
        }));
    }
    let mut latencies: Vec<u64> = Vec::with_capacity(total_requests);
    let mut estimate_errors = 0u64;
    let mut proto_anomalies = 0u64;
    for h in handles {
        let tally = h.join().expect("client thread");
        latencies.extend(tally.latencies_micros);
        estimate_errors += tally.estimate_errors;
        proto_anomalies += tally.proto_anomalies;
    }
    let elapsed = t0.elapsed().as_secs_f64();
    server.shutdown();

    latencies.sort_unstable();
    let qps = total_requests as f64 / elapsed;
    let p50 = quantile(&latencies, 0.50);
    let p99 = quantile(&latencies, 0.99);

    // Conservation audit at quiescence: every request the clients sent
    // must appear exactly once in some shard's routed counter, and
    // each shard's books must balance.
    let mut routed_total = 0u64;
    let mut conserved = registry.conserved();
    let mut per_shard = Vec::new();
    for shard in registry.shards() {
        let stats = shard.stats();
        conserved &= stats.conserved();
        routed_total += stats.routed;
        per_shard.push(format!(
            "{{\"shard\":\"{}\",\"routed\":{},\"admitted\":{},\"quota_shed\":{}}}",
            shard.name(),
            stats.routed,
            stats.admitted,
            stats.quota_shed
        ));
    }
    per_shard.sort();

    let cores = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    println!(
        "serve-net loopback: {total_requests} requests, {TENANTS} tenants, {CONNECTIONS} connections, {cores} core(s):"
    );
    println!("  {qps:>9.0} req/s   p50 {p50} µs   p99 {p99} µs   wall {elapsed:.2} s");
    println!(
        "  routed {routed_total}   estimate errors {estimate_errors}   protocol anomalies {proto_anomalies}   conserved {conserved}"
    );

    // Loopback qps is only comparable across runs on similar hardware;
    // the record carries the caveat so a tiny CI container is never
    // misread as a serving regression.
    let environment = if cores < 4 {
        format!("{cores}-core container: acceptors, handlers and clients contend for the same cores, qps and tail latency degrade; only the correctness gates are meaningful here")
    } else {
        format!("{cores} cores available: loopback throughput comparable across runs on this class of machine")
    };
    let json = format!(
        "{{\"workload\":\"serve-net-loopback\",\"scale\":\"{}\",\"tenants\":{TENANTS},\"connections\":{CONNECTIONS},\"requests\":{total_requests},\"cores\":{cores},\"environment\":\"{environment}\",\"qps\":{qps:.0},\"p50_micros\":{p50},\"p99_micros\":{p99},\"estimate_errors\":{estimate_errors},\"proto_anomalies\":{proto_anomalies},\"routed_total\":{routed_total},\"conserved\":{conserved},\"shards\":[{}]}}\n",
        scale.label,
        per_shard.join(",")
    );
    let path = std::env::var("QFE_BENCH_JSON").unwrap_or_else(|_| "BENCH_serve_net.json".into());
    std::fs::write(&path, &json).unwrap_or_else(|e| panic!("writing {path}: {e}"));
    eprintln!("wrote {path}");

    let mut failed = false;
    if proto_anomalies > 0 {
        eprintln!("PROTOCOL VIOLATION: {proto_anomalies} response(s) failed to decode or mismatched their request");
        failed = true;
    }
    if estimate_errors > 0 {
        eprintln!("SERVING VIOLATION: {estimate_errors} request(s) were refused under a calm, in-quota workload");
        failed = true;
    }
    if routed_total != total_requests as u64 {
        eprintln!(
            "ACCOUNTING VIOLATION: clients sent {total_requests} requests but shards routed {routed_total}"
        );
        failed = true;
    }
    if !conserved {
        eprintln!(
            "CONSERVATION VIOLATION: some shard has routed != admitted + quota_shed at quiescence"
        );
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
}
