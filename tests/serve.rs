//! csaw-serve integration: codec robustness under hostile bytes,
//! weighted-fair scheduling under skewed offered load, and ledger
//! conservation over the wire with induced sheds, expiries, and a
//! panicking batch.

use csaw::graph::generators::erdos_renyi;
use csaw::graph::Csr;
use csaw::serve::{
    parse_value, ChunkFrame, Client, ClientError, CsawServer, ErrorCode, ErrorFrame, EventFrame,
    EventKind, FairScheduler, Frame, ResponseFrame, SampleFrame, SchedulerConfig, ServeConfig,
    StreamEndFrame, TenantQuota, WireAlgo,
};
use csaw::service::{BatchExecutor, BatchOutput, EngineExecutor, SamplingService, ServiceConfig};
use proptest::prelude::*;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

// ---------------------------------------------------------------------
// Wire codec: round-trip and hostile-input properties
// ---------------------------------------------------------------------

fn lowercase_string(v: Vec<u32>) -> String {
    v.into_iter().map(|c| char::from(b'a' + (c % 26) as u8)).collect()
}

fn arb_string() -> impl Strategy<Value = String> {
    prop::collection::vec(0u32..26, 0..12).prop_map(lowercase_string)
}

fn arb_instances() -> impl Strategy<Value = Vec<Vec<(u32, u32)>>> {
    prop::collection::vec(prop::collection::vec((0u32..5000, 0u32..5000), 0..6), 0..5)
}

/// One strategy covering every frame kind, driven by a discriminant.
fn arb_frame() -> impl Strategy<Value = Frame> {
    (
        (0u32..16, any::<u64>()),
        (any::<u32>(), any::<u64>()),
        (arb_string(), arb_instances()),
        prop::collection::vec(any::<u32>(), 0..8),
    )
        .prop_map(|((kind, a), (b, c), (s, instances), nums)| {
            build_frame(kind, a, b, c, s, instances, nums)
        })
}

fn build_frame(
    kind: u32,
    a: u64,
    b: u32,
    c: u64,
    s: String,
    instances: Vec<Vec<(u32, u32)>>,
    nums: Vec<u32>,
) -> Frame {
    use csaw::graph::EdgeEdit;
    match kind {
        0 => Frame::Hello { version: b as u16, tenant: s },
        1 => Frame::HelloAck { version: b as u16 },
        2 => Frame::Sample(SampleFrame {
            id: a,
            algo: WireAlgo {
                name: s,
                depth: b.is_multiple_of(2).then_some(b),
                neighbor_size: b.is_multiple_of(3).then_some(b / 3),
                pf: b.is_multiple_of(5).then(|| (c % 1000) as f64 / 1000.0),
                p: None,
                q: Some((b % 97) as f64 / 97.0),
                p_jump: None,
                p_restart: b.is_multiple_of(7).then_some(0.15),
            },
            seeds: nums,
            rng_seed: c,
            deadline_us: (b % 2 == 1).then_some(c),
            stream_chunk: b % 9,
        }),
        3 => Frame::Response(ResponseFrame {
            id: a,
            instance_base: b,
            batch_requests: c % 100,
            batch_instances: c % 1000,
            queue_wait_us: c,
            sampled_edges: a % 10_000,
            instances,
        }),
        4 => Frame::Chunk(ChunkFrame { id: a, seq: b % 50, chunk_base: b, instances }),
        5 => Frame::StreamEnd(StreamEndFrame {
            id: a,
            chunks: b % 50,
            instance_base: b,
            sampled_edges: c,
        }),
        6 => Frame::Mutate {
            id: a,
            edits: nums
                .chunks(3)
                .filter(|ch| ch.len() == 3)
                .map(|ch| match ch[0] % 3 {
                    0 => EdgeEdit::Insert {
                        src: ch[1],
                        dst: ch[2],
                        weight: (ch[0] % 100) as f32 / 10.0,
                    },
                    1 => EdgeEdit::Delete { src: ch[1], dst: ch[2] },
                    _ => EdgeEdit::Reweight {
                        src: ch[1],
                        dst: ch[2],
                        weight: (ch[0] % 50) as f32 / 5.0,
                    },
                })
                .collect(),
        },
        7 => Frame::MutateAck { id: a, epoch: c, overlay_vertices: c % 500 },
        8 => Frame::Compact { id: a },
        9 => Frame::CompactAck { id: a, folded: c },
        10 => Frame::Stats { id: a },
        11 => Frame::StatsAck { id: a, text: s },
        12 => Frame::Subscribe { id: a },
        13 => Frame::Event(EventFrame {
            request_id: a,
            tenant: s,
            kind: match b % 3 {
                0 => EventKind::Completed,
                1 => EventKind::Expired,
                _ => EventKind::Failed,
            },
            sampled_edges: c,
            instances: b,
        }),
        14 => Frame::Error(ErrorFrame {
            id: a,
            code: ErrorCode::from_u16(1 + (b % 13) as u16).expect("codes 1..=13 are valid"),
            retry_after_us: c,
            message: s,
        }),
        _ => Frame::Goodbye,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any frame encodes and decodes back bit-identical (the re-encoded
    /// byte string equals the original encoding, and the decoded value
    /// equals the original frame).
    #[test]
    fn codec_round_trips_bit_identical(frame in arb_frame()) {
        let bytes = frame.to_bytes();
        let decoded = Frame::decode(&bytes[4..]).expect("valid frame decodes");
        prop_assert_eq!(&decoded, &frame);
        prop_assert_eq!(decoded.to_bytes(), bytes);
    }

    /// Every strict prefix of a frame body fails with a typed error —
    /// no panic, no partial value.
    #[test]
    fn truncated_frames_yield_typed_errors(frame in arb_frame()) {
        let bytes = frame.to_bytes();
        let body = &bytes[4..];
        for cut in 0..body.len() {
            let res = Frame::decode(&body[..cut]);
            prop_assert!(res.is_err(), "prefix of {} bytes decoded: {:?}", cut, res);
        }
    }

    /// Corrupting any single byte never panics the decoder: it either
    /// fails with a typed error or yields some other valid frame.
    #[test]
    fn corrupt_frames_never_panic(frame in arb_frame(), pos in any::<u32>(), flip in 1u32..256) {
        let bytes = frame.to_bytes();
        let mut body = bytes[4..].to_vec();
        let pos = pos as usize % body.len();
        body[pos] ^= flip as u8;
        if let Ok(reframe) = Frame::decode(&body) {
            // Whatever decoded must itself round-trip.
            let re = reframe.to_bytes();
            prop_assert_eq!(Frame::decode(&re[4..]).expect("round trip"), reframe);
        }
    }
}

// ---------------------------------------------------------------------
// Fairness
// ---------------------------------------------------------------------

/// Deterministic SFQ property: with a 10:1 offered backlog and equal
/// weights, the light tenant's entire backlog dispatches within
/// roughly 2x its fair interleave window — it is not stuck behind the
/// heavy tenant's queue as FIFO would leave it.
#[test]
fn fair_queue_interleaves_10_to_1_backlog() {
    let sched: FairScheduler<&'static str> = FairScheduler::new(SchedulerConfig {
        max_inflight: 1,
        default_quota: TenantQuota { max_queued: 256, ..TenantQuota::default() },
        ..SchedulerConfig::default()
    });
    for _ in 0..100 {
        sched.admit("heavy", 1.0, 0.0, "heavy").unwrap();
    }
    for _ in 0..10 {
        sched.admit("light", 1.0, 0.0, "light").unwrap();
    }
    let mut last_light_slot = 0;
    for slot in 0..110 {
        let (tenant, _) = sched.next().expect("backlog");
        sched.complete(&tenant);
        if tenant == "light" {
            last_light_slot = slot;
        }
    }
    // Equal weights: light's 10 jobs should interleave ~1:1 while it
    // has backlog, finishing near slot 20; 30 allows tag-ordering slack.
    assert!(
        last_light_slot <= 30,
        "light tenant's last job dispatched at slot {last_light_slot} of 110"
    );
}

/// Weighted variant: a weight-5 tenant gets ~5x the slots of a
/// weight-1 tenant while both are backlogged.
#[test]
fn fair_queue_divides_slots_by_weight() {
    let quotas = [
        ("gold", TenantQuota { weight: 5, ..TenantQuota::default() }),
        ("bronze", TenantQuota { weight: 1, ..TenantQuota::default() }),
    ];
    let sched: FairScheduler<&'static str> = FairScheduler::new(SchedulerConfig {
        max_inflight: 1,
        tenant_quotas: quotas.iter().map(|(n, q)| (n.to_string(), *q)).collect(),
        ..SchedulerConfig::default()
    });
    for _ in 0..60 {
        sched.admit("gold", 1.0, 0.0, "gold").unwrap();
        sched.admit("bronze", 1.0, 0.0, "bronze").unwrap();
    }
    let mut gold_in_first_60 = 0;
    for _ in 0..60 {
        let (tenant, _) = sched.next().expect("backlog");
        sched.complete(&tenant);
        if tenant == "gold" {
            gold_in_first_60 += 1;
        }
    }
    // Ideal is 50 of 60 (5/6); allow +-8 for tag quantization.
    assert!(
        (42..=58).contains(&gold_in_first_60),
        "weight-5 tenant got {gold_in_first_60}/60 slots"
    );
}

fn test_graph() -> Arc<Csr> {
    Arc::new(erdos_renyi(64, 256, 7))
}

/// Delegates to the engine one permit at a time: `execute` blocks until
/// the test releases it, so the test decides when each dispatched request
/// may run (the [`PanicOnSeed`] wrapper pattern).
#[derive(Default)]
struct Gate {
    permits: Mutex<usize>,
    released: Condvar,
}

impl Gate {
    fn release_one(&self) {
        *self.permits.lock().expect("gate lock") += 1;
        self.released.notify_one();
    }
}

impl BatchExecutor for Gate {
    fn name(&self) -> &'static str {
        "gated"
    }

    fn execute(
        &self,
        graph: &Csr,
        algo: &dyn csaw::core::api::Algorithm,
        seed_sets: &[Vec<u32>],
        opts: csaw::core::engine::RunOptions,
    ) -> BatchOutput {
        let permits = self.permits.lock().expect("gate lock");
        *self.released.wait_while(permits, |p| *p == 0).expect("gate lock") -= 1;
        EngineExecutor.execute(graph, algo, seed_sets, opts)
    }
}

/// Polls `ready` until it holds. Bounded by a poll count, not a clock: a
/// condition that never comes fails the test instead of hanging it.
fn wait_until(what: &str, mut ready: impl FnMut() -> bool) {
    for _ in 0..20_000 {
        if ready() {
            return;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    panic!("gave up waiting for {what}");
}

/// End-to-end fairness over the wire, judged by order, not by time: a
/// tenant that queued 10x the load *first* does not starve a light
/// tenant. Dispatch is held until the whole backlog — forty heavy
/// requests, then four light ones, one connection each — sits in the fair
/// queue, then runs one request per published completion event, so the
/// subscriber's event order is the dispatch order. Start-time fair
/// queuing tags the light requests 0..4 and the heavy ones 0..40: all
/// four light completions land in the first ten. FIFO would put them last.
#[test]
fn wire_fairness_light_tenant_is_not_starved() {
    const HEAVY: usize = 40;
    const LIGHT: usize = 4;
    let gate = Arc::new(Gate::default());
    let service = SamplingService::new(test_graph(), gate.clone(), ServiceConfig::default());
    let server = CsawServer::start(
        service,
        ServeConfig {
            metrics_addr: None,
            scheduler: SchedulerConfig { max_inflight: 1, ..SchedulerConfig::default() },
            ..ServeConfig::default()
        },
    )
    .expect("bind");
    let addr = server.addr();
    let metric = |name: &str| parse_value(&server.metrics_page(), name);
    let enqueued =
        |tenant: &str| metric(&format!("csaw_tenant_enqueued_total{{tenant=\"{tenant}\"}}"));

    let mut events =
        Client::connect(addr, "watch").expect("connect").subscribe().expect("subscribe");
    wait_until("the subscription", || metric("csaw_serve_subscribers") == Some(1.0));
    let subscriber = {
        let gate = Arc::clone(&gate);
        std::thread::spawn(move || {
            let mut order = Vec::with_capacity(HEAVY + LIGHT);
            while order.len() < HEAVY + LIGHT {
                let event = events.next_event().expect("event stream").expect("server open");
                assert_eq!(event.kind, EventKind::Completed, "{event:?}");
                order.push(event.tenant);
                // This completion is on record: the next request may run.
                gate.release_one();
            }
            order
        })
    };

    let one_request = |tenant: &'static str, i: usize| {
        std::thread::spawn(move || {
            let mut c = Client::connect(addr, tenant).expect("connect");
            let algo = WireAlgo::by_name("simple-walk").with_depth(8);
            c.sample(algo, vec![i as u32 % 64], 1, None).expect("sample");
        })
    };
    let mut clients: Vec<_> = (0..HEAVY).map(|i| one_request("heavy", i)).collect();
    wait_until("the heavy backlog", || enqueued("heavy") == Some(HEAVY as f64));
    clients.extend((0..LIGHT).map(|i| one_request("light", i)));
    wait_until("the light backlog", || enqueued("light") == Some(LIGHT as f64));

    // The first heavy request was dispatched on arrival and waits at the
    // gate; the other 43 are queued behind it.
    gate.release_one();
    for c in clients {
        c.join().expect("client thread");
    }
    let order = subscriber.join().expect("subscriber thread");
    server.shutdown();

    assert_eq!(order.iter().filter(|t| *t == "light").count(), LIGHT, "{order:?}");
    let last_light = order.iter().rposition(|t| t == "light").expect("light completions");
    assert!(
        last_light < 10,
        "light tenant not fairly interleaved: its last completion is event {} of {order:?}",
        last_light + 1
    );
}

// ---------------------------------------------------------------------
// Multi-tenant conservation under sheds, expiries, and a panic
// ---------------------------------------------------------------------

/// Delegates to the engine, but panics for a magic RNG seed — inducing
/// one failed batch without touching the others.
struct PanicOnSeed(EngineExecutor);

const PANIC_SEED: u64 = 999;

impl BatchExecutor for PanicOnSeed {
    fn name(&self) -> &'static str {
        "panic-on-seed"
    }

    fn execute(
        &self,
        graph: &Csr,
        algo: &dyn csaw::core::api::Algorithm,
        seed_sets: &[Vec<u32>],
        opts: csaw::core::engine::RunOptions,
    ) -> BatchOutput {
        assert!(opts.seed != PANIC_SEED, "induced batch panic for testing");
        self.0.execute(graph, algo, seed_sets, opts)
    }
}

fn scrape(addr: SocketAddr, path: &str) -> (String, String) {
    let mut s = TcpStream::connect(addr).expect("connect metrics");
    s.write_all(format!("GET {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n").as_bytes())
        .expect("write request");
    let mut buf = String::new();
    s.read_to_string(&mut buf).expect("read response");
    let (head, body) = buf.split_once("\r\n\r\n").expect("http response");
    (head.to_string(), body.to_string())
}

/// The acceptance scenario: concurrent multi-tenant load with induced
/// token-bucket sheds, service-queue sheds, deadline expiries, and one
/// panicking batch — afterwards the scraped /metrics ledger balances
/// and the per-tenant shed split is visible.
#[test]
fn metrics_ledger_balances_under_hostile_multi_tenant_load() {
    let service = SamplingService::new(
        test_graph(),
        Arc::new(PanicOnSeed(EngineExecutor)),
        ServiceConfig {
            queue_capacity: 2,
            start_paused: true,
            batch_window: Duration::from_millis(1),
            ..ServiceConfig::default()
        },
    );
    let throttled_quota = TenantQuota { rate: 0.001, burst: 1.0, ..TenantQuota::default() };
    let server = CsawServer::start(
        service,
        ServeConfig {
            scheduler: SchedulerConfig {
                max_inflight: 8,
                tenant_quotas: [("throttled".to_string(), throttled_quota)].into_iter().collect(),
                ..SchedulerConfig::default()
            },
            ..ServeConfig::default()
        },
    )
    .expect("bind");
    let addr = server.addr();
    let algo = || WireAlgo::by_name("biased-walk").with_depth(6);

    // Subscriber first, so it observes the load's completion events.
    let subscriber =
        Client::connect(addr, "watch").expect("connect").subscribe().expect("subscribe");

    let queue_full_seen = Arc::new(AtomicU64::new(0));
    let completed_seen = Arc::new(AtomicU64::new(0));

    // Flood: 3 connections hammering a paused service with queue
    // capacity 2 — admissions beyond the queue shed with QueueFull.
    let flood_threads: Vec<_> = (0..3)
        .map(|t| {
            let queue_full_seen = Arc::clone(&queue_full_seen);
            let completed_seen = Arc::clone(&completed_seen);
            std::thread::spawn(move || {
                let mut c = Client::connect(addr, "flood").expect("connect");
                for i in 0..4u32 {
                    // Retry each request until it completes, so the
                    // tenant both sheds (pre-resume, queue cap 2) and
                    // completes (post-resume) regardless of which
                    // tenants grabbed the queue slots first.
                    loop {
                        match c.sample(algo(), vec![(t * 7 + i) % 64], 1, None) {
                            Ok(_) => {
                                completed_seen.fetch_add(1, Relaxed);
                                break;
                            }
                            Err(ClientError::Server(e)) if e.code == ErrorCode::QueueFull => {
                                assert!(
                                    e.retry_after().is_some(),
                                    "QueueFull must carry a retry hint"
                                );
                                queue_full_seen.fetch_add(1, Relaxed);
                                std::thread::sleep(Duration::from_millis(2));
                            }
                            Err(e) => panic!("unexpected flood outcome: {e}"),
                        }
                    }
                }
            })
        })
        .collect();

    // Doomed: a microsecond deadline expires at dequeue once admitted.
    let doomed = std::thread::spawn(move || {
        let mut c = Client::connect(addr, "doomed").expect("connect");
        loop {
            match c.sample(algo(), vec![3], 2, Some(Duration::from_micros(1))) {
                Err(ClientError::Server(e)) if e.code == ErrorCode::Expired => return,
                Ok(_) => panic!("1us deadline cannot be met"),
                Err(ClientError::Server(_)) => std::thread::sleep(Duration::from_millis(2)),
                Err(e) => panic!("unexpected doomed outcome: {e}"),
            }
        }
    });

    // Panicky: the magic RNG seed fails its whole (single-request) batch.
    let panicky = std::thread::spawn(move || {
        let mut c = Client::connect(addr, "panicky").expect("connect");
        loop {
            match c.sample(algo(), vec![9], PANIC_SEED, None) {
                Err(ClientError::Server(e)) if e.code == ErrorCode::BatchFailed => return,
                Ok(_) => panic!("panic executor cannot succeed for the magic seed"),
                Err(ClientError::Server(_)) => std::thread::sleep(Duration::from_millis(2)),
                Err(e) => panic!("unexpected panicky outcome: {e}"),
            }
        }
    });

    // Throttled: burst 1, refill ~never — the second request sheds at
    // the token bucket, before any queue.
    let throttled = std::thread::spawn(move || {
        let mut c = Client::connect(addr, "throttled").expect("connect");
        let mut quota_sheds = 0u64;
        for _ in 0..3 {
            match c.sample(algo(), vec![1], 3, None) {
                Err(ClientError::Server(e)) if e.code == ErrorCode::TenantQuota => {
                    assert!(e.retry_after().is_some(), "TenantQuota must carry a retry hint");
                    quota_sheds += 1;
                }
                Ok(_) | Err(ClientError::Server(_)) => {}
                Err(e) => panic!("unexpected throttled outcome: {e}"),
            }
        }
        quota_sheds
    });

    // Hold the worker paused until the flood has overrun the cap-2 queue
    // at least once, then release it.
    wait_until("a queue-full shed", || {
        parse_value(&server.metrics_page(), "csaw_requests_rejected_queue_full_total")
            .is_some_and(|sheds| sheds >= 1.0)
    });
    server.service().resume();

    for t in flood_threads {
        t.join().expect("flood thread");
    }
    doomed.join().expect("doomed thread");
    panicky.join().expect("panicky thread");
    let quota_sheds = throttled.join().expect("throttled thread");

    assert!(queue_full_seen.load(Relaxed) > 0, "paused cap-2 queue must shed some of the flood");
    assert!(completed_seen.load(Relaxed) > 0, "some flood requests must complete after resume");
    assert!(quota_sheds >= 1, "token bucket must shed the throttled tenant");

    // Every client call has returned, so every submitted request is
    // terminal: the scraped ledger must balance.
    let metrics_addr = server.metrics_addr().expect("metrics listener enabled");
    let (head, page) = scrape(metrics_addr, "/metrics");
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    assert_eq!(
        parse_value(&page, "csaw_ledger_fully_accounted"),
        Some(1.0),
        "ledger out of balance:\n{page}"
    );
    assert_eq!(parse_value(&page, "csaw_requests_failed_total"), Some(1.0));
    assert!(parse_value(&page, "csaw_requests_expired_total").unwrap_or(0.0) >= 1.0);
    let flood_sheds =
        parse_value(&page, "csaw_tenant_queue_full_sheds_total{tenant=\"flood\"}").unwrap_or(0.0);
    assert!(flood_sheds >= 1.0, "per-tenant shed split missing:\n{page}");
    assert!(
        parse_value(&page, "csaw_tenant_shed_quota_total{tenant=\"throttled\"}").unwrap_or(0.0)
            >= 1.0,
        "scheduler quota shed missing:\n{page}"
    );

    // The global shed counter equals the sum of the per-tenant split.
    let global_sheds = parse_value(&page, "csaw_requests_rejected_queue_full_total").unwrap();
    let split_sum: f64 = page
        .lines()
        .filter(|l| l.starts_with("csaw_tenant_queue_full_sheds_total{"))
        .filter_map(|l| l.rsplit(' ').next()?.parse::<f64>().ok())
        .sum();
    assert_eq!(global_sheds, split_sum, "tenant shed split must sum to the global counter");

    // 404 for anything but /metrics.
    let (head, _) = scrape(metrics_addr, "/other");
    assert!(head.starts_with("HTTP/1.1 404"), "{head}");

    // The subscriber observed the terminal states as events.
    let mut sub = subscriber;
    sub.set_timeout(Some(Duration::from_millis(500))).expect("set timeout");
    let mut kinds = std::collections::HashSet::new();
    while let Ok(Some(event)) = sub.next_event() {
        kinds.insert(event.kind);
        if kinds.len() == 3 {
            break;
        }
    }
    assert!(kinds.contains(&EventKind::Completed), "no Completed event; saw {kinds:?}");
    assert!(kinds.contains(&EventKind::Expired), "no Expired event; saw {kinds:?}");
    assert!(kinds.contains(&EventKind::Failed), "no Failed event; saw {kinds:?}");

    let svc = server.shutdown();
    assert!(svc.stats().fully_accounted());
}

// ---------------------------------------------------------------------
// Mutation and handshake over the wire
// ---------------------------------------------------------------------

#[test]
fn mutations_and_typed_edit_errors_over_the_wire() {
    use csaw::graph::EdgeEdit;
    let service = SamplingService::with_engine(test_graph(), ServiceConfig::default());
    let server =
        CsawServer::start(service, ServeConfig { metrics_addr: None, ..ServeConfig::default() })
            .expect("bind");
    let mut c = Client::connect(server.addr(), "editor").expect("connect");

    let (epoch, overlay) =
        c.mutate(vec![EdgeEdit::Insert { src: 0, dst: 63, weight: 1.0 }]).expect("valid insert");
    assert_eq!(epoch, 1);
    assert!(overlay >= 1);

    // Deleting a missing edge fails with the typed edit error code and
    // does not advance the epoch.
    let err = c.mutate(vec![EdgeEdit::Delete { src: 1, dst: 1 }]).unwrap_err();
    match err {
        ClientError::Server(e) => assert_eq!(e.code, ErrorCode::EditEdgeNotFound),
        other => panic!("expected typed edit error, got {other}"),
    }
    let err = c.mutate(vec![EdgeEdit::Insert { src: 200, dst: 0, weight: 1.0 }]).unwrap_err();
    match err {
        ClientError::Server(e) => assert_eq!(e.code, ErrorCode::EditVertexOutOfRange),
        other => panic!("expected typed edit error, got {other}"),
    }

    let folded = c.compact().expect("compact");
    assert!(folded >= 1);
    assert_eq!(c.compact().expect("second compact is a no-op"), 0);

    // The mutation ledger over the wire: 3 submitted = 1 applied + 2
    // rejected; 2 compacts = 1 fold + 1 no-op.
    let page = c.stats_text().expect("stats");
    assert_eq!(parse_value(&page, "csaw_mutations_submitted_total"), Some(3.0));
    assert_eq!(parse_value(&page, "csaw_mutations_applied_total"), Some(1.0));
    assert_eq!(parse_value(&page, "csaw_mutations_rejected_total"), Some(2.0));
    assert_eq!(parse_value(&page, "csaw_compact_requests_total"), Some(2.0));
    assert_eq!(parse_value(&page, "csaw_compact_noops_total"), Some(1.0));
    assert_eq!(parse_value(&page, "csaw_ledger_fully_accounted"), Some(1.0));

    c.goodbye().expect("goodbye");
    server.shutdown();
}

#[test]
fn version_mismatch_is_rejected_at_handshake() {
    use csaw::serve::{read_frame, write_frame, WIRE_VERSION};
    let service = SamplingService::with_engine(test_graph(), ServiceConfig::default());
    let server =
        CsawServer::start(service, ServeConfig { metrics_addr: None, ..ServeConfig::default() })
            .expect("bind");
    let mut s = TcpStream::connect(server.addr()).expect("connect");
    write_frame(&mut s, &Frame::Hello { version: WIRE_VERSION + 1, tenant: "t".into() })
        .expect("send");
    s.flush().expect("flush");
    match read_frame(&mut s).expect("reply") {
        Frame::Error(e) => assert_eq!(e.code, ErrorCode::VersionMismatch),
        other => panic!("expected version-mismatch error, got {other:?}"),
    }
    server.shutdown();
}
