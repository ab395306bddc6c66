//! `serve_mixed`: one blocking client on one loopback connection sends a
//! fixed sequence of sample and mutate requests to a `CsawServer`. One
//! request is one wire request. A closed loop with one client: a second
//! client made the interleaving, and so the totals, depend on timing.

use crate::common::{
    build_graph, cpu_seconds, Args, Layers, Report, SetUp, GRAPH_SEED, SAMPLE_EVERY,
};
use crate::refwalk::ref_walk_seps;
use crate::stats::{keep_fastest, median, paired_overhead_share, percentile, ratio, SplitMix};
use crate::trace::Tracer;
use csaw_core::engine::{RunOptions, Sampler};
use csaw_core::AlgoSpec;
use csaw_graph::{Csr, EdgeEdit, MutableGraph};
use csaw_serve::wire::Frame;
use csaw_serve::{
    parse_value, Client, CsawServer, SchedulerConfig, ServeConfig, TenantQuota, WireAlgo,
};
use csaw_service::{
    MutationRequest, SamplingRequest, SamplingService, ServiceConfig, StatsSnapshot,
};
use std::collections::HashSet;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Requests per second on the reference box (README.md, "Sizing"); the
/// sequence is `REQUESTS_PER_SECOND * --seconds` long.
const REQUESTS_PER_SECOND: f64 = 300.0;
/// Sample-only warm-up requests: enough to fill the service's caches.
const WARMUP_REQUESTS: usize = 250;
const SEEDS_PER_REQUEST: usize = 32;
const WALK_DEPTH: usize = 40;
const EDITS_PER_MUTATION: usize = 8;
/// Seeds per chunk of a streamed sample (four chunks a request).
const STREAM_CHUNK_SEEDS: u32 = 8;
const ALGOS: [&str; 2] = ["simple-walk", "biased-walk"];

/// One request of the fixed sequence.
enum Op {
    Sample { algo: usize, seeds: Vec<u32>, streamed: bool },
    Mutate { edits: Vec<EdgeEdit> },
}

/// The sequence: of every ten requests five simple-walk and four
/// biased-walk samples, every fourth sample streamed, and one mutation
/// of eight edits; even mutations insert, odd ones delete the same edges.
fn plan(rng: &mut SplitMix, pool: &[u32], requests: usize, mutate: bool) -> Vec<Op> {
    let (mut samples, mut mutations) = (0usize, 0usize);
    let mut inserted: Vec<(u32, u32)> = Vec::new();
    (0..requests)
        .map(|i| {
            let slot = i % 10;
            if slot == 9 && mutate {
                let edits = if mutations % 2 == 0 {
                    inserted = (0..EDITS_PER_MUTATION)
                        .map(|_| (pool[rng.below(pool.len())], pool[rng.below(pool.len())]))
                        .collect();
                    inserted
                        .iter()
                        .map(|&(src, dst)| EdgeEdit::Insert { src, dst, weight: 1.0 })
                        .collect()
                } else {
                    inserted.iter().map(|&(src, dst)| EdgeEdit::Delete { src, dst }).collect()
                };
                mutations += 1;
                Op::Mutate { edits }
            } else {
                samples += 1;
                Op::Sample {
                    algo: slot % 2,
                    seeds: rng.picks(pool, SEEDS_PER_REQUEST),
                    streamed: samples % 4 == 0,
                }
            }
        })
        .collect()
}

/// What one request returned, reduced to what the benchmark reads.
struct Reply {
    instance_base: u32,
    instances: Vec<Vec<(u32, u32)>>,
    sampled_edges: u64,
    /// `(queue_wait_us, batch_instances)`; absent on streamed replies.
    batching: Option<(u64, u64)>,
}

/// A transport for the sequence: the wire client or the in-process
/// service.
trait Transport {
    fn sample(&mut self, algo: usize, seeds: Vec<u32>, streamed: bool) -> Result<Reply, String>;
    /// Returns the overlay vertex count after the batch.
    fn mutate(&mut self, edits: Vec<EdgeEdit>) -> Result<u64, String>;
}

struct Wire {
    client: Client,
    rng_seed: u64,
}

impl Transport for Wire {
    fn sample(&mut self, algo: usize, seeds: Vec<u32>, streamed: bool) -> Result<Reply, String> {
        let wire_algo = WireAlgo::by_name(ALGOS[algo]).with_depth(WALK_DEPTH as u32);
        if streamed {
            let r = self
                .client
                .sample_streamed(wire_algo, seeds, self.rng_seed, STREAM_CHUNK_SEEDS, |_| {})
                .map_err(|e| e.to_string())?;
            Ok(Reply {
                instance_base: r.instance_base,
                instances: r.reassemble(),
                sampled_edges: r.end.sampled_edges,
                batching: None,
            })
        } else {
            let r = self
                .client
                .sample(wire_algo, seeds, self.rng_seed, None)
                .map_err(|e| e.to_string())?;
            Ok(Reply {
                instance_base: r.instance_base,
                batching: Some((r.queue_wait_us, r.batch_instances)),
                sampled_edges: r.sampled_edges,
                instances: r.instances,
            })
        }
    }

    fn mutate(&mut self, edits: Vec<EdgeEdit>) -> Result<u64, String> {
        self.client.mutate(edits).map(|(_, overlay)| overlay).map_err(|e| e.to_string())
    }
}

struct InProcess<'s> {
    service: &'s SamplingService,
    rng_seed: u64,
}

impl Transport for InProcess<'_> {
    fn sample(&mut self, algo: usize, seeds: Vec<u32>, _streamed: bool) -> Result<Reply, String> {
        let spec = AlgoSpec::by_name(ALGOS[algo]).expect("registry name").with_depth(WALK_DEPTH);
        let request = SamplingRequest::new(spec, seeds).with_rng_seed(self.rng_seed);
        let r = self
            .service
            .submit(request)
            .map_err(|e| e.to_string())?
            .wait()
            .map_err(|e| e.to_string())?;
        Ok(Reply {
            instance_base: r.instance_base,
            batching: Some((r.stats.queue_wait.as_micros() as u64, r.stats.batch_instances as u64)),
            sampled_edges: r.stats.sampled_edges,
            instances: r.output.instances,
        })
    }

    fn mutate(&mut self, edits: Vec<EdgeEdit>) -> Result<u64, String> {
        self.service
            .mutate(MutationRequest::new(edits))
            .map(|r| r.overlay_vertices as u64)
            .map_err(|e| e.to_string())
    }
}

/// What a run of the sequence measured.
#[derive(Default)]
struct Phase {
    /// Every request's time, in sequence order.
    request_ms: Vec<f64>,
    /// Biased-walk sample times, in sequence order.
    biased_ms: Vec<f64>,
    edges: u64,
    failed: u64,
    queue_wait_us: Vec<f64>,
    batch_instances: Vec<f64>,
    overlay_vertices_end: u64,
    cpu_s: f64,
    /// Replies to the samples sent before the first mutation.
    pre_mutation: Vec<(usize, Reply)>,
    codec: Codec,
}

/// Wire codec replay totals.
#[derive(Default)]
struct Codec {
    encode_ns: u64,
    decode_ns: u64,
    bytes: u64,
}

impl Phase {
    /// Folds in a repetition of the same sequence: every request keeps
    /// the faster of its two times. Returns whether the repetition
    /// sampled the same number of edges, as it must.
    fn keep_fastest(&mut self, rep: &Phase) -> bool {
        keep_fastest(&mut self.request_ms, &rep.request_ms);
        keep_fastest(&mut self.biased_ms, &rep.biased_ms);
        self.edges == rep.edges
    }
}

/// A reply is well-formed when it has one instance per seed, its edge
/// count matches, and every edge is in the base graph or was inserted by
/// some mutation of the sequence.
fn reply_ok(graph: &Csr, inserted: &HashSet<(u32, u32)>, seeds: usize, r: &Reply) -> bool {
    r.instances.len() == seeds
        && r.instances.iter().map(|i| i.len() as u64).sum::<u64>() == r.sampled_edges
        && r.instances
            .iter()
            .flatten()
            .all(|&(v, u)| graph.has_edge(v, u) || inserted.contains(&(v, u)))
}

/// Sends `ops` one at a time. Checks and codec replays run between
/// requests, outside every request clock.
fn run_phase(
    transport: &mut dyn Transport,
    graph: &Csr,
    ops: &[Op],
    mut tracer: Option<&mut Tracer>,
) -> Phase {
    let mut phase = Phase::default();
    let inserted: HashSet<(u32, u32)> = ops
        .iter()
        .filter_map(|op| match op {
            Op::Mutate { edits } => Some(edits),
            Op::Sample { .. } => None,
        })
        .flatten()
        .filter_map(|e| match *e {
            EdgeEdit::Insert { src, dst, .. } => Some((src, dst)),
            _ => None,
        })
        .collect();
    let first_mutation =
        ops.iter().position(|op| matches!(op, Op::Mutate { .. })).unwrap_or(ops.len());
    let cpu0 = cpu_seconds();
    for (i, op) in ops.iter().enumerate() {
        match op {
            Op::Sample { algo, seeds, streamed } => {
                let sent = seeds.clone();
                let t0 = Instant::now();
                let reply = transport.sample(*algo, sent, *streamed);
                let t1 = Instant::now();
                let ms = t1.duration_since(t0).as_secs_f64() * 1e3;
                phase.request_ms.push(ms);
                if *algo == 1 {
                    phase.biased_ms.push(ms);
                }
                if let Some(t) = tracer.as_deref_mut() {
                    let name = if *streamed { "serve.sample_streamed" } else { "serve.sample" };
                    t.record(name, i as u64, t0, t1);
                }
                let Ok(reply) = reply else {
                    phase.failed += 1;
                    continue;
                };
                phase.edges += reply.sampled_edges;
                if let Some((wait, instances)) = reply.batching {
                    phase.queue_wait_us.push(wait as f64);
                    phase.batch_instances.push(instances as f64);
                }
                let sampled = i % SAMPLE_EVERY == 0 || i < first_mutation;
                if sampled && !reply_ok(graph, &inserted, seeds.len(), &reply) {
                    phase.failed += 1;
                }
                if sampled && tracer.is_some() && !*streamed {
                    phase.codec.replay(&reply, i as u64);
                }
                if i < first_mutation {
                    phase.pre_mutation.push((i, reply));
                }
            }
            Op::Mutate { edits } => {
                let sent = edits.clone();
                let t0 = Instant::now();
                let ack = transport.mutate(sent);
                let t1 = Instant::now();
                phase.request_ms.push(t1.duration_since(t0).as_secs_f64() * 1e3);
                if let Some(t) = tracer.as_deref_mut() {
                    t.record("serve.mutate", i as u64, t0, t1);
                }
                match ack {
                    Ok(overlay) => phase.overlay_vertices_end = overlay,
                    Err(_) => phase.failed += 1,
                }
            }
        }
    }
    phase.cpu_s = cpu_seconds() - cpu0;
    phase
}

impl Codec {
    /// `Frame::to_bytes` and `Frame::decode` on the frame this reply
    /// travelled in.
    fn replay(&mut self, reply: &Reply, id: u64) {
        let (queue_wait_us, batch_instances) = reply.batching.unwrap_or_default();
        let frame = Frame::Response(csaw_serve::wire::ResponseFrame {
            id,
            instance_base: reply.instance_base,
            batch_requests: 1,
            batch_instances,
            queue_wait_us,
            sampled_edges: reply.sampled_edges,
            instances: reply.instances.clone(),
        });
        let t = Instant::now();
        let bytes = frame.to_bytes();
        self.encode_ns += t.elapsed().as_nanos() as u64;
        let t = Instant::now();
        // The four-byte length prefix is not part of the body.
        black_box(Frame::decode(&bytes[4..]).is_ok());
        self.decode_ns += t.elapsed().as_nanos() as u64;
        self.bytes += bytes.len() as u64;
    }
}

/// A started server with a connected client, warmed up.
struct Round {
    graph: Arc<Csr>,
    server: CsawServer,
    wire: Wire,
    warmup: Vec<Op>,
    timed: Vec<Op>,
}

/// Quotas high enough that no token bucket or tenant queue ever refuses.
fn serve_config() -> ServeConfig {
    let quota = TenantQuota {
        rate: 1e9,
        burst: 1e9,
        byte_rate: 1e15,
        byte_burst: 1e15,
        ..TenantQuota::default()
    };
    ServeConfig {
        metrics_addr: None,
        scheduler: SchedulerConfig { default_quota: quota, ..SchedulerConfig::default() },
        ..ServeConfig::default()
    }
}

/// Graph build, server start, connect and the sample-only warm-up.
fn set_up(args: &Args, setup: &mut SetUp, requests: usize) -> Round {
    let (graph, pool) = build_graph(args, setup);
    let graph = Arc::new(graph);
    let mut rng = SplitMix(args.seed);
    let rng_seed = rng.next_u64();
    let warmup = plan(&mut rng, &pool, if args.quick { 10 } else { WARMUP_REQUESTS }, false);
    let timed = plan(&mut rng, &pool, requests, true);
    let server = setup.step("serve.start", || {
        let service = SamplingService::with_engine(Arc::clone(&graph), ServiceConfig::default());
        CsawServer::start(service, serve_config()).expect("bind loopback")
    });
    let client =
        setup.step("serve.connect", || Client::connect(server.addr(), "bench").expect("connect"));
    let mut round = Round { graph, server, wire: Wire { client, rng_seed }, warmup, timed };
    setup.warm_up(|| run_phase(&mut round.wire, &round.graph, &round.warmup, None).request_ms);
    round
}

/// Says goodbye, stops the server and the service, and returns the
/// service's final counters.
fn shut_down(server: CsawServer, wire: Wire) -> StatsSnapshot {
    let _ = wire.client.goodbye();
    let service = server.shutdown();
    match Arc::try_unwrap(service) {
        Ok(service) => service.shutdown(),
        Err(shared) => shared.stats(),
    }
}

/// Runs `serve_mixed` and reports it.
///
/// An untraced run sends the same sequence [`REPETITIONS`] times, each to
/// a fresh server after its own set-up, and keeps every request's fastest
/// time. A traced run sends it three times as well: plain on the wire
/// (the baseline of `bench.trace_overhead_share`), traced on the wire,
/// and in process.
pub fn run(args: &Args, tracer: &mut Tracer) -> Report {
    let rounds = args.passes();
    let requests = args.work(REQUESTS_PER_SECOND / rounds as f64, 40);

    let mut report = Report::new();
    let mut setups = Vec::new();
    let mut plain: Option<Phase> = None;
    let mut measured: Option<Phase> = None;
    let mut repetitions_agree = true;
    for r in 0..rounds {
        let mut setup = SetUp::begin(tracer, r);
        let mut round = set_up(args, &mut setup, requests);
        setups.push(setup.finish());
        if args.is_plain_baseline(r) {
            plain = Some(run_phase(&mut round.wire, &round.graph, &round.timed, None));
            shut_down(round.server, round.wire);
            continue;
        }

        let before = round.server.service().stats();
        let traced = args.trace.then_some(&mut *tracer);
        let phase = run_phase(&mut round.wire, &round.graph, &round.timed, traced);
        let after = round.server.service().stats();
        report.attempted += phase.request_ms.len() as u64;
        report.failed += phase.failed;

        let last = r + 1 == rounds;
        if last {
            verify_pre_mutation(&mut report, &round, &phase);
            let page = round.server.metrics_page();
            report.check(
                "csaw_ledger_fully_accounted",
                parse_value(&page, "csaw_ledger_fully_accounted") == Some(1.0),
            );
            report.check("no_request_refused", after.rejected_queue_full == 0 && after.failed == 0);
            report.notes.push(format!(
                "graph rmat({}, 16, GRAPH500, {GRAPH_SEED}): {} vertices, {} edges",
                args.graph_scale(),
                round.graph.num_vertices(),
                round.graph.num_edges()
            ));
        }
        let Round { graph, server, wire, warmup, timed } = round;
        let rng_seed = wire.rng_seed;
        let final_stats = shut_down(server, wire);
        if last {
            report.check("service_ledger_fully_accounted", final_stats.fully_accounted());
        }
        if args.trace {
            let inproc = run_in_process(&graph, &warmup, &timed, rng_seed);
            report.check("in_process_sequence_completed", inproc.failed == 0);
            let mut layers = Layers::new();
            let plain = plain.as_ref().unwrap_or(&phase);
            fill_layers(
                &mut layers,
                tracer,
                &graph,
                &timed,
                &phase,
                plain,
                &inproc,
                &before,
                &after,
            );
            report.layers = Some(layers);
        }
        match measured.as_mut() {
            None => measured = Some(phase),
            Some(first) => repetitions_agree &= first.keep_fastest(&phase),
        }
    }

    let phase = measured.expect("at least one round measures");
    report.check("repetitions_sampled_the_same_edges", repetitions_agree);
    report.measured(&setups, phase.edges, &phase.request_ms);
    report
}

/// Responses sent before the first mutation equal a solo engine run at
/// the instance base the server reported.
fn verify_pre_mutation(report: &mut Report, round: &Round, phase: &Phase) {
    let mut all_equal = !phase.pre_mutation.is_empty();
    for (i, reply) in &phase.pre_mutation {
        let Op::Sample { algo, seeds, .. } = &round.timed[*i] else { unreachable!() };
        let spec = AlgoSpec::by_name(ALGOS[*algo]).expect("registry name").with_depth(WALK_DEPTH);
        let algo = spec.build().expect("valid algorithm spec");
        let opts = RunOptions {
            seed: round.wire.rng_seed,
            instance_base: reply.instance_base,
            ..RunOptions::default()
        };
        let solo = Sampler::new(&round.graph, &algo).with_options(opts).run_single_seeds(seeds);
        all_equal &= solo.instances == reply.instances;
    }
    report.check("pre_mutation_replies_equal_solo_runs", all_equal);
}

/// The same sequence through `submit().wait()` on a fresh service.
fn run_in_process(graph: &Arc<Csr>, warmup: &[Op], timed: &[Op], rng_seed: u64) -> Phase {
    let service = SamplingService::with_engine(Arc::clone(graph), ServiceConfig::default());
    let mut transport = InProcess { service: &service, rng_seed };
    black_box(run_phase(&mut transport, graph, warmup, None).edges);
    let phase = run_phase(&mut transport, graph, timed, None);
    service.shutdown();
    phase
}

/// Last-tenth over first-tenth median of the biased-walk request times.
fn drift(biased_ms: &[f64]) -> f64 {
    let tenth = (biased_ms.len() / 10).max(1).min(biased_ms.len());
    ratio(median(&biased_ms[biased_ms.len() - tenth..]), median(&biased_ms[..tenth]))
}

/// Turns the traced, plain and in-process phases into per-layer metrics.
#[allow(clippy::too_many_arguments)]
fn fill_layers(
    layers: &mut Layers,
    tracer: &Tracer,
    graph: &Arc<Csr>,
    timed: &[Op],
    traced: &Phase,
    plain: &Phase,
    inproc: &Phase,
    before: &StatsSnapshot,
    after: &StatsSnapshot,
) {
    layers.set("graph.generators.build_s", median(&tracer.durations_s("graph.generators.build")));

    // The sequence's mutation batches on a private overlay.
    let mut private = MutableGraph::from_arc(Arc::clone(graph));
    let mut apply_us = Vec::new();
    for op in timed {
        if let Op::Mutate { edits } = op {
            let t = Instant::now();
            black_box(private.apply_batch(edits).is_ok());
            apply_us.push(t.elapsed().as_secs_f64() * 1e6);
        }
    }
    layers.set("graph.dynamic.apply_batch_us", median(&apply_us));
    layers.set("graph.dynamic.overlay_vertices_end", traced.overlay_vertices_end as f64);

    let lookups = after.cache_lookups - before.cache_lookups;
    layers.set(
        "core.ctps_cache.hit_share",
        ratio((after.cache_hits - before.cache_hits) as f64, lookups as f64),
    );
    layers
        .set("core.ctps_cache.evictions", (after.cache_evictions - before.cache_evictions) as f64);

    layers.set("service.inproc_ms_p50", median(&inproc.request_ms));
    layers.set("service.queue_wait_us_p50", median(&traced.queue_wait_us));
    layers.set(
        "service.batch_instances_mean",
        ratio(traced.batch_instances.iter().sum(), traced.batch_instances.len() as f64),
    );
    layers.set("service.biased_drift_x", drift(&traced.biased_ms));
    let kb = traced.codec.bytes as f64 / 1024.0;
    layers.set("serve.wire.encode_ns_per_kb", ratio(traced.codec.encode_ns as f64, kb));
    layers.set("serve.wire.decode_ns_per_kb", ratio(traced.codec.decode_ns as f64, kb));
    layers.set(
        "serve.server.overhead_ms_p50",
        median(&traced.request_ms) - median(&inproc.request_ms),
    );

    // The frozen reference walker on the first request's seeds.
    let Some(Op::Sample { seeds, .. }) = timed.first() else { unreachable!() };
    layers.set("bench.ref_walk_seps", ref_walk_seps(graph, seeds, WALK_DEPTH, 64));
    layers.set("bench.cpu_us_per_edge", ratio(plain.cpu_s * 1e6, plain.edges as f64));
    layers.set("bench.request_ms_p99", percentile(&traced.request_ms, 0.99));
    layers.set(
        "bench.trace_overhead_share",
        paired_overhead_share(&plain.request_ms, &traced.request_ms),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_has_the_stated_mix_and_undoes_its_inserts() {
        let pool: Vec<u32> = (0..100).collect();
        let ops = plan(&mut SplitMix(1), &pool, 40, true);
        let mutations: Vec<&Vec<EdgeEdit>> = ops
            .iter()
            .filter_map(|op| match op {
                Op::Mutate { edits } => Some(edits),
                _ => None,
            })
            .collect();
        assert_eq!(mutations.len(), 4);
        assert!(mutations.iter().all(|m| m.len() == EDITS_PER_MUTATION));
        for pair in mutations.chunks(2) {
            for (ins, del) in pair[0].iter().zip(pair[1]) {
                match (*ins, *del) {
                    (EdgeEdit::Insert { src, dst, .. }, EdgeEdit::Delete { src: s, dst: d }) => {
                        assert_eq!((src, dst), (s, d))
                    }
                    other => panic!("expected insert then delete, got {other:?}"),
                }
            }
        }
        let samples: Vec<(usize, bool)> = ops
            .iter()
            .filter_map(|op| match op {
                Op::Sample { algo, streamed, .. } => Some((*algo, *streamed)),
                _ => None,
            })
            .collect();
        assert_eq!(samples.len(), 36);
        assert_eq!(samples.iter().filter(|s| s.0 == 0).count(), 20);
        assert_eq!(samples.iter().filter(|s| s.1).count(), 9);
        assert!(plan(&mut SplitMix(1), &pool, 20, false)
            .iter()
            .all(|op| matches!(op, Op::Sample { .. })));
    }

    #[test]
    fn drift_compares_the_ends() {
        let ms: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(drift(&ms), 95.5 / 5.5);
        assert_eq!(drift(&[2.0]), 1.0);
        assert_eq!(drift(&[]), 0.0);
    }
}
