//! `serve-open`: an open-loop request stream against the in-process
//! prediction server.
//!
//! Per-request overheads dominate here: protocol, routing, queue handoff,
//! response write and batch-of-one inference. Two generator threads with
//! one connection each send on a fixed schedule (independent users, so an
//! open loop); latency runs from each request's due time, so a stall also
//! charges the requests queued behind it, and the generator reports how
//! late it ran.
//!
//! The traffic mix is assumed, not measured: no recorded client traffic
//! exists to take it from. Kernels are drawn uniformly, and a quarter of the
//! requests come from a small hot set of design points so that the
//! prediction cache is exercised at all. That share alone sets
//! `serve.cache_hit_ratio` and part of the throughput, so a cache or
//! batching gain measured here is not a claim until the mix is measured.

use super::Ctx;
use crate::report::{median, peak_rss_mb, percentile, reset_peak_rss, Outcome};
use crate::setup::{self, bits, Base};
use crate::trace::Tracer;
use design_space::DesignSpace;
use gdse_obs::MetricsSnapshot;
use gdse_serve::{Client, PredictionRow, Response, ServeConfig, Server, ServerHandle};
use gnn_dse::{ArtifactMeta, ArtifactProvider, Predictor};
use hls_ir::kernels;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Deserialize;
use std::path::Path;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Kernels requests are drawn from.
const KERNELS: [&str; 4] = ["gemm-ncubed", "2mm", "spmv-ellpack", "stencil"];
/// Model replicas of the server. One: on a two-core machine that also runs
/// the load generator, two replicas served no more requests per second
/// (1103 against 1120 on the overload rung, eight interleaved runs each),
/// and their capacity spread 18% across runs against 6% for one, as two
/// busy replicas need both cores at once and so feel every other load on
/// the host.
const REPLICAS: usize = 1;
/// Load generator threads, one connection each.
const GENERATORS: usize = 2;
/// Design points per kernel in the hot set.
const HOT_SET: u64 = 64;
/// Share of requests drawn from the hot set: assumed (see the module
/// documentation).
const HOT_SHARE: f64 = 0.25;
/// Hot-set points per kernel requested once more after the rungs, whose
/// answers give the exact result `serve.probe`.
const PROBE: usize = 16;
/// Every n-th response per generator is compared with an offline prediction.
const SAMPLE_EVERY: usize = 16;
/// Server pipeline stages, as named by its span histograms.
const STAGES: [&str; 6] = [
    "ingress",
    "route",
    "queue_wait",
    "batch_wait",
    "infer",
    "write",
];

/// A fixed-rate phase of the open loop.
struct Rung {
    /// Offered load, requests per second across both generators.
    rps: f64,
    /// Share of the run's seconds the rung lasts.
    share: f64,
}

/// Light load (latency), heavy load (diagnostic) and overload (capacity:
/// the generators fall behind and run as fast as answers come back).
const LIGHT: Rung = Rung {
    rps: 300.0,
    share: 0.45,
};
const HEAVY: Rung = Rung {
    rps: 700.0,
    share: 0.2,
};
const OVERLOAD: Rung = Rung {
    rps: 2400.0,
    share: 0.35,
};

/// A server running on its own thread.
struct Running {
    handle: ServerHandle,
    thread: JoinHandle<MetricsSnapshot>,
}

impl Running {
    fn start(artifact: &Path) -> Running {
        let provider = Arc::new(ArtifactProvider::open(artifact, 1).expect("artifact loads"));
        let config = ServeConfig {
            replicas: REPLICAS,
            ..ServeConfig::default()
        };
        let server = Server::bind_with_provider("127.0.0.1:0", config, provider).expect("bind");
        let handle = server.handle();
        // The server folds its worker metrics into the thread that runs it.
        let thread = std::thread::spawn(move || {
            server.run();
            gdse_obs::metrics::snapshot()
        });
        Running { handle, thread }
    }

    fn addr(&self) -> String {
        self.handle.addr().to_string()
    }

    /// Shuts down, waits for the server thread and returns its metrics.
    fn stop(self) -> MetricsSnapshot {
        self.handle.shutdown();
        self.thread.join().expect("server thread does not panic")
    }
}

/// One answered (or failed) request.
struct Sample {
    kernel: usize,
    index: u128,
    /// Due time to response, ms.
    latency_ms: f64,
    /// Send time to response, ms.
    rpc_ms: f64,
    /// Due time to send time, ms.
    late_ms: f64,
    traced: bool,
    /// The answer, for every `SAMPLE_EVERY`-th request.
    row: Option<PredictionRow>,
}

/// What one rung measured.
#[derive(Default)]
struct RungResult {
    samples: Vec<Sample>,
    failed: u64,
    /// First due time to last answer, s.
    elapsed: f64,
}

impl RungResult {
    fn latencies(&self, traced: Option<bool>) -> Vec<f64> {
        let keep = |s: &&Sample| traced.is_none_or(|t| s.traced == t);
        self.samples
            .iter()
            .filter(keep)
            .map(|s| s.latency_ms)
            .collect()
    }
}

/// The request stream of one generator on one rung.
struct Stream {
    rng: StdRng,
    hot: Vec<Vec<u128>>,
    sizes: Vec<u128>,
}

impl Stream {
    fn next(&mut self) -> (usize, u128) {
        let k = self.rng.gen_range(0..KERNELS.len());
        let index = if self.rng.gen::<f64>() < HOT_SHARE {
            self.hot[k][self.rng.gen_range(0..HOT_SET as usize)]
        } else {
            u128::from(self.rng.gen::<u64>()) % self.sizes[k]
        };
        (k, index)
    }
}

/// Runs one rung: both generators send on the fixed schedule until the
/// rung's time is up.
fn run_rung(
    clients: &mut [Client],
    streams: Vec<Stream>,
    rung: &Rung,
    secs: f64,
    tracer: Option<&Tracer>,
) -> RungResult {
    let period = GENERATORS as f64 / rung.rps;
    let start = Instant::now() + Duration::from_millis(1);
    let parts: Vec<RungResult> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .zip(streams)
            .enumerate()
            .map(|(g, (client, mut stream))| {
                s.spawn(move || {
                    let mut r = RungResult::default();
                    let mut last_done = start;
                    for k in 0.. {
                        let offset = (k as f64 + g as f64 / GENERATORS as f64) * period;
                        // An overloaded generator runs behind its schedule;
                        // it stops at the rung's end all the same.
                        if offset >= secs || start.elapsed().as_secs_f64() >= secs {
                            break;
                        }
                        let due = start + Duration::from_secs_f64(offset);
                        let now = Instant::now();
                        if now < due {
                            std::thread::sleep(due - now);
                        }
                        let (kernel, index) = stream.next();
                        let id = ((g as u64) << 48) | k as u64;
                        let sent = Instant::now();
                        let answer = client.predict(id, KERNELS[kernel], index);
                        let done = Instant::now();
                        last_done = done;
                        let row = match answer {
                            Ok(Response::Ok { row, .. }) => row,
                            _ => {
                                r.failed += 1;
                                continue;
                            }
                        };
                        let traced = tracer.filter(|_| k % 2 == 1);
                        if let Some(t) = traced {
                            let trace = t.new_trace();
                            let root = t.record(trace, None, "request", due, done);
                            t.record(trace, Some(root), "generator_wait", due, sent);
                            t.record(trace, Some(root), "rpc", sent, done);
                        }
                        let ms = |a: Instant, b: Instant| b.duration_since(a).as_secs_f64() * 1e3;
                        r.samples.push(Sample {
                            kernel,
                            index,
                            latency_ms: ms(due, done),
                            rpc_ms: ms(sent, done),
                            late_ms: ms(due, sent),
                            traced: traced.is_some(),
                            row: (k % SAMPLE_EVERY == 0).then_some(row),
                        });
                    }
                    r.elapsed = last_done.duration_since(start).as_secs_f64();
                    r
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("generator does not panic"))
            .collect()
    });
    let mut out = RungResult::default();
    for p in parts {
        out.samples.extend(p.samples);
        out.failed += p.failed;
        out.elapsed = out.elapsed.max(p.elapsed);
    }
    out
}

/// A served row as raw bits, in the field order of [`bits`].
fn row_bits(r: &PredictionRow) -> [u64; 6] {
    [
        r.valid_prob.to_bits(),
        r.cycles,
        r.dsp.to_bits(),
        r.lut.to_bits(),
        r.ff.to_bits(),
        r.bram.to_bits(),
    ]
}

/// Span histogram totals `(count, sum_us)` from a live `stats` document.
fn stage_totals(admin: &mut Client) -> Vec<(u64, u64)> {
    let body = admin.stats().expect("stats verb answers");
    let metrics = body
        .as_map()
        .and_then(|m| m.iter().find(|(k, _)| k == "metrics"))
        .map(|(_, v)| v)
        .expect("stats carries the metrics snapshot");
    let snap = MetricsSnapshot::from_value(metrics).expect("metrics snapshot parses");
    STAGES
        .iter()
        .map(|s| format!("serve.trace.{s}_us"))
        .chain(std::iter::once("serve.trace.total_us".to_string()))
        .map(|name| snap.histogram(&name).map_or((0, 0), |h| (h.count, h.sum)))
        .collect()
}

/// Set-up products of this workload.
struct Served {
    base: Base,
    running: Running,
    sizes: Vec<u128>,
}

fn set_up(ctx: &Ctx, artifact: &Path) -> Served {
    let base = setup::base(ctx.seed, ctx.smoke);
    let names: Vec<String> = KERNELS.iter().map(|k| k.to_string()).collect();
    let meta = ArtifactMeta::describe(
        &base.predictor,
        &names,
        setup::train_config(ctx.smoke).epochs,
    );
    base.predictor
        .save_artifact(artifact, &meta)
        .expect("artifact writes");
    let running = Running::start(artifact);
    // Warm-up: every kernel's replica builds its design space and graph.
    let mut client = Client::connect(&running.addr()).expect("connect");
    for k in KERNELS {
        let answer = client.predict(0, k, 0).expect("warm-up request");
        assert!(
            matches!(answer, Response::Ok { .. }),
            "warm-up failed: {answer:?}"
        );
    }
    let sizes = KERNELS
        .iter()
        .map(|k| DesignSpace::from_kernel(&kernels::kernel_by_name(k).expect("kernel")).size())
        .collect();
    Served {
        base,
        running,
        sizes,
    }
}

/// Runs the workload.
pub fn run(ctx: &Ctx) -> Outcome {
    let artifact = ctx.work_dir.join("model.gdse");
    let (served, setup_s) = setup::timed(|| set_up(ctx, &artifact));
    let Served {
        base,
        running,
        sizes,
    } = served;
    let mut out = Outcome::default();
    setup::check_batch_matches_single(&base.predictor, &mut out);

    let mut hot_rng = StdRng::seed_from_u64(ctx.seed ^ 0x407);
    let hot: Vec<Vec<u128>> = sizes
        .iter()
        .map(|&n| {
            (0..HOT_SET)
                .map(|_| u128::from(hot_rng.gen::<u64>()) % n)
                .collect()
        })
        .collect();
    let streams = |rung: u64| -> Vec<Stream> {
        (0..GENERATORS as u64)
            .map(|g| Stream {
                rng: StdRng::seed_from_u64(ctx.seed.wrapping_mul(0x9E37_79B9) ^ (rung << 8 | g)),
                hot: hot.clone(),
                sizes: sizes.clone(),
            })
            .collect()
    };

    let addr = running.addr();
    let mut clients: Vec<Client> = (0..GENERATORS)
        .map(|_| Client::connect(&addr).expect("connect"))
        .collect();
    let mut admin = Client::connect(&addr).expect("admin connect");
    let t = ctx.tracer();
    reset_peak_rss();
    let before = stage_totals(&mut admin);
    let light = run_rung(
        &mut clients,
        streams(0),
        &LIGHT,
        LIGHT.share * ctx.seconds,
        t,
    );
    let after = stage_totals(&mut admin);
    let heavy = run_rung(
        &mut clients,
        streams(1),
        &HEAVY,
        HEAVY.share * ctx.seconds,
        t,
    );
    let overload = run_rung(
        &mut clients,
        streams(2),
        &OVERLOAD,
        OVERLOAD.share * ctx.seconds,
        t,
    );
    let peak_mb = peak_rss_mb();
    let probe: Vec<[u64; 6]> = KERNELS
        .iter()
        .zip(&hot)
        .flat_map(|(k, hot)| hot[..PROBE].iter().map(move |&i| (*k, i)))
        .map(|(k, i)| match clients[0].predict(i as u64, k, i) {
            Ok(Response::Ok { row, .. }) => row_bits(&row),
            other => panic!("probe {k}[{i}] failed: {other:?}"),
        })
        .collect();
    out.exact_digest("serve.probe", &probe);
    drop((clients, admin));
    let snap = running.stop();

    let rungs = [&light, &heavy, &overload];
    for r in rungs {
        out.attempted += r.samples.len() as u64 + r.failed;
        out.failed += r.failed;
    }
    let offline = Predictor::load_artifact(&artifact)
        .expect("artifact reloads")
        .0;
    let graphs: Vec<_> = KERNELS
        .iter()
        .map(|k| {
            let k = kernels::kernel_by_name(k).expect("kernel");
            let space = DesignSpace::from_kernel(&k);
            let graph = proggraph::build_graph_bidirectional(&k, &space);
            (space, graph)
        })
        .collect();
    for s in rungs.iter().flat_map(|r| &r.samples) {
        let Some(row) = &s.row else { continue };
        let (space, graph) = &graphs[s.kernel];
        let want = offline.predict(graph, &space.point_at(s.index));
        out.check(row_bits(row) == bits(&want), || {
            format!(
                "{}[{}]: served {row:?}, offline {want:?}",
                KERNELS[s.kernel], s.index
            )
        });
        out.check(setup::finite(&want), || {
            format!("non-finite prediction {want:?}")
        });
    }

    match t {
        None => {
            out.push("setup_s", setup_s);
            out.push("peak_rss_mb", peak_mb);
            // Completions per second on the overload rung.
            out.push(
                "throughput_per_s",
                overload.samples.len() as f64 / overload.elapsed,
            );
            out.push("latency_ms", median(&light.latencies(None)));
        }
        Some(_) => {
            let delta: Vec<(f64, f64)> = before
                .iter()
                .zip(&after)
                .map(|(b, a)| ((a.0 - b.0) as f64, (a.1 - b.1) as f64))
                .collect();
            let mean = |(count, sum): (f64, f64)| sum / count.max(1.0);
            for (stage, d) in STAGES.iter().zip(&delta) {
                out.push(&format!("serve.{stage}_us"), mean(*d));
            }
            let total = delta[STAGES.len()];
            let stage_sum: f64 = delta[..STAGES.len()].iter().map(|d| d.1).sum();
            out.push("serve.coverage", stage_sum / total.1.max(1.0));
            let rpc: Vec<f64> = light.samples.iter().map(|s| s.rpc_ms * 1e3).collect();
            out.push(
                "serve.wire_us",
                rpc.iter().sum::<f64>() / rpc.len() as f64 - mean(total),
            );
            let batches = snap
                .histogram("serve.batch_size")
                .map_or((0, 0), |h| (h.count, h.sum));
            out.push(
                "serve.batch_size_mean",
                batches.1 as f64 / batches.0.max(1) as f64,
            );
            let hits = snap.counter("exec.cache_hits").unwrap_or(0) as f64;
            let misses = snap.counter("exec.cache_misses").unwrap_or(0) as f64;
            out.push("serve.cache_hit_ratio", hits / (hits + misses).max(1.0));
            out.push(
                "serve.light.p99_ms",
                percentile(&light.latencies(None), 0.99),
            );
            out.push("serve.heavy.p50_ms", median(&heavy.latencies(None)));
            out.push(
                "serve.heavy.p99_ms",
                percentile(&heavy.latencies(None), 0.99),
            );
            let late: Vec<f64> = light.samples.iter().map(|s| s.late_ms).collect();
            out.push("serve.generator_late_ms", percentile(&late, 0.99));
            let (plain, traced) = (light.latencies(Some(false)), light.latencies(Some(true)));
            out.push("trace.overhead", median(&traced) / median(&plain));
        }
    }
    let _ = std::fs::remove_file(&artifact);
    out
}
