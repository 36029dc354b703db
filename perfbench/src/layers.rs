//! The traced run's layer split. After each traced request comes back
//! over the wire, the same request is replayed in-process through the
//! public function of every layer it crossed, one span per call:
//!
//! ```text
//! request                        client round trip (the wire)
//! ├─ evented.transport           round trip − App::route (derived)
//! │  ├─ parser.parse_head
//! │  ├─ metrics.record
//! │  └─ http.to_bytes
//! └─ app.route                   App::route on a mirror App
//!    ├─ app.parse_predict        body decode + canonical key
//!    ├─ cache.get
//!    ├─ graph.expand             Cnn::build(..).training_graph()      (miss)
//!    ├─ estimate.predict_iteration   one per GPU model                (miss)
//!    │  └─ features.extract      every heavy op, for that GPU model
//!    ├─ cloud.catalog                                                 (miss)
//!    ├─ report.coverage                                               (miss)
//!    ├─ serialize.predict                                             (miss)
//!    └─ cache.insert                                                  (miss)
//! ```
//!
//! The mirror `App` and the replay cache see the same request sequence
//! as the server, so every request hits or misses in the replay exactly
//! as it did on the server.

use std::sync::Arc;

use ceer_cloud::{Catalog, Pricing};
use ceer_core::{CeerModel, EstimateOptions, OpClass};
use ceer_gpusim::GpuModel;
use ceer_graph::models::Cnn;
use ceer_graph::Graph;
use ceer_serve::api::{self, RecommendRequest};
use ceer_serve::parser::{parse_head, RequestRef};
use ceer_serve::{App, Metrics, ModelRegistry, PredictionCache};

use crate::trace::Tracer;

/// Latencies `ceer_serve::Metrics` keeps per route (its `LATENCY_WINDOW`).
const SERVER_LATENCY_WINDOW: usize = 4096;

/// Per-request counts gathered alongside the spans.
#[derive(Default)]
pub struct Counts {
    pub ops: Vec<f64>,
    pub extract_calls: Vec<f64>,
    pub estimate_calls: Vec<f64>,
    pub predict_bytes: Vec<f64>,
    pub recommend_bytes: Vec<f64>,
    pub candidates: Vec<f64>,
    pub sweep_us: Vec<f64>,
    pub sweep_serial_us: Vec<f64>,
}

pub struct Replay {
    pub tracer: Tracer,
    pub counts: Counts,
    app: App,
    cache: PredictionCache,
    metrics: Metrics,
    model: Arc<CeerModel>,
}

/// One replayed request's wire-side spans, open until `Replay::close`.
struct Frame<'w> {
    transport: usize,
    route: usize,
    request: RequestRef<'w>,
}

/// What the wire saw for one request: its bytes and round-trip bounds on
/// the tracer's clock.
pub struct Wire<'a> {
    pub request: u64,
    pub bytes: &'a [u8],
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Replay {
    /// A replay over its own copy of the served model, with the server's
    /// cache capacity.
    pub fn new(model_path: &std::path::Path, cache_capacity: usize) -> Result<Replay, String> {
        let app = App::new(ModelRegistry::load(model_path)?, cache_capacity, None);
        let model = app.registry.model();
        Ok(Replay {
            tracer: Tracer::new(),
            counts: Counts::default(),
            app,
            cache: PredictionCache::new(cache_capacity),
            metrics: Metrics::default(),
            model,
        })
    }

    /// Brings the mirror state up to date with a request the server saw
    /// while tracing was off (warm-up), without recording anything.
    pub fn absorb(&mut self, bytes: &[u8]) {
        let Ok(Some(head)) = parse_head(bytes, ceer_serve::http::MAX_BODY_BYTES) else { return };
        let Some(request) = head.request(bytes) else { return };
        let response = self.app.route(request);
        if request.path == "/predict" {
            if let Ok((item, Some(key))) = self.app.parse_predict(request.body) {
                if self.cache.get(&key).is_none() {
                    if let Ok(body) = api::predict(&self.model, &item)
                        .and_then(|r| serde_json::to_string_pretty(&r).map_err(|e| e.to_string()))
                    {
                        self.cache.insert(key, body);
                    }
                }
            }
        }
        self.metrics.record("POST /predict", 0.0, response.is_error());
    }

    /// Fills `route`'s latency window to `SERVER_LATENCY_WINDOW` entries by
    /// cycling `latencies_us`: a busy server's window is that full on
    /// every scrape, and a snapshot sorts all of it.
    pub fn fill_latency_window(&self, route: &str, latencies_us: &[f64]) {
        for &latency in latencies_us.iter().cycle().take(SERVER_LATENCY_WINDOW) {
            self.metrics.record(route, latency, false);
        }
    }

    /// Time of one `Metrics::snapshot` of the replay's metrics.
    pub fn snapshot_us(&mut self) -> f64 {
        let start = std::time::Instant::now();
        std::hint::black_box(self.metrics.snapshot(self.cache.stats(), 0, None));
        start.elapsed().as_secs_f64() * 1e6
    }

    /// The wire part of the tree, opened: the request root, its transport
    /// span with `parser.parse_head`, and an `app.route` span for the
    /// replayed layers to attach to. `close` times `App::route` itself.
    fn open<'w>(&mut self, wire: &Wire<'w>) -> Option<Frame<'w>> {
        let t = &mut self.tracer;
        let root = t.record("request", None, wire.request, wire.start_ns, wire.end_ns);
        let transport = t.record("evented.transport", Some(root), wire.request, 0, 0);
        let head = t
            .time("parser.parse_head", Some(transport), wire.request, || {
                parse_head(wire.bytes, ceer_serve::http::MAX_BODY_BYTES)
            })
            .ok()
            .flatten()?;
        let request = head.request(wire.bytes)?;
        let route = t.record("app.route", Some(root), wire.request, 0, 0);
        Some(Frame { transport, route, request })
    }

    /// Times `App::route` on the mirror App into the frame's route span,
    /// then the wire-side leaves, and derives the transport span. The
    /// route runs after its parts were replayed, so that it does not warm
    /// the caches and the allocator for them.
    fn close(&mut self, wire: &Wire<'_>, frame: Frame<'_>) {
        let t = &mut self.tracer;
        let start = t.now_ns();
        let response = std::hint::black_box(self.app.route(frame.request));
        let end = t.now_ns();
        t.spans[frame.route].start_ns = start;
        t.spans[frame.route].end_ns = end;
        let rtt_us = (wire.end_ns - wire.start_ns) as f64 / 1e3;
        let label = format!("{} {}", frame.request.method, frame.request.path);
        let metrics = &self.metrics;
        t.time("metrics.record", Some(frame.transport), wire.request, || {
            metrics.record(&label, rtt_us, response.is_error());
        });
        t.time("http.to_bytes", Some(frame.transport), wire.request, || response.to_bytes(true));
        // The transport span covers the round trip App::route does not.
        let span = &mut t.spans[frame.transport];
        span.start_ns = wire.start_ns;
        span.end_ns = wire.end_ns.saturating_sub(end - start).max(wire.start_ns);
    }

    /// Replays one `/predict`.
    pub fn predict(&mut self, wire: &Wire<'_>, body: &[u8]) {
        let Some(frame) = self.open(wire) else { return };
        self.predict_parts(wire.request, frame.route, body);
        self.close(wire, frame);
    }

    /// The layers of `App::route` for one `/predict`, under `route`.
    fn predict_parts(&mut self, id: u64, route: usize, body: &[u8]) {
        let app = &self.app;
        let parsed =
            self.tracer.time("app.parse_predict", Some(route), id, || app.parse_predict(body));
        let Ok((item, Some(key))) = parsed else { return };
        let cache = &self.cache;
        let hit = self.tracer.time("cache.get", Some(route), id, || cache.get(&key));
        if hit.is_some() {
            return;
        }
        let Ok(cnn) = api::parse_cnn(&item.cnn) else { return };
        let graph = self
            .tracer
            .time("graph.expand", Some(route), id, || Cnn::build(cnn, item.batch).training_graph());
        self.counts.ops.push(graph.len() as f64);
        let targets: Vec<GpuModel> = match &item.gpu {
            Some(gpu) => api::parse_gpu(gpu).into_iter().collect(),
            None => GpuModel::all().to_vec(),
        };
        let mut extract_calls = 0usize;
        for &gpu in &targets {
            extract_calls += self.estimate(id, route, &graph, gpu, item.gpus, &item.options);
        }
        self.counts.extract_calls.push(extract_calls as f64);
        self.counts.estimate_calls.push(targets.len() as f64);
        self.tracer.time("cloud.catalog", Some(route), id, || {
            let catalog = Catalog::new(Pricing::OnDemand);
            targets.iter().map(|&gpu| catalog.instance(gpu, item.gpus)).collect::<Vec<_>>()
        });
        let model = &self.model;
        self.tracer
            .time("report.coverage", Some(route), id, || model.coverage(&graph).is_fully_covered());
        self.tracer.time("report.parameters", Some(route), id, || graph.parameter_count());
        let Ok(response) = api::predict(&self.model, &item) else { return };
        let Ok(rendered) = self
            .tracer
            .time("serialize.predict", Some(route), id, || serde_json::to_string_pretty(&response))
        else {
            return;
        };
        self.counts.predict_bytes.push(rendered.len() as f64);
        let cache = &self.cache;
        self.tracer.time("cache.insert", Some(route), id, || cache.insert(key, rendered));
        self.tracer.time("graph.drop", Some(route), id, || drop(graph));
    }

    /// One `predict_iteration` span with its feature extraction replayed
    /// as a child; returns the number of `features::extract` calls.
    fn estimate(
        &mut self,
        id: u64,
        parent: usize,
        graph: &Graph,
        gpu: GpuModel,
        gpus: u32,
        options: &EstimateOptions,
    ) -> usize {
        let model = &self.model;
        self.tracer.time("estimate.predict_iteration", Some(parent), id, || {
            model.predict_iteration(graph, gpu, gpus, options)
        });
        let span = self.tracer.spans.len() - 1;
        let classification = model.classification();
        let start = self.tracer.now_ns();
        let mut calls = 0;
        for node in graph.topological() {
            if classification.class_of(node.kind()) == OpClass::Heavy {
                std::hint::black_box(ceer_core::features::extract(node, graph));
                calls += 1;
            }
        }
        let end = self.tracer.now_ns();
        self.tracer.record("features.extract", Some(span), id, start, end);
        calls
    }

    /// Replays one `/recommend`. The sweep runs on the `ceer-par` pool as
    /// on the server; its parts are replayed serially as its children.
    pub fn recommend(&mut self, wire: &Wire<'_>, body: &[u8]) {
        let Some(frame) = self.open(wire) else { return };
        self.recommend_parts(wire.request, frame.route, body);
        self.close(wire, frame);
    }

    /// The layers of `App::route` for one `/recommend`, under `route`.
    fn recommend_parts(&mut self, id: u64, route: usize, body: &[u8]) {
        let Ok(item) = serde_json::from_slice::<RecommendRequest>(body) else { return };
        let Ok(key) = serde_json::to_string(&item).map(|c| format!("/recommend {c}")) else {
            return;
        };
        let cache = &self.cache;
        if self.tracer.time("cache.get", Some(route), id, || cache.get(&key)).is_some() {
            return;
        }
        let Ok(cnn_id) = api::parse_cnn(&item.cnn) else { return };
        let cnn = Cnn::build(cnn_id, item.batch);
        let catalog = Catalog::new(Pricing::OnDemand);
        let workload = ceer_core::recommend::Workload::new(item.samples, item.max_gpus);
        let model = Arc::clone(&self.model);
        let sweep = self.tracer.open("recommend.sweep", Some(route), id);
        let candidates = model.evaluate_candidates(&cnn, &catalog, &workload);
        self.tracer.close(sweep);
        self.counts.sweep_us.push(self.tracer.duration_us(sweep));
        self.counts.candidates.push(candidates.len() as f64);
        let graph = self.tracer.time("graph.expand", Some(sweep), id, || cnn.training_graph());
        self.tracer.time("graph.memory_estimate", Some(sweep), id, || {
            ceer_graph::analysis::estimate_memory(&graph)
        });
        // evaluate_candidates estimates with the default options.
        let options = EstimateOptions::default();
        for instance in catalog.enumerate(item.max_gpus) {
            self.estimate(id, sweep, &graph, instance.gpu(), instance.gpu_count(), &options);
        }
        let serial = {
            let _serial = ceer_par::override_threads(1);
            let start = std::time::Instant::now();
            std::hint::black_box(model.evaluate_candidates(&cnn, &catalog, &workload));
            start.elapsed().as_secs_f64() * 1e6
        };
        self.counts.sweep_serial_us.push(serial);
        let Ok(response) = api::recommend(&self.model, &item) else { return };
        let Ok(rendered) = self.tracer.time("serialize.recommend", Some(route), id, || {
            serde_json::to_string_pretty(&response)
        }) else {
            return;
        };
        self.counts.recommend_bytes.push(rendered.len() as f64);
        let cache = &self.cache;
        self.tracer.time("cache.insert", Some(route), id, || cache.insert(key, rendered));
    }
}
