//! The transport-independent application core: routing, caching,
//! metrics, readiness — everything about serving predictions that does
//! not care whether bytes arrive over epoll ([`crate::EventedServer`])
//! or the sim driver. Both hold one [`App`] and answer every request
//! through [`App::route`], so the two produce byte-identical bodies by
//! construction.
//!
//! `/predict` runs in three steps: [`App::parse_predict`] (body decode
//! and canonical cache key), a cache probe, and on a miss one
//! evaluation that `/predict_batch` shares for each of its misses.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};

use ceer_durable::DurableRecord;
use ceer_faults::Faults;
use ceer_online::{OnlineConfig, PredictSample, Sample};

use crate::api::{self, ErrorResponse};
use crate::cache::PredictionCache;
use crate::durable::{ServeDurability, ServePayload};
use crate::http::{ReadError, Response};
use crate::metrics::{Metrics, ServerEvent};
use crate::online::OnlineState;
use crate::parser::RequestRef;
use crate::registry::{ModelRegistry, ModelVersion};

/// Shared serving state: one per server, seen by every connection.
pub struct App {
    /// The fitted model being served, hot-swappable via `POST /reload`.
    pub registry: ModelRegistry,
    /// LRU of serialized response bodies keyed by canonical request.
    pub cache: PredictionCache,
    /// Per-endpoint latencies and robustness counters.
    pub metrics: Metrics,
    /// Seeded fault injector for chaos runs (`None` = no injection).
    pub faults: Faults,
    /// `true` while accepting; cleared at the start of shutdown so
    /// `GET /readyz` flips to 503 before the listener closes.
    pub ready: AtomicBool,
    /// The closed online-learning loop, when enabled (see
    /// [`App::enable_online`]).
    pub online: OnceLock<OnlineState>,
    /// Crash-safe persistence, when the server runs with a data
    /// directory (see [`App::attach_durability`]).
    pub durable: OnceLock<ServeDurability>,
}

impl App {
    /// A fresh core around a registry.
    pub fn new(registry: ModelRegistry, cache_capacity: usize, faults: Faults) -> Self {
        App {
            registry,
            cache: PredictionCache::new(cache_capacity),
            metrics: Metrics::default(),
            faults,
            ready: AtomicBool::new(true),
            online: OnceLock::new(),
            durable: OnceLock::new(),
        }
    }

    /// Turns on the closed online-learning loop: every computed `/predict`
    /// (and every recorded latency) is offered to the observation ring,
    /// which [`OnlineState::tick`] drains. One-shot; later calls are
    /// ignored.
    ///
    /// When durability is attached and recovery found an engine image,
    /// the loop resumes from it — `config` seeds only a fresh engine; a
    /// recovered one keeps the config it was snapshotted with, then
    /// reconciles its phase against the recovered registry (a candidate
    /// the registry no longer knows aborts the evaluation).
    pub fn enable_online(&self, seed: u64, config: OnlineConfig, ring_capacity: usize) {
        let state = OnlineState::new(seed, config, ring_capacity);
        if let Some(snapshot) = self.durable.get().and_then(ServeDurability::take_recovered_engine)
        {
            let live = self.registry.candidate().map(|c| (self.registry.version().0, c.0));
            state.restore_engine(snapshot, live);
        }
        self.metrics.set_observation_ring(Arc::clone(state.ring()));
        let _ = self.online.set(state);
    }

    /// Attaches crash-safe persistence (opened and recovered by the
    /// transport before serving starts). One-shot; later calls are
    /// ignored. Attach *before* [`App::enable_online`] so a recovered
    /// engine image reaches the loop.
    pub fn attach_durability(&self, durable: ServeDurability) {
        let _ = self.durable.set(durable);
    }

    /// A consistent durable image of the current serving state.
    pub fn durable_payload(&self) -> ServePayload {
        ServePayload {
            registry: self.registry.snapshot(),
            engine: self.online.get().map(OnlineState::engine_snapshot),
        }
    }

    /// Logs one admin-path record (reload, pin) through the durability
    /// layer, rotating a snapshot when due. No-op without durability.
    // ceer-lint: allow(blocking-in-reactor) -- durable logging runs on the admin reload path and the drain thread, never per-predict; a WAL commit is one append+fsync
    fn log_durable(&self, record: &DurableRecord) {
        let Some(durable) = self.durable.get() else { return };
        durable.record(record);
        durable.maybe_snapshot(|| self.durable_payload());
    }

    /// Drains the online loop once, with durability wired through when
    /// attached — the entry point the background worker uses.
    // ceer-lint: allow(blocking-in-reactor) -- only the dedicated online worker thread drains; the reactor never calls this
    pub fn drain_online(&self) -> usize {
        match self.online.get() {
            Some(state) => {
                state.tick_with(&self.registry, &self.cache, &self.faults, self.durable.get())
            }
            None => 0,
        }
    }

    /// Answers one parsed request. Pure in `(model, request, cache)` —
    /// no I/O, no ambient time.
    pub fn route(&self, request: RequestRef<'_>) -> Response {
        match (request.method, request.path) {
            ("GET", "/healthz") => match self.durable.get() {
                // With persistence on, health reports what recovery found
                // and whether any runtime durability write was swallowed.
                Some(durable) => ok(&durable.health_report()),
                None => Response::json(200, "{\n  \"status\": \"ok\"\n}"),
            },
            ("GET", "/readyz") => {
                if self.ready.load(Ordering::SeqCst) {
                    Response::json(200, "{\n  \"status\": \"ready\"\n}")
                } else {
                    error_response(503, "draining: server is shutting down".to_string())
                        .with_retry_after(1)
                }
            }
            ("GET", "/zoo") => ok(&api::zoo()),
            ("GET", "/catalog") => ok(&api::catalog()),
            ("GET", "/metrics") => {
                let online = self.online.get().map(|state| state.online_metrics(&self.registry));
                ok(&self.metrics.snapshot(self.cache.stats(), self.registry.reloads(), online))
            }
            ("POST", "/predict") => match self.parse_predict(request.body) {
                Err(response) => response,
                Ok((item, key)) => match self.predict_hit(key.as_deref()) {
                    Some(response) => response,
                    None => match self.predict_compute(&item, key.as_deref()) {
                        Ok((_, body)) => Response::json(200, body),
                        Err((status, error)) => error_response(status, error),
                    },
                },
            },
            ("POST", "/predict_batch") => self.predict_batch(request.body),
            ("POST", "/recommend") => self.cached("/recommend", request.body, api::recommend),
            ("POST", "/reload") => self.reload(request.body),
            (
                _,
                "/healthz" | "/readyz" | "/zoo" | "/catalog" | "/metrics" | "/predict"
                | "/predict_batch" | "/recommend" | "/reload",
            ) => {
                error_response(405, format!("{} does not accept {}", request.path, request.method))
            }
            _ => error_response(404, format!("no such endpoint {:?}", request.path)),
        }
    }

    /// Parses a `/predict` body into the request plus its canonical
    /// cache key (`None` when the request cannot re-serialize — such
    /// requests are answered uncached). `Err` is the ready-made 400.
    ///
    /// # Errors
    ///
    /// The 400 response for an unparsable body.
    pub fn parse_predict(
        &self,
        body: &[u8],
    ) -> Result<(api::PredictRequest, Option<String>), Response> {
        let request: api::PredictRequest = serde_json::from_slice(body)
            .map_err(|e| error_response(400, format!("invalid request body: {e}")))?;
        let key = serde_json::to_string(&request).ok().map(|c| format!("/predict {c}"));
        Ok((request, key))
    }

    /// Handles `POST /reload`. An empty body re-reads the backing file; a
    /// `{"version": N}` body pins the incumbent to a retained version
    /// instead (no file I/O). Both clear the cache: its entries were
    /// computed with the previous model.
    // ceer-lint: allow(blocking-in-reactor) -- reload is an explicit admin request; its durable log commit (one append+fsync) happens after the new model is installed
    fn reload(&self, body: &[u8]) -> Response {
        if body.iter().any(|b| !b.is_ascii_whitespace()) {
            let request: api::ReloadRequest = match serde_json::from_slice(body) {
                Ok(request) => request,
                Err(e) => return error_response(400, format!("invalid request body: {e}")),
            };
            if let Some(version) = request.version {
                return match self.registry.pin(ModelVersion(version)) {
                    Ok(()) => {
                        self.cache.clear();
                        self.log_durable(&DurableRecord::Pinned { version });
                        Response::json(
                            200,
                            format!("{{\n  \"status\": \"pinned\",\n  \"version\": {version}\n}}"),
                        )
                    }
                    Err(error) => {
                        self.metrics.bump(ServerEvent::ReloadFailure);
                        error_response(404, error)
                    }
                };
            }
        }
        match self.registry.reload_with(&self.faults) {
            Ok(reloads) => {
                // The cache is keyed by request only, so entries computed
                // with the old model are now stale.
                self.cache.clear();
                // The record carries the model itself: a reload from a
                // file that later vanishes must still recover.
                if let Ok(model_json) = serde_json::to_string(&*self.registry.model()) {
                    self.log_durable(&DurableRecord::Reloaded {
                        version: self.registry.version().0,
                        model_json,
                    });
                }
                Response::json(
                    200,
                    format!("{{\n  \"status\": \"reloaded\",\n  \"reloads\": {reloads}\n}}"),
                )
            }
            Err(error) => {
                // The previous model keeps serving; the failure is counted
                // and reported as a structured error body.
                self.metrics.bump(ServerEvent::ReloadFailure);
                error_response(500, error)
            }
        }
    }

    /// Cache probe for one `/predict` request. Disabled while an A/B
    /// candidate is active: a cached body carries no version attribution,
    /// so serving it would starve the evaluation's observation stream.
    fn predict_hit(&self, key: Option<&str>) -> Option<Response> {
        if self.registry.candidate().is_some() {
            return None;
        }
        key.and_then(|k| self.cache.get(k)).map(|body| Response::json(200, body))
    }

    /// Computes one cache-missed `/predict` request, for `/predict` and
    /// for each `/predict_batch` miss: version selection (seeded A/B when
    /// a candidate is active), evaluation, the observation tap, and the
    /// cache write. Returns the response with its serialized body.
    ///
    /// # Errors
    ///
    /// The status and message to answer with: 400 for an invalid
    /// request, 500 when the response cannot serialize.
    fn predict_compute(
        &self,
        item: &api::PredictRequest,
        key: Option<&str>,
    ) -> Result<(api::PredictResponse, String), (u16, String)> {
        let (version, model) = match key {
            Some(key) => self.registry.select(key),
            // No canonical key → nothing to split on; the incumbent
            // answers.
            None => (self.registry.version(), self.registry.model()),
        };
        let response = api::predict(&model, item).map_err(|error| (400, error))?;
        let body = serde_json::to_string_pretty(&response)
            .map_err(|e| (500, format!("response serialization failed: {e}")))?;
        self.observe_prediction(item, &response, version);
        // Cache writes are paused during an A/B evaluation so neither
        // arm's bodies outlive the verdict.
        if let (Some(key), None) = (key, self.registry.candidate()) {
            self.cache.insert(key.to_string(), body.clone());
        }
        Ok((response, body))
    }

    /// Offers one computed prediction to the observation ring (one sample
    /// per GPU model in the response). No-op while online learning is off.
    fn observe_prediction(
        &self,
        item: &api::PredictRequest,
        response: &api::PredictResponse,
        version: ModelVersion,
    ) {
        let Some(state) = self.online.get() else { return };
        // The request already evaluated, so its CNN name resolves.
        let Ok(cnn) = api::parse_cnn(&item.cnn) else { return };
        for prediction in &response.predictions {
            state.ring().push(Sample::Predict(PredictSample {
                version: version.0,
                cnn,
                gpu: prediction.gpu,
                gpus: response.gpus,
                batch: response.batch,
                predicted_us: prediction.iteration_us,
            }));
        }
    }

    /// Parses the body, answers from cache when possible, computes and
    /// caches otherwise. The cache key is the *canonical* request
    /// (parsed and re-serialized), so formatting differences and
    /// defaulted fields collapse onto one entry.
    fn cached<Req, Resp>(
        &self,
        endpoint: &str,
        body: &[u8],
        evaluate: impl Fn(&ceer_core::CeerModel, &Req) -> Result<Resp, String>,
    ) -> Response
    where
        Req: serde::Serialize + serde::Deserialize,
        Resp: serde::Serialize,
    {
        let request: Req = match serde_json::from_slice(body) {
            Ok(request) => request,
            Err(e) => return error_response(400, format!("invalid request body: {e}")),
        };
        // A request that cannot re-serialize has no canonical key; answer it
        // uncached rather than fail it.
        let key = serde_json::to_string(&request).ok().map(|c| format!("{endpoint} {c}"));
        if let Some(key) = &key {
            if let Some(body) = self.cache.get(key) {
                return Response::json(200, body);
            }
        }
        match evaluate(&self.registry.model(), &request) {
            Ok(response) => match serde_json::to_string_pretty(&response) {
                Ok(body) => {
                    if let Some(key) = key {
                        self.cache.insert(key, body.clone());
                    }
                    Response::json(200, body)
                }
                Err(e) => error_response(500, format!("response serialization failed: {e}")),
            },
            Err(error) => error_response(400, error),
        }
    }

    /// Answers a `/predict_batch` request, sharing the single-`/predict`
    /// cache per item: each item's key lives in the `/predict` namespace,
    /// so a batch primes the cache for later single calls and vice versa.
    /// Hits are answered from the stored body; misses are computed one
    /// after another, as single `/predict` misses are. Per-item errors
    /// are never cached.
    fn predict_batch(&self, body: &[u8]) -> Response {
        let request: api::PredictBatchRequest = match serde_json::from_slice(body) {
            Ok(request) => request,
            Err(e) => return error_response(400, format!("invalid request body: {e}")),
        };
        // Items that cannot re-serialize get no canonical key and skip the
        // cache on both read and write.
        let keys: Vec<Option<String>> = request
            .requests
            .iter()
            .map(|item| serde_json::to_string(item).ok().map(|c| format!("/predict {c}")))
            .collect();
        // The cache is disabled (reads and writes) while an A/B candidate
        // is active — see `predict_hit`.
        let cache_usable = self.registry.candidate().is_none();
        // One cache pass up front, before any miss is computed and stored,
        // so duplicate items inside one batch all miss or all hit.
        let hits: Vec<Option<String>> = if cache_usable {
            keys.iter().map(|key| key.as_deref().and_then(|k| self.cache.get(k))).collect()
        } else {
            vec![None; keys.len()]
        };

        let responses = request
            .requests
            .iter()
            .zip(&keys)
            .zip(hits)
            .map(|((item, key), hit)| match hit {
                // Stored bodies round-trip bit-exactly (serde_json preserves
                // f64), so a cache hit equals the freshly computed response.
                Some(body) => match serde_json::from_str::<api::PredictResponse>(&body) {
                    Ok(response) => api::PredictBatchItem { response: Some(response), error: None },
                    Err(e) => api::PredictBatchItem {
                        response: None,
                        error: Some(format!("corrupt cache entry: {e}")),
                    },
                },
                None => match self.predict_compute(item, key.as_deref()) {
                    Ok((response, _)) => {
                        api::PredictBatchItem { response: Some(response), error: None }
                    }
                    Err((_, error)) => api::PredictBatchItem { response: None, error: Some(error) },
                },
            })
            .collect();
        ok(&api::PredictBatchResponse { responses })
    }

    /// Maps a classified read failure onto its response (`None` = close
    /// silently) and bumps the matching counter: 400 malformed, 413 over
    /// the body limit, 408 on a deadline, silent close on transport
    /// errors. Shared so both transports classify identically.
    pub fn read_error_response(&self, error: &ReadError) -> Option<Response> {
        match error {
            ReadError::Malformed(message) => {
                self.metrics.bump(ServerEvent::Malformed);
                self.metrics.record("(malformed)", 0.0, true);
                Some(error_response(400, message.clone()))
            }
            ReadError::BodyTooLarge { declared, limit } => {
                self.metrics.bump(ServerEvent::BodyLimit);
                self.metrics.record("(body-too-large)", 0.0, true);
                Some(error_response(
                    413,
                    format!("request body of {declared} bytes exceeds the {limit}-byte limit"),
                ))
            }
            ReadError::TimedOut => {
                self.metrics.bump(ServerEvent::Timeout);
                self.metrics.record("(timeout)", 0.0, true);
                // Best effort: the peer may be stalled or gone; either way
                // the connection closes right after.
                Some(error_response(408, "request read timed out".to_string()))
            }
            ReadError::Io(_) => {
                // The transport failed mid-request; there is nobody to
                // answer.
                self.metrics.bump(ServerEvent::IoError);
                None
            }
        }
    }

    /// The `429` + `Retry-After` shed response, with its counters.
    pub fn shed_response(&self) -> Response {
        self.metrics.bump(ServerEvent::Shed);
        self.metrics.record("(shed)", 0.0, true);
        error_response(429, "server overloaded, please retry".to_string()).with_retry_after(1)
    }
}

/// Collapses unknown paths so the metrics map cannot grow unboundedly
/// from path scans.
pub fn canonical_route(path: &str) -> &str {
    match path {
        "/healthz" | "/readyz" | "/zoo" | "/catalog" | "/metrics" | "/predict"
        | "/predict_batch" | "/recommend" | "/reload" => path,
        _ => "(unknown)",
    }
}

/// A structured JSON error body.
pub fn error_response(status: u16, error: String) -> Response {
    // `ErrorResponse` is one string field, so serialization cannot really
    // fail — but an error path must never panic, so fall back to a
    // hand-built body instead of unwrapping.
    let body = serde_json::to_string_pretty(&ErrorResponse { error })
        .unwrap_or_else(|_| "{\n  \"error\": \"error serialization failed\"\n}".to_string());
    Response::json(status, body)
}

fn ok(body: &impl serde::Serialize) -> Response {
    match serde_json::to_string_pretty(body) {
        Ok(body) => Response::json(200, body),
        Err(e) => error_response(500, format!("response serialization failed: {e}")),
    }
}
