//! The serving side of the closed online-learning loop: draining the
//! observation ring, reconciling predictions against simulated ground
//! truth, and executing the engine's decisions against the versioned
//! [`ModelRegistry`].
//!
//! The split of responsibilities with `ceer-online`:
//!
//! * `ceer-online` owns the *decisions* — drift detection, incremental
//!   refitting, A/B verdicts — and is transport-free and deterministic.
//! * this module owns the *execution* — which registry version gets
//!   installed, promoted, dropped; when the cache is cleared; where the
//!   `online.refit` / `online.candidate` fault sites fire.
//!
//! Everything stays deterministic under seeded replay: the ring drains in
//! push order, ground truth is a pure function of the world seed and the
//! draw index, and A/B routing hashes the canonical request key. The
//! [`replay`] harness packages the whole loop for `ceer online replay`
//! and the `sim_online` test suite.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use ceer_durable::DurableRecord;
use ceer_faults::Faults;
use ceer_online::{
    corrupt_candidate, Action, EngineSnapshot, ObservationRing, OnlineConfig, OnlineEngine,
    OpObservation, Record, Sample, World,
};
use serde::{Deserialize, Serialize};

use crate::app::App;
use crate::durable::{ServeDurability, ServePayload};
use crate::metrics::OnlineMetrics;
use crate::parser::RequestRef;
use crate::registry::{ModelRegistry, ModelVersion};
use crate::sync::recover;

/// How many ring samples one [`OnlineState::tick`] processes at most,
/// bounding the time the worker spends away from its drain cadence.
const DRAIN_BATCH: usize = 256;

/// One drained sample after ground-truth reconciliation (tick phase 1),
/// carried to the engine-feeding phase so the two locks never overlap.
enum Reconciled {
    /// A request-latency sample: bump the engine's counter only.
    Latency,
    /// A prediction whose serving version has been pruned since.
    Unattributable,
    /// A prediction reconciled into a full residual record.
    Observed(Record),
}

/// The online loop's shared state: the observation ring the serving path
/// feeds, and the engine + simulated world the drain side runs.
pub struct OnlineState {
    ring: Arc<ObservationRing>,
    engine: Mutex<OnlineEngine>,
    world: Mutex<World>,
}

impl OnlineState {
    /// A fresh loop observing a world seeded with `seed`.
    pub fn new(seed: u64, config: OnlineConfig, ring_capacity: usize) -> Self {
        OnlineState {
            ring: Arc::new(ObservationRing::new(ring_capacity)),
            engine: Mutex::new(OnlineEngine::new(config)),
            world: Mutex::new(World::new(seed)),
        }
    }

    /// The observation ring the serving path pushes into.
    pub fn ring(&self) -> &Arc<ObservationRing> {
        &self.ring
    }

    /// Injects fleet drift: subsequent ground-truth draws run `scale`×
    /// slower/faster than the world the served model was fitted on.
    pub fn set_time_scale(&self, scale: f64) {
        recover(self.world.lock()).set_time_scale(scale);
    }

    /// Replaces the engine with one resumed from a durable image,
    /// reconciled against the registry's live `(incumbent, candidate)`
    /// state (see [`OnlineEngine::reconcile`]). Called once at boot,
    /// before the drain worker starts.
    pub fn restore_engine(&self, snapshot: EngineSnapshot, live: Option<(u64, u64)>) {
        let mut restored = OnlineEngine::from_snapshot(snapshot);
        restored.reconcile(live);
        *recover(self.engine.lock()) = restored;
    }

    /// A durable image of the engine, for snapshot payloads.
    pub fn engine_snapshot(&self) -> EngineSnapshot {
        recover(self.engine.lock()).snapshot()
    }

    /// Drains up to [`DRAIN_BATCH`] observations, reconciles each against
    /// simulated ground truth, and executes any decision the engine
    /// reaches. Returns the number of samples processed.
    pub fn tick(
        &self,
        registry: &ModelRegistry,
        cache: &crate::cache::PredictionCache,
        faults: &Faults,
    ) -> usize {
        self.tick_with(registry, cache, faults, None)
    }

    /// [`OnlineState::tick`] with persistence: the decisions one drain
    /// executes are group-committed as one WAL batch after both locks
    /// drop, and a snapshot rotates when the record threshold is due.
    /// The commit is *post-hoc* — a crash between execution and commit
    /// loses at most one tick's decisions, which recovery's
    /// [`OnlineEngine::reconcile`] absorbs (the replayed registry is
    /// authoritative, the engine realigns to it).
    pub fn tick_with(
        &self,
        registry: &ModelRegistry,
        cache: &crate::cache::PredictionCache,
        faults: &Faults,
        durable: Option<&ServeDurability>,
    ) -> usize {
        let samples = self.ring.drain(DRAIN_BATCH);
        let processed = samples.len();
        if processed == 0 {
            return 0;
        }
        // Phase 1 — reconcile against simulated ground truth under the
        // world lock alone, preserving the drain order for phase 2.
        let mut world = recover(self.world.lock());
        let reconciled: Vec<Reconciled> = samples
            .into_iter()
            .map(|sample| match sample {
                Sample::Latency(_) => Reconciled::Latency,
                Sample::Predict(predict) => {
                    let truth =
                        world.draw_truth(predict.cnn, predict.gpu, predict.gpus, predict.batch);
                    // The version that answered may have been pruned since;
                    // its observations can no longer be attributed. (The
                    // world draw above still happens, keeping the truth
                    // stream aligned with the sample stream.)
                    let Some(model) = registry.model_of(ModelVersion(predict.version)) else {
                        return Reconciled::Unattributable;
                    };
                    let ops: Vec<OpObservation> = truth
                        .ops
                        .iter()
                        .filter_map(|op| {
                            model.op_model(op.kind, predict.gpu).map(|regression| OpObservation {
                                kind: op.kind,
                                features: op.features.clone(),
                                true_us: op.mean_us,
                                predicted_us: regression.predict_us(&op.features),
                            })
                        })
                        .collect();
                    Reconciled::Observed(Record {
                        version: predict.version,
                        gpu: predict.gpu,
                        predicted_iteration_us: predict.predicted_us,
                        true_iteration_us: truth.iteration_us,
                        ops,
                    })
                }
            })
            .collect();
        drop(world);
        // Phase 2 — feed the engine under its lock alone; the two locks
        // are never held together, so no ordering can deadlock.
        let mut engine = recover(self.engine.lock());
        let drift_before = engine.status().drift_events;
        let mut log: Vec<DurableRecord> = Vec::new();
        for entry in &reconciled {
            match entry {
                Reconciled::Latency => engine.note_latency(),
                Reconciled::Unattributable => {}
                Reconciled::Observed(record) => {
                    if let Some(action) = engine.ingest(record) {
                        execute(&mut engine, action, registry, cache, faults, &mut log);
                    }
                }
            }
        }
        let status = engine.status();
        if status.drift_events > drift_before {
            // The change-point precedes whatever refit it triggered.
            log.insert(0, DurableRecord::ChangePoint { observations: status.observations });
        }
        drop(engine);
        if let Some(durable) = durable {
            durable.append(&log);
            durable.maybe_snapshot(|| ServePayload {
                registry: registry.snapshot(),
                engine: Some(self.engine_snapshot()),
            });
        }
        processed
    }

    /// The engine's decision log so far.
    pub fn decisions(&self) -> Vec<Action> {
        recover(self.engine.lock()).decisions().to_vec()
    }

    /// The `/metrics` section for the loop.
    pub fn online_metrics(&self, registry: &ModelRegistry) -> OnlineMetrics {
        OnlineMetrics {
            ring: self.ring.stats(),
            engine: recover(self.engine.lock()).status(),
            incumbent: registry.version().0,
            candidate: registry.candidate().map(|v| v.0),
            versions_served: registry.served_counts(),
        }
    }
}

/// Executes one engine decision against the registry, appending the
/// durable records that mirror what actually happened (`log` entries are
/// committed by the caller; registry records carry the model JSON so
/// replay is self-contained).
fn execute(
    engine: &mut OnlineEngine,
    action: Action,
    registry: &ModelRegistry,
    cache: &crate::cache::PredictionCache,
    faults: &Faults,
    log: &mut Vec<DurableRecord>,
) {
    match action {
        Action::BuildCandidate { pairs } => {
            log.push(DurableRecord::RefitRequested {
                pairs: pairs.iter().map(|(kind, gpu)| format!("{kind:?}/{gpu:?}")).collect(),
            });
            // The `online.refit` site models the refit solve failing
            // outright (e.g. a singular accumulated system).
            if let Some(injector) = faults.as_deref() {
                if injector.fail_str("online.refit").is_err() {
                    engine.refit_failed();
                    log.push(DurableRecord::RefitFailed);
                    return;
                }
            }
            let incumbent = registry.version();
            let base = registry.model();
            match engine.build_candidate(&base, &pairs) {
                None => {
                    engine.refit_failed();
                    log.push(DurableRecord::RefitFailed);
                }
                Some(mut candidate) => {
                    // The `online.candidate` site models a refit that went
                    // numerically wrong *silently*: the candidate installs,
                    // and the A/B evaluation must catch and abort it.
                    if let Some(injector) = faults.as_deref() {
                        if injector.fail_str("online.candidate").is_err() {
                            candidate = corrupt_candidate(&candidate);
                        }
                    }
                    let percent = engine.config().candidate_percent;
                    let model_json = serde_json::to_string(&candidate).unwrap_or_default();
                    let version = registry.install_candidate(candidate, percent);
                    engine.candidate_built(incumbent.0, version.0);
                    if !model_json.is_empty() {
                        log.push(DurableRecord::CandidateInstalled {
                            version: version.0,
                            percent,
                            model_json,
                        });
                    }
                }
            }
        }
        Action::Promote { candidate } => {
            // Refusal means a concurrent reload voided the evaluation; the
            // registry is already serving something newer.
            if registry.promote(ModelVersion(candidate)).is_ok() {
                log.push(DurableRecord::Promoted { version: candidate });
            }
            // Every cached body was computed by the dethroned incumbent.
            cache.clear();
        }
        Action::Abort { candidate } => {
            if registry.drop_candidate(ModelVersion(candidate)).is_ok() {
                log.push(DurableRecord::CandidateDropped { version: candidate });
            }
        }
    }
}

/// A background thread draining an [`App`]'s observation ring on a fixed
/// cadence. No-op (and immediately joinable) when the app has no online
/// state enabled.
pub struct OnlineWorker {
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl OnlineWorker {
    /// Launches the drain thread.
    pub fn launch(app: Arc<App>, interval: Duration) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let thread_stop = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("ceer-online".to_string())
            // ceer-lint: allow(thread-spawn) -- the single drain thread created once at server start, off the request path
            .spawn(move || {
                while !thread_stop.load(Ordering::SeqCst) {
                    app.drain_online();
                    std::thread::park_timeout(interval);
                }
                // Final drain so observations pushed right before shutdown
                // still land in the engine's counters.
                while app.drain_online() > 0 {}
            })
            .expect("spawn online worker");
        OnlineWorker { stop, handle: Some(handle) }
    }

    /// Stops and joins the worker, draining the ring one last time.
    pub fn stop(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(handle) = self.handle.take() {
            handle.thread().unpark();
            let _ = handle.join();
        }
    }
}

impl Drop for OnlineWorker {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(handle) = self.handle.take() {
            handle.thread().unpark();
            let _ = handle.join();
        }
    }
}

/// Configuration for one seeded replay of the closed loop ([`replay`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReplayConfig {
    /// Seeds the fitted model, the simulated world, and the traffic shape.
    pub seed: u64,
    /// `/predict` requests to serve.
    pub requests: usize,
    /// Request index at which the world drifts (none if `>= requests`).
    pub drift_at: usize,
    /// The drift factor applied at `drift_at`.
    pub drift_scale: f64,
    /// Drain the ring after every this-many requests.
    pub tick_every: usize,
    /// Engine tuning.
    pub online: OnlineConfig,
    /// Fault plan spec for the `online.*` sites (`site=kind@trigger`
    /// clauses, see `ceer-faults`); `None` for a fault-free run.
    pub fault_spec: Option<String>,
}

impl Default for ReplayConfig {
    fn default() -> Self {
        ReplayConfig {
            seed: 7,
            requests: 260,
            drift_at: 120,
            drift_scale: 1.6,
            tick_every: 8,
            online: OnlineConfig {
                min_refit_samples: 24,
                eval_observations: 6,
                ..OnlineConfig::default()
            },
            fault_spec: None,
        }
    }
}

/// The outcome of one [`replay`] run. Two runs with equal configs are
/// byte-identical in every field — the determinism contract `sim_online`
/// asserts.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReplayReport {
    /// The engine's ordered decision log.
    pub decisions: Vec<Action>,
    /// The final `GET /metrics` body, verbatim.
    pub metrics_body: String,
    /// The incumbent version after the run.
    pub final_version: u64,
    /// Requests answered with a non-200 status (should be zero).
    pub request_errors: u64,
}

/// Runs the whole loop end to end, transport-free: fit a model, serve a
/// seeded `/predict` stream through [`App::route`], drift the world
/// mid-stream, and let the online worker logic (inline ticks) observe,
/// refit, and promote. Pure in `config`.
pub fn replay(config: &ReplayConfig) -> ReplayReport {
    let model = ceer_core::Ceer::fit(&ceer_core::FitConfig {
        cnns: vec![ceer_graph::models::CnnId::AlexNet],
        iterations: 3,
        parallel_degrees: vec![1],
        seed: config.seed,
        ..ceer_core::FitConfig::default()
    });
    let faults = match &config.fault_spec {
        Some(spec) => ceer_faults::injector(
            ceer_faults::FaultPlan::parse(config.seed, spec).expect("valid fault spec"),
        ),
        None => ceer_faults::none(),
    };
    // A deliberately small cache: the replay's 12-key traffic cycle must
    // keep missing so computed predictions keep feeding the observation
    // ring (a fleet's organic traffic diversity, miniaturized).
    let app = App::new(ModelRegistry::from_model(model), 4, faults);
    app.enable_online(config.seed, config.online, 4096);
    let state = app.online.get().expect("online state just enabled");

    let mut request_errors = 0u64;
    for i in 0..config.requests {
        if i == config.drift_at {
            state.set_time_scale(config.drift_scale);
        }
        // A seeded traffic shape: one CNN, one GPU, batch sweeping a
        // fixed cycle so canonical keys vary (exercising both cache and
        // A/B hash routing) while staying replayable.
        let batch = 16 + 8 * ((config.seed.wrapping_add(i as u64 * 7)) % 12);
        let body =
            format!("{{\"cnn\": \"alexnet\", \"gpu\": \"v100\", \"gpus\": 1, \"batch\": {batch}}}");
        let response = app.route(RequestRef {
            method: "POST",
            path: "/predict",
            body: body.as_bytes(),
            retry_attempt: 0,
        });
        if response.status != 200 {
            request_errors += 1;
        }
        // Transports record latencies; the transport-free replay records a
        // deterministic synthetic one so the metrics tap (and the ring's
        // latency stream) is exercised without wall-clock nondeterminism.
        app.metrics.record("POST /predict", 50.0 + (i % 10) as f64, response.status != 200);
        if (i + 1) % config.tick_every == 0 {
            state.tick(&app.registry, &app.cache, &app.faults);
        }
    }
    // Drain whatever the last partial tick left behind.
    while state.tick(&app.registry, &app.cache, &app.faults) > 0 {}

    let metrics =
        app.route(RequestRef { method: "GET", path: "/metrics", body: b"", retry_attempt: 0 });
    ReplayReport {
        decisions: state.decisions(),
        metrics_body: metrics.body,
        final_version: app.registry.version().0,
        request_errors,
    }
}

// Replay determinism and scenario coverage live in `tests/sim_online.rs`;
// the unit tests here cover the execute() glue in isolation.
#[cfg(test)]
mod tests {
    use super::*;
    use ceer_core::{Ceer, FitConfig};
    use ceer_gpusim::GpuModel;
    use ceer_graph::models::CnnId;
    use ceer_graph::OpKind;

    fn tiny_app() -> App {
        let model = Ceer::fit(&FitConfig {
            cnns: vec![CnnId::Vgg11],
            iterations: 2,
            parallel_degrees: vec![1],
            seed: 11,
            ..FitConfig::default()
        });
        App::new(ModelRegistry::from_model(model), 8, ceer_faults::none())
    }

    #[test]
    fn enable_online_wires_ring_and_metrics() {
        let app = tiny_app();
        app.enable_online(3, OnlineConfig::default(), 128);
        let state = app.online.get().unwrap();
        // A recorded latency flows through the metrics tap into the ring.
        app.metrics.record("POST /predict", 42.0, false);
        assert_eq!(state.ring().stats().pushed, 1);
        let online = state.online_metrics(&app.registry);
        assert_eq!(online.incumbent, 1);
        assert_eq!(online.candidate, None);
        assert_eq!(online.ring.pushed, 1);
    }

    #[test]
    fn tick_consumes_latency_samples() {
        let app = tiny_app();
        app.enable_online(3, OnlineConfig::default(), 128);
        let state = app.online.get().unwrap();
        for _ in 0..5 {
            app.metrics.record("GET /healthz", 1.0, false);
        }
        let processed = state.tick(&app.registry, &app.cache, &app.faults);
        assert_eq!(processed, 5);
        let online = state.online_metrics(&app.registry);
        assert_eq!(online.engine.latency_records, 5);
        assert_eq!(online.ring.drained, 5);
    }

    #[test]
    fn refit_fault_site_counts_a_failure() {
        let app = tiny_app();
        app.enable_online(3, OnlineConfig::default(), 128);
        let state = app.online.get().unwrap();
        let faults =
            ceer_faults::injector(ceer_faults::FaultPlan::parse(1, "online.refit=err@1").unwrap());
        let mut log = Vec::new();
        let mut engine = recover(state.engine.lock());
        execute(
            &mut engine,
            Action::BuildCandidate { pairs: vec![(OpKind::Conv2D, GpuModel::V100)] },
            &app.registry,
            &app.cache,
            &faults,
            &mut log,
        );
        assert_eq!(engine.status().refit_failures, 1);
        assert_eq!(app.registry.candidate(), None);
        // The durable trail mirrors the failure: request, then failure.
        assert_eq!(
            log.iter().map(ceer_durable::DurableRecord::tag).collect::<Vec<_>>(),
            vec!["refit-requested", "refit-failed"]
        );
    }

    #[test]
    fn promote_and_abort_drive_the_registry() {
        let app = tiny_app();
        let candidate_model = Ceer::fit(&FitConfig {
            cnns: vec![CnnId::Vgg11],
            iterations: 2,
            parallel_degrees: vec![1],
            seed: 12,
            ..FitConfig::default()
        });
        app.enable_online(3, OnlineConfig::default(), 128);
        let state = app.online.get().unwrap();
        let version = app.registry.install_candidate(candidate_model.clone(), 50);
        let mut log = Vec::new();
        {
            let mut engine = recover(state.engine.lock());
            execute(
                &mut engine,
                Action::Promote { candidate: version.0 },
                &app.registry,
                &app.cache,
                &ceer_faults::none(),
                &mut log,
            );
        }
        assert_eq!(app.registry.version(), version);
        assert_eq!(*app.registry.model(), candidate_model);
        assert_eq!(log, vec![ceer_durable::DurableRecord::Promoted { version: version.0 }]);

        let second = app.registry.install_candidate(candidate_model, 50);
        log.clear();
        {
            let mut engine = recover(state.engine.lock());
            execute(
                &mut engine,
                Action::Abort { candidate: second.0 },
                &app.registry,
                &app.cache,
                &ceer_faults::none(),
                &mut log,
            );
        }
        assert_eq!(app.registry.candidate(), None);
        assert_eq!(app.registry.version(), version);
        assert_eq!(log, vec![ceer_durable::DurableRecord::CandidateDropped { version: second.0 }]);
    }
}
