//! Request metrics for `GET /metrics`: per-endpoint request/error counts
//! and latency summaries, quantiles via [`ceer_stats::summary`] — the same
//! estimator the paper's profiler uses for compute-time samples.

use std::collections::BTreeMap;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use ceer_online::{EngineStatus, LatencySample, ObservationRing, RingStats, Sample};
use serde::{Deserialize, Serialize};

use crate::cache::CacheStats;
use crate::sync::recover;

/// Latency samples kept per endpoint (a sliding window: old samples fall
/// off so the summary tracks recent behavior).
const LATENCY_WINDOW: usize = 4096;

/// A latency distribution summary, µs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LatencySummary {
    /// Samples in the window.
    pub count: u64,
    /// Mean latency.
    pub mean_us: f64,
    /// Median latency.
    pub p50_us: f64,
    /// 90th percentile.
    pub p90_us: f64,
    /// 99th percentile.
    pub p99_us: f64,
    /// Worst sample in the window.
    pub max_us: f64,
}

/// One endpoint's counters and latency summary.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EndpointSnapshot {
    /// Requests handled (including errors).
    pub requests: u64,
    /// Requests answered with a 4xx/5xx status.
    pub errors: u64,
    /// Latency summary over the sample window; `None` before any request.
    pub latency: Option<LatencySummary>,
}

/// Degradation accounting: every shed, timed-out, rejected, or recovered
/// request lands in exactly one of these counters, so chaos tests can
/// reconcile injected faults against served outcomes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct RobustnessCounters {
    /// Connections shed with 429 because the pending queue was full.
    pub shed: u64,
    /// Requests that hit a read deadline (per-read or total) — 408/close.
    pub timeouts: u64,
    /// Requests rejected with 413 for exceeding the body limit.
    pub body_limit_rejections: u64,
    /// Syntactically broken requests answered with 400.
    pub malformed: u64,
    /// Connections that failed mid-request or mid-response (closed).
    pub io_errors: u64,
    /// Requests carrying a client retry marker (`X-Ceer-Attempt` > 0).
    pub retried_requests: u64,
    /// `POST /reload` attempts that failed (old model kept serving).
    pub reload_failures: u64,
    /// Panics caught while handling one connection; that connection
    /// closed and the server kept serving.
    pub panics_recovered: u64,
}

/// Online-learning accounting inside a [`MetricsSnapshot`]: the
/// observation ring's reconciled counters, the loop's state machine, and
/// per-version serving/accuracy figures.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OnlineMetrics {
    /// Observation-ring accounting (`pushed == shed + drained + depth`).
    pub ring: RingStats,
    /// The online engine's phase, counters, and per-version accuracy.
    pub engine: EngineStatus,
    /// The incumbent model version.
    pub incumbent: u64,
    /// The candidate version under A/B evaluation, if any.
    pub candidate: Option<u64>,
    /// Predictions computed per version, ordered by version id.
    pub versions_served: Vec<(u64, u64)>,
}

/// The full `GET /metrics` payload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Per-endpoint statistics, keyed by route (e.g. `"POST /predict"`).
    pub endpoints: BTreeMap<String, EndpointSnapshot>,
    /// Prediction-cache statistics.
    pub cache: CacheStats,
    /// Successful model reloads since startup.
    pub model_reloads: u64,
    /// Degradation counters (absent in pre-robustness payloads).
    #[serde(default)]
    pub robustness: RobustnessCounters,
    /// Online-learning state; `None` (and absent in older payloads) when
    /// the closed loop is not enabled.
    #[serde(default)]
    pub online: Option<OnlineMetrics>,
}

/// One countable degradation event (see [`RobustnessCounters`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServerEvent {
    /// Queue-full shed (429).
    Shed,
    /// Read deadline expired (408/close).
    Timeout,
    /// Body over the configured limit (413).
    BodyLimit,
    /// Unparsable request (400).
    Malformed,
    /// Transport failure mid-request/response.
    IoError,
    /// Request arrived with a retry marker.
    RetriedRequest,
    /// Model reload failed; previous model kept serving.
    ReloadFailure,
    /// A panic was contained to its connection and the server kept
    /// serving.
    PanicRecovered,
}

#[derive(Default)]
struct EndpointStats {
    requests: u64,
    errors: u64,
    latencies_us: VecDeque<f64>,
}

/// Thread-safe metrics accumulator, one per [`crate::App`].
#[derive(Default)]
pub struct Metrics {
    endpoints: Mutex<BTreeMap<String, EndpointStats>>,
    /// When online learning is enabled, every recorded latency is also
    /// offered to the observation ring, so samples survive beyond the
    /// bounded quantile window (drops are counted as ring shed, never
    /// silent).
    tap: OnceLock<Arc<ObservationRing>>,
    shed: AtomicU64,
    timeouts: AtomicU64,
    body_limit_rejections: AtomicU64,
    malformed: AtomicU64,
    io_errors: AtomicU64,
    retried_requests: AtomicU64,
    reload_failures: AtomicU64,
    panics_recovered: AtomicU64,
}

impl Metrics {
    /// Records one handled request.
    pub fn record(&self, route: &str, latency_us: f64, is_error: bool) {
        self.record_with(route, latency_us, is_error, &ceer_faults::none());
    }

    /// [`Metrics::record`] with a fault hook evaluated *inside* the
    /// endpoint critical section (`serve.metrics.lock`): an injected
    /// poison there unwinds while the lock is held, exercising the
    /// poisoning-recovery path that `recover` provides.
    pub fn record_with(
        &self,
        route: &str,
        latency_us: f64,
        is_error: bool,
        faults: &ceer_faults::Faults,
    ) {
        let mut endpoints = recover(self.endpoints.lock());
        if let Some(injector) = faults {
            injector.maybe_panic("serve.metrics.lock");
        }
        let stats = endpoints.entry(route.to_string()).or_default();
        stats.requests += 1;
        if is_error {
            stats.errors += 1;
        }
        stats.latencies_us.push_back(latency_us);
        while stats.latencies_us.len() > LATENCY_WINDOW {
            stats.latencies_us.pop_front();
        }
        drop(endpoints);
        // Outside the endpoint lock: the ring has its own (short) critical
        // section and must not nest under this one.
        if let Some(ring) = self.tap.get() {
            ring.push(Sample::Latency(LatencySample { route: route.to_string(), latency_us }));
        }
    }

    /// Wires the observation ring that [`Metrics::record`] feeds. One-shot:
    /// later calls are ignored.
    pub fn set_observation_ring(&self, ring: Arc<ObservationRing>) {
        let _ = self.tap.set(ring);
    }

    /// Counts one degradation event. Lock-free: safe from the acceptor
    /// thread and from panic-recovery paths where the endpoint lock may
    /// be poisoned.
    pub fn bump(&self, event: ServerEvent) {
        let counter = match event {
            ServerEvent::Shed => &self.shed,
            ServerEvent::Timeout => &self.timeouts,
            ServerEvent::BodyLimit => &self.body_limit_rejections,
            ServerEvent::Malformed => &self.malformed,
            ServerEvent::IoError => &self.io_errors,
            ServerEvent::RetriedRequest => &self.retried_requests,
            ServerEvent::ReloadFailure => &self.reload_failures,
            ServerEvent::PanicRecovered => &self.panics_recovered,
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Current degradation counters.
    pub fn robustness(&self) -> RobustnessCounters {
        RobustnessCounters {
            shed: self.shed.load(Ordering::Relaxed),
            timeouts: self.timeouts.load(Ordering::Relaxed),
            body_limit_rejections: self.body_limit_rejections.load(Ordering::Relaxed),
            malformed: self.malformed.load(Ordering::Relaxed),
            io_errors: self.io_errors.load(Ordering::Relaxed),
            retried_requests: self.retried_requests.load(Ordering::Relaxed),
            reload_failures: self.reload_failures.load(Ordering::Relaxed),
            panics_recovered: self.panics_recovered.load(Ordering::Relaxed),
        }
    }

    /// A consistent snapshot for `GET /metrics`.
    pub fn snapshot(
        &self,
        cache: CacheStats,
        model_reloads: u64,
        online: Option<OnlineMetrics>,
    ) -> MetricsSnapshot {
        let guard = recover(self.endpoints.lock());
        let endpoints = guard
            .iter()
            .map(|(route, stats)| {
                (
                    route.clone(),
                    EndpointSnapshot {
                        requests: stats.requests,
                        errors: stats.errors,
                        latency: summarize(&stats.latencies_us),
                    },
                )
            })
            .collect();
        // Release before assembling the rest: `robustness()` only reads
        // atomics and must not run under the endpoint lock.
        drop(guard);
        MetricsSnapshot { endpoints, cache, model_reloads, robustness: self.robustness(), online }
    }
}

fn summarize(window: &VecDeque<f64>) -> Option<LatencySummary> {
    if window.is_empty() {
        return None;
    }
    let samples: Vec<f64> = window.iter().copied().collect();
    let mean_us = ceer_stats::summary::mean(&samples).ok()?;
    let quantile = |q| ceer_stats::summary::quantile(&samples, q).ok();
    Some(LatencySummary {
        count: samples.len() as u64,
        mean_us,
        p50_us: quantile(0.5)?,
        p90_us: quantile(0.9)?,
        p99_us: quantile(0.99)?,
        max_us: samples.iter().cloned().fold(f64::NEG_INFINITY, f64::max),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn empty_cache_stats() -> CacheStats {
        CacheStats { capacity: 0, entries: 0, hits: 0, misses: 0, hit_rate: 0.0 }
    }

    #[test]
    fn counts_requests_and_errors_per_route() {
        let metrics = Metrics::default();
        metrics.record("POST /predict", 100.0, false);
        metrics.record("POST /predict", 300.0, true);
        metrics.record("GET /healthz", 5.0, false);
        let snap = metrics.snapshot(empty_cache_stats(), 0, None);
        assert_eq!(snap.endpoints.len(), 2);
        let predict = &snap.endpoints["POST /predict"];
        assert_eq!((predict.requests, predict.errors), (2, 1));
        assert_eq!(snap.endpoints["GET /healthz"].errors, 0);
    }

    #[test]
    fn latency_summary_uses_quantiles() {
        let metrics = Metrics::default();
        for i in 1..=100 {
            metrics.record("r", i as f64, false);
        }
        let latency =
            metrics.snapshot(empty_cache_stats(), 0, None).endpoints["r"].latency.unwrap();
        assert_eq!(latency.count, 100);
        assert!((latency.mean_us - 50.5).abs() < 1e-9);
        assert!(latency.p50_us >= 50.0 && latency.p50_us <= 51.0);
        assert!(latency.p90_us >= 90.0 && latency.p90_us <= 91.0);
        assert!(latency.p99_us >= 99.0 && latency.p99_us <= 100.0);
        assert_eq!(latency.max_us, 100.0);
        assert!(latency.p50_us <= latency.p90_us && latency.p90_us <= latency.p99_us);
    }

    #[test]
    fn window_is_bounded() {
        let metrics = Metrics::default();
        for i in 0..(LATENCY_WINDOW + 500) {
            metrics.record("r", i as f64, false);
        }
        let snap = metrics.snapshot(empty_cache_stats(), 0, None);
        let latency = snap.endpoints["r"].latency.unwrap();
        assert_eq!(latency.count, LATENCY_WINDOW as u64);
        // Only the most recent samples remain, so the window minimum moved up.
        assert!(latency.p50_us > 500.0);
        assert_eq!(snap.endpoints["r"].requests, (LATENCY_WINDOW + 500) as u64);
    }

    #[test]
    fn snapshot_round_trips_through_json() {
        let metrics = Metrics::default();
        metrics.record("POST /predict", 123.0, false);
        metrics.bump(ServerEvent::Shed);
        metrics.bump(ServerEvent::ReloadFailure);
        let snap = metrics.snapshot(empty_cache_stats(), 2, None);
        let json = serde_json::to_string(&snap).unwrap();
        let back: MetricsSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(snap, back);
    }

    #[test]
    fn bump_routes_each_event_to_its_counter() {
        let metrics = Metrics::default();
        metrics.bump(ServerEvent::Shed);
        metrics.bump(ServerEvent::Shed);
        metrics.bump(ServerEvent::Timeout);
        metrics.bump(ServerEvent::BodyLimit);
        metrics.bump(ServerEvent::Malformed);
        metrics.bump(ServerEvent::IoError);
        metrics.bump(ServerEvent::RetriedRequest);
        metrics.bump(ServerEvent::ReloadFailure);
        metrics.bump(ServerEvent::PanicRecovered);
        let robustness = metrics.robustness();
        assert_eq!(
            robustness,
            RobustnessCounters {
                shed: 2,
                timeouts: 1,
                body_limit_rejections: 1,
                malformed: 1,
                io_errors: 1,
                retried_requests: 1,
                reload_failures: 1,
                panics_recovered: 1,
            }
        );
    }

    #[test]
    fn pre_robustness_snapshot_json_still_deserializes() {
        // Old payloads have no "robustness" key; serde(default) fills zeros.
        let metrics = Metrics::default();
        let snap = metrics.snapshot(empty_cache_stats(), 0, None);
        let serde_json::Value::Object(fields) = serde_json::to_value(&snap) else {
            panic!("snapshot must serialize to an object");
        };
        let stripped: Vec<(String, serde_json::Value)> =
            fields.into_iter().filter(|(key, _)| key != "robustness").collect();
        let back: MetricsSnapshot =
            serde_json::from_value(&serde_json::Value::Object(stripped)).unwrap();
        assert_eq!(back.robustness, RobustnessCounters::default());
    }
}
