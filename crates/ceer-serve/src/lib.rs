//! ceer-serve — a concurrent prediction service over a fitted Ceer model.
//!
//! The crate turns the library's offline estimator (`ceer-core`) into a
//! long-running HTTP/1.1 JSON service, dependency-free on top of `std::net`:
//!
//! * [`ModelRegistry`] — the fitted [`ceer_core::CeerModel`] being served,
//!   hot-swappable via `POST /reload` without dropping in-flight requests;
//! * [`EventedServer`] — one loop thread serving every connection from
//!   `epoll` (Linux only), with keep-alive, every request answered
//!   inline, and graceful [`EventedServer::shutdown`];
//! * [`PredictionCache`] — an LRU of serialized responses keyed by the
//!   canonical request (predictions are pure in `(model, request)`);
//! * [`Metrics`] — per-endpoint request/error counts and latency quantiles
//!   (via `ceer-stats`), exposed at `GET /metrics`, plus
//!   [`RobustnessCounters`] accounting every shed, timed-out, rejected,
//!   or panic-recovered request;
//! * [`Client`] and [`ClientConn`] — blocking clients for tests and
//!   scripts (one connection per call, or one kept-alive connection),
//!   with an optional seeded [`RetryPolicy`] (idempotent-only retries,
//!   capped exponential backoff).
//!
//! # Robustness
//!
//! The server reads requests under an idle timeout, a total request
//! deadline, and a body-size limit; sheds load with `429` +
//! `Retry-After` past its open-connection cap; contains a panic to the
//! connection that raised it; and keeps the previous model serving when
//! a `/reload` fails.
//! All hot paths carry [`ceer_faults`] injection sites so chaos tests can
//! replay failures deterministically from a seed
//! ([`ServerConfig::faults`]).
//!
//! # Endpoints
//!
//! | Route | Payload |
//! |---|---|
//! | `GET /healthz` | `{"status": "ok"}` |
//! | `GET /readyz` | `{"status": "ready"}`, or 503 while draining |
//! | `GET /zoo` | [`api::ZooEntry`] list |
//! | `GET /catalog` | [`api::CatalogEntry`] list |
//! | `GET /metrics` | [`MetricsSnapshot`] |
//! | `POST /predict` | [`api::PredictRequest`] → [`api::PredictResponse`] |
//! | `POST /predict_batch` | [`api::PredictBatchRequest`] → [`api::PredictBatchResponse`] |
//! | `POST /recommend` | [`api::RecommendRequest`] → [`api::RecommendResponse`] |
//! | `POST /reload` | re-reads the model file, clears the cache |
//!
//! The CLI's `ceer predict --json` / `ceer recommend --json` share the
//! [`api`] evaluation functions and serializer, so their stdout is
//! byte-identical to the corresponding response body.
//!
//! ```no_run
//! use ceer_serve::{EventedServer, ModelRegistry, ServerConfig};
//!
//! let registry = ModelRegistry::load("model.json").unwrap();
//! let server = EventedServer::start(&ServerConfig::default(), registry).unwrap();
//! println!("listening on http://{}", server.addr());
//! server.wait();
//! ```

pub mod api;
pub mod app;
pub mod cache;
pub mod client;
pub mod conn;
pub mod durable;
#[cfg(target_os = "linux")]
mod epoll;
pub mod evented;
pub mod http;
pub mod metrics;
pub mod online;
pub mod parser;
pub mod registry;
mod sync;
pub mod wheel;

pub use app::App;
pub use cache::{CacheStats, PredictionCache};
pub use client::{Client, ClientConn, RetryPolicy};
pub use durable::{
    attach_fs_durability, DurabilityStatus, HealthReport, RecoveryInfo, ServeDurability,
    ServePayload, DEFAULT_SNAPSHOT_EVERY,
};
pub use evented::{EventedServer, ServerConfig};
pub use http::RawResponse;
pub use metrics::{
    EndpointSnapshot, LatencySummary, Metrics, MetricsSnapshot, OnlineMetrics, RobustnessCounters,
    ServerEvent,
};
pub use online::{replay, OnlineState, OnlineWorker, ReplayConfig, ReplayReport};
pub use parser::{Head, ParseError, RequestRef};
pub use registry::{ModelRegistry, ModelVersion, RegistrySnapshot};
