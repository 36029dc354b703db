//! The correctness oracle: a seeded sample of every workload's answers,
//! compared byte for byte, after the timed windows, with what in-process
//! `api::predict` / `api::recommend` + `to_string_pretty` produce on the
//! same model (the bytes the JSON-identity tests pin).

use std::collections::BTreeMap;

use ceer_core::CeerModel;
use ceer_serve::api::{self, PredictRequest, RecommendRequest};

use crate::gen::Rng;

/// Answers kept per workload and kind: a uniform sample of all of them.
const CAPACITY: usize = 128;

#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Kind {
    Predict,
    Recommend,
}

/// A reservoir: after `seen` offers, each offered answer is in `kept`
/// with the same chance, so a long timed window is not crowded out by
/// the warm-up that came before it.
#[derive(Default)]
struct Pool {
    seen: usize,
    kept: Vec<(Vec<u8>, String)>,
}

pub struct Oracle {
    rng: Rng,
    workload: &'static str,
    pools: BTreeMap<(&'static str, Kind), Pool>,
}

/// What the oracle found for one workload.
pub struct Verdict {
    pub checked: usize,
    pub mismatches: usize,
}

impl Oracle {
    pub fn new(seed: u64) -> Oracle {
        Oracle { rng: Rng::new(seed, 0x0AC1E), workload: "", pools: BTreeMap::new() }
    }

    /// Files the answers offered from now on under `workload`.
    pub fn begin(&mut self, workload: &'static str) {
        self.workload = workload;
    }

    /// Offers one successful answer; a seeded draw decides whether it is kept.
    pub fn offer(&mut self, kind: Kind, request: &[u8], response: &str) {
        let pool = self.pools.entry((self.workload, kind)).or_default();
        pool.seen += 1;
        let keep = || (request.to_vec(), response.to_string());
        if pool.kept.len() < CAPACITY {
            pool.kept.push(keep());
        } else if let Some(slot) = pool.kept.get_mut(self.rng.below(pool.seen)) {
            *slot = keep();
        }
    }

    /// Checks every kept answer against the in-process evaluation, per
    /// workload. `inject` corrupts the first expected answer, to prove a
    /// mismatch fails the run.
    pub fn verdicts(&self, model: &CeerModel, inject: bool) -> BTreeMap<&'static str, Verdict> {
        let mut out: BTreeMap<&'static str, Verdict> = BTreeMap::new();
        let mut first = inject;
        for (&(workload, kind), pool) in &self.pools {
            let verdict = out.entry(workload).or_insert(Verdict { checked: 0, mismatches: 0 });
            for (request, response) in &pool.kept {
                let mut expected = expected(model, kind, request);
                if std::mem::take(&mut first) {
                    expected.push(' ');
                }
                verdict.checked += 1;
                if expected.as_bytes() == response.as_bytes() {
                    continue;
                }
                verdict.mismatches += 1;
                if verdict.mismatches == 1 {
                    eprintln!(
                        "oracle mismatch ({workload}) for request {}",
                        String::from_utf8_lossy(request)
                    );
                }
            }
        }
        out
    }
}

/// The body the server should have answered `request` with; empty when
/// the request itself is rejected (no successful answer matches that).
fn expected(model: &CeerModel, kind: Kind, request: &[u8]) -> String {
    let rendered = match kind {
        Kind::Predict => serde_json::from_slice::<PredictRequest>(request)
            .map_err(|e| e.to_string())
            .and_then(|r| api::predict(model, &r))
            .and_then(|r| serde_json::to_string_pretty(&r).map_err(|e| e.to_string())),
        Kind::Recommend => serde_json::from_slice::<RecommendRequest>(request)
            .map_err(|e| e.to_string())
            .and_then(|r| api::recommend(model, &r))
            .and_then(|r| serde_json::to_string_pretty(&r).map_err(|e| e.to_string())),
    };
    rendered.map(|body| body + "\n").unwrap_or_default()
}
