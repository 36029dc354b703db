//! The compiled predict path.
//!
//! Eq. (2) sums over a training graph that depends only on the CNN and its
//! batch size, never on the fitted model. A [`PredictPlan`] compiles one
//! training graph, once, into what the sum reads: every op's regression
//! features, interned so identical `(kind, features)` rows are stored once,
//! the op sequence in topological order, the parameter count and the memory
//! estimate. [`CeerModel::predict_plan`] evaluates it for one (model, GPU),
//! bit-identical to summing over the graph node by node.
//!
//! Plans of zoo CNNs are memoized process-wide per `(CnnId, batch)` by
//! [`plan_for`]: built on first use, at most 64 of them, and kept across
//! model reloads, since no model goes into them.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, LazyLock, Mutex, PoisonError};

use ceer_gpusim::GpuModel;
use ceer_graph::analysis::{estimate_memory, MemoryEstimate};
use ceer_graph::models::{Cnn, CnnId};
use ceer_graph::{Graph, OpKind};

use crate::classify::OpClass;
use crate::estimate::{CeerModel, EstimateOptions, IterationEstimate};
use crate::features::{self, FeatureRow};

/// A training graph compiled for prediction; see the [module docs](self).
#[derive(Debug, Clone, PartialEq)]
pub struct PredictPlan {
    /// The graph's distinct op kinds, sorted.
    kinds: Vec<OpKind>,
    /// The unique `(kind, features)` rows; `row_kinds[i]` indexes `kinds`
    /// for `rows[i]`.
    rows: Vec<FeatureRow>,
    row_kinds: Vec<u8>,
    /// One row id per op, in topological order.
    ops: Vec<u32>,
    parameters: u64,
    memory: MemoryEstimate,
}

impl PredictPlan {
    /// Compiles a *training* graph (forward + backward, as produced by
    /// [`Cnn::training_graph`]). Features are extracted for every op
    /// whatever its class: classification belongs to the model.
    pub fn new(graph: &Graph) -> PredictPlan {
        let kinds: Vec<OpKind> =
            graph.nodes().iter().map(|n| n.kind()).collect::<BTreeSet<_>>().into_iter().collect();
        let mut ids = BTreeMap::new();
        let mut rows = Vec::new();
        let mut row_kinds = Vec::new();
        let ops = graph
            .topological()
            .map(|node| {
                // Every kind is in `kinds`, so the search always hits; there
                // are far fewer op kinds than `u8` values.
                let kind = kinds.binary_search(&node.kind()).unwrap_or_else(|at| at) as u8;
                let row = features::extract_row(node, graph);
                *ids.entry((kind, row.key())).or_insert_with(|| {
                    rows.push(row);
                    row_kinds.push(kind);
                    (rows.len() - 1) as u32
                })
            })
            .collect();
        rows.shrink_to_fit();
        row_kinds.shrink_to_fit();
        PredictPlan {
            kinds,
            rows,
            row_kinds,
            ops,
            parameters: graph.parameter_count(),
            memory: estimate_memory(graph),
        }
    }

    /// Operation count of the compiled graph.
    pub fn ops(&self) -> usize {
        self.ops.len()
    }

    /// The graph's distinct op kinds, sorted.
    pub fn kinds(&self) -> &[OpKind] {
        &self.kinds
    }

    /// Trainable parameter count of the compiled graph.
    pub fn parameter_count(&self) -> u64 {
        self.parameters
    }

    /// Per-GPU training memory of the compiled graph.
    pub fn memory(&self) -> &MemoryEstimate {
        &self.memory
    }
}

/// What one op contributes to an estimate, resolved for one (model, GPU).
/// A heavy op carries `H` — its kind's regression, then its row's
/// prediction in µs — and that regression's residual variance.
#[derive(Clone, Copy)]
enum Term<H> {
    Heavy(H, f64),
    /// A heavy kind never fitted on this GPU. The paper says Ceer must be
    /// retrained for truly new ops (§IV-D); the graceful fallback is the
    /// light median, which at least keeps the op counted.
    Uncovered,
    Light,
    Cpu,
}

impl<H> Term<H> {
    fn map<G>(self, f: impl FnOnce(H) -> G) -> Term<G> {
        match self {
            Term::Heavy(heavy, variance) => Term::Heavy(f(heavy), variance),
            Term::Uncovered => Term::Uncovered,
            Term::Light => Term::Light,
            Term::Cpu => Term::Cpu,
        }
    }
}

impl CeerModel {
    /// Predicts the per-iteration training time of a compiled training
    /// graph on `gpus` GPUs of `gpu`, broken down by term — the estimator
    /// behind [`predict_iteration`](Self::predict_iteration).
    pub fn predict_plan(
        &self,
        plan: &PredictPlan,
        gpu: GpuModel,
        gpus: u32,
        options: &EstimateOptions,
    ) -> IterationEstimate {
        let kinds: Vec<Term<_>> = plan
            .kinds
            .iter()
            .map(|&kind| match self.classification.class_of(kind) {
                OpClass::Heavy => match self.op_models.get(&(kind, gpu)) {
                    Some(model) => {
                        let s = model.residual_std_us();
                        Term::Heavy(model, s * s)
                    }
                    None => Term::Uncovered,
                },
                OpClass::Light => Term::Light,
                OpClass::Cpu => Term::Cpu,
            })
            .collect();
        let rows: Vec<Option<Term<f64>>> = plan
            .rows
            .iter()
            .zip(&plan.row_kinds)
            .map(|(row, &kind)| {
                kinds.get(usize::from(kind)).map(|term| term.map(|model| model.predict_row(row)))
            })
            .collect();
        // Every row id is in range by construction; summing in op order
        // keeps the result bit-identical to a per-node walk of the graph.
        let mut estimate = IterationEstimate::default();
        for term in plan.ops.iter().filter_map(|&id| rows.get(id as usize).copied().flatten()) {
            match term {
                Term::Heavy(us, variance) => {
                    estimate.heavy_us += us;
                    estimate.variance_us2 += variance;
                }
                Term::Uncovered => estimate.heavy_us += self.light_median_us,
                Term::Light => {
                    if options.include_light {
                        estimate.light_us += self.light_median_us;
                    }
                }
                Term::Cpu => {
                    if options.include_cpu {
                        estimate.cpu_us += self.cpu_median_us;
                    }
                }
            }
        }
        if options.include_comm {
            estimate.comm_us = self.comm.predict_us(gpu, gpus, plan.parameters).unwrap_or(0.0);
            let s = self.comm.residual_std_us(gpu, gpus);
            estimate.variance_us2 += s * s;
        }
        estimate
    }
}

/// Most plans the process-wide memo keeps. The memo is keyed by
/// (CNN, batch), so this bounds what distinct batch sizes in requests can
/// pin; the largest plan (Inception-ResNet-v2) is about 18 KiB.
const MEMO_CAPACITY: usize = 64;

/// The compiled plan of zoo CNN `cnn`'s training graph at per-GPU batch
/// `batch`, memoized process-wide (see the [module docs](self)). A first
/// use of a pair builds the graph and compiles it, costing about one
/// uncached prediction; later uses share the plan.
///
/// # Panics
///
/// Panics if `batch` is zero.
pub fn plan_for(cnn: CnnId, batch: u64) -> Arc<PredictPlan> {
    static MEMO: LazyLock<PlanMemo> = LazyLock::new(|| PlanMemo::new(MEMO_CAPACITY));
    MEMO.plan(cnn, batch)
}

/// A bounded map of compiled zoo plans that evicts the least recently
/// used one when full.
struct PlanMemo {
    capacity: usize,
    state: Mutex<MemoState>,
}

#[derive(Default)]
struct MemoState {
    /// Each plan with the tick of its last use.
    plans: BTreeMap<(CnnId, u64), (Arc<PredictPlan>, u64)>,
    tick: u64,
}

impl PlanMemo {
    fn new(capacity: usize) -> PlanMemo {
        PlanMemo { capacity, state: Mutex::new(MemoState::default()) }
    }

    fn plan(&self, cnn: CnnId, batch: u64) -> Arc<PredictPlan> {
        let key = (cnn, batch);
        // The map only ever holds complete plans, so a poisoned lock's
        // state is still sound.
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        state.tick += 1;
        let tick = state.tick;
        let hit = state.plans.get_mut(&key).map(|(plan, used)| {
            *used = tick;
            Arc::clone(plan)
        });
        drop(state);
        if let Some(plan) = hit {
            return plan;
        }
        // Built outside the lock, so a cold pair never stalls lookups of
        // others. Racing first uses build equal plans; the first stored
        // wins and every racer returns it. The forward graph is expanded in
        // place: a copy would only add to the transient memory that the
        // kept plan then fragments.
        let built = Arc::new(PredictPlan::new(&Cnn::build(cnn, batch).into_training_graph()));
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        if !state.plans.contains_key(&key) && state.plans.len() >= self.capacity {
            let oldest = state.plans.iter().min_by_key(|(_, (_, used))| *used).map(|(&k, _)| k);
            if let Some(oldest) = oldest {
                state.plans.remove(&oldest);
            }
        }
        let plan = Arc::clone(&state.plans.entry(key).or_insert((built, tick)).0);
        drop(state);
        plan
    }

    #[cfg(test)]
    fn len(&self) -> usize {
        self.state.lock().unwrap_or_else(PoisonError::into_inner).plans.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;

    #[test]
    fn identical_rows_are_interned() {
        let graph = Cnn::build(CnnId::ResNet50, 8).training_graph();
        let plan = PredictPlan::new(&graph);
        assert_eq!(plan.ops(), graph.len());
        assert!(plan.rows.len() < plan.ops() / 2, "{} of {}", plan.rows.len(), plan.ops());
        assert_eq!(plan.parameter_count(), graph.parameter_count());
        assert_eq!(plan.memory(), &estimate_memory(&graph));
        let kinds: BTreeSet<OpKind> = graph.nodes().iter().map(|n| n.kind()).collect();
        assert_eq!(plan.kinds(), kinds.into_iter().collect::<Vec<_>>());
        // Every op's row holds exactly the features `extract` gives it.
        for (node, &id) in graph.topological().zip(&plan.ops) {
            let row = plan.rows[id as usize];
            assert_eq!(plan.kinds[usize::from(plan.row_kinds[id as usize])], node.kind());
            assert_eq!(features::Features::from(row), features::extract(node, &graph));
        }
    }

    #[test]
    fn a_second_lookup_shares_the_plan() {
        let memo = PlanMemo::new(4);
        let first = memo.plan(CnnId::AlexNet, 3);
        let second = memo.plan(CnnId::AlexNet, 3);
        assert!(Arc::ptr_eq(&first, &second));
        assert_eq!(*first, PredictPlan::new(&Cnn::build(CnnId::AlexNet, 3).training_graph()));
        assert_eq!(memo.len(), 1);
    }

    #[test]
    fn the_memo_stays_within_its_capacity_and_keeps_recent_plans() {
        let memo = PlanMemo::new(3);
        let hot = memo.plan(CnnId::AlexNet, 1);
        for batch in 2..=6 {
            memo.plan(CnnId::AlexNet, batch);
            // Touching the hot key keeps it the most recently used.
            assert!(Arc::ptr_eq(&hot, &memo.plan(CnnId::AlexNet, 1)));
            assert!(memo.len() <= 3, "{} plans held", memo.len());
        }
        assert_eq!(memo.len(), 3);
    }

    #[test]
    fn racing_first_uses_agree() {
        const THREADS: usize = 4;
        let memo = PlanMemo::new(4);
        let start = Barrier::new(THREADS);
        let plans: Vec<Arc<PredictPlan>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..THREADS)
                .map(|_| {
                    scope.spawn(|| {
                        start.wait();
                        memo.plan(CnnId::Vgg11, 2)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("lookup thread")).collect()
        });
        for plan in &plans {
            assert_eq!(**plan, *plans[0]);
        }
        assert_eq!(memo.len(), 1);
        assert!(Arc::ptr_eq(&memo.plan(CnnId::Vgg11, 2), &plans[0]));
    }
}
