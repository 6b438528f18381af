//! `teg_search`: one evaluator thread runs the paper's Listing 1 search.
//!
//! An op is one `Evaluator::evaluate_graph` over the 36-path Listing 1
//! graph (4 scalers × 3 selectors × 3 models) with the prefix cache on and
//! 3-fold CV, on a friedman1 150×10 dataset drawn from a seeded pool built
//! in set-up. Set-up also evaluates each pool dataset uncached; every op's
//! report must be bit-identical to its dataset's uncached reference.
//!
//! A traced phase attaches an `Obs` to the evaluator for per-path timing,
//! reads the prefix-cache accounting, and, off the measured clock, replays
//! the op's folds through the public `fit` / `transform` / `predict` of
//! each component family, sharing prefixes as the cache does.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use coda_core::{Evaluator, GraphReport, Teg, TegBuilder};
use coda_data::synth::friedman1;
use coda_data::{BoxedEstimator, BoxedTransformer, CvStrategy, Dataset, Metric, NoOp};
use coda_ml::{
    DecisionTreeRegressor, KnnRegressor, MinMaxScaler, Pca, RandomForestRegressor, RobustScaler,
    ScoreFunction, SelectKBest, StandardScaler,
};
use coda_obs::Obs;

use crate::util::{self, Digest, Rng};
use crate::Phase;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;
/// Datasets in the pool; a round of this many ops uses each once.
pub const POOL: usize = 6;
const SAMPLES: usize = 150;
const FEATURES: usize = 10;
const FOLDS: usize = 3;

fn scalers() -> Vec<BoxedTransformer> {
    vec![
        Box::new(MinMaxScaler::new()),
        Box::new(StandardScaler::new()),
        Box::new(RobustScaler::new()),
        Box::new(NoOp::new()),
    ]
}

fn selectors() -> Vec<BoxedTransformer> {
    vec![
        Box::new(Pca::new(4)),
        Box::new(SelectKBest::new(4, ScoreFunction::FRegression)),
        Box::new(NoOp::new()),
    ]
}

fn models() -> Vec<BoxedEstimator> {
    vec![
        Box::new(DecisionTreeRegressor::new()),
        Box::new(KnnRegressor::new(5)),
        Box::new(RandomForestRegressor::new(15)),
    ]
}

/// The paper's Listing 1 graph: 36 pipelines.
fn listing1_graph() -> Teg {
    TegBuilder::new()
        .add_feature_scalers(scalers())
        .add_feature_selectors(selectors())
        .add_models(models())
        .create_graph()
        .expect("fixed wiring is acyclic")
}

fn evaluator() -> Evaluator {
    Evaluator::new(CvStrategy::kfold(FOLDS), Metric::Rmse)
}

/// The dataset pool and the generator of the order the ops use it in.
fn pool(seed: u64) -> (Vec<Dataset>, Rng) {
    let mut rng = Rng::new(seed, 0x7e9);
    let datasets = (0..POOL).map(|_| friedman1(SAMPLES, FEATURES, 0.5, rng.next_u64())).collect();
    (datasets, rng)
}

/// Pool indices for the ops: each round of `POOL` ops uses every dataset
/// once, in a seeded order, so every run spends its ops evenly over the
/// pool.
struct Order {
    rng: Rng,
    round: Vec<usize>,
}

impl Order {
    fn new(rng: Rng) -> Self {
        Order { rng, round: Vec::new() }
    }

    fn next(&mut self) -> usize {
        if self.round.is_empty() {
            self.round = (0..POOL).collect();
            for i in (1..POOL).rev() {
                let j = self.rng.below(i as u64 + 1) as usize;
                self.round.swap(i, j);
            }
        }
        self.round.pop().expect("refilled above")
    }
}

/// Digest of the dataset pool and the first `n` dataset choices.
pub fn input_digest(seed: u64, n: usize) -> u64 {
    let (datasets, rng) = pool(seed);
    let mut d = Digest::default();
    for ds in &datasets {
        let x = ds.features();
        for r in 0..x.rows() {
            for c in 0..x.cols() {
                d.u64(x[(r, c)].to_bits());
            }
        }
        for y in ds.target().unwrap_or_default() {
            d.u64(y.to_bits());
        }
    }
    let mut order = Order::new(rng);
    for _ in 0..n {
        d.u64(order.next() as u64);
    }
    d.finish()
}

/// True when two reports rank the same paths with bit-identical scores.
fn same_results(a: &GraphReport, b: &GraphReport) -> bool {
    a.results.len() == b.results.len()
        && a.results.iter().zip(&b.results).all(|(x, y)| {
            x.spec.key() == y.spec.key()
                && x.error == y.error
                && x.mean_score.to_bits() == y.mean_score.to_bits()
                && x.fold_scores
                    .iter()
                    .map(|s| s.to_bits())
                    .eq(y.fold_scores.iter().map(|s| s.to_bits()))
        })
}

/// The component families the trace times, by node name.
fn family(name: &str) -> Option<&'static str> {
    Some(match name {
        n if n.contains("scaler") => "scaler",
        n if n.starts_with("pca") => "pca",
        n if n.starts_with("select") => "select_k_best",
        n if n.contains("tree") => "decision_tree",
        n if n.contains("knn") => "knn",
        n if n.contains("forest") => "random_forest",
        _ => return None,
    })
}

/// Per-family `(fit, predict)` call times in ms; a transformer's
/// `transform` counts as its predict.
type FamilyTimes = BTreeMap<&'static str, (Vec<f64>, Vec<f64>)>;

fn time<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64() * 1e3)
}

/// Replays one op's folds through each component's public API, fitting
/// each distinct transformer prefix once per fold as the prefix cache
/// does. Returns the summed ml time in ms.
fn replay_folds(data: &Dataset, times: &mut FamilyTimes) -> f64 {
    let mut total = 0.0;
    let mut record = |name: &str, fit: f64, predict: f64| {
        if let Some(f) = family(name) {
            let entry = times.entry(f).or_default();
            entry.0.push(fit);
            entry.1.push(predict);
            total += fit + predict;
        }
    };
    let splits = evaluator().cv().splits_for(data).expect("k-fold splits");
    for split in &splits {
        let (train, valid) = (data.select(&split.train), data.select(&split.validation));
        for mut scaler in scalers() {
            let (fitted, fit) = time(|| scaler.fit(&train));
            fitted.expect("scaler fits");
            let ((st, sv), predict) = time(|| (scaler.transform(&train), scaler.transform(&valid)));
            record(scaler.name(), fit, predict);
            let (st, sv) = (st.expect("scaler transforms"), sv.expect("scaler transforms"));
            for mut selector in selectors() {
                let (fitted, fit) = time(|| selector.fit(&st));
                fitted.expect("selector fits");
                let ((xt, xv), predict) =
                    time(|| (selector.transform(&st), selector.transform(&sv)));
                record(selector.name(), fit, predict);
                let (xt, xv) = (xt.expect("selector transforms"), xv.expect("selector transforms"));
                for mut model in models() {
                    let (fitted, fit) = time(|| model.fit(&xt));
                    fitted.expect("model fits");
                    let (pred, predict) = time(|| model.predict(&xv));
                    pred.expect("model predicts");
                    record(model.name(), fit, predict);
                }
            }
        }
    }
    total
}

/// Builds the graph, the dataset pool and each dataset's uncached report.
fn set_up(seed: u64) -> (Teg, Vec<Dataset>, Vec<GraphReport>, Rng) {
    let graph = listing1_graph();
    let (datasets, rng) = pool(seed);
    let reference = datasets
        .iter()
        .map(|ds| evaluator().evaluate_graph(&graph, ds).expect("reference evaluates"))
        .collect();
    (graph, datasets, reference, rng)
}

/// Runs one phase; see the module doc.
pub fn run(seed: u64, seconds: f64, traced: bool) -> Phase {
    let mut phase = Phase { input_digest: input_digest(seed, 1_000), ..Phase::default() };
    let mut ready = None;
    for _ in 0..SETUP_REPEATS {
        drop(ready.take());
        let t0 = Instant::now();
        ready = Some(set_up(seed));
        phase.setup_s.push(t0.elapsed().as_secs_f64());
    }
    let (graph, datasets, reference, rng) = ready.expect("set up at least once");
    let mut order = Order::new(rng);

    let mut families = FamilyTimes::new();
    let (mut hit_rate, mut path_p50, mut path_p90, mut share) = (vec![], vec![], vec![], vec![]);
    let run = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    let mut paused = Duration::ZERO;
    while start.elapsed() - paused < run {
        let i = order.next();
        let eval = evaluator().with_prefix_cache(true);
        let eval = if traced { eval.with_obs(Obs::wall()) } else { eval };
        let t0 = Instant::now();
        let report = eval.evaluate_graph(&graph, &datasets[i]);
        let t1 = Instant::now();
        let lat_us = util::us(t1 - t0);
        phase.ops.push(((t1 - start - paused).as_secs_f64(), lat_us));
        phase.attempted += 1;
        match report {
            Ok(r) if same_results(&r, &reference[i]) => {
                if traced {
                    let cache = r.cache.unwrap_or_default();
                    hit_rate.push(cache.hits as f64 / cache.lookups().max(1) as f64);
                    if let Some(t) = &r.timing {
                        path_p50.push(t.path_ms.quantile(0.5));
                        path_p90.push(t.path_ms.quantile(0.9));
                    }
                    share.push(replay_folds(&datasets[i], &mut families) * 1e3 / lat_us);
                }
            }
            Ok(_) => {
                phase.fail(format!("op {} differs from its uncached reference", phase.attempted))
            }
            Err(e) => phase.fail(format!("op {} failed: {e}", phase.attempted)),
        }
        paused += t1.elapsed();
    }
    phase.elapsed_s = (start.elapsed() - paused).as_secs_f64();
    phase.peak_rss_mb = util::peak_rss_mb();

    if traced {
        phase.layer("core.cache_hit_rate", util::median(&hit_rate));
        phase.layer("core.path_ms.p50", util::median(&path_p50));
        phase.layer("core.path_ms.p90", util::median(&path_p90));
        phase.layer("ml.estimator_share", util::median(&share));
        for (f, (fit, predict)) in &families {
            phase.layer(&format!("ml.fit_ms.{f}"), util::median(fit));
            phase.layer(&format!("ml.predict_ms.{f}"), util::median(predict));
        }
    }
    phase
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn input_digest_follows_the_seed() {
        assert_eq!(input_digest(7, 100), input_digest(7, 100));
        assert_ne!(input_digest(7, 100), input_digest(8, 100));
    }

    #[test]
    fn every_family_is_timed() {
        let (datasets, _) = pool(1);
        let mut times = FamilyTimes::new();
        assert!(replay_folds(&datasets[0], &mut times) > 0.0);
        let names: Vec<_> = times.keys().copied().collect();
        assert_eq!(
            names,
            ["decision_tree", "knn", "pca", "random_forest", "scaler", "select_k_best"]
        );
        // 3 folds × (3 scalers, 4 × 1 of each selector, 12 × 1 of each model)
        assert_eq!(times["scaler"].0.len(), 9);
        assert_eq!(times["pca"].0.len(), 12);
        assert_eq!(times["knn"].0.len(), 36);
    }
}
