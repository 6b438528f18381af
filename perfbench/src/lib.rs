//! A seeded benchmark of coda's three user-facing paths: the sharded
//! serving tier (`serve_zipf`), the durable delta-encoded store
//! (`store_ingest`) and Transformer-Estimator-Graph search
//! (`teg_search`). See `README.md` in this directory for what each
//! workload stresses and which metric each layer should move.
//!
//! A workload's `run` measures one phase: it sets up several times
//! (`setup_s` is the median), drives the program's public API for the given
//! number of seconds, checks every output, and returns a [`Phase`]. An
//! untraced phase leaves the program's `Obs` detached; a traced phase also
//! times the calls into each layer and fills [`Phase::layers`].

use std::collections::BTreeMap;

pub mod serve_zipf;
pub mod store_ingest;
pub mod teg_search;
pub mod util;

/// End-to-end metrics every untraced run prints: (name, unit).
pub const END_TO_END: &[(&str, &str)] = &[
    ("throughput_ops_s", "ops/s"),
    ("latency_p50_us", "us"),
    ("latency_tail_us", "us"),
    ("peak_rss_mb", "MiB"),
    ("setup_s", "s"),
];

/// Per-layer metrics every traced run prints: (name, unit). A layer the
/// workload does not run reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("serve.apply_us.p50", "us"),
    ("serve.apply_us.p99", "us"),
    ("serve.mailbox_us.p50", "us"),
    ("serve.batch_mean", "req/batch"),
    ("serve.shard_skew", "ratio"),
    ("serve.shed_frac", "ratio"),
    ("darr.claim_us.p50", "us"),
    ("darr.complete_us.p50", "us"),
    ("darr.claim_won_frac", "ratio"),
    ("store.put_us.p50", "us"),
    ("store.put_us.p99", "us"),
    ("store.fetch_us.p50", "us"),
    ("delta.encode_us.p50", "us"),
    ("delta.encode_us.p99", "us"),
    ("delta.encode_share", "ratio"),
    ("delta.apply_us.p50", "us"),
    ("delta.literal_frac", "ratio"),
    ("delta.wire_ratio", "ratio"),
    ("wal.records_per_op", "records/op"),
    ("wal.replay_us_per_record", "us"),
    ("wal.recovery_us.p50", "us"),
    ("core.cache_hit_rate", "ratio"),
    ("core.path_ms.p50", "ms"),
    ("core.path_ms.p90", "ms"),
    ("ml.fit_ms.scaler", "ms"),
    ("ml.fit_ms.pca", "ms"),
    ("ml.fit_ms.select_k_best", "ms"),
    ("ml.fit_ms.decision_tree", "ms"),
    ("ml.fit_ms.knn", "ms"),
    ("ml.fit_ms.random_forest", "ms"),
    ("ml.predict_ms.scaler", "ms"),
    ("ml.predict_ms.pca", "ms"),
    ("ml.predict_ms.select_k_best", "ms"),
    ("ml.predict_ms.decision_tree", "ms"),
    ("ml.predict_ms.knn", "ms"),
    ("ml.predict_ms.random_forest", "ms"),
    ("ml.estimator_share", "ratio"),
    ("obs.overhead_ratio", "ratio"),
];

/// What one measured phase of a workload did.
#[derive(Debug, Default)]
pub struct Phase {
    /// Set-up durations in seconds, one per repetition.
    pub setup_s: Vec<f64>,
    /// `(end offset in s, latency in µs)` of every timed op.
    pub ops: Vec<(f64, f64)>,
    /// Measured loop time in seconds: wall time less the time spent
    /// checking outputs or on out-of-band layer timing.
    pub elapsed_s: f64,
    /// Ops and checks attempted.
    pub attempted: u64,
    /// Ops that failed or were shed, plus check mismatches.
    pub failed: u64,
    /// The first few failure descriptions.
    pub errors: Vec<String>,
    /// Peak resident set in MiB, read before the output checks.
    pub peak_rss_mb: f64,
    /// Digest of the generated input stream.
    pub input_digest: u64,
    /// Per-layer metrics (traced phases), plus workload-private
    /// intermediates that are not printed.
    pub layers: BTreeMap<String, f64>,
}

impl Phase {
    /// Counts one failure and keeps its description.
    pub fn fail(&mut self, msg: String) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(msg);
        }
    }

    /// Records a per-layer value.
    pub fn layer(&mut self, name: &str, value: f64) {
        self.layers.insert(name.to_string(), if value.is_finite() { value } else { 0.0 });
    }

    /// Completed ops per second of measured loop time.
    pub fn throughput(&self) -> f64 {
        self.ops.len() as f64 / self.elapsed_s.max(1e-9)
    }
}

/// A benchmark workload.
pub struct Workload {
    /// Name on the command line.
    pub name: &'static str,
    /// Ops per window, about a second's worth: the loop's ops are split
    /// into windows of this many, and throughput and latencies are those
    /// of the slowest window. Each window holds the same work.
    pub window_ops: usize,
    /// The tail quantile `latency_tail_us` reports: the highest with at
    /// least ten samples beyond it in a window, or else in a run.
    pub tail_q: f64,
    /// Runs one phase: `(seed, seconds, traced)`.
    pub run: fn(u64, f64, bool) -> Phase,
    /// Folds the untraced phase of a traced run into the traced phase's
    /// layer metrics.
    pub finish_traced: fn(&Phase, &mut Phase),
}

fn no_finish(_: &Phase, _: &mut Phase) {}

/// Every workload, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "serve_zipf",
        window_ops: 50_000,
        tail_q: 0.99,
        run: serve_zipf::run,
        finish_traced: serve_zipf::finish_traced,
    },
    Workload {
        name: "store_ingest",
        window_ops: store_ingest::DECK,
        tail_q: 0.99,
        run: store_ingest::run,
        finish_traced: no_finish,
    },
    Workload {
        name: "teg_search",
        window_ops: teg_search::POOL,
        tail_q: 0.90,
        run: teg_search::run,
        finish_traced: no_finish,
    },
];

/// The end-to-end metrics of an untraced phase, in [`END_TO_END`] order.
///
/// Throughput, median and tail latency are those of the slowest window;
/// the tail is over the whole run instead when a window holds fewer than
/// ten samples beyond it. On a shared virtual machine other tenants slow
/// CPU-bound work by up to a half for stretches of seconds to minutes, and
/// that slow state is steadier than the fast one; most runs hold a slow
/// second, so the slowest window varies less across runs than a median
/// over windows, which follows the share of the run that was slow.
pub fn end_to_end(w: &Workload, phase: &Phase) -> Vec<f64> {
    // `ops` is in completion order; a run too short for one full window
    // is one window
    let n = w.window_ops.clamp(1, phase.ops.len().max(1));
    let tail_per_window = n as f64 * (1.0 - w.tail_q) >= 10.0;
    let (mut throughput, mut p50, mut tail, mut from) = (f64::INFINITY, 0.0_f64, 0.0_f64, 0.0);
    for window in phase.ops.chunks_exact(n) {
        let to = window[n - 1].0;
        let latencies: Vec<f64> = window.iter().map(|&(_, lat)| lat).collect();
        throughput = throughput.min(n as f64 / (to - from).max(1e-9));
        p50 = p50.max(util::quantile(&latencies, 0.5));
        if tail_per_window {
            tail = tail.max(util::quantile(&latencies, w.tail_q));
        }
        from = to;
    }
    if !tail_per_window {
        let latencies: Vec<f64> = phase.ops.iter().map(|&(_, lat)| lat).collect();
        tail = util::quantile(&latencies, w.tail_q);
    }
    vec![throughput, p50, tail, phase.peak_rss_mb, util::median(&phase.setup_s)]
}

/// The per-layer metrics of a traced run, in [`PER_LAYER`] order: the
/// traced phase's layers plus the tracing overhead against the untraced
/// phase that ran before it.
pub fn per_layer(w: &Workload, base: &Phase, traced: &mut Phase) -> Vec<f64> {
    (w.finish_traced)(base, traced);
    traced.layer("obs.overhead_ratio", base.throughput() / traced.throughput().max(1e-9));
    PER_LAYER.iter().map(|(name, _)| traced.layers.get(*name).copied().unwrap_or(0.0)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn no_run(_: u64, _: f64, _: bool) -> Phase {
        Phase::default()
    }

    /// Back-to-back ops of the given latencies (µs), ending in order.
    fn phase_of(latencies: &[f64]) -> Phase {
        let mut end = 0.0;
        let ops = latencies
            .iter()
            .map(|&lat| {
                end += lat / 1e6;
                (end, lat)
            })
            .collect();
        Phase { ops, setup_s: vec![0.3, 0.1, 0.2], peak_rss_mb: 9.0, ..Phase::default() }
    }

    #[test]
    fn end_to_end_reads_the_slowest_window() {
        let w = |window_ops, tail_q| Workload {
            name: "t",
            window_ops,
            tail_q,
            run: no_run,
            finish_traced: no_finish,
        };
        // a fast window, a slow one, and a fast one with 15 spikes
        let mut lats = vec![10.0; 1000];
        lats.extend([20.0; 1000]);
        lats.extend([10.0; 1000]);
        lats[2000..2015].fill(500.0);
        let m = end_to_end(&w(1000, 0.99), &phase_of(&lats));
        assert!((m[0] - 50_000.0).abs() < 1e-3, "throughput {}", m[0]);
        assert_eq!(m[1], 20.0);
        // a window's p99 has ten samples beyond it: the highest is the
        // spiky window's
        assert_eq!(m[2], 500.0);
        assert_eq!((m[3], m[4]), (9.0, 0.2));
        // in windows of 100 it has one: the tail is the whole run's
        let m = end_to_end(&w(100, 0.99), &phase_of(&lats));
        assert_eq!((m[1], m[2]), (20.0, 20.0));
    }

    /// The metric names and units here and in `BENCHMARK.json` agree.
    #[test]
    fn benchmark_json_lists_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let json = serde_json::parse(&text).expect("valid JSON");
        let top = json.as_object().expect("a JSON object");
        let field = |v: &serde_json::Value, k: &str| -> String {
            v.as_object().and_then(|o| o.get(k)).and_then(|s| s.as_str()).unwrap().to_string()
        };
        let list = |key: &str| top[key].as_array().expect("a list").clone();
        let listed = |key: &str| -> Vec<(String, String)> {
            list(key).iter().map(|m| (field(m, "name"), field(m, "unit"))).collect()
        };
        let own = |l: &[(&str, &str)]| -> Vec<(String, String)> {
            l.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect()
        };
        assert_eq!(listed("end_to_end"), own(END_TO_END));
        assert_eq!(listed("per_layer"), own(PER_LAYER));
        let names: Vec<String> = list("workloads").iter().map(|w| field(w, "name")).collect();
        assert_eq!(names, WORKLOADS.iter().map(|w| w.name).collect::<Vec<_>>());
    }
}
