//! The metric catalogue: `BENCHMARK.json` at the repository root, the
//! single place metric names, units, directions and regression bounds
//! are written down. The harness emits exactly the metrics it lists.

use hetsim_obs::Json;
use std::sync::OnceLock;

/// `BENCHMARK.json`, compiled in.
pub const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// One metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSpec {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// Whether a larger value is an improvement.
    pub higher_is_better: bool,
    /// Relative regression bound (end-to-end metrics only).
    pub bound: Option<f64>,
}

/// The parsed catalogue.
#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    /// Seconds one single-workload run measures.
    pub run_seconds: f64,
    /// Workload names, in declaration order.
    pub workloads: Vec<String>,
    /// End-to-end metrics.
    pub end_to_end: Vec<MetricSpec>,
    /// Per-layer metrics.
    pub per_layer: Vec<MetricSpec>,
}

/// The compiled-in catalogue.
pub fn spec() -> &'static Spec {
    static SPEC: OnceLock<Spec> = OnceLock::new();
    SPEC.get_or_init(|| parse(BENCHMARK_JSON).expect("BENCHMARK.json is well-formed"))
}

fn parse(text: &str) -> Result<Spec, String> {
    let root = Json::parse(text)?;
    let root = root.as_obj().ok_or("top level is not an object")?;
    let list = |key: &str| -> Result<&[Json], String> {
        root.get(key).and_then(Json::as_arr).ok_or(format!("missing list {key}"))
    };
    let field = |item: &Json, key: &str| -> Result<String, String> {
        item.as_obj()
            .and_then(|o| o.get(key))
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or(format!("entry without string {key}"))
    };
    let metrics = |key: &str| -> Result<Vec<MetricSpec>, String> {
        list(key)?
            .iter()
            .map(|m| {
                Ok(MetricSpec {
                    name: field(m, "name")?,
                    unit: field(m, "unit")?,
                    higher_is_better: field(m, "better")? == "higher",
                    bound: m.as_obj().and_then(|o| o.get("bound")).and_then(Json::as_num),
                })
            })
            .collect()
    };
    Ok(Spec {
        run_seconds: root.get("run_seconds").and_then(Json::as_num).ok_or("missing run_seconds")?,
        workloads: list("workloads")?.iter().map(|w| field(w, "name")).collect::<Result<_, _>>()?,
        end_to_end: metrics("end_to_end")?,
        per_layer: metrics("per_layer")?,
    })
}
