//! Result files and the one-line summary.
//!
//! A result file holds one set (or one single-workload run): per
//! workload the attempted and failed operation counts, every end-to-end
//! metric with its raw samples, the per-layer ledger, and the traced
//! run's spans. `benchmark compare` reads two of them.

use crate::spec::spec;
use crate::Metric;
use hetsim_obs::Json;
use std::collections::BTreeMap;
use std::path::Path;

/// Schema tag of result files.
const SCHEMA: &str = "hetscale-benchmark/1";

/// Everything measured for one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadResult {
    /// Workload name.
    pub name: String,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// End-to-end metrics (empty when only the traced run was made).
    pub end_to_end: Vec<Metric>,
    /// Per-layer ledger (empty when no traced run was made).
    pub per_layer: Vec<Metric>,
    /// The traced run's spans, as written to the result file.
    pub spans: Json,
}

impl WorkloadResult {
    /// The metric called `name`, from either list.
    pub fn metric(&self, name: &str) -> Option<&Metric> {
        self.end_to_end.iter().chain(&self.per_layer).find(|m| m.name == name)
    }

    /// Adds a traced run's ledger, spans and operation counts.
    pub fn absorb_trace(&mut self, traced: WorkloadResult) {
        self.attempted += traced.attempted;
        self.failed += traced.failed;
        self.per_layer = traced.per_layer;
        self.spans = traced.spans;
    }

    /// The single JSON line a run prints last: `correct`, `attempted`,
    /// `failed`, and by name with unit every metric `BENCHMARK.json`
    /// declares — the per-layer list when `traced`, else the end-to-end
    /// list.
    ///
    /// # Panics
    /// When a declared metric was not measured (a harness bug).
    pub fn summary_line(&self, traced: bool) -> String {
        let declared = if traced { &spec().per_layer } else { &spec().end_to_end };
        let metrics = declared
            .iter()
            .map(|d| {
                let m = self
                    .metric(&d.name)
                    .unwrap_or_else(|| panic!("{} measured no {}", self.name, d.name));
                (m.name.clone(), metric_json(m, false))
            })
            .collect();
        let mut line = BTreeMap::new();
        line.insert("correct".to_string(), Json::Bool(self.failed == 0));
        line.insert("attempted".to_string(), Json::int(self.attempted));
        line.insert("failed".to_string(), Json::int(self.failed));
        line.insert("metrics".to_string(), Json::Obj(metrics));
        Json::Obj(line).to_string()
    }

    fn to_json(&self) -> Json {
        let metrics = |list: &[Metric]| {
            Json::Obj(list.iter().map(|m| (m.name.clone(), metric_json(m, true))).collect())
        };
        let mut obj = BTreeMap::new();
        obj.insert("attempted".to_string(), Json::int(self.attempted));
        obj.insert("failed".to_string(), Json::int(self.failed));
        obj.insert("end_to_end".to_string(), metrics(&self.end_to_end));
        obj.insert("per_layer".to_string(), metrics(&self.per_layer));
        obj.insert("spans".to_string(), self.spans.clone());
        Json::Obj(obj)
    }

    fn from_json(name: &str, json: &Json) -> Result<WorkloadResult, String> {
        let obj = json.as_obj().ok_or(format!("workload {name} is not an object"))?;
        let count = |key: &str| {
            obj.get(key).and_then(Json::as_num).map(|v| v as u64).ok_or(format!("{name}: no {key}"))
        };
        let metrics = |key: &str| -> Result<Vec<Metric>, String> {
            let Some(list) = obj.get(key).and_then(Json::as_obj) else {
                return Ok(Vec::new());
            };
            list.iter()
                .map(|(metric, entry)| {
                    let entry = entry.as_obj().ok_or(format!("{name}.{metric} malformed"))?;
                    Ok(Metric {
                        name: metric.clone(),
                        unit: entry.get("unit").and_then(Json::as_str).unwrap_or("").to_string(),
                        value: entry
                            .get("value")
                            .and_then(Json::as_num)
                            .ok_or(format!("{name}.{metric} has no value"))?,
                        samples: entry
                            .get("samples")
                            .and_then(Json::as_arr)
                            .map(|s| s.iter().filter_map(Json::as_num).collect())
                            .unwrap_or_default(),
                    })
                })
                .collect()
        };
        Ok(WorkloadResult {
            name: name.to_string(),
            attempted: count("attempted")?,
            failed: count("failed")?,
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
            spans: obj.get("spans").cloned().unwrap_or(Json::Arr(Vec::new())),
        })
    }
}

/// `{"value", "unit"}`, plus the raw `"samples"` when asked for and present.
fn metric_json(m: &Metric, with_samples: bool) -> Json {
    let mut entry = BTreeMap::new();
    entry.insert("value".to_string(), Json::Num(m.value));
    entry.insert("unit".to_string(), Json::str(&m.unit));
    if with_samples && !m.samples.is_empty() {
        let samples = m.samples.iter().map(|&s| Json::Num(s)).collect();
        entry.insert("samples".to_string(), Json::Arr(samples));
    }
    Json::Obj(entry)
}

/// One result file: where and how it was measured, plus the workloads.
#[derive(Debug, Clone, PartialEq)]
pub struct SetResult {
    /// Machine, revision, seed and worker count.
    pub meta: BTreeMap<String, Json>,
    /// Per-workload results (keyed by name in the file, so read back in
    /// name order).
    pub workloads: Vec<WorkloadResult>,
}

impl SetResult {
    /// The workload called `name`.
    pub fn workload(&self, name: &str) -> Option<&WorkloadResult> {
        self.workloads.iter().find(|w| w.name == name)
    }

    /// The file's JSON document.
    fn to_json(&self) -> Json {
        let mut root = BTreeMap::new();
        root.insert("schema".to_string(), Json::str(SCHEMA));
        root.insert("meta".to_string(), Json::Obj(self.meta.clone()));
        let workloads = self.workloads.iter().map(|w| (w.name.clone(), w.to_json())).collect();
        root.insert("workloads".to_string(), Json::Obj(workloads));
        Json::Obj(root)
    }

    /// Parses a result document.
    ///
    /// # Errors
    /// When the document is not a result file of this schema.
    fn from_json(json: &Json) -> Result<SetResult, String> {
        let root = json.as_obj().ok_or("result file is not a JSON object")?;
        if root.get("schema").and_then(Json::as_str) != Some(SCHEMA) {
            return Err(format!("not a {SCHEMA} result file"));
        }
        let meta = root.get("meta").and_then(Json::as_obj).cloned().unwrap_or_default();
        let workloads = root
            .get("workloads")
            .and_then(Json::as_obj)
            .ok_or("result file has no workloads")?
            .iter()
            .map(|(name, w)| WorkloadResult::from_json(name, w))
            .collect::<Result<_, _>>()?;
        Ok(SetResult { meta, workloads })
    }

    /// Reads and parses the result file at `path`.
    ///
    /// # Errors
    /// When the file cannot be read or parsed.
    pub fn read(path: &Path) -> Result<SetResult, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let json = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        SetResult::from_json(&json).map_err(|e| format!("{}: {e}", path.display()))
    }

    /// Writes the result file to `path`.
    ///
    /// # Errors
    /// When the file cannot be written.
    pub fn write(&self, path: &Path) -> Result<(), String> {
        std::fs::write(path, format!("{}\n", self.to_json()))
            .map_err(|e| format!("cannot write {}: {e}", path.display()))
    }
}

/// Where a result was measured: processor count and model, the worker
/// count J, the workload seed, and the git revision when the sources
/// are a git checkout.
pub fn machine_meta(jobs: usize, seed: u64) -> BTreeMap<String, Json> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let rev = std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string());
    let mut meta = BTreeMap::new();
    meta.insert("nproc".to_string(), Json::int(nproc as u64));
    meta.insert("cpu".to_string(), Json::str(cpu));
    meta.insert("jobs".to_string(), Json::int(jobs as u64));
    // Seeds span all of u64, past exact f64 integers: keep the digits.
    meta.insert("seed".to_string(), Json::str(seed.to_string()));
    meta.insert("rev".to_string(), Json::str(rev));
    meta
}
