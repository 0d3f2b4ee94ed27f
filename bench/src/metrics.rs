//! The benchmark's metric vocabulary: every end-to-end metric with its
//! unit, direction and regression bound, and every per-layer metric
//! with its unit.  `BENCHMARK.json`, the runner's output, `compare` and
//! the README all speak these names; a unit test keeps the first in
//! step with this file.

use rq_common::Json;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// One end-to-end metric.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline median by which the metric may worsen
    /// before `compare` calls it a regression; `0.0` means any rise.
    pub bound: f64,
    /// Defined on every workload (and so listed under `end_to_end` in
    /// `BENCHMARK.json`, whose metrics every run must print) or only on
    /// `durable_mixed`.
    pub every_workload: bool,
}

const fn spec(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    every_workload: bool,
) -> Spec {
    Spec {
        name,
        unit,
        better,
        bound,
        every_workload,
    }
}

/// The ten end-to-end metrics, measured with all tracing off.
pub const END_TO_END: [Spec; 10] = [
    spec("setup_s", "s", Better::Lower, 0.25, true),
    spec("throughput_qps", "1/s", Better::Higher, 0.25, true),
    spec("read_p50_ms", "ms", Better::Lower, 0.25, true),
    spec("read_p95_ms", "ms", Better::Lower, 0.25, true),
    spec("ingest_p50_ms", "ms", Better::Lower, 0.15, false),
    spec("ingest_p90_ms", "ms", Better::Lower, 0.20, false),
    spec("recovery_s", "s", Better::Lower, 0.20, false),
    spec("error_rate", "ratio", Better::Lower, 0.0, true),
    spec("server_cpu_ms_per_req", "ms", Better::Lower, 0.25, true),
    spec("server_rss_mb", "MB", Better::Lower, 0.15, true),
];

pub fn end_to_end(name: &str) -> Option<&'static Spec> {
    END_TO_END.iter().find(|s| s.name == name)
}

/// The metrics `BENCHMARK.json` gates: defined on every workload and
/// never zero (`error_rate` is reported through the result line's
/// `failed` / `attempted` instead).
pub fn gated() -> impl Iterator<Item = &'static Spec> {
    END_TO_END
        .iter()
        .filter(|s| s.every_workload && s.name != "error_rate")
}

/// Every per-layer metric and its unit, in report order.  A metric a
/// workload's replay never exercises reads 0 there.
pub const PER_LAYER: &[(&str, &str)] = &[
    // End-to-end readings that exist on one workload only, or are too
    // noisy to gate; printed with the layers so no run hides them.
    ("ingest_p50_ms", "ms"),
    ("ingest_p90_ms", "ms"),
    ("recovery_s", "s"),
    ("read_p99_ms", "ms"),
    ("read_tail_ms", "ms"),
    ("read_tail_percentile", "%"),
    ("writer_late_ms_max", "ms"),
    // rq-wire
    ("wire.request_us", "us"),
    ("wire.read_request_us", "us"),
    ("wire.handle_us", "us"),
    ("wire.handle_self_us", "us"),
    ("wire.encode_us", "us"),
    ("wire.encode_ns_per_row", "ns"),
    ("wire.response_bytes_per_req", "bytes"),
    ("wire.socket_residual_us", "us"),
    ("wire.reconnects", "count"),
    ("wire.requests_total", "count"),
    ("wire.non2xx_total", "count"),
    // rq-common
    ("common.json_parse_us", "us"),
    ("common.json_encode_ns_per_row", "ns"),
    // rq-service
    ("service.parse_query_us", "us"),
    ("service.query_hit_us", "us"),
    ("service.query_miss_us", "us"),
    ("service.query_miss_self_us", "us"),
    ("service.batch_us", "us"),
    ("service.batch_self_us", "us"),
    ("service.first_query_us", "us"),
    ("service.ingest_us", "us"),
    ("service.ingest_durable_us", "us"),
    ("service.ingest_nary_us", "us"),
    ("service.open_recover_s", "s"),
    ("service.result_cache_hit_ratio", "ratio"),
    ("service.result_cache_evictions", "count"),
    ("service.result_cache_bytes", "bytes"),
    ("service.plan_cache_misses", "count"),
    ("service.machine_memo_hit_ratio", "ratio"),
    ("service.probe_memo_hit_ratio", "ratio"),
    ("service.delta_repairs", "count"),
    ("service.delta_repaired_rows", "count"),
    ("service.delta_fallback_cold", "count"),
    ("service.carried_machine_entries", "count"),
    // rq-engine
    ("engine.evaluate_us.grid", "us"),
    ("engine.evaluate_us.chain", "us"),
    ("engine.evaluate_us.hub", "us"),
    ("engine.evaluate_us.ring", "us"),
    ("engine.ns_per_node.grid", "ns"),
    ("engine.ns_per_node.chain", "ns"),
    ("engine.ns_per_node.hub", "ns"),
    ("engine.ns_per_node.ring", "ns"),
    ("engine.nodes_per_query", "count"),
    ("engine.tuples_per_query", "count"),
    ("engine.iterations_per_query", "count"),
    ("engine.graph_nodes_total", "count"),
    ("engine.memo_teleports_total", "count"),
    ("engine.machine_instances_total", "count"),
    // rq-datalog
    ("datalog.parse_program_s", "s"),
    ("datalog.db_build_s", "s"),
    ("datalog.csr_probe_ns", "ns"),
    ("datalog.trie_probe_ns", "ns"),
    ("datalog.scan_probe_ns", "ns"),
    ("datalog.insert_ns_per_tuple", "ns"),
    ("datalog.csr_builds", "count"),
    ("datalog.csr_build_us", "us"),
    ("datalog.csr_probes", "count"),
    ("datalog.trie_probes", "count"),
    // rq-adorn
    ("adorn.plan_us", "us"),
    ("adorn.evaluate_cold_us", "us"),
    ("adorn.evaluate_shared_us", "us"),
    // rq-relalg
    ("relalg.lemma1_us", "us"),
    // rq-store
    ("store.append_us", "us"),
    ("store.append_nofsync_us", "us"),
    ("store.checkpoint_us", "us"),
    ("store.load_s", "s"),
    ("store.wal_bytes_per_fact", "bytes"),
    ("store.disk_bytes_per_fact", "bytes"),
    ("store.wal_records", "count"),
    ("store.checkpoints", "count"),
    ("store.checkpoint_failures", "count"),
    // the harness itself
    ("trace.overhead_ratio", "ratio"),
];

pub fn per_layer_unit(name: &str) -> Option<&'static str> {
    PER_LAYER.iter().find(|(n, _)| *n == name).map(|&(_, u)| u)
}

/// One measured value with the number of samples behind it.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    pub samples: u64,
}

/// An ordered set of readings, one per metric name.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Readings(pub Vec<Metric>);

impl Readings {
    /// Record an end-to-end metric (unit from [`END_TO_END`]).
    pub fn end_to_end(&mut self, name: &'static str, value: f64, samples: u64) {
        let unit = end_to_end(name)
            .unwrap_or_else(|| panic!("`{name}` is not an end-to-end metric"))
            .unit;
        self.put(name, value, unit, samples);
    }

    /// Record a per-layer metric (name and unit from [`PER_LAYER`]).
    pub fn layer(&mut self, name: &str, value: f64, samples: u64) {
        let &(name, unit) = PER_LAYER
            .iter()
            .find(|(n, _)| **n == *name)
            .unwrap_or_else(|| panic!("`{name}` is not a per-layer metric"));
        self.put(name, value, unit, samples);
    }

    fn put(&mut self, name: &'static str, value: f64, unit: &'static str, samples: u64) {
        assert!(self.get(name).is_none(), "`{name}` recorded twice");
        self.0.push(Metric {
            name,
            value,
            unit,
            samples,
        });
    }

    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.0.iter().find(|m| m.name == name)
    }

    pub fn value(&self, name: &str) -> Option<f64> {
        self.get(name).map(|m| m.value)
    }

    pub fn extend(&mut self, other: Readings) {
        for m in other.0 {
            self.put(m.name, m.value, m.unit, m.samples);
        }
    }

    /// `{"name": {"value": …, "unit": …}, …}` over `names`, reading 0 for
    /// a metric this run did not exercise — the shape the result line's
    /// `metrics` key has.
    pub fn to_result_json<'a>(&self, names: impl Iterator<Item = (&'a str, &'a str)>) -> Json {
        Json::Object(
            names
                .map(|(name, unit)| {
                    let value = self.value(name).unwrap_or(0.0);
                    (
                        name.to_string(),
                        Json::object([
                            ("value", Json::Float(value)),
                            ("unit", Json::Str(unit.to_string())),
                        ]),
                    )
                })
                .collect(),
        )
    }

    /// One line per reading: name, value, unit, sample count.
    pub fn print(&self, indent: &str) {
        for m in &self.0 {
            println!(
                "{indent}{:<34} {:>14.4} {:<6} (n={})",
                m.name, m.value, m.unit, m.samples
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::Kind;

    #[test]
    fn names_are_unique_and_fit_the_contract() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .filter(|s| s.every_workload)
            .map(|s| s.name)
            .chain(PER_LAYER.iter().map(|&(n, _)| n))
            .collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a metric name is used twice");
        assert!(PER_LAYER.len() <= 128);
        for name in names {
            assert!(name.len() <= 64 && name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        for unit in END_TO_END
            .iter()
            .map(|s| s.unit)
            .chain(PER_LAYER.iter().map(|&(_, u)| u))
        {
            assert!(unit.len() <= 16);
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        // Every durable-only end-to-end metric is still printed by
        // every traced run.
        for s in END_TO_END.iter().filter(|s| !s.every_workload) {
            assert_eq!(per_layer_unit(s.name), Some(s.unit));
        }
    }

    /// `BENCHMARK.json` is the driver's copy of this file's tables.
    #[test]
    fn benchmark_json_matches_these_tables() {
        let path = crate::server::repo_root().join("BENCHMARK.json");
        let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
        let json = Json::parse(&text).expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<(String, String)> {
            json.get(key)
                .and_then(Json::as_array)
                .unwrap_or_else(|| panic!("`{key}` is an array"))
                .iter()
                .map(|m| {
                    let s = |k| {
                        m.get(k)
                            .and_then(Json::as_str)
                            .unwrap_or_default()
                            .to_string()
                    };
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let own = |pairs: Vec<(&str, &str)>| -> Vec<(String, String)> {
            pairs
                .into_iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(
            names("end_to_end"),
            own(gated().map(|s| (s.name, s.unit)).collect())
        );
        assert_eq!(names("per_layer"), own(PER_LAYER.to_vec()));
        for (spec, listed) in gated().zip(json.get("end_to_end").and_then(Json::as_array).unwrap())
        {
            assert_eq!(listed.get("bound").and_then(Json::as_f64), Some(spec.bound));
            let better = match spec.better {
                Better::Lower => "lower",
                Better::Higher => "higher",
            };
            assert_eq!(listed.get("better").and_then(Json::as_str), Some(better));
        }
        let workloads: Vec<String> = json
            .get("workloads")
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap().to_string())
            .collect();
        let kinds: Vec<&str> = Kind::ALL.iter().map(|k| k.name()).collect();
        assert_eq!(workloads, kinds);
    }
}
