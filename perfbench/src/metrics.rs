//! The metrics the benchmark prints, by name and unit, and their JSON
//! rendering. `BENCHMARK.json` at the repository root lists the same
//! names and units; a test keeps the two in step.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One printed metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    /// Name, as printed.
    pub name: &'static str,
    /// Unit, as printed.
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit }
}

/// Printed by the untraced run (`--trace 0`).
pub const END_TO_END: [MetricDef; 6] = [
    m("setup_s", "s"),
    m("op_p50_ms", "ms"),
    m("op_tail_ms", "ms"),
    m("work_per_s", "1/s"),
    m("peak_rss_mb", "MB"),
    m("answer_ed2_norm", "ratio"),
];

/// Printed by the traced run (`--trace 1`). Metrics in `count` and
/// `bytes` are exact: per-op deltas that must repeat for a repeated
/// request.
pub const PER_LAYER: [MetricDef; 25] = [
    m("api.engine_run_ms", "ms"),
    m("api.codec_us", "us"),
    m("api.transport_ms", "ms"),
    m("api.suite_cache_misses", "count"),
    m("explore.measure_misses", "count"),
    m("explore.measure_hits", "count"),
    m("explore.warm_rerun_ms", "ms"),
    m("sched.loops_scheduled", "count"),
    m("sched.busy_pct", "%"),
    m("sched.loops_per_s", "1/s"),
    m("sim.violations", "count"),
    m("workloads.suite_ms", "ms"),
    m("store.open_ms", "ms"),
    m("store.records_read", "count"),
    m("store.bytes_read", "bytes"),
    m("store.records_written", "count"),
    m("store.bytes_written", "bytes"),
    m("store.hits", "count"),
    m("store.misses", "count"),
    m("search.evals", "count"),
    m("search.screens", "count"),
    m("search.replay_pct", "%"),
    m("exec.tasks", "count"),
    m("exec.busy_ratio", "ratio"),
    m("obs.timing_overhead_pct", "%"),
];

impl MetricDef {
    /// Whether the metric is an exact work count.
    #[must_use]
    pub fn is_exact(&self) -> bool {
        matches!(self.unit, "count" | "bytes")
    }
}

/// Renders `{"<name>":{"value":<v>,"unit":"<u>"},…}` for every metric in
/// `defs`, in order, with each value printed with all its digits.
///
/// # Errors
///
/// Names the first metric that has no value or a non-finite one.
pub fn render(defs: &[MetricDef], values: &BTreeMap<&str, f64>) -> Result<String, String> {
    let mut out = String::from("{");
    for (i, def) in defs.iter().enumerate() {
        let v = *values
            .get(def.name)
            .ok_or_else(|| format!("metric {} was not measured", def.name))?;
        if !v.is_finite() {
            return Err(format!("metric {} is not a finite number: {v}", def.name));
        }
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\"{}\":{{\"value\":{v},\"unit\":\"{}\"}}",
            def.name, def.unit
        );
    }
    out.push('}');
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::Value;

    fn benchmark_json() -> Value {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
        serde_json::from_str(&text).expect("BENCHMARK.json parses")
    }

    fn declared(doc: &Value, key: &str) -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Value::as_array)
            .unwrap_or_else(|| panic!("BENCHMARK.json has no {key} list"))
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(Value::as_str).unwrap().to_owned();
                (field("name"), field("unit"))
            })
            .collect()
    }

    fn table(defs: &[MetricDef]) -> Vec<(String, String)> {
        defs.iter()
            .map(|d| (d.name.to_owned(), d.unit.to_owned()))
            .collect()
    }

    #[test]
    fn benchmark_json_names_every_printed_metric() {
        let doc = benchmark_json();
        assert_eq!(declared(&doc, "end_to_end"), table(&END_TO_END));
        assert_eq!(declared(&doc, "per_layer"), table(&PER_LAYER));
    }

    #[test]
    fn every_declared_metric_is_printed_with_its_unit() {
        let doc = benchmark_json();
        for (key, defs) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let values: BTreeMap<&str, f64> = defs
                .iter()
                .enumerate()
                .map(|(i, d)| (d.name, i as f64 + 0.25))
                .collect();
            let printed: Value = serde_json::from_str(&render(defs, &values).unwrap()).unwrap();
            for (name, unit) in declared(&doc, key) {
                let metric = printed
                    .get(&name)
                    .unwrap_or_else(|| panic!("{name} is not printed"));
                assert_eq!(
                    metric.get("unit").and_then(Value::as_str),
                    Some(unit.as_str())
                );
                assert!(metric.get("value").and_then(Value::as_f64).is_some());
            }
            assert_eq!(printed.as_object().unwrap().len(), defs.len());
        }
    }

    #[test]
    fn render_refuses_missing_and_non_finite_values() {
        let defs = [m("a_ms", "ms"), m("b", "count")];
        let mut values = BTreeMap::from([("a_ms", 1.5)]);
        assert!(render(&defs, &values)
            .unwrap_err()
            .contains("b was not measured"));
        values.insert("b", f64::NAN);
        assert!(render(&defs, &values).unwrap_err().contains("not a finite"));
        values.insert("b", 3.0);
        // Rust prints the shortest text that reads back as the value.
        assert_eq!(
            render(&defs, &values).unwrap(),
            "{\"a_ms\":{\"value\":1.5,\"unit\":\"ms\"},\"b\":{\"value\":3,\"unit\":\"count\"}}"
        );
    }
}
