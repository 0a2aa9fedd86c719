//! The metric catalogue and the result line. `BENCHMARK.json` at the
//! repository root lists the same names and units; a test keeps them
//! in step.

use std::collections::BTreeMap;

/// End-to-end metrics, printed by untraced runs: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("cold_start_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("extract_p50_ms", "ms"),
    ("extract_p95_ms", "ms"),
    ("pages_per_s", "pages/s"),
    ("bootstrap_s", "s"),
    ("precision", "fraction"),
    ("coverage", "fraction"),
];

/// Per-layer metrics, printed by traced runs: `(name, unit)`.
pub const PER_LAYER: [(&str, &str); 31] = [
    ("pae-serve.server_p50_us", "us"),
    ("pae-serve.outside_p50_us", "us"),
    ("pae-serve.connects_per_request", "count"),
    ("pae-obs.json_parse_us", "us"),
    ("pae-html.parse_us", "us"),
    ("pae-text.analyze_us", "us"),
    ("pae-core.extract_page_us", "us"),
    ("pae-crf.decode_page_us", "us"),
    ("pae-runtime.batch_efficiency", "fraction"),
    ("pae-core.bundle_open_us", "us"),
    ("pae-core.extractor_us", "us"),
    ("pae-serve.start_ms", "ms"),
    ("pae-core.empty_page_frac", "fraction"),
    ("pae-text.oov_frac", "fraction"),
    ("pae-core.triples_per_page", "count"),
    ("pae-core.corpus_parse_ms", "ms"),
    ("pae-core.seed_ms", "ms"),
    ("pae-core.diversify_ms", "ms"),
    ("pae-crf.train_ms", "ms"),
    ("pae-crf.features_ms", "ms"),
    ("pae-crf.grad_ms", "ms"),
    ("pae-crf.line_search_ms", "ms"),
    ("pae-core.extract_ms", "ms"),
    ("pae-core.veto_ms", "ms"),
    ("pae-core.semantic_ms", "ms"),
    ("pae-core.seed_pairs", "count"),
    ("pae-core.clean_attrs", "count"),
    ("pae-core.candidates", "count"),
    ("pae-core.veto_dropped", "count"),
    ("pae-core.semantic_removed", "count"),
    ("pae-core.triples", "count"),
];

/// A finished run: the oracle verdict, the operation tally and the
/// metrics it measured.
#[derive(Default)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<&'static str, f64>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// The result line: the catalogue's metrics for this mode, in order.
    /// Fails if one is missing or not finite.
    pub fn json_line(&self, trace: bool) -> Result<String, String> {
        let catalogue: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
        let mut fields = Vec::with_capacity(catalogue.len());
        for (name, unit) in catalogue {
            let value = *self
                .metrics
                .get(name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if !value.is_finite() {
                return Err(format!("metric {name} is {value}"));
            }
            fields.push(format!(
                "\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"
            ));
        }
        Ok(format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            fields.join(",")
        ))
    }
}

/// The process's peak resident set (`VmHWM`), in MB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_owned())
}

#[cfg(test)]
mod tests {
    use super::*;
    use pae_obs::json::Json;

    fn valid_name(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn metric_names_and_units_use_the_allowed_characters() {
        let all: Vec<&(&str, &str)> = END_TO_END.iter().chain(PER_LAYER.iter()).collect();
        for (name, unit) in &all {
            assert!(valid_name(name), "bad metric name {name}");
            assert!(
                unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "bad unit {unit}"
            );
        }
        let mut names: Vec<&str> = all.iter().map(|(n, _)| *n).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all.len(), "metric names repeat");
        assert!(!valid_name("pae serve.p50"));
        assert!(!valid_name(".hidden"));
    }

    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = Json::parse(&text).expect("BENCHMARK.json is JSON");
        let listed = |key: &str| -> Vec<(String, String)> {
            let Some(Json::Arr(items)) = doc.get(key) else {
                panic!("BENCHMARK.json has no {key} list");
            };
            items
                .iter()
                .map(|m| {
                    let s = |k| m.get(k).and_then(Json::as_str).expect(k).to_owned();
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let owned = |c: &[(&str, &str)]| -> Vec<(String, String)> {
            c.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), owned(&END_TO_END));
        assert_eq!(listed("per_layer"), owned(&PER_LAYER));
    }

    #[test]
    fn the_result_line_needs_every_metric() {
        let mut o = Outcome {
            correct: true,
            attempted: 3,
            ..Outcome::default()
        };
        for (name, _) in END_TO_END {
            o.set(name, 1.5);
        }
        let line = o.json_line(false).expect("complete");
        let doc = Json::parse(&line).expect("result line is JSON");
        assert_eq!(doc.get("attempted").and_then(Json::as_u64), Some(3));
        assert_eq!(
            doc.get("metrics")
                .and_then(|m| m.get("setup_s"))
                .and_then(|m| m.get("unit"))
                .and_then(Json::as_str),
            Some("s")
        );
        assert!(o.json_line(true).is_err());
        o.set("precision", f64::NAN);
        assert!(o.json_line(false).is_err());
    }
}
