//! Prometheus text exposition of a [`TelemetrySnapshot`], and a small
//! checker for the format.
//!
//! Every value is a `u64` (nanoseconds, bytes, counts), so the text is
//! bit-stable across renders of the same recorded data.

use crate::report::{HistogramTotal, TelemetrySnapshot};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

impl TelemetrySnapshot {
    /// Renders the counters and histograms in the Prometheus text
    /// exposition format.
    ///
    /// Each counter becomes the families `insitu_c_<name>_calls` and
    /// `_total` (counters) and `_max` (a gauge); each histogram becomes
    /// one `summary` family `insitu_h_<name>` (with `quantile` labels
    /// plus `_sum`/`_count`) and a gauge `insitu_h_<name>_max`. Dots in
    /// telemetry names map to underscores; the telemetry label rides
    /// along as a `label="…"` Prometheus label. Series come out sorted
    /// by `(name, label)` whatever the snapshot's order, each family's
    /// `# HELP`/`# TYPE` lines precede its first sample, and the output
    /// always passes [`validate_prometheus`].
    pub fn to_prometheus(&self) -> String {
        // Keyed by (name, label): sorted, and a repeated key keeps its
        // last entry.
        let counters: BTreeMap<(&str, &str), [(&str, u64); 3]> = self
            .counters
            .iter()
            .map(|c| {
                let fields = [("calls", c.calls), ("max", c.max), ("total", c.total)];
                ((c.name.as_str(), c.label.as_str()), fields)
            })
            .collect();
        let hists: BTreeMap<(&str, &str), &HistogramTotal> =
            self.hists.iter().map(|h| ((h.name.as_str(), h.label.as_str()), h)).collect();
        let mut out = String::new();
        let mut typed = BTreeSet::new();
        let mut declare = |out: &mut String, family: &str, help: &str, kind: &str| {
            if typed.insert(family.to_string()) {
                let _ = writeln!(out, "# HELP {family} {help}");
                let _ = writeln!(out, "# TYPE {family} {kind}");
            }
        };
        for ((name, label), fields) in &counters {
            let base = format!("insitu_c_{}", sanitize(name));
            let labels = label_set(&[("label", label)]);
            for (field, v) in fields {
                let family = format!("{base}_{field}");
                let kind = if *field == "max" { "gauge" } else { "counter" };
                declare(&mut out, &family, &format!("telemetry counter {name} {field}"), kind);
                let _ = writeln!(out, "{family}{labels} {v}");
            }
        }
        for ((name, label), h) in &hists {
            let base = format!("insitu_h_{}", sanitize(name));
            declare(&mut out, &base, &format!("telemetry histogram {name}"), "summary");
            for (tag, v) in [("0.5", h.p50), ("0.9", h.p90), ("0.99", h.p99)] {
                let quantile = label_set(&[("label", label), ("quantile", tag)]);
                let _ = writeln!(out, "{base}{quantile} {v}");
            }
            let labels = label_set(&[("label", label)]);
            let _ = writeln!(out, "{base}_sum{labels} {}", h.hist.sum());
            let _ = writeln!(out, "{base}_count{labels} {}", h.hist.count());
            let family = format!("{base}_max");
            declare(&mut out, &family, &format!("largest sample of {name}"), "gauge");
            let _ = writeln!(out, "{family}{labels} {}", h.max);
        }
        out
    }
}

/// Maps a telemetry name to a Prometheus metric-name fragment.
fn sanitize(name: &str) -> String {
    name.chars().map(|c| if c.is_ascii_alphanumeric() { c } else { '_' }).collect()
}

/// Renders a `{k="v",…}` label set, escaping `"`, `\` and newlines in
/// the values.
fn label_set(pairs: &[(&str, &str)]) -> String {
    let body: Vec<String> = pairs
        .iter()
        .map(|(k, v)| {
            let mut escaped = String::with_capacity(v.len());
            for c in v.chars() {
                match c {
                    '"' => escaped.push_str("\\\""),
                    '\\' => escaped.push_str("\\\\"),
                    '\n' => escaped.push_str("\\n"),
                    c => escaped.push(c),
                }
            }
            format!("{k}=\"{escaped}\"")
        })
        .collect();
    format!("{{{}}}", body.join(","))
}

/// A tiny Prometheus text-format checker: validates comment lines
/// (`# HELP` / `# TYPE` with a known metric type), metric-name syntax,
/// balanced `name="value"` label sets, numeric sample values, and that
/// every sample belongs to a family declared by a preceding `# TYPE`
/// (allowing the summary's `_sum`/`_count` children). Returns the
/// number of sample lines.
///
/// # Errors
///
/// Returns a message naming the first offending line.
pub fn validate_prometheus(text: &str) -> Result<usize, String> {
    let mut families: BTreeSet<&str> = BTreeSet::new();
    let mut samples = 0usize;
    for (no, line) in text.lines().enumerate() {
        let line = line.trim_end();
        if line.is_empty() {
            continue;
        }
        let err = |why: &str| Err(format!("line {}: {why}: {line:?}", no + 1));
        if let Some(rest) = line.strip_prefix('#') {
            // `# HELP` and plain comments are legal; only TYPE is checked.
            if let Some(decl) = rest.trim_start().strip_prefix("TYPE ") {
                let mut it = decl.split_whitespace();
                let (Some(name), Some(kind)) = (it.next(), it.next()) else {
                    return err("malformed TYPE line");
                };
                if !valid_metric_name(name) {
                    return err("bad metric name in TYPE");
                }
                if !matches!(kind, "counter" | "gauge" | "summary" | "histogram" | "untyped") {
                    return err("unknown metric type");
                }
                families.insert(name);
            }
            continue;
        }
        // Sample line: name[{labels}] value
        let name_end = line.find(['{', ' ']).unwrap_or(line.len());
        let name = &line[..name_end];
        if !valid_metric_name(name) {
            return err("bad metric name");
        }
        let family_known = families.contains(name)
            || name
                .strip_suffix("_sum")
                .or_else(|| name.strip_suffix("_count"))
                .is_some_and(|base| families.contains(base));
        if !family_known {
            return err("sample before its # TYPE declaration");
        }
        let mut rest = &line[name_end..];
        if let Some(body) = rest.strip_prefix('{') {
            let Some(close) = body.find('}') else {
                return err("unterminated label set");
            };
            let labels = &body[..close];
            if !labels.is_empty() {
                for pair in split_label_pairs(labels) {
                    let Some((k, v)) = pair.split_once('=') else {
                        return err("label without '='");
                    };
                    if !valid_metric_name(k) {
                        return err("bad label name");
                    }
                    if !(v.len() >= 2 && v.starts_with('"') && v.ends_with('"')) {
                        return err("label value not quoted");
                    }
                }
            }
            rest = &body[close + 1..];
        }
        let value = rest.trim();
        let numeric = matches!(value, "+Inf" | "-Inf" | "NaN") || value.parse::<f64>().is_ok();
        if value.is_empty() || !numeric {
            return err("missing or non-numeric sample value");
        }
        samples += 1;
    }
    Ok(samples)
}

/// Splits a label body on commas that are outside quoted values.
fn split_label_pairs(labels: &str) -> Vec<&str> {
    let mut out = Vec::new();
    let (mut start, mut in_quotes, mut escaped) = (0usize, false, false);
    for (i, c) in labels.char_indices() {
        match c {
            '\\' if in_quotes => escaped = !escaped,
            '"' if !escaped => in_quotes = !in_quotes,
            ',' if !in_quotes => {
                out.push(&labels[start..i]);
                start = i + 1;
            }
            _ => escaped = false,
        }
    }
    out.push(&labels[start..]);
    out
}

/// Prometheus metric/label name: `[a-zA-Z_:][a-zA-Z0-9_:]*`.
fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hist::Histogram;
    use crate::report::CounterTotal;

    fn hist(name: &str, label: &str, samples: &[u64]) -> HistogramTotal {
        let mut h = Histogram::new();
        for &v in samples {
            h.record(v);
        }
        HistogramTotal::from_hist(name.into(), label.into(), h)
    }

    fn counter(name: &str, label: &str, calls: u64, total: u64, max: u64) -> CounterTotal {
        CounterTotal { name: name.into(), label: label.into(), calls, total, max }
    }

    fn snapshot() -> TelemetrySnapshot {
        TelemetrySnapshot {
            counters: vec![counter("node.stage", "", 4, 1_007_000, 1_000_000)],
            hists: vec![hist("node.stage", "", &[1_000, 2_000, 4_000, 1_000_000])],
            epoch: 2,
            ..TelemetrySnapshot::default()
        }
    }

    /// The text the former core metrics hub rendered (its `fold` then
    /// `to_prometheus`) from [`golden_snapshot`], generated on a
    /// checkout of commit 6d0e1c1, the last one with the hub. `⇥`
    /// stands for a raw tab, which label values carry unescaped.
    const GOLDEN: &str = r#"# HELP insitu_c_cloud_cache_hit_calls telemetry counter cloud.cache.hit calls
# TYPE insitu_c_cloud_cache_hit_calls counter
insitu_c_cloud_cache_hit_calls{label="bs=\"8\"\\\n⇥"} 3
# HELP insitu_c_cloud_cache_hit_max telemetry counter cloud.cache.hit max
# TYPE insitu_c_cloud_cache_hit_max gauge
insitu_c_cloud_cache_hit_max{label="bs=\"8\"\\\n⇥"} 100
# HELP insitu_c_cloud_cache_hit_total telemetry counter cloud.cache.hit total
# TYPE insitu_c_cloud_cache_hit_total counter
insitu_c_cloud_cache_hit_total{label="bs=\"8\"\\\n⇥"} 123
# HELP insitu_c_jigsaw_trunk_passes_calls telemetry counter jigsaw.trunk_passes calls
# TYPE insitu_c_jigsaw_trunk_passes_calls counter
insitu_c_jigsaw_trunk_passes_calls{label=""} 12
# HELP insitu_c_jigsaw_trunk_passes_max telemetry counter jigsaw.trunk_passes max
# TYPE insitu_c_jigsaw_trunk_passes_max gauge
insitu_c_jigsaw_trunk_passes_max{label=""} 8
# HELP insitu_c_jigsaw_trunk_passes_total telemetry counter jigsaw.trunk_passes total
# TYPE insitu_c_jigsaw_trunk_passes_total counter
insitu_c_jigsaw_trunk_passes_total{label=""} 96
# HELP insitu_c_node_stage_calls telemetry counter node.stage calls
# TYPE insitu_c_node_stage_calls counter
insitu_c_node_stage_calls{label="32 images @bs8"} 4
# HELP insitu_c_node_stage_max telemetry counter node.stage max
# TYPE insitu_c_node_stage_max gauge
insitu_c_node_stage_max{label="32 images @bs8"} 1000000
# HELP insitu_c_node_stage_total telemetry counter node.stage total
# TYPE insitu_c_node_stage_total counter
insitu_c_node_stage_total{label="32 images @bs8"} 1007000
# HELP insitu_c_runtime_uplink_depth_calls telemetry counter runtime.uplink_depth calls
# TYPE insitu_c_runtime_uplink_depth_calls counter
insitu_c_runtime_uplink_depth_calls{label=""} 7
# HELP insitu_c_runtime_uplink_depth_max telemetry counter runtime.uplink_depth max
# TYPE insitu_c_runtime_uplink_depth_max gauge
insitu_c_runtime_uplink_depth_max{label=""} 3
# HELP insitu_c_runtime_uplink_depth_total telemetry counter runtime.uplink_depth total
# TYPE insitu_c_runtime_uplink_depth_total counter
insitu_c_runtime_uplink_depth_total{label=""} 9
# HELP insitu_h_cloud_update_cycle telemetry histogram cloud.update_cycle
# TYPE insitu_h_cloud_update_cycle summary
insitu_h_cloud_update_cycle{label="bs=\"8\"\\\n⇥",quantile="0.5"} 42
insitu_h_cloud_update_cycle{label="bs=\"8\"\\\n⇥",quantile="0.9"} 42
insitu_h_cloud_update_cycle{label="bs=\"8\"\\\n⇥",quantile="0.99"} 42
insitu_h_cloud_update_cycle_sum{label="bs=\"8\"\\\n⇥"} 42
insitu_h_cloud_update_cycle_count{label="bs=\"8\"\\\n⇥"} 1
# HELP insitu_h_cloud_update_cycle_max largest sample of cloud.update_cycle
# TYPE insitu_h_cloud_update_cycle_max gauge
insitu_h_cloud_update_cycle_max{label="bs=\"8\"\\\n⇥"} 42
# HELP insitu_h_node_stage telemetry histogram node.stage
# TYPE insitu_h_node_stage summary
insitu_h_node_stage{label="",quantile="0.5"} 2047
insitu_h_node_stage{label="",quantile="0.9"} 1000000
insitu_h_node_stage{label="",quantile="0.99"} 1000000
insitu_h_node_stage_sum{label=""} 1007000
insitu_h_node_stage_count{label=""} 4
# HELP insitu_h_node_stage_max largest sample of node.stage
# TYPE insitu_h_node_stage_max gauge
insitu_h_node_stage_max{label=""} 1000000
# HELP insitu_h_node_stage_per_image telemetry histogram node.stage_per_image
# TYPE insitu_h_node_stage_per_image summary
insitu_h_node_stage_per_image{label="f32",quantile="0.5"} 655359
insitu_h_node_stage_per_image{label="f32",quantile="0.9"} 5000000
insitu_h_node_stage_per_image{label="f32",quantile="0.99"} 5000000
insitu_h_node_stage_per_image_sum{label="f32"} 6860009
insitu_h_node_stage_per_image_count{label="f32"} 5
# HELP insitu_h_node_stage_per_image_max largest sample of node.stage_per_image
# TYPE insitu_h_node_stage_per_image_max gauge
insitu_h_node_stage_per_image_max{label="f32"} 5000000
insitu_h_node_stage_per_image{label="i8",quantile="0.5"} 262143
insitu_h_node_stage_per_image{label="i8",quantile="0.9"} 400000
insitu_h_node_stage_per_image{label="i8",quantile="0.99"} 400000
insitu_h_node_stage_per_image_sum{label="i8"} 910000
insitu_h_node_stage_per_image_count{label="i8"} 3
insitu_h_node_stage_per_image_max{label="i8"} 400000
# HELP insitu_h_node_upload_bytes telemetry histogram node.upload_bytes
# TYPE insitu_h_node_upload_bytes summary
insitu_h_node_upload_bytes{label="",quantile="0.5"} 16383
insitu_h_node_upload_bytes{label="",quantile="0.9"} 46656
insitu_h_node_upload_bytes{label="",quantile="0.99"} 46656
insitu_h_node_upload_bytes_sum{label=""} 62208
insitu_h_node_upload_bytes_count{label=""} 3
# HELP insitu_h_node_upload_bytes_max largest sample of node.upload_bytes
# TYPE insitu_h_node_upload_bytes_max gauge
insitu_h_node_upload_bytes_max{label=""} 46656
"#;

    /// Several counters and histograms, out of key order, with one
    /// label holding `"`, `\`, a newline and a tab.
    fn golden_snapshot() -> TelemetrySnapshot {
        let hostile = "bs=\"8\"\\\n\t";
        TelemetrySnapshot {
            spans: vec![],
            counters: vec![
                counter("runtime.uplink_depth", "", 7, 9, 3),
                counter("node.stage", "32 images @bs8", 4, 1_007_000, 1_000_000),
                counter("cloud.cache.hit", hostile, 3, 123, 100),
                counter("jigsaw.trunk_passes", "", 12, 96, 8),
            ],
            hists: vec![
                hist("node.stage_per_image", "i8", &[250_000, 260_000, 400_000]),
                hist("node.stage", "", &[1_000, 2_000, 4_000, 1_000_000]),
                hist("node.stage_per_image", "f32", &[600_000, 620_000, 640_000, 5_000_000, 9]),
                hist("node.upload_bytes", "", &[0, 15_552, 46_656]),
                hist("cloud.update_cycle", hostile, &[42]),
            ],
            epoch: 7,
            dropped_events: 0,
        }
    }

    #[test]
    fn prometheus_text_matches_the_golden_rendering() {
        let text = golden_snapshot().to_prometheus();
        assert_eq!(text, GOLDEN.replace('⇥', "\t"));
        assert_eq!(validate_prometheus(&text), Ok(42));
        assert_eq!(TelemetrySnapshot::default().to_prometheus(), "");
    }

    #[test]
    fn prometheus_export_validates_and_carries_quantiles() {
        let text = snapshot().to_prometheus();
        let n = validate_prometheus(&text).expect("export must parse");
        assert!(n >= 8, "expected counter + summary samples, got {n}:\n{text}");
        assert!(text.contains("quantile=\"0.99\""), "{text}");
        assert!(text.contains("insitu_h_node_stage_sum"), "{text}");
        assert!(text.contains("insitu_c_node_stage_calls"), "{text}");
        assert!(text.contains("# TYPE insitu_h_node_stage summary"), "{text}");
    }

    #[test]
    fn validator_rejects_malformed_text() {
        assert!(validate_prometheus("# TYPE ok counter\nok 1").is_ok());
        for bad in [
            "no_type_decl 1",
            "# TYPE m counter\n1bad_name 2",
            "# TYPE m wat\nm 1",
            "# TYPE m counter\nm{x=unquoted} 1",
            "# TYPE m counter\nm not_a_number",
            "# TYPE m counter\nm{unterminated=\"v\" 1",
        ] {
            assert!(validate_prometheus(bad).is_err(), "accepted: {bad}");
        }
        // Summary children are covered by the parent family.
        let ok = "# TYPE s summary\ns{quantile=\"0.5\"} 1\ns_sum 2\ns_count 3";
        assert_eq!(validate_prometheus(ok), Ok(3));
    }

    #[test]
    fn label_values_are_escaped() {
        let set = label_set(&[("label", "8x\"16\"")]);
        assert_eq!(set, "{label=\"8x\\\"16\\\"\"}");
        let text = format!("# TYPE m counter\nm{set} 5");
        assert_eq!(validate_prometheus(&text), Ok(1));
    }
}
