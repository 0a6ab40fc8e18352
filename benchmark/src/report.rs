//! Result lines and human summaries.

use crate::oracle::Tally;
use crate::spec::Metric;
use std::collections::BTreeMap;
use tempart_obs::json::Value;

/// A JSON object from `(key, value)` pairs.
pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Value)>) -> Value {
    Value::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
}

/// A JSON number.
pub fn num(x: f64) -> Value {
    Value::Num(x)
}

/// The contract's result object: exactly `correct`, `attempted`, `failed`
/// and `metrics`, the latter holding every metric of `spec` with its unit.
///
/// # Panics
///
/// Panics if a metric of `spec` was not measured or is not finite — a bug
/// in the benchmark, which must not pass silently as a missing number.
pub fn result_value(
    tally: &Tally,
    spec: &[Metric],
    measured: &BTreeMap<&'static str, f64>,
) -> Value {
    let metrics = spec.iter().map(|m| {
        let value = *measured
            .get(m.name)
            .unwrap_or_else(|| panic!("metric {} was not measured", m.name));
        assert!(
            value.is_finite(),
            "metric {} = {value} is not finite",
            m.name
        );
        (
            m.name,
            obj([("value", num(value)), ("unit", Value::Str(m.unit.into()))]),
        )
    });
    obj([
        ("correct", Value::Bool(tally.failed == 0)),
        ("attempted", num(tally.attempted.max(1) as f64)),
        ("failed", num(tally.failed as f64)),
        ("metrics", obj(metrics)),
    ])
}

/// Prints `name = value unit` rows for every metric of `spec`, then the
/// failure count and reasons.
pub fn print_metrics(tally: &Tally, spec: &[Metric], measured: &BTreeMap<&'static str, f64>) {
    for m in spec {
        if let Some(v) = measured.get(m.name) {
            println!("  {:<32} = {:>14} {}", m.name, format_value(*v), m.unit);
        }
    }
    println!(
        "  {:<32} = {}/{} operations or checks failed",
        "fail_frac", tally.failed, tally.attempted
    );
    for msg in &tally.messages {
        println!("    FAILED {msg}");
    }
    if tally.empty_part_ops > 0 {
        println!(
            "    NOTE {} operations left a domain empty (partition-layer defect: reported, not failed; see README)",
            tally.empty_part_ops
        );
    }
}

/// Six significant digits, plain notation for everyday magnitudes.
pub fn format_value(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.0}")
    } else if v.abs() >= 1e-3 {
        let digits = (5 - v.abs().log10().floor() as i32).clamp(0, 9) as usize;
        format!("{v:.digits$}")
    } else {
        format!("{v:.3e}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::END_TO_END;
    use tempart_obs::json::{parse, write};

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let measured: BTreeMap<&'static str, f64> = END_TO_END
            .iter()
            .enumerate()
            .map(|(i, m)| (m.name, 1.5 + i as f64))
            .collect();
        let tally = Tally {
            attempted: 3,
            failed: 1,
            ..Tally::default()
        };
        let line = write(&result_value(&tally, END_TO_END, &measured));
        assert!(!line.contains('\n'));
        let v = parse(&line).unwrap();
        let keys: Vec<&str> = v.as_obj().unwrap().keys().map(String::as_str).collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        assert_eq!(v.get("correct"), Some(&Value::Bool(false)));
        let metrics = v.get("metrics").unwrap().as_obj().unwrap();
        assert_eq!(metrics.len(), END_TO_END.len());
        assert_eq!(
            metrics["setup_s"].get("unit").and_then(Value::as_str),
            Some("s")
        );
    }

    #[test]
    fn values_format_readably() {
        assert_eq!(format_value(52424.0), "52424");
        assert_eq!(format_value(0.452_123_4), "0.452123");
        assert_eq!(format_value(1.2594), "1.25940");
        assert_eq!(format_value(0.000_012_3), "1.230e-5");
    }
}
