//! Result lines: metric names, values and units rendered as JSON.

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// A metric name starts with a letter or digit and is made of at most
/// 64 of `[A-Za-z0-9_.-]`.
pub fn valid_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(ok)
}

/// A JSON number with every digit of the value (Rust's shortest
/// round-trip form, which never uses an exponent).
pub fn num(v: f64) -> String {
    assert!(v.is_finite(), "metric values must be finite, got {v}");
    format!("{v}")
}

/// A JSON string literal for the plain ASCII text this benchmark emits.
pub fn string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// `{"name": {"value": v, "unit": u}, ...}`; panics on an invalid name
/// or a repeated one.
pub fn metrics_json(metrics: &[Metric]) -> String {
    let mut seen = std::collections::BTreeSet::new();
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            assert!(valid_name(m.name), "invalid metric name {:?}", m.name);
            assert!(seen.insert(m.name), "metric {:?} reported twice", m.name);
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                string(m.name),
                num(m.value),
                string(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// The benchmark's last output line.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metrics_json(metrics)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_are_validated() {
        for ok in [
            "wall_s",
            "setup_s",
            "netsim.sim.retransmission_share",
            "p99-ms",
            "9lives",
        ] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in [
            "",
            "_lead",
            ".lead",
            "has space",
            "unit/s",
            "naïve",
            "a\"b",
            &"x".repeat(65),
        ] {
            assert!(!valid_name(bad), "{bad}");
        }
        assert!(valid_name(&"x".repeat(64)));
    }

    #[test]
    #[should_panic(expected = "invalid metric name")]
    fn invalid_name_is_refused() {
        metrics_json(&[Metric {
            name: "bad name",
            value: 1.0,
            unit: "s",
        }]);
    }

    #[test]
    #[should_panic(expected = "reported twice")]
    fn repeated_name_is_refused() {
        let m = Metric {
            name: "wall_s",
            value: 1.0,
            unit: "s",
        };
        metrics_json(&[m.clone(), m]);
    }

    #[test]
    fn result_line_shape() {
        let line = result_line(
            true,
            3,
            0,
            &[Metric {
                name: "wall_s",
                value: 2.5,
                unit: "s",
            }],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"wall_s\": {\"value\": 2.5, \"unit\": \"s\"}}}"
        );
        assert_eq!(num(0.000123), "0.000123");
        assert_eq!(num(3739297.0), "3739297");
    }
}
