//! Prometheus text-exposition rendering.
//!
//! A tiny, deterministic writer for the Prometheus text format
//! (`# TYPE` headers, `name{label="value"} 1.000000` samples). There is
//! no HTTP endpoint here — simulations run to completion, so exporters
//! write the whole exposition once at the end of a run. Everything is
//! rendered with fixed six-decimal formatting from caller-supplied
//! values in caller-determined (sorted) order, so two same-seed runs
//! produce byte-identical expositions (asserted by
//! `tests/determinism.rs`).

use std::fmt::Write as _;

/// Render an `f64` the way every exporter in this crate does: fixed six
/// decimals, no exponent. Non-finite values use the spellings the
/// Prometheus text format requires (`NaN`, `+Inf`, `-Inf`) — Rust's
/// default `{:.6}` would emit `NaN`/`inf`/`-inf`, and lowercase `inf`
/// is not parseable by Prometheus. Deterministic for every value.
pub fn fixed(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v == f64::INFINITY {
        "+Inf".to_string()
    } else if v == f64::NEG_INFINITY {
        "-Inf".to_string()
    } else {
        format!("{v:.6}")
    }
}

/// Incremental builder for one exposition document.
#[derive(Debug, Default)]
pub struct PromText {
    out: String,
}

impl PromText {
    pub fn new() -> PromText {
        PromText::default()
    }

    /// Emit a `# TYPE` header. Call once per metric family, before its
    /// samples.
    pub fn type_line(&mut self, name: &str, kind: &str) {
        let _ = writeln!(self.out, "# TYPE {name} {kind}");
    }

    /// Emit one sample line. Labels are rendered in the order given —
    /// callers sort them (or use a fixed order) for determinism.
    pub fn sample(&mut self, name: &str, labels: &[(&str, &str)], value: f64) {
        self.out.push_str(name);
        if !labels.is_empty() {
            self.out.push('{');
            for (i, (k, v)) in labels.iter().enumerate() {
                if i > 0 {
                    self.out.push(',');
                }
                let _ = write!(self.out, "{k}=\"{}\"", escape_label(v));
            }
            self.out.push('}');
        }
        let _ = writeln!(self.out, " {}", fixed(value));
    }

    /// The finished exposition.
    pub fn finish(self) -> String {
        self.out
    }
}

/// Prometheus label-value escaping: backslash, double quote, newline.
fn escape_label(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sample_lines_render_exactly() {
        let mut p = PromText::new();
        p.type_line("hyades_link_util", "gauge");
        p.sample(
            "hyades_link_util",
            &[("link", "l0.w1.p2"), ("vc", "high")],
            0.5,
        );
        p.sample("hyades_link_util", &[], 2.0);
        assert_eq!(
            p.finish(),
            "# TYPE hyades_link_util gauge\n\
             hyades_link_util{link=\"l0.w1.p2\",vc=\"high\"} 0.500000\n\
             hyades_link_util 2.000000\n"
        );
    }

    #[test]
    fn label_values_are_escaped() {
        assert_eq!(escape_label("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }

    #[test]
    fn hostile_link_and_flow_names_render_parseably() {
        // Link/flow names are caller-supplied strings; a name containing
        // the format's own metacharacters must round-trip through label
        // escaping without breaking the sample line.
        let mut p = PromText::new();
        p.type_line("hyades_flow_bytes", "gauge");
        p.sample(
            "hyades_flow_bytes",
            &[("flow", "src=\"a\\b\"\ndst=c"), ("link", "l0.\"w1\".p2")],
            7.0,
        );
        assert_eq!(
            p.finish(),
            "# TYPE hyades_flow_bytes gauge\n\
             hyades_flow_bytes{flow=\"src=\\\"a\\\\b\\\"\\ndst=c\",link=\"l0.\\\"w1\\\".p2\"} 7.000000\n"
        );
    }

    #[test]
    fn fixed_is_six_decimals() {
        assert_eq!(fixed(0.0), "0.000000");
        assert_eq!(fixed(1.0 / 3.0), "0.333333");
        assert_eq!(fixed(1234.5), "1234.500000");
    }

    #[test]
    fn fixed_renders_non_finite_per_spec() {
        // The sentinel publishes gauges that can legitimately be
        // non-finite (that is what it exists to catch); the exposition
        // must use the spec spellings, not Rust's `inf`.
        assert_eq!(fixed(f64::NAN), "NaN");
        assert_eq!(fixed(f64::INFINITY), "+Inf");
        assert_eq!(fixed(f64::NEG_INFINITY), "-Inf");
    }
}
