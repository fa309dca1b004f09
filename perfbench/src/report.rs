//! Operation accounting and the one-line JSON the harness prints.

use std::fmt::Write;

/// Operations attempted and failed, with the first few failure messages.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
}

impl Tally {
    /// Counts one operation; a failed one records `what` (printed later).
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(what());
        }
    }

    /// Counts one more failure of an operation already attempted.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.errors.len() < 20 {
            self.errors.push(what);
        }
    }
}

/// Named metrics with units, in insertion order.
#[derive(Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }

    /// `{"metrics": {...}, "attempted": n, "failed": n, "errors": [...]}`.
    pub fn to_json(&self, tally: &Tally) -> String {
        let mut s = String::from("{\"metrics\": {");
        for (i, (name, value, unit)) in self.0.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            // Non-finite values are not JSON; `null` makes the reader
            // reject the run instead of misreading it.
            let v = if value.is_finite() {
                format!("{value:?}")
            } else {
                "null".into()
            };
            let _ = write!(
                s,
                "{sep}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
            );
        }
        let _ = write!(
            s,
            "}}, \"attempted\": {}, \"failed\": {}, \"errors\": [",
            tally.attempted, tally.failed
        );
        for (i, e) in tally.errors.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(s, "{sep}\"{}\"", escape(e));
        }
        s.push_str("]}");
        s
    }
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if c.is_control() => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}
