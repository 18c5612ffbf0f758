//! The run's result: human-readable lines, then one JSON object as the last
//! line of standard output.

use std::fmt::Write;

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

#[derive(Debug, Clone)]
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Lines printed before the JSON: named workload metrics with their
    /// units, percentile labels, verification results.
    pub notes: Vec<String>,
}

impl Default for Report {
    fn default() -> Self {
        Report {
            correct: true,
            attempted: 0,
            failed: 0,
            metrics: Vec::new(),
            notes: Vec::new(),
        }
    }
}

impl Report {
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        if !value.is_finite() {
            self.fail(format!("metric {name} is not finite ({value})"));
        }
        self.metrics.push(Metric { name, value, unit });
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Marks the run incorrect, keeping the reason.
    pub fn fail(&mut self, why: impl Into<String>) {
        self.correct = false;
        self.notes.push(format!("CHECK FAILED: {}", why.into()));
    }

    pub fn to_json(&self) -> String {
        let mut metrics = String::new();
        for (i, m) in self.metrics.iter().enumerate() {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                metrics,
                "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.correct, self.attempted, self.failed
        )
    }

    pub fn print(&self) {
        for line in &self.notes {
            println!("# {line}");
        }
        for m in &self.metrics {
            println!("# {} = {} {}", m.name, m.value, m.unit);
        }
        println!("{}", self.to_json());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_has_exactly_the_contract_keys() {
        let mut report = Report {
            attempted: 3,
            ..Report::default()
        };
        report.metric("setup_s", 0.25, "s");
        report.metric("op_p50_us", 12.5, "us");
        assert_eq!(
            report.to_json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}, \
             \"op_p50_us\": {\"value\": 12.5, \"unit\": \"us\"}}}"
        );
    }

    #[test]
    fn non_finite_metric_fails_the_run() {
        let mut report = Report::default();
        report.metric("pass_s", f64::NAN, "s");
        assert!(!report.correct);
        assert!(report.to_json().contains("\"value\": 0,"));
    }
}
