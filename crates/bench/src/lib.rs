//! Workload generators and measurement helpers for the experiment
//! suite (EXPERIMENTS.md). The `report` binary and the standalone
//! benchmark (`perfbench/`) build on these.

#![forbid(unsafe_code)]

pub mod workloads;

use std::time::{Duration, Instant};

use lps_core::{Database, Dialect, Model};
use lps_engine::{EvalConfig, SetUniverse};

/// Build a database from source with a dialect and universe policy.
pub fn db(src: &str, dialect: Dialect, universe: SetUniverse) -> Database {
    let mut db = Database::with_config(
        dialect,
        EvalConfig {
            set_universe: universe,
            ..EvalConfig::default()
        },
    );
    db.load_str(src).expect("workload parses");
    db
}

/// Build a database with full evaluation-config control.
pub fn db_cfg(src: &str, dialect: Dialect, config: EvalConfig) -> Database {
    let mut db = Database::with_config(dialect, config);
    db.load_str(src).expect("workload parses");
    db
}

/// Evaluate and return the model, panicking on error (workloads are
/// known-good).
pub fn eval(db: &Database) -> Model {
    db.evaluate().expect("workload evaluates")
}

/// Wall-clock one evaluation.
pub fn time_eval(db: &Database) -> (Duration, Model) {
    let start = Instant::now();
    let model = eval(db);
    (start.elapsed(), model)
}

/// Median-of-`n` wall time for `f` (the `report` binary's timing
/// primitive).
pub fn median_time(n: usize, mut f: impl FnMut()) -> Duration {
    let mut samples: Vec<Duration> = (0..n.max(1))
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed()
        })
        .collect();
    samples.sort();
    samples[samples.len() / 2]
}

/// One rendered experiment section, retained for the JSON report.
struct Section {
    id: String,
    title: String,
    columns: Vec<String>,
    rows: Vec<Vec<String>>,
}

/// Collects experiment output for the `report` binary: prints each
/// section as a plain-text table and optionally accumulates a JSON
/// document (`BENCH_report.json`), so the perf trajectory can be
/// compared across commits instead of eyeballing console tables.
pub struct Report {
    /// Smoke mode: experiments pick reduced parameter sweeps so the
    /// whole suite finishes in seconds (used by the CI bench smoke).
    pub smoke: bool,
    collect_json: bool,
    /// The experiment ids requested on the command line (empty = the
    /// full suite) — recorded in the JSON so a partial run is never
    /// mistaken for a complete baseline.
    experiments: Vec<String>,
    sections: Vec<Section>,
}

impl Report {
    /// New collector. `collect_json` retains sections for
    /// [`Report::to_json`]; `smoke` requests reduced parameters.
    pub fn new(collect_json: bool, smoke: bool) -> Self {
        Report {
            smoke,
            collect_json,
            experiments: Vec::new(),
            sections: Vec::new(),
        }
    }

    /// Record which experiment ids this run was restricted to (empty =
    /// all). Emitted as the JSON `experiments` field.
    pub fn set_experiments(&mut self, ids: &[String]) {
        self.experiments = ids.to_vec();
    }

    /// Print one experiment table and (in JSON mode) retain it.
    pub fn section(&mut self, id: &str, title: &str, header: &[&str], rows: &[Vec<String>]) {
        print!("{}", table(title, header, rows));
        if self.collect_json {
            self.sections.push(Section {
                id: id.to_owned(),
                title: title.to_owned(),
                columns: header.iter().map(|s| (*s).to_owned()).collect(),
                rows: rows.to_vec(),
            });
        }
    }

    /// The collected sections as a JSON document. Cells stay strings —
    /// consumers parse the `*_us` / `*_ns` columns they care about.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"smoke\": ");
        out.push_str(if self.smoke { "true" } else { "false" });
        out.push_str(",\n  \"experiments\": ");
        if self.experiments.is_empty() {
            out.push_str("\"all\"");
        } else {
            push_json_str_array(&mut out, &self.experiments);
        }
        out.push_str(",\n  \"sections\": [");
        for (i, s) in self.sections.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    {\"id\": ");
            push_json_str(&mut out, &s.id);
            out.push_str(", \"title\": ");
            push_json_str(&mut out, &s.title);
            out.push_str(", \"columns\": ");
            push_json_str_array(&mut out, &s.columns);
            out.push_str(", \"rows\": [");
            for (j, row) in s.rows.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                push_json_str_array(&mut out, row);
            }
            out.push_str("]}");
        }
        out.push_str("\n  ]\n}\n");
        out
    }

    /// Write [`Report::to_json`] to `path`.
    pub fn write_json(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_json())
    }
}

fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

fn push_json_str_array(out: &mut String, items: &[String]) {
    out.push('[');
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        push_json_str(out, item);
    }
    out.push(']');
}

/// Render a plain-text table: header plus rows.
pub fn table(title: &str, header: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = format!("\n== {title} ==\n");
    let fmt_row = |cells: Vec<String>, widths: &[usize]| -> String {
        cells
            .iter()
            .zip(widths)
            .map(|(c, w)| format!("{c:>w$}"))
            .collect::<Vec<_>>()
            .join("  ")
    };
    out.push_str(&fmt_row(
        header.iter().map(|s| s.to_string()).collect(),
        &widths,
    ));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row.clone(), &widths));
        out.push('\n');
    }
    out
}

/// Format a duration in microseconds with 1 decimal.
pub fn us(d: Duration) -> String {
    format!("{:.1}", d.as_secs_f64() * 1e6)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_sources_evaluate() {
        let src = workloads::transitive_closure(8, 42);
        let d = db(&src, Dialect::Elps, SetUniverse::Reject);
        let m = eval(&d);
        assert!(m.count("t", 2) > 0);
    }

    #[test]
    fn report_json_is_well_formed() {
        let mut rep = Report::new(true, true);
        rep.section(
            "e0",
            "demo \"quoted\" — title",
            &["n", "time_us"],
            &[vec!["1".into(), "2.0".into()]],
        );
        let json = rep.to_json();
        assert!(json.contains("\"id\": \"e0\""));
        assert!(json.contains("\\\"quoted\\\""));
        assert!(json.contains("\"smoke\": true"));
        assert!(json.contains("\"experiments\": \"all\""));
        assert!(json.contains("[\"1\", \"2.0\"]"));
        // A restricted run records its scope.
        rep.set_experiments(&["e2".into(), "e7".into()]);
        assert!(rep.to_json().contains("\"experiments\": [\"e2\", \"e7\"]"));
    }

    #[test]
    fn table_renders_aligned() {
        let t = table(
            "demo",
            &["n", "time"],
            &[
                vec!["1".into(), "2.0".into()],
                vec!["10".into(), "3.5".into()],
            ],
        );
        assert!(t.contains("demo"));
        assert!(t.contains("time"));
    }
}
