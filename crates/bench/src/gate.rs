//! The baseline gate shared by every `--baseline` flag.
//!
//! A benchmark binary writes a JSON report whose `rows` array holds one
//! object per measured configuration. Its `--baseline P` flag compares a
//! new run against a committed report: [`Baseline::load`] reads `P`, and
//! [`Baseline::check`] matches each new row to the baseline row with the
//! same key fields and holds one higher-is-better metric to the tool's
//! floor.
//!
//! A binary may write its report before it gates it, so CI points `--out` at
//! a scratch path and `--baseline` at the committed file: were they the
//! same path, a failing run would overwrite the baseline with its own
//! numbers and the next run would pass. A baseline that is missing or
//! unparseable fails the gate: it would otherwise pass silently.

use titancfi_harness::Json;

/// What one gate run found.
#[derive(Debug, Default)]
pub struct Verdict {
    /// New rows the baseline lacks: reported, not gated.
    pub warnings: Vec<String>,
    /// Rows beyond tolerance, or a baseline that matched no row at all.
    pub failures: Vec<String>,
}

impl Verdict {
    /// Prints the warnings and failures to stderr under `tool`'s name and
    /// says whether the gate passed.
    #[must_use]
    pub fn passed(&self, tool: &str) -> bool {
        for w in &self.warnings {
            eprintln!("{tool}: WARNING {w}");
        }
        for f in &self.failures {
            eprintln!("{tool}: REGRESSION {f}");
        }
        self.failures.is_empty()
    }
}

/// A committed report's rows.
#[derive(Debug)]
pub struct Baseline {
    path: String,
    rows: Vec<Json>,
}

impl Baseline {
    /// Loads the report at `path`.
    ///
    /// # Errors
    ///
    /// Fails when the file is missing or unreadable, is not JSON, or has
    /// no `rows` array.
    pub fn load(path: &str) -> Result<Baseline, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read baseline {path}: {e}"))?;
        let json = Json::parse(&text).map_err(|e| format!("cannot parse baseline {path}: {e}"))?;
        let rows = json
            .get("rows")
            .and_then(Json::as_arr)
            .ok_or_else(|| format!("baseline {path} has no `rows` array"))?
            .to_vec();
        Ok(Baseline {
            path: path.to_string(),
            rows,
        })
    }

    /// Gates `metric` of each new row against the baseline row whose `key`
    /// fields are equal: a row fails below `floor ×` its baseline value. A
    /// row the baseline lacks is a warning; a run that matches no baseline
    /// row at all fails, since it checked nothing.
    #[must_use]
    pub fn check(&self, rows: &[Json], key: &[&str], metric: &str, floor: f64) -> Verdict {
        let mut verdict = Verdict::default();
        let mut matched = 0;
        for row in rows {
            let name = key
                .iter()
                .map(|k| match row.get(k) {
                    Some(Json::Str(s)) => s.clone(),
                    Some(v) => v.encode(),
                    None => "?".to_string(),
                })
                .collect::<Vec<_>>()
                .join("/");
            let base = self
                .rows
                .iter()
                .find(|b| key.iter().all(|k| b.get(k) == row.get(k)))
                .and_then(|b| b.get(metric))
                .and_then(Json::as_num);
            let (Some(base), Some(value)) = (base, row.get(metric).and_then(Json::as_num)) else {
                verdict
                    .warnings
                    .push(format!("{name} missing from baseline — not gated"));
                continue;
            };
            matched += 1;
            if value < floor * base {
                verdict.failures.push(format!(
                    "{name}: {metric} {value:.2} < {:.0}% of baseline {base:.2}",
                    floor * 100.0
                ));
            }
        }
        if matched == 0 {
            verdict.failures.push(format!(
                "baseline {} matched zero rows — the gate checked nothing; regenerate it",
                self.path
            ));
        }
        verdict
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(scenario: &str, speedup: f64) -> Json {
        Json::obj(vec![
            ("scenario", Json::Str(scenario.to_string())),
            ("speedup", Json::Num(speedup)),
        ])
    }

    fn baseline(rows: Vec<Json>) -> Baseline {
        Baseline {
            path: "BENCH_test.json".to_string(),
            rows,
        }
    }

    fn temp_file(tag: &str, text: &str) -> std::path::PathBuf {
        let path =
            std::env::temp_dir().join(format!("titancfi-gate-{tag}-{}.json", std::process::id()));
        std::fs::write(&path, text).expect("write temp baseline");
        path
    }

    #[test]
    fn missing_file_fails() {
        let path =
            std::env::temp_dir().join(format!("titancfi-gate-absent-{}.json", std::process::id()));
        let err = Baseline::load(path.to_str().unwrap()).unwrap_err();
        assert!(err.contains("cannot read"), "{err}");
    }

    #[test]
    fn unparseable_file_fails() {
        let path = temp_file("truncated", r#"{"schema":1,"rows":[{"scenario":"#);
        let err = Baseline::load(path.to_str().unwrap()).unwrap_err();
        assert!(err.contains("cannot parse"), "{err}");
        let _ = std::fs::remove_file(&path);

        let path = temp_file("rowless", r#"{"schema":1}"#);
        let err = Baseline::load(path.to_str().unwrap()).unwrap_err();
        assert!(err.contains("no `rows` array"), "{err}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn loads_a_valid_report() {
        let path = temp_file(
            "valid",
            &Json::obj(vec![("rows", Json::Arr(vec![row("a", 3.0)]))]).encode(),
        );
        let base = Baseline::load(path.to_str().unwrap()).expect("valid baseline");
        let verdict = base.check(&[row("a", 3.0)], &["scenario"], "speedup", 0.8);
        assert!(verdict.failures.is_empty() && verdict.warnings.is_empty());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn row_beyond_tolerance_fails() {
        let base = baseline(vec![row("a", 3.0), row("b", 3.0)]);
        let verdict = base.check(
            &[row("a", 2.5), row("b", 2.3)],
            &["scenario"],
            "speedup",
            0.8,
        );
        assert_eq!(verdict.failures.len(), 1, "{:?}", verdict.failures);
        assert!(verdict.failures[0].starts_with("b: speedup 2.30 < 80%"));

        // Multi-field keys must match on every field.
        let keyed = |devices: f64, shards: f64, logs: f64| {
            Json::obj(vec![
                ("devices", Json::Num(devices)),
                ("shards", Json::Num(shards)),
                ("logs_per_sec", Json::Num(logs)),
            ])
        };
        let base = baseline(vec![keyed(16.0, 2.0, 100.0), keyed(16.0, 3.0, 10.0)]);
        let verdict = base.check(
            &[keyed(16.0, 2.0, 95.0), keyed(16.0, 3.0, 7.0)],
            &["devices", "shards"],
            "logs_per_sec",
            0.8,
        );
        assert_eq!(verdict.failures.len(), 1, "{:?}", verdict.failures);
        assert!(verdict.failures[0].starts_with("16/3: logs_per_sec 7.00 < 80%"));
    }

    #[test]
    fn row_missing_from_baseline_warns() {
        let base = baseline(vec![row("a", 3.0)]);
        let verdict = base.check(
            &[row("a", 3.0), row("new", 1.0)],
            &["scenario"],
            "speedup",
            0.8,
        );
        assert!(verdict.failures.is_empty(), "{:?}", verdict.failures);
        assert_eq!(
            verdict.warnings,
            vec!["new missing from baseline — not gated".to_string()]
        );
    }

    #[test]
    fn zero_matches_fail() {
        let base = baseline(vec![row("old", 3.0)]);
        let verdict = base.check(&[row("renamed", 3.0)], &["scenario"], "speedup", 0.8);
        assert_eq!(verdict.warnings.len(), 1);
        assert_eq!(verdict.failures.len(), 1);
        assert!(verdict.failures[0].contains("matched zero rows"));

        // Numeric keys match by value, as fleet device counts do.
        let devices = |n: f64, rate: f64| {
            Json::obj(vec![
                ("devices", Json::Num(n)),
                ("logs_per_sec", Json::Num(rate)),
            ])
        };
        let base = baseline(vec![devices(8.0, 1000.0)]);
        let verdict = base.check(&[devices(32.0, 1000.0)], &["devices"], "logs_per_sec", 0.8);
        assert_eq!(
            verdict.warnings,
            vec!["32 missing from baseline — not gated".to_string()]
        );
        assert_eq!(verdict.failures.len(), 1);
    }
}
