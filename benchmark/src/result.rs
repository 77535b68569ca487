//! The result of one workload run, as printed and as saved by `--out`.

use titancfi_harness::Json;

/// A named value with its unit.
pub type Metric = (String, f64, String);

#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadResult {
    pub correct: bool,
    pub attempted: u64,
    /// Operations (commit logs; frames on `fleet`) in laps that failed a
    /// check — all of them when a reference check failed.
    pub failed: u64,
    /// The gated metrics of the run's kind (end-to-end or per-layer).
    pub metrics: Vec<Metric>,
    /// Printed and saved, never gated.
    pub info: Vec<Metric>,
    pub laps: u64,
    pub failures: Vec<String>,
}

fn metrics_json(metrics: &[Metric]) -> Json {
    Json::Obj(
        metrics
            .iter()
            .map(|(name, value, unit)| {
                (
                    name.clone(),
                    Json::obj(vec![
                        ("value", Json::Num(*value)),
                        ("unit", Json::Str(unit.clone())),
                    ]),
                )
            })
            .collect(),
    )
}

fn metrics_from(json: Option<&Json>) -> Result<Vec<Metric>, String> {
    let Some(Json::Obj(pairs)) = json else {
        return Err("metrics must be an object".to_string());
    };
    pairs
        .iter()
        .map(|(name, m)| {
            let value = m.get("value").and_then(Json::as_num);
            let unit = m.get("unit").and_then(Json::as_str);
            match (value, unit) {
                (Some(v), Some(u)) => Ok((name.clone(), v, u.to_string())),
                _ => Err(format!("metric {name} needs a numeric value and a unit")),
            }
        })
        .collect()
}

impl WorkloadResult {
    /// The one-line summary: exactly `correct`, `attempted`, `failed` and
    /// `metrics`.
    #[must_use]
    pub fn summary_json(&self) -> Json {
        Json::obj(vec![
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", metrics_json(&self.metrics)),
        ])
    }

    /// Everything the summary leaves out.
    #[must_use]
    pub fn detail_json(&self) -> Json {
        Json::obj(vec![
            ("laps", Json::Num(self.laps as f64)),
            ("info", metrics_json(&self.info)),
            (
                "failures",
                Json::Arr(self.failures.iter().cloned().map(Json::Str).collect()),
            ),
        ])
    }

    /// Summary and detail in one object.
    #[must_use]
    pub fn to_json(&self) -> Json {
        match (self.summary_json(), self.detail_json()) {
            (Json::Obj(mut a), Json::Obj(b)) => {
                a.extend(b);
                Json::Obj(a)
            }
            _ => unreachable!("both halves are objects"),
        }
    }

    /// Reads [`WorkloadResult::to_json`] output back.
    ///
    /// # Errors
    ///
    /// Describes the first missing or mistyped field.
    pub fn from_json(json: &Json) -> Result<WorkloadResult, String> {
        let num = |key: &str| {
            json.get(key)
                .and_then(Json::as_num)
                .ok_or_else(|| format!("missing number `{key}`"))
        };
        let correct = match json.get("correct") {
            Some(Json::Bool(b)) => *b,
            _ => return Err("missing boolean `correct`".to_string()),
        };
        let failures = json
            .get("failures")
            .and_then(Json::as_arr)
            .unwrap_or_default()
            .iter()
            .filter_map(|f| f.as_str().map(str::to_string))
            .collect();
        Ok(WorkloadResult {
            correct,
            attempted: num("attempted")? as u64,
            failed: num("failed")? as u64,
            metrics: metrics_from(json.get("metrics"))?,
            info: metrics_from(json.get("info"))?,
            laps: num("laps")? as u64,
            failures,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_json_round_trips() {
        let result = WorkloadResult {
            correct: true,
            attempted: 123_456,
            failed: 0,
            metrics: vec![
                ("lap_ms".to_string(), 24.123_456_789_012_3, "ms".to_string()),
                ("sim_cycles".to_string(), 1_345_678.0, "cycles".to_string()),
                ("cfi_overhead_pct".to_string(), 1e-7, "%".to_string()),
            ],
            info: vec![("lap_p90_ms".to_string(), 25.5, "ms".to_string())],
            laps: 401,
            failures: vec!["lap 3: \"quoted\" \\ problem".to_string()],
        };
        let text = result.to_json().encode();
        let back =
            WorkloadResult::from_json(&Json::parse(&text).expect("parses")).expect("well-formed");
        assert_eq!(back, result);
        let summary = result.summary_json();
        let Json::Obj(pairs) = &summary else {
            panic!("summary is an object")
        };
        let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    }

    #[test]
    fn malformed_results_are_rejected() {
        let json = Json::parse(r#"{"correct":true,"attempted":1}"#).expect("parses");
        assert!(WorkloadResult::from_json(&json).is_err());
    }
}
