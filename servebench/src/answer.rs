//! What an answer must say, on the fields that are the same in every
//! process.
//!
//! `fingerprint` hashes interned-string indices, so it differs between
//! `mmt serve` and an in-process session over the same requests; it is
//! never compared. Violations are enumerated in intern order for the same
//! reason, so each check's bindings compare as a sorted multiset.

use crate::json::Json;
use mmt_core::{SyncRepair, SyncSession};

/// The process-independent part of a `status` result (also the result
/// of `open` and of every `edit`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StatusView {
    pub consistent: bool,
    pub violations: u64,
    pub journal: u64,
    /// Per directional check, in report order: `holds` and the sorted
    /// violation bindings, each rendered as `var=value,...`.
    pub checks: Vec<(bool, Vec<String>)>,
}

impl StatusView {
    /// What `mmt serve` must answer for `s`.
    pub fn of_session(s: &SyncSession) -> StatusView {
        let status = s.status();
        let checks = s
            .report()
            .checks
            .iter()
            .map(|c| {
                let mut bindings: Vec<String> = c
                    .violations
                    .iter()
                    .map(|v| {
                        let pairs: Vec<String> =
                            v.vars.iter().map(|(k, val)| format!("{k}={val}")).collect();
                        pairs.join(",")
                    })
                    .collect();
                bindings.sort();
                (c.holds, bindings)
            })
            .collect();
        StatusView {
            consistent: status.consistent,
            violations: status.violations as u64,
            journal: s.journal().len() as u64,
            checks,
        }
    }

    /// Reads the view back from a `status`-shaped result.
    pub fn of_result(r: &Json) -> Result<StatusView, String> {
        let field = |k: &str| r.get(k).ok_or_else(|| format!("status lacks `{k}`"));
        let mut checks = Vec::new();
        for c in field("checks")?
            .as_arr()
            .ok_or("`checks` is not an array")?
        {
            let holds = c
                .get("holds")
                .and_then(Json::as_bool)
                .ok_or("check lacks `holds`")?;
            let mut bindings = Vec::new();
            for v in c
                .get("violations")
                .and_then(Json::as_arr)
                .ok_or("check lacks `violations`")?
            {
                let pairs: Vec<String> = v
                    .as_obj()
                    .ok_or("binding is not an object")?
                    .iter()
                    .map(|(k, val)| format!("{k}={}", val.as_str().unwrap_or("?")))
                    .collect();
                bindings.push(pairs.join(","));
            }
            bindings.sort();
            checks.push((holds, bindings));
        }
        Ok(StatusView {
            consistent: field("consistent")?.as_bool().ok_or("bad `consistent`")?,
            violations: field("violations")?.as_u64().ok_or("bad `violations`")?,
            journal: field("journal")?.as_u64().ok_or("bad `journal`")?,
            checks,
        })
    }
}

/// The process-independent part of a `repair` result.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RepairView {
    pub repaired: bool,
    pub cost: u64,
    pub deltas: Vec<String>,
}

impl RepairView {
    pub fn of_outcome(out: &Option<SyncRepair>) -> RepairView {
        match out {
            None => RepairView {
                repaired: false,
                cost: 0,
                deltas: Vec::new(),
            },
            Some(r) => RepairView {
                repaired: true,
                cost: r.cost,
                deltas: r.deltas.iter().map(|d| d.to_string()).collect(),
            },
        }
    }

    fn of_result(r: &Json) -> Result<RepairView, String> {
        let repaired = r
            .get("repaired")
            .and_then(Json::as_bool)
            .ok_or("repair lacks `repaired`")?;
        if !repaired {
            return Ok(RepairView {
                repaired,
                cost: 0,
                deltas: Vec::new(),
            });
        }
        let deltas = r
            .get("deltas")
            .and_then(Json::as_arr)
            .ok_or("repair lacks `deltas`")?
            .iter()
            .map(|d| {
                d.as_str()
                    .map(str::to_string)
                    .ok_or("delta is not a string")
            })
            .collect::<Result<_, _>>()?;
        Ok(RepairView {
            repaired,
            cost: r.get("cost").and_then(Json::as_u64).ok_or("bad `cost`")?,
            deltas,
        })
    }
}

/// The expected result of one request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Expect {
    Status(StatusView),
    Repair(RepairView),
    Rollback { undone: u64 },
}

/// Parses one answer line and returns its `result` after checking the
/// echoed id and `ok:true`.
pub fn result_of(line: &str, id: u64) -> Result<Json, String> {
    let v = Json::parse(line).map_err(|e| format!("unparsable answer: {e}"))?;
    if v.get("id").and_then(Json::as_u64) != Some(id) {
        return Err(format!("answer to another id (wanted {id})"));
    }
    if v.get("ok").and_then(Json::as_bool) != Some(true) {
        let err = v.get("error").and_then(Json::as_str).unwrap_or("?");
        return Err(format!("ok:false: {err}"));
    }
    v.get("result")
        .cloned()
        .ok_or_else(|| "answer lacks `result`".into())
}

/// Checks one answer line against its expectation.
pub fn check(line: &str, id: u64, expect: &Expect) -> Result<(), String> {
    let r = result_of(line, id)?;
    let ok = match expect {
        Expect::Status(want) => StatusView::of_result(&r)? == *want,
        Expect::Repair(want) => RepairView::of_result(&r)? == *want,
        Expect::Rollback { undone } => r.get("undone").and_then(Json::as_u64) == Some(*undone),
    };
    if ok {
        Ok(())
    } else {
        Err(format!("answer differs from the reference: {line}"))
    }
}

/// Counts the answers that are missing or differ from their
/// expectations; `answers[i]` answers request id `first_id + i`.
pub fn count_failures(
    answers: &[String],
    expects: &[&Expect],
    first_id: u64,
    mut report: impl FnMut(String),
) -> usize {
    let mut failed = expects.len().saturating_sub(answers.len());
    for (i, (line, want)) in answers.iter().zip(expects).enumerate() {
        if let Err(e) = check(line, first_id + i as u64, want) {
            failed += 1;
            report(e);
        }
    }
    failed
}

#[cfg(test)]
mod tests {
    use super::*;

    const STATUS: &str = r#"{"id":7,"ok":true,"result":{"consistent":false,"violations":2,"journal":1,"fingerprint":99,"checks":[{"relation":"R","dep":"a -> b","holds":false,"violations":[{"n":"y"},{"n":"x"}]},{"relation":"R","dep":"b -> a","holds":true,"violations":[]}]}}"#;

    fn status_view() -> StatusView {
        StatusView {
            consistent: false,
            violations: 2,
            journal: 1,
            checks: vec![
                (false, vec!["n=x".into(), "n=y".into()]),
                (true, Vec::new()),
            ],
        }
    }

    #[test]
    fn bindings_compare_as_a_multiset_and_fingerprints_are_ignored() {
        let want = Expect::Status(status_view());
        assert_eq!(check(STATUS, 7, &want), Ok(()));
        let other_fp = STATUS.replace("\"fingerprint\":99", "\"fingerprint\":12345");
        assert_eq!(check(&other_fp, 7, &want), Ok(()));
        assert!(check(STATUS, 8, &want).is_err(), "wrong id");
    }

    #[test]
    fn a_tampered_expectation_is_counted() {
        let good = Expect::Status(status_view());
        let mut tampered_view = status_view();
        tampered_view.violations += 1;
        let tampered = Expect::Status(tampered_view);
        let repair = Expect::Repair(RepairView {
            repaired: true,
            cost: 2,
            deltas: vec!["+ o1".into()],
        });
        let answers = vec![
            STATUS.to_string(),
            STATUS.replace("\"id\":7", "\"id\":8"),
            r#"{"id":9,"ok":true,"result":{"repaired":true,"cost":2,"deltas":["+ o1"]}}"#
                .to_string(),
        ];
        let mut seen = Vec::new();
        let clean = count_failures(&answers, &[&good, &good, &repair], 7, |e| seen.push(e));
        assert_eq!((clean, seen.len()), (0, 0));
        let failed = count_failures(&answers, &[&good, &tampered, &repair], 7, |e| seen.push(e));
        assert_eq!(failed, 1);
        assert_eq!(seen.len(), 1);
        // An unanswered request counts too.
        let missing = count_failures(&answers[..2], &[&good, &good, &repair], 7, |_| {});
        assert_eq!(missing, 1);
    }
}
