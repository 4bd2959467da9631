//! The portable schedule log: a versioned, JSON-serializable record of
//! every scheduler decision of one machine run.
//!
//! A simulated-machine run is fully determined by the sequence of
//! choose-point decisions its [`Scheduler`](jungle_memsim::Scheduler)
//! makes — which process steps, which buffered store drains, which
//! admissible stale version a load observes (and, through the TM
//! algorithms' reactive spin loops, whether a CAS sees the value it
//! expects). A [`ScheduleLog`] captures that sequence together with
//! enough context to re-execute and *verify* it later: the bundled
//! experiment id, the model key, the property, the recorded trace's
//! structural fingerprint, and the Theorem 1 class of the original
//! violation.

use jungle_mc::CheckKind;
use jungle_memsim::ChoicePoint;
use jungle_obs::Json;
use std::path::Path;

/// Current on-disk format version. Bumped on any incompatible change;
/// [`ScheduleLog::load`] rejects logs from other versions rather
/// than misreading them.
pub const FORMAT_VERSION: u64 = 1;

/// A recorded schedule: decision sequence plus replay context.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ScheduleLog {
    /// Format version ([`FORMAT_VERSION`] when produced by this crate).
    pub version: u64,
    /// Id of the bundled experiment the log was recorded against
    /// (e.g. `"thm1-case1/SC"`), when there is one — this is how
    /// `report --replay` resolves the program/algorithm/model triple.
    pub experiment: Option<String>,
    /// Registry key of the memory model the property was parametrized
    /// by (and, for checker-game experiments, SC execution).
    pub model: String,
    /// The property the recorded run was checked against.
    pub kind: CheckKind,
    /// Sweep seed whose scheduler produced the recording, if the log
    /// came from a seeded sweep (shrunk logs keep the original's seed).
    pub seed: Option<u64>,
    /// Step bound the recorded run executed under.
    pub max_steps: usize,
    /// `Trace::cache_key` of the recorded run — the history fingerprint
    /// a replay must reproduce.
    pub fingerprint: u64,
    /// Did the recorded trace violate the property?
    pub violating: bool,
    /// Theorem 1 class (`"Mrr"`/`"Mrw"`/`"Mwr"`/`"Mww"`) the explainer
    /// assigned to the recorded violation, when it could.
    pub class: Option<String>,
    /// The decision sequence.
    pub decisions: Vec<ChoicePoint>,
}

impl ScheduleLog {
    /// Serialize to the versioned JSON object. Decisions are encoded
    /// compactly as `[chosen, options, action]` triples.
    pub(crate) fn to_json(&self) -> Json {
        let mut j = Json::obj();
        j.push("version", self.version.into())
            .push(
                "experiment",
                match &self.experiment {
                    Some(id) => id.as_str().into(),
                    None => Json::Null,
                },
            )
            .push("model", self.model.as_str().into())
            .push("kind", self.kind.tag().into())
            .push(
                "seed",
                match self.seed {
                    Some(s) => s.into(),
                    None => Json::Null,
                },
            )
            .push("max_steps", self.max_steps.into())
            .push("fingerprint", self.fingerprint.into())
            .push("violating", self.violating.into())
            .push(
                "class",
                match &self.class {
                    Some(c) => c.as_str().into(),
                    None => Json::Null,
                },
            )
            .push(
                "decisions",
                Json::Arr(
                    self.decisions
                        .iter()
                        .map(|d| {
                            Json::Arr(vec![d.chosen.into(), d.options.into(), d.action.into()])
                        })
                        .collect(),
                ),
            );
        j
    }

    /// Rebuild a log from its JSON form. Errors name the offending
    /// field; a version mismatch is an error, not a best-effort parse.
    pub(crate) fn from_json(j: &Json) -> Result<ScheduleLog, String> {
        let num = |key: &str| -> Result<u64, String> {
            j.get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("schedule log missing numeric field '{key}'"))
        };
        let version = num("version")?;
        if version != FORMAT_VERSION {
            return Err(format!(
                "schedule log format version {version} (this build reads {FORMAT_VERSION})"
            ));
        }
        let opt_text =
            |key: &str| -> Option<String> { j.get(key).and_then(Json::as_str).map(str::to_string) };
        let kind_tag = j
            .get("kind")
            .and_then(Json::as_str)
            .ok_or("schedule log missing string field 'kind'")?;
        let kind = CheckKind::from_tag(kind_tag)
            .ok_or_else(|| format!("schedule log has unknown kind '{kind_tag}'"))?;
        let violating = match j.get("violating") {
            Some(Json::Bool(b)) => *b,
            _ => return Err("schedule log missing boolean field 'violating'".into()),
        };
        let decisions = match j.get("decisions") {
            Some(Json::Arr(rows)) => rows
                .iter()
                .enumerate()
                .map(|(i, row)| {
                    let Json::Arr(t) = row else {
                        return Err(format!(
                            "decision {i} is not a [chosen, options, action] triple"
                        ));
                    };
                    let get = |k: usize| {
                        t.get(k)
                            .and_then(Json::as_u64)
                            .ok_or_else(|| format!("decision {i} field {k} is not a number"))
                    };
                    Ok(ChoicePoint {
                        chosen: get(0)? as usize,
                        options: get(1)? as usize,
                        action: get(2)?,
                    })
                })
                .collect::<Result<Vec<_>, String>>()?,
            _ => return Err("schedule log missing array field 'decisions'".into()),
        };
        Ok(ScheduleLog {
            version,
            experiment: opt_text("experiment"),
            model: opt_text("model").ok_or("schedule log missing string field 'model'")?,
            kind,
            seed: j.get("seed").and_then(Json::as_u64),
            max_steps: num("max_steps")? as usize,
            fingerprint: num("fingerprint")?,
            violating,
            class: opt_text("class"),
            decisions,
        })
    }

    /// Write the log as pretty-enough single-line JSON to `path`,
    /// creating parent directories as needed.
    pub fn save(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, format!("{}\n", self.to_json()))
    }

    /// Read a log back from `path`.
    pub fn load(path: &Path) -> Result<ScheduleLog, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let j = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        ScheduleLog::from_json(&j)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ScheduleLog {
        ScheduleLog {
            version: FORMAT_VERSION,
            experiment: Some("thm1-case1/SC".into()),
            model: "SC".into(),
            kind: CheckKind::Opacity,
            seed: Some(17),
            max_steps: 8_000,
            fingerprint: 0xdead_beef_cafe,
            violating: true,
            class: Some("Mrr".into()),
            decisions: vec![
                ChoicePoint {
                    chosen: 1,
                    options: 3,
                    action: 0x1_0001_0000,
                },
                ChoicePoint {
                    chosen: 0,
                    options: 2,
                    action: 0x1_0000_0000,
                },
            ],
        }
    }

    #[test]
    fn json_round_trip() {
        let log = sample();
        let text = log.to_json().to_string();
        let back = ScheduleLog::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, log);
    }

    #[test]
    fn optional_fields_round_trip_as_null() {
        let mut log = sample();
        log.experiment = None;
        log.seed = None;
        log.class = None;
        let text = log.to_json().to_string();
        let back = ScheduleLog::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, log);
    }

    #[test]
    fn version_mismatch_is_an_error() {
        let mut j = sample().to_json();
        if let Json::Obj(fields) = &mut j {
            for (k, v) in fields.iter_mut() {
                if k == "version" {
                    *v = 99u64.into();
                }
            }
        }
        let err = ScheduleLog::from_json(&j).unwrap_err();
        assert!(err.contains("version 99"), "{err}");
    }

    #[test]
    fn save_load_round_trip() {
        let dir = std::env::temp_dir().join(format!("jungle-replay-log-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("nested").join("case.json");
        let log = sample();
        log.save(&path).unwrap();
        assert_eq!(ScheduleLog::load(&path).unwrap(), log);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
