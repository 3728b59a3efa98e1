//! The checkpoint journal: never lose a sweep.
//!
//! A [`Journal`] appends one JSONL line per finished job, flushed
//! immediately, so an interrupted batch leaves a parseable record of
//! everything that completed. [`Journal::resume`] reads that record back;
//! [`crate::Engine::run_resumable`] then skips every journalled `done` job
//! (restoring its headline numbers) and re-runs only the rest. Because
//! predictions are pure functions of their specs, the combined output is
//! bit-identical to an uninterrupted run.
//!
//! Line schema (all fields always present):
//!
//! ```json
//! {"job":3,"label":"ge @ meiko","outcome":"done","total_ps":81543210,
//!  "comp_ps":61543210,"comm_ps":20000000,"forced_sends":0,"attempts":1}
//! ```
//!
//! `outcome` is one of `done`, `timed_out`, `crashed`; only `done` lines
//! are restorable (the `*_ps` fields of the others are zero). Unparseable
//! lines — e.g. one truncated mid-write by a crash — are skipped, not
//! fatal: resuming after a hard kill must always work.

use crate::job::{JobOutcome, JobResult};
use loggp::Time;
use predsim_lint::json;
use std::fs::{File, OpenOptions};
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// One parsed journal line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JournalEntry {
    /// Position of the job in the submitted batch.
    pub job: usize,
    /// The job's label (must match the spec's for the entry to restore).
    pub label: String,
    /// Outcome tag: `done`, `timed_out` or `crashed`.
    pub outcome: String,
    /// Predicted total running time (zero unless `done`).
    pub total: Time,
    /// Predicted computation time (zero unless `done`).
    pub comp_time: Time,
    /// Predicted communication time (zero unless `done`).
    pub comm_time: Time,
    /// Forced transmissions (zero unless `done`).
    pub forced_sends: usize,
    /// Runs the outcome records ([`JobOutcome::attempts`]).
    pub attempts: u32,
}

impl JournalEntry {
    /// True iff this entry can stand in for re-running the job.
    pub fn is_restorable(&self) -> bool {
        self.outcome == "done"
    }

    fn parse(line: &str) -> Option<JournalEntry> {
        let v = json::parse(line).ok()?;
        let int = |key: &str| v.get(key)?.as_int();
        let ps = |key: &str| int(key).map(|n| Time::from_ps(n.max(0) as u64));
        Some(JournalEntry {
            job: usize::try_from(int("job")?).ok()?,
            label: v.get("label")?.as_str()?.to_string(),
            outcome: v.get("outcome")?.as_str()?.to_string(),
            total: ps("total_ps")?,
            comp_time: ps("comp_ps")?,
            comm_time: ps("comm_ps")?,
            forced_sends: usize::try_from(int("forced_sends")?).ok()?,
            attempts: u32::try_from(int("attempts")?).ok()?,
        })
    }
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

fn render(result: &JobResult) -> String {
    let (total, comp, comm, forced) = result.outcome.totals().unwrap_or_default();
    format!(
        "{{\"job\":{},\"label\":\"{}\",\"outcome\":\"{}\",\"total_ps\":{},\
         \"comp_ps\":{},\"comm_ps\":{},\"forced_sends\":{},\"attempts\":{}}}",
        result.index,
        escape(&result.label),
        result.outcome.kind(),
        total.as_ps(),
        comp.as_ps(),
        comm.as_ps(),
        forced,
        result.outcome.attempts(),
    )
}

/// An append-only JSONL checkpoint file.
pub struct Journal {
    path: PathBuf,
    file: Mutex<File>,
}

/// Create the missing parent directories of a journal path, so callers
/// can point a checkpoint at a nested location that does not exist yet.
fn ensure_parent(path: &Path) -> std::io::Result<()> {
    match path.parent() {
        Some(parent) if !parent.as_os_str().is_empty() => std::fs::create_dir_all(parent),
        _ => Ok(()),
    }
}

impl Journal {
    /// Start a fresh journal at `path`. An existing journal is rotated to
    /// `<path>.prev` (atomically, via rename) rather than truncated in
    /// place, so a crash while the new journal is still empty cannot
    /// destroy the only copy of the previous run's checkpoint. Missing
    /// parent directories are created.
    pub fn create(path: impl AsRef<Path>) -> std::io::Result<Journal> {
        let path = path.as_ref().to_path_buf();
        ensure_parent(&path)?;
        if path.is_file() {
            let mut prev = path.clone().into_os_string();
            prev.push(".prev");
            std::fs::rename(&path, &prev)?;
        }
        let file = File::create(&path)?;
        Ok(Journal {
            path,
            file: Mutex::new(file),
        })
    }

    /// Reopen the journal at `path` for appending, first reading back every
    /// parseable entry already in it. A missing file resumes an empty
    /// journal (nothing restored, everything re-run); missing parent
    /// directories are created, as in [`Journal::create`].
    pub fn resume(path: impl AsRef<Path>) -> std::io::Result<(Journal, Vec<JournalEntry>)> {
        let path = path.as_ref().to_path_buf();
        ensure_parent(&path)?;
        let mut entries = Vec::new();
        match File::open(&path) {
            Ok(f) => {
                for line in BufReader::new(f).lines() {
                    let line = line?;
                    if let Some(e) = JournalEntry::parse(&line) {
                        entries.push(e);
                    }
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(e),
        }
        let file = OpenOptions::new().create(true).append(true).open(&path)?;
        Ok((
            Journal {
                path,
                file: Mutex::new(file),
            },
            entries,
        ))
    }

    /// The journal's file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Append one result and flush, so a kill right after still leaves the
    /// line on disk. Restored outcomes are not re-recorded: their `done`
    /// line is already in the file this journal resumed from.
    pub fn record(&self, result: &JobResult) {
        if matches!(result.outcome, JobOutcome::Restored { .. }) {
            return;
        }
        let line = render(result);
        let mut file = self.file.lock().expect("journal poisoned");
        // A full disk mid-sweep should not take the batch down with it;
        // the worst case is a re-run of this job on resume.
        let _ = writeln!(file, "{line}");
        let _ = file.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::TempDir;
    use predsim_core::Prediction;

    fn result(index: usize, label: &str, outcome: JobOutcome) -> JobResult {
        JobResult {
            index,
            label: label.into(),
            outcome,
        }
    }

    fn done(total_us: f64) -> JobOutcome {
        JobOutcome::Done {
            prediction: Prediction {
                total: Time::from_us(total_us),
                comp_time: Time::from_us(total_us / 2.0),
                comm_time: Time::from_us(total_us / 4.0),
                per_proc_comp: vec![],
                per_proc_comm: vec![],
                per_proc_finish: vec![],
                steps: vec![],
                forced_sends: 3,
            },
        }
    }

    #[test]
    fn create_and_resume_make_missing_parent_directories() {
        let dir = TempDir::new("journal-nested");
        let path = dir.join("a/b/c/ckpt.jsonl");
        assert!(!path.parent().unwrap().exists());
        {
            let journal = Journal::create(&path).unwrap();
            journal.record(&result(0, "nested", done(2.0)));
        }
        let (_j, entries) = Journal::resume(&path).unwrap();
        assert_eq!(entries.len(), 1);

        // Resume of a journal whose directories never existed either.
        let fresh = dir.join("x/y/fresh.jsonl");
        let (journal, entries) = Journal::resume(&fresh).unwrap();
        assert!(entries.is_empty());
        journal.record(&result(0, "first", done(1.0)));
        drop(journal);
        let (_j, entries) = Journal::resume(&fresh).unwrap();
        assert_eq!(entries.len(), 1);
    }

    #[test]
    fn create_rotates_an_existing_journal_to_prev_instead_of_truncating() {
        let dir = TempDir::new("journal");
        let path = dir.join("rotate.jsonl");
        {
            let journal = Journal::create(&path).unwrap();
            journal.record(&result(0, "first-run", done(3.0)));
        }
        {
            let journal = Journal::create(&path).unwrap();
            journal.record(&result(0, "second-run", done(4.0)));
        }
        // The first run's checkpoint survived the second create.
        let prev = std::fs::read_to_string(path.with_extension("jsonl.prev")).unwrap();
        assert!(prev.contains("first-run"), "prev = {prev}");
        let (_j, entries) = Journal::resume(&path).unwrap();
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].label, "second-run");
    }

    #[test]
    fn round_trips_entries_through_the_file() {
        let dir = TempDir::new("journal");
        let path = dir.join("round.jsonl");
        let journal = Journal::create(&path).unwrap();
        journal.record(&result(0, "ge \"quoted\" @ meiko", done(10.0)));
        journal.record(&result(
            1,
            "stuck",
            JobOutcome::TimedOut {
                partial: done(1.0).prediction().unwrap().clone(),
            },
        ));
        journal.record(&result(
            2,
            "boom",
            JobOutcome::Crashed {
                message: "worker exploded".into(),
                attempts: 2,
            },
        ));
        drop(journal);

        let (_journal, entries) = Journal::resume(&path).unwrap();
        assert_eq!(entries.len(), 3);
        assert_eq!(entries[0].label, "ge \"quoted\" @ meiko");
        assert_eq!(entries[0].outcome, "done");
        assert!(entries[0].is_restorable());
        assert_eq!(entries[0].total, Time::from_us(10.0));
        assert_eq!(entries[0].forced_sends, 3);
        assert_eq!(entries[0].attempts, 1);
        assert_eq!(entries[1].outcome, "timed_out");
        assert!(!entries[1].is_restorable());
        assert_eq!(entries[1].total, Time::ZERO, "degraded totals are zeroed");
        assert_eq!(entries[2].outcome, "crashed");
        assert_eq!(entries[2].attempts, 2);
    }

    #[test]
    fn truncated_and_garbage_lines_are_skipped() {
        let dir = TempDir::new("journal");
        let path = dir.join("torn.jsonl");
        {
            let journal = Journal::create(&path).unwrap();
            journal.record(&result(0, "ok", done(5.0)));
        }
        let mut bytes = std::fs::read(&path).unwrap();
        let full = bytes.clone();
        bytes.extend_from_slice(&full[..full.len() / 2]); // torn second line
        std::fs::write(&path, &bytes).unwrap();

        let (_j, entries) = Journal::resume(&path).unwrap();
        assert_eq!(entries.len(), 1, "the torn line must be skipped");
        assert_eq!(entries[0].job, 0);
    }

    #[test]
    fn resume_of_a_missing_file_is_empty_and_appendable() {
        let dir = TempDir::new("journal");
        let path = dir.join("fresh.jsonl");
        let (journal, entries) = Journal::resume(&path).unwrap();
        assert!(entries.is_empty());
        journal.record(&result(0, "first", done(1.0)));
        let (_j, entries) = Journal::resume(&path).unwrap();
        assert_eq!(entries.len(), 1);
    }

    #[test]
    fn restored_results_are_not_duplicated() {
        let dir = TempDir::new("journal");
        let path = dir.join("restored.jsonl");
        let journal = Journal::create(&path).unwrap();
        journal.record(&result(0, "a", done(1.0)));
        journal.record(&result(
            0,
            "a",
            JobOutcome::Restored {
                total: Time::from_us(1.0),
                comp_time: Time::ZERO,
                comm_time: Time::ZERO,
                forced_sends: 0,
            },
        ));
        drop(journal);
        let (_j, entries) = Journal::resume(&path).unwrap();
        assert_eq!(entries.len(), 1);
    }
}
