//! Post-mortem reader for `kjournal` files and directories.
//!
//! Mirrors [`crate::flight`]: the service writes the artifact, this
//! module turns it back into something a human can read. Two entry
//! points:
//!
//! * [`JournalFileReport`] — one `.kj` file (WAL or snapshot): frame
//!   version, per-kind record counts, torn-tail/alien-frame counters,
//!   and the clock span the records cover. This is `krad journal
//!   inspect`.
//! * [`JournalDirReport`] — a journal *directory*: reads and folds
//!   snapshot + WAL through server recovery's own reader
//!   ([`JournalDir`]) and summarizes the session image that a restart
//!   would rebuild, without starting a server. This is `krad recover`
//!   (a dry run of recovery).

use crate::table::Table;
use kjournal::{read_records, JournalDir, ReadOutcome, Record, SessionImage};
use std::fmt::Write as _;
use std::path::Path;

/// Per-kind record tallies for one journal file.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecordCounts {
    /// `SessionOpen` records.
    pub opens: u64,
    /// `JobAdmitted` records.
    pub admitted: u64,
    /// `JobCancelled` records.
    pub cancelled: u64,
    /// `JobInjected` records.
    pub injected: u64,
    /// `Quantum` records.
    pub quanta: u64,
    /// Completion pairs carried inside `Quantum` records.
    pub completions: u64,
}

impl RecordCounts {
    /// Tally `records` by kind.
    pub fn tally(records: &[Record]) -> RecordCounts {
        let mut c = RecordCounts::default();
        for rec in records {
            match rec {
                Record::SessionOpen(_) => c.opens += 1,
                Record::JobAdmitted { .. } => c.admitted += 1,
                Record::JobCancelled { .. } => c.cancelled += 1,
                Record::JobInjected { .. } => c.injected += 1,
                Record::Quantum { completed, .. } => {
                    c.quanta += 1;
                    c.completions += completed.len() as u64;
                }
            }
        }
        c
    }

    /// Total records tallied.
    pub fn total(&self) -> u64 {
        self.opens + self.admitted + self.cancelled + self.injected + self.quanta
    }
}

/// Summary of one `.kj` file.
#[derive(Debug, Clone)]
pub struct JournalFileReport {
    /// Frame-format version from the header.
    pub version: u32,
    /// File length in bytes.
    pub bytes: u64,
    /// Per-kind record tallies.
    pub counts: RecordCounts,
    /// Trailing bytes discarded as a torn or corrupt tail.
    pub dropped_bytes: u64,
    /// CRC-valid frames with kinds unknown to this reader.
    pub skipped: u64,
    /// Clock of the last `Quantum` record, if any.
    pub last_clock: Option<u64>,
}

impl JournalFileReport {
    /// Read and summarize the journal file at `path`.
    pub fn from_file(path: &Path) -> Result<JournalFileReport, String> {
        let bytes =
            std::fs::read(path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let out = read_records(&bytes).map_err(|e| format!("{}: {e}", path.display()))?;
        Ok(JournalFileReport::from_outcome(&out))
    }

    /// Summarize one scanned file.
    fn from_outcome(out: &ReadOutcome) -> JournalFileReport {
        JournalFileReport {
            version: out.version,
            bytes: out.valid_len + out.dropped_bytes,
            counts: RecordCounts::tally(&out.records),
            dropped_bytes: out.dropped_bytes,
            skipped: out.skipped,
            last_clock: out.records.iter().rev().find_map(|r| match r {
                Record::Quantum { to, .. } => Some(*to),
                _ => None,
            }),
        }
    }

    /// Render as a table.
    pub fn render(&self, title: &str) -> String {
        let mut t = Table::new(title, &["field", "value"]);
        t.row_owned(vec!["format version".into(), self.version.to_string()]);
        t.row_owned(vec!["file bytes".into(), self.bytes.to_string()]);
        t.row_owned(vec!["records".into(), self.counts.total().to_string()]);
        t.row_owned(vec!["  session-open".into(), self.counts.opens.to_string()]);
        t.row_owned(vec![
            "  job-admitted".into(),
            self.counts.admitted.to_string(),
        ]);
        t.row_owned(vec![
            "  job-cancelled".into(),
            self.counts.cancelled.to_string(),
        ]);
        t.row_owned(vec![
            "  job-injected".into(),
            self.counts.injected.to_string(),
        ]);
        t.row_owned(vec!["  quantum".into(), self.counts.quanta.to_string()]);
        t.row_owned(vec![
            "completion pairs".into(),
            self.counts.completions.to_string(),
        ]);
        t.row_owned(vec![
            "torn-tail bytes dropped".into(),
            self.dropped_bytes.to_string(),
        ]);
        t.row_owned(vec![
            "alien frames skipped".into(),
            self.skipped.to_string(),
        ]);
        t.row_owned(vec![
            "last quantum clock".into(),
            self.last_clock.map_or("-".into(), |c| c.to_string()),
        ]);
        t.render()
    }
}

/// Dry-run recovery over a journal directory: the session image a
/// restarting server would fold, plus per-file summaries.
#[derive(Debug, Clone)]
pub struct JournalDirReport {
    /// Snapshot file summary, if `snap.kj` exists.
    pub snapshot: Option<JournalFileReport>,
    /// WAL file summary, if `wal.kj` exists.
    pub wal: Option<JournalFileReport>,
    /// The folded session image (absent if no `SessionOpen` found).
    pub image: Option<SessionImage>,
    /// Records referencing unknown jobs or preceding `SessionOpen`.
    pub anomalies: u64,
}

impl JournalDirReport {
    /// Fold `dir` the way server recovery does — through the same
    /// [`JournalDir`] reader — without opening the WAL for append.
    pub fn from_dir(dir: &Path) -> Result<JournalDirReport, String> {
        let files = JournalDir::read(dir).map_err(|e| e.to_string())?;
        if files.snapshot.is_none() && files.wal.is_none() {
            return Err(format!("no journal files in {}", dir.display()));
        }
        let (anomalies, image) = match files.fold() {
            Some(log) => (log.anomalies(), Some(log.into_image())),
            None => (files.records().count() as u64, None),
        };
        Ok(JournalDirReport {
            snapshot: files.snapshot.as_ref().map(JournalFileReport::from_outcome),
            wal: files.wal.as_ref().map(JournalFileReport::from_outcome),
            image,
            anomalies,
        })
    }

    /// Render the recovery dry run.
    pub fn render(&self) -> String {
        let mut out = String::new();
        if let Some(snap) = &self.snapshot {
            out.push_str(&snap.render("snapshot (snap.kj)"));
            out.push('\n');
        }
        if let Some(wal) = &self.wal {
            out.push_str(&wal.render("write-ahead log (wal.kj)"));
            out.push('\n');
        }
        match &self.image {
            None => {
                writeln!(out, "no session image: journal holds no SessionOpen record").unwrap();
            }
            Some(img) => {
                let (queued, running, cancelled, done) = img.counts();
                let mut t = Table::new("recovered session image", &["field", "value"]);
                t.row_owned(vec![
                    "machine".into(),
                    img.meta
                        .machine
                        .iter()
                        .map(|p| p.to_string())
                        .collect::<Vec<_>>()
                        .join(","),
                ]);
                t.row_owned(vec!["scheduler".into(), img.meta.scheduler.clone()]);
                t.row_owned(vec!["policy".into(), img.meta.policy.clone()]);
                t.row_owned(vec!["time policy".into(), img.meta.time_policy.clone()]);
                t.row_owned(vec!["quantum".into(), img.meta.quantum.to_string()]);
                t.row_owned(vec!["seed".into(), img.meta.seed.to_string()]);
                t.row_owned(vec!["clock".into(), img.clock.to_string()]);
                t.row_owned(vec!["busy steps".into(), img.busy.to_string()]);
                t.row_owned(vec!["idle steps".into(), img.idle.to_string()]);
                t.row_owned(vec!["jobs".into(), img.jobs.len().to_string()]);
                t.row_owned(vec!["  queued".into(), queued.to_string()]);
                t.row_owned(vec!["  running".into(), running.to_string()]);
                t.row_owned(vec!["  done".into(), done.to_string()]);
                t.row_owned(vec!["  cancelled".into(), cancelled.to_string()]);
                t.row_owned(vec!["anomalous records".into(), self.anomalies.to_string()]);
                out.push_str(&t.render());
            }
        }
        out.trim_end().to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kjournal::{FsyncPolicy, JournalStore, SessionMeta};

    fn meta() -> SessionMeta {
        SessionMeta {
            machine: vec![4, 2],
            scheduler: "k-rad".into(),
            policy: "fifo".into(),
            time_policy: "event".into(),
            quantum: 2,
            seed: 7,
        }
    }

    fn dag() -> kdag::DagSpec {
        kdag::DagSpec {
            k: 2,
            categories: vec![0, 1],
            edges: vec![(0, 1)],
        }
    }

    #[test]
    fn inspect_and_dry_run_recovery() {
        let dir = std::env::temp_dir().join(format!("kanalysis-journal-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        {
            let (mut store, rec) = JournalStore::open(&dir, FsyncPolicy::Never).unwrap();
            assert!(rec.is_none());
            store.append(&Record::SessionOpen(meta()));
            store.append(&Record::JobAdmitted { job: 0, dag: dag() });
            store.append(&Record::JobAdmitted { job: 1, dag: dag() });
            store.append(&Record::JobCancelled { job: 1 });
            store.append(&Record::JobInjected { job: 0, release: 0 });
            store.append(&Record::Quantum {
                to: 3,
                busy: 3,
                idle: 0,
                completed: vec![(0, 3)],
            });
            store.commit().unwrap();
        }

        let file = JournalFileReport::from_file(&JournalStore::wal_path(&dir)).unwrap();
        assert_eq!(file.counts.total(), 6);
        assert_eq!(file.counts.admitted, 2);
        assert_eq!(file.counts.completions, 1);
        assert_eq!(file.dropped_bytes, 0);
        assert_eq!(file.last_clock, Some(3));
        let text = file.render("write-ahead log (wal.kj)");
        assert!(text.contains("job-admitted"), "{text}");

        let report = JournalDirReport::from_dir(&dir).unwrap();
        assert!(report.snapshot.is_none());
        let img = report.image.as_ref().unwrap();
        assert_eq!(img.clock, 3);
        assert_eq!(img.counts(), (0, 0, 1, 1));
        let text = report.render();
        assert!(text.contains("recovered session image"), "{text}");
        assert!(text.contains("k-rad"), "{text}");

        assert!(JournalDirReport::from_dir(&dir.join("missing")).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A journal directory holding one snapshot (two jobs, one done).
    fn snapshotted_dir(name: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("kanalysis-journal-{name}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let (mut store, _) = JournalStore::open(&dir, FsyncPolicy::Never).unwrap();
        store.append(&Record::SessionOpen(meta()));
        store.append(&Record::JobAdmitted { job: 0, dag: dag() });
        store.append(&Record::JobAdmitted { job: 1, dag: dag() });
        store.append(&Record::JobInjected { job: 0, release: 0 });
        store.append(&Record::Quantum {
            to: 2,
            busy: 2,
            idle: 0,
            completed: vec![(0, 2)],
        });
        store.commit().unwrap();
        drop(store);
        let (mut store, rec) = JournalStore::open(&dir, FsyncPolicy::Never).unwrap();
        store.snapshot(&rec.unwrap().image).unwrap();
        dir
    }

    #[test]
    fn dry_run_recovers_a_wal_torn_inside_its_header() {
        // A crash while `wal.kj` was being created leaves it shorter
        // than its header; the server treats it as empty and recovers.
        let dir = snapshotted_dir("short-wal");
        std::fs::write(JournalStore::wal_path(&dir), b"KJN").unwrap();
        let report = JournalDirReport::from_dir(&dir).expect("dry run recovers");
        let (_store, recovered) = JournalStore::open(&dir, FsyncPolicy::Never).unwrap();
        assert_eq!(report.image, Some(recovered.unwrap().image));
        assert_eq!(report.wal.unwrap().counts.total(), 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn dry_run_refuses_a_snapshot_with_trailing_garbage() {
        // The server refuses to start on a damaged snapshot; the dry
        // run must not print a healthy image for it.
        let dir = snapshotted_dir("snap-garbage");
        let snap = JournalStore::snapshot_path(&dir);
        let mut bytes = std::fs::read(&snap).unwrap();
        bytes.extend_from_slice(b"garbage");
        std::fs::write(&snap, bytes).unwrap();
        let err = JournalDirReport::from_dir(&dir).unwrap_err();
        assert!(err.contains("refusing to guess"), "{err}");
        let server = JournalStore::open(&dir, FsyncPolicy::Never).map(|_| ());
        assert_eq!(server.unwrap_err().to_string(), err);
        std::fs::remove_dir_all(&dir).ok();
    }
}
