//! Directory-level journal store: one live WAL plus the latest
//! snapshot, and the fold that turns either (or both) back into a
//! logical session image.
//!
//! Layout inside `--journal-dir`:
//!
//! ```text
//! wal.kj    append-only log of everything since the last snapshot
//! snap.kj   latest snapshot — the same frame format, compacted
//! ```
//!
//! A snapshot is *literally a compacted journal*: the session header,
//! one `JobAdmitted` per job, the cancellations, the injections in
//! injection order, and a single `Quantum` record carrying the clock
//! and every completion. Recovery therefore has exactly one reader
//! ([`JournalDir`]): fold `snap.kj`, then fold `wal.kj` on top. The
//! fold is one rule, [`SessionLog::apply`], which the live daemon also
//! runs on every record it journals. It is idempotent (records keyed
//! by job id are deduplicated, the clock is a max), so a crash
//! *between* writing the snapshot and truncating the WAL — when both
//! files describe overlapping history — recovers cleanly.
//!
//! Snapshot rotation is crash-safe by construction: write
//! `snap.kj.tmp`, fsync it, `rename(2)` over `snap.kj` (atomic on
//! POSIX), then truncate the WAL. At every intermediate point the
//! directory folds to the same session.

use crate::frame::{
    append_frame, encode_admitted, encode_quantum, header_bytes, push_frame, read_records,
    ReadOutcome, Record, SessionMeta, FORMAT_VERSION, HEADER_LEN,
};
use crate::log::{FsyncPolicy, JournalStats, JournalWriter};
use ksim::Time;
use std::collections::HashMap;
use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};

/// Lifecycle phase of one journaled job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobPhase {
    /// Admitted, waiting in the server queue.
    Queued,
    /// Cancelled while queued.
    Cancelled,
    /// Handed to the engine with this release stamp. Whether it has
    /// finished is recorded in [`SessionImage::completed`].
    Injected {
        /// Engine clock at injection.
        release: Time,
    },
}

impl JobPhase {
    /// The release stamp, once the job was injected.
    pub fn release(self) -> Option<Time> {
        match self {
            JobPhase::Injected { release } => Some(release),
            JobPhase::Queued | JobPhase::Cancelled => None,
        }
    }
}

/// One job as the journal knows it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobImage {
    /// Server-assigned id.
    pub id: u64,
    /// The job's DAG.
    pub dag: kdag::DagSpec,
    /// Lifecycle phase.
    pub phase: JobPhase,
}

/// The complete logical state of a session: everything needed to
/// rebuild the live engine deterministically. Derived engine state
/// (ready counts, RAD marks/queues, RNG) is intentionally absent — it
/// is a pure function of `(meta, injected stream, clock)` and is
/// reconstructed by replay; see DESIGN.md §14.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionImage {
    /// Session configuration.
    pub meta: SessionMeta,
    /// Engine clock at the last journaled quantum boundary.
    pub clock: Time,
    /// Cumulative busy steps at `clock` (recovery digest).
    pub busy: u64,
    /// Cumulative idle steps at `clock` (recovery digest).
    pub idle: u64,
    /// Every admitted job in id (= admission) order.
    pub jobs: Vec<JobImage>,
    /// `(job id, completion time)` in completion order.
    pub completed: Vec<(u64, Time)>,
}

impl SessionImage {
    /// A fresh, empty session around `meta`.
    pub fn new(meta: SessionMeta) -> SessionImage {
        SessionImage {
            meta,
            clock: 0,
            busy: 0,
            idle: 0,
            jobs: Vec::new(),
            completed: Vec::new(),
        }
    }

    /// The snapshot file for this image: the header, then the image
    /// compacted back into the canonical record stream, encoded
    /// straight from the borrowed image. Injections are emitted in id
    /// order, which is injection order (admission is FIFO and ids are
    /// assigned at admission), so replaying them preserves release
    /// monotonicity.
    pub fn snapshot_bytes(&self) -> Vec<u8> {
        let mut bytes = header_bytes().to_vec();
        append_frame(&mut bytes, &Record::SessionOpen(self.meta.clone()));
        for j in &self.jobs {
            push_frame(&mut bytes, |b| encode_admitted(b, j.id, &j.dag));
        }
        for j in &self.jobs {
            let record = match j.phase {
                JobPhase::Queued => continue,
                JobPhase::Cancelled => Record::JobCancelled { job: j.id },
                JobPhase::Injected { release } => Record::JobInjected { job: j.id, release },
            };
            append_frame(&mut bytes, &record);
        }
        push_frame(&mut bytes, |b| {
            encode_quantum(b, self.clock, self.busy, self.idle, &self.completed)
        });
        bytes
    }

    /// Per-phase counts `(queued, injected-running, cancelled, done)`.
    pub fn counts(&self) -> (usize, usize, usize, usize) {
        let done: std::collections::HashSet<u64> =
            self.completed.iter().map(|&(id, _)| id).collect();
        let (mut q, mut run, mut c, mut d) = (0, 0, 0, 0);
        for j in &self.jobs {
            match j.phase {
                JobPhase::Queued => q += 1,
                JobPhase::Cancelled => c += 1,
                JobPhase::Injected { .. } => {
                    if done.contains(&j.id) {
                        d += 1
                    } else {
                        run += 1
                    }
                }
            }
        }
        (q, run, c, d)
    }
}

/// One session's log, folded in memory: the [`SessionImage`] plus the
/// index that applies records to it in O(1). [`SessionLog::apply`] is
/// the one rule by which a record changes a session — recovery folds
/// the journal files through it ([`fold_records`]) and the live daemon
/// folds every record it journals through it, so the two cannot
/// disagree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionLog {
    image: SessionImage,
    // Position in `image.jobs` per job id.
    index: HashMap<u64, usize>,
    // Completion time per finished job id; dedups overlapping quanta.
    done: HashMap<u64, Time>,
    // Injected job ids in id order, which is injection order: the
    // engine's job index maps to a job id through this list.
    injected: Vec<u64>,
    anomalies: u64,
}

impl SessionLog {
    /// An empty log: the fold of one `SessionOpen(meta)`.
    pub fn new(meta: SessionMeta) -> SessionLog {
        SessionLog::from_image(SessionImage::new(meta))
    }

    /// Adopt an already folded image, rebuilding only the index.
    pub fn from_image(image: SessionImage) -> SessionLog {
        let index = image
            .jobs
            .iter()
            .enumerate()
            .map(|(i, j)| (j.id, i))
            .collect();
        let done = image.completed.iter().copied().collect();
        let mut injected: Vec<u64> = image
            .jobs
            .iter()
            .filter(|j| matches!(j.phase, JobPhase::Injected { .. }))
            .map(|j| j.id)
            .collect();
        injected.sort_unstable();
        SessionLog {
            image,
            index,
            done,
            injected,
            anomalies: 0,
        }
    }

    /// Fold one record. Idempotent: re-applying a record already
    /// folded (a snapshot's own compaction, or a WAL that overlaps
    /// it) changes nothing.
    pub fn apply(&mut self, record: &Record) {
        match record {
            // A later SessionOpen (the WAL's own, after a snapshot)
            // must agree with the one already folded.
            Record::SessionOpen(meta) => {
                if *meta != self.image.meta {
                    self.anomalies += 1;
                }
            }
            Record::JobAdmitted { job, dag } => {
                if !self.index.contains_key(job) {
                    self.index.insert(*job, self.image.jobs.len());
                    self.image.jobs.push(JobImage {
                        id: *job,
                        dag: dag.clone(),
                        phase: JobPhase::Queued,
                    });
                }
            }
            Record::JobCancelled { job } => self.set_phase(*job, JobPhase::Cancelled),
            Record::JobInjected { job, release } => {
                self.set_phase(*job, JobPhase::Injected { release: *release })
            }
            Record::Quantum {
                to,
                busy,
                idle,
                completed,
            } => {
                let img = &mut self.image;
                img.clock = img.clock.max(*to);
                img.busy = img.busy.max(*busy);
                img.idle = img.idle.max(*idle);
                for &(job, t) in completed {
                    if self.done.insert(job, t).is_none() {
                        img.completed.push((job, t));
                    }
                }
            }
        }
    }

    fn set_phase(&mut self, job: u64, phase: JobPhase) {
        let Some(&i) = self.index.get(&job) else {
            self.anomalies += 1;
            return;
        };
        let injected = matches!(phase, JobPhase::Injected { .. });
        match self.injected.binary_search(&job) {
            Err(at) if injected => self.injected.insert(at, job),
            Ok(at) if !injected => {
                self.injected.remove(at);
            }
            _ => {}
        }
        self.image.jobs[i].phase = phase;
    }

    /// The folded session image.
    pub fn image(&self) -> &SessionImage {
        &self.image
    }

    /// The folded session image, by value.
    pub fn into_image(self) -> SessionImage {
        self.image
    }

    /// Records that did not fit the fold: ones referencing unknown job
    /// ids, a conflicting `SessionOpen`, or anything before the first
    /// `SessionOpen` — tolerated but counted, like alien frames.
    pub fn anomalies(&self) -> u64 {
        self.anomalies
    }

    /// Job `id`, if it was ever admitted.
    pub fn job(&self, id: u64) -> Option<&JobImage> {
        self.index.get(&id).map(|&i| &self.image.jobs[i])
    }

    /// Completion time of job `id`, once a quantum reported it.
    pub fn completion(&self, id: u64) -> Option<Time> {
        self.done.get(&id).copied()
    }

    /// Injected job ids in injection order: entry `i` is the job the
    /// engine knows as index `i`.
    pub fn injected(&self) -> &[u64] {
        &self.injected
    }

    /// Injected jobs that have not completed yet.
    pub fn running(&self) -> usize {
        self.injected.len().saturating_sub(self.done.len())
    }
}

/// Fold records (in file order) into a session log. Idempotent:
/// re-folding a snapshot's own compaction on top of it is a no-op, so
/// overlapping snapshot + WAL histories merge cleanly. `None` when no
/// `SessionOpen` is found.
pub fn fold_records<'a>(records: impl IntoIterator<Item = &'a Record>) -> Option<SessionLog> {
    let mut log: Option<SessionLog> = None;
    let mut orphans = 0u64;
    for rec in records {
        match (log.as_mut(), rec) {
            (Some(log), rec) => log.apply(rec),
            (None, Record::SessionOpen(meta)) => log = Some(SessionLog::new(meta.clone())),
            (None, _) => orphans += 1,
        }
    }
    log.map(|mut log| {
        log.anomalies += orphans;
        log
    })
}

/// A journal directory read under the recovery rules, without opening
/// anything for append — shared by [`JournalStore::open`] and offline
/// readers so the two cannot drift.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalDir {
    /// `snap.kj`, if present. Snapshots are written atomically, so a
    /// corrupt tail is an error rather than something to truncate.
    pub snapshot: Option<ReadOutcome>,
    /// `wal.kj`, if present. A file shorter than the header (a crash
    /// while it was being created) reads as an empty journal whose
    /// torn bytes are all dropped.
    pub wal: Option<ReadOutcome>,
}

impl JournalDir {
    /// Read `dir`'s snapshot and WAL.
    pub fn read(dir: &Path) -> io::Result<JournalDir> {
        let snap_path = JournalStore::snapshot_path(dir);
        let snapshot = read_file(&snap_path, false)?;
        if let Some(out) = snapshot.as_ref().filter(|out| out.dropped_bytes > 0) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "snapshot {} has {} corrupt trailing bytes; snapshots are written \
                     atomically, refusing to guess",
                    snap_path.display(),
                    out.dropped_bytes
                ),
            ));
        }
        let wal = read_file(&JournalStore::wal_path(dir), true)?;
        Ok(JournalDir { snapshot, wal })
    }

    /// The files present, snapshot first.
    fn files(&self) -> impl Iterator<Item = &ReadOutcome> {
        [&self.snapshot, &self.wal].into_iter().flatten()
    }

    /// Every record, snapshot first, then the WAL tail.
    pub fn records(&self) -> impl Iterator<Item = &Record> {
        self.files().flat_map(|out| &out.records)
    }

    /// Fold the snapshot, then the WAL on top.
    pub fn fold(&self) -> Option<SessionLog> {
        fold_records(self.records())
    }
}

/// Read one journal file; `None` if it does not exist. With
/// `short_is_empty`, a file shorter than the header is an empty
/// journal rather than an error.
fn read_file(path: &Path, short_is_empty: bool) -> io::Result<Option<ReadOutcome>> {
    let bytes = match fs::read(path) {
        Ok(bytes) => bytes,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e),
    };
    if short_is_empty && bytes.len() < HEADER_LEN as usize {
        return Ok(Some(ReadOutcome {
            version: FORMAT_VERSION,
            records: Vec::new(),
            valid_len: 0,
            dropped_bytes: bytes.len() as u64,
            skipped: 0,
        }));
    }
    let out = read_records(&bytes).map_err(|e| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("{}: {e}", path.display()),
        )
    })?;
    Ok(Some(out))
}

/// What `JournalStore::open` found on disk.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveredSession {
    /// The folded logical state.
    pub image: SessionImage,
    /// Whether a snapshot contributed (vs. WAL-only history).
    pub from_snapshot: bool,
    /// Valid records found in the WAL tail.
    pub wal_records: u64,
    /// Torn-tail bytes truncated from the WAL before reopening.
    pub dropped_bytes: u64,
    /// CRC-valid frames skipped (unknown kind) across both files.
    pub skipped: u64,
    /// Fold anomalies (records referencing unknown jobs).
    pub anomalies: u64,
}

/// The live handle the server holds: WAL writer + snapshot rotation.
pub struct JournalStore {
    dir: PathBuf,
    wal: JournalWriter,
    policy: FsyncPolicy,
    tail_records: u64,
    snapshots: u64,
    /// Snapshot-file and directory fsyncs; the WAL counts its own.
    snapshot_fsyncs: u64,
}

impl JournalStore {
    /// WAL path inside `dir`.
    pub fn wal_path(dir: &Path) -> PathBuf {
        dir.join("wal.kj")
    }

    /// Snapshot path inside `dir`.
    pub fn snapshot_path(dir: &Path) -> PathBuf {
        dir.join("snap.kj")
    }

    /// Open (creating if needed) the journal directory. Returns the
    /// store plus the recovered session, if the directory holds one.
    /// Torn WAL tails are truncated here, before the WAL reopens for
    /// append; a corrupt *snapshot* is an error (it was written
    /// atomically, so damage means something external happened).
    pub fn open(
        dir: &Path,
        policy: FsyncPolicy,
    ) -> io::Result<(JournalStore, Option<RecoveredSession>)> {
        fs::create_dir_all(dir)?;
        let files = JournalDir::read(dir)?;
        let wal_out = files.wal.as_ref();
        let wal = JournalWriter::open(
            &Self::wal_path(dir),
            policy,
            wal_out.map(|out| out.valid_len),
        )?;
        let wal_records = wal_out.map_or(0, |out| out.records.len() as u64);
        let recovered = files.fold().map(|log| RecoveredSession {
            anomalies: log.anomalies(),
            image: log.into_image(),
            from_snapshot: files
                .snapshot
                .as_ref()
                .is_some_and(|out| !out.records.is_empty()),
            wal_records,
            dropped_bytes: wal_out.map_or(0, |out| out.dropped_bytes),
            skipped: files.files().map(|out| out.skipped).sum(),
        });
        let store = JournalStore {
            dir: dir.to_path_buf(),
            wal,
            policy,
            tail_records: wal_records,
            snapshots: 0,
            snapshot_fsyncs: 0,
        };
        Ok((store, recovered))
    }

    /// Buffer one record into the WAL (see [`JournalWriter::append`]).
    pub fn append(&mut self, record: &Record) {
        self.wal.append(record);
        self.tail_records += 1;
    }

    /// Group commit (see [`JournalWriter::commit`]).
    pub fn commit(&mut self) -> io::Result<()> {
        self.wal.commit()
    }

    /// Forced fsync regardless of policy.
    pub fn sync(&mut self) -> io::Result<()> {
        self.wal.sync()
    }

    /// Write a snapshot of `image` and truncate the WAL behind it.
    ///
    /// Three fsyncs, each counted in [`JournalStore::stats`]: the
    /// snapshot file, the directory (making the rename durable) and the
    /// emptied WAL. The WAL is truncated only once the first two have
    /// succeeded; on any error it is left whole, so a crash folds
    /// whichever snapshot survived plus the whole WAL to the same image.
    pub fn snapshot(&mut self, image: &SessionImage) -> io::Result<()> {
        let tmp = self.dir.join("snap.kj.tmp");
        let bytes = image.snapshot_bytes();
        {
            let mut f = fs::File::create(&tmp)?;
            f.write_all(&bytes)?;
            f.sync_all()?;
            self.snapshot_fsyncs += 1;
        }
        fs::rename(&tmp, Self::snapshot_path(&self.dir))?;
        fs::File::open(&self.dir)?.sync_all()?;
        self.snapshot_fsyncs += 1;
        self.wal.reset()?;
        self.tail_records = 0;
        self.snapshots += 1;
        Ok(())
    }

    /// Records appended to the WAL since the last snapshot — the
    /// log-tail lag a restart would have to replay.
    pub fn tail_records(&self) -> u64 {
        self.tail_records
    }

    /// Snapshots written by this store since open.
    pub fn snapshots(&self) -> u64 {
        self.snapshots
    }

    /// The fsync policy this store was opened with.
    pub fn policy(&self) -> FsyncPolicy {
        self.policy
    }

    /// Counters since open; `fsyncs` includes every snapshot's three.
    pub fn stats(&self) -> JournalStats {
        let mut stats = self.wal.stats();
        stats.fsyncs += self.snapshot_fsyncs;
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::sample_meta;
    use kdag::DagSpec;

    fn tmp_dir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("kjournal-store-{}-{name}", std::process::id()));
        fs::remove_dir_all(&dir).ok();
        dir
    }

    fn dag() -> DagSpec {
        DagSpec {
            k: 2,
            categories: vec![0, 1],
            edges: vec![(0, 1)],
        }
    }

    fn scripted_session(store: &mut JournalStore) {
        store.append(&Record::SessionOpen(sample_meta()));
        for id in 1..=3u64 {
            store.append(&Record::JobAdmitted {
                job: id,
                dag: dag(),
            });
        }
        store.append(&Record::JobCancelled { job: 2 });
        store.append(&Record::JobInjected { job: 1, release: 0 });
        store.append(&Record::Quantum {
            to: 2,
            busy: 3,
            idle: 1,
            completed: vec![(1, 2)],
        });
        store.commit().unwrap();
    }

    #[test]
    fn fresh_directory_recovers_nothing_then_everything() {
        let dir = tmp_dir("fresh");
        let (mut store, recovered) = JournalStore::open(&dir, FsyncPolicy::Never).unwrap();
        assert!(recovered.is_none());
        scripted_session(&mut store);
        drop(store);

        let (_store, recovered) = JournalStore::open(&dir, FsyncPolicy::Never).unwrap();
        let rec = recovered.expect("session recovered");
        assert!(!rec.from_snapshot);
        assert_eq!(rec.image.meta, sample_meta());
        assert_eq!(rec.image.clock, 2);
        assert_eq!(rec.image.counts(), (1, 0, 1, 1)); // job3 queued, job2 cancelled, job1 done
        assert_eq!(rec.image.completed, vec![(1, 2)]);
        assert_eq!(rec.dropped_bytes, 0);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn snapshot_truncates_wal_and_folds_identically() {
        let dir = tmp_dir("snap");
        {
            let (mut store, _) = JournalStore::open(&dir, FsyncPolicy::Never).unwrap();
            scripted_session(&mut store);
        }
        let (mut store, recovered) = JournalStore::open(&dir, FsyncPolicy::Never).unwrap();
        let before = recovered.unwrap().image;
        assert!(store.tail_records() > 0);
        store.snapshot(&before).unwrap();
        assert_eq!(store.tail_records(), 0);
        assert_eq!(store.snapshots(), 1);
        drop(store);

        let (_s, recovered) = JournalStore::open(&dir, FsyncPolicy::Never).unwrap();
        let rec = recovered.unwrap();
        assert!(rec.from_snapshot);
        assert_eq!(rec.wal_records, 0, "WAL was truncated behind the snapshot");
        assert_eq!(rec.image, before, "snapshot folds to the identical image");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_snapshot_counts_exactly_three_fsyncs() {
        let dir = tmp_dir("snap-fsyncs");
        let (mut store, _) = JournalStore::open(&dir, FsyncPolicy::Never).unwrap();
        scripted_session(&mut store);
        let image = JournalStore::open(&dir, FsyncPolicy::Never)
            .unwrap()
            .1
            .unwrap()
            .image;
        let before = store.stats().fsyncs;
        store.snapshot(&image).unwrap();
        // Snapshot file, directory, emptied WAL.
        assert_eq!(store.stats().fsyncs, before + 3);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn overlapping_snapshot_and_wal_fold_idempotently() {
        // Crash between snapshot rename and WAL truncation: both
        // files describe the same history. The fold must not
        // duplicate jobs or completions.
        let dir = tmp_dir("overlap");
        {
            let (mut store, _) = JournalStore::open(&dir, FsyncPolicy::Never).unwrap();
            scripted_session(&mut store);
        }
        let image = JournalStore::open(&dir, FsyncPolicy::Never)
            .unwrap()
            .1
            .unwrap()
            .image;

        // Hand-write the snapshot without touching the WAL.
        fs::write(JournalStore::snapshot_path(&dir), image.snapshot_bytes()).unwrap();

        let (_s, recovered) = JournalStore::open(&dir, FsyncPolicy::Never).unwrap();
        let rec = recovered.unwrap();
        assert_eq!(rec.image, image, "idempotent fold across overlapping files");
        assert_eq!(rec.anomalies, 0);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_wal_tail_is_truncated_on_open() {
        let dir = tmp_dir("torn");
        let (mut store, _) = JournalStore::open(&dir, FsyncPolicy::Never).unwrap();
        scripted_session(&mut store);
        drop(store);
        let wal = JournalStore::wal_path(&dir);
        let mut bytes = fs::read(&wal).unwrap();
        let cut = bytes.len() - 3; // tear the final frame
        bytes.truncate(cut);
        fs::write(&wal, &bytes).unwrap();

        let (_s, recovered) = JournalStore::open(&dir, FsyncPolicy::Never).unwrap();
        let rec = recovered.unwrap();
        assert!(rec.dropped_bytes > 0);
        assert_eq!(rec.image.clock, 0, "the torn Quantum record was discarded");
        assert_eq!(
            fs::metadata(&wal).unwrap().len(),
            cut as u64 - rec.dropped_bytes,
            "the file was physically truncated to the last valid frame"
        );
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn snapshot_bytes_round_trip_through_fold() {
        let mut image = SessionImage::new(sample_meta());
        image.clock = 9;
        image.busy = 12;
        image.idle = 4;
        image.jobs = vec![
            JobImage {
                id: 1,
                dag: dag(),
                phase: JobPhase::Injected { release: 0 },
            },
            JobImage {
                id: 2,
                dag: dag(),
                phase: JobPhase::Cancelled,
            },
            JobImage {
                id: 3,
                dag: dag(),
                phase: JobPhase::Injected { release: 4 },
            },
            JobImage {
                id: 4,
                dag: dag(),
                phase: JobPhase::Queued,
            },
        ];
        image.completed = vec![(1, 3)];
        let out = read_records(&image.snapshot_bytes()).unwrap();
        assert_eq!(out.dropped_bytes, 0);
        let folded = fold_records(&out.records).unwrap();
        assert_eq!(folded.image(), &image);
        assert_eq!(folded.anomalies(), 0);
        assert_eq!(
            folded,
            SessionLog::from_image(image),
            "fold index = rebuilt index"
        );
    }
}
