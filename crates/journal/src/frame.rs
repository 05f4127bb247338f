//! The journal's binary frame format.
//!
//! A journal file is a fixed 8-byte header followed by a sequence of
//! self-delimiting frames:
//!
//! ```text
//! header:  "KJNL"  version:u32le
//! frame:   len:u32le  body[len]  crc32(body):u32le
//! body:    kind:u8  payload[len-1]
//! ```
//!
//! All integers are little-endian. The checksum covers the whole body
//! (kind byte included) so a torn or bit-flipped tail is detected by
//! the CRC and discarded — [`read_records`] never panics on garbage,
//! it reports how many trailing bytes it dropped so the writer can
//! truncate the file back to the last durable frame.
//!
//! Versioning mirrors the PR 5 flight-dump rule: the header names the
//! version that *wrote* the file, and readers accept newer versions by
//! skipping frames whose `kind` they do not understand (the length
//! prefix makes every frame skippable without decoding it). Payloads
//! of known kinds never change shape within a major format; a new
//! shape gets a new kind byte.

use crate::crc32::crc32;
use kdag::DagSpec;
use ksim::Time;

/// File magic: identifies a K-RAD journal.
pub const MAGIC: [u8; 4] = *b"KJNL";
/// Format version written by this build.
pub const FORMAT_VERSION: u32 = 1;
/// Size of the file header in bytes.
pub const HEADER_LEN: u64 = 8;
/// Upper bound on a single frame body; anything larger is treated as
/// a torn length prefix rather than an allocation request.
pub const MAX_FRAME: u32 = 1 << 24;

const KIND_SESSION_OPEN: u8 = 1;
const KIND_JOB_ADMITTED: u8 = 2;
const KIND_JOB_CANCELLED: u8 = 3;
const KIND_JOB_INJECTED: u8 = 4;
const KIND_QUANTUM: u8 = 5;

/// Immutable facts about the session, journaled once at creation and
/// again at the head of every snapshot. Scheduler/policy/clock are
/// stored as their stable string labels so the journal crate does not
/// depend on the scheduler registry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionMeta {
    /// Processors per category (`P_1..P_K`).
    pub machine: Vec<u32>,
    /// Scheduler label (e.g. `k-rad`).
    pub scheduler: String,
    /// Selection-policy label (e.g. `fifo`).
    pub policy: String,
    /// Engine clock label (`unit` or `event`).
    pub time_policy: String,
    /// Scheduling quantum in engine steps.
    pub quantum: u64,
    /// Seed for the engine RNG and randomized schedulers.
    pub seed: u64,
}

/// One journal record. The WAL is an ordered stream of these; a
/// snapshot is the same stream, compacted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Record {
    /// Session created (or snapshot head): the full configuration.
    SessionOpen(SessionMeta),
    /// A job was admitted (queued) under server id `job` — written
    /// and committed before the submit reply is acknowledged.
    JobAdmitted {
        /// Server-assigned job id.
        job: u64,
        /// The job's DAG.
        dag: DagSpec,
    },
    /// A queued job was cancelled — committed before the cancel ack.
    JobCancelled {
        /// Server-assigned job id.
        job: u64,
    },
    /// A queued job entered the engine with its release stamp.
    JobInjected {
        /// Server-assigned job id.
        job: u64,
        /// Engine clock at injection (the job's release time).
        release: Time,
    },
    /// A quantum boundary: the engine advanced to `to`, completing
    /// the listed jobs — committed before completions are broadcast.
    /// `busy`/`idle` are the engine's cumulative step accumulators,
    /// journaled so recovery can verify the rebuilt engine digest
    /// beyond completion times alone.
    Quantum {
        /// Engine clock after the quantum.
        to: Time,
        /// Cumulative busy steps at `to`.
        busy: u64,
        /// Cumulative idle steps at `to`.
        idle: u64,
        /// `(job id, completion time)` pairs, in completion order.
        completed: Vec<(u64, Time)>,
    },
}

impl Record {
    /// Stable human label for reports.
    pub fn kind_label(&self) -> &'static str {
        match self {
            Record::SessionOpen(_) => "session-open",
            Record::JobAdmitted { .. } => "job-admitted",
            Record::JobCancelled { .. } => "job-cancelled",
            Record::JobInjected { .. } => "job-injected",
            Record::Quantum { .. } => "quantum",
        }
    }
}

/// Result of scanning a journal byte stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReadOutcome {
    /// Format version from the header.
    pub version: u32,
    /// Every decodable record, in file order.
    pub records: Vec<Record>,
    /// Bytes of header + whole valid frames; the safe truncation
    /// point for re-opening the file in append mode.
    pub valid_len: u64,
    /// Trailing bytes discarded as a torn or corrupt tail.
    pub dropped_bytes: u64,
    /// CRC-valid frames skipped because their kind (or payload shape)
    /// is unknown to this reader — forward-compatibility counter.
    pub skipped: u64,
}

/// Errors that make a byte stream *not a journal* (as opposed to a
/// journal with a torn tail, which [`read_records`] repairs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The file is shorter than the header or the magic differs.
    NotAJournal,
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::NotAJournal => write!(f, "not a journal: bad magic or truncated header"),
        }
    }
}

impl std::error::Error for FrameError {}

/// The 8-byte file header for a fresh journal.
pub fn header_bytes() -> [u8; 8] {
    let mut h = [0u8; 8];
    h[..4].copy_from_slice(&MAGIC);
    h[4..].copy_from_slice(&FORMAT_VERSION.to_le_bytes());
    h
}

/// Append one framed record (`len | body | crc`) to `buf`; returns the
/// number of bytes written.
pub fn append_frame(buf: &mut Vec<u8>, record: &Record) -> usize {
    push_frame(buf, |body| encode_body(record, body))
}

/// Append one frame whose body `encode` writes in place (no scratch
/// buffer): the length prefix is patched and the CRC appended after.
pub(crate) fn push_frame(buf: &mut Vec<u8>, encode: impl FnOnce(&mut Vec<u8>)) -> usize {
    let start = buf.len();
    buf.extend_from_slice(&[0; 4]);
    encode(buf);
    let body_len = (buf.len() - start - 4) as u32;
    buf[start..start + 4].copy_from_slice(&body_len.to_le_bytes());
    let crc = crc32(&buf[start + 4..]);
    buf.extend_from_slice(&crc.to_le_bytes());
    buf.len() - start
}

fn encode_body(record: &Record, out: &mut Vec<u8>) {
    match record {
        Record::SessionOpen(meta) => {
            out.push(KIND_SESSION_OPEN);
            put_u16(out, meta.machine.len() as u16);
            for &p in &meta.machine {
                put_u32(out, p);
            }
            put_str(out, &meta.scheduler);
            put_str(out, &meta.policy);
            put_str(out, &meta.time_policy);
            put_u64(out, meta.quantum);
            put_u64(out, meta.seed);
        }
        Record::JobAdmitted { job, dag } => encode_admitted(out, *job, dag),
        Record::JobCancelled { job } => {
            out.push(KIND_JOB_CANCELLED);
            put_u64(out, *job);
        }
        Record::JobInjected { job, release } => {
            out.push(KIND_JOB_INJECTED);
            put_u64(out, *job);
            put_u64(out, *release);
        }
        Record::Quantum {
            to,
            busy,
            idle,
            completed,
        } => encode_quantum(out, *to, *busy, *idle, completed),
    }
}

/// The `JobAdmitted` body, from a borrowed DAG (snapshots encode
/// straight from the session image).
pub(crate) fn encode_admitted(out: &mut Vec<u8>, job: u64, dag: &DagSpec) {
    out.push(KIND_JOB_ADMITTED);
    put_u64(out, job);
    put_u32(out, dag.k as u32);
    put_u32(out, dag.categories.len() as u32);
    for &c in &dag.categories {
        put_u16(out, c);
    }
    put_u32(out, dag.edges.len() as u32);
    for &(a, b) in &dag.edges {
        put_u32(out, a);
        put_u32(out, b);
    }
}

/// The `Quantum` body, from a borrowed completion list.
pub(crate) fn encode_quantum(
    out: &mut Vec<u8>,
    to: Time,
    busy: u64,
    idle: u64,
    completed: &[(u64, Time)],
) {
    out.push(KIND_QUANTUM);
    put_u64(out, to);
    put_u64(out, busy);
    put_u64(out, idle);
    put_u32(out, completed.len() as u32);
    for &(job, t) in completed {
        put_u64(out, job);
        put_u64(out, t);
    }
}

/// Scan `bytes` as a whole journal file: header, then frames until
/// the first torn/corrupt one. Never panics; garbage after the last
/// CRC-valid frame is reported in `dropped_bytes` for truncation.
pub fn read_records(bytes: &[u8]) -> Result<ReadOutcome, FrameError> {
    if bytes.len() < HEADER_LEN as usize || bytes[..4] != MAGIC {
        return Err(FrameError::NotAJournal);
    }
    let version = u32::from_le_bytes([bytes[4], bytes[5], bytes[6], bytes[7]]);
    let mut records = Vec::new();
    let mut skipped = 0u64;
    let mut at = HEADER_LEN as usize;
    loop {
        let rest = bytes.len() - at;
        if rest < 4 {
            break;
        }
        let len = u32::from_le_bytes([bytes[at], bytes[at + 1], bytes[at + 2], bytes[at + 3]]);
        if len == 0 || len > MAX_FRAME || rest < 4 + len as usize + 4 {
            break; // torn length prefix or incomplete frame
        }
        let body = &bytes[at + 4..at + 4 + len as usize];
        let crc_at = at + 4 + len as usize;
        let stored = u32::from_le_bytes([
            bytes[crc_at],
            bytes[crc_at + 1],
            bytes[crc_at + 2],
            bytes[crc_at + 3],
        ]);
        if crc32(body) != stored {
            break; // torn or bit-flipped frame: truncate here
        }
        match decode_body(body) {
            Some(r) => records.push(r),
            None => skipped += 1, // unknown kind from a newer writer
        }
        at = crc_at + 4;
    }
    Ok(ReadOutcome {
        version,
        records,
        valid_len: at as u64,
        dropped_bytes: (bytes.len() - at) as u64,
        skipped,
    })
}

fn decode_body(body: &[u8]) -> Option<Record> {
    let mut r = Reader { bytes: body, at: 0 };
    let record = match r.u8()? {
        KIND_SESSION_OPEN => {
            let n = r.u16()? as usize;
            let mut machine = Vec::with_capacity(n.min(1024));
            for _ in 0..n {
                machine.push(r.u32()?);
            }
            let scheduler = r.str()?;
            let policy = r.str()?;
            let time_policy = r.str()?;
            let quantum = r.u64()?;
            let seed = r.u64()?;
            Record::SessionOpen(SessionMeta {
                machine,
                scheduler,
                policy,
                time_policy,
                quantum,
                seed,
            })
        }
        KIND_JOB_ADMITTED => {
            let job = r.u64()?;
            let k = r.u32()? as usize;
            let nt = r.u32()? as usize;
            if nt > body.len() {
                return None; // length claims more tasks than bytes
            }
            let mut categories = Vec::with_capacity(nt);
            for _ in 0..nt {
                categories.push(r.u16()?);
            }
            let ne = r.u32()? as usize;
            if ne > body.len() {
                return None;
            }
            let mut edges = Vec::with_capacity(ne);
            for _ in 0..ne {
                edges.push((r.u32()?, r.u32()?));
            }
            Record::JobAdmitted {
                job,
                dag: DagSpec {
                    k,
                    categories,
                    edges,
                },
            }
        }
        KIND_JOB_CANCELLED => Record::JobCancelled { job: r.u64()? },
        KIND_JOB_INJECTED => Record::JobInjected {
            job: r.u64()?,
            release: r.u64()?,
        },
        KIND_QUANTUM => {
            let to = r.u64()?;
            let busy = r.u64()?;
            let idle = r.u64()?;
            let n = r.u32()? as usize;
            if n > body.len() {
                return None;
            }
            let mut completed = Vec::with_capacity(n);
            for _ in 0..n {
                completed.push((r.u64()?, r.u64()?));
            }
            Record::Quantum {
                to,
                busy,
                idle,
                completed,
            }
        }
        _ => return None,
    };
    // A known-kind body must be consumed exactly; trailing bytes mean
    // the payload shape changed under us — skip it like an unknown.
    if r.at != body.len() {
        return None;
    }
    Some(record)
}

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}
fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}
fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}
fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u16(out, s.len() as u16);
    out.extend_from_slice(s.as_bytes());
}

struct Reader<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        if self.bytes.len() - self.at < n {
            return None;
        }
        let s = &self.bytes[self.at..self.at + n];
        self.at += n;
        Some(s)
    }
    fn u8(&mut self) -> Option<u8> {
        self.take(1).map(|b| b[0])
    }
    fn u16(&mut self) -> Option<u16> {
        self.take(2).map(|b| u16::from_le_bytes([b[0], b[1]]))
    }
    fn u32(&mut self) -> Option<u32> {
        self.take(4)
            .map(|b| u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }
    fn u64(&mut self) -> Option<u64> {
        self.take(8)
            .map(|b| u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]))
    }
    fn str(&mut self) -> Option<String> {
        let n = self.u16()? as usize;
        let s = self.take(n)?;
        String::from_utf8(s.to_vec()).ok()
    }
}

#[cfg(test)]
pub(crate) fn sample_meta() -> SessionMeta {
    SessionMeta {
        machine: vec![6, 3],
        scheduler: "k-rad".into(),
        policy: "fifo".into(),
        time_policy: "event".into(),
        quantum: 2,
        seed: 42,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_records() -> Vec<Record> {
        vec![
            Record::SessionOpen(sample_meta()),
            Record::JobAdmitted {
                job: 1,
                dag: DagSpec {
                    k: 2,
                    categories: vec![0, 1, 0],
                    edges: vec![(0, 1), (1, 2)],
                },
            },
            Record::JobInjected { job: 1, release: 0 },
            Record::JobCancelled { job: 2 },
            Record::Quantum {
                to: 4,
                busy: 6,
                idle: 2,
                completed: vec![(1, 3)],
            },
        ]
    }

    fn encode_all(records: &[Record]) -> Vec<u8> {
        let mut buf = header_bytes().to_vec();
        for r in records {
            append_frame(&mut buf, r);
        }
        buf
    }

    #[test]
    fn round_trips_every_kind() {
        let records = sample_records();
        let out = read_records(&encode_all(&records)).unwrap();
        assert_eq!(out.records, records);
        assert_eq!(out.dropped_bytes, 0);
        assert_eq!(out.skipped, 0);
        assert_eq!(out.version, FORMAT_VERSION);
    }

    #[test]
    fn torn_tail_is_truncated_not_fatal() {
        let records = sample_records();
        let full = encode_all(&records);
        let prefix = encode_all(&records[..records.len() - 1]).len();
        // Cut the file anywhere inside the last frame: everything up
        // to the previous frame survives, the tail is reported.
        for cut in prefix + 1..full.len() {
            let out = read_records(&full[..cut]).unwrap();
            assert_eq!(out.records.len(), records.len() - 1, "cut at {cut}");
            assert_eq!(out.valid_len, prefix as u64);
            assert_eq!(out.valid_len + out.dropped_bytes, cut as u64);
        }
    }

    #[test]
    fn bit_flip_in_tail_frame_is_discarded() {
        let records = sample_records();
        let mut bytes = encode_all(&records);
        let last = bytes.len() - 6; // inside the last frame's body/crc
        bytes[last] ^= 0x40;
        let out = read_records(&bytes).unwrap();
        assert_eq!(out.records.len(), records.len() - 1);
        assert!(out.dropped_bytes > 0);
    }

    #[test]
    fn unknown_kind_is_skipped_via_length_prefix() {
        let mut bytes = encode_all(&sample_records()[..1]);
        // A frame from "the future": kind 200 with an opaque payload.
        let body = [200u8, 1, 2, 3, 4];
        bytes.extend_from_slice(&(body.len() as u32).to_le_bytes());
        bytes.extend_from_slice(&body);
        bytes.extend_from_slice(&crc32(&body).to_le_bytes());
        append_frame(&mut bytes, &Record::JobCancelled { job: 9 });
        let out = read_records(&bytes).unwrap();
        assert_eq!(out.skipped, 1);
        assert_eq!(
            out.records.len(),
            2,
            "records after the alien frame still decode"
        );
        assert_eq!(out.dropped_bytes, 0);
    }

    #[test]
    fn newer_header_version_is_tolerated() {
        let mut bytes = encode_all(&sample_records());
        bytes[4..8].copy_from_slice(&(FORMAT_VERSION + 7).to_le_bytes());
        let out = read_records(&bytes).unwrap();
        assert_eq!(out.version, FORMAT_VERSION + 7);
        assert_eq!(out.records.len(), sample_records().len());
    }

    #[test]
    fn non_journal_bytes_are_rejected() {
        assert_eq!(read_records(b"").unwrap_err(), FrameError::NotAJournal);
        assert_eq!(read_records(b"KJN").unwrap_err(), FrameError::NotAJournal);
        assert_eq!(
            read_records(b"{\"schema\":\"krad-flight\"}").unwrap_err(),
            FrameError::NotAJournal
        );
    }
}
