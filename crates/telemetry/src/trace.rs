//! ktrace — the per-job lifecycle span model.
//!
//! A [`JobTrace`] is the end-to-end story of one job: release →
//! activation → first allotment → execution segments → completion,
//! every stamp in engine (virtual) time, optionally annotated with
//! wall-clock stamps the service layer records under its own lock
//! (submit/admit/inject/complete). The engine-time part is fully
//! deterministic: assembling a trace from a live session's event
//! stream and from its offline replay produces byte-identical
//! [`JobTrace::canonical_json`] encodings — that is the contract the
//! trace property tests pin.
//!
//! [`TraceAssembler`] folds a [`TelemetryEvent`] stream into traces
//! and doubles as a [`TelemetrySink`], so a service can wire it into
//! its telemetry fanout and read assembled traces while the session
//! runs. Like the span profiler, everything here is pay-for-what-you-
//! use: when no assembler sink is attached, the engine's per-job
//! emission is gated behind the telemetry handle's cached `enabled`
//! bit and costs one branch per step.

use crate::{TelemetryEvent, TelemetrySink};

/// One maximal run of consecutive steps in which the job executed at
/// least one task. The engine emits pieces truncated at quantum
/// decision boundaries; the assembler coalesces contiguous pieces, so
/// assembled segments are maximal runs. Bounds are inclusive engine
/// steps.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ExecSegment {
    /// First step of the segment.
    pub from: u64,
    /// Last step of the segment.
    pub to: u64,
    /// Tasks executed across the segment.
    pub tasks: u64,
}

crate::schema!(ExecSegment {
    from: req,
    to: req,
    tasks: req
});

impl ExecSegment {
    /// Number of steps the segment spans.
    pub fn steps(&self) -> u64 {
        self.to - self.from + 1
    }
}

/// Wall-clock stamps the service layer attaches to a trace, in
/// nanoseconds since the server's monotonic epoch. Engine-time fields
/// stay deterministic; these never enter the canonical encoding.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TraceStamps {
    /// When the job's submit request was read off the wire.
    pub submit_ns: Option<u64>,
    /// When admission committed (under the service lock).
    pub admit_ns: Option<u64>,
    /// When the job was injected into the engine.
    pub inject_ns: Option<u64>,
    /// When the completion was published.
    pub complete_ns: Option<u64>,
}

/// The assembled lifecycle of one job.
///
/// Engine-time invariants for a completed job (checked by
/// [`JobTrace::well_formed`]):
///
/// * `activated = release + 1 ≤ first_allot ≤ completion`;
/// * execution segments are ascending, disjoint, and contained in
///   `[first_allot, completion]`;
/// * `wait + service = response` exactly, where
///   `wait = first_allot − release − 1` and
///   `service = completion − first_allot + 1`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct JobTrace {
    /// Engine job index.
    pub job: u32,
    /// Release time `r(Ji)` (the job is present from `r + 1`).
    pub release: Option<u64>,
    /// Step at which the job entered the active set.
    pub activated: Option<u64>,
    /// Decision step of the first nonzero allotment.
    pub first_allot: Option<u64>,
    /// Execution segments in ascending step order.
    pub segments: Vec<ExecSegment>,
    /// Completion step `T(Ji)`.
    pub completion: Option<u64>,
    /// Response time `T(Ji) − r(Ji)`.
    pub response: Option<u64>,
    /// Service-layer wall-clock stamps (absent for offline replays).
    pub stamps: TraceStamps,
}

impl JobTrace {
    /// A fresh trace for job `job` with nothing observed yet.
    pub fn new(job: u32) -> Self {
        JobTrace {
            job,
            ..JobTrace::default()
        }
    }

    /// Steps spent released but never allotted:
    /// `first_allot − release − 1`.
    pub fn wait(&self) -> Option<u64> {
        Some(self.first_allot?.saturating_sub(self.release? + 1))
    }

    /// Steps from first allotment through completion:
    /// `completion − first_allot + 1`.
    pub fn service(&self) -> Option<u64> {
        Some(self.completion? + 1 - self.first_allot?)
    }

    /// Total tasks executed across all segments.
    pub fn executed_tasks(&self) -> u64 {
        self.segments.iter().map(|s| s.tasks).sum()
    }

    /// Whether the trace has observed the job's completion.
    pub fn is_complete(&self) -> bool {
        self.completion.is_some()
    }

    /// The deterministic engine-time encoding (fixed field order, no
    /// whitespace, wall stamps excluded). Live and replayed traces of
    /// the same session compare byte-for-byte through this.
    pub fn canonical_json(&self) -> String {
        let mut s = String::with_capacity(128);
        s.push_str("{\"job\":");
        s.push_str(&self.job.to_string());
        let opt = |s: &mut String, key: &str, v: Option<u64>| {
            if let Some(v) = v {
                s.push_str(",\"");
                s.push_str(key);
                s.push_str("\":");
                s.push_str(&v.to_string());
            }
        };
        opt(&mut s, "release", self.release);
        opt(&mut s, "activated", self.activated);
        opt(&mut s, "first_allot", self.first_allot);
        s.push_str(",\"segments\":[");
        for (i, seg) in self.segments.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "{{\"from\":{},\"to\":{},\"tasks\":{}}}",
                seg.from, seg.to, seg.tasks
            ));
        }
        s.push(']');
        opt(&mut s, "completion", self.completion);
        opt(&mut s, "response", self.response);
        s.push('}');
        s
    }

    /// Check the span-tree invariants against the job's known total
    /// work (tasks in its DAG). Only meaningful for completed jobs.
    pub fn well_formed(&self, total_work: u64) -> Result<(), String> {
        let release = self.release.ok_or("no release")?;
        let activated = self.activated.ok_or("no activation")?;
        let first = self.first_allot.ok_or("no first allotment")?;
        let completion = self.completion.ok_or("no completion")?;
        let response = self.response.ok_or("no response")?;
        if activated != release + 1 {
            return Err(format!("activated {activated} != release {release} + 1"));
        }
        if first < activated || first > completion {
            return Err(format!(
                "first allotment {first} outside [{activated}, {completion}]"
            ));
        }
        if completion - release != response {
            return Err(format!(
                "completion {completion} - release {release} != response {response}"
            ));
        }
        let (wait, service) = (self.wait().unwrap(), self.service().unwrap());
        if wait + service != response {
            return Err(format!(
                "wait {wait} + service {service} != response {response}"
            ));
        }
        let mut prev_to = first.saturating_sub(1);
        let mut first_seg = true;
        for seg in &self.segments {
            if seg.from > seg.to || seg.tasks == 0 {
                return Err(format!("degenerate segment {seg:?}"));
            }
            let lo = if first_seg { first } else { prev_to + 1 };
            if seg.from < lo {
                return Err(format!("segment {seg:?} overlaps or precedes step {lo}"));
            }
            if seg.to > completion {
                return Err(format!("segment {seg:?} beyond completion {completion}"));
            }
            prev_to = seg.to;
            first_seg = false;
        }
        if self.executed_tasks() != total_work {
            return Err(format!(
                "segments sum to {} tasks, job has {total_work}",
                self.executed_tasks()
            ));
        }
        match self.segments.last() {
            Some(last) if last.to == completion => Ok(()),
            Some(last) => Err(format!(
                "last segment ends at {} but job completes at {completion}",
                last.to
            )),
            None => Err("completed job has no execution segments".into()),
        }
    }

    /// Render the trace as an ASCII span tree.
    pub fn render_tree(&self, label: &str) -> String {
        let mut out = String::new();
        out.push_str(&format!("job {label}"));
        if let (Some(r), Some(c), Some(resp)) = (self.release, self.completion, self.response) {
            out.push_str(&format!(": release={r} completion={c} response={resp}"));
        } else if let Some(r) = self.release {
            out.push_str(&format!(": release={r} (incomplete)"));
        } else {
            out.push_str(": (not yet injected)");
        }
        out.push('\n');
        if let Some(ns) = self.stamps.admit_ns {
            out.push_str(&format!("  wall: admit +{:.3}ms", ns as f64 / 1e6));
            if let Some(ns) = self.stamps.inject_ns {
                out.push_str(&format!(", inject +{:.3}ms", ns as f64 / 1e6));
            }
            if let Some(ns) = self.stamps.complete_ns {
                out.push_str(&format!(", complete +{:.3}ms", ns as f64 / 1e6));
            }
            out.push('\n');
        }
        let (Some(activated), Some(first)) = (self.activated, self.first_allot) else {
            if let Some(a) = self.activated {
                out.push_str(&format!("└─ waiting since step {a} (never allotted)\n"));
            }
            return out;
        };
        let completion = self.completion;
        let active_to = completion.map_or("…".to_string(), |c| c.to_string());
        out.push_str(&format!("└─ active [{activated}..{active_to}]"));
        if let Some(resp) = self.response {
            out.push_str(&format!(" ({resp} steps)"));
        }
        out.push('\n');
        let wait = first - activated;
        if wait > 0 {
            out.push_str(&format!(
                "   ├─ wait    [{activated}..{}] ({wait} steps)\n",
                first - 1
            ));
        } else {
            out.push_str("   ├─ wait    (0 steps)\n");
        }
        out.push_str(&format!("   └─ service [{first}..{active_to}]"));
        if let Some(s) = self.service() {
            out.push_str(&format!(" ({s} steps, {} tasks)", self.executed_tasks()));
        }
        out.push('\n');
        for (i, seg) in self.segments.iter().enumerate() {
            let branch = if i + 1 == self.segments.len() {
                "└─"
            } else {
                "├─"
            };
            out.push_str(&format!(
                "      {branch} exec [{}..{}] ({} steps, {} tasks)\n",
                seg.from,
                seg.to,
                seg.steps(),
                seg.tasks
            ));
        }
        out
    }
}

/// Folds a telemetry event stream into per-job [`JobTrace`]s.
///
/// Works both offline (feed a recorded stream through
/// [`TraceAssembler::observe`] or [`assemble_traces`]) and live: the
/// assembler is a [`TelemetrySink`], so a service can register it in
/// its fanout and snapshot traces mid-session.
#[derive(Debug, Default)]
pub struct TraceAssembler {
    traces: Vec<JobTrace>,
}

impl TraceAssembler {
    /// An empty assembler.
    pub fn new() -> Self {
        TraceAssembler::default()
    }

    fn job_mut(&mut self, job: u32) -> &mut JobTrace {
        let idx = job as usize;
        while self.traces.len() <= idx {
            let j = self.traces.len() as u32;
            self.traces.push(JobTrace::new(j));
        }
        &mut self.traces[idx]
    }

    /// Fold one event into the traces.
    pub fn observe(&mut self, event: &TelemetryEvent) {
        match event {
            TelemetryEvent::JobReleased { t, job } => {
                let tr = self.job_mut(*job);
                tr.activated = Some(*t);
                tr.release = Some(t.saturating_sub(1));
            }
            TelemetryEvent::JobFirstAllot { t, job } => {
                let tr = self.job_mut(*job);
                if tr.first_allot.is_none() {
                    tr.first_allot = Some(*t);
                }
            }
            TelemetryEvent::JobExecSegment {
                job,
                from,
                to,
                tasks,
            } => {
                // Coalesce back-to-back segments (the emitter truncates
                // at quantum boundaries, so a job running across
                // boundaries arrives as contiguous pieces): the
                // assembled trace keeps maximal execution runs, and the
                // hot path updates the tail in place instead of
                // growing the vector once per quantum.
                let segments = &mut self.job_mut(*job).segments;
                if let Some(last) = segments.last_mut() {
                    if last.to + 1 == *from {
                        last.to = *to;
                        last.tasks += *tasks;
                        return;
                    }
                }
                segments.push(ExecSegment {
                    from: *from,
                    to: *to,
                    tasks: *tasks,
                });
            }
            TelemetryEvent::JobCompleted { t, job, response } => {
                let tr = self.job_mut(*job);
                tr.completion = Some(*t);
                tr.response = Some(*response);
                tr.release = Some(t - response);
            }
            _ => {}
        }
    }

    /// The traces assembled so far, indexed by engine job id.
    pub fn traces(&self) -> &[JobTrace] {
        &self.traces
    }

    /// One job's trace, if the stream has mentioned it.
    pub fn job(&self, job: u32) -> Option<&JobTrace> {
        self.traces.get(job as usize)
    }

    /// One job's trace, mutably (the service layer uses this to attach
    /// wall-clock stamps under its lock).
    pub fn job_mut_public(&mut self, job: u32) -> &mut JobTrace {
        self.job_mut(job)
    }

    /// Number of jobs seen.
    pub fn len(&self) -> usize {
        self.traces.len()
    }

    /// Whether no job has been seen yet.
    pub fn is_empty(&self) -> bool {
        self.traces.is_empty()
    }

    /// Consume the assembler, returning the traces.
    pub fn into_traces(self) -> Vec<JobTrace> {
        self.traces
    }
}

impl TelemetrySink for TraceAssembler {
    fn record(&mut self, event: TelemetryEvent) {
        self.observe(&event);
    }

    fn record_ref(&mut self, event: &TelemetryEvent) {
        self.observe(event);
    }

    fn interest(&self) -> u32 {
        crate::interest::JOB_LIFECYCLE
    }
}

/// Assemble every job's trace from a recorded event stream.
pub fn assemble_traces(events: &[TelemetryEvent]) -> Vec<JobTrace> {
    let mut asm = TraceAssembler::new();
    for e in events {
        asm.observe(e);
    }
    asm.into_traces()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream() -> Vec<TelemetryEvent> {
        vec![
            TelemetryEvent::JobReleased { t: 6, job: 0 },
            TelemetryEvent::JobFirstAllot { t: 8, job: 0 },
            TelemetryEvent::JobExecSegment {
                job: 0,
                from: 8,
                to: 10,
                tasks: 5,
            },
            TelemetryEvent::JobExecSegment {
                job: 0,
                from: 12,
                to: 14,
                tasks: 4,
            },
            TelemetryEvent::JobCompleted {
                t: 14,
                job: 0,
                response: 9,
            },
        ]
    }

    #[test]
    fn assembles_wait_service_decomposition() {
        let traces = assemble_traces(&stream());
        let tr = &traces[0];
        assert_eq!(tr.release, Some(5));
        assert_eq!(tr.activated, Some(6));
        assert_eq!(tr.first_allot, Some(8));
        assert_eq!(tr.completion, Some(14));
        assert_eq!(tr.wait(), Some(2));
        assert_eq!(tr.service(), Some(7));
        assert_eq!(tr.wait().unwrap() + tr.service().unwrap(), 9);
        assert_eq!(tr.executed_tasks(), 9);
        tr.well_formed(9).unwrap();
    }

    #[test]
    fn well_formedness_catches_violations() {
        let traces = assemble_traces(&stream());
        let tr = &traces[0];
        assert!(tr.well_formed(10).unwrap_err().contains("tasks"));

        let mut bad = tr.clone();
        bad.segments[1].from = 9; // overlaps segment 0
        assert!(bad.well_formed(9).unwrap_err().contains("overlaps"));

        let mut bad = tr.clone();
        bad.first_allot = Some(4); // before activation
        assert!(bad.well_formed(9).is_err());

        let mut bad = tr.clone();
        bad.segments.pop();
        assert!(bad.well_formed(9).is_err());

        assert!(JobTrace::new(1).well_formed(0).is_err());
    }

    #[test]
    fn canonical_json_is_stable_and_excludes_wall_stamps() {
        let mut traces = assemble_traces(&stream());
        let plain = traces[0].canonical_json();
        assert_eq!(
            plain,
            "{\"job\":0,\"release\":5,\"activated\":6,\"first_allot\":8,\
             \"segments\":[{\"from\":8,\"to\":10,\"tasks\":5},\
             {\"from\":12,\"to\":14,\"tasks\":4}],\
             \"completion\":14,\"response\":9}"
        );
        traces[0].stamps.admit_ns = Some(1234);
        assert_eq!(traces[0].canonical_json(), plain);
    }

    #[test]
    fn renders_a_span_tree() {
        let traces = assemble_traces(&stream());
        let tree = traces[0].render_tree("0");
        assert!(tree.contains("release=5 completion=14 response=9"));
        assert!(tree.contains("wait    [6..7] (2 steps)"));
        assert!(tree.contains("service [8..14] (7 steps, 9 tasks)"));
        assert!(tree.contains("exec [8..10] (3 steps, 5 tasks)"));
        assert!(tree.contains("exec [12..14] (3 steps, 4 tasks)"));

        // Incomplete and empty traces render without panicking.
        let partial = assemble_traces(&stream()[..2]);
        assert!(partial[0].render_tree("0").contains("incomplete"));
        assert!(JobTrace::new(3).render_tree("3").contains("not yet"));
    }

    #[test]
    fn assembler_is_a_sink() {
        let mut asm = TraceAssembler::new();
        assert!(asm.is_empty());
        for e in stream() {
            asm.record(e);
        }
        assert_eq!(asm.len(), 1);
        assert!(asm.job(0).unwrap().is_complete());
        assert!(asm.job(7).is_none());
    }
}
