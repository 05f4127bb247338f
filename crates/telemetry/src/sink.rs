//! Sinks and the handle instrumented code holds.

use crate::json::to_json;
use crate::TelemetryEvent;
use std::fmt;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::{Arc, Mutex};

/// Where telemetry events go.
///
/// Implementations must be cheap per event; the engine can emit several
/// events per simulated step.
pub trait TelemetrySink {
    /// Whether emitting to this sink does anything. Handles cache this
    /// at construction: when `false`, instrumented code skips event
    /// construction entirely (the [`NoopSink`] fast path).
    fn enabled(&self) -> bool {
        true
    }

    /// Record one event.
    fn record(&mut self, event: TelemetryEvent);

    /// Record a borrowed event. Sinks that only *read* events (e.g. a
    /// trace assembler or mode tracker) override this to skip the
    /// clone the default incurs — fanouts use it for every sink except
    /// the one that can take ownership.
    fn record_ref(&mut self, event: &TelemetryEvent) {
        self.record(event.clone());
    }

    /// Which event kinds this sink consumes, as a mask of
    /// [`crate::interest`] bits. A [`FanoutSink`] reads this once at
    /// construction and never locks the sink for events outside the
    /// mask, so narrow sinks cost nothing on the kinds they ignore.
    /// Must be constant for the sink's lifetime. Default: everything.
    fn interest(&self) -> u32 {
        crate::interest::ALL
    }

    /// Flush any buffered output (no-op for in-memory sinks).
    fn flush(&mut self) {}
}

/// A sink that drops everything and reports itself disabled, so
/// instrumented hot paths reduce to a single branch per emission site.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoopSink;

impl TelemetrySink for NoopSink {
    fn enabled(&self) -> bool {
        false
    }

    fn record(&mut self, _event: TelemetryEvent) {}

    fn record_ref(&mut self, _event: &TelemetryEvent) {}

    fn interest(&self) -> u32 {
        0
    }
}

/// An in-memory sink collecting every event, for tests and summaries.
#[derive(Clone, Debug, Default)]
pub struct RecordingSink {
    events: Vec<TelemetryEvent>,
}

impl RecordingSink {
    /// An empty recording sink.
    pub fn new() -> Self {
        RecordingSink::default()
    }

    /// The events recorded so far, in emission order.
    pub fn events(&self) -> &[TelemetryEvent] {
        &self.events
    }

    /// Drain the recorded events out of the sink.
    pub fn take(&mut self) -> Vec<TelemetryEvent> {
        std::mem::take(&mut self.events)
    }
}

impl TelemetrySink for RecordingSink {
    fn record(&mut self, event: TelemetryEvent) {
        self.events.push(event);
    }
}

/// A sink writing one JSON object per line (JSONL) to a file.
#[derive(Debug)]
pub struct JsonlSink {
    writer: BufWriter<File>,
    written: u64,
}

impl JsonlSink {
    /// Create (truncating) the JSONL file at `path`.
    pub fn create(path: &Path) -> std::io::Result<JsonlSink> {
        Ok(JsonlSink {
            writer: BufWriter::new(File::create(path)?),
            written: 0,
        })
    }

    /// Number of events written so far.
    pub fn events_written(&self) -> u64 {
        self.written
    }
}

impl TelemetrySink for JsonlSink {
    fn record(&mut self, event: TelemetryEvent) {
        self.record_ref(&event);
    }

    fn record_ref(&mut self, event: &TelemetryEvent) {
        // I/O errors are not worth panicking a simulation over; the
        // line count lets callers notice a short file.
        if writeln!(self.writer, "{}", to_json(event)).is_ok() {
            self.written += 1;
        }
    }

    fn flush(&mut self) {
        let _ = self.writer.flush();
    }
}

impl Drop for JsonlSink {
    fn drop(&mut self) {
        let _ = self.writer.flush();
    }
}

/// A shareable, thread-safe sink (the form handles hold).
pub type SharedSink = Arc<Mutex<dyn TelemetrySink + Send>>;

/// Duplicate every event to several shared sinks (e.g. a JSONL file
/// *and* an in-memory recording for the summary report). Each sink's
/// [`TelemetrySink::interest`] mask is read once at construction;
/// events outside a sink's mask never lock it.
pub struct FanoutSink {
    sinks: Vec<(SharedSink, u32)>,
}

impl FanoutSink {
    /// Fan out to `sinks` in order.
    pub fn new(sinks: Vec<SharedSink>) -> Self {
        let sinks = sinks
            .into_iter()
            .map(|s| {
                let mask = s.lock().map_or(crate::interest::ALL, |g| g.interest());
                (s, mask)
            })
            .collect();
        FanoutSink { sinks }
    }
}

impl fmt::Debug for FanoutSink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FanoutSink")
            .field("sinks", &self.sinks.len())
            .finish()
    }
}

impl TelemetrySink for FanoutSink {
    fn enabled(&self) -> bool {
        self.sinks
            .iter()
            .any(|(s, _)| s.lock().map(|g| g.enabled()).unwrap_or(false))
    }

    fn record(&mut self, event: TelemetryEvent) {
        let bit = event.kind_bit();
        let Some(last) = self.sinks.iter().rposition(|&(_, mask)| mask & bit != 0) else {
            return;
        };
        for (i, (sink, mask)) in self.sinks.iter().enumerate().take(last + 1) {
            if mask & bit == 0 {
                continue;
            }
            if let Ok(mut g) = sink.lock() {
                if i == last {
                    return g.record(event);
                }
                g.record_ref(&event);
            }
        }
    }

    fn flush(&mut self) {
        for (sink, _) in &self.sinks {
            if let Ok(mut g) = sink.lock() {
                g.flush();
            }
        }
    }
}

/// The handle instrumented code holds: a cheap clonable reference to a
/// sink, with the enabled state cached so disabled telemetry costs one
/// boolean test per emission site and never constructs the event.
///
/// ```
/// use ktelemetry::{TelemetryEvent, TelemetryHandle};
/// let off = TelemetryHandle::off();
/// // The closure is never evaluated when telemetry is off:
/// off.emit(|| unreachable!("not constructed"));
///
/// let (tel, rec) = TelemetryHandle::recording();
/// tel.emit(|| TelemetryEvent::IdleSkip { from: 3, to: 10 });
/// assert_eq!(rec.lock().unwrap().events().len(), 1);
/// ```
#[derive(Clone, Default)]
pub struct TelemetryHandle {
    sink: Option<SharedSink>,
    enabled: bool,
}

impl TelemetryHandle {
    /// A disabled handle (the default everywhere).
    pub fn off() -> Self {
        TelemetryHandle::default()
    }

    /// Wrap an owned sink.
    pub fn new(sink: impl TelemetrySink + Send + 'static) -> Self {
        let enabled = sink.enabled();
        TelemetryHandle {
            sink: Some(Arc::new(Mutex::new(sink))),
            enabled,
        }
    }

    /// Wrap an already-shared sink (so the caller keeps access to it,
    /// e.g. to read a [`RecordingSink`] back after the run).
    pub fn from_shared(sink: SharedSink) -> Self {
        let enabled = sink.lock().map(|g| g.enabled()).unwrap_or(false);
        TelemetryHandle {
            sink: Some(sink),
            enabled,
        }
    }

    /// A handle plus the shared [`RecordingSink`] it feeds.
    pub fn recording() -> (TelemetryHandle, Arc<Mutex<RecordingSink>>) {
        let rec = Arc::new(Mutex::new(RecordingSink::new()));
        let handle = TelemetryHandle::from_shared(rec.clone());
        (handle, rec)
    }

    /// Whether emissions reach a live sink.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Emit an event. The closure runs only when the handle is
    /// enabled, so construction cost (allocation, cloning vectors) is
    /// never paid on the disabled path.
    #[inline]
    pub fn emit(&self, f: impl FnOnce() -> TelemetryEvent) {
        if self.enabled {
            if let Some(sink) = &self.sink {
                if let Ok(mut g) = sink.lock() {
                    g.record(f());
                }
            }
        }
    }

    /// Flush the underlying sink.
    pub fn flush(&self) {
        if let Some(sink) = &self.sink {
            if let Ok(mut g) = sink.lock() {
                g.flush();
            }
        }
    }
}

/// A handle is itself a sink, so one handle can fan out into another
/// pipeline (e.g. a server duplicating events to the user's sink
/// *and* a [`crate::FlightRecorder`] via a [`FanoutSink`]).
impl TelemetrySink for TelemetryHandle {
    fn enabled(&self) -> bool {
        self.is_enabled()
    }

    fn record(&mut self, event: TelemetryEvent) {
        self.emit(move || event);
    }

    fn record_ref(&mut self, event: &TelemetryEvent) {
        if self.enabled {
            if let Some(sink) = &self.sink {
                if let Ok(mut g) = sink.lock() {
                    g.record_ref(event);
                }
            }
        }
    }

    fn flush(&mut self) {
        TelemetryHandle::flush(self);
    }
}

// The sink is a `dyn` object; render only the useful bit.
impl fmt::Debug for TelemetryHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TelemetryHandle")
            .field("enabled", &self.enabled)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SchedulerMode;

    fn ev(t: u64) -> TelemetryEvent {
        TelemetryEvent::StepStart { t, active_jobs: 1 }
    }

    #[test]
    fn off_handle_never_calls_closure() {
        let h = TelemetryHandle::off();
        assert!(!h.is_enabled());
        let mut called = false;
        h.emit(|| {
            called = true;
            ev(1)
        });
        assert!(!called);
        h.flush(); // no-op, must not panic
    }

    #[test]
    fn noop_sink_reports_disabled_through_handle() {
        let h = TelemetryHandle::new(NoopSink);
        assert!(!h.is_enabled());
        let mut called = false;
        h.emit(|| {
            called = true;
            ev(1)
        });
        assert!(!called, "NoopSink must not trigger event construction");
    }

    #[test]
    fn recording_sink_captures_in_order() {
        let (h, rec) = TelemetryHandle::recording();
        assert!(h.is_enabled());
        for t in 1..=3 {
            h.emit(|| ev(t));
        }
        let events = rec.lock().unwrap().take();
        assert_eq!(events, vec![ev(1), ev(2), ev(3)]);
        assert!(rec.lock().unwrap().events().is_empty(), "take drains");
    }

    #[test]
    fn handle_clones_share_the_sink() {
        let (h, rec) = TelemetryHandle::recording();
        let h2 = h.clone();
        h.emit(|| ev(1));
        h2.emit(|| ev(2));
        assert_eq!(rec.lock().unwrap().events().len(), 2);
    }

    #[test]
    fn jsonl_sink_writes_parseable_lines() {
        let dir = std::env::temp_dir().join(format!("ktel-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("events.jsonl");
        {
            let mut sink = JsonlSink::create(&path).unwrap();
            sink.record(ev(1));
            sink.record(TelemetryEvent::ModeTransition {
                t: 2,
                category: 1,
                from: SchedulerMode::Deq,
                to: SchedulerMode::RoundRobin,
                active_jobs: 9,
            });
            assert_eq!(sink.events_written(), 2);
            sink.flush();
        }
        let text = std::fs::read_to_string(&path).unwrap();
        let parsed = crate::json::parse_jsonl(&text).unwrap();
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[0], ev(1));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fanout_duplicates_to_every_sink() {
        let a: Arc<Mutex<RecordingSink>> = Arc::new(Mutex::new(RecordingSink::new()));
        let b: Arc<Mutex<RecordingSink>> = Arc::new(Mutex::new(RecordingSink::new()));
        let fan = FanoutSink::new(vec![a.clone(), b.clone()]);
        let h = TelemetryHandle::new(fan);
        assert!(h.is_enabled());
        h.emit(|| ev(7));
        assert_eq!(a.lock().unwrap().events(), &[ev(7)]);
        assert_eq!(b.lock().unwrap().events(), &[ev(7)]);
    }

    #[test]
    fn fanout_of_noops_is_disabled() {
        let n: SharedSink = Arc::new(Mutex::new(NoopSink));
        let h = TelemetryHandle::new(FanoutSink::new(vec![n]));
        assert!(!h.is_enabled());
        let empty = TelemetryHandle::new(FanoutSink::new(vec![]));
        assert!(!empty.is_enabled());
    }

    #[test]
    fn debug_formats_without_dyn_noise() {
        let h = TelemetryHandle::off();
        assert!(format!("{h:?}").contains("enabled: false"));
    }
}
