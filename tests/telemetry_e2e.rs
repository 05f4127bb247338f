//! End-to-end telemetry: a T2-style workload runs with a JSONL file
//! sink and an in-memory recording fanned out from one handle; the
//! re-parsed file reproduces the recording, and the summary rebuilt
//! from events matches the simulator's own outcome.

use kanalysis::telemetry_report::TelemetrySummary;
use kbaselines::SchedulerKind;
use kdag::SelectionPolicy;
use kexperiments::runner;
use ksim::{Resources, SimConfig};
use ktelemetry::{
    json::parse_jsonl, FanoutSink, JsonlSink, RecordingSink, SharedSink, TelemetryEvent,
    TelemetryHandle,
};
use kworkloads::mixes::{batched_mix, MixConfig};
use kworkloads::rng_for;
use std::sync::{Arc, Mutex};

#[test]
fn jsonl_stream_reproduces_the_run() {
    let dir = std::env::temp_dir().join(format!("krad-tel-e2e-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("events.jsonl");

    // A T2-style batched mix: 14 jobs over 2 categories on a small
    // machine, heavy enough to force round-robin cycles.
    let mut rng = rng_for(7, 0x72);
    let jobs = batched_mix(&mut rng, &MixConfig::new(2, 14, 30));
    let res = Resources::new(vec![3, 2]);

    let rec = Arc::new(Mutex::new(RecordingSink::new()));
    let file = Arc::new(Mutex::new(JsonlSink::create(&path).unwrap()));
    let tel = TelemetryHandle::new(FanoutSink::new(vec![
        rec.clone() as SharedSink,
        file.clone() as SharedSink,
    ]));
    let cfg = SimConfig::default()
        .with_policy(SelectionPolicy::Fifo)
        .with_seed(7)
        .with_telemetry(tel.clone());
    let o = runner::run(SchedulerKind::KRad, &jobs, &res, &cfg);
    tel.flush();

    // The file round-trips to exactly the recorded stream.
    let recorded = rec.lock().unwrap().take();
    let written = file.lock().unwrap().events_written();
    assert_eq!(written as usize, recorded.len());
    let text = std::fs::read_to_string(&path).unwrap();
    let parsed = parse_jsonl(&text).unwrap();
    assert_eq!(parsed, recorded, "JSONL must round-trip event-for-event");

    // The summary rebuilt from the parsed file matches the outcome.
    let s = TelemetrySummary::from_events(&parsed);
    assert_eq!(s.scheduler, o.scheduler);
    assert_eq!(s.jobs as usize, jobs.len());
    assert_eq!(s.makespan, o.makespan);
    assert_eq!(s.busy_steps, o.busy_steps);
    assert_eq!(s.idle_steps, o.idle_steps);
    assert_eq!(s.executed, o.executed_by_category);
    assert_eq!(s.allotted, o.allotted_by_category);
    assert_eq!(s.responses.len(), jobs.len());
    for cat in kdag::Category::all(res.k()) {
        let got = s.utilization(cat.index(), &res);
        let want = o.utilization(cat, &res);
        assert!(
            (got - want).abs() < 1e-12,
            "{cat}: utilization {got} != {want}"
        );
    }

    // Transition counts are internally consistent: a category can end
    // the run in RR, so DEQ→RR leads RR→DEQ by at most one.
    let overload = jobs.len() as u32 > res.as_slice().iter().sum::<u32>();
    let mut saw_transition = false;
    for cat in 0..res.k() {
        let (up, down) = (s.to_rr[cat], s.to_deq[cat]);
        assert!(
            up == down || up == down + 1,
            "category {cat}: {up} DEQ→RR vs {down} RR→DEQ"
        );
        saw_transition |= up > 0;
    }
    assert!(
        !overload || saw_transition,
        "14 jobs on 5 processors must trip round-robin somewhere"
    );

    // Decision events exist for every busy step and category that had
    // active jobs; weaker but stream-level: some decisions recorded.
    assert!(s.decisions.iter().sum::<u64>() >= s.busy_steps);

    // The rendered report carries the headline numbers.
    let rendered = s.render(&res);
    assert!(rendered.contains(&format!("makespan {}", o.makespan)));
    assert!(rendered.contains("utilization timeline"));

    // Sanity on the wire format itself: every line is a single JSON
    // object naming its event kind.
    for (line, event) in text.lines().zip(&parsed) {
        assert!(line.starts_with("{\"event\":\""));
        assert!(line.contains(event.kind()));
    }
    assert!(parsed
        .iter()
        .any(|e| matches!(e, TelemetryEvent::Decision { .. })));

    std::fs::remove_dir_all(&dir).ok();
}
