//! F2 — Figure 2: RAD pseudo-code conformance.
//!
//! Drives the production DEQ/RAD implementations through hand-computed
//! scenarios taken directly from the pseudo-code's three procedures
//! (DEQ, ROUND-ROBIN, RAD) and reports expected-vs-got golden rows.

use crate::RunOpts;
use kanalysis::report::ExperimentReport;
use kanalysis::table::Table;
use kdag::{Category, JobId};
use krad::deq::deq_allot;
use krad::{RadState, SlotTable};
use ksim::{AllotmentMatrix, JobView};
use ktelemetry::json::Value;

/// One golden case: a description, the computed allotments, and the
/// hand-derived expectation.
struct Case {
    name: &'static str,
    got: Vec<u32>,
    expected: Vec<u32>,
}

fn rad_step(rad: &mut RadState, desires: &[u32], p: u32) -> Vec<u32> {
    let rows: Vec<[u32; 1]> = desires.iter().map(|&d| [d]).collect();
    let views: Vec<JobView<'_>> = rows
        .iter()
        .enumerate()
        .map(|(i, d)| JobView {
            id: JobId(i as u32),
            release: 0,
            desires: d,
        })
        .collect();
    let mut out = AllotmentMatrix::new(1);
    out.reset(views.len());
    let mut slots = SlotTable::new();
    slots.fill(&views);
    rad.allot(1, &views, &slots, p, &mut out);
    (0..views.len()).map(|s| out.get(s, Category(0))).collect()
}

fn cases() -> Vec<Case> {
    let mut cases = Vec::new();

    // DEQ line 2: S = {Ji : d ≤ P/|Q|} — satisfied jobs keep their
    // desire, the rest split the remainder (recursion).
    cases.push(Case {
        name: "DEQ: desires (2,5,9), P=8 -> (2,3,3)",
        got: deq_allot(&[2, 5, 9], 8, 0),
        expected: vec![2, 3, 3],
    });
    // DEQ line 3-6: S empty -> everyone gets P/|Q|.
    cases.push(Case {
        name: "DEQ: desires (9,9), P=6 -> (3,3)",
        got: deq_allot(&[9, 9], 6, 0),
        expected: vec![3, 3],
    });
    // DEQ with sufficient capacity: all satisfied.
    cases.push(Case {
        name: "DEQ: desires (1,2,3), P=10 -> (1,2,3)",
        got: deq_allot(&[1, 2, 3], 10, 0),
        expected: vec![1, 2, 3],
    });

    // RAD line 3-4: |Q| > P -> ROUND-ROBIN over first P of Q.
    let mut rad = RadState::new(Category(0));
    for id in 0..5 {
        rad.job_arrived(JobId(id));
    }
    cases.push(Case {
        name: "RAD heavy step 1: 5 jobs, P=2 -> jobs 0,1 get 1",
        got: rad_step(&mut rad, &[3, 3, 3, 3, 3], 2),
        expected: vec![1, 1, 0, 0, 0],
    });
    cases.push(Case {
        name: "RAD heavy step 2: marked skipped -> jobs 2,3",
        got: rad_step(&mut rad, &[3, 3, 3, 3, 3], 2),
        expected: vec![0, 0, 1, 1, 0],
    });
    // RAD line 6: cycle end moves min(|Q'|, P-|Q|) marked jobs into
    // DEQ and unmarks everyone.
    cases.push(Case {
        name: "RAD cycle end: Q={4} topped up with job 0 -> (1,0,0,0,1)",
        got: rad_step(&mut rad, &[3, 3, 3, 3, 3], 2),
        expected: vec![1, 0, 0, 0, 1],
    });
    // After the cycle, marks are clear: round robin restarts at job 0.
    cases.push(Case {
        name: "RAD new cycle: restarts from queue head",
        got: rad_step(&mut rad, &[3, 3, 3, 3, 3], 2),
        expected: vec![1, 1, 0, 0, 0],
    });

    // RAD line 5-7 under light load: pure DEQ behavior.
    let mut rad2 = RadState::new(Category(0));
    for id in 0..3 {
        rad2.job_arrived(JobId(id));
    }
    cases.push(Case {
        name: "RAD light: desires (2,5,9), P=8 -> DEQ (2,3,3)",
        got: rad_step(&mut rad2, &[2, 5, 9], 8),
        expected: vec![2, 3, 3],
    });

    cases
}

/// Run F2.
pub fn run(_opts: &RunOpts) -> ExperimentReport {
    let cases = cases();
    let mut table = Table::new(
        "F2 — Figure 2: RAD pseudo-code golden traces",
        &["case", "expected", "got", "ok"],
    );
    let mut passed = true;
    for c in &cases {
        let ok = c.got == c.expected;
        passed &= ok;
        table.row_owned(vec![
            c.name.to_string(),
            format!("{:?}", c.expected),
            format!("{:?}", c.got),
            if ok { "yes" } else { "NO" }.to_string(),
        ]);
    }

    ExperimentReport {
        id: "F2".into(),
        title: "Figure 2: RAD pseudo-code (DEQ + ROUND-ROBIN + RAD) conformance".into(),
        paper_claim: "RAD uses DEQ when |J(α,t)| ≤ Pα and marked round-robin cycles otherwise"
            .into(),
        params: Value::map([("cases", Value::from(cases.len()))]),
        table,
        conclusions: vec![format!(
            "{}/{} golden traces match the hand-derived pseudo-code behavior",
            cases.iter().filter(|c| c.got == c.expected).count(),
            cases.len()
        )],
        passed,
        extra_files: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f2_all_golden_traces_match() {
        let r = run(&RunOpts::quick(0));
        assert!(r.passed, "{}", r.table.render());
    }
}
