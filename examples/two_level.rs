//! Two-level scheduling realism: quanta and A-Greedy desire feedback.
//!
//! ```text
//! cargo run --release --example two_level
//! ```
//!
//! The paper's model consults the scheduler every unit step with exact
//! instantaneous desires. Real runtimes reallocate in quanta and
//! estimate parallelism from history (the RAD lineage's A-Greedy).
//! This example shows both knobs on one workload — including the
//! brittleness of sampling exact desires with long quanta.

use krad_suite::kanalysis::table::{f3, Table};
use krad_suite::ksim::DesireModel;
use krad_suite::kworkloads::mixes::{batched_mix, MixConfig};
use krad_suite::kworkloads::rng_for;
use krad_suite::prelude::*;

fn main() {
    let k = 2usize;
    let res = Resources::uniform(k, 6);
    let jobs = batched_mix(&mut rng_for(2024, 0), &MixConfig::new(k, 24, 40));
    let lb = makespan_bounds(&jobs, &res).lower_bound();

    let mut table = Table::new(
        "K-RAD under two-level realism",
        &["quantum", "desires", "makespan", "T/LB", "mean resp"],
    );
    for quantum in [1u64, 4, 16] {
        for (label, model) in [
            ("exact", DesireModel::Exact),
            ("a-greedy δ=0.8", DesireModel::AGreedy { delta: 0.8 }),
        ] {
            let cfg = SimConfig::default()
                .with_quantum(quantum)
                .with_desire_model(model);
            let o = simulate(&mut KRad::new(k), &jobs, &res, &cfg);
            table.row_owned(vec![
                quantum.to_string(),
                label.to_string(),
                o.makespan.to_string(),
                f3(o.makespan as f64 / lb),
                f3(o.mean_response()),
            ]);
        }
    }
    table.note("exact + q=1 is the paper's model (and the best row)");
    table.note("with long quanta, exact sampling freezes momentarily-idle categories out for a whole quantum; feedback smooths over it");
    println!("{table}");
}
