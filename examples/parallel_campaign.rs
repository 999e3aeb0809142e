//! Work-stealing test parallelization (paper §5.5).
//!
//! Acto partitions long operation sequences and runs segments on separate
//! (simulated) clusters to finish campaigns within a nightly budget. This
//! example compares 1, 4, and 8 workers on RabbitMQOp, each run building
//! its own segment prefixes (one jump `S_0 → S_k` per segment), and checks
//! that every worker count observed the exact same trials.
//!
//! ```sh
//! cargo run --release --example parallel_campaign
//! ```

use acto_repro::acto::parallel::{run_work_stealing_with, DEFAULT_SEGMENT_OPS};
use acto_repro::acto::report::render_parallel;
use acto_repro::acto::{CampaignConfig, Mode};

fn main() {
    let mut config = CampaignConfig::evaluation("RabbitMQOp", Mode::Whitebox);
    config.differential = false; // Keep each worker light for the demo.
    println!("Work-stealing campaigns for RabbitMQOp:\n");
    let mut transcript: Option<String> = None;
    for workers in [1, 4, 8] {
        let result = run_work_stealing_with(&config, workers, DEFAULT_SEGMENT_OPS);
        println!("{}", render_parallel(&result));
        match &transcript {
            None => transcript = Some(result.transcript()),
            Some(reference) => assert_eq!(
                reference,
                &result.transcript(),
                "worker count changed what the campaign observed"
            ),
        }
    }
    println!(
        "All worker counts produced byte-identical transcripts.\n\n\
         The makespan (the segments' sim costs replayed through the \
         claim rule, so the same on every host) is what bounds the \
         campaign wall-clock; the paper runs 8-16 workers per machine \
         so all eleven campaigns finish overnight."
    );
}
