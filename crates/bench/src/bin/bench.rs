//! The bench harness: runs the studies in [`acto_bench::studies`] and
//! writes each one's `BENCH_<study>.json` into the working directory.
//!
//! Usage: `bench [--quick] [study…]` (or `ACTO_QUICK=1`). With no study
//! named it runs all nine. Exits 1 when any gate fails, any study panics
//! or any artifact cannot be written, and 2 on an unknown study name.

use std::path::Path;

use acto_bench::studies::STUDIES;
use acto_bench::{harness, quick};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(harness::main(&STUDIES, &args, quick(), Path::new(".")));
}
