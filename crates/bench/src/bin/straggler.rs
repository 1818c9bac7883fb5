//! Regenerates the join-straggler-amplification artifact (join p99 vs
//! fan-out width per provider, with and without hedge-p95); `--samples
//! N` overrides the default 3000-sample methodology.

fn main() {
    let report = bench::experiments::straggler::measure(bench::report::samples_arg()).report();
    println!("{}", report.render());
}
