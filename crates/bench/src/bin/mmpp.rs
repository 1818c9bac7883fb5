//! Regenerates the MMPP queueing-amplification artifact; `--samples N`
//! overrides the default 3000-sample methodology (§V).

fn main() {
    let report = bench::experiments::mmpp::measure(bench::report::samples_arg()).report();
    println!("{}", report.render());
}
