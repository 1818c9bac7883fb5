//! Runs the extension studies: scheduling-policy trade-off (Obs 7's
//! optimisation space) and mechanism knockouts.

fn main() {
    let report = bench::experiments::ablation::report(bench::report::BASE_SEED);
    println!("{}", report.render());
}
