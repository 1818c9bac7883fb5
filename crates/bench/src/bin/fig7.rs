//! Regenerates the paper's fig7 artifact; `--samples N` overrides the
//! default 3000-sample methodology (§V).

fn main() {
    let report = bench::experiments::fig7::measure(bench::report::samples_arg()).report();
    println!("{}", report.render());
}
