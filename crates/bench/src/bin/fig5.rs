//! Regenerates the paper's fig5 artifact; `--samples N` overrides the
//! default 3000-sample methodology (§V).

fn main() {
    let report = bench::experiments::fig5::measure(bench::report::samples_arg()).report();
    println!("{}", report.render());
}
