//! Regenerates the paper's fig9 artifact; `--samples N` overrides the
//! default 3000-sample methodology (§V).

fn main() {
    let report = bench::experiments::fig9::measure(bench::report::samples_arg()).report();
    println!("{}", report.render());
}
