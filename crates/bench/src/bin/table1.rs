//! Regenerates the paper's table1 artifact; `--samples N` overrides the
//! default 3000-sample methodology (§V).

fn main() {
    let report = bench::experiments::table1::measure(bench::report::samples_arg()).report();
    println!("{}", report.render());
}
