//! Regenerates the paper's Fig 10 (Azure-trace TMR CDF); `--functions N`
//! overrides the synthetic trace size.

fn main() {
    let functions =
        bench::report::positive_arg("--functions", bench::experiments::fig10::TRACE_FUNCTIONS);
    let report = bench::experiments::fig10::measure(functions).report();
    println!("{}", report.render());
}
