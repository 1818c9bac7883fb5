//! Regenerates the retry-storm / metastable-failure artifact (outage
//! window under Poisson and MMPP load, with and without backoff and
//! shedding); `--samples N` overrides the default 3000-sample
//! methodology (§V).

fn main() {
    let report = bench::experiments::metastable::measure(bench::report::samples_arg()).report();
    println!("{}", report.render());
}
