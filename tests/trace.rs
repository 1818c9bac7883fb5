//! Trace-verified invocation lifecycle tests.
//!
//! Three layers of assurance over the tracing subsystem:
//!
//! 1. **Golden trace** — a fixed-seed warm-invocation run (the Fig 3
//!    measurement shape) exports JSONL that is byte-identical across
//!    repeated runs and across thread counts.
//! 2. **Coverage** — chained workloads exercise every one of the 12
//!    breakdown components as spans, tagged exactly like
//!    `stellar_core::Component`.
//! 3. **Properties** (proptest over random workloads) — spans are
//!    well-nested and non-negative, a request's component spans tile its
//!    end-to-end latency *exactly* in `SimTime` arithmetic, and
//!    per-component span sums agree with the `Breakdown` the client
//!    measures.

use std::collections::{HashMap, HashSet};

use faas_sim::cloud::span_tag;
use faas_sim::request::Completion;
use faas_sim::types::TransferMode;
use providers::profiles::{aws_like, azure_like, google_like};
use simkit::time::SimTime;
use simkit::trace::SpanRecord;
use stellar_core::breakdown::Component;
use stellar_core::config::{ChainConfig, IatSpec, RuntimeConfig, StaticConfig, StaticFunction};
use stellar_core::experiment::{Experiment, Outcome};
use stellar_core::traceio;

/// Plenty of headroom: no test here may drop spans.
const RING: usize = 1 << 20;

fn warm_experiment(samples: u32, seed: u64) -> Experiment {
    Experiment::new(aws_like())
        .functions(StaticConfig { functions: vec![StaticFunction::python_zip("warm")] })
        .workload(RuntimeConfig::single(IatSpec::Fixed { ms: 3_000.0 }, samples))
        .seed(seed)
        .trace(RING)
}

fn chain_experiment(mode: TransferMode, seed: u64) -> Experiment {
    let mut runtime = RuntimeConfig::single(IatSpec::Fixed { ms: 3_000.0 }, 15);
    runtime.warmup_rounds = 1;
    runtime.chain = Some(ChainConfig { length: 2, mode, payload_bytes: 500_000 });
    Experiment::new(aws_like())
        .functions(StaticConfig { functions: vec![StaticFunction::go_zip("xfer")] })
        .workload(runtime)
        .seed(seed)
        .trace(RING)
}

#[test]
fn golden_trace_digest_is_stable_across_runs_and_threads() {
    let export = || {
        let outcome = warm_experiment(100, 20210901).run().unwrap();
        traceio::to_jsonl(&outcome.spans)
    };
    let serial_a = export();
    let serial_b = export();
    assert_eq!(serial_a, serial_b, "repeated runs must export identical JSONL");
    assert!(!serial_a.is_empty());

    // The same run executed concurrently — under contention, on any
    // number of worker threads — must still produce the same bytes.
    for threads in [2usize, 4] {
        let digests: Vec<u64> = std::thread::scope(|scope| {
            let handles: Vec<_> =
                (0..threads).map(|_| scope.spawn(|| traceio::digest64(&export()))).collect();
            handles.into_iter().map(|h| h.join().expect("worker thread")).collect()
        });
        for digest in digests {
            assert_eq!(
                digest,
                traceio::digest64(&serial_a),
                "digest must not depend on thread count ({threads} threads)"
            );
        }
    }
}

#[test]
fn chained_workloads_cover_all_twelve_components() {
    let mut seen: HashSet<&str> = HashSet::new();
    for mode in [TransferMode::Inline, TransferMode::Storage] {
        let outcome = chain_experiment(mode, 7).run().unwrap();
        seen.extend(outcome.spans.iter().map(|s| s.component));
    }
    for component in Component::ALL {
        assert!(
            seen.contains(component.code()),
            "no span ever tagged {:?} ({})",
            component,
            component.code()
        );
    }
    assert!(seen.contains(span_tag::REQUEST), "root spans missing");
    // Every tag in the trace is either a component or the root marker.
    for tag in &seen {
        assert!(
            *tag == span_tag::REQUEST || Component::from_code(tag).is_some(),
            "span tag {tag} maps to no breakdown component"
        );
    }
}

#[test]
fn tracing_does_not_perturb_results() {
    let traced = warm_experiment(60, 99).run().unwrap();
    let untraced = Experiment::new(aws_like())
        .functions(StaticConfig { functions: vec![StaticFunction::python_zip("warm")] })
        .workload(RuntimeConfig::single(IatSpec::Fixed { ms: 3_000.0 }, 60))
        .seed(99)
        .run()
        .unwrap();
    assert_eq!(traced.latencies_ms(), untraced.latencies_ms());
    assert!(untraced.spans.is_empty());
}

// ---- structural verification ---------------------------------------------

/// Checks every structural span property over one traced outcome; returns
/// the number of completions verified.
fn verify_trace(outcome: &Outcome) -> usize {
    let spans = &outcome.spans;
    let by_id: HashMap<u64, &SpanRecord> = spans.iter().map(|s| (s.span_id, s)).collect();
    assert_eq!(by_id.len(), spans.len(), "span ids must be unique");

    let mut children: HashMap<u64, Vec<&SpanRecord>> = HashMap::new();
    for span in spans {
        assert!(span.end >= span.start, "negative span: {span}");
        if let Some(parent_id) = span.parent {
            let parent = by_id
                .get(&parent_id)
                .unwrap_or_else(|| panic!("span {span} has unknown parent {parent_id}"));
            assert!(
                parent.start <= span.start && span.end <= parent.end,
                "span {span} escapes its parent {parent}"
            );
            children.entry(parent_id).or_default().push(span);
        }
    }

    let roots: HashMap<u64, &SpanRecord> =
        spans.iter().filter(|s| s.component == span_tag::REQUEST).map(|s| (s.request, s)).collect();

    let completions: Vec<&Completion> =
        outcome.result.warmup_completions.iter().chain(outcome.result.completions.iter()).collect();
    for completion in &completions {
        let request = completion.id.packed();
        let root =
            roots.get(&request).unwrap_or_else(|| panic!("request {request} has no root span"));
        assert_eq!(root.parent, None, "external roots must be trace roots");
        assert_eq!(root.start, completion.issued_at);
        assert_eq!(root.end, completion.completed_at);

        // The direct children tile the request's lifetime: their durations
        // sum to the end-to-end latency EXACTLY in SimTime arithmetic
        // (segment boundaries telescope; see cloud.rs emission sites).
        let kids = &children[&root.span_id];
        let tiled: SimTime = kids.iter().map(|s| s.duration()).sum();
        assert_eq!(
            tiled,
            root.duration(),
            "request {request}: component spans must tile e2e exactly"
        );

        // Per component, span durations agree with the Breakdown the
        // client measures — up to SimTime's nanosecond quantisation.
        for component in Component::ALL {
            let from_spans: f64 = kids
                .iter()
                .filter(|s| s.component == component.code())
                .map(|s| s.duration_ms())
                .sum();
            let from_breakdown = component.extract(completion);
            assert!(
                (from_spans - from_breakdown).abs() < 1e-4,
                "request {request} {}: spans {from_spans} ms vs breakdown \
                 {from_breakdown} ms",
                component.code()
            );
        }
    }
    completions.len()
}

#[test]
fn warm_trace_satisfies_structure() {
    let outcome = warm_experiment(50, 11).run().unwrap();
    assert!(verify_trace(&outcome) >= 50);
}

#[test]
fn chained_traces_satisfy_structure() {
    for (mode, seed) in [(TransferMode::Inline, 1), (TransferMode::Storage, 2)] {
        let outcome = chain_experiment(mode, seed).run().unwrap();
        assert!(verify_trace(&outcome) >= 15);
    }
}

// ---- property-based verification -----------------------------------------

mod properties {
    use super::*;
    use proptest::prelude::*;

    fn chain_strategy() -> impl Strategy<Value = ChainConfig> {
        (0u8..2, 1_000u64..2_000_000).prop_map(|(mode, payload_bytes)| ChainConfig {
            length: 2,
            mode: if mode == 0 { TransferMode::Inline } else { TransferMode::Storage },
            payload_bytes,
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]
        #[test]
        fn random_workload_traces_are_well_formed(
            shape in ((1u32..4, 4u32..16), (0.0f64..40.0, prop::option::of(chain_strategy())), 0usize..3),
            seed in any::<u64>(),
        ) {
            let ((burst_size, samples), (exec_ms, chain), provider_idx) = shape;
            let provider = [aws_like, google_like, azure_like][provider_idx]();
            let runtime = RuntimeConfig {
                iat: IatSpec::Fixed { ms: 3_000.0 },
                burst_size,
                samples,
                warmup_rounds: 1,
                exec_ms,
                chain,
                workload: None,
                policy: None,
                faults: None,
            };
            let function = if runtime.chain.is_some() {
                StaticFunction::go_zip("f")
            } else {
                StaticFunction::python_zip("f")
            };
            let outcome = Experiment::new(provider)
                .functions(StaticConfig { functions: vec![function] })
                .workload(runtime)
                .seed(seed)
                .trace(RING)
                .run()
                .unwrap();
            let verified = verify_trace(&outcome);
            prop_assert!(verified as u32 >= samples);
        }
    }
}
