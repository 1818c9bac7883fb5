//! Golden byte-identity gate for the DAG workflow engine.
//!
//! The contract: a linear chain expressed as a degenerate single-path
//! DAG is the *same run* as the legacy `ChainConfig`, bit for bit —
//! same latencies, same trace digest, same sweep CSV — across every
//! event-queue backend and however many sweep workers execute the grid.
//! A `ChainConfig` hop and a DAG edge take the cloud's one fork path,
//! and a constant payload draws nothing from the DAG stream, so both
//! shapes schedule the same events at the same instants.

use faas_sim::dag::{DagNodeSpec, DagSpec};
use faas_sim::types::TransferMode;
use simkit::dist::Dist;
use simkit::engine::QueueKind;
use stellar_core::config::{ChainConfig, IatSpec, RuntimeConfig};
use stellar_core::experiment::Experiment;
use stellar_core::runner::{Scenario, SweepGrid, SweepRunner};
use stellar_core::traceio;

const QUEUES: [QueueKind; 3] = [QueueKind::BinaryHeap, QueueKind::Calendar, QueueKind::Adaptive];
const LENGTH: u32 = 4;
const PAYLOAD: u64 = 8_192;
const EXEC_MS: f64 = 5.0;

fn runtime(samples: u32, legacy_chain: bool) -> RuntimeConfig {
    let mut runtime = RuntimeConfig::single(IatSpec::short(), samples);
    runtime.warmup_rounds = 2;
    runtime.exec_ms = EXEC_MS;
    if legacy_chain {
        runtime.chain = Some(ChainConfig {
            length: LENGTH,
            mode: TransferMode::Inline,
            payload_bytes: PAYLOAD,
        });
    }
    runtime
}

/// The same chain as the legacy `ChainConfig` above, written as a
/// single-path DAG with constant payloads, so no hop draws its payload.
fn linear_spec() -> DagSpec {
    let mut spec = DagSpec::new("line");
    for i in 0..LENGTH {
        spec = spec.node(DagNodeSpec::new(format!("hop{i}")).exec_ms(Dist::constant(EXEC_MS)));
    }
    for i in 0..LENGTH - 1 {
        spec = spec.edge(
            format!("hop{i}"),
            format!("hop{}", i + 1),
            TransferMode::Inline,
            Dist::constant(PAYLOAD as f64),
        );
    }
    spec
}

fn experiment(as_dag: bool, queue: QueueKind) -> Experiment {
    let mut experiment = Experiment::new(providers::profiles::aws_like())
        .workload(runtime(150, !as_dag))
        .seed(42)
        .queue(queue);
    if as_dag {
        experiment = experiment.app(linear_spec());
    }
    experiment
}

#[test]
fn linear_dag_latencies_match_legacy_chain_on_every_backend() {
    for queue in QUEUES {
        let legacy = experiment(false, queue).run().expect("legacy chain run");
        let dag = experiment(true, queue).run().expect("dag run");
        assert_eq!(
            legacy.latencies_ms(),
            dag.latencies_ms(),
            "{queue:?}: a single-path DAG must be the legacy chain, sample for sample"
        );
        // The DAG run still reports per-stage stats — as a pure chain,
        // with no joins and no amplification.
        let stats = dag.dag.expect("dag runs report stage stats");
        assert_eq!(stats.stages.len(), LENGTH as usize);
        assert!(stats.joins.is_empty(), "a linear chain has no join stages");
        assert_eq!(stats.straggler_amplification, 0.0);
        assert!(legacy.dag.is_none(), "legacy runs must not grow a dag report");
    }
}

#[test]
fn linear_dag_trace_digest_matches_legacy_chain() {
    for queue in QUEUES {
        let legacy = experiment(false, queue).trace(1 << 16).run().expect("legacy trace");
        let dag = experiment(true, queue).trace(1 << 16).run().expect("dag trace");
        let legacy_jsonl = traceio::to_jsonl(&legacy.spans);
        let dag_jsonl = traceio::to_jsonl(&dag.spans);
        assert_eq!(
            traceio::digest64(&legacy_jsonl),
            traceio::digest64(&dag_jsonl),
            "{queue:?}: span-for-span trace identity"
        );
        assert_eq!(
            traceio::digest64(&traceio::to_csv(&legacy.spans)),
            traceio::digest64(&traceio::to_csv(&dag.spans)),
            "{queue:?}: CSV trace identity"
        );
    }
}

fn sweep_grid(as_dag: bool) -> SweepGrid {
    let scenarios = ["aws-like", "google-like"]
        .into_iter()
        .map(|name| {
            let cfg = match name {
                "aws-like" => providers::profiles::aws_like(),
                _ => providers::profiles::google_like(),
            };
            let mut scenario = Scenario::new(name, cfg).workload(runtime(40, !as_dag));
            if as_dag {
                scenario = scenario.app(linear_spec());
            }
            scenario
        })
        .collect();
    SweepGrid::new(scenarios, vec![0, 1, 2])
}

#[test]
fn linear_dag_sweep_csv_matches_legacy_chain_across_threads_and_backends() {
    let baseline = SweepRunner::new(1).run(&sweep_grid(false)).to_csv();
    for threads in [1, 2, 8] {
        for queue in QUEUES {
            for as_dag in [false, true] {
                let report = SweepRunner::new(threads).queue(queue).run(&sweep_grid(as_dag));
                assert_eq!(
                    report.to_csv(),
                    baseline,
                    "threads {threads}, {queue:?}, dag {as_dag}: sweep CSV must not move"
                );
            }
        }
    }
}
