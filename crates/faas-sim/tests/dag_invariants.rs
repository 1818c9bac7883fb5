//! Property-based invariants of the DAG workflow engine.
//!
//! Random layered DAGs — fan-out, all-of-n and k-of-n joins, sampled
//! (non-constant) payloads so every fork draws from the DAG stream — must
//! conserve per-node spawn accounting, fire every barrier exactly once
//! per workflow, and leave no state behind after either a clean drain or
//! a mid-flight cancellation. Cyclic specs must be rejected at compile
//! time with an error that names the stuck nodes.

use faas_sim::cloud::CloudSim;
use faas_sim::dag::{DagNodeSpec, DagSpec, JoinSpec};
use faas_sim::testutil::test_provider;
use faas_sim::types::TransferMode;
use proptest::prelude::*;
use simkit::dist::Dist;
use simkit::rng::Rng;
use simkit::time::SimTime;

/// Derives a random layered DAG from `shape`: a single root, one to
/// three hidden layers of one to three nodes, every node wired to a
/// non-empty subset of the previous layer (so the root is the unique
/// source and everything is reachable). Fan-in nodes flip a coin
/// between all-of-n and a random k-of-n quorum. Payload and execution
/// distributions are sampled, never constant, so every edge draws its
/// payload at fork time.
fn random_dag(shape: u64) -> DagSpec {
    let mut rng = Rng::seed_from(shape);
    let mut widths = vec![1usize];
    for _ in 0..rng.range_u64(1, 3) {
        widths.push(rng.range_u64(1, 3) as usize);
    }
    let name = |layer: usize, idx: usize| format!("l{layer}n{idx}");
    // Pick parents first so each node's in-degree is known before the
    // node (and its join spec) is added.
    let mut edges: Vec<(String, String)> = Vec::new();
    let mut in_degree = vec![vec![0u32; 1]];
    for layer in 1..widths.len() {
        let prev = widths[layer - 1];
        let mut degs = vec![0u32; widths[layer]];
        for (idx, deg) in degs.iter_mut().enumerate() {
            let first = rng.below(prev as u64) as usize;
            for p in 0..prev {
                if p == first || rng.bernoulli(0.4) {
                    edges.push((name(layer - 1, p), name(layer, idx)));
                    *deg += 1;
                }
            }
        }
        in_degree.push(degs);
    }
    let mut spec = DagSpec::new(format!("random-{shape:x}"));
    for (layer, degs) in in_degree.iter().enumerate() {
        for (idx, &d) in degs.iter().enumerate() {
            let mut node =
                DagNodeSpec::new(name(layer, idx)).exec_ms(Dist::Uniform { lo: 1.0, hi: 20.0 });
            if d >= 2 && rng.bernoulli(0.5) {
                node = node.join(JoinSpec::KOfN { k: rng.range_u64(1, u64::from(d)) as u32 });
            }
            spec = spec.node(node);
        }
    }
    for (from, to) in edges {
        spec = spec.edge(from, to, TransferMode::Inline, Dist::Uniform { lo: 512.0, hi: 4096.0 });
    }
    spec
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A drained workflow conserves every counter: per-node spawns all
    /// complete, each barrier fires exactly once per submission, and no
    /// side table or slab slot outlives idle.
    #[test]
    fn random_dags_conserve_and_drain(
        seed in any::<u64>(),
        shape in any::<u64>(),
        submissions in 1u64..=3,
    ) {
        let plan = random_dag(shape).compile().expect("generated DAGs are acyclic");
        let mut sim = CloudSim::new(test_provider(), seed);
        let dep = sim.deploy_dag(&plan).unwrap();
        for i in 0..submissions {
            sim.submit(dep.root, i, SimTime::from_secs(i as f64));
        }
        sim.run_to_idle();

        let done = sim.drain_completions();
        prop_assert_eq!(done.len() as u64, submissions, "one completion per workflow");
        prop_assert!(done.iter().all(|c| c.is_ok()));
        for (_, counters) in sim.dag_node_counters() {
            prop_assert_eq!(counters.spawned, counters.completed, "{:?}", counters);
            prop_assert_eq!(counters.cancelled, 0);
        }
        for join in sim.dag_join_stats() {
            prop_assert_eq!(join.fired, submissions, "a barrier fires exactly once per workflow");
        }
        prop_assert!(sim.dag_tables_empty(), "DAG side tables must drain at idle");
        prop_assert_eq!(sim.request_slab_stats().live, 0);
    }

    /// Cancelling the root mid-flight (or after completion — the
    /// generation guard makes that a no-op) never strands a branch, a
    /// barrier, a pending arrival or a slab slot.
    #[test]
    fn random_dag_cancellation_leaves_no_orphans(
        seed in any::<u64>(),
        shape in any::<u64>(),
        cancel_at_ms in 0.0f64..200.0,
    ) {
        let plan = random_dag(shape).compile().expect("generated DAGs are acyclic");
        let mut sim = CloudSim::new(test_provider(), seed);
        let dep = sim.deploy_dag(&plan).unwrap();
        let rid = sim.submit(dep.root, 0, SimTime::ZERO);
        sim.run_until(SimTime::from_millis(cancel_at_ms));
        sim.cancel(rid);
        sim.run_to_idle();

        prop_assert_eq!(sim.request_slab_stats().live, 0, "cancel leaked slab slots");
        prop_assert!(sim.dag_tables_empty(), "cancel leaked barrier or arrival state");
        for (_, counters) in sim.dag_node_counters() {
            prop_assert_eq!(counters.spawned, counters.completed + counters.cancelled);
        }
        // Either the workflow finished before the cancel landed or it
        // was torn down whole — never both, never neither.
        let done = sim.drain_completions();
        let cancelled = sim.cancel_stats().cancelled;
        prop_assert!(
            (done.len() == 1 && cancelled == 0) || (done.is_empty() && cancelled > 0),
            "completions {} / cancelled {}", done.len(), cancelled,
        );
    }

    /// Splicing a two-node loop into any random DAG makes it cyclic;
    /// compilation must fail and name the stuck nodes, whatever the
    /// surrounding (valid) structure looks like.
    #[test]
    fn cycles_are_rejected_with_named_nodes(shape in any::<u64>()) {
        let payload = || Dist::Uniform { lo: 512.0, hi: 4096.0 };
        let cyclic = random_dag(shape)
            .node(DagNodeSpec::new("cx").exec_ms(Dist::Uniform { lo: 1.0, hi: 5.0 }))
            .node(DagNodeSpec::new("cy").exec_ms(Dist::Uniform { lo: 1.0, hi: 5.0 }))
            .edge("l0n0", "cx", TransferMode::Inline, payload())
            .edge("cx", "cy", TransferMode::Inline, payload())
            .edge("cy", "cx", TransferMode::Inline, payload());
        let msg = cyclic.compile().expect_err("a two-node loop must not compile");
        prop_assert!(msg.contains("cycle"), "error must say cycle: {}", msg);
        prop_assert!(
            msg.contains("cx") && msg.contains("cy"),
            "error must name the stuck nodes: {}", msg,
        );
    }
}
