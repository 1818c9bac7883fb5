//! DAG workflow specifications: chains, fan-outs and fan-ins.
//!
//! A [`DagSpec`] names its nodes and wires them with per-edge transfer
//! modes and payload-size distributions; fan-in nodes carry a
//! [`JoinSpec`] selecting all-of-n or k-of-n barrier semantics.
//! [`DagSpec::compile`] validates the graph (unique names, known edge
//! endpoints, a single root, reachability, acyclicity with a useful error
//! naming the offending nodes) and lowers it into a dense node-indexed
//! [`DagPlan`] that [`crate::cloud::CloudSim::deploy_dag`] consumes.
//!
//! A workflow is the only way to wire an edge between functions, and
//! every edge takes the cloud's one fork path. A chain is a linear plan
//! with constant payloads (a constant payload draws nothing); the core
//! deployer lowers a `ChainConfig` to one.

use serde::{Deserialize, Serialize};
use simkit::dist::Dist;

use crate::types::{DeploymentMethod, Runtime, TransferMode};

/// Fan-in barrier semantics of a join node (in-degree ≥ 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(tag = "kind", rename_all = "snake_case")]
pub enum JoinSpec {
    /// Fire once every inbound branch has arrived.
    All,
    /// Fire at the k-th arrival; later branches are stragglers whose
    /// producers resume immediately without waiting for the join.
    KOfN {
        /// Arrivals required to fire (`1 ≤ k ≤ in-degree`).
        k: u32,
    },
}

/// One named node of a [`DagSpec`]: the function deployed for this stage.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DagNodeSpec {
    /// Node name, unique within the DAG.
    pub name: String,
    /// Language runtime.
    #[serde(default = "default_runtime")]
    pub runtime: Runtime,
    /// Packaging / deployment method.
    #[serde(default = "default_deployment")]
    pub deployment: DeploymentMethod,
    /// Instance memory size, MB.
    #[serde(default = "default_memory_mb")]
    pub memory_mb: u32,
    /// Extra image payload, decimal MB.
    #[serde(default)]
    pub extra_image_mb: f64,
    /// Execution-time model, ms.
    #[serde(default = "default_exec_ms")]
    pub exec_ms: Dist,
    /// Barrier semantics; only meaningful (and only allowed) on nodes
    /// with in-degree ≥ 2. Defaults to [`JoinSpec::All`] when absent.
    #[serde(default)]
    pub join: Option<JoinSpec>,
}

fn default_runtime() -> Runtime {
    Runtime::Python3
}

fn default_deployment() -> DeploymentMethod {
    DeploymentMethod::Zip
}

fn default_memory_mb() -> u32 {
    2048
}

fn default_exec_ms() -> Dist {
    Dist::constant(0.0)
}

impl DagNodeSpec {
    /// A node with paper-default settings (Python 3, ZIP, 2048 MB,
    /// immediate return).
    pub fn new<S: Into<String>>(name: S) -> DagNodeSpec {
        DagNodeSpec {
            name: name.into(),
            runtime: default_runtime(),
            deployment: default_deployment(),
            memory_mb: default_memory_mb(),
            extra_image_mb: 0.0,
            exec_ms: default_exec_ms(),
            join: None,
        }
    }

    /// Sets the execution-time distribution, ms.
    #[must_use]
    pub fn exec_ms(mut self, dist: Dist) -> Self {
        self.exec_ms = dist;
        self
    }

    /// Sets the instance memory, MB.
    #[must_use]
    pub fn memory_mb(mut self, mb: u32) -> Self {
        self.memory_mb = mb;
        self
    }

    /// Sets the language runtime.
    #[must_use]
    pub fn runtime(mut self, runtime: Runtime) -> Self {
        self.runtime = runtime;
        self
    }

    /// Sets the packaging / deployment method.
    #[must_use]
    pub fn deployment(mut self, deployment: DeploymentMethod) -> Self {
        self.deployment = deployment;
        self
    }

    /// Sets the barrier semantics for a join node.
    #[must_use]
    pub fn join(mut self, join: JoinSpec) -> Self {
        self.join = Some(join);
        self
    }
}

/// One directed edge of a [`DagSpec`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DagEdgeSpec {
    /// Producer node name.
    pub from: String,
    /// Consumer node name.
    pub to: String,
    /// Payload transport.
    #[serde(default = "default_mode")]
    pub mode: TransferMode,
    /// Payload-size distribution, bytes (sampled per invocation, clamped
    /// to at least one byte).
    #[serde(default = "default_payload")]
    pub payload: Dist,
}

fn default_mode() -> TransferMode {
    TransferMode::Inline
}

fn default_payload() -> Dist {
    Dist::constant(1024.0)
}

/// A validated workflow: named nodes plus directed edges.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DagSpec {
    /// Workflow name (reporting only).
    pub name: String,
    /// Stage nodes.
    pub nodes: Vec<DagNodeSpec>,
    /// Directed edges between nodes.
    #[serde(default)]
    pub edges: Vec<DagEdgeSpec>,
}

impl DagSpec {
    /// Starts an empty workflow named `name`.
    pub fn new<S: Into<String>>(name: S) -> DagSpec {
        DagSpec { name: name.into(), nodes: Vec::new(), edges: Vec::new() }
    }

    /// Adds a node (builder style).
    #[must_use]
    pub fn node(mut self, node: DagNodeSpec) -> Self {
        self.nodes.push(node);
        self
    }

    /// Adds an edge (builder style).
    #[must_use]
    pub fn edge<S: Into<String>>(
        mut self,
        from: S,
        to: S,
        mode: TransferMode,
        payload: Dist,
    ) -> Self {
        self.edges.push(DagEdgeSpec { from: from.into(), to: to.into(), mode, payload });
        self
    }

    /// Validates the workflow; see [`DagSpec::compile`] for the checks.
    ///
    /// # Errors
    ///
    /// Returns a description of the first problem found.
    pub fn validate(&self) -> Result<(), String> {
        self.compile().map(|_| ())
    }

    /// Validates and lowers the workflow into a dense [`DagPlan`].
    ///
    /// Checks, in order: non-empty name and node set; unique node names;
    /// per-node field validity; edges reference known nodes, no
    /// self-edges, no duplicate edges, valid payload distributions;
    /// exactly one root (in-degree 0); join specs only on fan-in nodes
    /// with k within `1..=in-degree`; acyclicity (cycles are reported
    /// with the names of the nodes involved); and reachability of every
    /// node from the root.
    ///
    /// # Errors
    ///
    /// Returns a description of the first problem found.
    pub fn compile(&self) -> Result<DagPlan, String> {
        if self.name.is_empty() {
            return Err("workflow name is empty".to_string());
        }
        if self.nodes.is_empty() {
            return Err(format!("{}: workflow has no nodes", self.name));
        }
        let mut index = std::collections::BTreeMap::new();
        for (i, node) in self.nodes.iter().enumerate() {
            if node.name.is_empty() {
                return Err(format!("{}: node {i} has an empty name", self.name));
            }
            if index.insert(node.name.as_str(), i).is_some() {
                return Err(format!("{}: duplicate node name '{}'", self.name, node.name));
            }
            if node.memory_mb == 0 {
                return Err(format!("{}/{}: memory_mb must be positive", self.name, node.name));
            }
            if !node.extra_image_mb.is_finite() || node.extra_image_mb < 0.0 {
                return Err(format!(
                    "{}/{}: invalid extra_image_mb {}",
                    self.name, node.name, node.extra_image_mb
                ));
            }
            node.exec_ms
                .validate()
                .map_err(|e| format!("{}/{}: exec_ms: {e}", self.name, node.name))?;
        }

        let n = self.nodes.len();
        let mut out: Vec<Vec<PlanEdge>> = vec![Vec::new(); n];
        let mut in_degree = vec![0u32; n];
        let mut seen_edges = std::collections::BTreeSet::new();
        for edge in &self.edges {
            let Some(&from) = index.get(edge.from.as_str()) else {
                return Err(format!("{}: edge from unknown node '{}'", self.name, edge.from));
            };
            let Some(&to) = index.get(edge.to.as_str()) else {
                return Err(format!("{}: edge to unknown node '{}'", self.name, edge.to));
            };
            if from == to {
                return Err(format!("{}: self-edge on node '{}'", self.name, edge.from));
            }
            if !seen_edges.insert((from, to)) {
                return Err(format!(
                    "{}: duplicate edge '{}' -> '{}'",
                    self.name, edge.from, edge.to
                ));
            }
            edge.payload.validate().map_err(|e| {
                format!("{}: edge '{}' -> '{}': payload: {e}", self.name, edge.from, edge.to)
            })?;
            if let Dist::Constant { value } = edge.payload {
                if value < 1.0 {
                    return Err(format!(
                        "{}: edge '{}' -> '{}': payload must be at least one byte",
                        self.name, edge.from, edge.to
                    ));
                }
            }
            out[from].push(PlanEdge { to, mode: edge.mode, payload: edge.payload.clone() });
            in_degree[to] += 1;
        }

        let roots: Vec<usize> = (0..n).filter(|&i| in_degree[i] == 0).collect();
        match roots.as_slice() {
            [_] => {}
            [] => {
                return Err(format!(
                    "{}: no root node (every node has an inbound edge — the graph is cyclic)",
                    self.name
                ))
            }
            many => {
                let names: Vec<&str> = many.iter().map(|&i| self.nodes[i].name.as_str()).collect();
                return Err(format!(
                    "{}: multiple root nodes ({}); a workflow needs exactly one entry point",
                    self.name,
                    names.join(", ")
                ));
            }
        }
        let root = roots[0];

        // Join semantics: only fan-in nodes may carry a JoinSpec, and
        // k-of-n must be satisfiable.
        let mut join_k = vec![0u32; n];
        for (i, node) in self.nodes.iter().enumerate() {
            join_k[i] = match (node.join, in_degree[i]) {
                (Some(_), d) if d < 2 => {
                    return Err(format!(
                        "{}/{}: join semantics on a node with in-degree {d} (joins need ≥ 2 inbound edges)",
                        self.name, node.name
                    ));
                }
                (Some(JoinSpec::KOfN { k }), d) if k == 0 || k > d => {
                    return Err(format!(
                        "{}/{}: k-of-n join with k={k} outside 1..={d}",
                        self.name, node.name
                    ));
                }
                (Some(JoinSpec::KOfN { k }), _) => k,
                (Some(JoinSpec::All), d) | (None, d) => d,
            };
        }

        // Kahn topological sort; leftovers are exactly the nodes on (or
        // downstream of) a cycle — name the cyclic ones in the error.
        let mut remaining = in_degree.clone();
        let mut topo = Vec::with_capacity(n);
        let mut ready: std::collections::VecDeque<usize> = std::collections::VecDeque::new();
        ready.push_back(root);
        while let Some(i) = ready.pop_front() {
            topo.push(i);
            for e in &out[i] {
                remaining[e.to] -= 1;
                if remaining[e.to] == 0 {
                    ready.push_back(e.to);
                }
            }
        }
        if topo.len() != n {
            let mut stuck: Vec<&str> =
                (0..n).filter(|&i| remaining[i] > 0).map(|i| self.nodes[i].name.as_str()).collect();
            stuck.sort_unstable();
            return Err(format!(
                "{}: cycle detected — nodes {} can never run because each waits on the other(s); remove an edge to break the loop",
                self.name,
                stuck.join(", ")
            ));
        }

        let nodes = self
            .nodes
            .iter()
            .enumerate()
            .map(|(i, node)| PlanNode {
                name: node.name.clone(),
                runtime: node.runtime,
                deployment: node.deployment,
                memory_mb: node.memory_mb,
                extra_image_mb: node.extra_image_mb,
                exec_ms: node.exec_ms.clone(),
                out: std::mem::take(&mut out[i]),
                in_degree: in_degree[i],
                join_k: join_k[i],
            })
            .collect();
        Ok(DagPlan { name: self.name.clone(), nodes, root, topo })
    }
}

/// One compiled edge of a [`DagPlan`].
#[derive(Debug, Clone, PartialEq)]
pub struct PlanEdge {
    /// Target node index.
    pub to: usize,
    /// Payload transport.
    pub mode: TransferMode,
    /// Payload-size distribution, bytes.
    pub payload: Dist,
}

impl PlanEdge {
    /// The constant payload size, when the distribution is degenerate.
    pub fn constant_payload(&self) -> Option<u64> {
        match self.payload {
            Dist::Constant { value } => Some(value.round().max(1.0) as u64),
            _ => None,
        }
    }
}

/// One compiled node of a [`DagPlan`].
#[derive(Debug, Clone, PartialEq)]
pub struct PlanNode {
    /// Node name (from the spec).
    pub name: String,
    /// Language runtime.
    pub runtime: Runtime,
    /// Packaging / deployment method.
    pub deployment: DeploymentMethod,
    /// Instance memory size, MB.
    pub memory_mb: u32,
    /// Extra image payload, decimal MB.
    pub extra_image_mb: f64,
    /// Execution-time model, ms.
    pub exec_ms: Dist,
    /// Out-edges, in spec order.
    pub out: Vec<PlanEdge>,
    /// Number of inbound edges.
    pub in_degree: u32,
    /// Arrivals required to fire the node's barrier: equals `in_degree`
    /// for all-of-n joins and plain nodes, `k` for k-of-n joins.
    pub join_k: u32,
}

impl PlanNode {
    /// Whether this node is a fan-in barrier.
    pub fn is_join(&self) -> bool {
        self.in_degree >= 2
    }
}

/// A validated, dense, node-indexed workflow ready for deployment.
#[derive(Debug, Clone, PartialEq)]
pub struct DagPlan {
    /// Workflow name.
    pub name: String,
    /// Nodes, indexed as in the source spec.
    pub nodes: Vec<PlanNode>,
    /// Index of the unique entry node (in-degree 0).
    pub root: usize,
    /// One topological order (root first).
    pub topo: Vec<usize>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node(name: &str) -> DagNodeSpec {
        DagNodeSpec::new(name)
    }

    fn edge(from: &str, to: &str) -> DagEdgeSpec {
        DagEdgeSpec {
            from: from.to_string(),
            to: to.to_string(),
            mode: TransferMode::Inline,
            payload: Dist::constant(1024.0),
        }
    }

    #[test]
    fn compiles_fan_out_fan_in() {
        let spec = DagSpec {
            name: "diamond".to_string(),
            nodes: vec![node("a"), node("b"), node("c"), node("d")],
            edges: vec![edge("a", "b"), edge("a", "c"), edge("b", "d"), edge("c", "d")],
        };
        let plan = spec.compile().unwrap();
        assert_eq!(plan.root, 0);
        assert_eq!(plan.topo[0], 0);
        assert_eq!(plan.nodes[0].out.len(), 2);
        assert_eq!(plan.nodes[3].in_degree, 2);
        assert_eq!(plan.nodes[3].join_k, 2, "default join is all-of-n");
        assert!(plan.nodes[3].is_join());
    }

    #[test]
    fn k_of_n_join_k_is_lowered() {
        let mut spec = DagSpec {
            name: "quorum".to_string(),
            nodes: vec![node("s"), node("w1"), node("w2"), node("w3"), node("g")],
            edges: vec![
                edge("s", "w1"),
                edge("s", "w2"),
                edge("s", "w3"),
                edge("w1", "g"),
                edge("w2", "g"),
                edge("w3", "g"),
            ],
        };
        spec.nodes[4].join = Some(JoinSpec::KOfN { k: 2 });
        let plan = spec.compile().unwrap();
        assert_eq!(plan.nodes[4].join_k, 2);
        assert_eq!(plan.nodes[4].in_degree, 3);
    }

    #[test]
    fn cycle_rejected_with_node_names() {
        let spec = DagSpec {
            name: "loopy".to_string(),
            nodes: vec![node("a"), node("b"), node("c")],
            edges: vec![edge("a", "b"), edge("b", "c"), edge("c", "b")],
        };
        let err = spec.compile().unwrap_err();
        assert!(err.contains("cycle detected"), "unhelpful error: {err}");
        assert!(err.contains('b') && err.contains('c'), "cycle nodes not named: {err}");
    }

    #[test]
    fn fully_cyclic_graph_reports_missing_root() {
        let spec = DagSpec {
            name: "ring".to_string(),
            nodes: vec![node("a"), node("b")],
            edges: vec![edge("a", "b"), edge("b", "a")],
        };
        let err = spec.compile().unwrap_err();
        assert!(err.contains("no root"), "unhelpful error: {err}");
    }

    #[test]
    fn validation_rejects_bad_shapes() {
        // Two roots.
        let two_roots = DagSpec {
            name: "w".to_string(),
            nodes: vec![node("a"), node("b"), node("c")],
            edges: vec![edge("a", "c"), edge("b", "c")],
        };
        assert!(two_roots.compile().unwrap_err().contains("multiple root"));

        // Unknown edge endpoint.
        let dangling = DagSpec {
            name: "w".to_string(),
            nodes: vec![node("a")],
            edges: vec![edge("a", "ghost")],
        };
        assert!(dangling.compile().unwrap_err().contains("unknown node"));

        // Self-edge, duplicate edge.
        let selfy =
            DagSpec { name: "w".to_string(), nodes: vec![node("a")], edges: vec![edge("a", "a")] };
        assert!(selfy.compile().unwrap_err().contains("self-edge"));
        let dup = DagSpec {
            name: "w".to_string(),
            nodes: vec![node("a"), node("b")],
            edges: vec![edge("a", "b"), edge("a", "b")],
        };
        assert!(dup.compile().unwrap_err().contains("duplicate edge"));

        // Join on a linear node.
        let mut join_linear = DagSpec {
            name: "w".to_string(),
            nodes: vec![node("a"), node("b")],
            edges: vec![edge("a", "b")],
        };
        join_linear.nodes[1].join = Some(JoinSpec::All);
        assert!(join_linear.compile().unwrap_err().contains("in-degree 1"));

        // k out of range.
        let mut bad_k = DagSpec {
            name: "w".to_string(),
            nodes: vec![node("a"), node("b"), node("c"), node("d")],
            edges: vec![edge("a", "b"), edge("a", "c"), edge("b", "d"), edge("c", "d")],
        };
        bad_k.nodes[3].join = Some(JoinSpec::KOfN { k: 3 });
        assert!(bad_k.compile().unwrap_err().contains("outside"));

        // Duplicate node names.
        let dup_names =
            DagSpec { name: "w".to_string(), nodes: vec![node("a"), node("a")], edges: vec![] };
        assert!(dup_names.compile().unwrap_err().contains("duplicate node name"));
    }

    #[test]
    fn serde_round_trip() {
        let mut spec = DagSpec {
            name: "rt".to_string(),
            nodes: vec![node("a"), node("b"), node("c")],
            edges: vec![edge("a", "b"), edge("a", "c")],
        };
        spec.nodes[1].exec_ms = Dist::lognormal_median_p99(10.0, 50.0);
        let json = serde_json::to_string(&spec).unwrap();
        let back: DagSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(spec, back);
    }

    #[test]
    fn serde_defaults_fill_in() {
        let json = r#"{
            "name": "mini",
            "nodes": [
                {"name": "a"},
                {"name": "b"},
                {"name": "j", "join": {"kind": "k_of_n", "k": 2}}
            ],
            "edges": [
                {"from": "a", "to": "b"},
                {"from": "a", "to": "j"},
                {"from": "b", "to": "j"}
            ]
        }"#;
        let spec: DagSpec = serde_json::from_str(json).unwrap();
        assert_eq!(spec.nodes[0].runtime, Runtime::Python3);
        assert_eq!(spec.nodes[0].memory_mb, 2048);
        assert_eq!(spec.edges[0].mode, TransferMode::Inline);
        let plan = spec.compile().unwrap();
        assert_eq!(plan.nodes[2].join_k, 2);
    }
}
