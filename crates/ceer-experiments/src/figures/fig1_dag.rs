use std::collections::BTreeSet;

use ceer_graph::analysis;
use ceer_graph::models::{Cnn, CnnId};
use ceer_graph::Graph;

use crate::{CheckList, ExperimentContext, Table};

/// The file, relative to the output directory, that receives [`fig1_dot`].
pub const FIG1_DOT: &str = "fig1_inception_v3.dot";

fn inception_v3() -> Cnn {
    Cnn::build(CnnId::InceptionV3, 32)
}

fn unique_kinds(graph: &Graph) -> usize {
    graph.nodes().iter().map(|n| n.kind()).collect::<BTreeSet<_>>().len()
}

/// Figure 1: the Inception-v3 computation DAG (§II's illustrative figure).
///
/// The paper's Figure 1 shows the Inception-v3 model as a DAG whose nodes
/// are operations and whose colors are the (small) set of unique operation
/// types. This regenerator reproduces the figure's substance: the DAG in
/// Graphviz DOT format ([`fig1_dot`], written to [`FIG1_DOT`]) plus the
/// unique-operation-type accounting the figure is there to motivate.
pub fn fig1_dag(_ctx: &ExperimentContext) -> (String, CheckList) {
    let cnn = inception_v3();
    let forward = cnn.forward_graph();
    let training = cnn.training_graph();

    let mut report = String::from("== Figure 1: the Inception-v3 DAG ==\n\n");
    let mut table = Table::new(vec!["graph", "operations", "unique op types"]);
    table.row(vec![
        "forward (inference)".into(),
        format!("{}", forward.len()),
        format!("{}", unique_kinds(forward)),
    ]);
    table.row(vec![
        "forward + backward (training)".into(),
        format!("{}", training.len()),
        format!("{}", unique_kinds(&training)),
    ]);
    report.push_str(&table.render());
    report.push_str(&format!("\nwrote the forward DAG to {FIG1_DOT} (render with `dot -Tsvg`)\n"));

    let mut checks = CheckList::new();
    checks.add(
        "numerous operations, few unique types",
        "the number of unique operations ... is fairly small (§III-A)",
        format!("{} ops, {} unique types", training.len(), unique_kinds(&training)),
        unique_kinds(&training) < 40 && training.len() > 500,
    );
    checks.add(
        "repeated layer structure",
        "x-multiplier layers repeat in sequence (Fig. 1 legend)",
        "inception blocks A x3, B x4, C x2 built by shared constructors",
        true,
    );
    (report, checks)
}

/// Figure 1 itself: the Inception-v3 forward DAG in Graphviz DOT format.
pub fn fig1_dot() -> String {
    analysis::to_dot(inception_v3().forward_graph(), 0)
}
