//! The paper's 12-CNN model zoo.
//!
//! §III of the paper profiles twelve CNNs: three VGG variants, three
//! Inception variants, four ResNet-v2 variants, Inception-ResNet-v2, and
//! AlexNet. It splits them into an 8-model training set used to fit Ceer's
//! models and a 4-model test set (Inception-v3, AlexNet, ResNet-101, VGG-19)
//! used only for validation. This module reconstructs all twelve at the
//! operation level with faithful layer structure and parameter counts.

mod alexnet;
mod inception_resnet_v2;
mod inception_v1;
mod inception_v3;
mod inception_v4;
mod resnet;
mod vgg;

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::backward::training_graph;
use crate::builder::{GraphBuilder, Tensor};
use crate::graph::{Graph, NodeId};
use crate::op::Padding;

/// Identifies one of the twelve CNNs studied in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum CnnId {
    /// AlexNet (Krizhevsky et al.) — test set.
    AlexNet,
    /// VGG-11 — training set.
    Vgg11,
    /// VGG-16 — training set.
    Vgg16,
    /// VGG-19 — test set.
    Vgg19,
    /// Inception-v1 (GoogLeNet) — training set.
    InceptionV1,
    /// Inception-v3 — test set.
    InceptionV3,
    /// Inception-v4 — training set.
    InceptionV4,
    /// Inception-ResNet-v2 — training set.
    InceptionResNetV2,
    /// ResNet-v2, 50 layers — training set.
    ResNet50,
    /// ResNet-v2, 101 layers — test set.
    ResNet101,
    /// ResNet-v2, 152 layers — training set.
    ResNet152,
    /// ResNet-v2, 200 layers — training set.
    ResNet200,
}

impl CnnId {
    /// All twelve CNNs.
    pub fn all() -> &'static [CnnId] {
        use CnnId::*;
        &[
            AlexNet,
            Vgg11,
            Vgg16,
            Vgg19,
            InceptionV1,
            InceptionV3,
            InceptionV4,
            InceptionResNetV2,
            ResNet50,
            ResNet101,
            ResNet152,
            ResNet200,
        ]
    }

    /// The paper's 8-CNN training set (§III).
    pub fn training_set() -> &'static [CnnId] {
        use CnnId::*;
        &[Vgg11, Vgg16, InceptionV1, InceptionV4, InceptionResNetV2, ResNet50, ResNet152, ResNet200]
    }

    /// The paper's 4-CNN test set: Inception-v3, AlexNet, ResNet-101,
    /// VGG-19 (§III).
    pub fn test_set() -> &'static [CnnId] {
        use CnnId::*;
        &[InceptionV3, AlexNet, ResNet101, Vgg19]
    }

    /// Canonical model name.
    pub fn name(self) -> &'static str {
        use CnnId::*;
        match self {
            AlexNet => "AlexNet",
            Vgg11 => "VGG-11",
            Vgg16 => "VGG-16",
            Vgg19 => "VGG-19",
            InceptionV1 => "Inception-v1",
            InceptionV3 => "Inception-v3",
            InceptionV4 => "Inception-v4",
            InceptionResNetV2 => "Inception-ResNet-v2",
            ResNet50 => "ResNet-50",
            ResNet101 => "ResNet-101",
            ResNet152 => "ResNet-152",
            ResNet200 => "ResNet-200",
        }
    }

    /// Input image resolution (height = width) the model expects.
    pub fn input_resolution(self) -> u64 {
        use CnnId::*;
        match self {
            AlexNet => 227,
            Vgg11 | Vgg16 | Vgg19 | ResNet50 | ResNet101 | ResNet152 | ResNet200 => 224,
            InceptionV1 => 224,
            InceptionV3 | InceptionV4 | InceptionResNetV2 => 299,
        }
    }
}

impl fmt::Display for CnnId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A constructed CNN: the forward graph, its loss node, and metadata.
#[derive(Debug, Clone)]
pub struct Cnn {
    id: CnnId,
    batch: u64,
    forward: Graph,
    loss: NodeId,
}

impl Cnn {
    /// Builds the forward graph of `id` with the given per-GPU batch size.
    ///
    /// # Panics
    ///
    /// Panics if `batch` is zero.
    pub fn build(id: CnnId, batch: u64) -> Self {
        assert!(batch > 0, "batch size must be positive");
        let (forward, loss) = match id {
            CnnId::AlexNet => alexnet::forward(batch),
            CnnId::Vgg11 => vgg::forward(batch, &[1, 1, 2, 2, 2], "VGG-11"),
            CnnId::Vgg16 => vgg::forward(batch, &[2, 2, 3, 3, 3], "VGG-16"),
            CnnId::Vgg19 => vgg::forward(batch, &[2, 2, 4, 4, 4], "VGG-19"),
            CnnId::InceptionV1 => inception_v1::forward(batch),
            CnnId::InceptionV3 => inception_v3::forward(batch),
            CnnId::InceptionV4 => inception_v4::forward(batch),
            CnnId::InceptionResNetV2 => inception_resnet_v2::forward(batch),
            CnnId::ResNet50 => resnet::forward(batch, &[3, 4, 6, 3], "ResNet-50"),
            CnnId::ResNet101 => resnet::forward(batch, &[3, 4, 23, 3], "ResNet-101"),
            CnnId::ResNet152 => resnet::forward(batch, &[3, 8, 36, 3], "ResNet-152"),
            CnnId::ResNet200 => resnet::forward(batch, &[3, 24, 36, 3], "ResNet-200"),
        };
        Cnn { id, batch, forward, loss }
    }

    /// Which CNN this is.
    pub fn id(&self) -> CnnId {
        self.id
    }

    /// Per-GPU batch size the graph was built with.
    pub fn batch(&self) -> u64 {
        self.batch
    }

    /// The forward (inference) graph.
    pub fn forward_graph(&self) -> &Graph {
        &self.forward
    }

    /// The loss node in the forward graph.
    pub fn loss(&self) -> NodeId {
        self.loss
    }

    /// Expands and returns the full training graph (forward + backward).
    pub fn training_graph(&self) -> Graph {
        training_graph(self.forward.clone(), self.loss)
    }

    /// [`training_graph`](Self::training_graph), expanding the forward graph
    /// in place instead of copying it.
    pub fn into_training_graph(self) -> Graph {
        training_graph(self.forward, self.loss)
    }

    /// Total trainable parameters.
    pub fn parameter_count(&self) -> u64 {
        self.forward.parameter_count()
    }
}

/// Shared layer idiom: convolution + batch-norm + ReLU (no bias), the
/// building block of every post-VGG architecture here.
pub(crate) fn conv_bn_relu(
    b: &mut GraphBuilder,
    x: &Tensor,
    out_channels: u64,
    kernel: (u64, u64),
    stride: (u64, u64),
    padding: Padding,
) -> Tensor {
    let c = b.conv2d(x, out_channels, kernel, stride, padding, false);
    let n = b.batch_norm(&c);
    b.relu(&n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_matches_paper() {
        assert_eq!(CnnId::training_set().len(), 8);
        assert_eq!(CnnId::test_set().len(), 4);
        assert!(CnnId::test_set().contains(&CnnId::InceptionV3));
        assert!(CnnId::test_set().contains(&CnnId::AlexNet));
        assert!(CnnId::test_set().contains(&CnnId::ResNet101));
        assert!(CnnId::test_set().contains(&CnnId::Vgg19));
    }

    #[test]
    fn split_partitions_all() {
        let mut combined: Vec<CnnId> =
            CnnId::training_set().iter().chain(CnnId::test_set()).copied().collect();
        combined.sort();
        let mut all: Vec<CnnId> = CnnId::all().to_vec();
        all.sort();
        assert_eq!(combined, all);
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = CnnId::all().iter().map(|m| m.name()).collect();
        names.sort();
        let n = names.len();
        names.dedup();
        assert_eq!(names.len(), n);
    }

    #[test]
    #[should_panic(expected = "batch size must be positive")]
    fn rejects_zero_batch() {
        Cnn::build(CnnId::AlexNet, 0);
    }

    #[test]
    fn zoo_structure_is_stable() {
        // Architecture regression guard: convolution counts are a strong
        // structural fingerprint of each network. If one of these moves,
        // an architecture transcription changed and every downstream
        // number needs re-examination.
        use crate::op::OpKind;
        let conv_counts: &[(CnnId, usize)] = &[
            (CnnId::AlexNet, 5),
            (CnnId::Vgg11, 8),
            (CnnId::Vgg16, 13),
            (CnnId::Vgg19, 16),
            (CnnId::InceptionV1, 57),
            (CnnId::InceptionV3, 94),
            (CnnId::ResNet50, 53),
            (CnnId::ResNet101, 104),
            (CnnId::ResNet152, 155),
            (CnnId::ResNet200, 203),
        ];
        for &(id, expected) in conv_counts {
            let cnn = Cnn::build(id, 2);
            let got = cnn.forward_graph().op_histogram().get(&OpKind::Conv2D).copied().unwrap_or(0);
            assert_eq!(got, expected, "{id}: conv count moved");
        }
    }

    #[test]
    fn training_graphs_grow_roughly_threefold() {
        // Backward pass roughly doubles-to-triples the op count for every
        // model in the zoo (gradients + accumulators + bookkeeping).
        for &id in CnnId::all() {
            let cnn = Cnn::build(id, 2);
            let fwd = cnn.forward_graph().len() as f64;
            let train = cnn.training_graph().len() as f64;
            let ratio = train / fwd;
            assert!((1.5..3.5).contains(&ratio), "{id}: fwd->train ratio {ratio:.2}");
        }
    }

    #[test]
    fn expanding_in_place_matches_expanding_a_copy() {
        for &id in CnnId::all() {
            let cnn = Cnn::build(id, 3);
            assert_eq!(cnn.training_graph(), cnn.into_training_graph(), "{id}");
        }
    }

    #[test]
    fn input_resolutions_match_the_literature() {
        assert_eq!(CnnId::AlexNet.input_resolution(), 227);
        assert_eq!(CnnId::Vgg16.input_resolution(), 224);
        assert_eq!(CnnId::InceptionV3.input_resolution(), 299);
        assert_eq!(CnnId::ResNet101.input_resolution(), 224);
    }

    #[test]
    fn every_model_ends_in_a_scalar_loss() {
        use crate::shape::TensorShape;
        for &id in CnnId::all() {
            let cnn = Cnn::build(id, 2);
            let loss = cnn.forward_graph().node(cnn.loss());
            assert_eq!(loss.output_shape(), &TensorShape::scalar(), "{id}");
        }
    }
}
