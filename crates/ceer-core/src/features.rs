//! Input-size feature extraction.
//!
//! §IV-B of the paper: the compute-time model of a heavy operation takes the
//! operation's *input size(s)* as features — "input can be a vector; for
//! example, for the Conv2D operation, the size of both input images and the
//! size of the filters serve as input". For convolution-family operations,
//! supplemental inputs (filter window, strides) yield one derived feature
//! (input volume scaled by window area over stride area); all features are
//! computable from the CNN's DAG alone, so prediction needs no execution.

use ceer_graph::{Graph, Node, OpAttrs, OpKind};

/// Feature scale: raw byte counts are huge (10⁶–10⁹), so features are
/// expressed in megabytes to keep the regression matrices well conditioned.
const MB: f64 = 1.0e6;

/// Extra divisor applied to conv-family work features (volume × window ×
/// channels products), keeping them in the same numeric range as the plain
/// size features.
const WORK_SCALE: f64 = 100.0;

/// The regression features of one operation instance.
#[derive(Debug, Clone, PartialEq)]
pub struct Features {
    /// Linear features (always non-empty; `linear[0]` is the primary input
    /// size in MB).
    pub linear: Vec<f64>,
    /// Extra features for the quadratic model variant: products of the
    /// linear features, in MB².
    pub quadratic_extra: Vec<f64>,
}

impl Features {
    /// The full quadratic feature vector (linear ++ extras).
    pub fn quadratic(&self) -> Vec<f64> {
        let mut v = self.linear.clone();
        v.extend_from_slice(&self.quadratic_extra);
        v
    }

    /// The primary feature (total input size, MB).
    pub fn primary(&self) -> f64 {
        self.linear[0]
    }
}

/// Most linear features any kind has (the two conv kinds' three).
const MAX_LINEAR: usize = 3;

/// The features of one operation instance without heap storage: the
/// linear features followed by the single quadratic extra every kind has,
/// so both regression forms read one contiguous slice of it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct FeatureRow {
    linear: u8,
    values: [f64; MAX_LINEAR + 1],
}

impl FeatureRow {
    fn new(linear: &[f64], extra: f64) -> FeatureRow {
        debug_assert!(linear.len() <= MAX_LINEAR, "{} linear features", linear.len());
        let n = linear.len().min(MAX_LINEAR);
        let mut values = [0.0; MAX_LINEAR + 1];
        values[..n].copy_from_slice(&linear[..n]);
        values[n] = extra;
        FeatureRow { linear: n as u8, values }
    }

    /// The linear features.
    pub(crate) fn linear(&self) -> &[f64] {
        &self.values[..usize::from(self.linear)]
    }

    /// The quadratic feature vector (linear ++ extra).
    pub(crate) fn quadratic(&self) -> &[f64] {
        &self.values[..=usize::from(self.linear)]
    }

    /// The row's bits, for exact-equality interning.
    pub(crate) fn key(&self) -> (u8, [u64; MAX_LINEAR + 1]) {
        (self.linear, self.values.map(f64::to_bits))
    }
}

impl From<FeatureRow> for Features {
    fn from(row: FeatureRow) -> Features {
        let (linear, extra) = row.quadratic().split_at(row.linear().len());
        Features { linear: linear.to_vec(), quadratic_extra: extra.to_vec() }
    }
}

/// Number of linear features [`extract`] produces for an op kind. Stable per
/// kind so all instances of a kind share one regression design.
pub fn linear_feature_count(kind: OpKind) -> usize {
    use OpKind::*;
    match kind {
        Conv2D | Conv2DBackpropInput => 3,
        Conv2DBackpropFilter => 2,
        MatMul => 2,
        MaxPool | AvgPool | AvgPoolGrad | MaxPoolGrad => 2,
        ConcatV2 | AddN => 1,
        _ => 1,
    }
}

/// Window area over stride area for conv/pool attributes — the
/// "supplemental inputs" scale factor.
fn window_over_stride(attrs: OpAttrs) -> f64 {
    match attrs {
        OpAttrs::Conv { kernel, stride, .. } | OpAttrs::Pool { window: kernel, stride, .. } => {
            (kernel.0 * kernel.1) as f64 / (stride.0 * stride.1) as f64
        }
        OpAttrs::None => 1.0,
    }
}

/// Extracts the features of `node`.
///
/// All quantities derive from the DAG: input tensor sizes, output size,
/// filter parameters and window attributes. The same function is used when
/// building training designs from profiles and when predicting for unseen
/// CNNs, so the two can never drift apart.
pub fn extract(node: &Node, graph: &Graph) -> Features {
    extract_row(node, graph).into()
}

/// [`extract`] without the heap: the same values, packed in a
/// [`FeatureRow`].
pub(crate) fn extract_row(node: &Node, graph: &Graph) -> FeatureRow {
    use OpKind::*;
    let input_mb = graph.input_bytes(node.id()) as f64 / MB;
    let output_mb = node.output_shape().bytes() as f64 / MB;
    let param_mb = (node.params() * 4) as f64 / MB;

    match node.kind() {
        Conv2D => {
            // Work feature: input volume × window area / stride area ×
            // output channels — the product of the operation's input size
            // with every supplemental input (filter window, strides, filter
            // count) the paper says the conv models need (§III-C).
            let cout = node.output_shape().channels() as f64;
            let work = input_mb * window_over_stride(node.attrs()) * cout / WORK_SCALE;
            FeatureRow::new(&[input_mb, param_mb, work], input_mb * work)
        }
        Conv2DBackpropInput => {
            // Input is the upstream gradient dy; the work scales it by the
            // window area and the produced activation channels.
            let cout = node.output_shape().channels() as f64;
            let kernel = match node.attrs() {
                ceer_graph::OpAttrs::Conv { kernel, .. } => (kernel.0 * kernel.1) as f64,
                _ => 1.0,
            };
            let work = input_mb * kernel * cout / WORK_SCALE;
            FeatureRow::new(&[input_mb, output_mb, work], input_mb * work)
        }
        Conv2DBackpropFilter => {
            // Inputs are [x, dy]; the work scales dy by the window area and
            // the activation channels of x.
            let shapes = graph.input_shapes(node.id());
            let cin = shapes[0].channels() as f64;
            let dy_mb = shapes.get(1).map(|s| s.bytes() as f64 / MB).unwrap_or(input_mb);
            let kernel = match node.attrs() {
                ceer_graph::OpAttrs::Conv { kernel, .. } => (kernel.0 * kernel.1) as f64,
                _ => 1.0,
            };
            let work = dy_mb * kernel * cin / WORK_SCALE;
            FeatureRow::new(&[input_mb, work], input_mb * work)
        }
        MatMul => {
            // Work scales with (rows × inner) × output columns.
            let out_cols = node.output_shape().channels() as f64;
            let first_mb =
                graph.input_shapes(node.id()).first().map(|s| s.bytes() as f64 / MB).unwrap_or(0.0);
            FeatureRow::new(&[input_mb, first_mb * out_cols], input_mb * input_mb)
        }
        MaxPool | AvgPool | AvgPoolGrad | MaxPoolGrad => FeatureRow::new(
            &[input_mb, output_mb * window_over_stride(node.attrs())],
            input_mb * input_mb,
        ),
        _ => FeatureRow::new(&[input_mb], input_mb * input_mb),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ceer_graph::{GraphBuilder, Padding};

    #[test]
    fn counts_are_stable() {
        let mut b = GraphBuilder::new("f");
        let (x, _) = b.input(8, 32, 32, 3);
        let c = b.conv2d(&x, 16, (3, 3), (1, 1), Padding::Same, false);
        let p = b.max_pool(&x, (2, 2), (2, 2), Padding::Valid);
        let r = b.relu(&c);
        let g = b.finish();
        for (t, kind) in [(&c, OpKind::Conv2D), (&p, OpKind::MaxPool), (&r, OpKind::Relu)] {
            let f = extract(g.node(t.id()), &g);
            assert_eq!(f.linear.len(), linear_feature_count(kind), "{kind}");
        }
    }

    #[test]
    fn primary_feature_is_input_mb() {
        let mut b = GraphBuilder::new("f");
        let (x, _) = b.input(8, 32, 32, 3);
        let r = b.relu(&x);
        let g = b.finish();
        let f = extract(g.node(r.id()), &g);
        assert!((f.primary() - (8 * 32 * 32 * 3 * 4) as f64 / 1e6).abs() < 1e-12);
    }

    #[test]
    fn conv_work_feature_reflects_window_and_stride() {
        let mut b = GraphBuilder::new("f");
        let (x, _) = b.input(8, 32, 32, 16);
        let small = b.conv2d(&x, 32, (1, 1), (1, 1), Padding::Same, false);
        let big = b.conv2d(&x, 32, (5, 5), (1, 1), Padding::Same, false);
        let strided = b.conv2d(&x, 32, (5, 5), (5, 5), Padding::Same, false);
        let g = b.finish();
        let f_small = extract(g.node(small.id()), &g);
        let f_big = extract(g.node(big.id()), &g);
        let f_strided = extract(g.node(strided.id()), &g);
        // Same input, different windows: work feature scales 25x.
        assert!((f_big.linear[2] / f_small.linear[2] - 25.0).abs() < 1e-9);
        // Stride divides the work back down.
        assert!((f_strided.linear[2] - f_small.linear[2]).abs() < 1e-9);
    }

    #[test]
    fn quadratic_extends_linear() {
        let mut b = GraphBuilder::new("f");
        let (x, _) = b.input(8, 32, 32, 3);
        let c = b.conv2d(&x, 16, (3, 3), (1, 1), Padding::Same, false);
        let g = b.finish();
        let f = extract(g.node(c.id()), &g);
        let q = f.quadratic();
        assert_eq!(&q[..f.linear.len()], &f.linear[..]);
        assert!(q.len() > f.linear.len());
    }

    #[test]
    fn matmul_work_feature_tracks_macs() {
        let mut b = GraphBuilder::new("f");
        let (x, _) = b.input(8, 8, 8, 4);
        let flat = b.flatten(&x); // [8, 256]
        let d = b.dense(&flat, 100, false);
        let g = b.finish();
        let mm = g.node(g.node(d.id()).inputs()[0]);
        let f = extract(mm, &g);
        // first input MB * out_cols = (8*256*4/1e6) * 100.
        assert!((f.linear[1] - (8.0 * 256.0 * 4.0 / 1e6) * 100.0).abs() < 1e-9);
    }
}
