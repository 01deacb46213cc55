//! The define-by-run tape: forward value recording and reverse-mode
//! gradient propagation.

use crate::optim::{ParamId, ParamStore};
use std::sync::atomic::{AtomicU64, Ordering};
use tg_linalg::Matrix;

/// Process-wide high-water mark of tape residency (values + cached
/// gradients, in bytes), across every tape ever alive in this process.
/// `Relaxed` everywhere: it is reporting-only telemetry, never an input
/// to computation.
static GLOBAL_PEAK_TAPE_BYTES: AtomicU64 = AtomicU64::new(0);

/// The process-wide peak tape residency in bytes (values plus cached
/// gradients of the heaviest moment of the heaviest tape so far).
pub fn global_peak_tape_bytes() -> u64 {
    GLOBAL_PEAK_TAPE_BYTES.load(Ordering::Relaxed)
}

/// Resets the process-wide peak so a benchmark arm can measure its own
/// high-water mark in isolation.
pub fn reset_global_peak_tape_bytes() {
    GLOBAL_PEAK_TAPE_BYTES.store(0, Ordering::Relaxed);
}

/// Bytes a matrix's payload occupies on the tape.
fn matrix_bytes(m: &Matrix) -> u64 {
    (m.rows() * m.cols() * std::mem::size_of::<f64>()) as u64
}

/// Bytes of matrices/index vectors an op carries besides its value.
fn op_payload_bytes(op: &Op) -> u64 {
    match op {
        Op::MaskedFill { mask, .. } => matrix_bytes(mask),
        Op::MseLoss { target, .. } => matrix_bytes(target),
        Op::BceWithLogits { targets, .. } => matrix_bytes(targets),
        Op::GatherRows(_, rows) => (rows.len() * std::mem::size_of::<usize>()) as u64,
        Op::CrossEntropyLogits { labels, .. } => {
            (labels.len() * std::mem::size_of::<usize>()) as u64
        }
        _ => 0,
    }
}

/// Handle to a node on a [`Tape`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Var(usize);

/// Recorded operation; parents are earlier node indices.
enum Op {
    /// Leaf with no gradient (inputs, adjacency masks, …).
    Const,
    /// Leaf whose gradient flows back to a [`ParamStore`] slot.
    Param(ParamId),
    MatMul(usize, usize),
    Add(usize, usize),
    Sub(usize, usize),
    MulElem(usize, usize),
    ScalarMul(usize, f64),
    /// `a (n×d) + broadcast of b (1×d)` per row.
    AddRowBroadcast(usize, usize),
    Relu(usize),
    LeakyRelu(usize, f64),
    Sigmoid(usize),
    Tanh(usize),
    /// Softmax over each row.
    RowSoftmax(usize),
    /// `out[i][j] = s[i] + t[j]` for column vectors `s (n×1)`, `t (m×1)`.
    AddOuter(usize, usize),
    /// Where `mask` is 0 the value is replaced by a fill constant; the
    /// gradient is blocked there (the fill itself needs no record).
    MaskedFill {
        a: usize,
        mask: Matrix,
    },
    /// `out[i] = a[rows[i]]` — embedding/row lookup.
    GatherRows(usize, Vec<usize>),
    /// `n×d → n×1` sum across each row.
    RowSum(usize),
    /// Column-wise L2 row normalisation: each row scaled to unit norm.
    RowL2Normalize(usize),
    /// Concatenate columns of two matrices with equal rows.
    ConcatCols(usize, usize),
    Transpose(usize),
    SumAll(usize),
    MeanAll(usize),
    /// Mean squared error against a constant target.
    MseLoss {
        pred: usize,
        target: Matrix,
    },
    /// Numerically stable binary cross-entropy on logits vs constant targets.
    BceWithLogits {
        logits: usize,
        targets: Matrix,
    },
    /// Mean categorical cross-entropy on logits (n×C) vs constant labels.
    CrossEntropyLogits {
        logits: usize,
        labels: Vec<usize>,
    },
}

struct Node {
    op: Op,
    value: Matrix,
}

/// A single forward pass: records values and ops, then runs backward.
///
/// # Scoped use
///
/// A tape can be reused across minibatches without reallocation:
/// [`Tape::scope`] runs a closure against the tape and then [`Tape::reset`]s
/// it, freeing the scope's nodes while the shared [`ParamStore`] keeps any
/// gradients the closure accumulated. The allocator tracks
/// [`Tape::live_bytes`] and a monotone [`Tape::peak_bytes`] high-water mark
/// (mirrored into the process-wide [`global_peak_tape_bytes`]) so the
/// memory saving of scoped minibatch training is measurable.
#[derive(Default)]
pub struct Tape {
    nodes: Vec<Node>,
    cached_grads: Option<Vec<Matrix>>,
    /// Bytes currently resident: node values, op payload matrices and
    /// cached gradients.
    live_bytes: u64,
    /// High-water mark of `live_bytes` over this tape's lifetime
    /// (survives [`Tape::reset`]).
    peak_bytes: u64,
}

impl Tape {
    /// Fresh empty tape.
    pub fn new() -> Self {
        Self::default()
    }

    fn push(&mut self, op: Op, value: Matrix) -> Var {
        self.live_bytes += matrix_bytes(&value) + op_payload_bytes(&op);
        self.note_peak();
        self.nodes.push(Node { op, value });
        Var(self.nodes.len() - 1)
    }

    fn note_peak(&mut self) {
        if self.live_bytes > self.peak_bytes {
            self.peak_bytes = self.live_bytes;
            GLOBAL_PEAK_TAPE_BYTES.fetch_max(self.peak_bytes, Ordering::Relaxed);
        }
    }

    /// Bytes currently resident on this tape (values, op payloads and
    /// cached gradients).
    pub fn live_bytes(&self) -> u64 {
        self.live_bytes
    }

    /// High-water mark of [`Tape::live_bytes`] over this tape's lifetime;
    /// monotone across [`Tape::reset`] calls.
    pub fn peak_bytes(&self) -> u64 {
        self.peak_bytes
    }

    /// Frees all nodes and cached gradients, keeping the allocation and
    /// the [`Tape::peak_bytes`] high-water mark. Any gradients already
    /// flushed with [`Tape::accumulate_grads`] live on in the store —
    /// this is what lets one `ParamStore` accumulate across scopes.
    pub fn reset(&mut self) {
        self.nodes.clear();
        self.cached_grads = None;
        self.live_bytes = 0;
    }

    /// Runs one minibatch against this tape, then [`Tape::reset`]s it.
    ///
    /// The closure typically builds a forward pass, calls
    /// [`Tape::backward`] and flushes into a shared store with
    /// [`Tape::accumulate_grads`]; summing those flushes across scopes is
    /// exactly gradient accumulation (see `tests/prop_gradcheck.rs`).
    pub fn scope<R>(&mut self, f: impl FnOnce(&mut Tape) -> R) -> R {
        let out = f(self);
        self.reset();
        out
    }

    /// Value of a node (forward result).
    pub fn value(&self, v: Var) -> &Matrix {
        &self.nodes[v.0].value
    }

    /// Leaf holding a constant matrix (no gradient).
    pub fn constant(&mut self, value: Matrix) -> Var {
        self.push(Op::Const, value)
    }

    /// Leaf bound to a trainable parameter. Copies the current value in.
    pub fn param(&mut self, store: &ParamStore, id: ParamId) -> Var {
        self.push(Op::Param(id), store.value(id).clone())
    }

    /// Matrix product.
    pub fn matmul(&mut self, a: Var, b: Var) -> Var {
        let value = self.nodes[a.0].value.matmul(&self.nodes[b.0].value);
        self.push(Op::MatMul(a.0, b.0), value)
    }

    /// Elementwise sum.
    pub fn add(&mut self, a: Var, b: Var) -> Var {
        let value = &self.nodes[a.0].value + &self.nodes[b.0].value;
        self.push(Op::Add(a.0, b.0), value)
    }

    /// Elementwise difference.
    pub fn sub(&mut self, a: Var, b: Var) -> Var {
        let value = &self.nodes[a.0].value - &self.nodes[b.0].value;
        self.push(Op::Sub(a.0, b.0), value)
    }

    /// Elementwise (Hadamard) product.
    pub fn mul_elem(&mut self, a: Var, b: Var) -> Var {
        let (av, bv) = (&self.nodes[a.0].value, &self.nodes[b.0].value);
        assert_eq!(av.shape(), bv.shape(), "mul_elem: shape mismatch");
        let value = Matrix::from_fn(av.rows(), av.cols(), |r, c| av.get(r, c) * bv.get(r, c));
        self.push(Op::MulElem(a.0, b.0), value)
    }

    /// Multiplies every element by a constant scalar.
    pub fn scalar_mul(&mut self, a: Var, s: f64) -> Var {
        let value = self.nodes[a.0].value.scale(s);
        self.push(Op::ScalarMul(a.0, s), value)
    }

    /// `a (n×d) + b (1×d)` broadcast over rows — the bias-add of a linear
    /// layer.
    pub fn add_row_broadcast(&mut self, a: Var, b: Var) -> Var {
        let (av, bv) = (&self.nodes[a.0].value, &self.nodes[b.0].value);
        assert_eq!(bv.rows(), 1, "add_row_broadcast: b must be 1×d");
        assert_eq!(av.cols(), bv.cols(), "add_row_broadcast: width mismatch");
        let value = Matrix::from_fn(av.rows(), av.cols(), |r, c| av.get(r, c) + bv.get(0, c));
        self.push(Op::AddRowBroadcast(a.0, b.0), value)
    }

    /// Rectified linear unit.
    pub fn relu(&mut self, a: Var) -> Var {
        let value = self.nodes[a.0].value.map(|x| x.max(0.0));
        self.push(Op::Relu(a.0), value)
    }

    /// Leaky ReLU with slope `alpha` for negative inputs.
    pub fn leaky_relu(&mut self, a: Var, alpha: f64) -> Var {
        let value = self.nodes[a.0]
            .value
            .map(|x| if x > 0.0 { x } else { alpha * x });
        self.push(Op::LeakyRelu(a.0, alpha), value)
    }

    /// Logistic sigmoid.
    pub fn sigmoid(&mut self, a: Var) -> Var {
        let value = self.nodes[a.0].value.map(stable_sigmoid);
        self.push(Op::Sigmoid(a.0), value)
    }

    /// Hyperbolic tangent.
    pub fn tanh(&mut self, a: Var) -> Var {
        let value = self.nodes[a.0].value.map(f64::tanh);
        self.push(Op::Tanh(a.0), value)
    }

    /// Softmax applied to each row independently (max-subtracted for
    /// stability).
    pub fn row_softmax(&mut self, a: Var) -> Var {
        let av = &self.nodes[a.0].value;
        let mut value = Matrix::zeros(av.rows(), av.cols());
        for r in 0..av.rows() {
            let row = av.row(r);
            let mx = row.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            let exps: Vec<f64> = row.iter().map(|&x| (x - mx).exp()).collect();
            let sum: f64 = exps.iter().sum();
            for (c, e) in exps.iter().enumerate() {
                value.set(r, c, e / sum);
            }
        }
        self.push(Op::RowSoftmax(a.0), value)
    }

    /// `out[i][j] = s[i] + t[j]` for column vectors `s (n×1)` and `t (m×1)`.
    /// This is the pairwise attention-logit construction used by GAT.
    pub fn add_outer(&mut self, s: Var, t: Var) -> Var {
        let (sv, tv) = (&self.nodes[s.0].value, &self.nodes[t.0].value);
        assert_eq!(sv.cols(), 1, "add_outer: s must be n×1");
        assert_eq!(tv.cols(), 1, "add_outer: t must be m×1");
        let value = Matrix::from_fn(sv.rows(), tv.rows(), |r, c| sv.get(r, 0) + tv.get(c, 0));
        self.push(Op::AddOuter(s.0, t.0), value)
    }

    /// Replaces entries where `mask` is zero with `fill` (gradient blocked
    /// there). `mask` is a constant.
    pub fn masked_fill(&mut self, a: Var, mask: Matrix, fill: f64) -> Var {
        let av = &self.nodes[a.0].value;
        assert_eq!(av.shape(), mask.shape(), "masked_fill: shape mismatch");
        let value = Matrix::from_fn(av.rows(), av.cols(), |r, c| {
            if mask.get(r, c) != 0.0 {
                av.get(r, c)
            } else {
                fill
            }
        });
        self.push(Op::MaskedFill { a: a.0, mask }, value)
    }

    /// Row lookup: `out[i] = a[rows[i]]`. The embedding-gather of link
    /// prediction heads.
    pub fn gather_rows(&mut self, a: Var, rows: Vec<usize>) -> Var {
        let av = &self.nodes[a.0].value;
        let mut value = Matrix::zeros(rows.len(), av.cols());
        for (i, &r) in rows.iter().enumerate() {
            assert!(r < av.rows(), "gather_rows: index {r} out of bounds");
            value.row_mut(i).copy_from_slice(av.row(r));
        }
        self.push(Op::GatherRows(a.0, rows), value)
    }

    /// Sums each row: `n×d → n×1`.
    pub fn row_sum(&mut self, a: Var) -> Var {
        let av = &self.nodes[a.0].value;
        let value = Matrix::from_fn(av.rows(), 1, |r, _| av.row(r).iter().sum());
        self.push(Op::RowSum(a.0), value)
    }

    /// Scales each row to unit L2 norm (rows with tiny norm pass through).
    pub fn row_l2_normalize(&mut self, a: Var) -> Var {
        let av = &self.nodes[a.0].value;
        let value = Matrix::from_fn(av.rows(), av.cols(), |r, c| {
            let n = tg_linalg::matrix::norm(av.row(r));
            if n > 1e-12 {
                av.get(r, c) / n
            } else {
                av.get(r, c)
            }
        });
        self.push(Op::RowL2Normalize(a.0), value)
    }

    /// Concatenates columns: `(n×c1, n×c2) → n×(c1+c2)`.
    pub fn concat_cols(&mut self, a: Var, b: Var) -> Var {
        let value = self.nodes[a.0].value.hstack(&self.nodes[b.0].value);
        self.push(Op::ConcatCols(a.0, b.0), value)
    }

    /// Transpose.
    pub fn transpose(&mut self, a: Var) -> Var {
        let value = self.nodes[a.0].value.transpose();
        self.push(Op::Transpose(a.0), value)
    }

    /// Sum of all elements, as a `1×1` matrix.
    pub fn sum_all(&mut self, a: Var) -> Var {
        let s: f64 = self.nodes[a.0].value.as_slice().iter().sum();
        self.push(Op::SumAll(a.0), Matrix::from_vec(1, 1, vec![s]))
    }

    /// Mean of all elements, as a `1×1` matrix.
    pub fn mean_all(&mut self, a: Var) -> Var {
        let av = &self.nodes[a.0].value;
        let n = (av.rows() * av.cols()) as f64;
        let s: f64 = av.as_slice().iter().sum::<f64>() / n;
        self.push(Op::MeanAll(a.0), Matrix::from_vec(1, 1, vec![s]))
    }

    /// Mean squared error against a constant target, as a `1×1` scalar.
    pub fn mse_loss(&mut self, pred: Var, target: &Matrix) -> Var {
        let pv = &self.nodes[pred.0].value;
        assert_eq!(pv.shape(), target.shape(), "mse_loss: shape mismatch");
        let n = (pv.rows() * pv.cols()) as f64;
        let loss = pv
            .as_slice()
            .iter()
            .zip(target.as_slice())
            .map(|(p, t)| (p - t) * (p - t))
            .sum::<f64>()
            / n;
        self.push(
            Op::MseLoss {
                pred: pred.0,
                target: target.clone(),
            },
            Matrix::from_vec(1, 1, vec![loss]),
        )
    }

    /// Mean binary cross-entropy on logits vs constant 0/1 targets, computed
    /// in the numerically stable form
    /// `max(z,0) − z·y + ln(1+exp(−|z|))`.
    pub fn bce_with_logits(&mut self, logits: Var, targets: &Matrix) -> Var {
        let zv = &self.nodes[logits.0].value;
        assert_eq!(
            zv.shape(),
            targets.shape(),
            "bce_with_logits: shape mismatch"
        );
        let n = (zv.rows() * zv.cols()) as f64;
        let loss = zv
            .as_slice()
            .iter()
            .zip(targets.as_slice())
            .map(|(&z, &y)| z.max(0.0) - z * y + (-z.abs()).exp().ln_1p())
            .sum::<f64>()
            / n;
        self.push(
            Op::BceWithLogits {
                logits: logits.0,
                targets: targets.clone(),
            },
            Matrix::from_vec(1, 1, vec![loss]),
        )
    }

    /// Mean categorical cross-entropy on logits (`n×C`) against constant
    /// integer labels.
    pub fn cross_entropy_logits(&mut self, logits: Var, labels: &[usize]) -> Var {
        let zv = &self.nodes[logits.0].value;
        assert_eq!(zv.rows(), labels.len(), "cross_entropy: row/label mismatch");
        let n = zv.rows() as f64;
        let mut loss = 0.0;
        for (r, &y) in labels.iter().enumerate() {
            assert!(y < zv.cols(), "cross_entropy: label {y} out of range");
            let row = zv.row(r);
            let mx = row.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            let lse = mx + row.iter().map(|&x| (x - mx).exp()).sum::<f64>().ln();
            loss += lse - row[y];
        }
        self.push(
            Op::CrossEntropyLogits {
                logits: logits.0,
                labels: labels.to_vec(),
            },
            Matrix::from_vec(1, 1, vec![loss / n]),
        )
    }

    /// Runs reverse-mode differentiation from scalar node `root` and returns
    /// one gradient matrix per node (same shapes as values).
    ///
    /// Prefer [`Tape::backward`] + [`Tape::accumulate_grads`] for training;
    /// this lower-level entry point is exposed for gradient checking.
    pub fn gradients(&self, root: Var) -> Vec<Matrix> {
        let rv = &self.nodes[root.0].value;
        assert_eq!(rv.shape(), (1, 1), "backward: root must be a 1×1 scalar");
        let mut grads: Vec<Matrix> = self
            .nodes
            .iter()
            .map(|n| Matrix::zeros(n.value.rows(), n.value.cols()))
            .collect();
        grads[root.0].set(0, 0, 1.0);

        for i in (0..=root.0).rev() {
            // Split borrows: take the output grad, then write parent grads.
            let g = std::mem::replace(&mut grads[i], Matrix::zeros(0, 0));
            if g.as_slice().iter().all(|&x| x == 0.0) {
                grads[i] = g;
                continue;
            }
            match &self.nodes[i].op {
                Op::Const | Op::Param(_) => {}
                Op::MatMul(a, b) => {
                    let bt = self.nodes[*b].value.transpose();
                    let da = g.matmul(&bt);
                    add_into(&mut grads[*a], &da);
                    let at = self.nodes[*a].value.transpose();
                    let db = at.matmul(&g);
                    add_into(&mut grads[*b], &db);
                }
                Op::Add(a, b) => {
                    add_into(&mut grads[*a], &g);
                    add_into(&mut grads[*b], &g);
                }
                Op::Sub(a, b) => {
                    add_into(&mut grads[*a], &g);
                    sub_into(&mut grads[*b], &g);
                }
                Op::MulElem(a, b) => {
                    let (av, bv) = (&self.nodes[*a].value, &self.nodes[*b].value);
                    let da = Matrix::from_fn(g.rows(), g.cols(), |r, c| g.get(r, c) * bv.get(r, c));
                    add_into(&mut grads[*a], &da);
                    let db = Matrix::from_fn(g.rows(), g.cols(), |r, c| g.get(r, c) * av.get(r, c));
                    add_into(&mut grads[*b], &db);
                }
                Op::ScalarMul(a, s) => {
                    let da = g.scale(*s);
                    add_into(&mut grads[*a], &da);
                }
                Op::AddRowBroadcast(a, b) => {
                    add_into(&mut grads[*a], &g);
                    let mut db = Matrix::zeros(1, g.cols());
                    for r in 0..g.rows() {
                        for c in 0..g.cols() {
                            db.set(0, c, db.get(0, c) + g.get(r, c));
                        }
                    }
                    add_into(&mut grads[*b], &db);
                }
                Op::Relu(a) => {
                    let av = &self.nodes[*a].value;
                    let da = Matrix::from_fn(g.rows(), g.cols(), |r, c| {
                        if av.get(r, c) > 0.0 {
                            g.get(r, c)
                        } else {
                            0.0
                        }
                    });
                    add_into(&mut grads[*a], &da);
                }
                Op::LeakyRelu(a, alpha) => {
                    let av = &self.nodes[*a].value;
                    let da = Matrix::from_fn(g.rows(), g.cols(), |r, c| {
                        if av.get(r, c) > 0.0 {
                            g.get(r, c)
                        } else {
                            alpha * g.get(r, c)
                        }
                    });
                    add_into(&mut grads[*a], &da);
                }
                Op::Sigmoid(a) => {
                    let out = &self.nodes[i].value;
                    let da = Matrix::from_fn(g.rows(), g.cols(), |r, c| {
                        let o = out.get(r, c);
                        g.get(r, c) * o * (1.0 - o)
                    });
                    add_into(&mut grads[*a], &da);
                }
                Op::Tanh(a) => {
                    let out = &self.nodes[i].value;
                    let da = Matrix::from_fn(g.rows(), g.cols(), |r, c| {
                        let o = out.get(r, c);
                        g.get(r, c) * (1.0 - o * o)
                    });
                    add_into(&mut grads[*a], &da);
                }
                Op::RowSoftmax(a) => {
                    let out = &self.nodes[i].value;
                    let mut da = Matrix::zeros(g.rows(), g.cols());
                    for r in 0..g.rows() {
                        let p = out.row(r);
                        let gr = g.row(r);
                        let dotgp: f64 = p.iter().zip(gr).map(|(pi, gi)| pi * gi).sum();
                        for c in 0..g.cols() {
                            da.set(r, c, p[c] * (gr[c] - dotgp));
                        }
                    }
                    add_into(&mut grads[*a], &da);
                }
                Op::AddOuter(s, t) => {
                    let mut ds = Matrix::zeros(g.rows(), 1);
                    let mut dt = Matrix::zeros(g.cols(), 1);
                    for r in 0..g.rows() {
                        for c in 0..g.cols() {
                            ds.set(r, 0, ds.get(r, 0) + g.get(r, c));
                            dt.set(c, 0, dt.get(c, 0) + g.get(r, c));
                        }
                    }
                    add_into(&mut grads[*s], &ds);
                    add_into(&mut grads[*t], &dt);
                }
                Op::MaskedFill { a, mask } => {
                    let da = Matrix::from_fn(g.rows(), g.cols(), |r, c| {
                        if mask.get(r, c) != 0.0 {
                            g.get(r, c)
                        } else {
                            0.0
                        }
                    });
                    add_into(&mut grads[*a], &da);
                }
                Op::GatherRows(a, rows) => {
                    let ga = &mut grads[*a];
                    for (out_r, &src_r) in rows.iter().enumerate() {
                        for c in 0..g.cols() {
                            ga.set(src_r, c, ga.get(src_r, c) + g.get(out_r, c));
                        }
                    }
                }
                Op::RowSum(a) => {
                    let cols = self.nodes[*a].value.cols();
                    let da = Matrix::from_fn(g.rows(), cols, |r, _| g.get(r, 0));
                    add_into(&mut grads[*a], &da);
                }
                Op::RowL2Normalize(a) => {
                    let av = &self.nodes[*a].value;
                    let out = &self.nodes[i].value;
                    let mut da = Matrix::zeros(g.rows(), g.cols());
                    for r in 0..g.rows() {
                        let n = tg_linalg::matrix::norm(av.row(r));
                        if n > 1e-12 {
                            // d/dx (x/‖x‖) = (I − uuᵀ)/‖x‖ with u = x/‖x‖.
                            let u = out.row(r);
                            let gr = g.row(r);
                            let dotgu: f64 = u.iter().zip(gr).map(|(ui, gi)| ui * gi).sum();
                            for c in 0..g.cols() {
                                da.set(r, c, (gr[c] - dotgu * u[c]) / n);
                            }
                        } else {
                            for c in 0..g.cols() {
                                da.set(r, c, g.get(r, c));
                            }
                        }
                    }
                    add_into(&mut grads[*a], &da);
                }
                Op::ConcatCols(a, b) => {
                    let ca = self.nodes[*a].value.cols();
                    let da = Matrix::from_fn(g.rows(), ca, |r, c| g.get(r, c));
                    add_into(&mut grads[*a], &da);
                    let cb = self.nodes[*b].value.cols();
                    let db = Matrix::from_fn(g.rows(), cb, |r, c| g.get(r, ca + c));
                    add_into(&mut grads[*b], &db);
                }
                Op::Transpose(a) => {
                    let da = g.transpose();
                    add_into(&mut grads[*a], &da);
                }
                Op::SumAll(a) => {
                    let s = g.get(0, 0);
                    let shape = self.nodes[*a].value.shape();
                    let da = Matrix::from_fn(shape.0, shape.1, |_, _| s);
                    add_into(&mut grads[*a], &da);
                }
                Op::MeanAll(a) => {
                    let shape = self.nodes[*a].value.shape();
                    let s = g.get(0, 0) / (shape.0 * shape.1) as f64;
                    let da = Matrix::from_fn(shape.0, shape.1, |_, _| s);
                    add_into(&mut grads[*a], &da);
                }
                Op::MseLoss { pred, target } => {
                    let pv = &self.nodes[*pred].value;
                    let n = (pv.rows() * pv.cols()) as f64;
                    let s = g.get(0, 0);
                    let da = Matrix::from_fn(pv.rows(), pv.cols(), |r, c| {
                        2.0 * (pv.get(r, c) - target.get(r, c)) / n * s
                    });
                    add_into(&mut grads[*pred], &da);
                }
                Op::BceWithLogits { logits, targets } => {
                    let zv = &self.nodes[*logits].value;
                    let n = (zv.rows() * zv.cols()) as f64;
                    let s = g.get(0, 0);
                    let da = Matrix::from_fn(zv.rows(), zv.cols(), |r, c| {
                        (stable_sigmoid(zv.get(r, c)) - targets.get(r, c)) / n * s
                    });
                    add_into(&mut grads[*logits], &da);
                }
                Op::CrossEntropyLogits { logits, labels } => {
                    let zv = &self.nodes[*logits].value;
                    let n = zv.rows() as f64;
                    let s = g.get(0, 0);
                    let mut da = Matrix::zeros(zv.rows(), zv.cols());
                    for (r, &y) in labels.iter().enumerate() {
                        let row = zv.row(r);
                        let mx = row.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
                        let exps: Vec<f64> = row.iter().map(|&x| (x - mx).exp()).collect();
                        let sum: f64 = exps.iter().sum();
                        for c in 0..zv.cols() {
                            let p = exps[c] / sum;
                            let ind = if c == y { 1.0 } else { 0.0 };
                            da.set(r, c, (p - ind) / n * s);
                        }
                    }
                    add_into(&mut grads[*logits], &da);
                }
            }
            grads[i] = g;
        }
        grads
    }

    /// Runs backward and stores the per-node gradients internally, ready for
    /// [`Tape::accumulate_grads`]. Returns the loss value.
    pub fn backward(&mut self, root: Var) -> f64 {
        let loss = self.nodes[root.0].value.get(0, 0);
        let grads = self.gradients(root);
        // Cached gradients are tape residency too (one matrix per node):
        // count them so peak_bytes reflects the true backward high-water
        // mark, and drop any previous cache from the live count first.
        if let Some(old) = &self.cached_grads {
            self.live_bytes -= old.iter().map(matrix_bytes).sum::<u64>();
        }
        self.live_bytes += grads.iter().map(matrix_bytes).sum::<u64>();
        self.note_peak();
        self.cached_grads = Some(grads);
        loss
    }

    /// Flushes gradients of all `param` leaves into the store. Must be
    /// called after [`Tape::backward`].
    pub fn accumulate_grads(&self, store: &mut ParamStore) {
        #[expect(
            clippy::expect_used,
            reason = "documented API contract: backward() must run before gradients are read"
        )]
        let grads = self
            .cached_grads
            .as_ref()
            .expect("accumulate_grads: call backward first");
        for (node, grad) in self.nodes.iter().zip(grads) {
            if let Op::Param(id) = node.op {
                store.accumulate_grad(id, grad);
            }
        }
    }

    /// Gradient of a specific node from the last [`Tape::backward`] call.
    #[expect(
        clippy::expect_used,
        reason = "documented API contract: backward() must run before gradients are read"
    )]
    pub fn grad(&self, v: Var) -> &Matrix {
        &self
            .cached_grads
            .as_ref()
            .expect("grad: call backward first")[v.0]
    }
}

#[inline]
fn stable_sigmoid(z: f64) -> f64 {
    if z >= 0.0 {
        1.0 / (1.0 + (-z).exp())
    } else {
        let e = z.exp();
        e / (1.0 + e)
    }
}

fn add_into(dst: &mut Matrix, src: &Matrix) {
    debug_assert_eq!(dst.shape(), src.shape(), "gradient shape mismatch");
    for (d, &s) in dst.as_mut_slice().iter_mut().zip(src.as_slice()) {
        *d += s;
    }
}

fn sub_into(dst: &mut Matrix, src: &Matrix) {
    debug_assert_eq!(dst.shape(), src.shape(), "gradient shape mismatch");
    for (d, &s) in dst.as_mut_slice().iter_mut().zip(src.as_slice()) {
        *d -= s;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tg_rng::Rng;

    /// Finite-difference gradient check: builds the graph twice per
    /// perturbed entry and compares with the analytic gradient.
    fn grad_check(build: impl Fn(&mut Tape, &ParamStore) -> Var, store: &mut ParamStore, tol: f64) {
        let mut tape = Tape::new();
        let loss = build(&mut tape, store);
        tape.backward(loss);
        store.zero_grads();
        tape.accumulate_grads(store);
        let eps = 1e-5;
        for id in store.ids() {
            let analytic = store.grad(id).clone();
            let (rows, cols) = store.value(id).shape();
            for r in 0..rows {
                for c in 0..cols {
                    let orig = store.value(id).get(r, c);
                    store.value_mut(id).set(r, c, orig + eps);
                    let mut tp = Tape::new();
                    let lp = build(&mut tp, store);
                    let fp = tp.value(lp).get(0, 0);
                    store.value_mut(id).set(r, c, orig - eps);
                    let mut tm = Tape::new();
                    let lm = build(&mut tm, store);
                    let fm = tm.value(lm).get(0, 0);
                    store.value_mut(id).set(r, c, orig);
                    let numeric = (fp - fm) / (2.0 * eps);
                    let a = analytic.get(r, c);
                    assert!(
                        (a - numeric).abs() < tol * (1.0 + a.abs().max(numeric.abs())),
                        "param {} ({r},{c}): analytic {a} vs numeric {numeric}",
                        store.name(id)
                    );
                }
            }
        }
    }

    fn rand_matrix(rng: &mut Rng, r: usize, c: usize) -> Matrix {
        Matrix::from_fn(r, c, |_, _| rng.normal(0.0, 1.0))
    }

    #[test]
    fn gradcheck_matmul_mse() {
        let mut rng = Rng::seed_from_u64(1);
        let mut store = ParamStore::new();
        let w = store.add("w", rand_matrix(&mut rng, 3, 2));
        let x = rand_matrix(&mut rng, 5, 3);
        let y = rand_matrix(&mut rng, 5, 2);
        grad_check(
            |t, s| {
                let wv = t.param(s, w);
                let xv = t.constant(x.clone());
                let p = t.matmul(xv, wv);
                t.mse_loss(p, &y)
            },
            &mut store,
            1e-5,
        );
    }

    #[test]
    fn gradcheck_deep_chain_activations() {
        let mut rng = Rng::seed_from_u64(2);
        let mut store = ParamStore::new();
        let w1 = store.add("w1", rand_matrix(&mut rng, 4, 6));
        let b1 = store.add("b1", rand_matrix(&mut rng, 1, 6));
        let w2 = store.add("w2", rand_matrix(&mut rng, 6, 1));
        let x = rand_matrix(&mut rng, 7, 4);
        let y = Matrix::from_fn(7, 1, |r, _| (r % 2) as f64);
        grad_check(
            |t, s| {
                let w1v = t.param(s, w1);
                let b1v = t.param(s, b1);
                let w2v = t.param(s, w2);
                let xv = t.constant(x.clone());
                let h = t.matmul(xv, w1v);
                let h = t.add_row_broadcast(h, b1v);
                let h = t.tanh(h);
                let z = t.matmul(h, w2v);
                t.bce_with_logits(z, &y)
            },
            &mut store,
            1e-5,
        );
    }

    #[test]
    fn gradcheck_leaky_relu_sigmoid_mul() {
        let mut rng = Rng::seed_from_u64(3);
        let mut store = ParamStore::new();
        let a = store.add("a", rand_matrix(&mut rng, 3, 3));
        let b = store.add("b", rand_matrix(&mut rng, 3, 3));
        grad_check(
            |t, s| {
                let av = t.param(s, a);
                let bv = t.param(s, b);
                let l = t.leaky_relu(av, 0.2);
                let sg = t.sigmoid(bv);
                let m = t.mul_elem(l, sg);
                t.mean_all(m)
            },
            &mut store,
            1e-5,
        );
    }

    #[test]
    fn gradcheck_row_softmax_attention_block() {
        // A miniature GAT-style block: scores → mask → softmax → aggregate.
        let mut rng = Rng::seed_from_u64(4);
        let mut store = ParamStore::new();
        let w = store.add("w", rand_matrix(&mut rng, 3, 2));
        let asrc = store.add("asrc", rand_matrix(&mut rng, 2, 1));
        let adst = store.add("adst", rand_matrix(&mut rng, 2, 1));
        let h = rand_matrix(&mut rng, 4, 3);
        // 4-node ring adjacency with self-loops.
        let mask = Matrix::from_fn(4, 4, |r, c| {
            let d = (r as i64 - c as i64).rem_euclid(4);
            if d == 0 || d == 1 || d == 3 {
                1.0
            } else {
                0.0
            }
        });
        let target = rand_matrix(&mut rng, 4, 2);
        grad_check(
            |t, s| {
                let wv = t.param(s, w);
                let a1 = t.param(s, asrc);
                let a2 = t.param(s, adst);
                let hv = t.constant(h.clone());
                let hp = t.matmul(hv, wv); // 4×2
                let sv = t.matmul(hp, a1); // 4×1
                let tv = t.matmul(hp, a2); // 4×1
                let e = t.add_outer(sv, tv); // 4×4
                let e = t.leaky_relu(e, 0.2);
                let e = t.masked_fill(e, mask.clone(), -1e30);
                let alpha = t.row_softmax(e);
                let out = t.matmul(alpha, hp);
                t.mse_loss(out, &target)
            },
            &mut store,
            1e-4,
        );
    }

    #[test]
    fn gradcheck_gather_rowsum_dotproduct_head() {
        // SGNS/link-prediction head: gather two row sets, elementwise
        // multiply, row-sum → logits.
        let mut rng = Rng::seed_from_u64(5);
        let mut store = ParamStore::new();
        let emb = store.add("emb", rand_matrix(&mut rng, 6, 4));
        let us = vec![0usize, 2, 4, 1];
        let vs = vec![1usize, 3, 5, 5];
        let y = Matrix::from_vec(4, 1, vec![1.0, 0.0, 1.0, 0.0]);
        grad_check(
            |t, s| {
                let e = t.param(s, emb);
                let eu = t.gather_rows(e, us.clone());
                let ev = t.gather_rows(e, vs.clone());
                let prod = t.mul_elem(eu, ev);
                let z = t.row_sum(prod);
                t.bce_with_logits(z, &y)
            },
            &mut store,
            1e-5,
        );
    }

    #[test]
    fn gradcheck_concat_transpose_scalar() {
        let mut rng = Rng::seed_from_u64(6);
        let mut store = ParamStore::new();
        let a = store.add("a", rand_matrix(&mut rng, 3, 2));
        let b = store.add("b", rand_matrix(&mut rng, 3, 2));
        grad_check(
            |t, s| {
                let av = t.param(s, a);
                let bv = t.param(s, b);
                let cat = t.concat_cols(av, bv); // 3×4
                let tr = t.transpose(cat); // 4×3
                let sc = t.scalar_mul(tr, 0.5);
                let r = t.relu(sc);
                t.sum_all(r)
            },
            &mut store,
            1e-5,
        );
    }

    #[test]
    fn gradcheck_row_l2_normalize() {
        let mut rng = Rng::seed_from_u64(7);
        let mut store = ParamStore::new();
        let a = store.add("a", rand_matrix(&mut rng, 4, 3));
        let target = rand_matrix(&mut rng, 4, 3);
        grad_check(
            |t, s| {
                let av = t.param(s, a);
                let n = t.row_l2_normalize(av);
                t.mse_loss(n, &target)
            },
            &mut store,
            1e-4,
        );
    }

    #[test]
    fn gradcheck_cross_entropy() {
        let mut rng = Rng::seed_from_u64(8);
        let mut store = ParamStore::new();
        let w = store.add("w", rand_matrix(&mut rng, 5, 3));
        let x = rand_matrix(&mut rng, 6, 5);
        let labels = vec![0usize, 1, 2, 0, 1, 2];
        grad_check(
            |t, s| {
                let wv = t.param(s, w);
                let xv = t.constant(x.clone());
                let z = t.matmul(xv, wv);
                t.cross_entropy_logits(z, &labels)
            },
            &mut store,
            1e-5,
        );
    }

    #[test]
    fn gradcheck_sub_add() {
        let mut rng = Rng::seed_from_u64(9);
        let mut store = ParamStore::new();
        let a = store.add("a", rand_matrix(&mut rng, 2, 2));
        let b = store.add("b", rand_matrix(&mut rng, 2, 2));
        grad_check(
            |t, s| {
                let av = t.param(s, a);
                let bv = t.param(s, b);
                let d = t.sub(av, bv);
                let e = t.add(d, av);
                let sq = t.mul_elem(e, e);
                t.mean_all(sq)
            },
            &mut store,
            1e-5,
        );
    }

    #[test]
    fn forward_values_softmax_rows_sum_to_one() {
        let mut tape = Tape::new();
        let x = tape.constant(Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[-1.0, 0.0, 1.0]]));
        let p = tape.row_softmax(x);
        for r in 0..2 {
            let s: f64 = tape.value(p).row(r).iter().sum();
            assert!((s - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn bce_known_value() {
        // logits 0 vs target 0.5... use target 1: loss = ln(1+e^0)=ln2.
        let mut tape = Tape::new();
        let z = tape.constant(Matrix::from_vec(1, 1, vec![0.0]));
        let loss = tape.bce_with_logits(z, &Matrix::from_vec(1, 1, vec![1.0]));
        assert!((tape.value(loss).get(0, 0) - std::f64::consts::LN_2).abs() < 1e-12);
    }

    #[test]
    fn gather_rows_values() {
        let mut tape = Tape::new();
        let m = tape.constant(Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]));
        let g = tape.gather_rows(m, vec![2, 0, 2]);
        assert_eq!(tape.value(g).row(0), &[5.0, 6.0]);
        assert_eq!(tape.value(g).row(1), &[1.0, 2.0]);
        assert_eq!(tape.value(g).row(2), &[5.0, 6.0]);
    }

    #[test]
    #[should_panic(expected = "backward: root must be a 1×1 scalar")]
    fn backward_requires_scalar() {
        let mut tape = Tape::new();
        let x = tape.constant(Matrix::zeros(2, 2));
        tape.backward(x);
    }

    #[test]
    fn byte_accounting_tracks_values_and_grads() {
        let mut tape = Tape::new();
        assert_eq!(tape.live_bytes(), 0);
        let x = tape.constant(Matrix::from_fn(4, 3, |r, c| (r + c) as f64));
        assert_eq!(tape.live_bytes(), 4 * 3 * 8);
        let s = tape.sum_all(x);
        assert_eq!(tape.live_bytes(), 4 * 3 * 8 + 8);
        tape.backward(s);
        // Backward caches one gradient per node: live doubles.
        assert_eq!(tape.live_bytes(), 2 * (4 * 3 * 8 + 8));
        assert_eq!(tape.peak_bytes(), tape.live_bytes());
    }

    #[test]
    fn reset_frees_live_but_keeps_peak() {
        let mut tape = Tape::new();
        let x = tape.constant(Matrix::zeros(8, 8));
        let s = tape.sum_all(x);
        tape.backward(s);
        let peak = tape.peak_bytes();
        assert!(peak > 0);
        tape.reset();
        assert_eq!(tape.live_bytes(), 0);
        assert_eq!(tape.peak_bytes(), peak);
        assert!(global_peak_tape_bytes() >= peak);
    }

    #[test]
    fn scope_resets_and_accumulates_into_shared_store() {
        // Two scoped minibatches against one store must sum their
        // gradients; d/dp of sum(p) is all-ones per scope, so two scopes
        // leave a gradient of 2 everywhere.
        let mut store = ParamStore::new();
        let p = store.add("p", Matrix::zeros(2, 2));
        let mut tape = Tape::new();
        store.zero_grads();
        for _ in 0..2 {
            tape.scope(|t| {
                let pv = t.param(&store, p);
                let loss = t.sum_all(pv);
                t.backward(loss);
                t.accumulate_grads(&mut store);
            });
            assert_eq!(tape.live_bytes(), 0, "scope must reset the tape");
        }
        let g = store.grad(p);
        assert!(g.as_slice().iter().all(|&x| x == 2.0), "{:?}", g.as_slice());
    }

    #[test]
    fn peak_spans_scopes_monotonically() {
        let mut tape = Tape::new();
        tape.scope(|t| {
            let x = t.constant(Matrix::zeros(10, 10));
            let s = t.sum_all(x);
            t.backward(s);
        });
        let big = tape.peak_bytes();
        tape.scope(|t| {
            t.constant(Matrix::zeros(2, 2));
        });
        assert_eq!(tape.peak_bytes(), big, "smaller scope must not move peak");
    }
}
