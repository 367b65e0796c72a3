//! Feed-forward networks: dense (SwiGLU or plain) and sparse
//! mixture-of-experts (Mixtral's top-2 of 8).

use crate::ranks::{as_refs, even_rows, gather, sharded_matvec};
use oaken_runtime::{Comm, Runtime};
use oaken_tensor::activation::Activation;
use oaken_tensor::{softmax_in_place, Tensor};

/// One expert (or the only FFN of a dense layer).
#[derive(Debug, Clone)]
pub struct DenseFfn {
    /// Gate matrix `[ffn_hidden × d]`, present for SwiGLU-style FFNs.
    pub w_gate: Option<Tensor>,
    /// Up-projection `[ffn_hidden × d]`.
    pub w_up: Tensor,
    /// Down-projection `[d × ffn_hidden]`.
    pub w_down: Tensor,
}

impl DenseFfn {
    /// Applies the FFN to one token vector.
    ///
    /// # Panics
    ///
    /// Panics if the matrix shapes disagree with `x`.
    pub fn forward(&self, x: &[f32], act: Activation) -> Vec<f32> {
        let mut up = self.w_up.matvec(x).expect("up-projection shape");
        match &self.w_gate {
            Some(g) => {
                // SwiGLU: down( act(gate(x)) ⊙ up(x) ).
                let mut gate = g.matvec(x).expect("gate shape");
                act.apply_in_place(&mut gate);
                for (u, g) in up.iter_mut().zip(&gate) {
                    *u *= g;
                }
            }
            None => act.apply_in_place(&mut up),
        }
        self.w_down.matvec(&up).expect("down-projection shape")
    }

    /// Applies the FFN to a batch of token vectors as `comm.num_ranks()`
    /// ranks on `rt`: each rank computes its rows of `up` (and `gate`),
    /// applies the activation and the gating product **locally**
    /// (elementwise, so shard bits equal full-vector bits), the hidden
    /// shards gather through one all-reduce, and the down-projection's
    /// rows through a second. Bit-exact per vector with
    /// [`DenseFfn::forward`] for every rank and thread count.
    ///
    /// # Panics
    ///
    /// Panics if the matrix shapes disagree with the inputs.
    pub(crate) fn forward_sharded(
        &self,
        rt: &Runtime,
        comm: &mut Comm,
        xs: &[&[f32]],
        act: Activation,
    ) -> Vec<Vec<f32>> {
        let rows = even_rows(comm.num_ranks(), self.w_up.shape()[0]);
        let mut ups = self
            .w_up
            .matvec_batch_shards(rt, xs, &rows)
            .expect("up-projection shape");
        match &self.w_gate {
            Some(g) => {
                let mut gates = g.matvec_batch_shards(rt, xs, &rows).expect("gate shape");
                for (up, gate) in ups.iter_mut().flatten().zip(gates.iter_mut().flatten()) {
                    act.apply_in_place(gate);
                    for (u, g) in up.iter_mut().zip(gate.iter()) {
                        *u *= g;
                    }
                }
            }
            None => {
                for up in ups.iter_mut().flatten() {
                    act.apply_in_place(up);
                }
            }
        }
        let hidden = gather(comm, ups, &rows);
        sharded_matvec(rt, comm, &self.w_down, &as_refs(&hidden))
    }
}

/// Softmax over the router logits, the `top_k` strongest experts, and
/// their weights renormalised to sum to one: `(expert, weight)` in
/// descending routing weight — the order the expert outputs accumulate in.
fn route(mut logits: Vec<f32>, top_k: usize) -> Vec<(usize, f32)> {
    softmax_in_place(&mut logits);
    let mut idx: Vec<usize> = (0..logits.len()).collect();
    idx.sort_by(|&a, &b| logits[b].partial_cmp(&logits[a]).unwrap());
    idx.truncate(top_k);
    let norm: f32 = idx.iter().map(|&i| logits[i]).sum();
    idx.into_iter()
        .map(|e| (e, if norm > 0.0 { logits[e] / norm } else { 0.0 }))
        .collect()
}

/// The FFN of one decoder layer: dense or mixture-of-experts.
#[derive(Debug, Clone)]
pub enum FfnWeights {
    /// A single dense FFN.
    Dense(DenseFfn),
    /// Router + experts, activating the top-k per token.
    Moe {
        /// Router matrix `[num_experts × d]`.
        router: Tensor,
        /// Expert FFNs.
        experts: Vec<DenseFfn>,
        /// Experts activated per token.
        top_k: usize,
    },
}

impl FfnWeights {
    /// Applies the FFN (dispatching to the routed experts for MoE).
    pub fn forward(&self, x: &[f32], act: Activation) -> Vec<f32> {
        match self {
            FfnWeights::Dense(ffn) => ffn.forward(x, act),
            FfnWeights::Moe {
                router,
                experts,
                top_k,
            } => {
                let logits = router.matvec(x).expect("router shape");
                let mut out = vec![0.0f32; x.len()];
                for (e, w) in route(logits, *top_k) {
                    let y = experts[e].forward(x, act);
                    for (o, v) in out.iter_mut().zip(y) {
                        *o += w * v;
                    }
                }
                out
            }
        }
    }

    /// Applies the FFN to a batch of vectors as `comm.num_ranks()` ranks
    /// on `rt`, bit-exact per vector with [`FfnWeights::forward`]. Dense
    /// FFNs share one weight sweep across the batch
    /// ([`DenseFfn::forward_sharded`]). MoE layers gather the router's
    /// expert rows once for the whole batch, replicate the routing
    /// ([`route`]: pure elementwise/ordering work on identical bits), and
    /// run each token's chosen experts as rank-sharded dense FFNs (each
    /// token may hit different experts).
    pub(crate) fn forward_sharded(
        &self,
        rt: &Runtime,
        comm: &mut Comm,
        xs: &[&[f32]],
        act: Activation,
    ) -> Vec<Vec<f32>> {
        match self {
            FfnWeights::Dense(ffn) => ffn.forward_sharded(rt, comm, xs, act),
            FfnWeights::Moe {
                router,
                experts,
                top_k,
            } => {
                let all_logits = sharded_matvec(rt, comm, router, xs);
                xs.iter()
                    .zip(all_logits)
                    .map(|(x, logits)| {
                        let mut out = vec![0.0f32; x.len()];
                        for (e, w) in route(logits, *top_k) {
                            let y = experts[e]
                                .forward_sharded(rt, comm, &[x], act)
                                .pop()
                                .expect("one input, one output");
                            for (o, v) in out.iter_mut().zip(y) {
                                *o += w * v;
                            }
                        }
                        out
                    })
                    .collect()
            }
        }
    }

    /// Number of experts whose weights must be resident (1 for dense).
    pub fn num_experts(&self) -> usize {
        match self {
            FfnWeights::Dense(_) => 1,
            FfnWeights::Moe { experts, .. } => experts.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn identity_ffn(d: usize) -> DenseFfn {
        DenseFfn {
            w_gate: None,
            w_up: Tensor::eye(d),
            w_down: Tensor::eye(d),
        }
    }

    #[test]
    fn relu_ffn_clamps_negative() {
        let ffn = identity_ffn(3);
        let out = ffn.forward(&[1.0, -2.0, 3.0], Activation::Relu);
        assert_eq!(out, vec![1.0, 0.0, 3.0]);
    }

    #[test]
    fn gated_ffn_multiplies_gate() {
        let d = 2;
        let ffn = DenseFfn {
            w_gate: Some(Tensor::eye(d)),
            w_up: Tensor::eye(d),
            w_down: Tensor::eye(d),
        };
        let x = vec![2.0, -1.0];
        let out = ffn.forward(&x, Activation::Silu);
        // silu(2)*2, silu(-1)*(-1)
        let silu = |v: f32| v / (1.0 + (-v).exp());
        assert!((out[0] - silu(2.0) * 2.0).abs() < 1e-6);
        assert!((out[1] - -silu(-1.0)).abs() < 1e-6);
    }

    #[test]
    fn moe_routes_to_strongest_expert() {
        let d = 2;
        // Expert 0 doubles, expert 1 negates.
        let double = DenseFfn {
            w_gate: None,
            w_up: Tensor::from_vec(vec![2.0, 0.0, 0.0, 2.0], &[2, 2]).unwrap(),
            w_down: Tensor::eye(d),
        };
        let negate = DenseFfn {
            w_gate: None,
            w_up: Tensor::from_vec(vec![-1.0, 0.0, 0.0, -1.0], &[2, 2]).unwrap(),
            w_down: Tensor::eye(d),
        };
        // Router hugely favours expert 0 for positive x[0].
        let router = Tensor::from_vec(vec![100.0, 0.0, -100.0, 0.0], &[2, 2]).unwrap();
        let moe = FfnWeights::Moe {
            router,
            experts: vec![double, negate],
            top_k: 1,
        };
        let out = moe.forward(&[1.0, 1.0], Activation::Relu);
        assert_eq!(out, vec![2.0, 2.0]);
        assert_eq!(moe.num_experts(), 2);
    }

    #[test]
    fn moe_top2_blends_experts() {
        let d = 1;
        let a = DenseFfn {
            w_gate: None,
            w_up: Tensor::from_vec(vec![1.0], &[1, 1]).unwrap(),
            w_down: Tensor::eye(d),
        };
        let b = DenseFfn {
            w_gate: None,
            w_up: Tensor::from_vec(vec![3.0], &[1, 1]).unwrap(),
            w_down: Tensor::eye(d),
        };
        // Equal routing.
        let router = Tensor::from_vec(vec![0.0, 0.0], &[2, 1]).unwrap();
        let moe = FfnWeights::Moe {
            router,
            experts: vec![a, b],
            top_k: 2,
        };
        let out = moe.forward(&[1.0], Activation::Relu);
        assert!((out[0] - 2.0).abs() < 1e-5, "{out:?}");
    }
}
