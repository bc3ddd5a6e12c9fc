//! Optimizers: Adam (the paper's choice, §IV-A.4) and plain SGD.
//!
//! Adam follows Kingma & Ba with β₁ = 0.9, β₂ = 0.999 and an optional
//! linear learning-rate decay, matching the paper's training setup. For
//! sparse-gradient parameters (embedding tables) the update is **lazy**:
//! only rows touched by the current batch have their moments advanced.
//! This is the standard large-embedding trick (same semantics as
//! TensorFlow's `LazyAdam`); the bias-correction exponent uses the global
//! step, which is the common approximation and is documented here
//! explicitly.
//!
//! ℓ2 regularization (the `λ‖Θ‖²` term of Eq. 9) is applied as loss-coupled
//! weight decay: `g ← g + 2λθ` on dense parameters and on the touched rows
//! of sparse parameters.

use crate::mat::Mat;
use crate::store::{GradSlot, Grads, ParamStore};

/// Adam hyper-parameters.
#[derive(Debug, Clone)]
pub struct AdamConfig {
    pub lr: f32,
    pub beta1: f32,
    pub beta2: f32,
    pub eps: f32,
    /// ℓ2 coefficient λ from Eq. 9 (0 disables).
    pub l2: f32,
    /// If set, the lr decays linearly from `lr` to `lr * final_lr_frac`
    /// over `decay_steps`.
    pub decay_steps: Option<u64>,
    pub final_lr_frac: f32,
}

impl Default for AdamConfig {
    fn default() -> Self {
        Self {
            lr: 1e-3,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            l2: 0.0,
            decay_steps: None,
            final_lr_frac: 0.1,
        }
    }
}

/// Adam optimizer state (moments live inside the [`ParamStore`]).
#[derive(Debug, Clone)]
pub struct Adam {
    cfg: AdamConfig,
    step: u64,
}

impl Adam {
    pub fn new(cfg: AdamConfig) -> Self {
        Self { cfg, step: 0 }
    }

    /// Current (possibly decayed) learning rate.
    pub fn current_lr(&self) -> f32 {
        match self.cfg.decay_steps {
            None => self.cfg.lr,
            Some(total) => {
                let t = (self.step.min(total)) as f32 / total.max(1) as f32;
                let frac = 1.0 - t * (1.0 - self.cfg.final_lr_frac);
                self.cfg.lr * frac
            }
        }
    }

    /// Apply one batch of gradients.
    pub fn step(&mut self, store: &mut ParamStore, grads: &Grads) {
        self.step += 1;
        let lr = self.current_lr();
        let (b1, b2, eps, l2) = (self.cfg.beta1, self.cfg.beta2, self.cfg.eps, self.cfg.l2);
        let bc1 = 1.0 - b1.powi(self.step as i32);
        let bc2 = 1.0 - b2.powi(self.step as i32);

        for (i, slot) in grads.slots.iter().enumerate() {
            let Some(slot) = slot else { continue };
            let param = store.param_mut(crate::store::ParamId(i));
            match slot {
                GradSlot::Dense(g) => {
                    adam_update_dense(
                        &mut param.value,
                        &mut param.m,
                        &mut param.v,
                        g,
                        lr,
                        b1,
                        b2,
                        eps,
                        l2,
                        bc1,
                        bc2,
                    );
                }
                GradSlot::SparseRows(rows) => {
                    for (&r, grow) in rows {
                        adam_update_row(
                            param.value.row_mut(r as usize),
                            param.m.row_mut(r as usize),
                            param.v.row_mut(r as usize),
                            grow,
                            lr,
                            b1,
                            b2,
                            eps,
                            l2,
                            bc1,
                            bc2,
                        );
                    }
                }
            }
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn adam_update_dense(
    value: &mut Mat,
    m: &mut Mat,
    v: &mut Mat,
    g: &Mat,
    lr: f32,
    b1: f32,
    b2: f32,
    eps: f32,
    l2: f32,
    bc1: f32,
    bc2: f32,
) {
    let value = value.data_mut();
    let m = m.data_mut();
    let v = v.data_mut();
    let g = g.data();
    for i in 0..value.len() {
        let grad = g[i] + 2.0 * l2 * value[i];
        m[i] = b1 * m[i] + (1.0 - b1) * grad;
        v[i] = b2 * v[i] + (1.0 - b2) * grad * grad;
        let mhat = m[i] / bc1;
        let vhat = v[i] / bc2;
        value[i] -= lr * mhat / (vhat.sqrt() + eps);
    }
}

#[allow(clippy::too_many_arguments)]
fn adam_update_row(
    value: &mut [f32],
    m: &mut [f32],
    v: &mut [f32],
    g: &[f32],
    lr: f32,
    b1: f32,
    b2: f32,
    eps: f32,
    l2: f32,
    bc1: f32,
    bc2: f32,
) {
    for i in 0..value.len() {
        let grad = g[i] + 2.0 * l2 * value[i];
        m[i] = b1 * m[i] + (1.0 - b1) * grad;
        v[i] = b2 * v[i] + (1.0 - b2) * grad * grad;
        let mhat = m[i] / bc1;
        let vhat = v[i] / bc2;
        value[i] -= lr * mhat / (vhat.sqrt() + eps);
    }
}

/// Plain SGD with optional ℓ2 — kept for tests and ablations.
#[derive(Debug, Clone)]
pub struct Sgd {
    pub lr: f32,
    pub l2: f32,
}

impl Sgd {
    pub fn new(lr: f32) -> Self {
        Self { lr, l2: 0.0 }
    }

    pub fn step(&self, store: &mut ParamStore, grads: &Grads) {
        for (i, slot) in grads.slots.iter().enumerate() {
            let Some(slot) = slot else { continue };
            let param = store.param_mut(crate::store::ParamId(i));
            match slot {
                GradSlot::Dense(g) => {
                    let value = param.value.data_mut();
                    for (x, &gv) in value.iter_mut().zip(g.data()) {
                        *x -= self.lr * (gv + 2.0 * self.l2 * *x);
                    }
                }
                GradSlot::SparseRows(rows) => {
                    for (&r, grow) in rows {
                        let row = param.value.row_mut(r as usize);
                        for (x, &gv) in row.iter_mut().zip(grow) {
                            *x -= self.lr * (gv + 2.0 * self.l2 * *x);
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
impl Adam {
    /// Test helper: advance the step counter without touching parameters.
    fn step_forward(&mut self, n: u64) {
        self.step += n;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::ParamStore;
    use crate::tape::Tape;

    /// Minimize mean((x@w - 3)^2)-ish via BCE-free quadratic surrogate:
    /// just check Adam reduces a simple convex loss.
    fn quadratic_loss(store: &ParamStore, w: crate::store::ParamId) -> (f32, Grads) {
        let mut tape = Tape::new(store);
        let wv = tape.param(w);
        // loss = mean((w - 3)^2) = mean(w*w - 6w + 9)
        let sq = tape.mul(wv, wv);
        let lin = tape.scale(wv, -6.0);
        let s = tape.add(sq, lin);
        let loss = tape.mean_all(s);
        let l = tape.scalar(loss) + 9.0;
        let g = tape.backward(loss);
        (l, g)
    }

    #[test]
    fn adam_minimizes_quadratic() {
        let mut store = ParamStore::new();
        let w = store.add("w", Mat::zeros(1, 4));
        let mut adam = Adam::new(AdamConfig {
            lr: 0.1,
            ..Default::default()
        });
        let (initial, _) = quadratic_loss(&store, w);
        for _ in 0..300 {
            let (_, g) = quadratic_loss(&store, w);
            adam.step(&mut store, &g);
        }
        let (fin, _) = quadratic_loss(&store, w);
        assert!(fin < initial * 0.01, "loss {initial} -> {fin}");
        for &x in store.value(w).data() {
            assert!((x - 3.0).abs() < 0.1, "w = {x}");
        }
    }

    #[test]
    fn sgd_minimizes_quadratic() {
        let mut store = ParamStore::new();
        let w = store.add("w", Mat::zeros(1, 2));
        let opt = Sgd::new(0.1);
        for _ in 0..200 {
            let (_, g) = quadratic_loss(&store, w);
            opt.step(&mut store, &g);
        }
        for &x in store.value(w).data() {
            assert!((x - 3.0).abs() < 0.05, "w = {x}");
        }
    }

    #[test]
    fn lr_decay_schedule() {
        let mut adam = Adam::new(AdamConfig {
            lr: 1.0,
            decay_steps: Some(100),
            final_lr_frac: 0.1,
            ..Default::default()
        });
        assert!((adam.current_lr() - 1.0).abs() < 1e-6);
        adam.step_forward(50);
        assert!((adam.current_lr() - 0.55).abs() < 1e-6);
        adam.step_forward(1000);
        assert!((adam.current_lr() - 0.1).abs() < 1e-6);
    }

    #[test]
    fn l2_pulls_weights_toward_zero() {
        let mut store = ParamStore::new();
        let w = store.add("w", Mat::filled(1, 2, 5.0));
        let mut adam = Adam::new(AdamConfig {
            lr: 0.05,
            l2: 0.5,
            ..Default::default()
        });
        // zero task gradient: only the regularizer acts
        for _ in 0..200 {
            let mut g = store.grads();
            g.accumulate_dense(w, &Mat::zeros(1, 2));
            adam.step(&mut store, &g);
        }
        for &x in store.value(w).data() {
            assert!(x.abs() < 1.0, "w = {x}");
        }
    }

    #[test]
    fn sparse_update_touches_only_gathered_rows() {
        let mut store = ParamStore::new();
        let e = store.add_sparse("emb", Mat::filled(3, 2, 1.0));
        let mut adam = Adam::new(AdamConfig::default());
        let mut g = store.grads();
        g.accumulate_row(e, 1, &[1.0, 1.0]);
        adam.step(&mut store, &g);
        let val = store.value(e);
        assert_eq!(val.row(0), &[1.0, 1.0]);
        assert_eq!(val.row(2), &[1.0, 1.0]);
        assert!(val.get(1, 0) < 1.0);
    }
}
