//! Named parameter storage and gradient accumulation.

use crate::tensor::Tensor;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};

/// A process-unique store identity (see [`ParamStore::identity`]).
fn fresh_identity() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

/// Handle to a parameter inside a [`ParamStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ParamId(pub(crate) usize);

impl ParamId {
    /// The raw index, stable for the lifetime of the store.
    pub fn index(self) -> usize {
        self.0
    }
}

/// A collection of named, trainable tensors.
///
/// Models allocate their weights here once; every training step then
/// mounts them into a fresh [`crate::Graph`] via [`crate::Graph::param`],
/// and an [`crate::optim::Optimizer`] applies the resulting
/// [`GradStore`]. Names are unique and primarily serve
/// serialization/debugging.
#[derive(Debug)]
pub struct ParamStore {
    names: Vec<String>,
    values: Vec<Tensor>,
    by_name: HashMap<String, usize>,
    identity: u64,
}

impl Default for ParamStore {
    fn default() -> Self {
        ParamStore {
            names: Vec::new(),
            values: Vec::new(),
            by_name: HashMap::new(),
            identity: fresh_identity(),
        }
    }
}

/// A clone is a different store: it gets its own identity, so one tape
/// never mixes leaves of the original and the copy.
impl Clone for ParamStore {
    fn clone(&self) -> Self {
        ParamStore {
            names: self.names.clone(),
            values: self.values.clone(),
            by_name: self.by_name.clone(),
            identity: fresh_identity(),
        }
    }
}

impl ParamStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// This store's identity, unique within the process: new, cloned
    /// and deserialized stores each draw a fresh one. A [`crate::Graph`]
    /// uses it to refuse parameters of a second store.
    pub(crate) fn identity(&self) -> u64 {
        self.identity
    }

    /// Registers a new parameter.
    ///
    /// # Panics
    /// If `name` is already registered.
    pub fn insert(&mut self, name: impl Into<String>, value: Tensor) -> ParamId {
        let name = name.into();
        assert!(!self.by_name.contains_key(&name), "duplicate parameter name {name:?}");
        let id = self.values.len();
        self.by_name.insert(name.clone(), id);
        self.names.push(name);
        self.values.push(value);
        ParamId(id)
    }

    /// The current value of a parameter.
    pub fn get(&self, id: ParamId) -> &Tensor {
        &self.values[id.0]
    }

    /// Mutable access to a parameter value.
    pub fn get_mut(&mut self, id: ParamId) -> &mut Tensor {
        &mut self.values[id.0]
    }

    /// Looks a parameter up by name.
    pub fn id_of(&self, name: &str) -> Option<ParamId> {
        self.by_name.get(name).copied().map(ParamId)
    }

    /// The name of a parameter.
    pub fn name_of(&self, id: ParamId) -> &str {
        &self.names[id.0]
    }

    /// Number of parameters (tensors, not scalars).
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when no parameters are registered.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Total number of scalar weights across all parameters.
    ///
    /// This is what Fig. 7 of the paper reports as "parameter complexity".
    pub fn num_scalars(&self) -> usize {
        self.values.iter().map(Tensor::numel).sum()
    }

    /// Iterates over `(id, name, value)`.
    pub fn iter(&self) -> impl Iterator<Item = (ParamId, &str, &Tensor)> {
        self.values.iter().enumerate().map(|(i, v)| (ParamId(i), self.names[i].as_str(), v))
    }
}

/// Gradients produced by one [`crate::Graph::backward`] call, keyed by
/// [`ParamId`]. Parameters that did not participate in the forward pass
/// have no entry.
///
/// Backed by a `BTreeMap` so every iteration — [`Self::global_norm`]'s
/// reduction in particular — visits parameters in a fixed key order.
/// A hash map's per-instance seed would make the float sum order (and
/// so the reported norm's low bits) depend on process history.
#[derive(Debug, Clone, Default)]
pub struct GradStore {
    grads: BTreeMap<usize, Tensor>,
}

impl GradStore {
    /// An empty gradient set.
    pub fn new() -> Self {
        Self::default()
    }

    /// The gradient for `id`, if it was touched by the forward pass.
    pub fn get(&self, id: ParamId) -> Option<&Tensor> {
        self.grads.get(&id.0)
    }

    /// Accumulates `grad` into the entry for `id`.
    pub fn accumulate(&mut self, id: ParamId, grad: &Tensor) {
        match self.grads.get_mut(&id.0) {
            Some(existing) => {
                crate::kernels::add_assign(existing.data_mut(), grad.data());
            }
            None => {
                self.grads.insert(id.0, grad.clone());
            }
        }
    }

    /// Merges another gradient set into this one (summing overlaps).
    pub fn merge(&mut self, other: &GradStore) {
        for (&k, g) in &other.grads {
            self.accumulate(ParamId(k), g);
        }
    }

    /// Number of parameters with gradients.
    pub fn len(&self) -> usize {
        self.grads.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.grads.is_empty()
    }

    /// Global L2 norm over all gradients.
    pub fn global_norm(&self) -> f32 {
        self.grads.values().map(|g| crate::kernels::norm_sq(g.data())).sum::<f32>().sqrt()
    }

    /// Scales all gradients so the global norm is at most `max_norm`.
    ///
    /// Returns the pre-clip norm.
    pub fn clip_global_norm(&mut self, max_norm: f32) -> f32 {
        let norm = self.global_norm();
        if norm > max_norm && norm > 0.0 {
            let s = max_norm / norm;
            for g in self.grads.values_mut() {
                for x in g.data_mut() {
                    *x *= s;
                }
            }
        }
        norm
    }

    /// Iterates over `(id, grad)`.
    pub fn iter(&self) -> impl Iterator<Item = (ParamId, &Tensor)> {
        self.grads.iter().map(|(&k, g)| (ParamId(k), g))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_and_lookup() {
        let mut ps = ParamStore::new();
        let a = ps.insert("a", Tensor::ones([2, 2]));
        let b = ps.insert("b", Tensor::zeros([3]));
        assert_eq!(ps.len(), 2);
        assert_eq!(ps.num_scalars(), 7);
        assert_eq!(ps.id_of("a"), Some(a));
        assert_eq!(ps.id_of("missing"), None);
        assert_eq!(ps.name_of(b), "b");
        assert_eq!(ps.get(a).sum(), 4.0);
    }

    #[test]
    #[should_panic(expected = "duplicate parameter name")]
    fn duplicate_name_panics() {
        let mut ps = ParamStore::new();
        ps.insert("w", Tensor::zeros([1]));
        ps.insert("w", Tensor::zeros([1]));
    }

    #[test]
    fn grad_accumulation() {
        let mut ps = ParamStore::new();
        let a = ps.insert("a", Tensor::zeros([2]));
        let mut gs = GradStore::new();
        gs.accumulate(a, &Tensor::from_vec([2], vec![1.0, 2.0]));
        gs.accumulate(a, &Tensor::from_vec([2], vec![0.5, 0.5]));
        assert_eq!(gs.get(a).unwrap().data(), &[1.5, 2.5]);
    }

    #[test]
    fn merge_sums_overlaps() {
        let mut ps = ParamStore::new();
        let a = ps.insert("a", Tensor::zeros([1]));
        let mut g1 = GradStore::new();
        g1.accumulate(a, &Tensor::from_vec([1], vec![1.0]));
        let mut g2 = GradStore::new();
        g2.accumulate(a, &Tensor::from_vec([1], vec![2.0]));
        g1.merge(&g2);
        assert_eq!(g1.get(a).unwrap().data(), &[3.0]);
    }

    #[test]
    fn clipping() {
        let mut ps = ParamStore::new();
        let a = ps.insert("a", Tensor::zeros([2]));
        let mut gs = GradStore::new();
        gs.accumulate(a, &Tensor::from_vec([2], vec![3.0, 4.0]));
        let pre = gs.clip_global_norm(1.0);
        assert!((pre - 5.0).abs() < 1e-6);
        assert!((gs.global_norm() - 1.0).abs() < 1e-6);
        // Clipping below the max is a no-op.
        let pre2 = gs.clip_global_norm(10.0);
        assert!((pre2 - 1.0).abs() < 1e-6);
    }
}
