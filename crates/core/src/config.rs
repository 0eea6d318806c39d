//! DEKG-ILP hyperparameters and ablation switches.

use dekg_gnn::LabelingMode;
use dekg_kg::ExtractionMode;
use serde::{Deserialize, Serialize};

/// Ablation switches matching Section V-G.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Ablation {
    /// `false` removes `φ_sem` from Eq. 13 → the **DEKG-ILP-R** variant.
    pub use_semantic: bool,
    /// `false` sets `σ = 0` in Eq. 15 → the **DEKG-ILP-C** variant.
    pub use_contrastive: bool,
    /// `false` reverts to GraIL's pruning labeling → **DEKG-ILP-N**.
    pub improved_labeling: bool,
}

impl Default for Ablation {
    fn default() -> Self {
        Ablation { use_semantic: true, use_contrastive: true, improved_labeling: true }
    }
}

impl Ablation {
    /// The full model.
    pub fn full() -> Self {
        Self::default()
    }

    /// DEKG-ILP-R: no relation-specific semantic score.
    pub fn without_semantic() -> Self {
        Ablation { use_semantic: false, ..Self::default() }
    }

    /// DEKG-ILP-C: no contrastive loss.
    pub fn without_contrastive() -> Self {
        Ablation { use_contrastive: false, ..Self::default() }
    }

    /// DEKG-ILP-N: original GraIL node labeling.
    pub fn without_improved_labeling() -> Self {
        Ablation { improved_labeling: false, ..Self::default() }
    }

    /// Variant name as used in Fig. 6.
    pub fn variant_name(&self) -> &'static str {
        match (self.use_semantic, self.use_contrastive, self.improved_labeling) {
            (true, true, true) => "DEKG-ILP",
            (false, _, _) => "DEKG-ILP-R",
            (true, false, true) => "DEKG-ILP-C",
            (true, true, false) => "DEKG-ILP-N",
            _ => "DEKG-ILP-custom",
        }
    }
}

/// Full hyperparameter set. Field defaults follow Section V-D's optimal
/// configuration: `lr = 0.01`, `d = 32`, `β = 0.5`, `σ = 0.1`, one
/// negative per positive, 10 contrastive examples per entity.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DekgIlpConfig {
    /// Embedding dimension `d` for both modules.
    pub dim: usize,
    /// Learning rate.
    pub lr: f32,
    /// Training epochs (the paper runs 100; scaled runs use fewer).
    pub epochs: usize,
    /// Triples per training batch.
    pub batch_size: usize,
    /// Margin `γ` shared by the ranking loss (Eq. 14) and the
    /// contrastive loss (Eq. 7).
    pub margin: f32,
    /// Contrastive-loss coefficient `σ` (Eq. 15).
    pub sigma: f32,
    /// Scaling factor `θ` bounding the perturbed counts in o₁/o₂.
    pub theta: f32,
    /// Contrastive positive/negative examples per entity.
    pub num_contrastive: usize,
    /// Negative triples per positive (Eq. 12).
    pub neg_per_pos: usize,
    /// Edge dropout rate `β` in the GNN.
    pub edge_dropout: f32,
    /// Subgraph hop bound `t`.
    pub hops: u32,
    /// Number of R-GCN layers `L`.
    pub gnn_layers: usize,
    /// Attention embedding width in the GNN.
    pub attn_dim: usize,
    /// Gradient-clipping threshold (global norm).
    pub grad_clip: f32,
    /// Multiplicative learning-rate decay applied after each epoch
    /// (1.0 = constant rate).
    pub lr_decay: f32,
    /// Use TransH-style Bernoulli side selection for negative sampling
    /// instead of a fair coin.
    pub bernoulli_negatives: bool,
    /// Basis decomposition for the GNN's relation weights (GraIL's
    /// default is 4 bases); keeps GSM's parameter complexity at
    /// `O(|R|·d·l)` as analyzed in the paper's Section V-H.
    pub num_bases: Option<usize>,
    /// When positive, every N-th training batch is re-verified by the
    /// f64 reference interpreter (`Graph::diff_check`): forward values
    /// and parameter gradients are compared against the optimized
    /// kernels, and training aborts on divergence. `0` (the default)
    /// disables the spot check.
    pub gradcheck_every: usize,
    /// When `true`, every training batch's tape goes through the three
    /// static passes of `dekg_tensor::tapecheck` via its `TapeCache`:
    /// each node's shape is checked against its op, gradient-flow
    /// reachability flags dead parameters, and the memory plan's
    /// predicted peak is exported as a gauge. Structurally identical
    /// batches hit the cache, so steady-state overhead is a single hash
    /// of the tape. The value pass (NaN/Inf checks) is not cached and
    /// not run here; `dekg check --tape` runs all four passes.
    pub tape_report: bool,
    /// Ablation switches.
    pub ablation: Ablation,
}

impl Default for DekgIlpConfig {
    fn default() -> Self {
        DekgIlpConfig {
            dim: 32,
            lr: 0.01,
            epochs: 100,
            batch_size: 32,
            margin: 1.0,
            sigma: 0.1,
            theta: 2.0,
            num_contrastive: 10,
            neg_per_pos: 1,
            edge_dropout: 0.5,
            hops: 2,
            gnn_layers: 3,
            attn_dim: 8,
            grad_clip: 5.0,
            lr_decay: 1.0,
            bernoulli_negatives: false,
            num_bases: Some(4),
            gradcheck_every: 0,
            tape_report: false,
            ablation: Ablation::full(),
        }
    }
}

impl DekgIlpConfig {
    /// The paper's optimal configuration at full scale.
    pub fn paper() -> Self {
        Self::default()
    }

    /// A fast configuration for tests and scaled experiments. Uses
    /// full per-relation weights (`num_bases: None`) — at small dims
    /// the basis indirection costs more than it saves.
    pub fn quick() -> Self {
        DekgIlpConfig {
            dim: 16,
            epochs: 5,
            batch_size: 16,
            num_contrastive: 3,
            gnn_layers: 2,
            num_bases: None,
            ..Self::default()
        }
    }

    /// The extraction mode implied by the labeling ablation.
    pub fn extraction_mode(&self) -> ExtractionMode {
        if self.ablation.improved_labeling {
            ExtractionMode::Union
        } else {
            ExtractionMode::Intersection
        }
    }

    /// The labeling mode implied by the labeling ablation.
    pub fn labeling_mode(&self) -> LabelingMode {
        if self.ablation.improved_labeling {
            LabelingMode::Improved
        } else {
            LabelingMode::Grail
        }
    }

    /// Validates hyperparameter ranges.
    ///
    /// # Panics
    /// On out-of-range values; called by the model constructor.
    pub fn validate(&self) {
        if let Err(e) = self.try_validate() {
            panic!("{e}");
        }
    }

    /// The fallible form of [`DekgIlpConfig::validate`], for configs
    /// read from outside the program (the config inside a checkpoint
    /// file).
    ///
    /// # Errors
    /// A message naming the first out-of-range field.
    pub(crate) fn try_validate(&self) -> Result<(), String> {
        let rules: [(bool, &str); 13] = [
            (self.dim > 0, "dim must be positive"),
            (self.lr > 0.0, "lr must be positive"),
            (self.epochs > 0, "epochs must be positive"),
            (self.batch_size > 0, "batch_size must be positive"),
            (self.margin >= 0.0, "margin must be non-negative"),
            (self.sigma >= 0.0, "sigma must be non-negative"),
            (self.theta >= 1.0, "theta must be ≥ 1 (count range [1, m_i·θ])"),
            (self.neg_per_pos > 0, "need at least one negative per positive"),
            ((0.0..1.0).contains(&self.edge_dropout), "edge_dropout in [0,1)"),
            (
                self.hops > 0 && self.gnn_layers > 0 && self.attn_dim > 0,
                "hops, gnn_layers and attn_dim must be positive",
            ),
            (self.grad_clip > 0.0, "grad_clip must be positive"),
            (self.lr_decay > 0.0 && self.lr_decay <= 1.0, "lr_decay must be in (0, 1]"),
            (self.num_bases != Some(0), "num_bases must be positive"),
        ];
        match rules.iter().find(|(ok, _)| !ok) {
            Some((_, msg)) => Err((*msg).to_owned()),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_section_5d() {
        let c = DekgIlpConfig::paper();
        assert_eq!(c.dim, 32);
        assert_eq!(c.lr, 0.01);
        assert_eq!(c.edge_dropout, 0.5);
        assert_eq!(c.sigma, 0.1);
        assert_eq!(c.neg_per_pos, 1);
        assert_eq!(c.num_contrastive, 10);
        c.validate();
    }

    #[test]
    fn ablation_names() {
        assert_eq!(Ablation::full().variant_name(), "DEKG-ILP");
        assert_eq!(Ablation::without_semantic().variant_name(), "DEKG-ILP-R");
        assert_eq!(Ablation::without_contrastive().variant_name(), "DEKG-ILP-C");
        assert_eq!(Ablation::without_improved_labeling().variant_name(), "DEKG-ILP-N");
    }

    #[test]
    fn labeling_ablation_switches_modes() {
        let mut c = DekgIlpConfig::quick();
        assert_eq!(c.extraction_mode(), ExtractionMode::Union);
        assert_eq!(c.labeling_mode(), LabelingMode::Improved);
        c.ablation = Ablation::without_improved_labeling();
        assert_eq!(c.extraction_mode(), ExtractionMode::Intersection);
        assert_eq!(c.labeling_mode(), LabelingMode::Grail);
    }

    #[test]
    #[should_panic(expected = "theta")]
    fn validate_rejects_bad_theta() {
        let c = DekgIlpConfig { theta: 0.5, ..DekgIlpConfig::quick() };
        c.validate();
    }
}
