//! Model checkpointing: trained parameters survive a serialize/restore
//! roundtrip with bit-identical scoring.

use dekg::prelude::*;
use dekg::tensor::serialize::{decode, encode};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn dataset() -> DekgDataset {
    let profile = DatasetProfile::table2(RawKg::Wn18rr, SplitKind::Eq).scaled(0.02);
    generate(&SynthConfig::for_profile(profile, 31))
}

#[test]
fn dekg_ilp_checkpoint_roundtrip() {
    let data = dataset();
    let mut rng = ChaCha8Rng::seed_from_u64(0);
    let cfg = DekgIlpConfig { epochs: 2, ..DekgIlpConfig::quick() };
    let mut model = DekgIlp::new(cfg.clone(), &data, &mut rng);
    model.fit(&data, &mut rng);

    let graph = InferenceGraph::from_dataset(&data);
    let batch = &data.test_bridging[..5.min(data.test_bridging.len())];
    let before = model.score_batch(&graph, batch);

    // Serialize, then restore into a fresh model skeleton.
    let bytes = encode(model.params(), b"");
    let (restored_params, _meta) = decode(&bytes).expect("decode");
    let mut rng2 = ChaCha8Rng::seed_from_u64(999); // different init seed on purpose
    let mut restored = DekgIlp::new(cfg, &data, &mut rng2);
    *restored.params_mut() = restored_params;

    let after = restored.score_batch(&graph, batch);
    assert_eq!(before, after, "restored model must score identically");
}

#[test]
fn checkpoint_preserves_every_parameter() {
    let data = dataset();
    let mut rng = ChaCha8Rng::seed_from_u64(1);
    let mut model =
        TransE::new(EmbeddingConfig { epochs: 2, ..EmbeddingConfig::quick() }, &data, &mut rng);
    model.fit(&data, &mut rng);

    // TransE exposes no params() accessor on the trait; serialize via
    // a second fit-free model is not possible — so this test uses the
    // DekgIlp surface above for scoring and checks raw-store fidelity
    // here with a hand-built store.
    use dekg::tensor::{ParamStore, Tensor};
    let mut ps = ParamStore::new();
    ps.insert("a", Tensor::from_vec([2, 2], vec![1.0, -2.0, 3.5, 0.25]));
    ps.insert("b", Tensor::scalar(42.0));
    let bytes = encode(&ps, b"");
    let (back, _meta) = decode(&bytes).unwrap();
    assert_eq!(back.len(), ps.len());
    for (_, name, value) in ps.iter() {
        let id = back.id_of(name).unwrap();
        assert_eq!(back.get(id), value, "{name}");
    }
}

#[test]
fn disk_checkpoint_roundtrip() {
    let data = dataset();
    let mut rng = ChaCha8Rng::seed_from_u64(5);
    let cfg = DekgIlpConfig { epochs: 2, ..DekgIlpConfig::quick() };
    let mut model = DekgIlp::new(cfg.clone(), &data, &mut rng);
    model.fit(&data, &mut rng);

    let path = std::env::temp_dir().join("dekg_ckpt_roundtrip.bin");
    model.save_checkpoint(&path).unwrap();

    let graph = InferenceGraph::from_dataset(&data);
    let batch = &data.test_enclosing[..4.min(data.test_enclosing.len())];
    let before = model.score_batch(&graph, batch);

    let mut rng2 = ChaCha8Rng::seed_from_u64(12345);
    let mut restored = DekgIlp::new(cfg, &data, &mut rng2);
    restored.load_checkpoint(&path).unwrap();
    assert_eq!(restored.score_batch(&graph, batch), before);
    std::fs::remove_file(&path).ok();
}

#[test]
fn corrupted_checkpoint_is_rejected_not_misread() {
    let data = dataset();
    let mut rng = ChaCha8Rng::seed_from_u64(2);
    let model = DekgIlp::new(DekgIlpConfig::quick(), &data, &mut rng);
    let mut bytes = encode(model.params(), b"").to_vec();
    // Flip the magic.
    bytes[0] ^= 0xFF;
    assert!(decode(&bytes).is_err());
    // Truncate the tail.
    let bytes2 = encode(model.params(), b"");
    assert!(decode(&bytes2[..bytes2.len() / 2]).is_err());
}

/// Writes one checkpoint file holding `model`'s weights under `cfg` —
/// a deliberately mismatched file when `cfg` is not the model's own
/// config.
fn write_pair(model: &DekgIlp, cfg: &DekgIlpConfig, path: &std::path::Path) -> String {
    let meta = serde_json::to_string(cfg).unwrap();
    std::fs::write(path, encode(model.params(), meta.as_bytes())).unwrap();
    path.to_string_lossy().into_owned()
}

#[test]
fn mismatched_checkpoint_pair_is_an_error_not_a_panic() {
    let data = dataset();
    let mut rng = ChaCha8Rng::seed_from_u64(3);
    let cfg = DekgIlpConfig::quick();
    let model = DekgIlp::new(cfg.clone(), &data, &mut rng);
    let dir = std::env::temp_dir();
    let tag = std::process::id();

    // The model's own save restores, from that one file.
    let ok = dir.join(format!("dekg_ckpt_pair_ok_{tag}.bin")).to_string_lossy().into_owned();
    model.save_checkpoint(&ok).unwrap();
    assert!(DekgIlp::restore(&ok, &data).is_ok());

    // A config of a different `dim`: same names, other shapes.
    let wide = DekgIlpConfig { dim: cfg.dim * 2, ..cfg.clone() };
    let path = write_pair(&model, &wide, &dir.join(format!("dekg_ckpt_pair_dim_{tag}.bin")));
    let err = DekgIlp::restore(&path, &data).unwrap_err().to_string();
    assert!(err.contains("shape mismatch"), "{err}");

    // A config without the semantic module: a different parameter set.
    let no_sem = DekgIlpConfig { ablation: Ablation::without_semantic(), ..cfg.clone() };
    let path = write_pair(&model, &no_sem, &dir.join(format!("dekg_ckpt_pair_abl_{tag}.bin")));
    let err = DekgIlp::restore(&path, &data).unwrap_err().to_string();
    assert!(err.contains("parameters"), "{err}");

    // An out-of-range config is rejected before any model is built.
    let zero = DekgIlpConfig { dim: 0, ..cfg.clone() };
    let path = write_pair(&model, &zero, &dir.join(format!("dekg_ckpt_pair_zero_{tag}.bin")));
    let err = DekgIlp::restore(&path, &data).unwrap_err().to_string();
    assert!(err.contains("dim must be positive"), "{err}");

    for kind in ["ok", "dim", "abl", "zero"] {
        std::fs::remove_file(dir.join(format!("dekg_ckpt_pair_{kind}_{tag}.bin"))).ok();
    }
}

#[test]
fn failed_load_leaves_the_model_unchanged() {
    // A different hop bound changes only the first GNN layer's input
    // width: the CLRM parameters ahead of it in the file match, so a
    // load that copied as it checked would leave a half-restored model.
    let data = dataset();
    let cfg = DekgIlpConfig::quick();
    let mut rng = ChaCha8Rng::seed_from_u64(4);
    let mut model = DekgIlp::new(cfg.clone(), &data, &mut rng);
    let other_cfg = DekgIlpConfig { hops: cfg.hops + 1, ..cfg };
    let other = DekgIlp::new(other_cfg, &data, &mut rng);
    let path = std::env::temp_dir().join(format!("dekg_ckpt_hops_{}.bin", std::process::id()));
    other.save_checkpoint(&path).unwrap();

    let graph = InferenceGraph::from_dataset(&data);
    let batch = &data.test_enclosing[..4.min(data.test_enclosing.len())];
    let before = model.score_batch(&graph, batch);
    let err = model.load_checkpoint(&path).unwrap_err().to_string();
    assert!(err.contains("shape mismatch"), "{err}");
    assert_eq!(model.score_batch(&graph, batch), before);
    std::fs::remove_file(&path).ok();
}
