//! Persisted model artifacts end-to-end: a `.gdse` round trip must be
//! byte-identical on every kernel's predictions, and damaged artifacts must
//! be rejected with the right typed error instead of a garbage model.

use design_space::DesignSpace;
use gdse_gnn::artifact::{Artifact, ArtifactError};
use gdse_gnn::{ModelConfig, ModelKind};
use gnn_dse::trainer::TrainConfig;
use gnn_dse::{dbgen, decode_predictor, encode_predictor, ArtifactMeta, Error, Predictor};
use hls_ir::kernels;
use proggraph::build_graph_bidirectional;
use std::time::{Duration, Instant};

fn tiny_predictor() -> (Predictor, ArtifactMeta) {
    let ks = vec![kernels::gemm_ncubed(), kernels::spmv_ellpack()];
    let db = dbgen::generate_database(&ks, &[], 25, 17);
    let (p, _) = Predictor::train(
        &db,
        &ks,
        ModelKind::Transformer,
        ModelConfig::small(),
        &TrainConfig::quick().with_epochs(2),
    );
    let names: Vec<String> = ks.iter().map(|k| k.name().to_string()).collect();
    let meta = ArtifactMeta::describe(&p, &names, 2);
    (p, meta)
}

#[test]
fn round_trip_predictions_are_byte_identical_on_every_kernel() {
    let (p, meta) = tiny_predictor();
    let bytes = encode_predictor(&p, &meta).expect("encodes");
    // Earlier builds also wrote `"quant": false` into the metadata; their
    // f32 files must keep loading to the same model.
    let mut older = Artifact::from_bytes(&bytes).expect("parses");
    let fields = older.meta_json.strip_suffix('}').expect("metadata is a JSON object");
    older.meta_json = format!("{fields},\"quant\":false}}");
    for file in [bytes, older.to_bytes()] {
        let (loaded, loaded_meta) = decode_predictor(&file).expect("decodes");
        assert_eq!(loaded_meta, meta);
        assert_predictions_match(&p, &loaded);
    }
}

/// Asserts `p` and `loaded` predict bit-identically on every kernel.
fn assert_predictions_match(p: &Predictor, loaded: &Predictor) {
    let all = kernels::all_kernels();
    assert!(all.len() >= 13, "expected the full kernel suite, got {}", all.len());
    for k in all {
        let space = DesignSpace::from_kernel(&k);
        let graph = build_graph_bidirectional(&k, &space);
        let points: Vec<_> =
            (0..8u128).map(|i| space.point_at(i * 37 % space.size())).collect();
        let a = p.predict_batch(&graph, &points);
        let b = loaded.predict_batch(&graph, &points);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(
                x.valid_prob.to_bits(),
                y.valid_prob.to_bits(),
                "{}: valid_prob drifted",
                k.name()
            );
            assert_eq!(x.cycles, y.cycles, "{}: cycles drifted", k.name());
            assert_eq!(x.util.dsp.to_bits(), y.util.dsp.to_bits(), "{}: dsp", k.name());
            assert_eq!(x.util.bram.to_bits(), y.util.bram.to_bits(), "{}: bram", k.name());
            assert_eq!(x.util.lut.to_bits(), y.util.lut.to_bits(), "{}: lut", k.name());
            assert_eq!(x.util.ff.to_bits(), y.util.ff.to_bits(), "{}: ff", k.name());
        }
    }
}

#[test]
fn bit_flips_anywhere_in_the_body_are_caught_by_the_checksum() {
    let (p, meta) = tiny_predictor();
    let clean = encode_predictor(&p, &meta).expect("encodes");
    // Probe a spread of positions after the header (magic + version are
    // checked before the checksum, so they report their own errors).
    for pos in [8, clean.len() / 3, clean.len() / 2, clean.len() - 9] {
        let mut bytes = clean.clone();
        bytes[pos] ^= 0x40;
        match decode_predictor(&bytes) {
            Err(Error::Artifact(ArtifactError::ChecksumMismatch { .. })) => {}
            other => panic!("flip at {pos}: expected checksum mismatch, got {other:?}"),
        }
    }
}

#[test]
fn truncated_artifacts_are_rejected() {
    let (p, meta) = tiny_predictor();
    let clean = encode_predictor(&p, &meta).expect("encodes");
    // Too short to even hold the header + checksum: typed truncation.
    match decode_predictor(&clean[..10]) {
        Err(Error::Artifact(ArtifactError::Truncated { .. })) => {}
        other => panic!("expected truncation error, got {other:?}"),
    }
    // Cut mid-body: the trailing 8 bytes no longer checksum the content.
    match decode_predictor(&clean[..clean.len() / 2]) {
        Err(Error::Artifact(
            ArtifactError::ChecksumMismatch { .. } | ArtifactError::Truncated { .. },
        )) => {}
        other => panic!("expected checksum/truncation error, got {other:?}"),
    }
}

#[test]
fn wrong_versions_and_wrong_magic_are_typed_errors() {
    let (p, meta) = tiny_predictor();
    let clean = encode_predictor(&p, &meta).expect("encodes");

    // Version 2 is the int8 envelope earlier builds wrote; 99 is from the
    // future. This build reads version 1 only.
    for version in [2u32, 99] {
        let mut wrong_envelope = clean.clone();
        wrong_envelope[4..8].copy_from_slice(&version.to_le_bytes());
        match decode_predictor(&wrong_envelope) {
            Err(Error::Artifact(ArtifactError::UnsupportedVersion { found })) => {
                assert_eq!(found, version)
            }
            other => panic!("expected unsupported envelope version {version}, got {other:?}"),
        }
    }

    let mut wrong_magic = clean.clone();
    wrong_magic[0] = b'X';
    match decode_predictor(&wrong_magic) {
        Err(Error::Artifact(ArtifactError::BadMagic)) => {}
        other => panic!("expected bad magic, got {other:?}"),
    }

    // A future *metadata* schema version is rejected after decoding too.
    let mut future_meta = meta.clone();
    future_meta.schema_version += 1;
    let bytes = encode_predictor(&p, &future_meta).expect("encodes");
    match decode_predictor(&bytes) {
        Err(Error::Artifact(ArtifactError::UnsupportedVersion { .. })) => {}
        other => panic!("expected unsupported meta schema, got {other:?}"),
    }
}

#[test]
fn unbuildable_declared_architectures_are_rejected_before_allocating() {
    let (p, meta) = tiny_predictor();
    let clean = Artifact::from_bytes(&encode_predictor(&p, &meta).unwrap()).unwrap();
    // A model section starts with the kind tag, then `hidden`, `gnn_layers`
    // and `mlp_layers` as u32 LE. Building the first three architectures
    // would take gigabytes or more, and a GNN without layers cannot be
    // built at all; each file still carries a valid checksum.
    for (field, offset, value) in [
        ("hidden", 1, 65_536u32),
        ("hidden", 1, u32::MAX),
        ("gnn_layers", 5, 2_000_000),
        ("gnn_layers", 5, 0),
    ] {
        let mut art = clean.clone();
        let (_, classifier) =
            art.sections.iter_mut().find(|(name, _)| name == "classifier").unwrap();
        classifier[offset..offset + 4].copy_from_slice(&value.to_le_bytes());
        let started = Instant::now();
        match decode_predictor(&art.to_bytes()) {
            Err(Error::Artifact(ArtifactError::Corrupt(_))) => {}
            other => panic!("{field} = {value}: expected a corrupt artifact, got {other:?}"),
        }
        assert!(
            started.elapsed() < Duration::from_secs(1),
            "{field} = {value}: rejection took {:?}",
            started.elapsed()
        );
    }
}

#[test]
fn save_and_load_round_trip_through_disk_atomically() {
    let (p, meta) = tiny_predictor();
    let dir = std::env::temp_dir().join("gnn_dse_artifact_it");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("model.gdse");
    p.save_artifact(&path, &meta).expect("saves");
    let (loaded, loaded_meta) = Predictor::load_artifact(&path).expect("loads");
    assert_eq!(loaded_meta, meta);
    let k = kernels::atax();
    let space = DesignSpace::from_kernel(&k);
    let graph = build_graph_bidirectional(&k, &space);
    let pt = space.point_at(3 % space.size());
    assert_eq!(p.predict(&graph, &pt), loaded.predict(&graph, &pt));
    std::fs::remove_file(&path).ok();
}
