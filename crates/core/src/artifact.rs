//! Persisted predictor artifacts (`.gdse` files).
//!
//! A trained [`Predictor`] — validity classifier, main regressor, BRAM
//! regressor, latency normalizer — plus its training provenance is packed
//! into one binary [`gdse_gnn::artifact`] envelope and written atomically
//! through [`crate::persist`]. Loading rebuilds the exact same predictor:
//! weights travel as raw `f32` bits, so predictions from a loaded artifact
//! are **byte-identical** to the in-memory model that saved it (asserted by
//! the round-trip tests across all 13 kernels).
//!
//! Section layout inside the envelope:
//!
//! | section | payload |
//! |---|---|
//! | `classifier` | [`gdse_gnn::artifact::encode_model`] of the validity classifier |
//! | `regressor` | ... of the latency/DSP/LUT/FF regressor |
//! | `bram` | ... of the BRAM regressor |
//! | `normalizer` | the eq. 11 normalization factor, `f64` LE |
//!
//! and the envelope's metadata document is an [`ArtifactMeta`] as JSON.
//!
//! This is the only model file format: every command that takes a model
//! reads it through [`Predictor::load_artifact`].

use crate::dataset::Normalizer;
use crate::error::Error;
use crate::inference::Predictor;
use gdse_gnn::artifact::{decode_model, encode_model, Artifact, ArtifactError};
use serde::{Deserialize, Serialize};
use std::path::Path;

/// Current [`ArtifactMeta::schema_version`].
pub const META_SCHEMA_VERSION: u32 = 1;

/// Training provenance stored next to the weights.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ArtifactMeta {
    /// Metadata schema version ([`META_SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// The paper's label of the model variant (e.g. `M7 GNN-DSE (full)`).
    pub model: String,
    /// Kernels in the training database.
    pub kernels: Vec<String>,
    /// Training epochs.
    pub epochs: usize,
    /// Weight-initialization seed of the main regressor.
    pub seed: u64,
}

impl ArtifactMeta {
    /// Builds metadata describing `predictor` trained on `kernels` for
    /// `epochs` epochs.
    pub fn describe(predictor: &Predictor, kernels: &[String], epochs: usize) -> Self {
        ArtifactMeta {
            schema_version: META_SCHEMA_VERSION,
            model: predictor.regressor().kind().label().to_string(),
            kernels: kernels.to_vec(),
            epochs,
            seed: predictor.regressor().config().seed,
        }
    }
}

fn corrupt(detail: impl Into<String>) -> Error {
    Error::Artifact(ArtifactError::Corrupt(detail.into()))
}

/// Serializes `predictor` + `meta` into artifact bytes (no I/O).
pub fn encode_predictor(predictor: &Predictor, meta: &ArtifactMeta) -> Result<Vec<u8>, Error> {
    let meta_json =
        serde_json::to_string(meta).map_err(|e| corrupt(format!("metadata: {e}")))?;
    let mut art = Artifact::new(meta_json);
    art.push_section("classifier", encode_model(predictor.classifier()));
    art.push_section("regressor", encode_model(predictor.regressor()));
    art.push_section("bram", encode_model(predictor.bram_model()));
    art.push_section("normalizer", predictor.normalizer().factor().to_le_bytes().to_vec());
    Ok(art.to_bytes())
}

/// Rebuilds a predictor and its metadata from artifact bytes.
///
/// # Errors
///
/// Typed [`ArtifactError`]s (wrapped in [`enum@Error`]) for bad magic,
/// unsupported versions, checksum mismatches, truncation, and structural
/// corruption.
pub fn decode_predictor(bytes: &[u8]) -> Result<(Predictor, ArtifactMeta), Error> {
    let art = Artifact::from_bytes(bytes)?;
    let meta: ArtifactMeta = serde_json::from_str(&art.meta_json)
        .map_err(|e| corrupt(format!("metadata: {e}")))?;
    if meta.schema_version != META_SCHEMA_VERSION {
        return Err(Error::Artifact(ArtifactError::UnsupportedVersion {
            found: meta.schema_version,
        }));
    }
    let section = |name: &str| {
        art.section(name).ok_or_else(|| corrupt(format!("missing `{name}` section")))
    };
    let classifier = decode_model(section("classifier")?)?;
    let regressor = decode_model(section("regressor")?)?;
    let bram = decode_model(section("bram")?)?;
    let factor: [u8; 8] = section("normalizer")?
        .try_into()
        .map_err(|_| corrupt("normalizer section must be exactly 8 bytes"))?;
    let normalizer = Normalizer::with_factor(f64::from_le_bytes(factor));
    Ok((Predictor::from_parts(classifier, regressor, bram, normalizer), meta))
}

impl Predictor {
    /// Saves this predictor as a binary `.gdse` artifact, atomically.
    ///
    /// # Errors
    ///
    /// Encoding failures as [`Error::Artifact`], write failures as
    /// [`Error::Io`].
    pub fn save_artifact(&self, path: &Path, meta: &ArtifactMeta) -> Result<(), Error> {
        let bytes = encode_predictor(self, meta)?;
        crate::persist::atomic_write_bytes(path, &bytes)?;
        Ok(())
    }

    /// Loads a predictor saved by [`Predictor::save_artifact`].
    ///
    /// # Errors
    ///
    /// Read failures as [`Error::Io`]; validation/decode failures as the
    /// typed [`Error::Artifact`] variants.
    pub fn load_artifact(path: &Path) -> Result<(Predictor, ArtifactMeta), Error> {
        let bytes = std::fs::read(path)?;
        decode_predictor(&bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dbgen::generate_database;
    use crate::trainer::TrainConfig;
    use design_space::DesignSpace;
    use gdse_gnn::{ModelConfig, ModelKind};
    use hls_ir::kernels;
    use proggraph::build_graph_bidirectional;

    fn tiny_predictor() -> Predictor {
        let ks = vec![kernels::gemm_ncubed()];
        let db = generate_database(&ks, &[], 25, 91);
        let (p, _) = Predictor::train(
            &db,
            &ks,
            ModelKind::Transformer,
            ModelConfig::small(),
            &TrainConfig::quick().with_epochs(2),
        );
        p
    }

    fn meta_for(p: &Predictor) -> ArtifactMeta {
        ArtifactMeta::describe(p, &["gemm-ncubed".to_string()], 2)
    }

    #[test]
    fn encode_decode_is_byte_identical_on_predictions() {
        let p = tiny_predictor();
        let bytes = encode_predictor(&p, &meta_for(&p)).unwrap();
        let (loaded, meta) = decode_predictor(&bytes).unwrap();
        assert_eq!(meta.schema_version, META_SCHEMA_VERSION);
        assert_eq!(meta.model, "M5 GNN-DSE-TransformerConv");
        assert_eq!(meta.kernels, vec!["gemm-ncubed".to_string()]);

        let k = kernels::gemm_ncubed();
        let space = DesignSpace::from_kernel(&k);
        let graph = build_graph_bidirectional(&k, &space);
        let points: Vec<_> = (0..8u128).map(|i| space.point_at(i * 31 % space.size())).collect();
        let a = p.predict_batch(&graph, &points);
        let b = loaded.predict_batch(&graph, &points);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.valid_prob.to_bits(), y.valid_prob.to_bits());
            assert_eq!(x.cycles, y.cycles);
            assert_eq!(x.util.dsp.to_bits(), y.util.dsp.to_bits());
            assert_eq!(x.util.bram.to_bits(), y.util.bram.to_bits());
        }
        assert_eq!(
            p.normalizer().factor().to_bits(),
            loaded.normalizer().factor().to_bits()
        );
    }

    #[test]
    fn save_load_round_trips_through_disk() {
        let p = tiny_predictor();
        let dir = std::env::temp_dir().join("gnn_dse_artifact_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.gdse");
        p.save_artifact(&path, &meta_for(&p)).unwrap();
        let (loaded, _) = Predictor::load_artifact(&path).unwrap();
        let k = kernels::gemm_ncubed();
        let space = DesignSpace::from_kernel(&k);
        let graph = build_graph_bidirectional(&k, &space);
        let pt = space.point_at(5);
        assert_eq!(p.predict(&graph, &pt), loaded.predict(&graph, &pt));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupted_artifact_is_rejected_with_typed_error() {
        let p = tiny_predictor();
        let mut bytes = encode_predictor(&p, &meta_for(&p)).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        match decode_predictor(&bytes) {
            Err(Error::Artifact(ArtifactError::ChecksumMismatch { .. })) => {}
            other => panic!("expected checksum mismatch, got {other:?}"),
        }
    }

    #[test]
    fn missing_file_is_an_io_error() {
        match Predictor::load_artifact(Path::new("/nonexistent/model.gdse")) {
            Err(Error::Io(_)) => {}
            other => panic!("expected Io, got {other:?}"),
        }
    }

    #[test]
    fn meta_schema_version_is_checked() {
        let p = tiny_predictor();
        let mut meta = meta_for(&p);
        meta.schema_version = 9;
        let bytes = encode_predictor(&p, &meta).unwrap();
        match decode_predictor(&bytes) {
            Err(Error::Artifact(ArtifactError::UnsupportedVersion { found: 9 })) => {}
            other => panic!("expected unsupported version, got {other:?}"),
        }
    }
}
