//! Versioned, zero-dependency binary artifact format for trained models.
//!
//! A trained [`PredictionModel`] is the expensive output of the pipeline;
//! this module makes it a durable, reusable artifact instead of a
//! train-once-in-RAM object. The format is deliberately boring:
//!
//! ```text
//! "GDSE" magic (4 bytes)
//! format version   u32 LE        (always 1: FORMAT_VERSION)
//! meta JSON        string        (training metadata, schema-versioned)
//! section count    u32 LE
//! section          string name + u32 length + payload bytes   (repeated)
//! checksum         u64 LE        (FNV-1a 64 of every byte before it)
//! ```
//!
//! where `string` is a `u32` byte length followed by UTF-8 bytes. Model
//! sections (produced by [`encode_model`]) store the architecture
//! descriptor — kind, [`ModelConfig`], head names — followed by every
//! parameter of the [`ParamStore`] as raw little-endian `f32` bits keyed by
//! name and shape. Decoding first checks that the declared architecture's
//! weights fit in the payload, then rebuilds it with
//! [`PredictionModel::new`] (parameter registration order is deterministic)
//! and overwrites the freshly initialized weights in place, so a loaded
//! model is **byte-identical** to the one that was saved: no float/text
//! round trip is involved.
//!
//! Everything here is `std`-only; corruption is detected by the trailing
//! checksum and reported through the typed [`ArtifactError`].

use crate::model::{ModelConfig, ModelKind, PredictionModel};
use gdse_tensor::Matrix;

/// File magic: the first four bytes of every artifact.
pub const MAGIC: [u8; 4] = *b"GDSE";

/// The envelope version this build reads and writes. Any other version is
/// rejected with [`ArtifactError::UnsupportedVersion`].
pub const FORMAT_VERSION: u32 = 1;

/// Typed decode/validation failures of the artifact format.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArtifactError {
    /// The byte stream ended before a field could be read.
    Truncated {
        /// Bytes the decoder needed to make progress.
        needed: usize,
        /// Bytes that were actually left.
        available: usize,
    },
    /// The file does not start with the `GDSE` magic.
    BadMagic,
    /// The file declares a format version this build cannot read.
    UnsupportedVersion {
        /// The version found in the file.
        found: u32,
    },
    /// The trailing checksum does not match the content.
    ChecksumMismatch {
        /// Checksum recomputed over the content.
        expected: u64,
        /// Checksum stored in the file.
        found: u64,
    },
    /// Structurally invalid content (bad tag, shape mismatch, bad UTF-8...).
    Corrupt(String),
}

impl std::fmt::Display for ArtifactError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArtifactError::Truncated { needed, available } => write!(
                f,
                "artifact truncated: needed {needed} more byte(s), {available} left"
            ),
            ArtifactError::BadMagic => write!(f, "not a GDSE model artifact (bad magic)"),
            ArtifactError::UnsupportedVersion { found } => write!(
                f,
                "artifact format version {found} unsupported (this build reads version {FORMAT_VERSION})"
            ),
            ArtifactError::ChecksumMismatch { expected, found } => write!(
                f,
                "artifact checksum mismatch: content hashes to {expected:#018x}, file says {found:#018x}"
            ),
            ArtifactError::Corrupt(msg) => write!(f, "artifact corrupt: {msg}"),
        }
    }
}

impl std::error::Error for ArtifactError {}

/// FNV-1a 64-bit hash — the artifact checksum. Not cryptographic; it guards
/// against truncation and bit rot, not adversaries.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

/// Cursor over an artifact byte stream with typed underrun errors.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], ArtifactError> {
        let available = self.buf.len() - self.pos;
        if available < n {
            return Err(ArtifactError::Truncated { needed: n, available });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, ArtifactError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, ArtifactError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, ArtifactError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    fn str(&mut self) -> Result<String, ArtifactError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| ArtifactError::Corrupt("string field is not UTF-8".into()))
    }

    fn rest(&self) -> usize {
        self.buf.len() - self.pos
    }
}

/// A decoded artifact envelope: training metadata plus named payload
/// sections (model weights, normalizer, ...). The envelope is agnostic to
/// what the sections contain; `gnn-dse` layers predictor semantics on top.
#[derive(Debug, Clone, PartialEq)]
pub struct Artifact {
    /// Training metadata as a JSON document (schema version, kernel set,
    /// epoch count, seed). Kept as text so the envelope stays zero-dependency.
    pub meta_json: String,
    /// Named payload sections, in file order.
    pub sections: Vec<(String, Vec<u8>)>,
}

impl Artifact {
    /// An empty artifact with the given metadata document.
    pub fn new(meta_json: impl Into<String>) -> Self {
        Artifact { meta_json: meta_json.into(), sections: Vec::new() }
    }

    /// Appends a named payload section.
    pub fn push_section(&mut self, name: impl Into<String>, payload: Vec<u8>) {
        self.sections.push((name.into(), payload));
    }

    /// The payload of the first section named `name`, if present.
    pub fn section(&self, name: &str) -> Option<&[u8]> {
        self.sections.iter().find(|(n, _)| n == name).map(|(_, p)| p.as_slice())
    }

    /// Serializes the artifact: magic, version, metadata, sections, and the
    /// trailing FNV-1a checksum over everything before it.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&MAGIC);
        put_u32(&mut out, FORMAT_VERSION);
        put_str(&mut out, &self.meta_json);
        put_u32(&mut out, self.sections.len() as u32);
        for (name, payload) in &self.sections {
            put_str(&mut out, name);
            put_u32(&mut out, payload.len() as u32);
            out.extend_from_slice(payload);
        }
        let sum = fnv1a64(&out);
        put_u64(&mut out, sum);
        out
    }

    /// Parses and validates an artifact byte stream.
    ///
    /// Validation order: magic, then declared version, then the trailing
    /// checksum over the whole content, then structure — so a wrong-format
    /// file reports [`ArtifactError::BadMagic`], an incompatible one
    /// [`ArtifactError::UnsupportedVersion`], and a bit-flipped one
    /// [`ArtifactError::ChecksumMismatch`].
    ///
    /// # Errors
    ///
    /// Returns the first [`ArtifactError`] encountered.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, ArtifactError> {
        let mut r = Reader::new(bytes);
        let magic = r.take(4)?;
        if magic != MAGIC {
            return Err(ArtifactError::BadMagic);
        }
        let version = r.u32()?;
        if version != FORMAT_VERSION {
            return Err(ArtifactError::UnsupportedVersion { found: version });
        }
        if bytes.len() < 8 + 8 {
            return Err(ArtifactError::Truncated { needed: 8, available: bytes.len() - 8 });
        }
        let content = &bytes[..bytes.len() - 8];
        let found = u64::from_le_bytes(bytes[bytes.len() - 8..].try_into().expect("8 bytes"));
        let expected = fnv1a64(content);
        if found != expected {
            return Err(ArtifactError::ChecksumMismatch { expected, found });
        }

        let mut r = Reader::new(content);
        r.take(8)?; // magic + version, already validated
        let meta_json = r.str()?;
        let n_sections = r.u32()? as usize;
        let mut sections = Vec::with_capacity(n_sections.min(64));
        for _ in 0..n_sections {
            let name = r.str()?;
            let len = r.u32()? as usize;
            let payload = r.take(len)?.to_vec();
            sections.push((name, payload));
        }
        if r.rest() != 0 {
            return Err(ArtifactError::Corrupt(format!(
                "{} trailing byte(s) after the last section",
                r.rest()
            )));
        }
        Ok(Artifact { meta_json, sections })
    }
}

fn kind_tag(kind: ModelKind) -> u8 {
    ModelKind::ALL
        .iter()
        .position(|k| *k == kind)
        .expect("every ModelKind is in ModelKind::ALL") as u8
}

fn kind_from_tag(tag: u8) -> Result<ModelKind, ArtifactError> {
    ModelKind::ALL
        .get(tag as usize)
        .copied()
        .ok_or_else(|| ArtifactError::Corrupt(format!("unknown model kind tag {tag}")))
}

/// Serializes one [`PredictionModel`] as a section payload: architecture
/// descriptor (kind tag, config, head names) followed by every parameter as
/// name, shape, and raw little-endian `f32` data in registration order.
pub fn encode_model(model: &PredictionModel) -> Vec<u8> {
    let mut out = Vec::new();
    out.push(kind_tag(model.kind()));
    let cfg = model.config();
    put_u32(&mut out, cfg.hidden as u32);
    put_u32(&mut out, cfg.gnn_layers as u32);
    put_u32(&mut out, cfg.mlp_layers as u32);
    put_u64(&mut out, cfg.seed);
    put_u32(&mut out, model.head_names().len() as u32);
    for name in model.head_names() {
        put_str(&mut out, name);
    }
    let store = model.store();
    put_u32(&mut out, store.len() as u32);
    for id in store.ids() {
        let m = store.value(id);
        put_str(&mut out, store.name(id));
        let (rows, cols) = m.shape();
        put_u32(&mut out, rows as u32);
        put_u32(&mut out, cols as u32);
        for &w in m.as_slice() {
            out.extend_from_slice(&w.to_le_bytes());
        }
    }
    out
}

/// Rebuilds a [`PredictionModel`] from an [`encode_model`] payload.
///
/// The architecture is re-created with [`PredictionModel::new`] (which
/// registers parameters in a deterministic order) and every parameter is
/// overwritten with the stored bits after a name/shape cross-check, so the
/// result is bit-for-bit the model that was encoded.
///
/// # Errors
///
/// Returns [`ArtifactError::Truncated`] on underrun and
/// [`ArtifactError::Corrupt`] when the declared architecture cannot fit in
/// the payload or the stored parameter list does not match it.
pub fn decode_model(payload: &[u8]) -> Result<PredictionModel, ArtifactError> {
    let mut r = Reader::new(payload);
    let kind = kind_from_tag(r.u8()?)?;
    let config = ModelConfig {
        hidden: r.u32()? as usize,
        gnn_layers: r.u32()? as usize,
        mlp_layers: r.u32()? as usize,
        seed: r.u64()?,
    };
    let n_heads = r.u32()? as usize;
    if n_heads == 0 || n_heads > 64 {
        return Err(ArtifactError::Corrupt(format!("implausible head count {n_heads}")));
    }
    let mut head_names = Vec::with_capacity(n_heads);
    for _ in 0..n_heads {
        head_names.push(r.str()?);
    }
    // The architecture is built from the declaration, so check it against
    // the bytes left before allocating: a checksummed file can still
    // declare a model too large for memory.
    if config.gnn_layers == 0 && !matches!(kind, ModelKind::MlpPragma | ModelKind::MlpContext) {
        return Err(ArtifactError::Corrupt("GNN model declares zero layers".into()));
    }
    let weights = PredictionModel::weight_count(kind, &config, n_heads);
    if weights.saturating_mul(4) > r.rest() as u64 {
        return Err(ArtifactError::Corrupt(format!(
            "declared architecture has {weights} weight(s) but only {} byte(s) remain",
            r.rest()
        )));
    }
    let head_refs: Vec<&str> = head_names.iter().map(String::as_str).collect();
    let mut model = PredictionModel::new(kind, config, &head_refs);

    let n_params = r.u32()? as usize;
    if n_params != model.store().len() {
        return Err(ArtifactError::Corrupt(format!(
            "artifact stores {} parameter(s) but the architecture has {}",
            n_params,
            model.store().len()
        )));
    }
    let ids: Vec<_> = model.store().ids().collect();
    for id in ids {
        let name = r.str()?;
        let rows = r.u32()? as usize;
        let cols = r.u32()? as usize;
        {
            let store = model.store();
            if store.name(id) != name {
                return Err(ArtifactError::Corrupt(format!(
                    "parameter order mismatch: expected `{}`, found `{name}`",
                    store.name(id)
                )));
            }
            if store.value(id).shape() != (rows, cols) {
                return Err(ArtifactError::Corrupt(format!(
                    "parameter `{name}` has shape {:?} but the artifact stores ({rows}, {cols})",
                    store.value(id).shape()
                )));
            }
        }
        let raw = r.take(rows * cols * 4)?;
        let data: Vec<f32> = raw
            .chunks_exact(4)
            .map(|b| f32::from_le_bytes([b[0], b[1], b[2], b[3]]))
            .collect();
        *model.store_mut().value_mut(id) = Matrix::from_vec(rows, cols, data);
    }
    if r.rest() != 0 {
        return Err(ArtifactError::Corrupt(format!(
            "{} trailing byte(s) after the last parameter",
            r.rest()
        )));
    }
    Ok(model)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::input::GraphInput;
    use design_space::DesignSpace;
    use hls_ir::kernels;
    use proggraph::build_graph_bidirectional;

    fn sample_model(kind: ModelKind) -> PredictionModel {
        PredictionModel::new(kind, ModelConfig::small(), &["latency", "dsp"])
    }

    #[test]
    fn model_round_trip_is_bit_identical() {
        let k = kernels::gemm_ncubed();
        let space = DesignSpace::from_kernel(&k);
        let graph = build_graph_bidirectional(&k, &space);
        let p = space.default_point();
        let input = GraphInput::from_graph(&graph, Some(&p));

        for kind in ModelKind::ALL {
            let model = sample_model(kind);
            let back = decode_model(&encode_model(&model)).expect("decodes");
            assert_eq!(back.kind(), model.kind());
            assert_eq!(back.head_names(), model.head_names());
            let a = model.forward_single(&input, &p).values();
            let b = back.forward_single(&input, &p).values();
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.to_bits(), y.to_bits(), "{kind:?}");
            }
        }
    }

    #[test]
    fn envelope_round_trips() {
        let mut art = Artifact::new("{\"schema\":1}");
        art.push_section("weights", vec![1, 2, 3]);
        art.push_section("extra", vec![]);
        let back = Artifact::from_bytes(&art.to_bytes()).expect("parses");
        assert_eq!(back, art);
        assert_eq!(back.section("weights"), Some(&[1u8, 2, 3][..]));
        assert_eq!(back.section("missing"), None);
    }

    #[test]
    fn bad_magic_is_typed() {
        let mut bytes = Artifact::new("{}").to_bytes();
        bytes[0] = b'X';
        assert_eq!(Artifact::from_bytes(&bytes), Err(ArtifactError::BadMagic));
    }

    #[test]
    fn unsupported_version_is_typed() {
        let mut bytes = Artifact::new("{}").to_bytes();
        bytes[4] = 99; // version field, checked before the checksum
        assert_eq!(
            Artifact::from_bytes(&bytes),
            Err(ArtifactError::UnsupportedVersion { found: 99 })
        );
    }

    #[test]
    fn plain_artifacts_stay_version_1_on_the_wire() {
        // Every build since the format's first reads version 1, so the
        // files this build writes stay readable by all of them.
        let bytes = Artifact::new("{}").to_bytes();
        assert_eq!(u32::from_le_bytes(bytes[4..8].try_into().unwrap()), 1);
    }

    #[test]
    fn flipped_bit_fails_the_checksum() {
        let mut art = Artifact::new("{\"schema\":1}");
        art.push_section("weights", vec![7; 100]);
        let mut bytes = art.to_bytes();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        match Artifact::from_bytes(&bytes) {
            Err(ArtifactError::ChecksumMismatch { .. }) => {}
            other => panic!("expected checksum mismatch, got {other:?}"),
        }
    }

    #[test]
    fn truncation_is_typed() {
        let mut art = Artifact::new("{\"schema\":1}");
        art.push_section("weights", vec![7; 100]);
        let bytes = art.to_bytes();
        for cut in [0, 3, 7, 10, bytes.len() - 1] {
            match Artifact::from_bytes(&bytes[..cut]) {
                Err(ArtifactError::Truncated { .. } | ArtifactError::ChecksumMismatch { .. }) => {}
                other => panic!("cut at {cut}: expected truncation, got {other:?}"),
            }
        }
    }

    #[test]
    fn model_payload_shape_mismatch_is_corrupt() {
        let model = sample_model(ModelKind::MlpPragma);
        let mut payload = encode_model(&model);
        // Grow the declared hidden width: the rebuilt architecture no longer
        // matches the stored parameter shapes.
        payload[1..5].copy_from_slice(&64u32.to_le_bytes());
        match decode_model(&payload) {
            Err(ArtifactError::Corrupt(_) | ArtifactError::Truncated { .. }) => {}
            other => panic!("expected corrupt payload, got {other:?}"),
        }
    }

    #[test]
    fn unknown_kind_tag_is_corrupt() {
        let model = sample_model(ModelKind::Gcn);
        let mut payload = encode_model(&model);
        payload[0] = 200;
        assert!(matches!(decode_model(&payload), Err(ArtifactError::Corrupt(_))));
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        // Reference values of the canonical FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }
}
