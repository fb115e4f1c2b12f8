//! The error the model-artifact functions return: [`encode_predictor`],
//! [`decode_predictor`] and `Predictor::{save_artifact, load_artifact}`.
//!
//! Every other subsystem returns its own precise error type
//! ([`EvalError`](crate::harness::EvalError), [`DbError`](crate::db::DbError),
//! [`RoundsError`](crate::rounds::RoundsError), `ServeError`).
//!
//! [`encode_predictor`]: crate::artifact::encode_predictor
//! [`decode_predictor`]: crate::artifact::decode_predictor

use gdse_gnn::ArtifactError;
use std::fmt;

/// Why a model artifact could not be written or read.
#[derive(Debug)]
pub enum Error {
    /// A model artifact failed to encode, decode, or validate.
    Artifact(ArtifactError),
    /// The artifact file could not be read or written.
    Io(std::io::Error),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Artifact(e) => write!(f, "model artifact error: {e}"),
            Error::Io(e) => write!(f, "I/O error: {e}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Artifact(e) => Some(e),
            Error::Io(e) => Some(e),
        }
    }
}

impl From<ArtifactError> for Error {
    fn from(e: ArtifactError) -> Self {
        Error::Artifact(e)
    }
}

impl From<std::io::Error> for Error {
    fn from(e: std::io::Error) -> Self {
        Error::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_subsystem_error_converts() {
        assert!(matches!(Error::from(ArtifactError::BadMagic), Error::Artifact(_)));
        assert!(matches!(Error::from(std::io::Error::other("disk on fire")), Error::Io(_)));
    }

    #[test]
    fn display_names_the_subsystem() {
        assert!(Error::from(ArtifactError::BadMagic).to_string().contains("artifact"));
        assert!(Error::from(std::io::Error::other("x")).to_string().contains("I/O"));
    }

    #[test]
    fn source_chains_to_the_subsystem_error() {
        use std::error::Error as _;
        assert!(Error::from(ArtifactError::BadMagic).source().is_some());
        assert!(Error::from(std::io::Error::other("x")).source().is_some());
    }
}
