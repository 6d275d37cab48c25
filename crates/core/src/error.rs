//! Error types for the Mesh allocator.

use std::fmt;
use std::io;

/// Errors surfaced by fallible Mesh operations (heap construction and
/// explicit management calls; the malloc path itself reports failure by
/// returning a null pointer, as malloc does).
#[derive(Debug)]
pub enum MeshError {
    /// Creating, sizing or punching the arena's memory file failed at heap
    /// construction: `EFBIG` where the soft `RLIMIT_FSIZE` leaves no room
    /// for the largest span.
    ArenaCreation(io::Error),
    /// Mapping, remapping or protecting arena memory failed.
    Map(io::Error),
    /// The configured hard heap cap (`max_heap_bytes`) has no room for the
    /// request: the arena's file has no room for it. This — and only
    /// this — is how the arena reports OOM; the
    /// malloc path converts it to a null return.
    ArenaExhausted {
        /// Pages requested by the failing operation.
        requested_pages: usize,
        /// Total pages under the configured hard cap.
        capacity_pages: usize,
    },
    /// A configuration value is out of its valid range.
    InvalidConfig(String),
}

impl fmt::Display for MeshError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MeshError::ArenaCreation(e) => write!(f, "arena backing file creation failed: {e}"),
            MeshError::Map(e) => write!(f, "virtual memory operation failed: {e}"),
            MeshError::ArenaExhausted {
                requested_pages,
                capacity_pages,
            } => write!(
                f,
                "heap cap exhausted: requested {requested_pages} pages, hard cap {capacity_pages}"
            ),
            MeshError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
        }
    }
}

impl std::error::Error for MeshError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            MeshError::ArenaCreation(e) | MeshError::Map(e) => Some(e),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = MeshError::ArenaExhausted {
            requested_pages: 10,
            capacity_pages: 4,
        };
        let s = e.to_string();
        assert!(s.contains("10") && s.contains('4'));
    }

    #[test]
    fn error_trait_source() {
        use std::error::Error;
        let e = MeshError::Map(io::Error::other("boom"));
        assert!(e.source().is_some());
        let e = MeshError::InvalidConfig("x".into());
        assert!(e.source().is_none());
    }

    #[test]
    fn errors_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<MeshError>();
    }
}
