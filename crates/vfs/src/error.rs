//! VFS error codes.

use std::fmt;

/// Errors returned by VFS operations, mirroring the relevant errnos.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VfsError {
    /// No such file or directory (`ENOENT`).
    NotFound,
    /// File exists (`EEXIST`).
    Exists,
    /// Not a directory (`ENOTDIR`).
    NotADirectory,
    /// Is a directory (`EISDIR`).
    IsADirectory,
    /// Directory not empty (`ENOTEMPTY`).
    NotEmpty,
    /// Device or resource busy (`EBUSY`), e.g. remounting with files open.
    Busy,
    /// Invalid argument (`EINVAL`).
    InvalidArgument,
    /// Read-only file system (`EROFS`).
    ReadOnly,
    /// Stale handle: the object was concurrently removed (`ESTALE`).
    Stale,
    /// Out of memory (`ENOMEM`), e.g. a dentry allocation failed.
    OutOfMemory,
}

impl fmt::Display for VfsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Self::NotFound => "no such file or directory",
            Self::Exists => "file exists",
            Self::NotADirectory => "not a directory",
            Self::IsADirectory => "is a directory",
            Self::NotEmpty => "directory not empty",
            Self::Busy => "device or resource busy",
            Self::InvalidArgument => "invalid argument",
            Self::ReadOnly => "read-only file system",
            Self::Stale => "stale file handle",
            Self::OutOfMemory => "out of memory",
        };
        f.write_str(s)
    }
}

impl std::error::Error for VfsError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_distinct() {
        let all = [
            VfsError::NotFound,
            VfsError::Exists,
            VfsError::NotADirectory,
            VfsError::IsADirectory,
            VfsError::NotEmpty,
            VfsError::Busy,
            VfsError::InvalidArgument,
            VfsError::ReadOnly,
            VfsError::Stale,
            VfsError::OutOfMemory,
        ];
        let mut seen = std::collections::BTreeSet::new();
        for e in all {
            assert!(seen.insert(e.to_string()), "duplicate message for {e:?}");
        }
    }
}
