//! Atomic artifact persistence.
//!
//! Every result file the campaign (and the bench binaries) emit goes
//! through [`write_atomic`]: write to a sibling temp file, fsync, rename
//! over the destination, fsync the directory. A crash mid-write leaves
//! either the old file or the new one — never a torn half of each.
//! Errors carry the path they failed on, so "No space left on device"
//! names the artifact it cost.

use serde::Serialize;
use std::fmt;
use std::fs::{self, File};
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};

/// A persistence failure, annotated with the path being written.
#[derive(Debug)]
pub struct PersistError {
    /// The artifact (or its temp sibling) that failed.
    pub path: PathBuf,
    /// The underlying I/O error.
    pub source: io::Error,
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cannot write {}: {}", self.path.display(), self.source)
    }
}

impl std::error::Error for PersistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.source)
    }
}

fn err_at(path: &Path) -> impl FnOnce(io::Error) -> PersistError + '_ {
    move |source| PersistError {
        path: path.to_path_buf(),
        source,
    }
}

/// Atomically and durably replace `path` with `bytes`: temp file in the
/// same directory (so the rename cannot cross filesystems), fsync,
/// rename, fsync the directory. The parent directory is created if
/// missing.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> Result<(), PersistError> {
    let dir = path
        .parent()
        .filter(|d| !d.as_os_str().is_empty())
        .unwrap_or(Path::new("."));
    fs::create_dir_all(dir).map_err(err_at(dir))?;
    // Unique per process: concurrent writers of the same artifact race on
    // the rename (last one wins, both files whole), not on the temp file.
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(format!(".tmp.{}", std::process::id()));
    let tmp = path.with_file_name(name);
    let result = (|| {
        let mut f = File::create(&tmp).map_err(err_at(&tmp))?;
        f.write_all(bytes).map_err(err_at(&tmp))?;
        // Flush file contents to disk before the rename publishes them:
        // rename-before-data can expose an empty file after a power cut.
        f.sync_all().map_err(err_at(&tmp))?;
        fs::rename(&tmp, path).map_err(err_at(path))?;
        // The new name lives in the directory, and fsyncing the file does
        // not make it durable (fsync(2)): without this a power cut can
        // lose the file whose data is already on disk.
        File::open(dir)
            .and_then(|d| d.sync_all())
            .map_err(err_at(dir))
    })();
    if result.is_err() {
        let _ = fs::remove_file(&tmp);
    }
    result
}

/// Serialize `value` as pretty JSON and write it atomically to `path`.
pub fn save_json_atomic<T: Serialize>(path: &Path, value: &T) -> Result<(), PersistError> {
    let json = serde_json::to_string_pretty(value).map_err(|e| PersistError {
        path: path.to_path_buf(),
        source: io::Error::new(io::ErrorKind::InvalidData, e.to_string()),
    })?;
    write_atomic(path, json.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("greenenvy-persist-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn write_creates_missing_directories() {
        let dir = scratch("mkdir");
        let path = dir.join("deep/nested/out.json");
        write_atomic(&path, b"{}").expect("write succeeds");
        assert_eq!(fs::read_to_string(&path).unwrap(), "{}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn write_replaces_whole_file_and_leaves_no_temp() {
        let dir = scratch("replace");
        let path = dir.join("out.json");
        write_atomic(&path, b"first").unwrap();
        write_atomic(&path, b"second, longer contents").unwrap();
        assert_eq!(
            fs::read_to_string(&path).unwrap(),
            "second, longer contents"
        );
        let leftovers: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(
            leftovers.len(),
            1,
            "temp files must not linger: {leftovers:?}"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn errors_name_the_path() {
        // A directory cannot be overwritten by a file: the rename fails
        // and the error must carry the destination path.
        let dir = scratch("error");
        let path = dir.join("occupied");
        fs::create_dir_all(&path).unwrap();
        let err = write_atomic(&path, b"x").unwrap_err();
        assert!(err.to_string().contains("occupied"), "{err}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn save_json_roundtrips() {
        let dir = scratch("json");
        let path = dir.join("v.json");
        save_json_atomic(&path, &serde_json::json!({"x": 1})).unwrap();
        let body = fs::read_to_string(&path).unwrap();
        assert!(body.contains("\"x\": 1"));
        let _ = fs::remove_dir_all(&dir);
    }
}
