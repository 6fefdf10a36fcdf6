//! Crash-safe file output: the one place a file is renamed into place.

use std::fs::{self, File};
use std::io::{self, Write};
use std::path::Path;

/// Writes `bytes` to `path` so that a crash leaves either the old file or
/// all of `bytes`, never a prefix. The bytes go to the temp sibling
/// `.{file_name}.tmp`, which is synced to disk and renamed over `path`; the
/// parent directory is then synced so the rename itself is durable. On any
/// error the temp file is removed and the error returned. Every figure CSV,
/// `--resume` manifest and JSON trace is written through here.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let name = path.file_name().ok_or_else(|| {
        io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("{} names no file", path.display()),
        )
    })?;
    let tmp = path.with_file_name(format!(".{}.tmp", name.to_string_lossy()));
    let staged = File::create(&tmp)
        .and_then(|mut f| {
            f.write_all(bytes)?;
            f.sync_all()
        })
        .and_then(|()| fs::rename(&tmp, path));
    if let Err(e) = staged {
        let _ = fs::remove_file(&tmp);
        return Err(e);
    }
    let dir = match path.parent() {
        Some(d) if !d.as_os_str().is_empty() => d,
        _ => Path::new("."),
    };
    File::open(dir)?.sync_all()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    /// A fresh, empty directory private to one test.
    fn scratch(test: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("iobts-write-atomic-{}-{test}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn replaces_an_existing_file_exactly() {
        let dir = scratch("replace");
        let path = dir.join("out.csv");
        fs::write(&path, "a much longer old body\nwith two lines\n").unwrap();
        write_atomic(&path, b"a,b\n1,2\n").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"a,b\n1,2\n");
        assert!(!dir.join(".out.csv.tmp").exists());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_directory_destination_fails_and_leaves_no_temp_file() {
        let dir = scratch("dir");
        let target = dir.join("taken");
        fs::create_dir(&target).unwrap();
        fs::write(target.join("inner"), "kept").unwrap();
        assert!(write_atomic(&target, b"bytes").is_err());
        assert!(!dir.join(".taken.tmp").exists());
        assert!(target.is_dir());
        assert_eq!(fs::read_to_string(target.join("inner")).unwrap(), "kept");
        let entries: Vec<_> = fs::read_dir(&dir).unwrap().collect();
        assert_eq!(entries.len(), 1, "only the directory itself remains");
        fs::remove_dir_all(&dir).unwrap();
    }
}
