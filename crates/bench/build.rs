//! Emits `IOBTS_SOURCE_HASH`, a digest of every source file that can change
//! what a registry entry computes: the root package, every workspace crate
//! and every vendored shim. `--resume` stores it in each entry's manifest
//! (`bench::manifest`), so results computed by other code are never reused.

use std::path::{Path, PathBuf};

fn main() {
    let manifest_dir = PathBuf::from(std::env::var_os("CARGO_MANIFEST_DIR").expect("set by cargo"));
    let root = manifest_dir.join("../..");
    let mut dirs = vec![root.join("src")];
    for group in ["crates", "shims"] {
        let members = std::fs::read_dir(root.join(group)).expect("workspace member directory");
        dirs.extend(members.flatten().map(|e| e.path().join("src")));
    }
    let mut files = Vec::new();
    for dir in dirs.iter().filter(|d| d.is_dir()) {
        println!("cargo:rerun-if-changed={}", dir.display());
        collect_rs(dir, &mut files);
    }
    files.sort();
    // FNV-1a over each file's path (relative to the root) and contents.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in &files {
        let rel = f
            .strip_prefix(&root)
            .unwrap_or(f)
            .to_string_lossy()
            .into_owned();
        let body = std::fs::read(f).expect("readable source file");
        for b in rel.bytes().chain([0]).chain(body) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    println!("cargo:rustc-env=IOBTS_SOURCE_HASH={h:016x}");
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    for e in std::fs::read_dir(dir)
        .expect("readable source directory")
        .flatten()
    {
        let p = e.path();
        if p.is_dir() {
            collect_rs(&p, out);
        } else if p.extension().is_some_and(|x| x == "rs") {
            out.push(p);
        }
    }
}
