//! Integration tests for the PStorM-rs workspace live under `tests/tests/`.
//! What more than one golden suite digests with, and the synthetic cases
//! `mrsim`'s own tests share with `golden_dataflow.rs`, live here.

use std::path::Path;

pub mod synthetic;

/// FNV-1a offset basis: the start value of every digest below.
pub const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// Fold one length-prefixed byte string into an FNV-1a digest.
pub fn fnv(h: &mut u64, bytes: &[u8]) {
    for b in (bytes.len() as u64).to_le_bytes().iter().chain(bytes) {
        *h ^= u64::from(*b);
        *h = h.wrapping_mul(0x100_0000_01b3);
    }
}

/// Digest of every file under `dir`: relative path and bytes, path order.
pub fn disk_digest(dir: &Path) -> u64 {
    fn walk(root: &Path, dir: &Path, out: &mut Vec<(String, Vec<u8>)>) {
        for entry in std::fs::read_dir(dir).expect("read dir").flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(root, &path, out);
            } else {
                let rel = path.strip_prefix(root).expect("under root");
                out.push((
                    rel.to_string_lossy().into_owned(),
                    std::fs::read(&path).expect("read file"),
                ));
            }
        }
    }
    let mut files = Vec::new();
    walk(dir, dir, &mut files);
    files.sort();
    let mut h = FNV_BASIS;
    for (name, bytes) in &files {
        fnv(&mut h, name.as_bytes());
        fnv(&mut h, bytes);
    }
    h
}
