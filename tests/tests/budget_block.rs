//! Allocation budget and totality of one segment block decode
//! (DESIGN.md §32).
//!
//! A reopened store reads its profiles back block by block through the
//! block cache, and at a small cache every block it reads is decoded
//! again. So what one [`SegmentReader::read_block`] allocates is paid per
//! block of every reopen, and freed again per eviction. The block here is
//! the first block of `golden_formats.rs`'s pinned segment: 32 rows, one
//! family, one column and one version each.
//!
//! The ceiling was committed at the count of the nested decode (one
//! `BTreeMap` of rows, a `String` per family, a map per family and a
//! `Vec` per column): 135 allocations. The flat decode (DESIGN.md §32)
//! makes four whatever the block holds — the framed read, the frozen
//! body, the row index and the cell table — and the ceiling was re-pinned
//! to 10.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use bytes::{BufMut, Bytes};
use cfstore::frame::{self, put_bytes, put_str};
use cfstore::segment::write_segment;
use cfstore::{CellVersion, KeyRange, RowData, SegmentError, SegmentReader};
use pstorm_tests::alloc::{self, CountingAlloc};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Ceiling on the allocations of one `read_block` of the 32-row block.
const READ_BLOCK_ALLOCS: u64 = 10;

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "pstorm-budget-block-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// `golden_formats.rs`'s segment rows: 33 rows, so the first block holds
/// 32 of them and the second one.
fn segment_rows() -> BTreeMap<Bytes, RowData> {
    (0..33u64)
        .map(|i| {
            let cols = vec![(
                Bytes::from("c"),
                vec![CellVersion::new(i + 1, Bytes::from(format!("v{i:02}")))],
            )];
            let data: RowData = vec![("f".to_string(), cols)];
            (Bytes::from(format!("r{i:02}")), data)
        })
        .collect()
}

fn golden_segment(dir: &Path) -> PathBuf {
    let path = dir.join("seg-000001-r000007.seg");
    let range = KeyRange {
        start: Bytes::from("r"),
        end: Some(Bytes::from("s")),
    };
    write_segment(&path, "Jobs", 7, &range, &segment_rows()).unwrap();
    path
}

#[test]
fn one_block_decode_stays_inside_its_allocation_budget() {
    let dir = tmp_dir("count");
    let reader = SegmentReader::open(&golden_segment(&dir)).unwrap();
    // Warm the reader's file and the harness's lazies with one read.
    drop(reader.read_block(0).unwrap());
    let before = alloc::thread_allocations();
    let block = reader.read_block(0).unwrap();
    let allocs = alloc::thread_allocations() - before;
    assert_eq!(block.len(), 32);
    drop(block);
    println!("read_block of a 32-row block: {allocs} allocations");
    assert!(
        allocs <= READ_BLOCK_ALLOCS,
        "one read_block made {allocs} allocations, ceiling {READ_BLOCK_ALLOCS}"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A segment of one block whose body is `body`, framed with a valid CRC
/// and indexed by a valid trailer: whatever is wrong with it, only the
/// block decoder can see. Magics are copied from a segment the writer
/// made.
fn one_block_segment(written: &[u8], body: &[u8]) -> Vec<u8> {
    let mut out = written[..4].to_vec();
    frame::encode(&mut out, |b| b.extend_from_slice(body));
    let block_len = out.len() as u32 - 4;
    let trailer_offset = out.len() as u64;
    frame::encode(&mut out, |t| {
        put_str(t, "Jobs");
        t.put_u64(7);
        put_bytes(t, b"r");
        t.put_u8(0);
        t.put_u64(32);
        t.put_u32(1);
        put_bytes(t, b"r00");
        t.put_u64(4);
        t.put_u32(block_len);
    });
    out.put_u64(trailer_offset);
    out.extend_from_slice(&written[written.len() - 4..]);
    out
}

/// Every truncation of the first block's body and every single-byte flip
/// of it, each re-framed with a valid CRC, reaches the decoder. Each one
/// decodes or is refused as a typed corruption — never a panic — and no
/// allocation it makes is larger than `golden_formats.rs`'s bound for a
/// reader of that many bytes.
#[test]
fn every_damaged_block_body_is_decoded_or_refused_typed() {
    let dir = tmp_dir("sweep");
    let path = golden_segment(&dir);
    let written = std::fs::read(&path).unwrap();
    let reader = SegmentReader::open(&path).unwrap();
    let (_, offset, len) = reader.meta().blocks[0].clone();
    let framed = &written[offset as usize..(offset + u64::from(len)) as usize];
    let body = frame::verify_exact(framed).unwrap();

    let truncations = (0..body.len()).map(|n| (true, body[..n].to_vec()));
    let flips = (0..body.len()).map(|at| {
        let mut damaged = body.to_vec();
        damaged[at] ^= 0xff;
        (false, damaged)
    });
    let (mut refused, mut cases) = (0, 0);
    let damaged_path = dir.join("damaged.seg");
    for (truncated, damaged) in truncations.chain(flips) {
        let image = one_block_segment(&written, &damaged);
        std::fs::write(&damaged_path, &image).unwrap();
        let reader = SegmentReader::open(&damaged_path).expect("the trailer is intact");
        alloc::reset_largest_request();
        let read = reader.read_block(0);
        let largest = alloc::largest_request();
        let bound = 64 * image.len() + 4096;
        assert!(
            largest <= bound,
            "a block of {} bytes made one allocation of {largest} bytes (bound {bound})",
            image.len()
        );
        match read {
            Ok(_) => assert!(!truncated, "a body cut to {} bytes decoded", damaged.len()),
            Err(SegmentError::Corrupt { .. }) => refused += 1,
            Err(e) => panic!("not the typed corruption error: {e}"),
        }
        cases += 1;
    }
    assert_eq!(cases, 2 * body.len());
    assert!(refused > body.len(), "no flip was refused");
    std::fs::remove_dir_all(&dir).unwrap();
}
