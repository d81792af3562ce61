//! Cell-value encoding.
//!
//! HBase cells are raw bytes; this module provides the small binary codec
//! PStorM uses to serialize feature values and profiles into cells, with
//! order-preserving encodings where sort order matters (f64 keys).

use bytes::{Buf, BufMut, Bytes, BytesMut};

/// Encoding/decoding errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// Ran out of bytes while decoding.
    Truncated,
    /// A tag byte did not match any known variant.
    BadTag(u8),
    /// A string was not valid UTF-8.
    BadUtf8,
    /// A record decoded completely but this many bytes were left over.
    Trailing(usize),
    /// A tenant id failed [`validate_tenant`] (empty, too long, or
    /// containing a character outside `[A-Za-z0-9_.-]`).
    BadTenant(String),
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "truncated value"),
            CodecError::BadTag(t) => write!(f, "unknown tag byte {t:#x}"),
            CodecError::BadUtf8 => write!(f, "invalid UTF-8 in encoded string"),
            CodecError::Trailing(n) => write!(f, "{n} trailing bytes after the record"),
            CodecError::BadTenant(t) => write!(
                f,
                "invalid tenant id {t:?} (want 1..={MAX_TENANT_LEN} chars of [A-Za-z0-9_.-])"
            ),
        }
    }
}
impl std::error::Error for CodecError {}

/// The implicit tenant that every legacy single-tenant path maps to. Its
/// namespace prefix is the **empty string**, so default-tenant row keys
/// are byte-for-byte the original single-tenant layout — golden traces
/// and on-disk stores written before multi-tenancy keep working unchanged.
pub const DEFAULT_TENANT: &str = "default";

/// Maximum tenant id length accepted by [`validate_tenant`].
pub const MAX_TENANT_LEN: usize = 64;

/// Check that a tenant id is well-formed: non-empty, at most
/// [`MAX_TENANT_LEN`] bytes, drawn from `[A-Za-z0-9_.-]`. The character
/// set deliberately excludes `/` — the row-key namespace separator — so a
/// tenant id can never smuggle extra path segments into a key.
pub fn validate_tenant(tenant: &str) -> Result<(), CodecError> {
    let ok = !tenant.is_empty()
        && tenant.len() <= MAX_TENANT_LEN
        && tenant
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'));
    if ok {
        Ok(())
    } else {
        Err(CodecError::BadTenant(tenant.to_string()))
    }
}

/// The row-key namespace prefix of a tenant.
///
/// [`DEFAULT_TENANT`] maps to the empty prefix (the legacy key layout);
/// any other valid tenant `x` maps to `t/x/`. The `t/` envelope cannot
/// collide with the feature-type prefixes (`Static/`, `Dynamic/`,
/// `CostFactor/`, `Profile/`, `Meta/`, `Plan/`), and the trailing slash
/// guarantees prefix-freedom between tenants (`t/a/` never prefixes
/// `t/ab/...`).
///
/// # Examples
///
/// ```
/// use cfstore::encoding::{split_tenant, tenant_prefix, DEFAULT_TENANT};
///
/// assert_eq!(tenant_prefix(DEFAULT_TENANT).unwrap(), "");
/// assert_eq!(tenant_prefix("acme").unwrap(), "t/acme/");
/// assert!(tenant_prefix("no/slashes").is_err());
/// assert!(tenant_prefix("").is_err());
///
/// // The decode direction: every key splits into (tenant, legacy key).
/// assert_eq!(split_tenant(b"t/acme/Profile/wc"), ("acme", &b"Profile/wc"[..]));
/// assert_eq!(split_tenant(b"Profile/wc"), (DEFAULT_TENANT, &b"Profile/wc"[..]));
/// ```
pub fn tenant_prefix(tenant: &str) -> Result<String, CodecError> {
    validate_tenant(tenant)?;
    if tenant == DEFAULT_TENANT {
        Ok(String::new())
    } else {
        Ok(format!("t/{tenant}/"))
    }
}

/// Split a row key into `(tenant, namespace-relative key)` — the inverse
/// of prepending [`tenant_prefix`]. Keys without a well-formed `t/<id>/`
/// envelope (including every legacy key) belong to [`DEFAULT_TENANT`] and
/// are returned whole.
pub fn split_tenant(row: &[u8]) -> (&str, &[u8]) {
    if let Some(rest) = row.strip_prefix(b"t/") {
        if let Some(slash) = rest.iter().position(|b| *b == b'/') {
            if let Ok(tenant) = std::str::from_utf8(&rest[..slash]) {
                if validate_tenant(tenant).is_ok() {
                    return (tenant, &rest[slash + 1..]);
                }
            }
        }
    }
    (DEFAULT_TENANT, row)
}

/// CRC-32 (IEEE 802.3 polynomial, reflected) lookup table, built at
/// compile time so the integrity checks need no runtime initialisation.
const CRC32_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 == 1 {
                0xedb8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
};

/// CRC-32 (IEEE) checksum over a byte slice — the per-cell integrity
/// check stamped on every stored [`crate::kv::CellVersion`].
pub fn crc32(data: &[u8]) -> u32 {
    let mut c = 0xffff_ffffu32;
    for &b in data {
        c = CRC32_TABLE[((c ^ u32::from(b)) & 0xff) as usize] ^ (c >> 8);
    }
    c ^ 0xffff_ffff
}

/// Encode an `f64` as 8 big-endian bytes whose bytewise order matches the
/// numeric order (IEEE sign-flip trick). Used for normalization bounds and
/// numeric feature cells.
pub fn encode_f64(v: f64) -> Bytes {
    let bits = v.to_bits();
    let flipped = if bits >> 63 == 0 {
        bits ^ (1 << 63)
    } else {
        !bits
    };
    let mut b = BytesMut::with_capacity(8);
    b.put_u64(flipped);
    b.freeze()
}

/// Decode an order-preserving `f64`.
pub fn decode_f64(bytes: &[u8]) -> Result<f64, CodecError> {
    if bytes.len() < 8 {
        return Err(CodecError::Truncated);
    }
    let mut buf = bytes;
    let flipped = buf.get_u64();
    let bits = if flipped >> 63 == 1 {
        flipped ^ (1 << 63)
    } else {
        !flipped
    };
    Ok(f64::from_bits(bits))
}

/// Encode a UTF-8 string with a u32 length prefix.
pub fn encode_str(s: &str) -> Bytes {
    let mut b = BytesMut::with_capacity(4 + s.len());
    b.put_u32(s.len() as u32);
    b.put_slice(s.as_bytes());
    b.freeze()
}

/// Decode a length-prefixed string, returning the remainder.
pub fn decode_str(bytes: &[u8]) -> Result<(String, &[u8]), CodecError> {
    if bytes.len() < 4 {
        return Err(CodecError::Truncated);
    }
    let mut buf = bytes;
    let len = buf.get_u32() as usize;
    if buf.len() < len {
        return Err(CodecError::Truncated);
    }
    let s = std::str::from_utf8(&buf[..len]).map_err(|_| CodecError::BadUtf8)?;
    Ok((s.to_string(), &buf[len..]))
}

/// Encode a vector of f64s with a u32 count prefix.
pub fn encode_f64_vec(v: &[f64]) -> Bytes {
    let mut b = BytesMut::with_capacity(4 + v.len() * 8);
    b.put_u32(v.len() as u32);
    for x in v {
        b.put_f64(*x);
    }
    b.freeze()
}

/// Decode a vector of f64s.
pub fn decode_f64_vec(bytes: &[u8]) -> Result<Vec<f64>, CodecError> {
    if bytes.len() < 4 {
        return Err(CodecError::Truncated);
    }
    let mut buf = bytes;
    let n = buf.get_u32() as usize;
    if buf.len() < n * 8 {
        return Err(CodecError::Truncated);
    }
    Ok((0..n).map(|_| buf.get_f64()).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f64_roundtrip() {
        for v in [-1e30, -1.5, -0.0, 0.0, 1e-300, 2.5, 7.1e18] {
            let enc = encode_f64(v);
            assert_eq!(decode_f64(&enc).unwrap(), v);
        }
    }

    #[test]
    fn f64_encoding_is_order_preserving() {
        let vals = [-100.0, -1.0, -0.5, 0.0, 0.25, 1.0, 1e9];
        let encs: Vec<Bytes> = vals.iter().map(|v| encode_f64(*v)).collect();
        for w in encs.windows(2) {
            assert!(w[0] < w[1]);
        }
    }

    #[test]
    fn str_roundtrip_with_remainder() {
        let mut b = BytesMut::new();
        b.extend_from_slice(&encode_str("hello"));
        b.extend_from_slice(b"REST");
        let (s, rest) = decode_str(&b).unwrap();
        assert_eq!(s, "hello");
        assert_eq!(rest, b"REST");
    }

    #[test]
    fn f64_vec_roundtrip() {
        let v = vec![1.0, 2.5, -3.75];
        assert_eq!(decode_f64_vec(&encode_f64_vec(&v)).unwrap(), v);
        assert_eq!(
            decode_f64_vec(&encode_f64_vec(&[])).unwrap(),
            Vec::<f64>::new()
        );
    }

    #[test]
    fn crc32_matches_reference_vectors() {
        // The canonical CRC-32/IEEE check value.
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b""), 0);
        // Single-bit flips change the checksum.
        assert_ne!(crc32(b"hello"), crc32(b"hellp"));
    }

    #[test]
    fn tenant_prefix_roundtrips_through_split() {
        for tenant in ["acme", "zen-corp", "a", "T.9_x"] {
            let prefix = tenant_prefix(tenant).unwrap();
            let key = format!("{prefix}Profile/wc");
            assert_eq!(split_tenant(key.as_bytes()), (tenant, &b"Profile/wc"[..]));
        }
        // The default tenant is the empty prefix: legacy layout.
        assert_eq!(tenant_prefix(DEFAULT_TENANT).unwrap(), "");
        assert_eq!(
            split_tenant(b"Dynamic/wc"),
            (DEFAULT_TENANT, &b"Dynamic/wc"[..])
        );
    }

    #[test]
    fn tenant_prefixes_are_prefix_free() {
        let a = tenant_prefix("a").unwrap();
        let ab = tenant_prefix("ab").unwrap();
        assert!(!ab.starts_with(&a), "{a:?} must not prefix {ab:?}");
    }

    #[test]
    fn bad_tenant_ids_are_rejected() {
        for bad in ["", "a/b", "a b", "t/x", "ü", &"x".repeat(65)] {
            assert!(
                matches!(tenant_prefix(bad), Err(CodecError::BadTenant(_))),
                "{bad:?} should be rejected"
            );
        }
        // A malformed envelope decodes as a default-tenant key, whole.
        assert_eq!(
            split_tenant(b"t/no-close"),
            (DEFAULT_TENANT, &b"t/no-close"[..])
        );
        assert_eq!(split_tenant(b"t//x"), (DEFAULT_TENANT, &b"t//x"[..]));
    }

    #[test]
    fn truncated_inputs_error() {
        assert_eq!(decode_f64(&[1, 2, 3]).unwrap_err(), CodecError::Truncated);
        assert_eq!(
            decode_str(&[0, 0, 0, 9, b'x']).unwrap_err(),
            CodecError::Truncated
        );
        assert_eq!(
            decode_f64_vec(&[0, 0, 0, 2, 0]).unwrap_err(),
            CodecError::Truncated
        );
    }
}
