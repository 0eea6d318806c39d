//! Binary (de)serialization of a [`ParamStore`].
//!
//! Format (all little-endian):
//!
//! ```text
//! magic    "DKGT"        4 bytes
//! version  u32           currently 2
//! meta_len u32, meta bytes (opaque here; the caller's own record)
//! count    u32           number of parameters
//! per parameter:
//!   name_len u32, name bytes (UTF-8)
//!   rank u32, dims u32 * rank
//!   data f32 * numel
//! ```
//!
//! The file ends with the last parameter's data. The meta section lets
//! one file describe itself: a model stores the configuration that
//! built its parameters there, so the weights and their config are
//! written, renamed and read as one unit. This crate never interprets
//! the meta bytes. Version 1 files (no meta section) are rejected with
//! [`DecodeError::BadVersion`].

use crate::params::ParamStore;
use crate::tensor::Tensor;
use bytes::{Buf, BufMut, Bytes, BytesMut};

const MAGIC: &[u8; 4] = b"DKGT";
const VERSION: u32 = 2;

/// Errors produced when decoding a checkpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// Buffer is shorter than the header or a declared payload.
    Truncated,
    /// Magic bytes do not match.
    BadMagic,
    /// Unsupported format version.
    BadVersion(u32),
    /// A parameter name is not valid UTF-8.
    BadName,
    /// Two parameters share a name.
    DuplicateName,
    /// A declared shape's element or byte count overflows `usize`.
    ShapeOverflow,
    /// Bytes follow the last declared parameter.
    TrailingBytes,
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "checkpoint truncated"),
            DecodeError::BadMagic => write!(f, "not a DKGT checkpoint"),
            DecodeError::BadVersion(v) => write!(f, "unsupported checkpoint version {v}"),
            DecodeError::BadName => write!(f, "invalid UTF-8 parameter name"),
            DecodeError::DuplicateName => write!(f, "checkpoint names a parameter twice"),
            DecodeError::ShapeOverflow => {
                write!(f, "checkpoint declares a tensor too large to address")
            }
            DecodeError::TrailingBytes => {
                write!(f, "checkpoint has bytes after its last parameter")
            }
        }
    }
}

impl std::error::Error for DecodeError {}

/// Serializes the store, with `meta` as its opaque meta section, to the
/// binary checkpoint format.
pub fn encode(store: &ParamStore, meta: &[u8]) -> Bytes {
    let mut buf = BytesMut::new();
    buf.put_slice(MAGIC);
    buf.put_u32_le(VERSION);
    buf.put_u32_le(meta.len() as u32);
    buf.put_slice(meta);
    buf.put_u32_le(store.len() as u32);
    for (_, name, value) in store.iter() {
        buf.put_u32_le(name.len() as u32);
        buf.put_slice(name.as_bytes());
        let dims = value.shape().dims();
        buf.put_u32_le(dims.len() as u32);
        for &d in dims {
            buf.put_u32_le(d as u32);
        }
        for &x in value.data() {
            buf.put_f32_le(x);
        }
    }
    buf.freeze()
}

/// Decodes a checkpoint produced by [`encode`] into its store and its
/// meta section (a slice of `buf`).
///
/// Parameter ids are assigned in stored order, which matches the order
/// they were registered at save time. Every declared length is checked
/// against the bytes that remain before anything is allocated for it.
pub fn decode(mut buf: &[u8]) -> Result<(ParamStore, &[u8]), DecodeError> {
    if buf.remaining() < 8 {
        return Err(DecodeError::Truncated);
    }
    let mut magic = [0u8; 4];
    buf.copy_to_slice(&mut magic);
    if &magic != MAGIC {
        return Err(DecodeError::BadMagic);
    }
    let version = buf.get_u32_le();
    if version != VERSION {
        return Err(DecodeError::BadVersion(version));
    }
    if buf.remaining() < 4 {
        return Err(DecodeError::Truncated);
    }
    let meta_len = buf.get_u32_le() as usize;
    if buf.remaining() < meta_len {
        return Err(DecodeError::Truncated);
    }
    let (meta, rest) = buf.split_at(meta_len);
    buf = rest;
    if buf.remaining() < 4 {
        return Err(DecodeError::Truncated);
    }
    let count = buf.get_u32_le() as usize;
    let mut store = ParamStore::new();
    for _ in 0..count {
        if buf.remaining() < 4 {
            return Err(DecodeError::Truncated);
        }
        let name_len = buf.get_u32_le() as usize;
        if buf.remaining() < name_len {
            return Err(DecodeError::Truncated);
        }
        let name =
            std::str::from_utf8(&buf[..name_len]).map_err(|_| DecodeError::BadName)?.to_owned();
        buf.advance(name_len);
        if store.id_of(&name).is_some() {
            return Err(DecodeError::DuplicateName);
        }
        if buf.remaining() < 4 {
            return Err(DecodeError::Truncated);
        }
        let rank = buf.get_u32_le() as usize;
        if buf.remaining() < rank * 4 {
            return Err(DecodeError::Truncated);
        }
        let dims: Vec<usize> = (0..rank).map(|_| buf.get_u32_le() as usize).collect();
        let numel = dims
            .iter()
            .try_fold(1usize, |acc, &d| acc.checked_mul(d))
            .ok_or(DecodeError::ShapeOverflow)?;
        let payload = numel.checked_mul(4).ok_or(DecodeError::ShapeOverflow)?;
        if buf.remaining() < payload {
            return Err(DecodeError::Truncated);
        }
        let data: Vec<f32> = (0..numel).map(|_| buf.get_f32_le()).collect();
        store.insert(name, Tensor::from_vec(dims, data));
    }
    if !buf.is_empty() {
        return Err(DecodeError::TrailingBytes);
    }
    Ok((store, meta))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn roundtrip() {
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let mut ps = ParamStore::new();
        ps.insert("weights", init::xavier_uniform([4, 3], &mut rng));
        ps.insert("bias", Tensor::from_vec([3], vec![0.1, -0.2, 0.3]));
        ps.insert("scalar", Tensor::scalar(7.0));

        let bytes = encode(&ps, b"{\"dim\": 4}");
        let (back, meta) = decode(&bytes).unwrap();
        assert_eq!(meta, b"{\"dim\": 4}");
        assert_eq!(back.len(), 3);
        for (_, name, value) in ps.iter() {
            let id = back.id_of(name).expect("name preserved");
            assert_eq!(back.get(id), value);
        }
    }

    #[test]
    fn rejects_bad_magic() {
        let err = decode(b"NOPE\x02\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00").unwrap_err();
        assert_eq!(err, DecodeError::BadMagic);
    }

    #[test]
    fn rejects_truncation() {
        let mut ps = ParamStore::new();
        ps.insert("w", Tensor::ones([8]));
        let bytes = encode(&ps, b"meta");
        for cut in [0, 5, 9, 13, 17, bytes.len() - 1] {
            let err = decode(&bytes[..cut]).unwrap_err();
            assert_eq!(err, DecodeError::Truncated, "cut at {cut}");
        }
    }

    #[test]
    fn rejects_bad_version() {
        let mut buf = BytesMut::new();
        buf.put_slice(MAGIC);
        buf.put_u32_le(99);
        buf.put_u32_le(0);
        assert_eq!(decode(&buf).unwrap_err(), DecodeError::BadVersion(99));
    }

    /// A version-1 file (count right after the version, no meta
    /// section) is refused by its version, not misread as a meta length.
    #[test]
    fn rejects_version_one() {
        let mut buf = BytesMut::new();
        buf.put_slice(MAGIC);
        buf.put_u32_le(1);
        buf.put_u32_le(1);
        buf.put_u32_le(1);
        buf.put_slice(b"w");
        buf.put_u32_le(0);
        buf.put_f32_le(1.0);
        assert_eq!(decode(&buf).unwrap_err(), DecodeError::BadVersion(1));
    }

    /// A header whose dims multiply past `usize` is a typed error, not a
    /// debug-build overflow panic or a release-build wrap to an empty
    /// tensor claiming 2^64 elements: once in the element count, once in
    /// the byte count.
    #[test]
    fn rejects_shape_overflow() {
        for dims in [[65536u32; 4], [65536, 65536, 65536, 16384]] {
            let mut buf = BytesMut::new();
            buf.put_slice(MAGIC);
            buf.put_u32_le(VERSION);
            buf.put_u32_le(0);
            buf.put_u32_le(1);
            buf.put_u32_le(1);
            buf.put_slice(b"w");
            buf.put_u32_le(dims.len() as u32);
            for d in dims {
                buf.put_u32_le(d);
            }
            assert_eq!(decode(&buf).unwrap_err(), DecodeError::ShapeOverflow, "dims {dims:?}");
        }
    }

    /// Bytes past the last declared parameter — a second file appended,
    /// or a count lowered — are refused, not dropped with a partial store.
    #[test]
    fn rejects_trailing_bytes() {
        let mut ps = ParamStore::new();
        ps.insert("a", Tensor::ones([2]));
        ps.insert("b", Tensor::ones([3]));
        let bytes = encode(&ps, b"");
        let mut doubled = bytes.to_vec();
        doubled.extend_from_slice(&bytes);
        assert_eq!(decode(&doubled).unwrap_err(), DecodeError::TrailingBytes);
        let mut lowered = bytes.to_vec();
        lowered[12] = 1; // count 2 → 1 (empty meta: count sits at byte 12)
        assert_eq!(decode(&lowered).unwrap_err(), DecodeError::TrailingBytes);
    }

    /// A repeated name is a typed error, not the store's duplicate-name
    /// panic.
    #[test]
    fn rejects_duplicate_names() {
        let mut ps = ParamStore::new();
        ps.insert("a", Tensor::scalar(1.0));
        ps.insert("b", Tensor::scalar(2.0));
        let mut bytes = encode(&ps, b"").to_vec();
        let second = bytes.iter().rposition(|&b| b == b'b').unwrap();
        bytes[second] = b'a';
        assert_eq!(decode(&bytes).unwrap_err(), DecodeError::DuplicateName);
    }

    #[test]
    fn empty_store_roundtrips() {
        let ps = ParamStore::new();
        let bytes = encode(&ps, b"");
        let (back, meta) = decode(&bytes).unwrap();
        assert!(back.is_empty());
        assert!(meta.is_empty());
    }
}
