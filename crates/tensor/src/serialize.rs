//! Binary (de)serialization of a [`ParamStore`].
//!
//! Format (all little-endian):
//!
//! ```text
//! magic  "DKGT"          4 bytes
//! version u32            currently 1
//! count   u32            number of parameters
//! per parameter:
//!   name_len u32, name bytes (UTF-8)
//!   rank u32, dims u32 * rank
//!   data f32 * numel
//! ```
//!
//! Checkpointing trained models lets the experiment binaries separate
//! the (slow) training phase from (fast) evaluation reruns.

use crate::params::ParamStore;
use crate::tensor::Tensor;
use bytes::{Buf, BufMut, Bytes, BytesMut};

const MAGIC: &[u8; 4] = b"DKGT";
const VERSION: u32 = 1;

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
    /// A declared shape's element or byte count overflows `usize`.
    ShapeOverflow,
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "checkpoint truncated"),
            DecodeError::BadMagic => write!(f, "not a DKGT checkpoint"),
            DecodeError::BadVersion(v) => write!(f, "unsupported checkpoint version {v}"),
            DecodeError::BadName => write!(f, "invalid UTF-8 parameter name"),
            DecodeError::ShapeOverflow => {
                write!(f, "checkpoint declares a tensor too large to address")
            }
        }
    }
}

impl std::error::Error for DecodeError {}

/// Serializes the store to its binary checkpoint format.
pub fn encode(store: &ParamStore) -> Bytes {
    let mut buf = BytesMut::new();
    buf.put_slice(MAGIC);
    buf.put_u32_le(VERSION);
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

/// Decodes a checkpoint produced by [`encode`].
///
/// Parameter ids are assigned in stored order, which matches the order
/// they were registered at save time.
pub fn decode(mut buf: &[u8]) -> Result<ParamStore, DecodeError> {
    if buf.remaining() < 12 {
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
    Ok(store)
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

        let bytes = encode(&ps);
        let back = decode(&bytes).unwrap();
        assert_eq!(back.len(), 3);
        for (_, name, value) in ps.iter() {
            let id = back.id_of(name).expect("name preserved");
            assert_eq!(back.get(id), value);
        }
    }

    #[test]
    fn rejects_bad_magic() {
        let err = decode(b"NOPE\x01\x00\x00\x00\x00\x00\x00\x00").unwrap_err();
        assert_eq!(err, DecodeError::BadMagic);
    }

    #[test]
    fn rejects_truncation() {
        let mut ps = ParamStore::new();
        ps.insert("w", Tensor::ones([8]));
        let bytes = encode(&ps);
        for cut in [0, 5, 13, bytes.len() - 1] {
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

    #[test]
    fn empty_store_roundtrips() {
        let ps = ParamStore::new();
        let back = decode(&encode(&ps)).unwrap();
        assert!(back.is_empty());
    }
}
