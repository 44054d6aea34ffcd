//! Model persistence for [`SamcRansCodec`].
//!
//! Layout: the 7-byte prefix `b"RANS"` + version (`u16` BE) + lane-count
//! log2, followed verbatim by the wrapped [`SamcCodec`]'s own serialized
//! form.  Reusing the SAMC payload keeps the two codecs' model caches
//! interchangeable at the byte level past the prefix.

use crate::codec::SamcRansCodec;
use crate::coder::Lanes;
use cce_codec::{BlockCodec, CodecError};
use cce_samc::SamcCodec;

const MAGIC: &[u8; 4] = b"RANS";
const VERSION: u16 = 1;
const NAME: &str = "samc-rans";

/// Serializes the codec (lane width + wrapped SAMC model): the body of
/// its `BlockCodec::to_bytes`.
pub(crate) fn write_codec(codec: &SamcRansCodec) -> Vec<u8> {
    let inner = codec.samc().to_bytes();
    let mut out = Vec::with_capacity(7 + inner.len());
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&VERSION.to_be_bytes());
    out.push(codec.lanes().log2());
    out.extend_from_slice(&inner);
    out
}

impl SamcRansCodec {
    /// Deserializes a codec written by [`BlockCodec::to_bytes`].
    ///
    /// # Errors
    ///
    /// [`CodecError::Corrupt`] on a bad magic, unsupported version,
    /// out-of-range lane width, or malformed SAMC payload.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CodecError> {
        if bytes.len() < 7 {
            return Err(CodecError::corrupt(NAME, "model truncated before header"));
        }
        if &bytes[..4] != MAGIC {
            return Err(CodecError::corrupt(NAME, "bad magic"));
        }
        let version = u16::from_be_bytes([bytes[4], bytes[5]]);
        if version != VERSION {
            return Err(CodecError::corrupt(NAME, format!("unsupported version {version}")));
        }
        let lanes = Lanes::new(1usize << bytes[6].min(31))
            .ok_or_else(|| CodecError::corrupt(NAME, format!("bad lane exponent {}", bytes[6])))?;
        let inner = SamcCodec::from_bytes(&bytes[7..]).map_err(|e| e.named(NAME))?;
        Ok(Self::from_samc(inner, lanes))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cce_samc::SamcConfig;

    fn trained() -> SamcRansCodec {
        let text: Vec<u8> =
            (0..2048u32).flat_map(|i| (i.wrapping_mul(2654435761)).to_be_bytes()).collect();
        SamcRansCodec::train(&text, SamcConfig::mips(), Lanes::FOUR).unwrap()
    }

    #[test]
    fn round_trips_through_bytes() {
        let codec = trained();
        let text: Vec<u8> = (0..512u32).flat_map(u32::to_be_bytes).collect();
        let image = codec.compress(&text).unwrap();
        let restored = SamcRansCodec::from_bytes(&codec.to_bytes()).unwrap();
        assert_eq!(restored.lanes(), Lanes::FOUR);
        assert_eq!(restored.decompress(&image).unwrap(), text);
        assert_eq!(restored.to_bytes(), codec.to_bytes());
    }

    #[test]
    fn rejects_mangled_headers() {
        let bytes = trained().to_bytes();
        assert!(SamcRansCodec::from_bytes(&bytes[..5]).is_err());
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert!(SamcRansCodec::from_bytes(&bad).is_err());
        let mut bad = bytes.clone();
        bad[5] = 9;
        assert!(SamcRansCodec::from_bytes(&bad).is_err());
        let mut bad = bytes.clone();
        bad[6] = 5;
        assert!(SamcRansCodec::from_bytes(&bad).is_err());
        let mut bad = bytes;
        bad.truncate(20);
        assert!(SamcRansCodec::from_bytes(&bad).is_err());
    }
}
