//! Length-prefixed binary framing for store payloads.
//!
//! Every artifact codec in the workspace (parsed policies, app reports)
//! serializes through this one pair of types, so the framing rules live
//! in exactly one place: little-endian fixed-width integers, `u32`
//! length prefixes on strings and sequences, and a reader that never
//! panics — every decode defect surfaces as a [`WireError`] the caller
//! converts into "recompute".

use std::fmt;

/// A decode failure. Deliberately coarse: the store's contract is that
/// *any* defect means recompute-and-overwrite, so callers only ever need
/// the message for diagnostics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError(pub String);

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "wire decode error: {}", self.0)
    }
}

impl std::error::Error for WireError {}

/// Serializes values into a growing byte buffer.
#[derive(Debug, Default)]
pub struct WireWriter {
    buf: Vec<u8>,
}

impl WireWriter {
    /// An empty writer.
    pub fn new() -> Self {
        WireWriter::default()
    }

    /// Consumes the writer, returning the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Appends one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a bool as one byte.
    pub fn bool(&mut self, v: bool) {
        self.buf.push(u8::from(v));
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Appends an `Option<&str>` (presence byte + string).
    pub fn opt_str(&mut self, s: Option<&str>) {
        match s {
            Some(s) => {
                self.bool(true);
                self.str(s);
            }
            None => self.bool(false),
        }
    }

    /// Appends a sequence length (callers then append the items).
    pub fn seq(&mut self, len: usize) {
        self.u32(len as u32);
    }
}

/// Reads values back out of an encoded buffer.
#[derive(Debug)]
pub struct WireReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> WireReader<'a> {
    /// A reader over `buf` starting at offset 0.
    pub fn new(buf: &'a [u8]) -> Self {
        WireReader { buf, pos: 0 }
    }

    /// `true` when every byte has been consumed.
    pub fn is_exhausted(&self) -> bool {
        self.pos == self.buf.len()
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&end| end <= self.buf.len())
            .ok_or_else(|| WireError(format!("truncated: wanted {n} bytes at {}", self.pos)))?;
        let slice = &self.buf[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    /// Reads one byte.
    ///
    /// # Errors
    ///
    /// Returns [`WireError`] on truncation.
    pub fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u32`.
    ///
    /// # Errors
    ///
    /// Returns [`WireError`] on truncation.
    pub fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    /// Reads a little-endian `u64`.
    ///
    /// # Errors
    ///
    /// Returns [`WireError`] on truncation.
    pub fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    /// Reads a bool; any byte other than 0/1 is a defect.
    ///
    /// # Errors
    ///
    /// Returns [`WireError`] on truncation or a non-boolean byte.
    pub fn bool(&mut self) -> Result<bool, WireError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(WireError(format!("bad bool byte {other}"))),
        }
    }

    /// Reads a length-prefixed UTF-8 string.
    ///
    /// # Errors
    ///
    /// Returns [`WireError`] on truncation or invalid UTF-8.
    pub fn str(&mut self) -> Result<&'a str, WireError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        std::str::from_utf8(bytes).map_err(|e| WireError(format!("invalid utf-8: {e}")))
    }

    /// Reads an `Option<&str>`.
    ///
    /// # Errors
    ///
    /// Returns [`WireError`] on truncation or invalid UTF-8.
    pub fn opt_str(&mut self) -> Result<Option<&'a str>, WireError> {
        if self.bool()? {
            Ok(Some(self.str()?))
        } else {
            Ok(None)
        }
    }

    /// Reads a sequence length, bounded so a corrupt length prefix can't
    /// drive a huge allocation.
    ///
    /// # Errors
    ///
    /// Returns [`WireError`] on truncation or an implausible length.
    pub fn seq(&mut self) -> Result<usize, WireError> {
        let len = self.u32()? as usize;
        // Every element is at least one byte; a length beyond the bytes
        // that remain cannot be honest.
        if len > self.buf.len().saturating_sub(self.pos) {
            return Err(WireError(format!("sequence of {len} exceeds remaining payload")));
        }
        Ok(len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_all_primitives() {
        let mut w = WireWriter::new();
        w.u8(7);
        w.u32(123_456);
        w.u64(u64::MAX - 3);
        w.bool(true);
        w.str("héllo wörld");
        w.opt_str(None);
        w.opt_str(Some("x"));
        w.seq(3);
        for b in [10u8, 20, 30] {
            w.u8(b);
        }
        let bytes = w.into_bytes();

        let mut r = WireReader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u32().unwrap(), 123_456);
        assert_eq!(r.u64().unwrap(), u64::MAX - 3);
        assert!(r.bool().unwrap());
        assert_eq!(r.str().unwrap(), "héllo wörld");
        assert_eq!(r.opt_str().unwrap(), None);
        assert_eq!(r.opt_str().unwrap(), Some("x"));
        assert_eq!(r.seq().unwrap(), 3);
        assert_eq!(r.u8().unwrap(), 10);
        assert_eq!(r.u8().unwrap(), 20);
        assert_eq!(r.u8().unwrap(), 30);
        assert!(r.is_exhausted());
    }

    #[test]
    fn truncation_is_an_error_not_a_panic() {
        let mut w = WireWriter::new();
        w.str("hello");
        let bytes = w.into_bytes();
        for cut in 0..bytes.len() {
            let mut r = WireReader::new(&bytes[..cut]);
            assert!(r.str().is_err(), "cut at {cut} must fail");
        }
    }

    #[test]
    fn bad_bool_and_bad_utf8_rejected() {
        let mut r = WireReader::new(&[9]);
        assert!(r.bool().is_err());
        // length 2, invalid UTF-8 bytes
        let bytes = [2, 0, 0, 0, 0xFF, 0xFE];
        let mut r = WireReader::new(&bytes);
        assert!(r.str().is_err());
    }

    #[test]
    fn implausible_sequence_length_rejected() {
        let mut w = WireWriter::new();
        w.u32(u32::MAX);
        let bytes = w.into_bytes();
        let mut r = WireReader::new(&bytes);
        assert!(r.seq().is_err());
    }
}
