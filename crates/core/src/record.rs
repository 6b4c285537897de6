//! The bounded little-endian field layer under every binary format of the
//! workspace: the RPC wire frame, the search checkpoint, the service's job
//! spec, and its store segments and manifest.
//!
//! All of them follow one rule, and it lives here: nothing is sized from
//! an untrusted length. [`Reader::take`] checks each field against the
//! bytes left. [`Reader::count_u32`] and [`Reader::count_u64`] check an
//! element count against the bytes left at the element's minimum encoded
//! size *before* anything is allocated from it. Every bad input is a typed
//! [`Error`], never a panic, and each format converts that error into its
//! own at its edge.
//!
//! The envelopes stay with their formats: magic, version, length field
//! and CRC coverage differ between them, and frozen bytes pin each one.
//! The per-field reads are `#[inline]` because the formats call them from
//! other crates, once per field of every frame.

use fedrlnas_darts::{ArchMask, CellKind, NUM_OPS};
use std::fmt;

/// Why a field could not be read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Error {
    /// A field reaches past the end of the buffer.
    Truncated {
        /// End offset of the field in the buffer the reader was given.
        needed: usize,
        /// Length of that buffer.
        got: usize,
    },
    /// The bytes are present but invalid: an op index out of range, a
    /// count that overflows, trailing bytes.
    Malformed(&'static str),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Truncated { needed, got } => {
                write!(f, "truncated record: needed {needed} bytes, got {got}")
            }
            Error::Malformed(why) => write!(f, "malformed record: {why}"),
        }
    }
}

/// The job spec reports its errors as text.
impl From<Error> for String {
    fn from(e: Error) -> String {
        e.to_string()
    }
}

/// Width of the element count in front of a run. Each format writes its
/// counts at its own width: the wire at `u32`, the checkpoint at `u64`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Count {
    /// A little-endian `u32` count.
    U32,
    /// A little-endian `u64` count.
    U64,
}

impl Count {
    fn put(self, out: &mut Vec<u8>, n: usize) {
        match self {
            Count::U32 => out.extend_from_slice(&(n as u32).to_le_bytes()),
            Count::U64 => out.extend_from_slice(&(n as u64).to_le_bytes()),
        }
    }
}

/// A bounds-checked cursor over one buffer. Every read fails with
/// [`Error::Truncated`] when its field reaches past the buffer's end; a
/// count fails with [`Error::Malformed`] when `count × element size`
/// overflows.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn truncated(&self, n: usize) -> Error {
        Error::Truncated {
            needed: self.pos.saturating_add(n),
            got: self.buf.len(),
        }
    }

    /// The next `n` bytes, borrowed.
    #[inline]
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], Error> {
        if n > self.remaining() {
            return Err(self.truncated(n));
        }
        let field = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(field)
    }

    #[inline]
    fn array<const N: usize>(&mut self) -> Result<[u8; N], Error> {
        Ok(self.take(N)?.try_into().expect("take returns N bytes"))
    }

    /// One byte.
    #[inline]
    pub fn u8(&mut self) -> Result<u8, Error> {
        Ok(self.array::<1>()?[0])
    }

    /// A little-endian `u16`.
    #[inline]
    pub fn u16(&mut self) -> Result<u16, Error> {
        self.array().map(u16::from_le_bytes)
    }

    /// A little-endian `u32`.
    #[inline]
    pub fn u32(&mut self) -> Result<u32, Error> {
        self.array().map(u32::from_le_bytes)
    }

    /// A little-endian `u64`.
    #[inline]
    pub fn u64(&mut self) -> Result<u64, Error> {
        self.array().map(u64::from_le_bytes)
    }

    /// A little-endian `f32`, bit for bit.
    #[inline]
    pub fn f32(&mut self) -> Result<f32, Error> {
        self.array().map(f32::from_le_bytes)
    }

    /// A little-endian `f64`, bit for bit.
    #[inline]
    pub fn f64(&mut self) -> Result<f64, Error> {
        self.array().map(f64::from_le_bytes)
    }

    /// A `u32` element count, refused unless `count` elements of
    /// `min_elem_bytes` each (at least one) fit in the bytes left, so
    /// `Vec::with_capacity(count)` never allocates from an untrusted
    /// length.
    #[inline]
    pub fn count_u32(&mut self, min_elem_bytes: usize) -> Result<usize, Error> {
        let n = self.u32()? as usize;
        self.fits(n, min_elem_bytes)
    }

    /// [`Reader::count_u32`] for a `u64` count.
    #[inline]
    pub fn count_u64(&mut self, min_elem_bytes: usize) -> Result<usize, Error> {
        let n = usize::try_from(self.u64()?).map_err(|_| Error::Malformed("count overflow"))?;
        self.fits(n, min_elem_bytes)
    }

    #[inline]
    fn count(&mut self, width: Count, min_elem_bytes: usize) -> Result<usize, Error> {
        match width {
            Count::U32 => self.count_u32(min_elem_bytes),
            Count::U64 => self.count_u64(min_elem_bytes),
        }
    }

    #[inline]
    fn fits(&self, n: usize, min_elem_bytes: usize) -> Result<usize, Error> {
        let need = n
            .checked_mul(min_elem_bytes.max(1))
            .ok_or(Error::Malformed("count overflow"))?;
        if need > self.remaining() {
            return Err(self.truncated(need));
        }
        Ok(n)
    }

    /// A count-prefixed run of bytes, borrowed.
    #[inline]
    pub fn byte_run(&mut self, width: Count) -> Result<&'a [u8], Error> {
        let n = self.count(width, 1)?;
        self.take(n)
    }

    /// A count-prefixed run of little-endian `f32`s, left where it lies.
    #[inline]
    pub fn f32_run(&mut self, width: Count) -> Result<F32Run<'a>, Error> {
        let n = self.count(width, 4)?;
        Ok(F32Run(self.take(4 * n)?))
    }

    /// [`Reader::f32_run`], copied out.
    #[inline]
    pub fn f32s(&mut self, width: Count) -> Result<Vec<f32>, Error> {
        Ok(self.f32_run(width)?.to_vec())
    }

    /// A count-prefixed run of little-endian `f64`s, copied out.
    pub fn f64s(&mut self, width: Count) -> Result<Vec<f64>, Error> {
        let n = self.count(width, 8)?;
        Ok(self
            .take(8 * n)?
            .chunks_exact(8)
            .map(|c| f64::from_le_bytes(c.try_into().expect("8 bytes")))
            .collect())
    }

    /// One op byte per edge, each checked against [`NUM_OPS`]: the
    /// [`ArchMask`] constructor panics on a bad index.
    fn ops(&mut self, edges: usize) -> Result<Vec<usize>, Error> {
        self.take(edges)?
            .iter()
            .map(|&b| {
                if (b as usize) < NUM_OPS {
                    Ok(b as usize)
                } else {
                    Err(Error::Malformed("op index out of range"))
                }
            })
            .collect()
    }

    /// An architecture mask as [`put_mask`] writes it: the edge count,
    /// then the normal and the reduction cell's op tables.
    pub fn mask(&mut self, width: Count) -> Result<ArchMask, Error> {
        let edges = self.count(width, 2)?;
        let normal = self.ops(edges)?;
        let reduction = self.ops(edges)?;
        Ok(ArchMask::new(normal, reduction))
    }

    /// Ends the read: [`Error::Malformed`] when bytes are left over.
    pub fn finish(self) -> Result<(), Error> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(Error::Malformed("trailing bytes"))
        }
    }
}

/// A run of little-endian `f32`s borrowed from a record, read front to
/// back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct F32Run<'a>(&'a [u8]);

impl F32Run<'_> {
    /// Values left in the run.
    #[inline]
    pub fn len(&self) -> usize {
        self.0.len() / 4
    }

    /// Whether the run has been read to its end (or was empty).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Copies the next `out.len()` values into `out` and advances past
    /// them. Panics if fewer than `out.len()` values are left.
    #[inline]
    pub fn fill(&mut self, out: &mut [f32]) {
        let (head, rest) = self.0.split_at(4 * out.len());
        for (dst, c) in out.iter_mut().zip(head.chunks_exact(4)) {
            *dst = f32::from_le_bytes(c.try_into().expect("4 bytes"));
        }
        self.0 = rest;
    }

    /// The values left in the run, copied out.
    #[inline]
    pub fn to_vec(&self) -> Vec<f32> {
        self.0
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes(c.try_into().expect("4 bytes")))
            .collect()
    }
}

/// Appends a count-prefixed byte run.
pub fn put_bytes(out: &mut Vec<u8>, width: Count, bytes: &[u8]) {
    width.put(out, bytes.len());
    out.extend_from_slice(bytes);
}

/// Appends a count-prefixed run of little-endian `f32`s.
pub fn put_f32s(out: &mut Vec<u8>, width: Count, values: &[f32]) {
    put_f32_ranges(out, width, values, std::iter::once((0, values.len())));
}

/// Appends one count-prefixed `f32` run: the `(offset, len)` ranges of
/// `flat`, concatenated. The run is sized once, then filled through
/// fixed-width chunks: one capacity check for the run instead of one per
/// value. Panics if a range reaches outside `flat`.
pub fn put_f32_ranges(
    out: &mut Vec<u8>,
    width: Count,
    flat: &[f32],
    ranges: impl Iterator<Item = (usize, usize)> + Clone,
) {
    let count: usize = ranges.clone().map(|(_, len)| len).sum();
    width.put(out, count);
    let mut at = out.len();
    out.resize(at + 4 * count, 0);
    for (off, len) in ranges {
        let run = &mut out[at..at + 4 * len];
        for (dst, v) in run.chunks_exact_mut(4).zip(&flat[off..off + len]) {
            dst.copy_from_slice(&v.to_le_bytes());
        }
        at += 4 * len;
    }
}

/// Appends a count-prefixed run of little-endian `f64`s, sized once like
/// [`put_f32_ranges`].
pub fn put_f64s(out: &mut Vec<u8>, width: Count, values: &[f64]) {
    width.put(out, values.len());
    let at = out.len();
    out.resize(at + 8 * values.len(), 0);
    for (dst, v) in out[at..].chunks_exact_mut(8).zip(values) {
        dst.copy_from_slice(&v.to_le_bytes());
    }
}

/// Appends an architecture mask: the edge count, then one op byte per
/// edge of the normal cell and of the reduction cell.
pub fn put_mask(out: &mut Vec<u8>, width: Count, mask: &ArchMask) {
    width.put(out, mask.num_edges());
    for kind in [CellKind::Normal, CellKind::Reduction] {
        out.extend(mask.ops(kind).iter().map(|&op| op as u8));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// One of every field, written the way the formats write them.
    fn sample() -> Vec<u8> {
        let mut out = vec![7u8];
        out.extend_from_slice(&0xBEEFu16.to_le_bytes());
        out.extend_from_slice(&5u32.to_le_bytes());
        out.extend_from_slice(&u64::MAX.to_le_bytes());
        out.extend_from_slice(&(-0.0f32).to_le_bytes());
        out.extend_from_slice(&1.5f64.to_le_bytes());
        put_bytes(&mut out, Count::U32, b"spec");
        put_f32s(&mut out, Count::U32, &[1.0, -2.5, 3.25]);
        put_f32_ranges(
            &mut out,
            Count::U64,
            &[9.0, 1.0, 2.0, 9.0, 3.0],
            [(1, 2), (4, 1)].into_iter(),
        );
        put_f64s(&mut out, Count::U64, &[0.5, -4.0]);
        put_mask(&mut out, Count::U64, &ArchMask::new(vec![1, 7], vec![0, 3]));
        out
    }

    fn read_sample(bytes: &[u8]) -> Result<(), Error> {
        let mut r = Reader::new(bytes);
        assert_eq!(r.u8()?, 7);
        assert_eq!(r.u16()?, 0xBEEF);
        assert_eq!(r.u32()?, 5);
        assert_eq!(r.u64()?, u64::MAX);
        assert_eq!(r.f32()?.to_bits(), (-0.0f32).to_bits());
        assert_eq!(r.f64()?, 1.5);
        assert_eq!(r.byte_run(Count::U32)?, b"spec");
        assert_eq!(r.f32s(Count::U32)?, [1.0, -2.5, 3.25]);
        assert_eq!(r.f32s(Count::U64)?, [1.0, 2.0, 3.0]);
        assert_eq!(r.f64s(Count::U64)?, [0.5, -4.0]);
        assert_eq!(r.mask(Count::U64)?, ArchMask::new(vec![1, 7], vec![0, 3]));
        r.finish()
    }

    #[test]
    fn every_field_round_trips() {
        read_sample(&sample()).expect("sound record");
    }

    #[test]
    fn truncation_at_every_prefix_is_truncated() {
        let bytes = sample();
        for cut in 0..bytes.len() {
            match read_sample(&bytes[..cut]) {
                Err(Error::Truncated { needed, got }) => {
                    assert_eq!(got, cut);
                    assert!(needed > cut && needed <= bytes.len(), "cut {cut}: {needed}");
                }
                other => panic!("cut at {cut}: {other:?}"),
            }
        }
    }

    #[test]
    fn finish_rejects_trailing_bytes() {
        let mut bytes = sample();
        bytes.push(0);
        assert_eq!(read_sample(&bytes), Err(Error::Malformed("trailing bytes")));
    }

    #[test]
    fn counts_are_checked_before_anything_is_sized() {
        // a u64::MAX count: the multiply overflows
        let max = u64::MAX.to_le_bytes();
        assert_eq!(
            Reader::new(&max).count_u64(4),
            Err(Error::Malformed("count overflow"))
        );
        // a count whose product overflows, whatever the element size
        let over = (usize::MAX / 4 + 1) as u64;
        let mut bytes = over.to_le_bytes().to_vec();
        bytes.extend_from_slice(&[0; 64]);
        assert_eq!(
            Reader::new(&bytes).count_u64(4),
            Err(Error::Malformed("count overflow"))
        );
        assert_eq!(
            Reader::new(&bytes).f32s(Count::U64),
            Err(Error::Malformed("count overflow"))
        );
        // a count that fits the address space but not the buffer: the
        // needed end is the whole run's
        let mut bytes = 3u64.to_le_bytes().to_vec();
        bytes.extend_from_slice(&[0; 71]);
        assert_eq!(
            Reader::new(&bytes).count_u64(24),
            Err(Error::Truncated {
                needed: 8 + 72,
                got: 79
            })
        );
        let mut bytes = u32::MAX.to_le_bytes().to_vec();
        bytes.extend_from_slice(&[0; 9]);
        assert_eq!(
            Reader::new(&bytes).count_u32(9),
            Err(Error::Truncated {
                needed: 4 + 9 * u32::MAX as usize,
                got: 13
            })
        );
        // a count of zero-sized elements still needs a byte each
        let mut bytes = 2u32.to_le_bytes().to_vec();
        bytes.push(0);
        assert!(matches!(
            Reader::new(&bytes).count_u32(0),
            Err(Error::Truncated { .. })
        ));
    }

    #[test]
    fn op_table_rejects_num_ops() {
        let last = [(NUM_OPS - 1) as u8];
        assert_eq!(Reader::new(&last).ops(1), Ok(vec![NUM_OPS - 1]));
        for bad in [NUM_OPS as u8, u8::MAX] {
            let mut bytes = 1u32.to_le_bytes().to_vec();
            bytes.extend_from_slice(&[0, bad]);
            assert_eq!(
                Reader::new(&bytes).mask(Count::U32),
                Err(Error::Malformed("op index out of range"))
            );
        }
    }

    #[test]
    fn f32_runs_fill_in_pieces() {
        let mut out = Vec::new();
        put_f32s(&mut out, Count::U32, &[1.0, 2.0, 3.0]);
        let mut run = Reader::new(&out).f32_run(Count::U32).expect("run");
        assert_eq!(run.len(), 3);
        let mut head = [0.0; 1];
        run.fill(&mut head);
        assert_eq!((head, run.to_vec()), ([1.0], vec![2.0, 3.0]));
        let mut tail = [0.0; 2];
        run.fill(&mut tail);
        assert!(run.is_empty());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Any bytes at all, read as any sequence of fields: a value or a
        /// typed error, never a panic, and a `Truncated` names the end of
        /// a field past the buffer's end.
        #[test]
        fn arbitrary_bytes_never_panic(
            bytes in proptest::collection::vec(0u8..=255, 0..64),
            script in proptest::collection::vec(0u8..9, 1..12),
        ) {
            let mut r = Reader::new(&bytes);
            for step in script {
                let read = match step {
                    0 => r.u8().map(drop),
                    1 => r.u64().map(drop),
                    2 => r.count_u32(3).map(drop),
                    3 => r.count_u64(5).map(drop),
                    4 => r.f32s(Count::U32).map(drop),
                    5 => r.f64s(Count::U64).map(drop),
                    6 => r.byte_run(Count::U32).map(drop),
                    7 => r.mask(Count::U32).map(drop),
                    _ => r.mask(Count::U64).map(drop),
                };
                match read {
                    Ok(()) => {}
                    Err(Error::Truncated { needed, got }) => {
                        prop_assert_eq!(got, bytes.len());
                        prop_assert!(needed > got);
                        break;
                    }
                    Err(Error::Malformed(_)) => break,
                }
            }
        }
    }
}
