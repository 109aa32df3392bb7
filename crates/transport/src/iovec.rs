//! Vectored-write helpers shared by the framed and HTTP writers.

use std::io::{Error, ErrorKind, IoSlice, Result, Write};

/// Write every byte of `bufs` using vectored I/O.
///
/// A framed message (length prefix + payload) or an HTTP response (head +
/// body) is two logically separate buffers; writing them with one
/// `writev` per iteration avoids both the copy of concatenating them and
/// the extra syscall (and, on sockets without `TCP_NODELAY` discipline,
/// the small-packet stall) of writing them back-to-back.
///
/// `std::io::Write::write_all_vectored` is still unstable; this is the
/// same loop.
pub fn write_all_vectored(w: &mut impl Write, mut bufs: &mut [IoSlice<'_>]) -> Result<()> {
    // Drop leading empty slices so `write_vectored` never sees an
    // all-empty front (advancing by 0 removes exhausted slices only).
    IoSlice::advance_slices(&mut bufs, 0);
    while !bufs.is_empty() {
        match w.write_vectored(bufs) {
            Ok(0) => {
                return Err(Error::new(
                    ErrorKind::WriteZero,
                    "failed to write whole message",
                ))
            }
            Ok(n) => IoSlice::advance_slices(&mut bufs, n),
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Most slices [`write_all_parts`] hands to one vectored write.
const GATHER_BATCH: usize = 64;

/// Write `head` and then each of `parts`, gathering them into vectored
/// writes of up to 64 slices each: a message whose body lies in several
/// buffers (a frame prefix or HTTP head, then encoded heads and payload
/// arrays left in place) goes out without being concatenated first.
pub(crate) fn write_all_parts(w: &mut impl Write, head: &[u8], parts: &[&[u8]]) -> Result<()> {
    let mut bufs = [IoSlice::new(&[]); GATHER_BATCH];
    bufs[0] = IoSlice::new(head);
    let first = parts.len().min(GATHER_BATCH - 1);
    for (slot, part) in bufs[1..].iter_mut().zip(&parts[..first]) {
        *slot = IoSlice::new(part);
    }
    write_all_vectored(w, &mut bufs[..first + 1])?;
    for batch in parts[first..].chunks(GATHER_BATCH) {
        for (slot, part) in bufs.iter_mut().zip(batch) {
            *slot = IoSlice::new(part);
        }
        write_all_vectored(w, &mut bufs[..batch.len()])?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A writer that accepts at most `cap` bytes per call, to force the
    /// loop through partial-write resumption.
    struct Dribble {
        out: Vec<u8>,
        cap: usize,
    }

    impl Write for Dribble {
        fn write(&mut self, data: &[u8]) -> Result<usize> {
            let n = data.len().min(self.cap);
            self.out.extend_from_slice(&data[..n]);
            Ok(n)
        }
        fn flush(&mut self) -> Result<()> {
            Ok(())
        }
    }

    #[test]
    fn writes_all_across_partial_writes() {
        let mut w = Dribble {
            out: Vec::new(),
            cap: 3,
        };
        let head = b"0123456789";
        let body = b"abcdefg";
        let mut bufs = [IoSlice::new(head), IoSlice::new(body)];
        write_all_vectored(&mut w, &mut bufs).unwrap();
        assert_eq!(w.out, b"0123456789abcdefg");
    }

    #[test]
    fn parts_past_one_batch_go_out_in_order() {
        let mut w = Dribble {
            out: Vec::new(),
            cap: 5,
        };
        let owned: Vec<Vec<u8>> = (0..150u8).map(|i| vec![i; usize::from(i % 3)]).collect();
        let parts: Vec<&[u8]> = owned.iter().map(Vec::as_slice).collect();
        write_all_parts(&mut w, b"head", &parts).unwrap();
        let mut expect = b"head".to_vec();
        expect.extend(owned.concat());
        assert_eq!(w.out, expect);
    }

    #[test]
    fn empty_slices_are_fine() {
        let mut w = Dribble {
            out: Vec::new(),
            cap: 100,
        };
        let mut bufs = [IoSlice::new(b""), IoSlice::new(b"x"), IoSlice::new(b"")];
        write_all_vectored(&mut w, &mut bufs).unwrap();
        assert_eq!(w.out, b"x");
        let mut none = [IoSlice::new(b""), IoSlice::new(b"")];
        write_all_vectored(&mut w, &mut none).unwrap();
        assert_eq!(w.out, b"x");
    }
}
