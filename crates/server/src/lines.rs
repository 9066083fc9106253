//! Line framing for the text protocol, shared by both ends of a TCP
//! connection: [`LineReader`] splits a byte stream into lines with a cursor
//! (no per-line buffer shuffle), [`LineWriter`] coalesces lines into one
//! buffer that is handed to the socket in a single `write`.

use std::io::{self, Read, Write};

/// Bytes asked of the source per [`LineReader::fill`].
const READ_CHUNK: usize = 4096;

/// A complete line, or the unterminated tail of the buffer, is longer than
/// the reader's cap.
#[derive(Debug, PartialEq, Eq)]
pub(crate) struct LineTooLong;

/// Buffers raw bytes and hands them out a line at a time, so a read that ends
/// mid-line keeps the fragment for the next one.
pub(crate) struct LineReader {
    buf: Vec<u8>,
    /// Start of the first line not yet handed out.
    pos: usize,
    /// `buf[pos..scanned]` holds no newline (a long line arriving in many
    /// reads is searched once, not once per read).
    scanned: usize,
    max_line: usize,
}

impl LineReader {
    /// A reader that refuses lines longer than `max_line` bytes (terminator
    /// excluded).
    pub(crate) fn new(max_line: usize) -> LineReader {
        LineReader {
            buf: Vec::new(),
            pos: 0,
            scanned: 0,
            max_line,
        }
    }

    /// The next complete line, without its `\n` or `\r\n`; `Ok(None)` when
    /// the buffer ends mid-line. Fails once a line — complete, or still
    /// growing — exceeds the cap: the stream is then unusable and the caller
    /// hangs up.
    pub(crate) fn pop_line(&mut self) -> Result<Option<String>, LineTooLong> {
        let Some(at) = self.buf[self.scanned..].iter().position(|&b| b == b'\n') else {
            self.scanned = self.buf.len();
            return if self.scanned - self.pos > self.max_line {
                Err(LineTooLong)
            } else {
                Ok(None)
            };
        };
        let end = self.scanned + at;
        let mut line = &self.buf[self.pos..end];
        if line.last() == Some(&b'\r') {
            line = &line[..line.len() - 1];
        }
        if line.len() > self.max_line {
            return Err(LineTooLong);
        }
        let line = String::from_utf8_lossy(line).into_owned();
        self.pos = end + 1;
        self.scanned = self.pos;
        Ok(Some(line))
    }

    /// Read once from `src` into the buffer; `Ok(0)` means end of stream.
    /// Lines already handed out are dropped first, so the buffer holds at
    /// most one partial line plus one read.
    pub(crate) fn fill(&mut self, src: &mut impl Read) -> io::Result<usize> {
        self.buf.drain(..self.pos);
        self.scanned -= self.pos;
        self.pos = 0;
        let len = self.buf.len();
        self.buf.resize(len + READ_CHUNK, 0);
        let read = src.read(&mut self.buf[len..]);
        self.buf.truncate(len + *read.as_ref().unwrap_or(&0));
        read
    }
}

/// Collects `\n`-terminated lines and writes them out together: callers
/// append as many lines as they like and pick the moment of the one `write`.
pub(crate) struct LineWriter<W> {
    out: W,
    buf: Vec<u8>,
}

impl<W: Write> LineWriter<W> {
    pub(crate) fn new(out: W) -> LineWriter<W> {
        LineWriter {
            out,
            buf: Vec::new(),
        }
    }

    /// Append `line` and its terminator.
    pub(crate) fn push_line(&mut self, line: &str) {
        self.buf.extend_from_slice(line.as_bytes());
        self.buf.push(b'\n');
    }

    /// The buffer itself, for callers that format lines in place (each must
    /// end in `\n` by the time [`LineWriter::flush`] runs).
    pub(crate) fn buffer(&mut self) -> &mut Vec<u8> {
        &mut self.buf
    }

    /// Bytes appended since the last flush.
    pub(crate) fn pending(&self) -> usize {
        self.buf.len()
    }

    /// Hand everything buffered to the sink in one `write_all` (nothing
    /// buffered: no call at all). The buffer is emptied even on failure — a
    /// failed stream is abandoned, not retried.
    pub(crate) fn flush(&mut self) -> io::Result<()> {
        if self.buf.is_empty() {
            return Ok(());
        }
        let sent = self.out.write_all(&self.buf);
        self.buf.clear();
        sent
    }

    /// The sink, e.g. to shut a socket down.
    pub(crate) fn sink(&mut self) -> &mut W {
        &mut self.out
    }
}

#[cfg(test)]
pub(crate) mod testing {
    use std::io::{self, Write};
    use std::sync::Arc;

    use parking_lot::Mutex;

    /// A writer that records every `write` call it receives; clones share
    /// the record, so a test keeps one and hands the other to the code under
    /// test.
    #[derive(Clone, Default)]
    pub(crate) struct Calls(Arc<Mutex<Vec<String>>>);

    impl Calls {
        /// The calls recorded since the last `taken`.
        pub(crate) fn taken(&self) -> Vec<String> {
            std::mem::take(&mut *self.0.lock())
        }
    }

    impl Write for Calls {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0
                .lock()
                .push(String::from_utf8_lossy(buf).into_owned());
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::testing::Calls;
    use super::*;

    /// Feed `chunks` one `fill` each, popping every line that completes.
    fn lines_of(chunks: &[&[u8]], max_line: usize) -> Result<Vec<String>, LineTooLong> {
        let mut r = LineReader::new(max_line);
        let mut lines = Vec::new();
        for chunk in chunks {
            let mut src: &[u8] = chunk;
            while !src.is_empty() {
                r.fill(&mut src).unwrap();
                while let Some(l) = r.pop_line()? {
                    lines.push(l);
                }
            }
        }
        Ok(lines)
    }

    #[test]
    fn a_line_split_across_two_reads_is_reassembled() {
        let got = lines_of(&[b"BEGIN\nGET k", b"v 1\nCOM", b"MIT\n"], 64).unwrap();
        assert_eq!(got, ["BEGIN", "GET kv 1", "COMMIT"]);
    }

    #[test]
    fn crlf_and_empty_lines() {
        let got = lines_of(&[b"BEGIN\r\n\r\n\nCOMMIT\r", b"\n"], 64).unwrap();
        assert_eq!(got, ["BEGIN", "", "", "COMMIT"]);
    }

    /// 8 192 short lines resident in one 64 KiB buffer: every pop is a scan
    /// from the cursor, none moves the bytes behind it.
    #[test]
    fn eight_thousand_lines_in_one_buffer() {
        let mut bytes = Vec::new();
        for i in 0..8192 {
            bytes.extend_from_slice(format!("GET a {:01}\n", i % 10).as_bytes());
        }
        assert_eq!(bytes.len(), 64 * 1024);
        let mut r = LineReader::new(64);
        let mut src: &[u8] = &bytes;
        while r.fill(&mut src).unwrap() > 0 {}
        assert_eq!(r.buf.len(), bytes.len(), "nothing popped, nothing dropped");
        let base = r.buf.as_ptr();
        let mut n = 0;
        while let Some(l) = r.pop_line().unwrap() {
            assert_eq!(l, format!("GET a {}", n % 10));
            n += 1;
        }
        assert_eq!(n, 8192);
        assert_eq!(r.buf.as_ptr(), base, "popping must not move the buffer");
        assert_eq!(r.buf.len(), bytes.len());
        // The next fill reclaims everything that was handed out.
        assert_eq!(r.fill(&mut src).unwrap(), 0);
        assert!(r.buf.is_empty());
    }

    #[test]
    fn an_oversized_complete_line_is_refused() {
        let long = [b"x".repeat(65), b"\n".to_vec()].concat();
        assert_eq!(lines_of(&[b"ok\n", &long], 64), Err(LineTooLong));
        // Exactly at the cap passes, with or without a carriage return.
        let fits = [b"x".repeat(64), b"\r\n".to_vec()].concat();
        assert_eq!(lines_of(&[&fits], 64).unwrap(), ["x".repeat(64)]);
    }

    #[test]
    fn an_oversized_unterminated_prefix_is_refused() {
        // No newline ever arrives: the cap trips as soon as the fragment
        // passes it, not when memory runs out.
        let mut r = LineReader::new(4096);
        let flood = vec![b'x'; 64 * 1024];
        let mut src: &[u8] = &flood;
        let mut fills = 0;
        let refused = loop {
            r.fill(&mut src).unwrap();
            fills += 1;
            match r.pop_line() {
                Ok(None) => continue,
                other => break other,
            }
        };
        assert_eq!(refused, Err(LineTooLong));
        assert_eq!(fills, 2, "4 KiB fits, the second read's bytes do not");
    }

    #[test]
    fn writer_coalesces_lines_into_one_write_per_flush() {
        let calls = Calls::default();
        let mut w = LineWriter::new(calls.clone());
        w.flush().unwrap();
        assert!(calls.taken().is_empty(), "an empty flush writes nothing");
        w.push_line("BEGIN");
        w.push_line("COMMIT");
        assert_eq!(w.pending(), 13);
        w.flush().unwrap();
        w.push_line("ABORT");
        w.flush().unwrap();
        assert_eq!(w.pending(), 0);
        assert_eq!(calls.taken(), ["BEGIN\nCOMMIT\n", "ABORT\n"]);
    }
}
