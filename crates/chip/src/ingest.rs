//! Zero-copy corpus ingestion: borrowed text sources, a paged `File`
//! reader, and a streaming chunker with exact boundary overlap.
//!
//! The paper's architecture is I/O-bound on purpose — §1's "one
//! character every 250 ns" is *faster than the memory bandwidth of
//! most conventional computers*, so the practical ceiling is how fast
//! the host can feed the array. The reproduction hit the same wall:
//! the superplane kernels already scan borrowed `&[Symbol]` slices,
//! but every byte still arrived as an owned `Vec` built per job. This
//! module closes the gap on the host side:
//!
//! * [`TextSource`] — a lending-iterator abstraction: `next_chunk`
//!   returns a slice *borrowed from the source*, so downstream batch
//!   drivers ([`ThroughputEngine::run_refs`], the
//!   [`Router`](crate::shard::Router)) never take ownership of text;
//! * [`SliceSource`] — an in-memory corpus cut into fixed chunks,
//!   the zero-cost case and the differential twin of the file reader;
//! * [`PagedCorpus`] — a `File` read into one reused page buffer via
//!   positional reads (`read_at` on Unix, seek-and-read elsewhere):
//!   std-only paging, no per-page allocation after the first;
//! * [`OverlapChunker`] — carries only the `kmax − 1` overlap tail
//!   between chunks, for kernels that start each scan from an empty
//!   array ([`DictionaryMatcher::feed`](crate::dictionary::DictionaryMatcher::feed)
//!   carries the array state instead), so matches spanning chunk
//!   boundaries are exact at every width while per-chunk state stays
//!   O(`kmax`), never O(chunk).
//!
//! ```
//! use pm_chip::ingest::{SliceSource, TextSource};
//! use pm_systolic::symbol::text_from_letters;
//!
//! let corpus = text_from_letters("ABCABCAB").unwrap();
//! let mut source = SliceSource::new(&corpus, 3);
//! let mut total = 0;
//! while let Some(chunk) = source.next_chunk().unwrap() {
//!     total += chunk.len();
//! }
//! assert_eq!(total, corpus.len());
//! ```
//!
//! [`ThroughputEngine::run_refs`]: crate::throughput::ThroughputEngine::run_refs

use pm_systolic::symbol::Symbol;
use std::fs::File;
use std::io;
use std::path::Path;

/// A stream of borrowed text chunks: the ingestion-side twin of the
/// kernels' borrowed-slice entry points.
///
/// `next_chunk` lends a slice valid until the next call, so a source
/// may (and [`PagedCorpus`] does) reuse one internal buffer for every
/// chunk — the caller scans in place and copies nothing.
pub trait TextSource {
    /// The next chunk, borrowed from the source's internal state, or
    /// `None` at end of stream. Chunks are non-empty.
    ///
    /// # Errors
    ///
    /// I/O failure of the underlying medium; in-memory sources never
    /// fail.
    fn next_chunk(&mut self) -> io::Result<Option<&[Symbol]>>;

    /// Total symbols this source will yield, when known up front —
    /// a sizing hint, not a contract.
    fn len_hint(&self) -> Option<u64> {
        None
    }
}

/// An in-memory corpus served as successive fixed-size chunks, all
/// borrowed straight from the caller's slice.
#[derive(Debug)]
pub struct SliceSource<'a> {
    data: &'a [Symbol],
    chunk: usize,
    pos: usize,
}

impl<'a> SliceSource<'a> {
    /// Cuts `data` into chunks of `chunk` symbols (at least one; the
    /// final chunk may be shorter).
    pub fn new(data: &'a [Symbol], chunk: usize) -> Self {
        SliceSource {
            data,
            chunk: chunk.max(1),
            pos: 0,
        }
    }
}

impl TextSource for SliceSource<'_> {
    fn next_chunk(&mut self) -> io::Result<Option<&[Symbol]>> {
        if self.pos >= self.data.len() {
            return Ok(None);
        }
        let end = (self.pos + self.chunk).min(self.data.len());
        let chunk = &self.data[self.pos..end];
        self.pos = end;
        Ok(Some(chunk))
    }

    fn len_hint(&self) -> Option<u64> {
        Some(self.data.len() as u64)
    }
}

/// A corpus file read page by page into one reused buffer.
///
/// Bytes map one-to-one onto the 8-bit alphabet's [`Symbol`]s, so any
/// file is a valid corpus. Reads are positional (`read_at` on Unix —
/// no shared cursor to contend on; a seek-and-read fallback elsewhere)
/// and the page buffer is allocated once, so steady-state ingestion
/// performs zero allocation per chunk.
#[derive(Debug)]
pub struct PagedCorpus {
    file: File,
    len: u64,
    offset: u64,
    raw: Vec<u8>,
    page: Vec<Symbol>,
}

impl PagedCorpus {
    /// Opens `path` for paged reading with pages of `page_bytes` (at
    /// least one).
    ///
    /// # Errors
    ///
    /// Whatever opening or stat-ing the file returns.
    pub fn open(path: impl AsRef<Path>, page_bytes: usize) -> io::Result<Self> {
        Self::from_file(File::open(path)?, page_bytes)
    }

    /// Wraps an already-open file.
    ///
    /// # Errors
    ///
    /// Whatever stat-ing the file returns.
    pub fn from_file(file: File, page_bytes: usize) -> io::Result<Self> {
        let len = file.metadata()?.len();
        Ok(PagedCorpus {
            file,
            len,
            offset: 0,
            raw: vec![0; page_bytes.max(1)],
            page: Vec::with_capacity(page_bytes.max(1)),
        })
    }

    /// Total bytes in the file.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether the file is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Bytes already consumed.
    pub fn consumed(&self) -> u64 {
        self.offset
    }

    /// Rewinds to the start of the file.
    pub fn rewind(&mut self) {
        self.offset = 0;
    }

    /// Fills `self.raw` from `self.offset`, returning the bytes read
    /// (0 at end of file; short only there).
    fn read_page(&mut self) -> io::Result<usize> {
        let mut filled = 0;
        while filled < self.raw.len() {
            let read = self.read_some(filled);
            match read {
                Ok(0) => break,
                Ok(n) => filled += n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        Ok(filled)
    }

    #[cfg(unix)]
    fn read_some(&mut self, filled: usize) -> io::Result<usize> {
        use std::os::unix::fs::FileExt;
        self.file
            .read_at(&mut self.raw[filled..], self.offset + filled as u64)
    }

    #[cfg(not(unix))]
    fn read_some(&mut self, filled: usize) -> io::Result<usize> {
        use std::io::{Read, Seek, SeekFrom};
        self.file
            .seek(SeekFrom::Start(self.offset + filled as u64))?;
        self.file.read(&mut self.raw[filled..])
    }
}

impl TextSource for PagedCorpus {
    fn next_chunk(&mut self) -> io::Result<Option<&[Symbol]>> {
        let n = self.read_page()?;
        if n == 0 {
            return Ok(None);
        }
        self.offset += n as u64;
        self.page.clear();
        self.page
            .extend(self.raw[..n].iter().map(|&b| Symbol::new(b)));
        Ok(Some(&self.page[..]))
    }

    fn len_hint(&self) -> Option<u64> {
        Some(self.len)
    }
}

/// One streamed window over a [`TextSource`], cut into at most two
/// scan regions so the consumer copies nothing but the overlap.
///
/// For each region `(slice, min_end, base)` from
/// [`regions`](Self::regions): scan `slice`, keep matches whose window
/// *ends* at position ≥ `min_end`, and report them at global offset
/// `base + position`. Together the regions report every match ending
/// inside the new chunk exactly once, including matches spanning the
/// chunk boundary.
#[derive(Debug, Clone, Copy)]
pub struct ChunkView<'a> {
    /// Carried tail plus the chunk's first `kmax − 1` symbols — the
    /// only copied bytes, at most `2·(kmax − 1)` of them. Empty before
    /// anything has been consumed.
    pub boundary: &'a [Symbol],
    /// Positions in `boundary` below this were reported by earlier
    /// windows.
    pub carry: usize,
    /// Global offset of `boundary[0]`.
    pub boundary_base: usize,
    /// The chunk itself, borrowed from the source.
    pub chunk: &'a [Symbol],
    /// Positions in `chunk` below this are covered by `boundary`.
    pub fresh_from: usize,
    /// Global offset of `chunk[0]`.
    pub chunk_base: usize,
}

impl<'a> ChunkView<'a> {
    /// The window's scan regions as `(slice, min_end, base)` triples.
    pub fn regions(&self) -> [(&'a [Symbol], usize, usize); 2] {
        [
            (self.boundary, self.carry, self.boundary_base),
            (self.chunk, self.fresh_from, self.chunk_base),
        ]
    }
}

/// Streams a [`TextSource`] in windows that overlap by `kmax − 1`
/// symbols, for drivers that scan each chunk themselves from an empty
/// array (the batch engines, the E36 ingest figure); a
/// [`DictionaryMatcher`](crate::dictionary::DictionaryMatcher) carries
/// its array state between chunks instead and needs no overlap. State
/// is the tail plus a boundary scratch buffer: O(`kmax`) regardless of
/// chunk size.
#[derive(Debug)]
pub struct OverlapChunker<S> {
    source: S,
    overlap: usize,
    tail: Vec<Symbol>,
    boundary: Vec<Symbol>,
    consumed: usize,
}

impl<S: TextSource> OverlapChunker<S> {
    /// Wraps `source` for patterns of at most `kmax` symbols.
    pub fn new(source: S, kmax: usize) -> Self {
        OverlapChunker {
            source,
            overlap: kmax.saturating_sub(1),
            tail: Vec::new(),
            boundary: Vec::new(),
            consumed: 0,
        }
    }

    /// Symbols consumed so far.
    pub fn consumed(&self) -> usize {
        self.consumed
    }

    /// The wrapped source's length hint.
    pub fn len_hint(&self) -> Option<u64> {
        self.source.len_hint()
    }

    /// The next window, or `None` when the source is exhausted.
    ///
    /// # Errors
    ///
    /// Propagated from the source.
    pub fn next_window(&mut self) -> io::Result<Option<ChunkView<'_>>> {
        let Some(chunk) = self.source.next_chunk()? else {
            return Ok(None);
        };
        let carry = self.tail.len();
        let head = chunk.len().min(self.overlap);
        self.boundary.clear();
        self.boundary.extend_from_slice(&self.tail);
        self.boundary.extend_from_slice(&chunk[..head]);
        // Advance the carried tail: either the chunk covers the whole
        // overlap, or the old tail's suffix tops it up.
        if chunk.len() >= self.overlap {
            self.tail.clear();
            self.tail
                .extend_from_slice(&chunk[chunk.len() - self.overlap..]);
        } else {
            let keep_old = (carry + chunk.len()).min(self.overlap) - chunk.len();
            self.tail.drain(..carry - keep_old);
            self.tail.extend_from_slice(chunk);
        }
        let view = ChunkView {
            boundary: &self.boundary,
            carry,
            boundary_base: self.consumed - carry,
            chunk,
            fresh_from: head,
            chunk_base: self.consumed,
        };
        self.consumed += chunk.len();
        Ok(Some(view))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pm_systolic::spec::match_spec;
    use pm_systolic::symbol::{text_from_letters, Pattern};
    use std::io::Write;

    fn letters(s: &str) -> Vec<Symbol> {
        text_from_letters(s).unwrap()
    }

    /// Ends-of-match for one pattern over a streamed source, via the
    /// chunker's two-region protocol.
    fn streamed_ends(source: impl TextSource, pattern: &Pattern) -> Vec<usize> {
        let mut chunker = OverlapChunker::new(source, pattern.len());
        let mut ends = Vec::new();
        while let Some(view) = chunker.next_window().unwrap() {
            for (slice, min_end, base) in view.regions() {
                for (pos, hit) in match_spec(slice, pattern).iter().enumerate() {
                    if *hit && pos >= min_end {
                        ends.push(base + pos);
                    }
                }
            }
        }
        ends
    }

    #[test]
    fn chunked_scan_equals_offline_at_ragged_sizes() {
        let text = letters("ABCABCABQABCCABCABABC");
        let pattern = Pattern::parse("ABCAB").unwrap();
        let offline: Vec<usize> = match_spec(&text, &pattern)
            .iter()
            .enumerate()
            .filter_map(|(i, hit)| hit.then_some(i))
            .collect();
        for chunk in [1, 2, 3, 4, 5, 7, 21, 50] {
            let streamed = streamed_ends(SliceSource::new(&text, chunk), &pattern);
            assert_eq!(streamed, offline, "chunk={chunk}");
        }
    }

    #[test]
    fn chunker_state_is_bounded_by_kmax() {
        let text = letters("AB").repeat(5000);
        let mut chunker = OverlapChunker::new(SliceSource::new(&text, 512), 6);
        while chunker.next_window().unwrap().is_some() {}
        assert_eq!(chunker.consumed(), text.len());
        assert!(chunker.tail.capacity() <= 16, "tail grew with the chunk");
        assert!(chunker.boundary.capacity() <= 16);
    }

    #[test]
    fn paged_corpus_equals_slice_source() {
        let dir = std::env::temp_dir().join("pm_chip_ingest_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("corpus.bin");
        let bytes: Vec<u8> = (0..10_000u32).map(|i| (i % 251) as u8).collect();
        std::fs::File::create(&path)
            .unwrap()
            .write_all(&bytes)
            .unwrap();

        let symbols: Vec<Symbol> = bytes.iter().map(|&b| Symbol::new(b)).collect();
        let mut corpus = PagedCorpus::open(&path, 777).unwrap();
        assert_eq!(corpus.len(), bytes.len() as u64);
        assert_eq!(corpus.len_hint(), Some(bytes.len() as u64));
        let mut paged = Vec::new();
        while let Some(chunk) = corpus.next_chunk().unwrap() {
            paged.extend_from_slice(chunk);
        }
        assert_eq!(paged, symbols);
        assert_eq!(corpus.consumed(), bytes.len() as u64);

        corpus.rewind();
        let again = corpus.next_chunk().unwrap().unwrap();
        assert_eq!(again, &symbols[..777]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_file_and_empty_slice_yield_nothing() {
        let dir = std::env::temp_dir().join("pm_chip_ingest_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("empty.bin");
        std::fs::File::create(&path).unwrap();
        let mut corpus = PagedCorpus::open(&path, 64).unwrap();
        assert!(corpus.is_empty());
        assert!(corpus.next_chunk().unwrap().is_none());
        let mut slice = SliceSource::new(&[], 8);
        assert!(slice.next_chunk().unwrap().is_none());
        std::fs::remove_file(&path).ok();
    }
}
