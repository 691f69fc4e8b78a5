//! The actual pedsort indexing algorithm (§3.6).
//!
//! Each worker runs searchy's two phases:
//!
//! * **Phase 1** — pull input files off a shared work queue (sorted so
//!   large files go first, to avoid stragglers), record word positions
//!   in a per-worker hash table, and whenever the table reaches a fixed
//!   size limit, sort it alphabetically and flush it to an intermediate
//!   index file.
//! * **Phase 2** — merge the intermediate indexes the worker produced,
//!   concatenating position lists, and emit a final index split into
//!   fixed-size chunks ("each core starts a new Berkeley DB every
//!   200,000 entries ... making the aggregate work performed by the
//!   indexer constant regardless of the number of cores").
//!
//! The index files live in the kernel's tmpfs, so phase 1 is both
//! compute- and file-system-intensive exactly as the paper describes.
//!
//! libc file streams "access file contents via mmap" (§5.7), so phase 1
//! maps, touches and unmaps every input file. Under
//! [`PedsortVariant::Threads`] every worker does so through one shared
//! address space, whose region-list lock is the threaded version's
//! serialisation point; the process variants give each worker its own.

use crate::pedsort::PedsortVariant;
use pk_kernel::{Kernel, KernelError};
use pk_mm::{AddressSpace, PageSize};
use pk_percpu::CoreId;
use pk_sync::SpinLock;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;

/// A word occurrence: `(file_id, position)`.
pub type Posting = (u32, u32);

/// Entry limit before a phase-1 hash table is flushed.
pub const DEFAULT_TABLE_LIMIT: usize = 4_096;

/// Entries per final index chunk (the paper uses 200,000; scaled-down
/// corpora use smaller chunks via [`Indexer::with_limits`]).
pub const DEFAULT_CHUNK_ENTRIES: usize = 200_000;

/// The shared phase-1 work queue of `(file_id, path, size)`.
#[derive(Debug)]
struct WorkQueue {
    files: SpinLock<Vec<(u32, String)>>,
}

impl WorkQueue {
    /// Builds a queue sorted so the largest files are processed first
    /// ("to avoid stragglers in phase 1, the initial work queue is
    /// sorted so large files are processed first").
    fn new(mut files: Vec<(u32, String, u64)>) -> Self {
        files.sort_by_key(|f| std::cmp::Reverse(f.2));
        let files = SpinLock::new(files.into_iter().rev().map(|(id, p, _)| (id, p)).collect());
        files.set_class(pk_lockdep::register_class(
            "pedsort.work_queue",
            "pk-workloads",
            pk_lockdep::LockKind::Spin,
        ));
        Self { files }
    }

    fn pop(&self) -> Option<(u32, String)> {
        self.files.lock().pop()
    }
}

/// The pedsort indexer over a kernel's tmpfs.
#[derive(Debug)]
pub struct Indexer {
    kernel: Arc<Kernel>,
    variant: PedsortVariant,
    table_limit: usize,
    chunk_entries: usize,
}

/// Statistics from one indexing run.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct IndexStats {
    /// Input files processed.
    pub files: usize,
    /// Total words (tokens) seen.
    pub tokens: u64,
    /// Intermediate indexes flushed in phase 1.
    pub intermediate_flushes: usize,
    /// Final index chunks written in phase 2.
    pub final_chunks: usize,
    /// Distinct terms in the final index.
    pub distinct_terms: usize,
}

impl Indexer {
    /// Creates an indexer running `variant` with the paper's limits.
    pub fn new(kernel: Arc<Kernel>, variant: PedsortVariant) -> Self {
        Self::with_limits(kernel, variant, DEFAULT_TABLE_LIMIT, DEFAULT_CHUNK_ENTRIES)
    }

    /// Creates an indexer with explicit table/chunk limits (for tests
    /// and scaled-down corpora).
    pub fn with_limits(
        kernel: Arc<Kernel>,
        variant: PedsortVariant,
        table_limit: usize,
        chunk_entries: usize,
    ) -> Self {
        assert!(table_limit > 0 && chunk_entries > 0);
        Self {
            kernel,
            variant,
            table_limit,
            chunk_entries,
        }
    }

    /// Indexes every file under `corpus_dir`, running `workers` workers
    /// (threads), writing output under `out_dir`. Returns per-run stats.
    pub fn run(
        &self,
        corpus_dir: &str,
        out_dir: &str,
        workers: usize,
    ) -> Result<IndexStats, KernelError> {
        assert!(workers > 0);
        let core0 = CoreId(0);
        let vfs = self.kernel.vfs();
        vfs.mkdir_p(out_dir, core0)?;
        // Enumerate the corpus.
        let walker = pk_vfs::PathWalker::new(vfs.tmpfs(), vfs.dcache(), vfs.mounts());
        let dir = walker.resolve(corpus_dir, core0)?;
        let mut files = Vec::new();
        for (i, name) in dir.child_names().into_iter().enumerate() {
            let path = format!("{corpus_dir}/{name}");
            let size = vfs.stat(&path, core0)?.size;
            files.push((i as u32, path, size));
        }
        let file_count = files.len();
        let queue = WorkQueue::new(files);
        let spaces = self.address_spaces(workers);
        self.run_queues(out_dir, &vec![&queue; workers], &spaces, file_count)
    }

    /// The address spaces phase 1 maps through: one for every worker
    /// under [`PedsortVariant::Threads`], one each otherwise.
    fn address_spaces(&self, workers: usize) -> Vec<Arc<AddressSpace>> {
        let n = match self.variant {
            PedsortVariant::Threads => 1,
            PedsortVariant::Procs | PedsortVariant::ProcsRoundRobin => workers,
        };
        (0..n).map(|_| self.kernel.new_address_space()).collect()
    }

    /// The two phases, worker `w` pulling its phase-1 files from
    /// `queues[w]` and mapping them through `spaces[w % spaces.len()]`.
    /// [`Indexer::run`] hands every worker the same shared queue; a test
    /// hands each its own to force a particular split.
    fn run_queues(
        &self,
        out_dir: &str,
        queues: &[&WorkQueue],
        spaces: &[Arc<AddressSpace>],
        file_count: usize,
    ) -> Result<IndexStats, KernelError> {
        // Phase 1 in parallel. Worker errors come back through the join
        // and fail the whole run; only a worker panic (a bug, not a
        // syscall failure) still unwinds.
        let results: Vec<(u64, usize, Vec<String>)> = std::thread::scope(|s| {
            let handles: Vec<_> = queues
                .iter()
                .enumerate()
                .map(|(w, &queue)| {
                    let kernel = Arc::clone(&self.kernel);
                    let space = &spaces[w % spaces.len()];
                    s.spawn(move || phase1(&kernel, queue, space, out_dir, w, self.table_limit))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("phase-1 worker panicked"))
                .collect::<Result<_, _>>()
        })?;
        let tokens: u64 = results.iter().map(|r| r.0).sum();
        let flushes: usize = results.iter().map(|r| r.1).sum();

        // Phase 2 in parallel: each worker merges its own intermediates.
        let merged: Vec<(usize, Vec<String>)> = std::thread::scope(|s| {
            let handles: Vec<_> = results
                .iter()
                .enumerate()
                .map(|(w, (_, _, intermediates))| {
                    let kernel = Arc::clone(&self.kernel);
                    let intermediates = intermediates.clone();
                    s.spawn(move || phase2(&kernel, &intermediates, out_dir, w, self.chunk_entries))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("phase-2 worker panicked"))
                .collect::<Result<_, _>>()
        })?;

        // A term two workers both met is in both their indexes: count it
        // once, over the union, so the figure does not depend on which
        // worker popped which file.
        let final_chunks = merged.iter().map(|m| m.0).sum();
        let terms: BTreeSet<String> = merged.into_iter().flat_map(|m| m.1).collect();
        Ok(IndexStats {
            files: file_count,
            tokens,
            intermediate_flushes: flushes,
            final_chunks,
            distinct_terms: terms.len(),
        })
    }
}

/// Serializes a sorted term→postings map as `term\tfile:pos,file:pos\n`.
fn serialize(map: &BTreeMap<String, Vec<Posting>>) -> Vec<u8> {
    let mut out = Vec::new();
    for (term, posts) in map {
        out.extend_from_slice(term.as_bytes());
        out.push(b'\t');
        for (i, (f, p)) in posts.iter().enumerate() {
            if i > 0 {
                out.push(b',');
            }
            out.extend_from_slice(format!("{f}:{p}").as_bytes());
        }
        out.push(b'\n');
    }
    out
}

/// Parses the `serialize` format back into a map.
///
/// Index files live in the kernel's tmpfs and are re-read through the
/// syscall surface, so malformed bytes (a truncated write, an injected
/// fault) must surface as [`KernelError::Corrupt`] — not a panic.
fn deserialize(data: &[u8]) -> Result<BTreeMap<String, Vec<Posting>>, KernelError> {
    let mut map = BTreeMap::new();
    for line in data.split(|b| *b == b'\n') {
        if line.is_empty() {
            continue;
        }
        let tab = line
            .iter()
            .position(|b| *b == b'\t')
            .ok_or(KernelError::Corrupt("index line missing term/postings tab"))?;
        let term = String::from_utf8(line[..tab].to_vec())
            .map_err(|_| KernelError::Corrupt("index term is not UTF-8"))?;
        let mut posts: Vec<Posting> = Vec::new();
        for s in line[tab + 1..].split(|b| *b == b',') {
            if s.is_empty() {
                continue;
            }
            let s = std::str::from_utf8(s)
                .map_err(|_| KernelError::Corrupt("index posting is not UTF-8"))?;
            let (f, p) = s
                .split_once(':')
                .ok_or(KernelError::Corrupt("index posting missing file:pos colon"))?;
            let f = f
                .parse()
                .map_err(|_| KernelError::Corrupt("index posting file id is not a number"))?;
            let p = p
                .parse()
                .map_err(|_| KernelError::Corrupt("index posting position is not a number"))?;
            posts.push((f, p));
        }
        map.insert(term, posts);
    }
    Ok(map)
}

/// Maps `bytes` of an input file through `space`, touches every page
/// and unmaps it again, tearing the mapping down on every error path.
fn map_input(space: &AddressSpace, bytes: usize, core: usize) -> Result<(), KernelError> {
    let region = space.mmap(bytes.max(1) as u64, PageSize::Base4K)?;
    let touched = space.touch_all(region, core);
    let unmapped = space.munmap(region, core);
    touched?;
    unmapped?;
    Ok(())
}

/// Phase 1 for one worker. Returns `(tokens, flushes, intermediate
/// paths)`.
fn phase1(
    kernel: &Kernel,
    queue: &WorkQueue,
    space: &AddressSpace,
    out_dir: &str,
    worker: usize,
    table_limit: usize,
) -> Result<(u64, usize, Vec<String>), KernelError> {
    let core = CoreId(worker);
    let vfs = kernel.vfs();
    let mut table: HashMap<String, Vec<Posting>> = HashMap::new();
    let mut entries = 0usize;
    let mut tokens = 0u64;
    let mut intermediates = Vec::new();
    let flush = |table: &mut HashMap<String, Vec<Posting>>,
                 intermediates: &mut Vec<String>|
     -> Result<(), KernelError> {
        if table.is_empty() {
            return Ok(());
        }
        // Sort alphabetically and flush to an intermediate index.
        let sorted: BTreeMap<String, Vec<Posting>> = std::mem::take(table).into_iter().collect();
        let path = format!("{out_dir}/w{worker}-int{}.idx", intermediates.len());
        vfs.write_file(&path, &serialize(&sorted), core)?;
        intermediates.push(path);
        Ok(())
    };
    while let Some((file_id, path)) = queue.pop() {
        let data = vfs.read_file(&path, core)?;
        map_input(space, data.len(), worker)?;
        let text = String::from_utf8_lossy(&data);
        for (pos, word) in text.split_whitespace().enumerate() {
            let term = word.to_ascii_lowercase();
            tokens += 1;
            let posts = table.entry(term).or_insert_with(|| {
                entries += 1;
                Vec::new()
            });
            posts.push((file_id, pos as u32));
            if entries >= table_limit {
                flush(&mut table, &mut intermediates)?;
                entries = 0;
            }
        }
    }
    flush(&mut table, &mut intermediates)?;
    let flushes = intermediates.len();
    Ok((tokens, flushes, intermediates))
}

/// Phase 2 for one worker: merge its intermediates, emit chunked final
/// indexes. Returns `(chunks, the terms it indexed)`.
fn phase2(
    kernel: &Kernel,
    intermediates: &[String],
    out_dir: &str,
    worker: usize,
    chunk_entries: usize,
) -> Result<(usize, Vec<String>), KernelError> {
    let core = CoreId(worker);
    let vfs = kernel.vfs();
    // Merge, concatenating position lists of words that appear in
    // multiple intermediate indexes.
    let mut merged: BTreeMap<String, Vec<Posting>> = BTreeMap::new();
    for path in intermediates {
        let data = vfs.read_file(path, core)?;
        for (term, mut posts) in deserialize(&data)? {
            merged.entry(term).or_default().append(&mut posts);
        }
        vfs.unlink(path, core)?;
    }
    let terms = merged.keys().cloned().collect();
    for posts in merged.values_mut() {
        posts.sort_unstable();
    }
    // Emit in chunks of `chunk_entries` ("a new Berkeley DB every
    // 200,000 entries").
    let mut chunks = 0usize;
    let mut current: BTreeMap<String, Vec<Posting>> = BTreeMap::new();
    let write_chunk =
        |map: &BTreeMap<String, Vec<Posting>>, chunks: &mut usize| -> Result<(), KernelError> {
            if map.is_empty() {
                return Ok(());
            }
            let path = format!("{out_dir}/w{worker}-final{chunks}.db");
            vfs.write_file(&path, &serialize(map), core)?;
            *chunks += 1;
            Ok(())
        };
    for (term, posts) in merged {
        current.insert(term, posts);
        if current.len() >= chunk_entries {
            write_chunk(&current, &mut chunks)?;
            current.clear();
        }
    }
    write_chunk(&current, &mut chunks)?;
    Ok((chunks, terms))
}

/// Loads an entire final index (all chunks of all workers) for
/// verification.
pub fn load_final_index(
    kernel: &Kernel,
    out_dir: &str,
) -> Result<BTreeMap<String, Vec<Posting>>, KernelError> {
    let core = CoreId(0);
    let vfs = kernel.vfs();
    let walker = pk_vfs::PathWalker::new(vfs.tmpfs(), vfs.dcache(), vfs.mounts());
    let dir = walker.resolve(out_dir, core)?;
    let mut all: BTreeMap<String, Vec<Posting>> = BTreeMap::new();
    for name in dir.child_names() {
        if !name.ends_with(".db") {
            continue;
        }
        let data = vfs.read_file(&format!("{out_dir}/{name}"), core)?;
        for (term, mut posts) in deserialize(&data)? {
            all.entry(term).or_default().append(&mut posts);
        }
    }
    for posts in all.values_mut() {
        posts.sort_unstable();
    }
    Ok(all)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pk_kernel::KernelConfig;
    use pk_kernel::Personality;
    use std::sync::atomic::Ordering;
    use PedsortVariant::{Procs, Threads};

    fn corpus(kernel: &Kernel, files: &[&str]) {
        let core = CoreId(0);
        kernel.vfs().mkdir_p("/corpus", core).unwrap();
        for (i, text) in files.iter().enumerate() {
            kernel
                .vfs()
                .write_file(&format!("/corpus/doc{i}"), text.as_bytes(), core)
                .unwrap();
        }
    }

    #[test]
    fn indexes_a_small_corpus() {
        let kernel = Arc::new(Kernel::new(KernelConfig::pk(4)));
        corpus(&kernel, &["alpha beta alpha", "beta gamma", "delta"]);
        let idx = Indexer::with_limits(Arc::clone(&kernel), Procs, 64, 64);
        let stats = idx.run("/corpus", "/out", 2).unwrap();
        assert_eq!(stats.files, 3);
        assert_eq!(stats.tokens, 6);
        assert_eq!(stats.distinct_terms, 4);
        let index = load_final_index(&kernel, "/out").unwrap();
        // "alpha" appears at positions 0 and 2 of doc0 (file ids follow
        // enumeration order of the sorted directory listing).
        let alpha = index.get("alpha").unwrap();
        assert_eq!(alpha.len(), 2);
        assert_eq!(alpha[0].0, alpha[1].0, "same file");
        assert_eq!((alpha[0].1, alpha[1].1), (0, 2));
        assert_eq!(index.get("gamma").unwrap().len(), 1);
    }

    #[test]
    fn a_term_two_workers_both_saw_is_counted_once() {
        // Regression: `distinct_terms` summed each worker's own count, so
        // it read 5 here whenever the files split this way ("beta" is in
        // doc0 and doc1) and 4 when one worker drained the queue first.
        // Each worker gets its own queue, so the split is forced.
        let kernel = Arc::new(Kernel::new(KernelConfig::pk(4)));
        corpus(&kernel, &["alpha beta alpha", "beta gamma", "delta"]);
        kernel.vfs().mkdir_p("/out", CoreId(0)).unwrap();
        let doc = |i: u32| (i, format!("/corpus/doc{i}"), 1);
        let (w0, w1) = (
            WorkQueue::new(vec![doc(0)]),
            WorkQueue::new(vec![doc(1), doc(2)]),
        );
        let idx = Indexer::with_limits(Arc::clone(&kernel), Procs, 64, 64);
        let stats = idx
            .run_queues("/out", &[&w0, &w1], &idx.address_spaces(2), 3)
            .unwrap();
        assert_eq!(stats.tokens, 6);
        assert_eq!(stats.final_chunks, 2, "both workers indexed something");
        assert_eq!(stats.distinct_terms, 4);
        assert_eq!(load_final_index(&kernel, "/out").unwrap().len(), 4);
    }

    #[test]
    fn results_are_identical_across_worker_counts() {
        let texts: Vec<String> = (0..12)
            .map(|i| format!("w{} common shared tokens row {}", i % 5, i))
            .collect();
        let refs: Vec<&str> = texts.iter().map(|s| s.as_str()).collect();
        let mut baseline = None;
        for (variant, workers) in [(Threads, 1), (Threads, 4), (Procs, 2), (Procs, 4)] {
            let kernel = Arc::new(Kernel::new(KernelConfig::pk(4)));
            corpus(&kernel, &refs);
            let idx = Indexer::with_limits(Arc::clone(&kernel), variant, 16, 32);
            let stats = idx.run("/corpus", "/out", workers).unwrap();
            assert_eq!(stats.tokens, 72);
            let index = load_final_index(&kernel, "/out").unwrap();
            let what = format!("{variant:?} workers={workers}");
            assert_eq!(stats.distinct_terms, index.len(), "{what}");
            match &baseline {
                None => baseline = Some(index),
                Some(b) => assert_eq!(b, &index, "{what}"),
            }
        }
    }

    #[test]
    fn threads_share_one_address_space_and_procs_get_one_each() {
        for (variant, spaces) in [(Threads, 1), (Procs, 2)] {
            let kernel = Arc::new(Kernel::new(Personality::Stock.config(2)));
            corpus(&kernel, &["a b", "b c", "c d", "d a", "a", "b"]);
            kernel.vfs().mkdir_p("/out", CoreId(0)).unwrap();
            let doc = |i: u32| (i, format!("/corpus/doc{i}"), 1);
            let (w0, w1) = (
                WorkQueue::new((0..3).map(doc).collect()),
                WorkQueue::new((3..6).map(doc).collect()),
            );
            let idx = Indexer::with_limits(Arc::clone(&kernel), variant, 64, 64);
            let asps = idx.address_spaces(2);
            assert_eq!(asps.len(), spaces, "{variant:?}");
            idx.run_queues("/out", &[&w0, &w1], &asps, 6).unwrap();
            // Every file took the region-list write lock twice, all on
            // the one space under threads, and left no mapping behind.
            let stats = kernel.mm_stats();
            assert_eq!(stats.mmaps.load(Ordering::Relaxed), 6, "{variant:?}");
            assert_eq!(stats.munmaps.load(Ordering::Relaxed), 6, "{variant:?}");
            for space in &asps {
                assert_eq!(space.region_count(), 0, "{variant:?}");
            }
        }
    }

    #[test]
    fn small_table_limit_forces_flushes() {
        let kernel = Arc::new(Kernel::new(KernelConfig::pk(2)));
        corpus(&kernel, &["a b c d e f g h i j k l m n o p"]);
        let idx = Indexer::with_limits(Arc::clone(&kernel), Threads, 4, 1000);
        let stats = idx.run("/corpus", "/out", 1).unwrap();
        assert!(
            stats.intermediate_flushes >= 4,
            "16 distinct terms over limit-4 tables: {}",
            stats.intermediate_flushes
        );
        assert_eq!(stats.distinct_terms, 16);
    }

    #[test]
    fn chunking_splits_the_final_index() {
        let kernel = Arc::new(Kernel::new(KernelConfig::pk(2)));
        corpus(&kernel, &["one two three four five six seven eight"]);
        let idx = Indexer::with_limits(Arc::clone(&kernel), Threads, 1000, 3);
        let stats = idx.run("/corpus", "/out", 1).unwrap();
        assert_eq!(stats.final_chunks, 3, "8 terms / 3 per chunk");
        let index = load_final_index(&kernel, "/out").unwrap();
        assert_eq!(index.len(), 8);
    }

    #[test]
    fn stock_and_pk_kernels_agree() {
        let texts = ["the quick brown fox", "jumps over the lazy dog"];
        let mut indexes = Vec::new();
        for choice in [Personality::Stock, Personality::Pk] {
            let kernel = Arc::new(Kernel::new(choice.config(2)));
            corpus(&kernel, &texts);
            let variant = crate::roster::pairing(choice).pedsort;
            Indexer::with_limits(Arc::clone(&kernel), variant, 8, 8)
                .run("/corpus", "/out", 2)
                .unwrap();
            indexes.push(load_final_index(&kernel, "/out").unwrap());
        }
        assert_eq!(indexes[0], indexes[1]);
    }
}
