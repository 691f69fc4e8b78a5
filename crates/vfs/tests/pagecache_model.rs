//! Model-based check of the per-inode page cache: whatever mix of
//! whole-file writes, writes through open files, truncates and unlinks
//! precedes it, `read_cached` returns the file's current bytes, and the
//! cache holds exactly the pages the model says it does — a write drops
//! the pages it changed and no others, and the pages go with the name.

use pk_percpu::CoreId;
use pk_vfs::pagecache::PAGE_BYTES;
use pk_vfs::{Vfs, VfsConfig, VfsError, Whence};
use proptest::prelude::*;
use std::collections::{BTreeSet, HashMap};

const NAMES: u8 = 4;
/// Up to three pages, so writes land on, before and past cached pages.
const MAX_BYTES: usize = 3 * PAGE_BYTES;

#[derive(Debug, Clone)]
enum Op {
    WriteFile {
        name: u8,
        len: usize,
        seed: u8,
    },
    Write {
        name: u8,
        offset: usize,
        len: usize,
        seed: u8,
    },
    Append {
        name: u8,
        len: usize,
        seed: u8,
    },
    Truncate {
        name: u8,
        len: usize,
    },
    ReadCached {
        name: u8,
    },
    Unlink {
        name: u8,
    },
}

fn op() -> impl Strategy<Value = Op> {
    let name = || 0..NAMES;
    prop_oneof![
        (name(), 0..MAX_BYTES, any::<u8>()).prop_map(|(name, len, seed)| Op::WriteFile {
            name,
            len,
            seed
        }),
        (name(), 0..MAX_BYTES, 0..600usize, any::<u8>()).prop_map(|(name, offset, len, seed)| {
            Op::Write {
                name,
                offset,
                len,
                seed,
            }
        }),
        (name(), 0..3000usize, any::<u8>()).prop_map(|(name, len, seed)| Op::Append {
            name,
            len,
            seed
        }),
        (name(), 0..MAX_BYTES).prop_map(|(name, len)| Op::Truncate { name, len }),
        name().prop_map(|name| Op::ReadCached { name }),
        name().prop_map(|name| Op::ReadCached { name }),
        name().prop_map(|name| Op::Unlink { name }),
    ]
}

fn bytes(len: usize, seed: u8) -> Vec<u8> {
    (0..len).map(|i| seed.wrapping_add(i as u8)).collect()
}

/// One inode of the model: its bytes and which of its pages are cached.
#[derive(Debug, Default)]
struct File {
    data: Vec<u8>,
    cached: BTreeSet<u64>,
}

impl File {
    /// Bytes `from..to` changed: the pages over them leave the cache.
    fn changed(&mut self, from: usize, to: usize) {
        if from < to {
            let (first, last) = ((from / PAGE_BYTES) as u64, ((to - 1) / PAGE_BYTES) as u64);
            self.cached.retain(|index| !(first..=last).contains(index));
        }
    }

    fn write_at(&mut self, offset: usize, buf: &[u8]) {
        let (old, end) = (self.data.len(), offset + buf.len());
        if old < end {
            self.data.resize(end, 0);
        }
        self.data[offset..end].copy_from_slice(buf);
        self.changed(offset.min(old), end);
    }

    fn truncate(&mut self, len: usize) {
        let old = self.data.len();
        self.data.truncate(len);
        self.changed(self.data.len(), old);
    }

    fn read_cached(&mut self) {
        let pages = self.data.len().div_ceil(PAGE_BYTES).max(1) as u64;
        self.cached.extend(0..pages);
    }
}

#[derive(Debug, Default)]
struct Model {
    files: HashMap<u8, File>,
}

impl Model {
    fn file(&mut self, name: u8) -> Option<&mut File> {
        self.files.get_mut(&name)
    }

    fn cached_pages(&self) -> usize {
        self.files.values().map(|f| f.cached.len()).sum()
    }
}

fn path(name: u8) -> String {
    format!("/f{name}")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn read_cached_matches_model(ops in proptest::collection::vec(op(), 1..60)) {
        for cfg in [VfsConfig::stock(4), VfsConfig::pk(4)] {
            let vfs = Vfs::new(cfg);
            let core = CoreId(1);
            let mut model = Model::default();
            // Runs `f` on the open file behind `name`, or checks that the
            // model has no such name either.
            let with_open = |model: &Model, name: u8, f: &dyn Fn(&pk_vfs::OpenFile)| {
                match vfs.open(&path(name), core) {
                    Ok(file) => {
                        f(&file);
                        vfs.close(&file, core);
                        true
                    }
                    Err(VfsError::NotFound) => {
                        assert!(!model.files.contains_key(&name));
                        false
                    }
                    Err(e) => panic!("unexpected: {e}"),
                }
            };
            for op in &ops {
                match *op {
                    Op::WriteFile { name, len, seed } => {
                        let data = bytes(len, seed);
                        vfs.write_file(&path(name), &data, core).unwrap();
                        let file = model.files.entry(name).or_default();
                        file.truncate(0);
                        file.write_at(0, &data);
                    }
                    Op::Write { name, offset, len, seed } => {
                        let data = bytes(len, seed);
                        let opened = with_open(&model, name, &|f| {
                            f.lseek(offset as i64, Whence::Set).unwrap();
                            f.write(&data).unwrap();
                        });
                        if opened {
                            model.file(name).unwrap().write_at(offset, &data);
                        }
                    }
                    Op::Append { name, len, seed } => {
                        let data = bytes(len, seed);
                        if with_open(&model, name, &|f| { f.append(&data).unwrap(); }) {
                            let file = model.file(name).unwrap();
                            file.write_at(file.data.len(), &data);
                        }
                    }
                    Op::Truncate { name, len } => {
                        if with_open(&model, name, &|f| f.inode.truncate(len as u64)) {
                            model.file(name).unwrap().truncate(len);
                        }
                    }
                    Op::ReadCached { name } => match vfs.read_cached(&path(name), core) {
                        Ok(got) => {
                            let file = model.file(name).expect("model has the name");
                            prop_assert_eq!(&got, &file.data);
                            file.read_cached();
                        }
                        Err(VfsError::NotFound) => prop_assert!(model.file(name).is_none()),
                        Err(e) => panic!("unexpected: {e}"),
                    },
                    Op::Unlink { name } => match vfs.unlink(&path(name), core) {
                        Ok(()) => {
                            model.files.remove(&name).expect("model has the name");
                        }
                        Err(VfsError::NotFound) => prop_assert!(model.file(name).is_none()),
                        Err(e) => panic!("unexpected: {e}"),
                    },
                }
                // After every step: the uncached read agrees with the
                // model everywhere, and the cache holds the model's pages
                // — checked before any `read_cached` could refill them.
                prop_assert_eq!(vfs.page_cache().len(), model.cached_pages());
                for name in 0..NAMES {
                    match vfs.read_file(&path(name), core) {
                        Ok(got) => prop_assert_eq!(&got, &model.file(name).unwrap().data),
                        Err(VfsError::NotFound) => prop_assert!(model.file(name).is_none()),
                        Err(e) => panic!("unexpected: {e}"),
                    }
                }
            }
            // Whatever was left cached or dropped, the cached read is current.
            for name in 0..NAMES {
                if let Some(file) = model.file(name) {
                    prop_assert_eq!(&vfs.read_cached(&path(name), core).unwrap(), &file.data);
                    file.read_cached();
                }
            }
            prop_assert_eq!(vfs.page_cache().len(), model.cached_pages());
            prop_assert_eq!(vfs.superblock().open_files(), 0);
        }
    }
}
