//! Model test of the namespace tmpfs keeps: seeded sequences of file
//! creates, mkdirs, unlinks (of files, empty and non-empty directories)
//! and renames over a three-level tree, against a `BTreeMap` of path →
//! kind. Every error the model predicts (`Exists`, `NotFound`,
//! `NotEmpty`, `NotADirectory`) must be the one the VFS returns, and the
//! live inode count must be the model's entries plus the root. A
//! directory entry records its inode's kind, so an unlink that trusted
//! a wrong kind would free a directory without its emptiness check.

use pk_percpu::CoreId;
use pk_vfs::{InodeKind, PathWalker, Vfs, VfsConfig, VfsError};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// Component names: three, so paths collide often.
const NAMES: [&str; 3] = ["a", "b", "c"];

#[derive(Debug, Clone)]
enum Op {
    Create(Vec<u8>),
    Mkdir(Vec<u8>),
    Unlink(Vec<u8>),
    Rename(Vec<u8>, Vec<u8>),
}

fn path() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(0..NAMES.len() as u8, 1..4)
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        path().prop_map(Op::Create),
        path().prop_map(Op::Mkdir),
        path().prop_map(Op::Unlink),
        (path(), path()).prop_map(|(a, b)| Op::Rename(a, b)),
    ]
}

fn text(comps: &[u8]) -> String {
    comps
        .iter()
        .map(|&c| format!("/{}", NAMES[c as usize]))
        .collect()
}

/// The namespace as the VFS should keep it: every path below the root,
/// with its kind.
#[derive(Default)]
struct Model(BTreeMap<String, InodeKind>);

impl Model {
    /// What resolving the parent of `comps` fails with, if anything: the
    /// first missing component is `NotFound`, the first file met on the
    /// way `NotADirectory`.
    fn parent_error(&self, comps: &[u8]) -> Option<VfsError> {
        (1..comps.len()).find_map(|n| match self.0.get(&text(&comps[..n])) {
            None => Some(VfsError::NotFound),
            Some(InodeKind::File) => Some(VfsError::NotADirectory),
            Some(InodeKind::Dir) => None,
        })
    }

    fn make(&mut self, comps: &[u8], kind: InodeKind) -> Result<(), VfsError> {
        self.parent_error(comps).map_or(Ok(()), Err)?;
        match self.0.entry(text(comps)) {
            std::collections::btree_map::Entry::Occupied(_) => Err(VfsError::Exists),
            std::collections::btree_map::Entry::Vacant(v) => {
                v.insert(kind);
                Ok(())
            }
        }
    }

    fn unlink(&mut self, comps: &[u8]) -> Result<(), VfsError> {
        self.parent_error(comps).map_or(Ok(()), Err)?;
        let path = text(comps);
        let kind = *self.0.get(&path).ok_or(VfsError::NotFound)?;
        if kind == InodeKind::Dir && self.descendants(&path).next().is_some() {
            return Err(VfsError::NotEmpty);
        }
        self.0.remove(&path);
        Ok(())
    }

    fn rename(&mut self, from: &[u8], to: &[u8]) -> Result<(), VfsError> {
        self.parent_error(from).map_or(Ok(()), Err)?;
        self.parent_error(to).map_or(Ok(()), Err)?;
        let (old, new) = (text(from), text(to));
        let kind = *self.0.get(&old).ok_or(VfsError::NotFound)?;
        if self.0.contains_key(&new) {
            return Err(VfsError::Exists);
        }
        let moved: Vec<(String, InodeKind)> = (self.descendants(&old))
            .map(|(p, &k)| (format!("{new}{}", &p[old.len()..]), k))
            .collect();
        self.0
            .retain(|p, _| *p != old && !p.starts_with(&format!("{old}/")));
        self.0.insert(new, kind);
        self.0.extend(moved);
        Ok(())
    }

    fn descendants<'m>(&'m self, dir: &str) -> impl Iterator<Item = (&'m String, &'m InodeKind)> {
        let prefix = format!("{dir}/");
        self.0
            .range(prefix.clone()..)
            .take_while(move |(p, _)| p.starts_with(&prefix))
    }
}

/// One `mkdir(2)`: the parent resolved through the walker, the
/// directory made in tmpfs (the VFS itself only offers `mkdir_p`).
fn mkdir(vfs: &Vfs, path: &str, core: CoreId) -> Result<(), VfsError> {
    let walker = PathWalker::new(vfs.tmpfs(), vfs.dcache(), vfs.mounts());
    let pl = walker.resolve_parent(path, core)?;
    vfs.tmpfs()
        .create_child(&pl.parent, pl.name, InodeKind::Dir)?;
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn tmpfs_matches_a_path_model(ops in proptest::collection::vec(op(), 1..60)) {
        for cfg in [VfsConfig::stock(2), VfsConfig::pk(2)] {
            let vfs = Vfs::new(cfg);
            let mut model = Model::default();
            for (i, op) in ops.iter().enumerate() {
                let core = CoreId(i % 2);
                let (got, want) = match op {
                    Op::Create(p) => (
                        vfs.create(&text(p), core).map(|f| vfs.close(&f, core)),
                        model.make(p, InodeKind::File),
                    ),
                    Op::Mkdir(p) => (mkdir(&vfs, &text(p), core), model.make(p, InodeKind::Dir)),
                    Op::Unlink(p) => (vfs.unlink(&text(p), core), model.unlink(p)),
                    // A directory moved under itself would cut its subtree
                    // off the tree; `rename` does not check for that, so
                    // the model does not try it.
                    Op::Rename(a, b) if b.len() > a.len() && b.starts_with(a) => continue,
                    Op::Rename(a, b) => (vfs.rename(&text(a), &text(b), core), model.rename(a, b)),
                };
                prop_assert_eq!(got, want, "op {} {:?}", i, op);
                prop_assert_eq!(vfs.tmpfs().inode_count(), model.0.len() + 1, "op {} {:?}", i, op);
            }
            for (path, &kind) in &model.0 {
                prop_assert_eq!(vfs.stat(path, CoreId(0)).map(|s| s.kind), Ok(kind), "{}", path);
            }
        }
    }
}
