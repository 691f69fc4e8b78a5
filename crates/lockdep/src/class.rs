//! Lock classes and the per-lock class cell.
//!
//! Following Linux lockdep, validation happens per *class* of lock, not
//! per instance: all dentry `d_lock`s share one class, so an ordering
//! observed between any dentry lock and any inode lock stands for the
//! whole population. Locks that never call
//! [`set_class`](ClassCell::set_class) are lazily given a fresh
//! anonymous class on first acquisition, so distinct unclassified locks
//! are never aliased into false cycles.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Mutex, OnceLock};

/// The kind of lock a class covers; selects which rules apply to it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LockKind {
    /// Test-and-test-and-set spin lock.
    Spin,
    /// FIFO ticket spin lock.
    Ticket,
    /// MCS queue spin lock.
    Mcs,
    /// Sequence-lock write side.
    SeqWrite,
    /// A lock whose slow path yields the CPU (adaptive mutex). Only
    /// this kind is forbidden inside an epoch read-side section.
    Blocking,
}

impl LockKind {
    /// Whether acquiring this kind may block (yield) rather than spin.
    pub fn is_blocking(self) -> bool {
        matches!(self, Self::Blocking)
    }

    /// Short human-readable label.
    pub fn label(self) -> &'static str {
        match self {
            Self::Spin => "spin",
            Self::Ticket => "ticket",
            Self::Mcs => "mcs",
            Self::SeqWrite => "seqwrite",
            Self::Blocking => "blocking",
        }
    }
}

/// Identifier of a registered lock class. `0` means "not yet classified".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ClassId(pub(crate) u32);

impl ClassId {
    /// The sentinel for locks that have not been classified.
    pub const UNSET: ClassId = ClassId(0);

    /// The raw registry index (for compact storage, e.g. trace events).
    #[inline]
    pub const fn raw(self) -> u32 {
        self.0
    }

    /// Reconstructs an id from [`raw`](Self::raw). Unknown ids resolve
    /// to a placeholder name, never undefined behavior.
    #[inline]
    pub const fn from_raw(raw: u32) -> Self {
        ClassId(raw)
    }
}

/// The per-lock slot holding its class assignment.
///
/// Every `pk-sync` lock embeds one. The class *registry* (this cell and
/// the name table) is always compiled — `pk-trace` uses it to name lock
/// spans — but with the `lockdep` feature off none of the validation
/// hooks touch it, so uninstrumented builds pay one `AtomicU32` per lock
/// and nothing else.
#[derive(Debug)]
pub struct ClassCell {
    pub(crate) id: AtomicU32,
}

impl ClassCell {
    /// Creates an unclassified cell.
    pub const fn new() -> Self {
        Self {
            id: AtomicU32::new(0),
        }
    }

    /// Assigns this lock to `class`. Idempotent; later assignments win.
    #[inline]
    pub fn set_class(&self, class: ClassId) {
        self.id.store(class.0, Ordering::Relaxed);
    }

    /// Returns the assigned class, if any.
    #[inline]
    pub fn class(&self) -> Option<ClassId> {
        match self.id.load(Ordering::Relaxed) {
            0 => None,
            id => Some(ClassId(id)),
        }
    }
}

impl Default for ClassCell {
    fn default() -> Self {
        Self::new()
    }
}

/// Registers (or looks up) the lock class `name`, owned by crate
/// `krate`, of the given `kind`. Registration is idempotent: the same
/// name always yields the same [`ClassId`], so constructors can call
/// this unconditionally.
///
/// The registry is always compiled (lock *names* feed both the lockdep
/// reports and `pk-trace` lock spans); only the validation hooks are
/// gated behind the `lockdep` feature.
#[inline]
pub fn register_class(name: &str, krate: &str, kind: LockKind) -> ClassId {
    imp::intern(name, krate, kind)
}

/// A lock class declared once as a `static` and registered on first
/// use — the twin of `pk_trace::LazySpanClass` — for constructors that
/// run per object (every inode, dentry, mapping): after the first
/// [`id`](Self::id) the class costs one `OnceLock` load, not a trip
/// through the registry's mutex and name map.
///
/// Registration still happens at the first construction, so class ids
/// come out in the order they always did.
#[derive(Debug)]
pub struct LazyClass {
    name: &'static str,
    krate: &'static str,
    kind: LockKind,
    id: OnceLock<ClassId>,
}

impl LazyClass {
    /// Declares a class. `const` so it can live in a `static`.
    pub const fn new(name: &'static str, krate: &'static str, kind: LockKind) -> Self {
        Self {
            name,
            krate,
            kind,
            id: OnceLock::new(),
        }
    }

    /// The declared name.
    pub const fn name(&self) -> &'static str {
        self.name
    }

    /// The class id, registering the class on first use.
    #[inline]
    pub fn id(&self) -> ClassId {
        *self
            .id
            .get_or_init(|| register_class(self.name, self.krate, self.kind))
    }
}

/// Resolves the class id of the lock owning `cell`, minting a fresh
/// anonymous class on first use for unclassified locks (so distinct
/// instances are never aliased). This is the always-compiled lookup
/// `pk-trace` uses to name lock hold spans.
#[inline]
pub fn classify(cell: &ClassCell, kind: LockKind) -> ClassId {
    ClassId(imp::resolve(cell, kind))
}

/// Human-readable name of class `id` (a placeholder for unknown ids).
pub fn class_name(id: ClassId) -> String {
    imp::name_of(id.0)
}

/// Metadata of one registered class.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClassInfo {
    /// Dotted class name, e.g. `vfs.dentry.d_lock`.
    pub name: String,
    /// Crate that registered it.
    pub krate: String,
    /// The lock kind.
    pub kind: LockKind,
}

/// Returns every registered class (including anonymous ones), indexed
/// by `ClassId - 1`.
pub fn classes() -> Vec<ClassInfo> {
    imp::table()
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .infos
        .clone()
}

pub(crate) mod imp {
    use super::*;

    #[derive(Default)]
    pub(crate) struct ClassTable {
        pub(crate) infos: Vec<ClassInfo>,
        by_name: HashMap<String, u32>,
    }

    pub(crate) fn table() -> &'static Mutex<ClassTable> {
        static TABLE: OnceLock<Mutex<ClassTable>> = OnceLock::new();
        TABLE.get_or_init(|| Mutex::new(ClassTable::default()))
    }

    pub(crate) fn intern(name: &str, krate: &str, kind: LockKind) -> ClassId {
        let mut t = table().lock().unwrap_or_else(|e| e.into_inner());
        if let Some(&id) = t.by_name.get(name) {
            return ClassId(id);
        }
        t.infos.push(ClassInfo {
            name: name.to_string(),
            krate: krate.to_string(),
            kind,
        });
        let id = t.infos.len() as u32; // ids start at 1
        t.by_name.insert(name.to_string(), id);
        ClassId(id)
    }

    /// Mints a fresh anonymous class for an unclassified lock instance.
    pub(crate) fn anon(kind: LockKind) -> ClassId {
        let mut t = table().lock().unwrap_or_else(|e| e.into_inner());
        let id = t.infos.len() as u32 + 1;
        let name = format!("anon.{}#{id}", kind.label());
        t.infos.push(ClassInfo {
            name: name.clone(),
            krate: "?".to_string(),
            kind,
        });
        t.by_name.insert(name, id);
        ClassId(id)
    }

    /// Name of class `id`, or a placeholder for unknown ids.
    pub(crate) fn name_of(id: u32) -> String {
        let t = table().lock().unwrap_or_else(|e| e.into_inner());
        t.infos
            .get(id.wrapping_sub(1) as usize)
            .map(|c| c.name.clone())
            .unwrap_or_else(|| format!("class#{id}"))
    }

    /// Resolves a cell to a class id, minting an anonymous class for
    /// unclassified locks on first use.
    pub(crate) fn resolve(cell: &ClassCell, kind: LockKind) -> u32 {
        let id = cell.id.load(Ordering::Relaxed);
        if id != 0 {
            return id;
        }
        let fresh = anon(kind);
        match cell
            .id
            .compare_exchange(0, fresh.0, Ordering::Relaxed, Ordering::Relaxed)
        {
            Ok(_) => fresh.0,
            // Another thread classified it first; its id wins (the
            // anonymous entry we minted stays as an unused row).
            Err(existing) => existing,
        }
    }
}
