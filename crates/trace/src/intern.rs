//! The global intern table for span-class names.
//!
//! Hot paths record `u32` ids; the string forms are resolved post-hoc
//! by the profiler and exporters. Interning is idempotent (same string,
//! same id), so ids are stable within a process and — because every
//! deterministic harness interns in program order — across runs at a
//! fixed seed.
//!
//! Span classes use dotted names in the same style as the lockdep lock
//! classes (`kernel.fork`, `rcu.read`, `des.op`); the two namespaces
//! stay distinct because lock events carry a `pk-lockdep` `ClassId`
//! instead (see `EventKind::is_lock`).

use std::collections::HashMap;
use std::sync::{Mutex, OnceLock};

#[derive(Default)]
struct Table {
    names: Vec<String>,
    by_name: HashMap<String, u32>,
}

impl Table {
    fn intern(&mut self, name: &str) -> u32 {
        if let Some(&id) = self.by_name.get(name) {
            return id;
        }
        self.names.push(name.to_string());
        let id = self.names.len() as u32; // ids start at 1; 0 = unknown
        self.by_name.insert(name.to_string(), id);
        id
    }

    fn name_of(&self, id: u32) -> String {
        self.names
            .get(id.wrapping_sub(1) as usize)
            .cloned()
            .unwrap_or_else(|| format!("span#{id}"))
    }
}

fn spans() -> &'static Mutex<Table> {
    static T: OnceLock<Mutex<Table>> = OnceLock::new();
    T.get_or_init(|| Mutex::new(Table::default()))
}

/// Interns a span-class name, returning its stable id (≥ 1).
pub fn intern_span(name: &str) -> u32 {
    spans()
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .intern(name)
}

/// Resolves a span-class id back to its name.
pub fn span_name(id: u32) -> String {
    spans()
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .name_of(id)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent_and_resolves() {
        let a = intern_span("test.intern.alpha");
        let b = intern_span("test.intern.alpha");
        let c = intern_span("test.intern.beta");
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(span_name(a), "test.intern.alpha");
        assert_eq!(span_name(c), "test.intern.beta");
    }

    #[test]
    fn unknown_ids_get_placeholders_not_panics() {
        assert!(span_name(u32::MAX).starts_with("span#"));
    }
}
