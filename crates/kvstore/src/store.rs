//! The concurrent, versioned process store.

use crate::value::Value;
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A stored entry: the value plus the global version at which it was written.
#[derive(Debug, Clone, PartialEq)]
pub struct Entry {
    /// Current value.
    pub value: Value,
    /// Global store version assigned to the write that produced this value.
    pub version: u64,
}

/// Concurrent key-value cache coupling cyber emulation and power simulation.
///
/// Cloning is cheap: clones share the same underlying map (the store is the
/// single "database host" of the cyber range; every virtual device holds a
/// handle to it, exactly as every virtual IED in the paper connects to the
/// single MySQL instance).
#[derive(Debug, Clone, Default)]
pub struct ProcessStore {
    inner: Arc<Inner>,
}

#[derive(Debug, Default)]
struct Inner {
    map: RwLock<HashMap<String, Entry>>,
    version: AtomicU64,
}

impl ProcessStore {
    /// Creates an empty store at version 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// The current global version (total number of writes so far).
    pub fn version(&self) -> u64 {
        self.inner.version.load(Ordering::SeqCst)
    }

    /// Reads the current value for `key`.
    pub fn get(&self, key: &str) -> Option<Value> {
        self.inner.map.read().get(key).map(|e| e.value.clone())
    }

    /// Reads the full entry (value + version) for `key`.
    pub fn entry(&self, key: &str) -> Option<Entry> {
        self.inner.map.read().get(key).cloned()
    }

    /// Convenience: reads a float (accepting `Int` as float).
    pub fn get_float(&self, key: &str) -> Option<f64> {
        self.get(key).and_then(|v| v.as_float())
    }

    /// Convenience: reads a boolean.
    pub fn get_bool(&self, key: &str) -> Option<bool> {
        self.get(key).and_then(|v| v.as_bool())
    }

    /// Writes `value` under `key`, returning the version assigned.
    pub fn set(&self, key: &str, value: impl Into<Value>) -> u64 {
        let value = value.into();
        let mut map = self.inner.map.write();
        let version = self.inner.version.fetch_add(1, Ordering::SeqCst) + 1;
        map.insert(key.to_string(), Entry { value, version });
        version
    }

    /// A point-in-time copy of every entry with its write version, sorted by
    /// key — the store's contribution to a mid-run checkpoint. The versions
    /// let two deterministic runs be compared write-for-write, not just
    /// value-for-value.
    pub fn dump(&self) -> Vec<(String, Entry)> {
        let map = self.inner.map.read();
        let mut dump: Vec<(String, Entry)> =
            map.iter().map(|(k, e)| (k.clone(), e.clone())).collect();
        dump.sort_by(|a, b| a.0.cmp(&b.0));
        dump
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn set_get() {
        let s = ProcessStore::new();
        assert_eq!(s.get("x"), None);
        s.set("x", 1.5f64);
        assert_eq!(s.get_float("x"), Some(1.5));
        assert_eq!(s.get("x"), Some(Value::Float(1.5)));
    }

    #[test]
    fn versions_monotonic() {
        let s = ProcessStore::new();
        let v1 = s.set("a", 1i64);
        let v2 = s.set("b", 2i64);
        let v3 = s.set("a", 3i64);
        assert!(v1 < v2 && v2 < v3);
        assert_eq!(s.version(), v3);
        assert_eq!(s.entry("a").unwrap().version, v3);
    }

    #[test]
    fn shared_between_clones() {
        let s = ProcessStore::new();
        let s2 = s.clone();
        s.set("x", 42i64);
        assert_eq!(s2.get("x"), Some(Value::Int(42)));
    }

    #[test]
    fn concurrent_writers_unique_versions() {
        let s = ProcessStore::new();
        let mut handles = Vec::new();
        for t in 0..8 {
            let s = s.clone();
            handles.push(thread::spawn(move || {
                let mut versions = Vec::new();
                for i in 0..100 {
                    versions.push(s.set(&format!("k{t}"), i as i64));
                }
                versions
            }));
        }
        let mut all: Vec<u64> = handles
            .into_iter()
            .flat_map(|h| h.join().expect("writer thread"))
            .collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 800, "every write got a unique version");
        assert_eq!(s.version(), 800);
    }
}
