//! Property tests on the process store: under arbitrary write sequences,
//! reads return the last write, versions grow by one per write, and the
//! sorted dump agrees with point reads.

use proptest::prelude::*;
use sgcr_kvstore::{ProcessStore, Value};
use std::collections::BTreeMap;

fn writes() -> impl Strategy<Value = Vec<(u8, i64)>> {
    proptest::collection::vec((0u8..16, any::<i64>()), 0..100)
}

proptest! {
    #[test]
    fn reads_return_the_last_write_and_versions_grow(writes in writes()) {
        let store = ProcessStore::new();
        let mut model: BTreeMap<String, (i64, u64)> = BTreeMap::new();
        for (i, &(k, v)) in writes.iter().enumerate() {
            let key = format!("k{k:02}");
            let version = store.set(&key, Value::Int(v));
            prop_assert_eq!(version, i as u64 + 1);
            prop_assert_eq!(store.version(), version);
            model.insert(key, (v, version));
        }
        for (key, &(value, version)) in &model {
            prop_assert_eq!(store.get(key), Some(Value::Int(value)));
            let entry = store.entry(key).expect("written key is present");
            prop_assert_eq!(entry.value, Value::Int(value));
            prop_assert_eq!(entry.version, version);
        }
        prop_assert_eq!(store.get("absent"), None);
    }

    #[test]
    fn dump_is_sorted_and_agrees_with_get(writes in writes()) {
        let store = ProcessStore::new();
        let mut keys = std::collections::BTreeSet::new();
        for &(k, v) in &writes {
            let key = format!("k{}", k % 8);
            store.set(&key, Value::Int(v));
            keys.insert(key);
        }
        let dump = store.dump();
        let dumped: Vec<&String> = dump.iter().map(|(key, _)| key).collect();
        prop_assert_eq!(dumped, keys.iter().collect::<Vec<_>>());
        for (key, entry) in &dump {
            prop_assert_eq!(store.entry(key), Some(entry.clone()));
            prop_assert!(entry.version >= 1 && entry.version <= store.version());
        }
    }
}
