//! The output check: each thread's model of the keys it owns.
//!
//! Keys are striped by thread (`key = slot·threads + tid`), so a thread is
//! the only writer of its keys and knows, before every op, what the map
//! must answer. [`KeyModel::exec`] runs one op, compares the map's return
//! value with that expectation, and then records the key's true state
//! (present after any insert, absent after any remove), so one wrong
//! answer counts once instead of cascading.

use epic_ds::{ConcurrentMap, MAX_VALUE};
use epic_smr::SmrHandle;

/// A map operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// `ConcurrentMap::insert`.
    Insert,
    /// `ConcurrentMap::remove`.
    Remove,
    /// `ConcurrentMap::get`.
    Get,
}

impl OpKind {
    /// Every kind, indexed by `kind as usize`.
    pub const ALL: [OpKind; 3] = [OpKind::Insert, OpKind::Remove, OpKind::Get];

    /// Name used in metric names.
    pub fn name(self) -> &'static str {
        match self {
            OpKind::Insert => "insert",
            OpKind::Remove => "remove",
            OpKind::Get => "get",
        }
    }
}

/// The value stored under `key`: a fixed function of the key, so `get`
/// can be checked without remembering values.
pub fn value_of(key: u64) -> u64 {
    (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 1).min(MAX_VALUE)
}

/// One thread's bitmap of the keys in its stripe.
pub struct KeyModel {
    tid: u64,
    threads: u64,
    slots: u64,
    bits: Vec<u64>,
    present: u64,
}

impl KeyModel {
    /// An empty model of `tid`'s stripe of `keys` keys over `threads`.
    pub fn new(tid: usize, threads: usize, keys: u64) -> KeyModel {
        let slots = keys / threads as u64;
        KeyModel {
            tid: tid as u64,
            threads: threads as u64,
            slots,
            bits: vec![0; slots.div_ceil(64) as usize],
            present: 0,
        }
    }

    /// Number of slots (keys) in the stripe.
    pub fn slots(&self) -> u64 {
        self.slots
    }

    /// Keys the model holds.
    pub fn present(&self) -> u64 {
        self.present
    }

    /// The key of `slot`.
    #[inline]
    pub fn key(&self, slot: u64) -> u64 {
        slot * self.threads + self.tid
    }

    /// Whether the model holds `slot`'s key.
    #[inline]
    pub fn contains(&self, slot: u64) -> bool {
        self.bits[(slot / 64) as usize] >> (slot % 64) & 1 == 1
    }

    /// Sets whether the model holds `slot`'s key.
    #[inline]
    pub fn set(&mut self, slot: u64, present: bool) {
        if self.contains(slot) != present {
            self.bits[(slot / 64) as usize] ^= 1 << (slot % 64);
            if present {
                self.present += 1;
            } else {
                self.present -= 1;
            }
        }
    }

    /// Runs `kind` on `slot`'s key through `map`; true if the map's answer
    /// matches the model.
    #[inline]
    pub fn exec(
        &mut self,
        map: &dyn ConcurrentMap,
        h: &SmrHandle,
        kind: OpKind,
        slot: u64,
    ) -> bool {
        let key = self.key(slot);
        let expected = self.contains(slot);
        match kind {
            OpKind::Insert => {
                let inserted = map.insert(h, key, value_of(key));
                self.set(slot, true);
                inserted != expected
            }
            OpKind::Remove => {
                let removed = map.remove(h, key);
                self.set(slot, false);
                removed == expected
            }
            OpKind::Get => map.get(h, key) == expected.then(|| value_of(key)),
        }
    }

    /// The model's keys in ascending order.
    pub fn keys(&self) -> impl Iterator<Item = u64> + '_ {
        (0..self.slots())
            .filter(|&s| self.contains(s))
            .map(|s| self.key(s))
    }
}

/// The sorted union of the models' keys.
pub fn union_keys<'a>(models: impl IntoIterator<Item = &'a KeyModel>) -> Vec<u64> {
    let mut keys: Vec<u64> = models.into_iter().flat_map(KeyModel::keys).collect();
    keys.sort_unstable();
    keys
}

#[cfg(test)]
mod tests {
    use super::*;
    use epic_alloc::{build_allocator, AllocatorKind, CostModel};
    use epic_ds::{build_tree, TreeKind};
    use epic_smr::{build_smr, SmrConfig, SmrKind};

    fn small_tree() -> std::sync::Arc<dyn ConcurrentMap> {
        let alloc = build_allocator(AllocatorKind::Je, 1, CostModel::zero());
        build_tree(
            TreeKind::Ab,
            build_smr(SmrKind::Rcu, alloc, SmrConfig::new(1)),
        )
    }

    #[test]
    fn correct_answers_pass_and_model_tracks_the_map() {
        let tree = small_tree();
        let h = tree.smr().register(0);
        let mut m = KeyModel::new(0, 1, 256);
        assert!(m.exec(&*tree, &h, OpKind::Get, 3));
        assert!(m.exec(&*tree, &h, OpKind::Insert, 3));
        assert!(m.exec(&*tree, &h, OpKind::Insert, 3));
        assert!(m.exec(&*tree, &h, OpKind::Get, 3));
        assert!(m.exec(&*tree, &h, OpKind::Insert, 9));
        assert!(m.exec(&*tree, &h, OpKind::Remove, 3));
        assert!(m.exec(&*tree, &h, OpKind::Remove, 3));
        assert_eq!(m.present(), 1);
        drop(h);
        assert_eq!(union_keys(&[m]), tree.collect_keys());
    }

    #[test]
    fn a_wrong_expectation_is_counted() {
        let tree = small_tree();
        let h = tree.smr().register(0);
        let mut m = KeyModel::new(0, 1, 256);
        assert!(m.exec(&*tree, &h, OpKind::Insert, 5));
        // Deliberately wrong expectation: the model forgets the key.
        m.set(5, false);
        let failed = [OpKind::Get, OpKind::Insert, OpKind::Get]
            .iter()
            .filter(|&&k| !m.exec(&*tree, &h, k, 5))
            .count();
        // The first get and the insert disagree; the insert re-syncs the
        // model, so the last get agrees again.
        assert_eq!(failed, 2);
        m.set(5, false);
        assert!(!m.exec(&*tree, &h, OpKind::Remove, 5));
        drop(h);
        assert_eq!(union_keys(&[m]), tree.collect_keys());
    }

    #[test]
    fn striped_keys_interleave() {
        let mut a = KeyModel::new(0, 2, 16);
        let mut b = KeyModel::new(1, 2, 16);
        a.set(1, true);
        b.set(0, true);
        b.set(1, true);
        assert_eq!(union_keys(&[a, b]), vec![1, 2, 3]);
    }
}
