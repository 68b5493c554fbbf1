//! The symbolic dictionary stub.
//!
//! Section 6, transformation (iv): NICE substitutes Python's built-in
//! dictionary "with a special stub that exposes the constraints". Controller
//! applications keep their state in dictionaries keyed by packet header
//! fields (the MAC-learning table of Figure 3, the flow table of the load
//! balancer); when such a dictionary is indexed with a *symbolic* key, the
//! lookup itself becomes a source of path constraints — the key may alias
//! any existing entry, or none of them.
//!
//! [`SymMap`] is that stub. Under concrete execution (model checking) it
//! behaves exactly like a `BTreeMap<u64, V>` and costs no branching. Under
//! concolic execution, a symbolic key is compared against the existing keys
//! through [`Env::branch`], so the explorer automatically discovers the
//! equivalence classes "key aliases entry k" and "key is absent".

use crate::env::Env;
use crate::value::SymValue;
use nice_openflow::{Fingerprint, Fnv64};
use std::collections::BTreeMap;

/// A map keyed by (possibly symbolic) integers.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SymMap<V> {
    /// Entries inserted with concrete keys.
    base: BTreeMap<u64, V>,
    /// Entries inserted with symbolic keys during a concolic run. The model
    /// checker never populates this (its packets are concrete); the overlay
    /// lives only for the duration of one symbolic handler execution on a
    /// throw-away clone of the controller state.
    overlay: Vec<(SymValue, V)>,
}

impl<V: Clone> SymMap<V> {
    /// Creates an empty map.
    pub fn new() -> Self {
        SymMap {
            base: BTreeMap::new(),
            overlay: Vec::new(),
        }
    }

    /// Number of concrete entries.
    pub fn len(&self) -> usize {
        self.base.len()
    }

    /// True if the map holds no concrete entries.
    pub fn is_empty(&self) -> bool {
        self.base.is_empty()
    }

    /// True if any entries were inserted under symbolic keys (only possible
    /// during concolic execution).
    pub fn has_symbolic_entries(&self) -> bool {
        !self.overlay.is_empty()
    }

    /// Inserts a value under a possibly-symbolic key.
    pub fn insert(&mut self, key: SymValue, value: V) {
        match key.as_concrete() {
            Some(k) => {
                self.base.insert(k, value);
            }
            None => self.overlay.push((key, value)),
        }
    }

    /// Inserts under a concrete key.
    pub fn insert_concrete(&mut self, key: u64, value: V) {
        self.base.insert(key, value);
    }

    /// Looks up a value. With a symbolic key the lookup branches (through
    /// `env`) over aliasing with the most recent symbolic insertions first,
    /// then each concrete entry, then "absent".
    pub fn get(&self, key: &SymValue, env: &mut dyn Env) -> Option<V> {
        // Newest symbolic insertions shadow older entries, like overwriting a
        // dict slot would.
        for (k, v) in self.overlay.iter().rev() {
            if env.branch(&key.eq(k)) {
                return Some(v.clone());
            }
        }
        if let Some(kc) = key.as_concrete() {
            return self.base.get(&kc).cloned();
        }
        for (k, v) in self.base.iter() {
            if env.branch(&key.eq(&SymValue::concrete(*k))) {
                return Some(v.clone());
            }
        }
        None
    }

    /// `has_key` in the pseudo-code of Figure 3.
    pub fn contains_key(&self, key: &SymValue, env: &mut dyn Env) -> bool {
        self.get(key, env).is_some()
    }

    /// Direct concrete lookup (no branching).
    pub fn get_concrete(&self, key: u64) -> Option<&V> {
        self.base.get(&key)
    }

    /// Removes a concrete entry.
    pub fn remove_concrete(&mut self, key: u64) -> Option<V> {
        self.base.remove(&key)
    }

    /// Concrete keys in order.
    pub fn concrete_keys(&self) -> Vec<u64> {
        self.base.keys().copied().collect()
    }

    /// Clears all entries.
    pub fn clear(&mut self) {
        self.base.clear();
        self.overlay.clear();
    }
}

impl<V: Fingerprint> Fingerprint for SymMap<V> {
    fn fingerprint(&self, hasher: &mut Fnv64) {
        debug_assert!(
            self.overlay.is_empty(),
            "symbolic overlay entries must not leak into model-checker state"
        );
        hasher.write_usize(self.base.len());
        for (k, v) in &self.base {
            hasher.write_u64(*k);
            v.fingerprint(hasher);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::{ConcreteEnv, SymExecEnv};
    use crate::explore::{ExploreConfig, PathExplorer};
    use crate::expr::Domain;
    use crate::solver::{Assignment, Solver};
    use nice_openflow::fingerprint_of;

    #[test]
    fn concrete_behaviour_matches_a_plain_map() {
        let mut env = ConcreteEnv::new();
        let mut m: SymMap<u32> = SymMap::new();
        assert!(m.is_empty());
        m.insert(SymValue::concrete(5), 50);
        m.insert_concrete(6, 60);
        assert_eq!(m.len(), 2);
        assert_eq!(m.get(&SymValue::concrete(5), &mut env), Some(50));
        assert_eq!(m.get(&SymValue::concrete(7), &mut env), None);
        assert!(m.contains_key(&SymValue::concrete(6), &mut env));
        assert_eq!(m.get_concrete(6), Some(&60));
        assert_eq!(m.concrete_keys(), vec![5, 6]);
        assert_eq!(m.remove_concrete(5), Some(50));
        assert_eq!(m.remove_concrete(5), None);
        m.clear();
        assert!(m.is_empty());
    }

    #[test]
    fn insert_overwrites_concrete_key() {
        let mut env = ConcreteEnv::new();
        let mut m: SymMap<u32> = SymMap::new();
        m.insert(SymValue::concrete(1), 10);
        m.insert(SymValue::concrete(1), 11);
        assert_eq!(m.len(), 1);
        assert_eq!(m.get(&SymValue::concrete(1), &mut env), Some(11));
    }

    #[test]
    fn symbolic_key_lookup_branches_over_existing_entries() {
        // Two concrete entries; a symbolic key over a domain that includes
        // both keys and an absent value yields three equivalence classes.
        let mut solver = Solver::new();
        let key_var = solver.fresh_var(Domain::new([10, 20, 99]));

        let mut m: SymMap<u32> = SymMap::new();
        m.insert_concrete(10, 1);
        m.insert_concrete(20, 2);

        let explorer = PathExplorer::new(ExploreConfig::default());
        let mut observed: Vec<(u64, Option<u32>)> = Vec::new();
        let outcome = explorer.explore(&mut solver, |env| {
            let key = SymValue::var(key_var);
            let result = m.get(&key, env);
            let concrete_key = env.concretize(&key);
            observed.push((concrete_key, result));
        });
        assert_eq!(outcome.paths.len(), 3);
        // Dedupe by key to inspect what each class saw.
        observed.sort();
        observed.dedup();
        assert!(observed.contains(&(10, Some(1))));
        assert!(observed.contains(&(20, Some(2))));
        assert!(observed.contains(&(99, None)));
    }

    #[test]
    fn symbolic_insert_then_lookup_aliases() {
        // mactable[pkt.src] = port; mactable.has_key(pkt.dst) — the lookup
        // must branch over pkt.dst == pkt.src.
        let mut solver = Solver::new();
        let src = solver.fresh_var(Domain::new([1, 2]));
        let dst = solver.fresh_var(Domain::new([1, 2]));
        let explorer = PathExplorer::default();
        let mut class_count = 0;
        let outcome = explorer.explore(&mut solver, |env| {
            let mut m: SymMap<u32> = SymMap::new();
            m.insert(SymValue::var(src), 7);
            assert!(m.has_symbolic_entries());
            if m.contains_key(&SymValue::var(dst), env) {
                class_count += 1;
            }
        });
        assert_eq!(outcome.paths.len(), 2, "alias and no-alias classes");
    }

    #[test]
    fn symbolic_env_concrete_key_fast_path() {
        let mut m: SymMap<u32> = SymMap::new();
        m.insert_concrete(4, 44);
        let mut env = SymExecEnv::new(Assignment::new());
        // Concrete key under a symbolic env must not record constraints.
        assert_eq!(m.get(&SymValue::concrete(4), &mut env), Some(44));
        assert_eq!(env.branch_count(), 0);
    }

    #[test]
    fn fingerprint_tracks_concrete_contents() {
        let mut a: SymMap<u32> = SymMap::new();
        let mut b: SymMap<u32> = SymMap::new();
        assert_eq!(fingerprint_of(&a), fingerprint_of(&b));
        a.insert_concrete(1, 5);
        assert_ne!(fingerprint_of(&a), fingerprint_of(&b));
        b.insert_concrete(1, 5);
        assert_eq!(fingerprint_of(&a), fingerprint_of(&b));
    }
}
