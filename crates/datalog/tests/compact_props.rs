//! Property tests for the publish-time compact stores.
//!
//! The compact store (CSR adjacency for binary shards; on shards of at
//! most 64 tuples, a scan of the tuple store) is a read-path
//! alternative to the lazy hash-trie indexes —
//! it must be *observationally identical*: for any relation, any
//! binding mask, and any key, `lookup` over a compacted relation
//! returns the same ordinals, in the same order, as over the same
//! relation without a store; and for binary relations the CSR
//! successor/predecessor rows agree with keyed index lookups.
//!
//! Relations are random: arity 1..6, duplicate insertions, repeated
//! constants, empty shards, and ids drawn from a small pool so joins
//! actually collide.

use proptest::prelude::*;
use rq_common::Const;
use rq_datalog::{mask_of, Relation};

/// A random relation of the given arity, with duplicates attempted.
fn relation(arity: usize, pool: u32, rows: usize) -> impl Strategy<Value = Relation> {
    prop::collection::vec(prop::collection::vec(0..pool, arity), 0..rows + 1).prop_map(
        move |tuples| {
            let mut rel = Relation::new(arity);
            for t in &tuples {
                let tuple: Vec<Const> = t.iter().map(|&i| Const::from_index(i as usize)).collect();
                rel.insert(&tuple);
                // Every other row is re-inserted: duplicates must be
                // no-ops on both read paths.
                rel.insert(&tuple);
            }
            rel
        },
    )
}

/// All keys worth probing: every constant in the pool, so both present
/// and absent keys are exercised.
fn pool_consts(pool: u32) -> Vec<Const> {
    (0..pool).map(|i| Const::from_index(i as usize)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `lookup` answers identically with and without a compact store,
    /// for every single-column and two-column mask.
    #[test]
    fn compacted_lookup_matches_uncompacted(
        rel in (1usize..6, 1u32..7, 0usize..40)
            .prop_flat_map(|(a, p, r)| relation(a, p, r)),
    ) {
        let arity = rel.arity();
        let plain = rel.clone();
        prop_assert!(rel.build_compact() || rel.is_empty() || rel.has_compact());
        let keys = pool_consts(8);
        let mut masks: Vec<Vec<usize>> = (0..arity).map(|c| vec![c]).collect();
        for a in 0..arity {
            for b in (a + 1)..arity {
                masks.push(vec![a, b]);
            }
        }
        for cols in masks {
            let mask = mask_of(cols.iter().copied());
            for &k0 in &keys {
                for &k1 in &keys {
                    let key: Vec<Const> = if cols.len() == 1 {
                        vec![k0]
                    } else {
                        vec![k0, k1]
                    };
                    let (mut a, mut b) = (Vec::new(), Vec::new());
                    plain.lookup(mask, &key, &mut a);
                    rel.lookup(mask, &key, &mut b);
                    prop_assert_eq!(&a, &b, "mask {:?} key {:?}", &cols, &key);
                    if cols.len() == 1 {
                        continue;
                    }
                    break; // two-column masks: one k1 sweep per k0 is plenty
                }
            }
        }
    }

    /// CSR successor/predecessor rows over a binary relation agree with
    /// keyed trie-index lookups, element order included.
    #[test]
    fn csr_adjacency_matches_index_lookups(
        rel in relation(2, 6, 40),
    ) {
        let plain = rel.clone();
        rel.build_compact();
        let Some(store) = rel.compact_store() else {
            // Density guard declined the CSR; columnar equivalence is
            // covered by the lookup property above.
            return Ok(());
        };
        for u in pool_consts(7) {
            let mut ords = Vec::new();
            plain.lookup(mask_of([0]), &[u], &mut ords);
            let via_index: Vec<Const> = ords.iter().map(|&o| plain.tuple(o)[1]).collect();
            let via_csr = store.successors(u).unwrap_or(&[]);
            prop_assert_eq!(&via_index[..], via_csr, "successors of {:?}", u);

            ords.clear();
            plain.lookup(mask_of([1]), &[u], &mut ords);
            let via_index: Vec<Const> = ords.iter().map(|&o| plain.tuple(o)[0]).collect();
            let via_csr = store.predecessors(u).unwrap_or(&[]);
            prop_assert_eq!(&via_index[..], via_csr, "predecessors of {:?}", u);
        }
        // First-column enumeration preserves first-appearance order.
        let mut seen = Vec::new();
        for t in plain.iter() {
            if !seen.contains(&t[0]) {
                seen.push(t[0]);
            }
        }
        prop_assert_eq!(&seen[..], store.first_column().unwrap_or(&[]));
    }

    /// Empty shards build cleanly and answer nothing on every path.
    #[test]
    fn empty_relations_are_empty_on_both_paths(arity in 1usize..6) {
        let rel = Relation::new(arity);
        rel.build_compact();
        let mut out = Vec::new();
        rel.lookup(mask_of([0]), &[Const::from_index(0)], &mut out);
        prop_assert!(out.is_empty());
        if let Some(store) = rel.compact_store() {
            prop_assert_eq!(store.len(), 0);
        }
    }
}
