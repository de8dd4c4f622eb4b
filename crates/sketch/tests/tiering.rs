//! Differential property suites for the tiered [`FlowCell`] path.
//!
//! The tier ladder (inline small set → heap hash array → materialized
//! estimator) is a pure storage optimisation: a tiered `FlowTable`
//! must be observationally identical — estimates bit-for-bit — to an
//! eager table that materializes every flow up front, at every point
//! in every flow's life, including the exact promotion boundaries and
//! under duplicate-heavy streams where the tiers dedup and the
//! estimator does not. Each suite drives both implementations with
//! the same inputs and compares after every step.
//!
//! Reproduce a failure with `SMB_PROP_SEED=<seed printed on failure>`.

use smb_core::{CardinalityEstimator, Smb};
use smb_devtools::prop::gens;
use smb_devtools::{forall, prop_assert, prop_assert_eq};
use smb_hash::{HashScheme, ItemHash};
use smb_sketch::{FlowTable, Tier, ARRAY_CAP, SMALL_CAP};

/// One shared scheme for the table and every estimator — the engine's
/// deployment shape, and the precondition for tiered bit-identity
/// (stored raw hashes replay through the same hash mapping).
fn scheme() -> HashScheme {
    HashScheme::with_seed(0x7153)
}

/// A deliberately tiny SMB (m=256, T=32) so streams of a few hundred
/// items cross morph boundaries after materialization. Bit-identity
/// does not need T > ARRAY_CAP: a tiered cell's morphs simply happen
/// when its stored hashes replay (see [`make_with`]).
fn make() -> Smb {
    make_with(32)
}

/// The same SMB at threshold `t`. With `t ≤ ARRAY_CAP` a flow crosses
/// its first morph while still tiered; the factory accepts such specs
/// (m=128 at n_max=1e5 resolves to T=12).
fn make_with(t: usize) -> Smb {
    Smb::with_scheme(256, t, scheme()).expect("valid params")
}

fn tiered() -> FlowTable<Smb> {
    FlowTable::tiered(scheme(), |_| make())
}

/// The tier a cell must occupy after seeing `distinct` distinct hashes.
fn expected_tier(distinct: usize) -> Tier {
    if distinct <= SMALL_CAP {
        Tier::Small
    } else if distinct <= ARRAY_CAP {
        Tier::Array
    } else {
        Tier::Full
    }
}

/// Exact physical equality of two SMB estimators: bitmap, round,
/// fresh counter, and morph-attribution counter.
fn smb_state_eq(a: &Smb, b: &Smb) -> bool {
    a.as_bits() == b.as_bits()
        && a.round() == b.round()
        && a.fresh_ones() == b.fresh_ones()
        && a.items_since_last_morph() == b.items_since_last_morph()
        && a.estimate().to_bits() == b.estimate().to_bits()
}

/// The tier ladder, one item at a time: after every single record the
/// tiered estimate matches an eager estimator bit-for-bit, the cell
/// sits on exactly the tier its distinct count dictates, and once
/// materialized the full physical state (not just the estimate) is
/// identical — promotion replayed the stream exactly.
#[test]
fn tier_ladder_is_bit_identical_to_eager_at_every_step() {
    let sch = scheme();
    let mut table = tiered();
    let mut eager = make();
    let total = 3 * ARRAY_CAP as u64;
    for i in 0..total {
        let h = sch.item_hash(&i.to_le_bytes());
        table.record_hash(7, h);
        eager.record_hash(h);
        let distinct = (i + 1) as usize;
        let cell = table.cell(7).expect("flow exists");
        assert_eq!(cell.tier(), expected_tier(distinct), "after {distinct} items");
        assert_eq!(
            table.estimate(7).map(f64::to_bits),
            Some(eager.estimate().to_bits()),
            "estimate after {distinct} items"
        );
    }
    let materialized = table.cell(7).unwrap().estimator().expect("past ARRAY_CAP");
    assert!(
        smb_state_eq(materialized, &eager),
        "materialized state must be the eager state, bit for bit"
    );
}

/// Random batch chunkings slice the stream arbitrarily across both
/// promotion boundaries (…|1→2|… and …|16→17|…); the batched tiered
/// path must track a sequential eager estimator bit-for-bit after
/// every chunk.
#[test]
fn random_chunkings_cross_promotions_bit_identically() {
    forall!(cases = 48, (chunks in gens::vecs(gens::u64s(1..24), 1..24)) => {
        let sch = scheme();
        let mut table = tiered();
        let mut eager = make();
        let mut next = 0u64;
        for (i, &n) in chunks.iter().enumerate() {
            let hashes: Vec<ItemHash> = (0..n)
                .map(|_| {
                    next += 1;
                    sch.item_hash(&next.to_le_bytes())
                })
                .collect();
            table.record_hashes(9, &hashes);
            // The reference records one item at a time: this also pins
            // batched == sequential through the tier ladder.
            for &h in &hashes {
                eager.record_hash(h);
            }
            prop_assert_eq!(
                table.estimate(9).map(f64::to_bits),
                Some(eager.estimate().to_bits()),
                "after chunk {} ({} items total)", i, next
            );
            prop_assert_eq!(
                table.cell(9).unwrap().tier(),
                expected_tier(next as usize),
                "tier after {} distinct items", next
            );
        }
    });
}

/// Duplicate-heavy streams: the small and array tiers store *distinct*
/// hashes and silently drop repeats, while an eager estimator records
/// every repeat. That dedup must be estimate-invisible — SMB
/// duplicates are state-neutral (a repeat either fails the sampling
/// test or lands on its own set bit), whatever the threshold — and
/// the tier must be decided by the distinct count, not the op count.
/// T=12 runs too: there the eager estimator morphs while the tiered
/// cell still holds raw hashes, and the replay at promotion must land
/// on the same state.
#[test]
fn duplicate_heavy_streams_estimate_identically() {
    forall!(cases = 32, (
        t in gens::one_of(&[32usize, 12]),
        items in gens::vecs(gens::u64s(0..40), 1..200),
    ) => {
        let sch = scheme();
        let mut table: FlowTable<Smb> = FlowTable::tiered(sch, move |_| make_with(t));
        let mut eager = make_with(t);
        for (i, &item) in items.iter().enumerate() {
            let h = sch.item_hash(&item.to_le_bytes());
            table.record_hash(11, h);
            eager.record_hash(h);
            prop_assert_eq!(
                table.estimate(11).map(f64::to_bits),
                Some(eager.estimate().to_bits()),
                "estimate after op {}", i
            );
        }
        let distinct: std::collections::HashSet<u64> = items.iter().copied().collect();
        prop_assert_eq!(
            table.cell(11).unwrap().tier(),
            expected_tier(distinct.len()),
            "{} ops over {} distinct items", items.len(), distinct.len()
        );
    });
}

/// Whole-table differential: a tiered table and an eager table driven
/// by the same random multi-flow op sequence (batch record / estimate
/// sweep / remove / clear) agree on every observable after every op.
#[test]
fn tiered_table_matches_eager_table_under_random_sequences() {
    // Op codes: 0-5 record a batch, 6 compare all estimates,
    // 7 remove, 8 clear. Recording dominates so flows actually climb
    // the ladder.
    forall!(cases = 24, (ops in gens::vecs(
        (gens::u8s(0..9), gens::u64s(0..6), gens::u64s(1..24)),
        1..80,
    )) => {
        let sch = scheme();
        let mut tiered_table = tiered();
        let mut eager_table: FlowTable<Smb> = FlowTable::new(|_| make());
        let mut next = 0u64;
        for (i, &(op, flow, count)) in ops.iter().enumerate() {
            match op {
                0..=5 => {
                    let hashes: Vec<ItemHash> = (0..count)
                        .map(|_| {
                            next += 1;
                            sch.item_hash(&next.to_le_bytes())
                        })
                        .collect();
                    tiered_table.record_hashes(flow, &hashes);
                    eager_table.record_hashes(flow, &hashes);
                }
                6 => {
                    let mut a: Vec<(u64, u64)> = tiered_table
                        .estimates()
                        .map(|(f, e)| (f, e.to_bits()))
                        .collect();
                    let mut b: Vec<(u64, u64)> = eager_table
                        .estimates()
                        .map(|(f, e)| (f, e.to_bits()))
                        .collect();
                    a.sort_unstable();
                    b.sort_unstable();
                    prop_assert_eq!(a, b, "estimate sweep at op {}", i);
                }
                7 => {
                    let a = tiered_table.remove(flow);
                    let b = eager_table.remove(flow);
                    prop_assert_eq!(a.is_some(), b.is_some(), "remove at op {}", i);
                    if let (Some(a), Some(b)) = (a, b) {
                        // Removal materializes by replay; the stream
                        // was duplicate-free, so the physical state
                        // must match, not just the estimate.
                        prop_assert!(
                            smb_state_eq(&a, &b),
                            "removed flow {} diverged at op {}", flow, i
                        );
                    }
                }
                _ => {
                    tiered_table.clear();
                    eager_table.clear();
                }
            }
            prop_assert_eq!(tiered_table.len(), eager_table.len(), "len after op {}", i);
        }
        let finals: Vec<(u64, f64)> = eager_table.estimates().collect();
        for (flow, est) in finals {
            prop_assert_eq!(
                tiered_table.estimate(flow).map(f64::to_bits),
                Some(est.to_bits()),
                "final estimate of flow {}", flow
            );
        }
    });
}

/// Every tier round-trips through its checkpoint state: small and
/// array cells come back *on their tier* with the same pending hashes,
/// materialized cells restore from the estimator's own (pre-tier,
/// wrapper-free) state — and all of them estimate bit-identically.
#[cfg(feature = "snapshot")]
#[test]
fn every_tier_round_trips_through_its_snapshot_state() {
    use smb_devtools::Snapshot;
    use smb_sketch::FlowCell;

    let sch = scheme();
    for n in [0usize, 1, 2, 9, ARRAY_CAP, ARRAY_CAP + 1, 100] {
        let mut cell: FlowCell<Smb> = FlowCell::new();
        for i in 0..n {
            cell.record_hash(sch.item_hash(&(i as u64).to_le_bytes()), make);
        }
        assert_eq!(cell.tier(), expected_tier(n), "{n} items");
        let state = cell.snapshot_state().expect("SMB supports snapshots");
        let restored = match FlowCell::<Smb>::from_tier_json(&state).expect("valid state") {
            Some(tiered_cell) => tiered_cell,
            // No tier wrapper: a materialized cell's state is the bare
            // estimator state (byte-identical to pre-tier checkpoints).
            None => FlowCell::from_estimator(Smb::from_json(&state).expect("estimator state")),
        };
        assert_eq!(restored.tier(), cell.tier(), "{n} items: tier must survive");
        assert_eq!(
            restored.pending_hashes(),
            cell.pending_hashes(),
            "{n} items: pending hashes must survive in arrival order"
        );
        assert_eq!(
            restored.estimate(make).to_bits(),
            cell.estimate(make).to_bits(),
            "{n} items: restored estimate must be bit-identical"
        );
    }
}
