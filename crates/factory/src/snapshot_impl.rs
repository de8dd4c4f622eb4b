//! Snapshot support for the factory layer (behind the `snapshot`
//! feature): serializing an [`AlgoSpec`] and — the restore half of the
//! engine's durability story — rebuilding a live estimator from the
//! JSON state that [`CardinalityEstimator::snapshot_state`] captured.
//!
//! `snapshot_state` is object-safe and therefore cannot name a concrete
//! type; this module holds the matching concrete-type dispatch. The
//! spec says *which* type to expect, the JSON says *what state* it was
//! in, and [`ResolvedSpec::restore`] marries the two with validation on
//! both axes (each `Snapshot::from_json` re-checks its structural
//! invariants; this layer re-checks the spec ↔ state agreement).

use smb_baselines::{
    Bjkst, Fm, Hll, HllPlusPlus, HllTailCut, Kmv, LogLog, MinCount, Mrb, SuperLogLog,
};
use smb_core::{Bitmap, CardinalityEstimator, Error, Result, Smb};
use smb_devtools::{Json, JsonError, Snapshot};

use crate::{Algo, AlgoSpec, DynEstimator, ResolvedSpec};

impl Snapshot for AlgoSpec {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("algo".into(), Json::Str(self.algo.cli_name().into())),
            ("memory_bits".into(), Json::Int(self.memory_bits as i128)),
            ("n_max".into(), Json::Float(self.n_max)),
            ("seed".into(), Json::Int(self.seed as i128)),
        ])
    }

    fn from_json(v: &Json) -> std::result::Result<Self, JsonError> {
        let algo = Algo::from_name(v.field("algo")?.as_str()?).map_err(JsonError::new)?;
        let memory_bits = v.field("memory_bits")?.as_usize()?;
        let n_max = v.field("n_max")?.as_f64()?;
        let seed = v.field("seed")?.as_u64()?;
        if !(n_max >= 1.0) {
            return Err(JsonError::new(format!("n_max {n_max} must be ≥ 1")));
        }
        Ok(AlgoSpec {
            algo,
            memory_bits,
            n_max,
            seed,
        })
    }
}

impl ResolvedSpec {
    /// Rebuild a live estimator from the JSON `state` its
    /// [`CardinalityEstimator::snapshot_state`] produced — the restore
    /// direction of the engine's checkpoint format.
    ///
    /// The concrete type is chosen by the spec's algorithm; the state's
    /// own structural invariants are validated by that type's
    /// `Snapshot::from_json`, and this method additionally rejects
    /// states that disagree with the spec (different hash scheme, or a
    /// memory footprint other than what the spec builds) so a manifest
    /// paired with the wrong shard file cannot restore silently.
    ///
    /// ```
    /// use smb_core::CardinalityEstimator;
    /// use smb_factory::{Algo, AlgoSpec};
    ///
    /// let spec = AlgoSpec::new(Algo::Smb).memory_bits(4096).seed(7).resolve().unwrap();
    /// let mut live = spec.build();
    /// for i in 0..5_000u32 {
    ///     live.record(&i.to_le_bytes());
    /// }
    /// let state = live.snapshot_state().expect("factory estimators snapshot");
    /// let restored = spec.restore(&state).unwrap();
    /// assert_eq!(restored.estimate(), live.estimate());
    /// ```
    ///
    /// # Errors
    /// [`Error::InvalidParameter`] when the state fails its type's
    /// invariant checks or does not match the spec.
    pub fn restore(&self, state: &Json) -> Result<DynEstimator> {
        let spec = self.spec;
        let invalid = |e: JsonError| Error::invalid("snapshot", e.to_string());
        let restored: DynEstimator = match spec.algo {
            Algo::Smb => Box::new(Smb::from_json(state).map_err(invalid)?),
            Algo::Mrb => Box::new(Mrb::from_json(state).map_err(invalid)?),
            Algo::Fm => Box::new(Fm::from_json(state).map_err(invalid)?),
            Algo::HllPlusPlus => Box::new(HllPlusPlus::from_json(state).map_err(invalid)?),
            Algo::TailCut => Box::new(HllTailCut::from_json(state).map_err(invalid)?),
            Algo::Hll => Box::new(Hll::from_json(state).map_err(invalid)?),
            Algo::LogLog => Box::new(LogLog::from_json(state).map_err(invalid)?),
            Algo::SuperLogLog => Box::new(SuperLogLog::from_json(state).map_err(invalid)?),
            Algo::Kmv => Box::new(Kmv::from_json(state).map_err(invalid)?),
            Algo::Bjkst => Box::new(Bjkst::from_json(state).map_err(invalid)?),
            Algo::MinCount => Box::new(MinCount::from_json(state).map_err(invalid)?),
            Algo::Bitmap => Box::new(Bitmap::from_json(state).map_err(invalid)?),
        };
        if restored.scheme() != spec.scheme() {
            return Err(Error::invalid(
                "snapshot",
                format!(
                    "restored {} state hashes under a different scheme than the spec (seed {})",
                    spec.algo.name(),
                    spec.seed
                ),
            ));
        }
        if restored.memory_bits() != self.memory_bits {
            return Err(Error::invalid(
                "snapshot",
                format!(
                    "restored {} state occupies {} bits but the spec builds {} bits",
                    spec.algo.name(),
                    restored.memory_bits(),
                    self.memory_bits
                ),
            ));
        }
        Ok(restored)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ALL_ALGOS;

    #[test]
    fn algo_spec_round_trips_through_json_string() {
        for algo in ALL_ALGOS {
            let spec = AlgoSpec::new(algo).memory_bits(4096).n_max(2.5e6).seed(42);
            let back = AlgoSpec::from_json_str(&spec.to_json_string()).expect("roundtrip");
            assert_eq!(back, spec);
        }
    }

    #[test]
    fn every_algo_restores_bit_identical() {
        for algo in ALL_ALGOS {
            let spec = AlgoSpec::new(algo).memory_bits(5000).n_max(1e6).seed(3);
            let mut live = spec.build().expect("valid spec");
            for i in 0..3_000u32 {
                live.record(&i.to_le_bytes());
            }
            let state = live.snapshot_state().unwrap_or_else(|| {
                panic!("{}: factory estimator must snapshot", algo.name())
            });
            let mut restored = spec.resolve().unwrap().restore(&state).expect("restore");
            assert_eq!(
                restored.estimate().to_bits(),
                live.estimate().to_bits(),
                "{}: restored estimate must be bit-identical",
                algo.name()
            );
            // The restored estimator must keep recording identically.
            for i in 3_000..4_000u32 {
                live.record(&i.to_le_bytes());
                restored.record(&i.to_le_bytes());
            }
            assert_eq!(
                restored.estimate().to_bits(),
                live.estimate().to_bits(),
                "{}: post-restore recording must track the original",
                algo.name()
            );
        }
    }

    #[test]
    fn mismatched_seed_is_rejected() {
        let spec = AlgoSpec::new(Algo::Smb).memory_bits(4096).seed(1);
        let state = spec.build().unwrap().snapshot_state().unwrap();
        let wrong = spec.seed(2);
        assert!(wrong.resolve().unwrap().restore(&state).is_err());
    }

    #[test]
    fn mismatched_memory_is_rejected() {
        let spec = AlgoSpec::new(Algo::Bitmap).memory_bits(4096);
        let state = spec.build().unwrap().snapshot_state().unwrap();
        let wrong = AlgoSpec::new(Algo::Bitmap).memory_bits(8192);
        assert!(wrong.resolve().unwrap().restore(&state).is_err());
    }

    #[test]
    fn garbage_state_is_an_error_not_a_panic() {
        let spec = AlgoSpec::new(Algo::Hll).memory_bits(4096);
        let spec = spec.resolve().unwrap();
        assert!(spec.restore(&Json::Null).is_err());
        assert!(spec.restore(&Json::Obj(vec![])).is_err());
    }

    #[test]
    fn resolved_builds_snapshot_identically_to_build_estimator() {
        for algo in ALL_ALGOS {
            let spec = AlgoSpec::new(algo).memory_bits(5000).n_max(1e5).seed(11);
            let resolved = spec.resolve().expect("valid spec");
            let mut a = resolved.build();
            let mut b = crate::build_estimator(spec).expect("valid spec");
            assert_eq!(a.memory_bits(), resolved.memory_bits(), "{}", algo.name());
            for i in 0..20_000u32 {
                a.record(&i.to_le_bytes());
                b.record(&i.to_le_bytes());
            }
            assert_eq!(
                a.snapshot_state().map(|j| j.to_string()),
                b.snapshot_state().map(|j| j.to_string()),
                "{}: resolved build diverged from build_estimator",
                algo.name()
            );
        }
    }
}
