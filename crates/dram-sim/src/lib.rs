//! Behavioral DDR3 DRAM subsystem for the DSN'18 guardband study.
//!
//! Models the X-Gene2's 32 GiB, 72-chip ECC memory at the fidelity the
//! paper's DRAM characterization requires:
//!
//! * [`geometry`] — ranks / banks / rows / columns of the 4 × dual-rank
//!   Micron MT41J512M8 ECC-DIMM configuration;
//! * [`ecc`] — a real (72,64) SECDED codec, the mechanism behind the
//!   paper's "all manifested errors are corrected" result;
//! * [`retention`] — the sparse two-population weak-cell retention model
//!   calibrated to Table I (bank-to-bank and temperature variation);
//! * [`patterns`] — the DPBench data patterns (all-0s/1s, checkerboard,
//!   random);
//! * [`mod@array`] — the array simulator with staggered auto-refresh,
//!   access-driven inherent refresh, lazy decay evaluation and SLIMpro-style
//!   CE/UE logging;
//! * [`timing`] — the DDR3 MCU bank state machine and the performance
//!   cost of refresh (tRFC stalls every tREFI);
//! * [`scrubber`] — a patrol-scrub engine bounding how long correctable
//!   flips linger;
//! * [`aging`] — weak-cell population growth, retention decay and VRT
//!   flicker over deployment months (the lifetime subsystem's DRAM leg);
//! * [`math`] — normal/Poisson/lognormal sampling built on `rand` alone.
//!
//! # Examples
//!
//! Measure unique error locations per bank at 60 °C with the paper's 35×
//! relaxed refresh (the Table I experiment for one round):
//!
//! ```
//! use dram_sim::array::DramArray;
//! use dram_sim::patterns::DataPattern;
//! use dram_sim::retention::{PopulationSpec, RetentionModel, WeakCellPopulation};
//! use power_model::units::{Celsius, Milliseconds};
//!
//! let pop = WeakCellPopulation::generate(
//!     &RetentionModel::xgene2_micron(), PopulationSpec::dsn18(), 7);
//! let mut dram = DramArray::new(pop, Milliseconds::DSN18_RELAXED_TREFP, Celsius::new(60.0));
//! dram.fill_pattern(DataPattern::Random { seed: 0 });
//! dram.advance(2.0 * Milliseconds::DSN18_RELAXED_TREFP.as_f64());
//! dram.scrub();
//! let per_bank = dram.error_log().unique_per_bank();
//! assert!(per_bank.iter().sum::<u64>() > 10_000);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod aging;
pub mod array;
pub mod ecc;
pub mod geometry;
pub mod math;
pub mod patterns;
pub mod retention;
pub mod scrubber;
pub mod timing;

pub use aging::DramAging;
pub use array::{
    AccessCounters, DramArray, ErrorKind, ErrorLog, ErrorRecord, ReadOutcome, ScrubReport,
};
pub use ecc::{CodeWord, DecodeOutcome, Secded72};
pub use geometry::{BankId, CellAddr, RankId, RowAddr, WordAddr};
pub use patterns::DataPattern;
pub use retention::{
    CouplingContext, Polarity, PopulationSpec, RetentionModel, WeakCell, WeakCellPopulation,
};
pub use scrubber::{PatrolScrubber, ScrubberConfig, ScrubberStats};
pub use timing::{AccessKind, DdrTimings, McuStats, McuTimingModel};

/// One named field of an encoded struct, for the hand-written encoders.
fn entry(name: &str, value: &impl serde::Serialize) -> (String, serde::Value) {
    (name.to_owned(), value.to_value())
}

/// The fields of an encoded struct, for the hand-written decoders.
struct Fields<'a> {
    ty: &'static str,
    map: &'a [(String, serde::Value)],
}

impl<'a> Fields<'a> {
    fn of(ty: &'static str, value: &'a serde::Value) -> Result<Self, serde::Error> {
        Ok(Fields {
            ty,
            map: value.as_map()?,
        })
    }

    fn get<T: serde::Deserialize>(&self, name: &str) -> Result<T, serde::Error> {
        self.opt(name)?
            .ok_or_else(|| serde::Error::missing_field(self.ty, name))
    }

    /// The field `name` decoded, or `None` when it is absent.
    fn opt<T: serde::Deserialize>(&self, name: &str) -> Result<Option<T>, serde::Error> {
        serde::map_get(self.map, name)
            .map(T::from_value)
            .transpose()
    }
}
