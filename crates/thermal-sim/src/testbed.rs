//! The complete temperature-controlled DRAM testbed (paper Fig. 3).
//!
//! Eight heating channels — one per DIMM rank (4 DIMMs × 2 ranks) — each
//! with a resistive element, thermocouple, SPD sensor and solid-state
//! relay, driven by PID controllers on a controller board. The paper
//! reports a maximum set-point deviation below 1 °C, which the simulated
//! loop reproduces and the test suite asserts.

use crate::pid::{Pid, PidGains};
use crate::plant::ThermalPlant;
use crate::relay::SolidStateRelay;
use crate::sensor::{SensorFaultModel, TemperatureSensor};
use power_model::units::{Celsius, Watts};
use serde::{Deserialize, Serialize};
use telemetry::Level;

/// Histogram buckets for set-point deviation in °C.
const DEVIATION_BUCKETS_C: [f64; 7] = [0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 25.0];

/// Number of heating channels on the testbed (4 DIMMs × 2 ranks).
pub const CHANNEL_COUNT: usize = 8;

/// Identifies one heating channel by DIMM and rank.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct ChannelId {
    /// DIMM index, `0..4`.
    pub dimm: u8,
    /// Rank index within the DIMM, `0..2`.
    pub rank: u8,
}

impl ChannelId {
    /// Creates a channel id.
    ///
    /// # Panics
    ///
    /// Panics if `dimm >= 4` or `rank >= 2`.
    pub fn new(dimm: u8, rank: u8) -> Self {
        assert!(dimm < 4, "dimm index must be < 4");
        assert!(rank < 2, "rank index must be < 2");
        ChannelId { dimm, rank }
    }

    /// Flat channel index `0..8`.
    pub fn index(self) -> usize {
        usize::from(self.dimm) * 2 + usize::from(self.rank)
    }

    /// All channels in index order.
    pub fn all() -> impl Iterator<Item = ChannelId> {
        (0..4u8).flat_map(|d| (0..2u8).map(move |r| ChannelId { dimm: d, rank: r }))
    }
}

/// One heating channel: plant + sensors + relay + PID.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct HeaterChannel {
    plant: ThermalPlant,
    thermocouple: TemperatureSensor,
    spd: TemperatureSensor,
    relay: SolidStateRelay,
    pid: Pid,
    target: Option<Celsius>,
}

impl HeaterChannel {
    fn new(ambient: Celsius, seed: u64) -> Self {
        HeaterChannel {
            plant: ThermalPlant::dimm_adapter(ambient),
            thermocouple: TemperatureSensor::thermocouple(seed),
            spd: TemperatureSensor::spd(seed.wrapping_add(0x9e37_79b9)),
            relay: SolidStateRelay::new(2.0, 0.02),
            pid: Pid::new(PidGains::dimm_adapter()),
            target: None,
        }
    }

    fn step(&mut self, heater_max: Watts, dt: f64) {
        if let Some(target) = self.target {
            // On a sensor dropout the controller holds its previous duty
            // for one period rather than acting on garbage.
            if let Some(measured) = self.thermocouple.try_read(self.plant.temperature()) {
                let duty = self.pid.update(target.as_f64(), measured.as_f64(), dt);
                self.relay.set_duty(duty);
            }
        } else {
            self.relay.set_duty(0.0);
        }
        let on = self.relay.step(dt);
        let p = if on { heater_max } else { Watts::ZERO };
        self.plant.step(p, dt);
    }
}

/// A snapshot of one channel's state for logging.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ChannelReading {
    /// Which channel.
    pub channel: ChannelId,
    /// True plant temperature.
    pub actual: Celsius,
    /// Thermocouple reading (`None` on a dropout).
    pub thermocouple: Option<Celsius>,
    /// SPD sensor reading (`None` on a dropout).
    pub spd: Option<Celsius>,
    /// Commanded set point, if any.
    pub target: Option<Celsius>,
}

/// The temperature-controlled testbed.
///
/// # Examples
///
/// ```
/// use thermal_sim::testbed::ThermalTestbed;
/// use power_model::units::Celsius;
///
/// let mut bed = ThermalTestbed::new(Celsius::new(25.0), 42);
/// bed.set_all_targets(Celsius::new(50.0));
/// bed.run(3600.0); // one hour of simulated time to settle
/// let dev = bed.max_deviation_over(600.0);
/// assert!(dev < 1.0, "regulation deviation {dev} °C");
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ThermalTestbed {
    channels: Vec<HeaterChannel>,
    /// Maximum heater power per element.
    heater_max: Watts,
    /// Control period in seconds.
    dt: f64,
    elapsed: f64,
}

impl ThermalTestbed {
    /// Creates a testbed with all eight channels at ambient temperature.
    pub fn new(ambient: Celsius, seed: u64) -> Self {
        let channels = (0..CHANNEL_COUNT as u64)
            .map(|i| HeaterChannel::new(ambient, seed.wrapping_mul(2654435761).wrapping_add(i)))
            .collect();
        ThermalTestbed {
            channels,
            heater_max: Watts::new(15.0),
            dt: 0.5,
            elapsed: 0.0,
        }
    }

    /// Sets the target temperature of one channel.
    pub fn set_target(&mut self, channel: ChannelId, target: Celsius) {
        self.channels[channel.index()].target = Some(target);
    }

    /// Sets all channels to the same target (the paper regulates whole
    /// campaigns at a single 50 °C or 60 °C set point).
    pub fn set_all_targets(&mut self, target: Celsius) {
        for ch in &mut self.channels {
            ch.target = Some(target);
        }
    }

    /// Disables heating on all channels.
    pub fn clear_targets(&mut self) {
        for ch in &mut self.channels {
            ch.target = None;
            ch.pid.reset();
        }
    }

    /// Injects per-channel self-heating from memory traffic.
    pub fn set_self_heating(&mut self, channel: ChannelId, power: Watts) {
        self.channels[channel.index()].plant.set_self_heating(power);
    }

    /// Injects the same fault behavior into every sensor on the bed
    /// (`None` heals them all).
    pub fn inject_sensor_faults(&mut self, faults: Option<SensorFaultModel>) {
        for ch in &mut self.channels {
            ch.thermocouple.inject_faults(faults);
            ch.spd.inject_faults(faults);
        }
    }

    /// Advances the testbed by `seconds` of simulated time.
    pub fn run(&mut self, seconds: f64) {
        let worst = self.advance((seconds / self.dt).ceil() as u64);
        telemetry::event!(
            Level::Debug,
            "thermal_run",
            seconds = seconds,
            elapsed_s = self.elapsed,
            max_deviation_c = worst,
        );
    }

    /// Steps every channel `steps` times, tracing per-channel set-point
    /// tracking and returning the worst absolute deviation of any
    /// targeted channel over the window.
    fn advance(&mut self, steps: u64) -> f64 {
        let mut worst: f64 = 0.0;
        for _ in 0..steps {
            for (i, ch) in self.channels.iter_mut().enumerate() {
                ch.step(self.heater_max, self.dt);
                if let Some(t) = ch.target {
                    let err = ch.plant.temperature().as_f64() - t.as_f64();
                    telemetry::event!(
                        Level::Trace,
                        "pid_track",
                        channel = i,
                        target_c = t.as_f64(),
                        error_c = err,
                    );
                    worst = worst.max(err.abs());
                }
            }
            self.elapsed += self.dt;
        }
        let _ = telemetry::with_registry(|reg| {
            reg.register_histogram("pid_max_deviation_c", &DEVIATION_BUCKETS_C);
            reg.observe("pid_max_deviation_c", worst);
        });
        worst
    }

    /// Runs for `seconds` more and returns the worst absolute deviation of
    /// any *targeted* channel from its set point observed during that
    /// window (the paper's "maximum deviation" metric).
    pub fn max_deviation_over(&mut self, seconds: f64) -> f64 {
        let worst = self.advance((seconds / self.dt).ceil() as u64);
        telemetry::event!(
            Level::Debug,
            "thermal_deviation_window",
            seconds = seconds,
            max_deviation_c = worst,
        );
        worst
    }

    /// Current readings of every channel.
    pub fn readings(&mut self) -> Vec<ChannelReading> {
        let mut out = Vec::with_capacity(CHANNEL_COUNT);
        for (id, ch) in ChannelId::all().zip(self.channels.iter_mut()) {
            let truth = ch.plant.temperature();
            out.push(ChannelReading {
                channel: id,
                actual: truth,
                thermocouple: ch.thermocouple.try_read(truth),
                spd: ch.spd.try_read(truth),
                target: ch.target,
            });
        }
        out
    }

    /// True temperature of one channel (for the DRAM model's input).
    pub fn temperature(&self, channel: ChannelId) -> Celsius {
        self.channels[channel.index()].plant.temperature()
    }

    /// Total simulated time elapsed in seconds.
    pub fn elapsed(&self) -> f64 {
        self.elapsed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn regulates_all_channels_within_one_degree() {
        let mut bed = ThermalTestbed::new(Celsius::new(25.0), 7);
        bed.set_all_targets(Celsius::new(60.0));
        bed.run(3600.0);
        let dev = bed.max_deviation_over(900.0);
        assert!(dev < 1.0, "max deviation {dev} °C");
    }

    #[test]
    fn per_channel_targets_are_independent() {
        let mut bed = ThermalTestbed::new(Celsius::new(25.0), 7);
        bed.set_target(ChannelId::new(0, 0), Celsius::new(50.0));
        bed.set_target(ChannelId::new(3, 1), Celsius::new(60.0));
        bed.run(5400.0);
        let t00 = bed.temperature(ChannelId::new(0, 0)).as_f64();
        let t31 = bed.temperature(ChannelId::new(3, 1)).as_f64();
        let t10 = bed.temperature(ChannelId::new(1, 0)).as_f64();
        assert!((t00 - 50.0).abs() < 1.0, "ch(0,0) {t00}");
        assert!((t31 - 60.0).abs() < 1.0, "ch(3,1) {t31}");
        assert!(t10 < 30.0, "unheated channel {t10}");
    }

    #[test]
    fn self_heating_is_compensated_by_controller() {
        let mut bed = ThermalTestbed::new(Celsius::new(25.0), 7);
        bed.set_all_targets(Celsius::new(50.0));
        bed.set_self_heating(ChannelId::new(1, 0), Watts::new(2.0));
        bed.run(5400.0);
        let dev = bed.max_deviation_over(600.0);
        assert!(dev < 1.0, "deviation with self-heating {dev}");
    }

    #[test]
    fn clear_targets_lets_channels_cool() {
        let mut bed = ThermalTestbed::new(Celsius::new(25.0), 7);
        bed.set_all_targets(Celsius::new(60.0));
        bed.run(3600.0);
        bed.clear_targets();
        bed.run(7200.0);
        for id in ChannelId::all() {
            assert!(bed.temperature(id).as_f64() < 27.0);
        }
    }

    #[test]
    fn readings_cover_all_channels() {
        let mut bed = ThermalTestbed::new(Celsius::new(25.0), 7);
        let r = bed.readings();
        assert_eq!(r.len(), CHANNEL_COUNT);
        assert_eq!(r[0].channel, ChannelId::new(0, 0));
        assert_eq!(r[7].channel, ChannelId::new(3, 1));
    }

    #[test]
    fn regulation_survives_flaky_sensors() {
        let mut bed = ThermalTestbed::new(Celsius::new(25.0), 7);
        bed.inject_sensor_faults(Some(SensorFaultModel::new(0.05, 0.05)));
        bed.set_all_targets(Celsius::new(60.0));
        bed.run(3600.0);
        let dev = bed.max_deviation_over(900.0);
        assert!(dev < 1.5, "deviation with flaky sensors {dev} °C");
        // Healing the sensors restores the paper-grade regulation bound.
        bed.inject_sensor_faults(None);
        bed.run(600.0);
        let healed = bed.max_deviation_over(900.0);
        assert!(healed < 1.0, "deviation after healing {healed} °C");
    }

    #[test]
    fn faulty_bed_reports_dropouts_in_readings() {
        let mut bed = ThermalTestbed::new(Celsius::new(25.0), 11);
        bed.inject_sensor_faults(Some(SensorFaultModel::new(0.0, 1.0)));
        let r = bed.readings();
        assert!(r
            .iter()
            .all(|c| c.thermocouple.is_none() && c.spd.is_none()));
        bed.inject_sensor_faults(None);
        let r = bed.readings();
        assert!(r
            .iter()
            .all(|c| c.thermocouple.is_some() && c.spd.is_some()));
    }

    #[test]
    fn channel_id_index_roundtrip() {
        for (i, id) in ChannelId::all().enumerate() {
            assert_eq!(id.index(), i);
        }
    }

    #[test]
    #[should_panic(expected = "dimm index")]
    fn channel_id_rejects_bad_dimm() {
        let _ = ChannelId::new(4, 0);
    }
}
