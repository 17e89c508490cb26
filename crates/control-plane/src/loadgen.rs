//! Seeded open-loop load generation: diurnal sinusoidal traffic with
//! flash-crowd bursts and deterministic per-client request streams.
//!
//! The generator is *open-loop*: arrival times come from the intensity
//! schedule alone, never from server feedback — the client keeps
//! offering load even when the server is slow, which is what exposes
//! latency cliffs (a closed-loop generator self-throttles and hides
//! them). Arrivals are a non-homogeneous Poisson process sampled by
//! Lewis–Shedler thinning: candidates at the peak rate, each accepted
//! with probability `rate(t) / peak`. Everything is driven by one
//! seeded [`StdRng`] plus one decorrelated stream per client, so the
//! same seed yields the byte-identical trace — the reproducibility gate
//! in `BENCH_serving.json`.

use crate::http::Method;
use crate::metrics::Route;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// The traffic shape. All rates in requests/second, times in seconds.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LoadProfile {
    /// Master seed; everything derives from it.
    pub seed: u64,
    /// Trace length, seconds of simulated wall clock.
    pub duration_s: f64,
    /// Mean arrival rate of the diurnal baseline.
    pub base_qps: f64,
    /// Fractional swing of the sinusoid (0.4 → ±40 % around base).
    pub diurnal_amplitude: f64,
    /// Period of the sinusoid (a compressed "day").
    pub diurnal_period_s: f64,
    /// Number of flash-crowd windows scattered over the trace.
    pub flash_crowds: u32,
    /// Rate multiplier inside a flash window.
    pub flash_boost: f64,
    /// Width of each flash window, seconds.
    pub flash_width_s: f64,
    /// Distinct clients; each gets its own deterministic stream.
    pub clients: u32,
    /// Board-id space lookups draw from.
    pub board_space: u32,
}

impl Default for LoadProfile {
    fn default() -> Self {
        LoadProfile {
            seed: 2018,
            duration_s: 60.0,
            base_qps: 200.0,
            diurnal_amplitude: 0.4,
            diurnal_period_s: 30.0,
            flash_crowds: 2,
            flash_boost: 3.0,
            flash_width_s: 2.0,
            clients: 8,
            board_space: 64,
        }
    }
}

/// One generated request.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LoadEvent {
    /// Arrival time, microseconds from trace start (integral so the
    /// trace serializes and hashes exactly).
    pub at_us: u64,
    /// Issuing client.
    pub client: u32,
    /// HTTP method (`GET` or `POST`).
    pub method: String,
    /// Request target.
    pub target: String,
}

/// A full generated trace plus its per-route composition.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LoadTrace {
    /// The profile that produced it.
    pub profile: LoadProfile,
    /// Arrival-ordered events.
    pub events: Vec<LoadEvent>,
}

impl LoadProfile {
    /// The instantaneous arrival rate at `t`: diurnal sinusoid plus any
    /// active flash windows.
    pub fn rate_at(&self, t: f64, flashes: &[f64]) -> f64 {
        let phase = 2.0 * std::f64::consts::PI * t / self.diurnal_period_s;
        let mut rate = self.base_qps * (1.0 + self.diurnal_amplitude * phase.sin());
        for &start in flashes {
            if t >= start && t < start + self.flash_width_s {
                rate *= self.flash_boost;
            }
        }
        rate.max(0.0)
    }

    /// The highest rate the thinning sampler must cover.
    fn peak_rate(&self) -> f64 {
        self.base_qps * (1.0 + self.diurnal_amplitude) * self.flash_boost.max(1.0)
    }

    /// Flash-window start times, drawn from the master seed.
    pub fn flash_starts(&self) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0xF1A5_CAFE);
        let mut starts: Vec<f64> = (0..self.flash_crowds)
            .map(|_| rng.gen_range(0.0..(self.duration_s - self.flash_width_s).max(0.0)))
            .collect();
        starts.sort_by(|a, b| a.partial_cmp(b).expect("finite start"));
        starts
    }

    /// Generates the full deterministic trace.
    pub fn generate(&self) -> LoadTrace {
        assert!(self.duration_s > 0.0 && self.base_qps > 0.0 && self.clients > 0);
        let flashes = self.flash_starts();
        let peak = self.peak_rate();
        let mut arrivals = StdRng::seed_from_u64(self.seed);
        // One decorrelated stream per client: client k's request mix is
        // a pure function of (seed, k), independent of every other
        // client and of the arrival process.
        let mut client_streams: Vec<StdRng> = (0..self.clients)
            .map(|k| {
                StdRng::seed_from_u64(self.seed ^ (0x9E37_79B9u64.wrapping_mul(u64::from(k) + 1)))
            })
            .collect();

        let mut events = Vec::new();
        let mut t = 0.0f64;
        loop {
            // Candidate arrival at the peak rate…
            let u: f64 = arrivals.gen_range(f64::MIN_POSITIVE..1.0);
            t += -u.ln() / peak;
            if t >= self.duration_s {
                break;
            }
            // …thinned down to the schedule's instantaneous rate.
            if arrivals.gen_range(0.0..1.0) >= self.rate_at(t, &flashes) / peak {
                continue;
            }
            let client = arrivals.gen_range(0..self.clients);
            let stream = &mut client_streams[client as usize];
            let (method, target) = self.pick_request(stream);
            events.push(LoadEvent {
                at_us: (t * 1e6) as u64,
                client,
                method,
                target,
            });
        }
        LoadTrace {
            profile: self.clone(),
            events,
        }
    }

    /// One client's next request: overwhelmingly safe-point lookups
    /// (the hot path), a sprinkle of health and campaign polling.
    fn pick_request(&self, stream: &mut StdRng) -> (String, String) {
        let roll = stream.gen_range(0..100u32);
        if roll < 90 {
            let board = stream.gen_range(0..self.board_space);
            ("GET".to_owned(), format!("/v1/safe-point/{board}"))
        } else if roll < 95 {
            ("GET".to_owned(), "/v1/status".to_owned())
        } else if roll < 99 {
            let id = stream.gen_range(0..4u32);
            ("GET".to_owned(), format!("/v1/campaigns/{id}"))
        } else {
            ("GET".to_owned(), "/metrics".to_owned())
        }
    }
}

/// Streaming FNV-1a digest over load events. Consumers that stream a
/// trace in chunks (the dispatcher walks arrivals incrementally, the
/// loadgen binary writes as it generates) get the same fingerprint as a
/// whole-trace hash: the digest state is one `u64`, so how the events
/// are batched cannot matter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceDigest {
    hash: u64,
}

impl Default for TraceDigest {
    fn default() -> Self {
        Self::new()
    }
}

impl TraceDigest {
    /// An empty digest (the FNV-1a offset basis).
    pub fn new() -> Self {
        TraceDigest {
            hash: rand::FNV_OFFSET,
        }
    }

    fn eat(&mut self, bytes: &[u8]) {
        self.hash = rand::fnv1a(self.hash, bytes);
    }

    /// Folds one event into the digest.
    pub fn push(&mut self, event: &LoadEvent) {
        self.eat(&event.at_us.to_le_bytes());
        self.eat(&event.client.to_le_bytes());
        self.eat(event.method.as_bytes());
        self.eat(event.target.as_bytes());
    }

    /// The fingerprint of everything pushed so far.
    pub fn finish(&self) -> u64 {
        self.hash
    }
}

impl LoadTrace {
    /// FNV-1a over the rendered events — the reproducibility fingerprint
    /// (same seed ⇒ same hash, any divergence ⇒ different hash).
    pub fn fingerprint(&self) -> u64 {
        let mut digest = TraceDigest::new();
        for event in &self.events {
            digest.push(event);
        }
        digest.finish()
    }

    /// Requests per route label, for summaries: each event labelled as
    /// the server's metrics would count it.
    pub fn route_mix(&self) -> Vec<(String, usize)> {
        let mut mix: std::collections::BTreeMap<&str, usize> = std::collections::BTreeMap::new();
        for event in &self.events {
            let method =
                Method::parse(&event.method).unwrap_or_else(|| Method::Other(event.method.clone()));
            let route = Route::of(&method, &event.target);
            *mix.entry(route.label()).or_default() += 1;
        }
        mix.into_iter().map(|(k, v)| (k.to_owned(), v)).collect()
    }

    /// Mean offered rate of the generated trace, requests/second.
    pub fn offered_qps(&self) -> f64 {
        self.events.len() as f64 / self.profile.duration_s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_is_byte_identical() {
        let profile = LoadProfile::default();
        let a = profile.generate();
        let b = profile.generate();
        assert_eq!(a, b);
        assert_eq!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn different_seeds_diverge() {
        let a = LoadProfile::default().generate();
        let b = LoadProfile {
            seed: 999,
            ..LoadProfile::default()
        }
        .generate();
        assert_ne!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn offered_load_tracks_the_mean_rate() {
        let profile = LoadProfile {
            flash_crowds: 0,
            ..LoadProfile::default()
        };
        let trace = profile.generate();
        // Mean of the sinusoid is base_qps; Poisson noise is a few
        // percent at this sample size.
        let qps = trace.offered_qps();
        assert!(
            (qps - profile.base_qps).abs() < profile.base_qps * 0.15,
            "offered {qps} vs base {}",
            profile.base_qps
        );
    }

    #[test]
    fn flash_crowds_concentrate_arrivals() {
        let profile = LoadProfile {
            flash_crowds: 1,
            flash_boost: 5.0,
            ..LoadProfile::default()
        };
        let trace = profile.generate();
        let start = profile.flash_starts()[0];
        let window_us = (start * 1e6) as u64..((start + profile.flash_width_s) * 1e6) as u64;
        let inside = trace
            .events
            .iter()
            .filter(|e| window_us.contains(&e.at_us))
            .count();
        let width_share = profile.flash_width_s / profile.duration_s;
        let expected_flat = trace.events.len() as f64 * width_share;
        assert!(
            inside as f64 > expected_flat * 2.0,
            "flash window holds {inside} arrivals, flat would be {expected_flat:.0}"
        );
    }

    #[test]
    fn arrivals_are_ordered_and_in_range() {
        let trace = LoadProfile::default().generate();
        assert!(!trace.events.is_empty());
        let limit_us = (trace.profile.duration_s * 1e6) as u64;
        let mut last = 0;
        for event in &trace.events {
            assert!(event.at_us >= last, "arrivals out of order");
            assert!(event.at_us < limit_us);
            assert!(event.client < trace.profile.clients);
            last = event.at_us;
        }
    }

    #[test]
    fn digests_are_chunk_size_independent() {
        let trace = LoadProfile::default().generate();
        let whole = trace.fingerprint();
        for chunk in [1usize, 7, 64, trace.events.len()] {
            let mut digest = TraceDigest::new();
            for batch in trace.events.chunks(chunk) {
                for event in batch {
                    digest.push(event);
                }
            }
            assert_eq!(
                digest.finish(),
                whole,
                "chunk size {chunk} changed the fingerprint"
            );
        }
        // And a truncated stream is not the full stream.
        let mut partial = TraceDigest::new();
        for event in &trace.events[..trace.events.len() - 1] {
            partial.push(event);
        }
        assert_ne!(partial.finish(), whole);
    }

    #[test]
    fn flash_onsets_depend_only_on_their_own_knobs() {
        let base = LoadProfile::default();
        let onsets = base.flash_starts();
        assert_eq!(onsets.len(), base.flash_crowds as usize);
        assert!(onsets.windows(2).all(|w| w[0] <= w[1]), "onsets sorted");

        // Traffic-shape knobs that don't feed the flash sampler must not
        // move the onsets: the dispatcher schedules drains against them.
        let reshaped = LoadProfile {
            base_qps: 900.0,
            diurnal_amplitude: 0.1,
            clients: 3,
            board_space: 7,
            flash_boost: 10.0,
            ..base.clone()
        };
        assert_eq!(reshaped.flash_starts(), onsets);

        // The knobs that do feed it must.
        let reseeded = LoadProfile {
            seed: base.seed + 1,
            ..base.clone()
        };
        assert_ne!(reseeded.flash_starts(), onsets);
        let widened = LoadProfile {
            flash_width_s: base.flash_width_s * 4.0,
            ..base
        };
        assert_ne!(widened.flash_starts(), onsets);
    }

    #[test]
    fn the_mix_is_lookup_dominated() {
        let trace = LoadProfile::default().generate();
        let mix = trace.route_mix();
        let lookups = mix
            .iter()
            .find(|(k, _)| k == "safe_point")
            .map_or(0, |(_, v)| *v);
        assert!(
            lookups as f64 > trace.events.len() as f64 * 0.8,
            "lookups {lookups} of {}",
            trace.events.len()
        );
    }
}
