//! Analytic continuous-time analog waveforms.

use core::fmt;

use pstime::{Duration, Instant, Millivolts};

use crate::digital::{DigitalWaveform, EdgePolarity};

/// The programmed output voltage levels of a driver.
///
/// The paper's PECL output stage exposes independent control of the high
/// level, low level, and midpoint bias, stepped by on-board DACs (Figs. 10
/// and 11). Levels are exact millivolts.
///
/// # Examples
///
/// ```
/// use pstime::Millivolts;
/// use signal::LevelSet;
///
/// let pecl = LevelSet::pecl();
/// assert_eq!(pecl.swing(), Millivolts::new(800));
/// let reduced = pecl.with_swing(Millivolts::new(400));
/// assert_eq!(reduced.swing(), Millivolts::new(400));
/// assert_eq!(reduced.mid(), pecl.mid()); // swing changes keep the bias
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LevelSet {
    voh: Millivolts,
    vol: Millivolts,
}

impl LevelSet {
    /// Creates a level set.
    ///
    /// # Panics
    ///
    /// Panics if `voh <= vol`.
    pub fn new(voh: Millivolts, vol: Millivolts) -> Self {
        assert!(voh > vol, "VOH must exceed VOL");
        LevelSet { voh, vol }
    }

    /// Standard PECL levels referenced to VCC = 0 V: VOH = −900 mV,
    /// VOL = −1700 mV (800 mV swing).
    pub fn pecl() -> Self {
        LevelSet::new(Millivolts::new(-900), Millivolts::new(-1700))
    }

    /// Ground-referenced LVCMOS-ish levels for the DLC's direct I/O:
    /// 0 / 1800 mV.
    pub fn lvcmos18() -> Self {
        LevelSet::new(Millivolts::new(1800), Millivolts::new(0))
    }

    /// The high level.
    #[inline]
    pub fn voh(&self) -> Millivolts {
        self.voh
    }

    /// The low level.
    #[inline]
    pub fn vol(&self) -> Millivolts {
        self.vol
    }

    /// `VOH − VOL`.
    #[inline]
    pub fn swing(&self) -> Millivolts {
        self.voh - self.vol
    }

    /// The midpoint (switching threshold).
    #[inline]
    pub fn mid(&self) -> Millivolts {
        self.voh.midpoint(self.vol)
    }

    /// Returns a copy with a different high level.
    ///
    /// # Panics
    ///
    /// Panics if the new VOH does not exceed VOL.
    #[must_use]
    pub fn with_voh(&self, voh: Millivolts) -> LevelSet {
        LevelSet::new(voh, self.vol)
    }

    /// Returns a copy with a different low level.
    ///
    /// # Panics
    ///
    /// Panics if VOH does not exceed the new VOL.
    #[must_use]
    pub fn with_vol(&self, vol: Millivolts) -> LevelSet {
        LevelSet::new(self.voh, vol)
    }

    /// Returns a copy with the same midpoint but a new swing — the paper's
    /// Fig. 11 amplitude-adjustment experiment.
    ///
    /// # Panics
    ///
    /// Panics if `swing` is not positive.
    #[must_use]
    pub fn with_swing(&self, swing: Millivolts) -> LevelSet {
        assert!(swing > Millivolts::ZERO, "swing must be positive");
        let mid = self.mid();
        LevelSet::new(mid + swing / 2, mid + swing / 2 - swing)
    }

    /// Returns a copy shifted so its midpoint is `mid` (swing preserved).
    #[must_use]
    pub fn with_mid(&self, mid: Millivolts) -> LevelSet {
        let delta = mid - self.mid();
        LevelSet::new(self.voh + delta, self.vol + delta)
    }

    /// Scales the swing by `factor` about the midpoint (for attenuation).
    ///
    /// # Panics
    ///
    /// Panics if `factor` is not in `(0, +∞)`.
    #[must_use]
    pub fn attenuated(&self, factor: f64) -> LevelSet {
        assert!(factor.is_finite() && factor > 0.0, "attenuation factor must be positive");
        let half = Millivolts::new(((self.swing().as_mv() as f64) * factor / 2.0).round() as i32);
        let mid = self.mid();
        LevelSet::new(mid + half, mid + half - half * 2)
    }
}

impl Default for LevelSet {
    fn default() -> Self {
        LevelSet::pecl()
    }
}

impl fmt::Display for LevelSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "VOH={} VOL={} (swing {})", self.voh, self.vol, self.swing())
    }
}

/// The transition shape of a driver output stage: a logistic step with a
/// given 20–80 % rise and fall time.
///
/// A logistic edge `S(t) = 1/(1+e^{−t/τ})` crosses 20 % and 80 % at
/// `∓τ·ln 4`, so `t_r(20–80) = 2τ·ln 4 ≈ 2.7726 τ`. The analytic form means
/// overlapping transitions superpose naturally, reproducing the
/// amplitude-swing compression the paper observes when the 120 ps mini-tester
/// buffer runs at a 200 ps unit interval (Fig. 18).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EdgeShape {
    rise_tau_fs: f64,
    fall_tau_fs: f64,
}

/// `2·ln 4`: ratio between the 20–80 % transition time and the logistic τ.
const T2080_PER_TAU: f64 = 2.772588722239781;

impl EdgeShape {
    /// Creates a shape from equal 20–80 % rise and fall times (ps).
    ///
    /// # Panics
    ///
    /// Panics if `ps` is not positive and finite.
    pub fn from_rise_2080_ps(ps: f64) -> Self {
        Self::from_rise_fall_2080_ps(ps, ps)
    }

    /// Creates a shape from distinct 20–80 % rise and fall times (ps).
    ///
    /// # Panics
    ///
    /// Panics if either value is not positive and finite.
    pub fn from_rise_fall_2080_ps(rise_ps: f64, fall_ps: f64) -> Self {
        assert!(rise_ps.is_finite() && rise_ps > 0.0, "rise time must be positive");
        assert!(fall_ps.is_finite() && fall_ps > 0.0, "fall time must be positive");
        EdgeShape {
            rise_tau_fs: rise_ps * 1_000.0 / T2080_PER_TAU,
            fall_tau_fs: fall_ps * 1_000.0 / T2080_PER_TAU,
        }
    }

    /// The nominal 20–80 % rise time.
    pub fn rise_2080(&self) -> Duration {
        Duration::from_fs((self.rise_tau_fs * T2080_PER_TAU).round() as i64)
    }

    /// The nominal 20–80 % fall time.
    pub fn fall_2080(&self) -> Duration {
        Duration::from_fs((self.fall_tau_fs * T2080_PER_TAU).round() as i64)
    }

    /// Returns a shape whose transitions are slowed by an additional
    /// bandwidth limit with equivalent 20–80 % time `extra` — times combine
    /// root-sum-square, the standard cascade rule for first-order systems.
    #[must_use]
    pub fn cascaded_with_2080_ps(&self, extra_ps: f64) -> EdgeShape {
        assert!(extra_ps.is_finite() && extra_ps >= 0.0, "extra rise time must be nonnegative");
        let extra_tau = extra_ps * 1_000.0 / T2080_PER_TAU;
        EdgeShape {
            rise_tau_fs: (self.rise_tau_fs.powi(2) + extra_tau.powi(2)).sqrt(),
            fall_tau_fs: (self.fall_tau_fs.powi(2) + extra_tau.powi(2)).sqrt(),
        }
    }

    fn tau_fs(&self, polarity: EdgePolarity) -> f64 {
        match polarity {
            EdgePolarity::Rising => self.rise_tau_fs,
            EdgePolarity::Falling => self.fall_tau_fs,
        }
    }
}

impl Default for EdgeShape {
    /// The paper's SiGe output buffer: 72 ps 20–80 % (Fig. 6 reports
    /// 70–75 ps).
    fn default() -> Self {
        EdgeShape::from_rise_2080_ps(72.0)
    }
}

/// How many τ away an edge still contributes to the superposition.
/// `sech²`-type tails at 20 τ are ~2×10⁻⁹ of the swing — below every
/// measurement in this crate.
const EDGE_WINDOW_TAUS: f64 = 20.0;

/// An analytic continuous-time analog waveform: logistic transitions between
/// the levels of a [`LevelSet`] at the instants of a [`DigitalWaveform`].
///
/// The value at any instant is evaluated **exactly** (superposition of the
/// nearby transitions), so measurements that chase 10 ps effects — eye
/// openings, crossover jitter, 20–80 % times — are not limited by a sample
/// grid.
///
/// # Examples
///
/// ```
/// use pstime::{DataRate, Instant};
/// use signal::jitter::NoJitter;
/// use signal::{AnalogWaveform, BitStream, DigitalWaveform, EdgeShape, LevelSet};
///
/// let rate = DataRate::from_gbps(2.5);
/// let bits = BitStream::from_str_bits("0011");
/// let d = DigitalWaveform::from_bits(&bits, rate, &NoJitter, 0);
/// let a = AnalogWaveform::new(d, LevelSet::pecl(), EdgeShape::default());
/// // Settled low at bit 0 center, settled high at bit 3 center.
/// assert!((a.value_at(Instant::from_ps(200)) - (-1700.0)).abs() < 1.0);
/// assert!((a.value_at(Instant::from_ps(1400)) - (-900.0)).abs() < 1.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct AnalogWaveform {
    digital: DigitalWaveform,
    levels: LevelSet,
    shape: EdgeShape,
}

impl AnalogWaveform {
    /// Wraps a digital waveform with levels and a transition shape.
    pub fn new(digital: DigitalWaveform, levels: LevelSet, shape: EdgeShape) -> Self {
        AnalogWaveform { digital, levels, shape }
    }

    /// The underlying digital waveform.
    #[inline]
    pub fn digital(&self) -> &DigitalWaveform {
        &self.digital
    }

    /// The programmed levels.
    #[inline]
    pub fn levels(&self) -> &LevelSet {
        &self.levels
    }

    /// The transition shape.
    #[inline]
    pub fn shape(&self) -> &EdgeShape {
        &self.shape
    }

    /// The instantaneous voltage (millivolts) at `t`.
    ///
    /// Superposes every transition whose logistic tail is non-negligible at
    /// `t`; with well-separated edges this is the settled VOH/VOL, with
    /// overlapping edges it reproduces ISI amplitude compression.
    ///
    /// Costs O(log E + w) for E edges, w of them inside the logistic
    /// window around `t`: a binary search finds the window, the edges
    /// before it contribute their settled level in closed form, and only
    /// the window is summed.
    pub fn value_at(&self, t: Instant) -> f64 {
        // Find the window of edges that can influence t.
        let lo_idx = self.digital.edges().partition_point(|e| e.at < t - self.window());
        self.value_from(t, lo_idx)
    }

    /// How far from `t` an edge still enters [`value_at`](Self::value_at)'s
    /// logistic sum.
    fn window(&self) -> Duration {
        let max_tau = self.shape.rise_tau_fs.max(self.shape.fall_tau_fs);
        Duration::from_fs((max_tau * EDGE_WINDOW_TAUS).ceil() as i64)
    }

    /// The level before any edge.
    fn base(&self) -> f64 {
        if self.digital.initial_level() {
            self.levels.voh().as_f64()
        } else {
            self.levels.vol().as_f64()
        }
    }

    /// The level once every edge in `edges[..count]` has settled.
    /// Polarities strictly alternate (every constructor enforces it), so
    /// those steps cancel in pairs: the settled level is the base after an
    /// even count and one step away after an odd one. This is bit-identical
    /// to summing them one by one, because levels are whole millivolts and
    /// every partial sum is an integer that f64 represents exactly.
    fn settled_after(&self, count: usize) -> f64 {
        let base = self.base();
        match self.digital.edges().first() {
            Some(first) if count % 2 == 1 => {
                base + first.polarity.sign() * self.levels.swing().as_f64()
            }
            _ => base,
        }
    }

    /// [`value_at`](Self::value_at) given `lo_idx`, the number of edges
    /// before the window around `t`: those contribute their full step,
    /// and only the window is summed.
    fn value_from(&self, t: Instant, lo_idx: usize) -> f64 {
        let swing = self.levels.swing().as_f64();
        let win = self.window();
        let mut v = self.settled_after(lo_idx);
        for e in self.digital.edges().get(lo_idx..).unwrap_or_default() {
            let dt = (t - e.at).as_fs() as f64;
            if dt < -win.as_fs() as f64 {
                break;
            }
            let tau = self.shape.tau_fs(e.polarity);
            v += e.polarity.sign() * swing * logistic(dt / tau);
        }
        v
    }

    /// A comparator that decides `value_at(t) >= threshold` (millivolts)
    /// for a run of instants, cheaply where the waveform has settled far
    /// from the threshold. See [`Comparator`].
    pub fn comparator(&self, threshold: f64) -> Comparator<'_> {
        let swing = self.levels.swing().as_f64();
        let settled = |count| {
            let level = self.settled_after(count);
            (level > threshold, (level - threshold).abs() - DECISION_MARGIN_MV)
        };
        // Polarities alternate, so an edge's τ follows its index parity.
        let inv_tau = |index: usize| match self.digital.edges().get(index) {
            Some(e) => 1.0 / self.shape.tau_fs(e.polarity),
            None => 0.0,
        };
        Comparator {
            wave: self,
            threshold,
            window: self.window(),
            settled: [settled(0), settled(1)],
            swing,
            inv_tau: [inv_tau(0), inv_tau(1)],
            edge_rounding: EDGE_ROUNDING_ULPS * f64::EPSILON * (self.base().abs() + 3.0 * swing),
            cursor: 0,
        }
    }

    /// Finds the instant in `[lo, hi]` where the waveform crosses
    /// `threshold` (millivolts), by bisection to 1 fs.
    ///
    /// # Errors
    ///
    /// Returns [`crate::SignalError::CrossingNotFound`] if the waveform does
    /// not bracket the threshold over the interval.
    pub fn find_crossing(
        &self,
        threshold: f64,
        lo: Instant,
        hi: Instant,
    ) -> crate::Result<Instant> {
        let f_lo = self.value_at(lo) - threshold;
        let f_hi = self.value_at(hi) - threshold;
        if f_lo == 0.0 {
            return Ok(lo);
        }
        if f_hi == 0.0 {
            return Ok(hi);
        }
        if f_lo.signum() == f_hi.signum() {
            return Err(crate::SignalError::CrossingNotFound {
                context: "threshold not bracketed by search window",
            });
        }
        let (mut a, mut b) = (lo, hi);
        let mut f_a = f_lo;
        while (b - a).as_fs() > 1 {
            let mid = a + (b - a) / 2;
            let f_mid = self.value_at(mid) - threshold;
            if f_mid == 0.0 {
                return Ok(mid);
            }
            if f_mid.signum() == f_a.signum() {
                a = mid;
                f_a = f_mid;
            } else {
                b = mid;
            }
        }
        Ok(b)
    }

    /// Samples the waveform on a uniform grid: `n` samples starting at `t0`
    /// spaced `dt` apart. For rendering and for export; analysis should use
    /// [`value_at`](Self::value_at) directly.
    ///
    /// # Panics
    ///
    /// Panics if `dt` is not positive.
    pub fn sample_uniform(&self, t0: Instant, dt: Duration, n: usize) -> Vec<f64> {
        assert!(dt > Duration::ZERO, "sample spacing must be positive");
        (0..n).map(|i| self.value_at(t0 + dt * i as i64)).collect()
    }

    /// Minimum and maximum voltage over `[lo, hi]`, scanned at `step`
    /// resolution (with analytic refinement unnecessary because extrema sit
    /// at settled levels or mid-transition plateaus wider than any
    /// reasonable `step`).
    ///
    /// # Panics
    ///
    /// Panics if `step` is not positive or the window is empty.
    pub fn range_over(&self, lo: Instant, hi: Instant, step: Duration) -> (f64, f64) {
        assert!(step > Duration::ZERO, "scan step must be positive");
        assert!(hi > lo, "scan window must be nonempty");
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        let mut t = lo;
        while t <= hi {
            let v = self.value_at(t);
            min = min.min(v);
            max = max.max(v);
            t += step;
        }
        (min, max)
    }

    /// Returns a copy with different levels (a re-programmed driver DAC).
    #[must_use]
    pub fn with_levels(&self, levels: LevelSet) -> AnalogWaveform {
        AnalogWaveform { digital: self.digital.clone(), levels, shape: self.shape }
    }
}

/// Absolute slack (millivolts) a [`Comparator`] certificate keeps on top
/// of its bound. `value_at` rounds by under 1e-11 mV at millivolt-scale
/// levels; this margin is five orders of magnitude wider.
const DECISION_MARGIN_MV: f64 = 1e-6;

/// Per window edge, the rounding a certificate allows for, in ulps of the
/// largest partial sum `value_at` can reach (`|base| + 3·swing`): the
/// logistic term's own evaluation plus the addition into the sum.
const EDGE_ROUNDING_ULPS: f64 = 4.0;

/// A threshold comparator over an [`AnalogWaveform`].
///
/// A comparator only needs to know which side of its threshold the signal
/// is on, and where the signal has settled far from the threshold that
/// answer needs no logistic sum. [`decided_within`](Self::decided_within)
/// certifies such answers for a whole interval of instants;
/// [`is_high_at`](Self::is_high_at) answers for one instant, falling back
/// to [`AnalogWaveform::value_at`] — the single definition of the
/// waveform — when no certificate exists. Either way the answer is
/// exactly `value_at(t) >= threshold`.
///
/// **The certificate.** Between edges, the waveform's *settled* level is
/// VOH or VOL, chosen by the parity of the edges before it (polarities
/// alternate). `value_at` differs from the settled level only through
/// the edges inside its 20 τ window, and an edge `|dt|` away moves it by
/// `swing·logistic(−a)`, `a = |dt|/τ`. Because `eᵃ ≥ 1 + a + a²/2 + a³/6`,
/// that is below `swing / (2 + a + a²/2 + a³/6)`. Edges outside the
/// window contribute their exact step in `value_at` and in the settled
/// level alike. So when no edge falls inside the interval and
/// `|settled − threshold|` exceeds the sum of those bounds over every
/// window edge (each at its nearest approach to the interval) plus a
/// rounding margin, every instant in the interval decides alike.
///
/// The comparator keeps an edge cursor that moves with the queried
/// instants, so a forward sweep (one strobe per bit) costs O(1) per
/// query instead of a binary search.
///
/// # Examples
///
/// ```
/// use pstime::{DataRate, Duration, Instant};
/// use signal::jitter::NoJitter;
/// use signal::{AnalogWaveform, BitStream, DigitalWaveform, EdgeShape, LevelSet};
///
/// let rate = DataRate::from_gbps(2.5);
/// let bits = BitStream::from_str_bits("0011");
/// let d = DigitalWaveform::from_bits(&bits, rate, &NoJitter, 0);
/// let wave = AnalogWaveform::new(d, LevelSet::pecl(), EdgeShape::default());
/// let mut cmp = wave.comparator(-1300.0);
/// // Mid-bit, far from the 800 ps edge: decided for ±20 ps without a sum.
/// assert_eq!(cmp.decided_within(Instant::from_ps(200), Duration::from_ps(20)), Some(false));
/// assert_eq!(cmp.decided_within(Instant::from_ps(1400), Duration::from_ps(20)), Some(true));
/// // On the edge itself there is no certificate; is_high_at still answers.
/// assert_eq!(cmp.decided_within(Instant::from_ps(800), Duration::from_ps(20)), None);
/// let t = Instant::from_ps(801);
/// assert_eq!(cmp.is_high_at(t), wave.value_at(t) >= -1300.0);
/// ```
#[derive(Debug, Clone)]
pub struct Comparator<'a> {
    wave: &'a AnalogWaveform,
    threshold: f64,
    window: Duration,
    /// `(settled level above the threshold, certifiable gap)` after an
    /// even and after an odd number of edges.
    settled: [(bool, f64); 2],
    swing: f64,
    /// `1/τ` of the edges at even and at odd indices.
    inv_tau: [f64; 2],
    /// Rounding allowance per window edge, see [`EDGE_ROUNDING_ULPS`].
    edge_rounding: f64,
    /// Edges before the last seek key.
    cursor: usize,
}

impl Comparator<'_> {
    /// `Some(value_at(t) >= threshold)` when that answer is the same for
    /// every `t` within `slack` of `center` and the certificate above
    /// proves it; `None` when it cannot.
    pub fn decided_within(&mut self, center: Instant, slack: Duration) -> Option<bool> {
        let edges = self.wave.digital.edges();
        let (lo, hi) = (center - slack, center + slack);
        let before = self.seek(lo);
        if edges.get(before).is_some_and(|e| e.at <= hi) {
            // An edge inside the interval: the settled level changes.
            return None;
        }
        let (high, gap) = self.settled[before % 2];
        if gap <= 0.0 {
            return None;
        }
        // Window edges on either side, nearest first, each at its nearest
        // approach to [lo, hi]; edges past the windows contribute nothing.
        let mut bound = 0.0;
        let (first, last) = (lo - self.window, hi + self.window);
        for (j, e) in edges.iter().enumerate().take(before).rev() {
            if e.at < first {
                break;
            }
            bound += self.edge_bound(lo - e.at, j);
            if bound >= gap {
                return None;
            }
        }
        for (j, e) in edges.iter().enumerate().skip(before) {
            if e.at > last {
                break;
            }
            bound += self.edge_bound(e.at - hi, j);
            if bound >= gap {
                return None;
            }
        }
        Some(high)
    }

    /// Exactly `value_at(t) >= threshold`: certified at `t` when
    /// possible, otherwise evaluated by the waveform's own sum.
    pub fn is_high_at(&mut self, t: Instant) -> bool {
        if let Some(high) = self.decided_within(t, Duration::ZERO) {
            return high;
        }
        // The cursor counts the edges before t; value_at's window starts
        // at the first edge no earlier than t − window.
        let edges = self.wave.digital.edges();
        let first = t - self.window;
        let mut lo_idx = self.cursor;
        while lo_idx > 0 && edges.get(lo_idx - 1).is_some_and(|e| e.at >= first) {
            lo_idx -= 1;
        }
        self.wave.value_from(t, lo_idx) >= self.threshold
    }

    /// The largest move, rounding included, that edge `index`, `distance`
    /// from every instant in question, can make.
    fn edge_bound(&self, distance: Duration, index: usize) -> f64 {
        let a = distance.as_fs_f64() * self.inv_tau[index % 2];
        self.swing / (2.0 + a * (1.0 + a * (0.5 + a / 6.0))) + self.edge_rounding
    }

    /// Moves the cursor to the number of edges before `key` and returns
    /// it: a short walk from where the last query left it, or a binary
    /// search when the key jumped further.
    fn seek(&mut self, key: Instant) -> usize {
        const WALK: usize = 8;
        let edges = self.wave.digital.edges();
        let mut i = self.cursor.min(edges.len());
        for _ in 0..WALK {
            match (i.checked_sub(1).and_then(|p| edges.get(p)), edges.get(i)) {
                (Some(prev), _) if prev.at >= key => i -= 1,
                (_, Some(next)) if next.at < key => i += 1,
                _ => {
                    self.cursor = i;
                    return i;
                }
            }
        }
        self.cursor = edges.partition_point(|e| e.at < key);
        self.cursor
    }
}

#[inline]
fn logistic(x: f64) -> f64 {
    if x >= 0.0 {
        1.0 / (1.0 + (-x).exp())
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jitter::NoJitter;
    use crate::{BitStream, Edge};
    use pstime::DataRate;

    fn analog(bits: &str, gbps: f64, rise_ps: f64) -> AnalogWaveform {
        let d = DigitalWaveform::from_bits(
            &BitStream::from_str_bits(bits),
            DataRate::from_gbps(gbps),
            &NoJitter,
            0,
        );
        AnalogWaveform::new(d, LevelSet::pecl(), EdgeShape::from_rise_2080_ps(rise_ps))
    }

    #[test]
    fn level_set_arithmetic() {
        let l = LevelSet::pecl();
        assert_eq!(l.voh(), Millivolts::new(-900));
        assert_eq!(l.vol(), Millivolts::new(-1700));
        assert_eq!(l.swing(), Millivolts::new(800));
        assert_eq!(l.mid(), Millivolts::new(-1300));
        assert_eq!(l.with_voh(Millivolts::new(-1000)).swing(), Millivolts::new(700));
        assert_eq!(l.with_vol(Millivolts::new(-1600)).swing(), Millivolts::new(700));
        let s = l.with_swing(Millivolts::new(400));
        assert_eq!(s.swing(), Millivolts::new(400));
        assert_eq!(s.mid(), l.mid());
        let m = l.with_mid(Millivolts::ZERO);
        assert_eq!(m.mid(), Millivolts::ZERO);
        assert_eq!(m.swing(), Millivolts::new(800));
        let a = l.attenuated(0.5);
        assert_eq!(a.swing(), Millivolts::new(400));
        assert_eq!(a.mid(), l.mid());
        assert_eq!(LevelSet::default(), LevelSet::pecl());
        assert!(LevelSet::lvcmos18().swing() == Millivolts::new(1800));
        assert!(l.to_string().contains("VOH=-900 mV"));
    }

    #[test]
    #[should_panic(expected = "VOH must exceed VOL")]
    fn inverted_levels_panic() {
        let _ = LevelSet::new(Millivolts::new(-1700), Millivolts::new(-900));
    }

    #[test]
    fn edge_shape_round_trips() {
        let s = EdgeShape::from_rise_2080_ps(72.0);
        assert_eq!(s.rise_2080(), Duration::from_ps(72));
        assert_eq!(s.fall_2080(), Duration::from_ps(72));
        let a = EdgeShape::from_rise_fall_2080_ps(70.0, 75.0);
        assert_eq!(a.rise_2080(), Duration::from_ps(70));
        assert_eq!(a.fall_2080(), Duration::from_ps(75));
        // RSS cascade: 30^2 + 40^2 = 50^2.
        let c = EdgeShape::from_rise_2080_ps(30.0).cascaded_with_2080_ps(40.0);
        assert_eq!(c.rise_2080(), Duration::from_ps(50));
        assert_eq!(EdgeShape::default().rise_2080(), Duration::from_ps(72));
    }

    #[test]
    fn settled_levels() {
        let a = analog("0011", 2.5, 72.0);
        assert!((a.value_at(Instant::from_ps(200)) + 1700.0).abs() < 1.0);
        assert!((a.value_at(Instant::from_ps(1400)) + 900.0).abs() < 1.0);
        // The transition midpoint sits at the threshold.
        let mid = a.value_at(Instant::from_ps(800));
        assert!((mid + 1300.0).abs() < 1.0, "mid = {mid}");
    }

    #[test]
    fn constant_waveform_value() {
        let d = DigitalWaveform::constant(true, Instant::ZERO, Instant::from_ps(100));
        let a = AnalogWaveform::new(d, LevelSet::pecl(), EdgeShape::default());
        assert!((a.value_at(Instant::from_ps(50)) + 900.0).abs() < 1e-9);
    }

    #[test]
    fn rise_time_matches_shape() {
        let a = analog("0011", 2.5, 72.0);
        // 20% and 80% points of -1700..-900: -1540 and -1060 mV.
        let t20 = a.find_crossing(-1540.0, Instant::from_ps(600), Instant::from_ps(1000)).unwrap();
        let t80 = a.find_crossing(-1060.0, Instant::from_ps(600), Instant::from_ps(1000)).unwrap();
        let rise = t80 - t20;
        assert!(
            (rise.as_ps_f64() - 72.0).abs() < 1.0,
            "measured 20-80 rise {} ps",
            rise.as_ps_f64()
        );
    }

    #[test]
    fn crossing_bisection_is_exact() {
        let a = analog("01", 2.5, 72.0);
        // Transition centered at 400 ps: mid-crossing must land within 1 fs.
        let t = a.find_crossing(-1300.0, Instant::from_ps(200), Instant::from_ps(600)).unwrap();
        assert!((t - Instant::from_ps(400)).abs() <= Duration::from_fs(2));
    }

    #[test]
    fn crossing_not_found() {
        let a = analog("0000", 2.5, 72.0);
        let err =
            a.find_crossing(-1300.0, Instant::from_ps(0), Instant::from_ps(1000)).unwrap_err();
        assert!(matches!(err, crate::SignalError::CrossingNotFound { .. }));
    }

    #[test]
    fn isi_compresses_amplitude_at_5gbps() {
        // 120 ps edges at a 200 ps UI: single-bit pulses cannot reach the
        // rails (the paper's Fig. 18 observation).
        let fast = analog("0010100", 5.0, 120.0);
        let (min_v, max_v) =
            fast.range_over(Instant::from_ps(300), Instant::from_ps(1100), Duration::from_ps(1));
        let peak = max_v;
        assert!(peak < -950.0, "isolated 1 at 5 Gbps should not reach VOH, got {peak}");

        // The same pattern at 1 Gbps settles fully.
        let slow = analog("0010100", 1.0, 120.0);
        let (_, max_slow) =
            slow.range_over(Instant::from_ps(1500), Instant::from_ps(5500), Duration::from_ps(5));
        assert!((max_slow + 900.0).abs() < 2.0, "1 Gbps peak {max_slow}");
        let _ = min_v;
    }

    #[test]
    fn with_levels_reprograms_dac() {
        let a = analog("01", 2.5, 72.0);
        let b = a.with_levels(LevelSet::pecl().with_voh(Millivolts::new(-1000)));
        assert!((b.value_at(Instant::from_ps(700)) + 1000.0).abs() < 1.0);
        assert_eq!(b.shape(), a.shape());
        assert_eq!(b.digital(), a.digital());
        assert_eq!(b.levels().voh(), Millivolts::new(-1000));
    }

    #[test]
    fn sample_uniform_grid() {
        let a = analog("0110", 2.5, 20.0);
        let samples = a.sample_uniform(Instant::ZERO, Duration::from_ps(100), 16);
        assert_eq!(samples.len(), 16);
        assert!((samples[2] + 1700.0).abs() < 1.0); // 200 ps: low
        assert!((samples[8] + 900.0).abs() < 1.0); // 800 ps: high
    }

    /// The original O(E) evaluation: every settled edge before the window
    /// re-added one by one. `value_at` must match it bit for bit.
    fn value_at_reference(a: &AnalogWaveform, t: Instant) -> f64 {
        let swing = a.levels.swing().as_f64();
        let base = if a.digital.initial_level() {
            a.levels.voh().as_f64()
        } else {
            a.levels.vol().as_f64()
        };
        let edges = a.digital.edges();
        if edges.is_empty() {
            return base;
        }
        let max_tau = a.shape.rise_tau_fs.max(a.shape.fall_tau_fs);
        let win = Duration::from_fs((max_tau * EDGE_WINDOW_TAUS).ceil() as i64);
        let lo_idx = edges.partition_point(|e| e.at < t - win);
        let mut v = base;
        for e in &edges[..lo_idx] {
            v += e.polarity.sign() * swing;
        }
        for e in &edges[lo_idx..] {
            let dt = (t - e.at).as_fs() as f64;
            if dt < -win.as_fs() as f64 {
                break;
            }
            let tau = a.shape.tau_fs(e.polarity);
            v += e.polarity.sign() * swing * logistic(dt / tau);
        }
        v
    }

    /// Instants before the first edge, on and around every edge (inside
    /// its logistic window), past the last edge, and on a 7 ps grid over
    /// the whole span.
    fn probe_instants(d: &DigitalWaveform) -> Vec<Instant> {
        let far = Duration::from_ps(5_000);
        let mut ts = vec![d.start() - far, d.end() + far];
        if let (Some(first), Some(last)) = (d.edges().first(), d.edges().last()) {
            ts.extend([first.at - far, first.at - Duration::from_fs(1), last.at + far]);
        }
        for e in d.edges() {
            for off_fs in [-40_000, -3_000, -1, 0, 1, 3_000, 40_000] {
                ts.push(e.at + Duration::from_fs(off_fs));
            }
        }
        let mut t = d.start() - far;
        while t < d.end() + far {
            ts.push(t);
            t += Duration::from_ps(7);
        }
        ts
    }

    #[test]
    fn value_at_is_bit_identical_to_the_linear_sum() {
        let rate = DataRate::from_gbps(5.0);
        // A pseudo-random pattern with long and short runs.
        let bits = BitStream::from_fn(256, |i| (i * 7 + i / 5 + (i * i) % 11) % 3 == 0);
        let budget = crate::jitter::JitterBudget::new()
            .with_rj_rms_ps(3.2)
            .with_dcd_ps(12.0)
            .with_isi_ps(8.0);
        let jittered = DigitalWaveform::from_bits(&bits, rate, &budget, 0x5EED);
        let edges = |initial: bool| {
            let mut level = initial;
            (1..40)
                .map(|i| {
                    level = !level;
                    let at = Instant::from_ps(i * 90 + (i % 3) * 20);
                    if level {
                        Edge::rising(at)
                    } else {
                        Edge::falling(at)
                    }
                })
                .collect::<Vec<_>>()
        };
        let (start, end) = (Instant::ZERO, Instant::from_ps(4_000));
        let high = DigitalWaveform::from_edges(true, edges(true), start, end);
        let low = DigitalWaveform::from_edges(false, edges(false), start, end);
        let digitals = [
            jittered.clone(),
            high.clone(),
            low.clone(),
            jittered.inverted(),
            jittered.delayed(Duration::from_ps(-137)),
            high.xor(&jittered),
            low.xor(&high.delayed(Duration::from_ps(45))),
        ];
        let shapes =
            [EdgeShape::from_rise_2080_ps(20.0), EdgeShape::from_rise_fall_2080_ps(150.0, 90.0)];
        for (k, d) in digitals.iter().enumerate() {
            assert!(d.num_edges() > 0, "waveform {k} has no edges");
            for levels in [LevelSet::pecl(), LevelSet::lvcmos18()] {
                for shape in shapes {
                    let a = AnalogWaveform::new(d.clone(), levels, shape);
                    for t in probe_instants(d) {
                        let (got, want) = (a.value_at(t), value_at_reference(&a, t));
                        assert_eq!(
                            got.to_bits(),
                            want.to_bits(),
                            "waveform {k} at {t}: {got} vs {want}"
                        );
                    }
                }
            }
        }
    }

    /// Waveforms for the comparator equivalence tests: jittered
    /// pseudo-random patterns at 1, 2.5, 4 and 5 Gb/s with equal and with
    /// unequal rise and fall times, their inverted, delayed and xored
    /// variants, hand-placed edges starting high and low, PECL and
    /// LVCMOS levels, and an edgeless waveform.
    fn comparator_waves() -> Vec<AnalogWaveform> {
        let bits = BitStream::from_fn(40, |i| (i * 7 + i / 5 + (i * i) % 11) % 3 == 0);
        let budget = crate::jitter::JitterBudget::new()
            .with_rj_rms_ps(3.2)
            .with_dcd_ps(12.0)
            .with_isi_ps(8.0);
        let shapes =
            [EdgeShape::from_rise_2080_ps(72.0), EdgeShape::from_rise_fall_2080_ps(120.0, 70.0)];
        let mut waves = Vec::new();
        for (k, gbps) in [1.0, 2.5, 4.0, 5.0].into_iter().enumerate() {
            let d =
                DigitalWaveform::from_bits(&bits, DataRate::from_gbps(gbps), &budget, 9 + k as u64);
            let shape = shapes[k % 2];
            waves.push(AnalogWaveform::new(d.clone(), LevelSet::pecl(), shape));
            waves.push(AnalogWaveform::new(d.inverted(), LevelSet::pecl(), shapes[1]));
            if k == 1 {
                waves.push(AnalogWaveform::new(
                    d.delayed(Duration::from_ps(-137)),
                    LevelSet::lvcmos18(),
                    shape,
                ));
                waves.push(AnalogWaveform::new(
                    d.xor(&d.delayed(Duration::from_ps(45))),
                    LevelSet::pecl(),
                    shapes[1],
                ));
            }
        }
        for initial in [true, false] {
            let mut level = initial;
            let edges = (1..24)
                .map(|i| {
                    level = !level;
                    let at = Instant::from_ps(i * 150 + (i % 4) * 35);
                    if level {
                        Edge::rising(at)
                    } else {
                        Edge::falling(at)
                    }
                })
                .collect();
            let d =
                DigitalWaveform::from_edges(initial, edges, Instant::ZERO, Instant::from_ps(4_000));
            waves.push(AnalogWaveform::new(d, LevelSet::pecl(), shapes[1]));
        }
        let flat = DigitalWaveform::constant(true, Instant::ZERO, Instant::from_ps(2_000));
        waves.push(AnalogWaveform::new(flat, LevelSet::pecl(), shapes[0]));
        waves
    }

    /// Thresholds beyond, at, just inside, and between the rails.
    fn comparator_thresholds(levels: &LevelSet) -> Vec<f64> {
        let (vol, voh) = (levels.vol().as_f64(), levels.voh().as_f64());
        let mid = levels.mid().as_f64();
        vec![
            vol - 100.0,
            vol,
            vol + 0.5,
            vol + 37.0,
            mid,
            mid + 0.25,
            voh - 37.0,
            voh - 0.5,
            voh,
            voh + 100.0,
        ]
    }

    /// The instants to probe: a 997 fs grid over ±150 ps around every
    /// edge, a coarse grid over the whole span, and every femtosecond
    /// within ±20 fs of each mid-threshold crossing.
    fn comparator_instants(a: &AnalogWaveform) -> Vec<Instant> {
        let d = a.digital();
        let mut ts = Vec::new();
        let mut t = d.start() - Duration::from_ps(300);
        while t < d.end() + Duration::from_ps(300) {
            ts.push(t);
            t += Duration::from_ps(11);
        }
        let mid = a.levels().mid().as_f64();
        for e in d.edges() {
            let mut t = e.at - Duration::from_ps(150);
            while t < e.at + Duration::from_ps(150) {
                ts.push(t);
                t += Duration::from_fs(997);
            }
            let reach = Duration::from_ps(60);
            if let Ok(x) = a.find_crossing(mid, e.at - reach, e.at + reach) {
                ts.extend((-20..=20).map(|fs| x + Duration::from_fs(fs)));
            }
        }
        ts
    }

    #[test]
    fn is_high_at_equals_the_value_at_comparison() {
        for (k, a) in comparator_waves().iter().enumerate() {
            let ts = comparator_instants(a);
            for thr in comparator_thresholds(a.levels()) {
                // One comparator swept forward, one probed out of order.
                let mut forward = a.comparator(thr);
                let mut scattered = a.comparator(thr);
                for (i, &t) in ts.iter().enumerate() {
                    let want = a.value_at(t) >= thr;
                    assert_eq!(forward.is_high_at(t), want, "wave {k} thr {thr} at {t}");
                    let u = ts[(i * 7919) % ts.len()];
                    assert_eq!(
                        scattered.is_high_at(u),
                        a.value_at(u) >= thr,
                        "wave {k} thr {thr} at {u}"
                    );
                }
            }
        }
    }

    #[test]
    fn a_certified_interval_decides_every_instant_in_it() {
        let mut certified = 0usize;
        let mut queried = 0usize;
        for (k, a) in comparator_waves().iter().enumerate() {
            let d = a.digital();
            for thr in comparator_thresholds(a.levels()) {
                let mut cmp = a.comparator(thr);
                for slack_fs in [0, 1, 17_144, 60_000] {
                    let slack = Duration::from_fs(slack_fs);
                    let step = Duration::from_fs((slack_fs / 10).max(1));
                    let mut s = d.start() - Duration::from_ps(200);
                    while s < d.end() + Duration::from_ps(200) {
                        queried += 1;
                        if let Some(high) = cmp.decided_within(s, slack) {
                            certified += 1;
                            let mut t = s - slack;
                            while t <= s + slack {
                                assert_eq!(
                                    a.value_at(t) >= thr,
                                    high,
                                    "wave {k} thr {thr} s {s} ±{slack} at {t}"
                                );
                                t += step;
                            }
                            assert_eq!(
                                a.value_at(s + slack) >= thr,
                                high,
                                "wave {k} thr {thr} at {s}+{slack}"
                            );
                        }
                        s += Duration::from_ps(13);
                    }
                }
            }
        }
        // The certificate is not vacuous: most mid-bit queries settle.
        assert!(certified * 2 > queried, "certified {certified} of {queried}");
    }

    #[test]
    fn the_certificate_is_refused_at_a_settled_rail() {
        let a = analog("0011", 2.5, 72.0);
        // Settled low exactly on VOL: the gap is zero, nothing certifies,
        // and is_high_at still answers value_at's way.
        let mut on_vol = a.comparator(-1700.0);
        assert_eq!(on_vol.decided_within(Instant::from_ps(200), Duration::ZERO), None);
        let t = Instant::from_ps(100);
        assert_eq!(on_vol.is_high_at(t), a.value_at(t) >= -1700.0);
        // A waveform with no edges is its base level everywhere.
        let flat = AnalogWaveform::new(
            DigitalWaveform::constant(false, Instant::ZERO, Instant::from_ps(100)),
            LevelSet::pecl(),
            EdgeShape::default(),
        );
        let mut cmp = flat.comparator(-1300.0);
        assert_eq!(cmp.decided_within(Instant::from_ps(50), Duration::from_ps(500)), Some(false));
        assert_eq!(flat.comparator(-1700.0).decided_within(Instant::ZERO, Duration::ZERO), None);
        assert!(flat.comparator(-1700.0).is_high_at(Instant::ZERO));
    }

    #[test]
    fn logistic_basics() {
        assert!((logistic(0.0) - 0.5).abs() < 1e-15);
        assert!(logistic(20.0) > 0.999_999);
        assert!(logistic(-20.0) < 1e-6);
        assert!((logistic(1.0) + logistic(-1.0) - 1.0).abs() < 1e-15);
    }
}
