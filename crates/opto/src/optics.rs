//! External laser source, splitter tree and variable optical attenuators
//! (paper §2.1.2, §3.1 and Fig. 3).
//!
//! In the MQW-modulator scheme, one central mode-locked laser in its own
//! chassis feeds every transmitter in the system. Light is split statically
//! — in the paper's 64-rack system through a 1:64 stage followed by a 1:20
//! stage per rack — and a variable optical attenuator (VOA) per outgoing
//! fiber steps each link's light level among coarse optical power levels.
//! The laser lives outside the system's power/cooling budget, which is the
//! scheme's main thermal selling point; what the network pays for is the
//! modulator + driver (electrical) and the VOA control.
//!
//! VOAs are slow: the paper assumes a ~100 µs transition, which is why the
//! external-laser controller uses few, coarse levels and a long (200 µs)
//! decision period.

use crate::units::{Decibels, MicroWatts};
use serde::{Deserialize, Serialize};

/// The coarse optical power level of a link fed by the external laser
/// (paper §3.2.2): `Plow = 0.5 · Pmid`, `Pmid = 0.5 · Phigh`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum OpticalLevel {
    /// Quarter power — supports bit rates below 4 Gb/s.
    Low,
    /// Half power — supports 4–6 Gb/s.
    Mid,
    /// Full power — supports 6–10 Gb/s.
    High,
}

impl OpticalLevel {
    /// All levels, ascending.
    pub const ALL: [OpticalLevel; 3] = [OpticalLevel::Low, OpticalLevel::Mid, OpticalLevel::High];

    /// Fraction of the full optical power delivered at this level.
    pub(crate) fn fraction(self) -> f64 {
        match self {
            OpticalLevel::Low => 0.25,
            OpticalLevel::Mid => 0.5,
            OpticalLevel::High => 1.0,
        }
    }

    /// The attenuation a VOA must add (relative to `High`) to realize this
    /// level.
    pub(crate) fn attenuation(self) -> Decibels {
        Decibels::from_linear(1.0 / self.fraction())
    }

    /// The minimum level able to support `bit_rate_gbps` per the paper's
    /// banding: `<4 → Low`, `4–6 → Mid`, `>6 → High`.
    pub fn required_for_gbps(bit_rate_gbps: f64) -> OpticalLevel {
        if bit_rate_gbps < 4.0 {
            OpticalLevel::Low
        } else if bit_rate_gbps <= 6.0 {
            OpticalLevel::Mid
        } else {
            OpticalLevel::High
        }
    }

    /// The next level up, saturating at `High`.
    pub fn step_up(self) -> OpticalLevel {
        match self {
            OpticalLevel::Low => OpticalLevel::Mid,
            OpticalLevel::Mid | OpticalLevel::High => OpticalLevel::High,
        }
    }

    /// The next level down, saturating at `Low`.
    pub fn step_down(self) -> OpticalLevel {
        match self {
            OpticalLevel::High => OpticalLevel::Mid,
            OpticalLevel::Mid | OpticalLevel::Low => OpticalLevel::Low,
        }
    }
}

/// One fused-fiber splitting stage: an ideal 1:N split plus excess loss.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SplitterStage {
    ways: u32,
    excess_loss: Decibels,
}

impl SplitterStage {
    /// Creates a 1:`ways` splitting stage with the given excess loss on top
    /// of the ideal `10·log10(ways)` dB splitting loss.
    ///
    /// # Panics
    ///
    /// Panics if `ways < 2` or excess loss is negative.
    pub(crate) fn new(ways: u32, excess_loss: Decibels) -> Self {
        assert!(ways >= 2, "a splitter needs at least 2 ways");
        assert!(
            excess_loss.as_db() >= 0.0,
            "excess loss must be non-negative"
        );
        SplitterStage { ways, excess_loss }
    }

    /// Number of output ways.
    pub(crate) fn ways(&self) -> u32 {
        self.ways
    }

    /// Ideal splitting loss `10·log10(ways)`.
    pub(crate) fn ideal_loss(&self) -> Decibels {
        Decibels::from_linear(self.ways as f64)
    }

    /// Total insertion loss (ideal + excess).
    pub(crate) fn insertion_loss(&self) -> Decibels {
        self.ideal_loss() + self.excess_loss
    }
}

/// A chain of splitting stages from the central laser to one link's
/// transmitter.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct SplitterTree {
    stages: Vec<SplitterStage>,
}

impl SplitterTree {
    /// An empty tree (no splitting).
    pub(crate) fn new() -> Self {
        SplitterTree { stages: Vec::new() }
    }

    /// The paper's distribution (Fig. 3(b)): a 1:64 stage to the racks
    /// followed by a 1:20 stage within each rack. Excess losses follow the
    /// footnote's 1:16 ≤ 13.6 dB datum (≈1.56 dB excess per stage).
    pub(crate) fn paper_64rack() -> Self {
        let mut tree = SplitterTree::new();
        tree.push(SplitterStage::new(64, Decibels::from_db(1.6)));
        tree.push(SplitterStage::new(20, Decibels::from_db(1.6)));
        tree
    }

    /// Appends a stage.
    pub(crate) fn push(&mut self, stage: SplitterStage) -> &mut Self {
        self.stages.push(stage);
        self
    }

    /// Iterates over the stages.
    pub fn iter(&self) -> std::slice::Iter<'_, SplitterStage> {
        self.stages.iter()
    }

    /// Total number of leaf fibers (product of stage ways).
    pub fn leaf_count(&self) -> u64 {
        self.stages.iter().map(|s| s.ways() as u64).product()
    }

    /// Total insertion loss from root to any leaf.
    pub fn total_loss(&self) -> Decibels {
        self.stages
            .iter()
            .map(SplitterStage::insertion_loss)
            .fold(Decibels::ZERO, |a, b| a + b)
    }

    /// Optical power reaching a leaf for a given laser output.
    pub(crate) fn power_at_leaf(&self, laser_output: MicroWatts) -> MicroWatts {
        laser_output.attenuate(self.total_loss())
    }
}

/// The external mode-locked laser source with its splitter tree and
/// per-link VOA settings.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExternalLaserSource {
    output: MicroWatts,
    tree: SplitterTree,
    voa_floor_loss: Decibels,
}

impl ExternalLaserSource {
    /// Creates a source with the given continuous-wave output power,
    /// distribution tree, and VOA pass-through (floor) loss.
    ///
    /// # Panics
    ///
    /// Panics if the output power is not strictly positive or the floor
    /// loss is negative.
    pub(crate) fn new(output: MicroWatts, tree: SplitterTree, voa_floor_loss: Decibels) -> Self {
        assert!(output.as_uw() > 0.0, "laser output must be positive");
        assert!(
            voa_floor_loss.as_db() >= 0.0,
            "VOA floor loss must be non-negative"
        );
        ExternalLaserSource {
            output,
            tree,
            voa_floor_loss,
        }
    }

    /// The paper's configuration: a mode-locked laser sized so that every
    /// one of the 1280 leaves still receives comfortably more than the
    /// 25 µW (at 10 Gb/s) receiver requirement after ~32 dB of splitting.
    /// A 500 mW CW source leaves ≈180 µW per leaf.
    pub fn paper_default() -> Self {
        ExternalLaserSource::new(
            MicroWatts::from_uw(500_000.0),
            SplitterTree::paper_64rack(),
            Decibels::from_db(0.5),
        )
    }

    /// The laser's CW output.
    pub fn output(&self) -> MicroWatts {
        self.output
    }

    /// The splitter tree.
    pub fn tree(&self) -> &SplitterTree {
        &self.tree
    }

    /// Light delivered to one link's modulator at a given optical level.
    pub fn power_at_link(&self, level: OpticalLevel) -> MicroWatts {
        self.tree
            .power_at_leaf(self.output)
            .attenuate(self.voa_floor_loss)
            .attenuate(level.attenuation())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_fractions_halve() {
        assert_eq!(OpticalLevel::High.fraction(), 1.0);
        assert_eq!(OpticalLevel::Mid.fraction(), 0.5);
        assert_eq!(OpticalLevel::Low.fraction(), 0.25);
    }

    #[test]
    fn level_banding_matches_paper() {
        assert_eq!(OpticalLevel::required_for_gbps(3.3), OpticalLevel::Low);
        assert_eq!(OpticalLevel::required_for_gbps(4.0), OpticalLevel::Mid);
        assert_eq!(OpticalLevel::required_for_gbps(5.0), OpticalLevel::Mid);
        assert_eq!(OpticalLevel::required_for_gbps(6.0), OpticalLevel::Mid);
        assert_eq!(OpticalLevel::required_for_gbps(6.5), OpticalLevel::High);
        assert_eq!(OpticalLevel::required_for_gbps(10.0), OpticalLevel::High);
    }

    #[test]
    fn level_stepping_saturates() {
        assert_eq!(OpticalLevel::Low.step_up(), OpticalLevel::Mid);
        assert_eq!(OpticalLevel::Mid.step_up(), OpticalLevel::High);
        assert_eq!(OpticalLevel::High.step_up(), OpticalLevel::High);
        assert_eq!(OpticalLevel::High.step_down(), OpticalLevel::Mid);
        assert_eq!(OpticalLevel::Low.step_down(), OpticalLevel::Low);
    }

    #[test]
    fn level_attenuations() {
        assert!((OpticalLevel::Mid.attenuation().as_db() - 3.0103).abs() < 0.001);
        assert!((OpticalLevel::Low.attenuation().as_db() - 6.0206).abs() < 0.001);
        assert!(OpticalLevel::High.attenuation().as_db().abs() < 1e-9);
    }

    #[test]
    fn splitter_1_to_16_within_paper_footnote() {
        // Paper footnote: 1:16 splitting has at most 13.6 dB insertion loss.
        let s = SplitterStage::new(16, Decibels::from_db(1.5));
        let loss = s.insertion_loss().as_db();
        assert!(loss <= 13.6, "1:16 loss {loss} dB");
        assert!(loss >= 12.0, "must include the ideal 12 dB: {loss}");
    }

    #[test]
    fn tree_loss_accumulates() {
        let tree = SplitterTree::paper_64rack();
        assert_eq!(tree.leaf_count(), 1280);
        let loss = tree.total_loss().as_db();
        // ideal: 10log10(64) + 10log10(20) = 18.06 + 13.01 = 31.07 (+3.2 excess)
        assert!((loss - 34.27).abs() < 0.05, "tree loss {loss}");
    }

    #[test]
    fn paper_source_feeds_all_links() {
        let src = ExternalLaserSource::paper_default();
        // At full level, each leaf must comfortably exceed the 25 µW
        // 10 Gb/s receiver sensitivity even after ~3 dB of path loss.
        let high = src.power_at_link(OpticalLevel::High);
        assert!(high.as_uw() > 100.0, "delivered {high}");
        assert!(high.attenuate(Decibels::from_db(3.0)) >= MicroWatts::from_uw(25.0));
    }

    #[test]
    fn levels_scale_delivered_light() {
        let src = ExternalLaserSource::paper_default();
        let high = src.power_at_link(OpticalLevel::High).as_uw();
        let mid = src.power_at_link(OpticalLevel::Mid).as_uw();
        let low = src.power_at_link(OpticalLevel::Low).as_uw();
        assert!((mid / high - 0.5).abs() < 1e-6);
        assert!((low / high - 0.25).abs() < 1e-6);
    }

    #[test]
    fn empty_tree_is_lossless() {
        let tree = SplitterTree::new();
        assert_eq!(tree.total_loss(), Decibels::ZERO);
        assert_eq!(tree.leaf_count(), 1);
        let p = tree.power_at_leaf(MicroWatts::from_uw(10.0));
        assert!((p.as_uw() - 10.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "at least 2")]
    fn one_way_splitter_rejected() {
        let _ = SplitterStage::new(1, Decibels::ZERO);
    }
}
