//! Problem instances: posts, node budget, radio links, charging model.

use crate::BuildError;
use std::fmt;
use wrsn_charging::ChargeModel;
use wrsn_energy::{Energy, LevelIdx, RadioParams, TxLevels};
use wrsn_geom::{GridIndex, Point};
use wrsn_graph::Digraph;

/// Index of a post; posts are dense integers `0..num_posts`, and the value
/// `num_posts` denotes the base station in routing structures.
pub type PostId = usize;

/// How charging efficiency scales with the co-located node count `m`.
#[derive(Debug, Clone, PartialEq)]
pub enum GainKind {
    /// The paper's assumption: `k(m) = m`.
    Linear,
    /// Sub-linear `k(m) = m^p`, `p ∈ (0, 1]`.
    Sublinear(f64),
    /// Tabulated `k(m)` samples for `m = 1, 2, …` (flat beyond the last).
    Measured(Vec<f64>),
}

/// The charging model attached to an instance: base single-node efficiency
/// `η` plus a gain curve `k(m)`, giving `η(m) = k(m)·η`.
///
/// Implements [`ChargeModel`], so it interoperates with the `wrsn-charging`
/// simulators.
///
/// # Examples
///
/// ```
/// use wrsn_charging::ChargeModel;
/// use wrsn_core::ChargeSpec;
///
/// let spec = ChargeSpec::linear(0.01);
/// assert_eq!(spec.efficiency(4), 0.04);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ChargeSpec {
    eta: f64,
    gain: GainKind,
}

impl ChargeSpec {
    /// Linear gain with single-node efficiency `eta ∈ (0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if `eta` lies outside `(0, 1]`.
    #[must_use]
    pub fn linear(eta: f64) -> Self {
        ChargeSpec::new(eta, GainKind::Linear)
    }

    /// The normalized model `η = 1`, `k(m) = m` — the paper's evaluation
    /// metric then reports costs directly in consumed-energy units.
    #[must_use]
    pub fn normalized() -> Self {
        ChargeSpec::linear(1.0)
    }

    /// Creates a charging spec from `eta` and an arbitrary gain kind.
    ///
    /// # Panics
    ///
    /// Panics if `eta` lies outside `(0, 1]`, if a sublinear exponent lies
    /// outside `(0, 1]`, or if measured samples are invalid (empty, first
    /// sample not 1, decreasing, or non-positive).
    #[must_use]
    pub fn new(eta: f64, gain: GainKind) -> Self {
        assert!(
            eta > 0.0 && eta <= 1.0 && eta.is_finite(),
            "eta must lie in (0, 1], got {eta}"
        );
        match &gain {
            GainKind::Linear => {}
            GainKind::Sublinear(p) => {
                assert!(
                    *p > 0.0 && *p <= 1.0,
                    "sublinear exponent must lie in (0, 1]"
                );
            }
            GainKind::Measured(samples) => {
                assert!(!samples.is_empty(), "measured gain needs samples");
                assert!(
                    (samples[0] - 1.0).abs() < 1e-9,
                    "measured gain must start at k(1) = 1"
                );
                assert!(
                    samples.windows(2).all(|w| w[1] >= w[0]) && samples.iter().all(|&s| s > 0.0),
                    "measured gain samples must be positive and non-decreasing"
                );
            }
        }
        ChargeSpec { eta, gain }
    }

    /// The single-node efficiency `η`.
    #[must_use]
    pub fn eta(&self) -> f64 {
        self.eta
    }

    /// The gain curve kind.
    #[must_use]
    pub fn gain(&self) -> &GainKind {
        &self.gain
    }
}

impl ChargeModel for ChargeSpec {
    fn efficiency(&self, m: u32) -> f64 {
        assert!(m >= 1, "cannot charge a post with zero nodes");
        let k = match &self.gain {
            GainKind::Linear => f64::from(m),
            GainKind::Sublinear(p) => f64::from(m).powf(*p),
            GainKind::Measured(samples) => samples[(m as usize - 1).min(samples.len() - 1)],
        };
        k * self.eta
    }
}

impl Default for ChargeSpec {
    /// The normalized linear model ([`ChargeSpec::normalized`]).
    fn default() -> Self {
        ChargeSpec::normalized()
    }
}

impl fmt::Display for ChargeSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.gain {
            GainKind::Linear => write!(f, "eta={} (linear)", self.eta),
            GainKind::Sublinear(p) => write!(f, "eta={} (m^{p})", self.eta),
            GainKind::Measured(s) => write!(f, "eta={} (measured, {} pts)", self.eta, s.len()),
        }
    }
}

/// Geometric context retained by instances built from post coordinates,
/// used by the discrete-event simulator and the examples.
#[derive(Debug, Clone, PartialEq)]
pub struct Geometry {
    /// Post locations.
    pub posts: Vec<Point>,
    /// Base-station location.
    pub base_station: Point,
    /// The discrete transmission levels.
    pub levels: TxLevels,
    /// The radio energy model.
    pub radio: RadioParams,
}

/// A joint deployment/routing problem instance.
///
/// Nodes `0..num_posts` are posts; node index `num_posts` (see
/// [`Instance::bs`]) is the base station. Each post records its *uplinks*:
/// the nodes it can transmit to and the per-bit energy of doing so at the
/// weakest sufficient power level. Receiving costs [`Instance::rx_energy`]
/// per bit at a post and nothing at the wall-powered base station.
///
/// Instances are validated on construction: every post can reach the base
/// station, and the node budget fits the posts (and the optional per-post
/// cap, used by the NP-completeness reduction).
#[derive(Debug, Clone, PartialEq)]
pub struct Instance {
    uplinks: Vec<Vec<(usize, Energy)>>,
    rx_energy: Energy,
    num_nodes: u32,
    charge: ChargeSpec,
    max_nodes_per_post: Option<u32>,
    report_rates: Vec<f64>,
    sensing: Vec<Energy>,
    geometry: Option<Geometry>,
}

impl Instance {
    /// Number of posts `N`.
    #[must_use]
    pub fn num_posts(&self) -> usize {
        self.uplinks.len()
    }

    /// The node index representing the base station (`num_posts`).
    #[must_use]
    pub fn bs(&self) -> usize {
        self.uplinks.len()
    }

    /// Total sensor-node budget `M`.
    #[must_use]
    pub fn num_nodes(&self) -> u32 {
        self.num_nodes
    }

    /// Per-bit reception energy at a post.
    #[must_use]
    pub fn rx_energy(&self) -> Energy {
        self.rx_energy
    }

    /// The uplinks of post `p` as `(target, per-bit tx energy)`, where
    /// `target` is a post id or [`Instance::bs`].
    #[must_use]
    pub fn uplinks(&self, p: PostId) -> &[(usize, Energy)] {
        &self.uplinks[p]
    }

    /// Per-bit transmission energy from `p` to `target`, if `p` can reach
    /// it (the cheapest link when parallel links exist).
    #[must_use]
    pub fn tx_energy(&self, p: PostId, target: usize) -> Option<Energy> {
        self.uplinks[p]
            .iter()
            .filter(|&&(t, _)| t == target)
            .map(|&(_, e)| e)
            .min()
    }

    /// The charging model.
    #[must_use]
    pub fn charge(&self) -> &ChargeSpec {
        &self.charge
    }

    /// Network charging efficiency `η(m)` for a post holding `m` nodes.
    #[must_use]
    pub fn charge_efficiency(&self, m: u32) -> f64 {
        self.charge.efficiency(m)
    }

    /// The optional per-post node cap.
    #[must_use]
    pub fn max_nodes_per_post(&self) -> Option<u32> {
        self.max_nodes_per_post
    }

    /// Post `p`'s report rate in bits per round (the paper's model is a
    /// uniform one bit per post per round, the default).
    #[must_use]
    pub fn report_rate(&self, p: PostId) -> f64 {
        self.report_rates[p]
    }

    /// All report rates, indexed by post.
    #[must_use]
    pub fn report_rates(&self) -> &[f64] {
        &self.report_rates
    }

    /// Post `p`'s deployment-independent per-round energy (sensing,
    /// computation, idle listening). Zero by default; the paper notes the
    /// model "can be extended to other sources of energy consumption" —
    /// this is that extension.
    #[must_use]
    pub fn sensing_energy(&self, p: PostId) -> Energy {
        self.sensing[p]
    }

    /// The geometric context, if the instance was built from coordinates.
    #[must_use]
    pub fn geometry(&self) -> Option<&Geometry> {
        self.geometry.as_ref()
    }

    /// The raw connectivity (ignoring deployments) as a [`Digraph`] whose
    /// edge weights are per-bit consumed energy: tx at the sender plus rx
    /// at the receiver (zero rx at the base station). This is the paper's
    /// Phase I graph.
    #[must_use]
    pub fn energy_digraph(&self) -> Digraph {
        let mut g = Digraph::new(self.num_posts() + 1);
        for (u, links) in self.uplinks.iter().enumerate() {
            for &(v, tx) in links {
                let rx = if v == self.bs() {
                    Energy::ZERO
                } else {
                    self.rx_energy
                };
                g.add_edge(u, v, (tx + rx).as_njoules());
            }
        }
        g
    }
}

impl fmt::Display for Instance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "instance(N={}, M={}, {})",
            self.num_posts(),
            self.num_nodes,
            self.charge
        )
    }
}

/// The configuration checks every build makes before it looks at links:
/// some posts, at least one node per post, and room for all nodes under
/// the optional per-post cap.
pub(crate) fn check_budget(
    posts: usize,
    num_nodes: u32,
    max_nodes_per_post: Option<u32>,
) -> Result<(), BuildError> {
    if posts == 0 {
        return Err(BuildError::NoPosts);
    }
    if (num_nodes as usize) < posts {
        return Err(BuildError::TooFewNodes {
            nodes: num_nodes,
            posts,
        });
    }
    if let Some(cap) = max_nodes_per_post {
        let capacity = u64::from(cap) * posts as u64;
        if u64::from(num_nodes) > capacity {
            return Err(BuildError::CapacityTooSmall {
                nodes: num_nodes,
                capacity,
            });
        }
    }
    Ok(())
}

#[allow(clippy::too_many_arguments)] // internal plumbing shared by two builders
fn validate(
    uplinks: Vec<Vec<(usize, Energy)>>,
    rx_energy: Energy,
    num_nodes: u32,
    charge: ChargeSpec,
    max_nodes_per_post: Option<u32>,
    report_rates: Option<Vec<f64>>,
    sensing: Option<Vec<Energy>>,
    geometry: Option<Geometry>,
) -> Result<Instance, BuildError> {
    let n = uplinks.len();
    check_budget(n, num_nodes, max_nodes_per_post)?;
    for (from, links) in uplinks.iter().enumerate() {
        for &(to, _) in links {
            if to > n || to == from {
                return Err(BuildError::BadLink { from, to });
            }
        }
    }
    let report_rates = report_rates.unwrap_or_else(|| vec![1.0; n]);
    if report_rates.len() != n {
        return Err(BuildError::BadProfile {
            what: "report rates",
            got: report_rates.len(),
            expected: n,
        });
    }
    if !report_rates.iter().all(|r| r.is_finite() && *r > 0.0) {
        return Err(BuildError::InvalidProfileValue {
            what: "report rate",
        });
    }
    let sensing = sensing.unwrap_or_else(|| vec![Energy::ZERO; n]);
    if sensing.len() != n {
        return Err(BuildError::BadProfile {
            what: "sensing energies",
            got: sensing.len(),
            expected: n,
        });
    }
    if !sensing.iter().all(|e| e.is_finite() && *e >= Energy::ZERO) {
        return Err(BuildError::InvalidProfileValue {
            what: "sensing energy",
        });
    }
    let inst = Instance {
        uplinks,
        rx_energy,
        num_nodes,
        charge,
        max_nodes_per_post,
        report_rates,
        sensing,
        geometry,
    };
    let g = inst.energy_digraph();
    if !g.all_reach(inst.bs()) {
        let sp = wrsn_graph::dijkstra_to(&g, inst.bs());
        let unreachable: Vec<usize> = (0..n).filter(|&p| sp.distance(p).is_none()).collect();
        return Err(BuildError::Disconnected { unreachable });
    }
    Ok(inst)
}

/// Builder for geometric instances: posts at coordinates, links wherever
/// the distance fits within the maximum transmission range.
///
/// Defaults follow the paper's evaluation setup: base station at the
/// origin (the field's lower-left corner), ICDCS 2010 radio parameters and
/// level set `{25, 50, 75} m`, and the normalized linear charging model.
///
/// # Examples
///
/// ```
/// use wrsn_core::GeometricInstanceBuilder;
/// use wrsn_energy::TxLevels;
/// use wrsn_geom::Field;
///
/// let posts = Field::square(200.0).random_posts(10, 1);
/// let inst = GeometricInstanceBuilder::new(posts, 30)
///     .levels(TxLevels::evenly_spaced(6, 25.0))
///     .eta(0.01)
///     .build()?;
/// assert_eq!(inst.num_posts(), 10);
/// # Ok::<(), wrsn_core::BuildError>(())
/// ```
#[derive(Debug, Clone)]
pub struct GeometricInstanceBuilder {
    posts: Vec<Point>,
    num_nodes: u32,
    base_station: Point,
    levels: TxLevels,
    radio: RadioParams,
    charge: ChargeSpec,
    max_nodes_per_post: Option<u32>,
    report_rates: Option<Vec<f64>>,
    sensing: Option<Vec<Energy>>,
}

impl GeometricInstanceBuilder {
    /// Starts a builder with the mandatory inputs: post locations and the
    /// total node budget.
    #[must_use]
    pub fn new(posts: Vec<Point>, num_nodes: u32) -> Self {
        GeometricInstanceBuilder {
            posts,
            num_nodes,
            base_station: Point::ORIGIN,
            levels: TxLevels::icdcs2010(),
            radio: RadioParams::icdcs2010(),
            charge: ChargeSpec::normalized(),
            max_nodes_per_post: None,
            report_rates: None,
            sensing: None,
        }
    }

    /// Sets per-post report rates in bits per round (default: 1 each —
    /// the paper's uniform model).
    #[must_use]
    pub fn report_rates(mut self, rates: Vec<f64>) -> Self {
        self.report_rates = Some(rates);
        self
    }

    /// Sets per-post deployment-independent per-round energy (sensing /
    /// computation; default: zero).
    #[must_use]
    pub fn sensing_energies(mut self, sensing: Vec<Energy>) -> Self {
        self.sensing = Some(sensing);
        self
    }

    /// Sets the base-station location (default: the origin).
    #[must_use]
    pub fn base_station(mut self, bs: Point) -> Self {
        self.base_station = bs;
        self
    }

    /// Sets the transmission level set (default: `{25, 50, 75} m`).
    #[must_use]
    pub fn levels(mut self, levels: TxLevels) -> Self {
        self.levels = levels;
        self
    }

    /// Sets the radio energy model (default: ICDCS 2010 parameters).
    #[must_use]
    pub fn radio(mut self, radio: RadioParams) -> Self {
        self.radio = radio;
        self
    }

    /// Sets the charging model (default: normalized linear).
    #[must_use]
    pub fn charge(mut self, charge: ChargeSpec) -> Self {
        self.charge = charge;
        self
    }

    /// Shorthand for a linear charging model with the given `eta`.
    ///
    /// # Panics
    ///
    /// Panics if `eta` lies outside `(0, 1]`.
    #[must_use]
    pub fn eta(self, eta: f64) -> Self {
        self.charge(ChargeSpec::linear(eta))
    }

    /// Caps the number of nodes deployable at any single post.
    #[must_use]
    pub fn max_nodes_per_post(mut self, cap: u32) -> Self {
        self.max_nodes_per_post = Some(cap);
        self
    }

    /// Builds and validates the instance.
    ///
    /// # Errors
    ///
    /// Returns a [`BuildError`] if the configuration is inconsistent or
    /// some post cannot reach the base station within the maximum range.
    pub fn build(self) -> Result<Instance, BuildError> {
        let mut links = Vec::new();
        self.links(&mut links);
        self.build_from_links(&links)
    }

    /// The geometric link rule: fills `out` with `(post, node, level)` for
    /// every post and each other post or the base station (index
    /// `posts.len()`) within `d_max`, at the weakest level that covers the
    /// distance, in post order. Both [`build`](Self::build) and the
    /// sampler's connectivity check take their links from here.
    pub(crate) fn links(&self, out: &mut Vec<(usize, usize, LevelIdx)>) {
        out.clear();
        let d_max = self.levels.max_range();
        // Spatial index over posts + base station for near-linear
        // neighbor discovery.
        let mut all_points = self.posts.clone();
        all_points.push(self.base_station);
        let index = GridIndex::new(&all_points, d_max.max(1e-9));
        for (u, &pu) in self.posts.iter().enumerate() {
            for v in index.within(pu, d_max) {
                if v == u {
                    continue;
                }
                if let Some(level) = self.levels.level_for_distance(pu.distance(all_points[v])) {
                    out.push((u, v, level));
                }
            }
        }
    }

    /// Builds and validates the instance with the links
    /// [`links`](Self::links) gave for these posts.
    pub(crate) fn build_from_links(
        self,
        links: &[(usize, usize, LevelIdx)],
    ) -> Result<Instance, BuildError> {
        // A link costs its level's transmission energy.
        let energies = self.levels.energies(&self.radio);
        let mut uplinks: Vec<Vec<(usize, Energy)>> = vec![Vec::new(); self.posts.len()];
        for &(u, v, level) in links {
            uplinks[u].push((v, energies[level]));
        }
        for up in &mut uplinks {
            up.sort_unstable_by_key(|&(v, _)| v);
        }
        validate(
            uplinks,
            self.radio.rx_energy(),
            self.num_nodes,
            self.charge,
            self.max_nodes_per_post,
            self.report_rates,
            self.sensing,
            Some(Geometry {
                posts: self.posts,
                base_station: self.base_station,
                levels: self.levels,
                radio: self.radio,
            }),
        )
    }
}

/// The posts `0..posts` that cannot reach the base station (index
/// `posts`) over `links` as [`GeometricInstanceBuilder::links`] lists
/// them, in increasing order: what a build reports as
/// [`BuildError::Disconnected`].
pub(crate) fn unreachable_posts(posts: usize, links: &[(usize, usize, LevelIdx)]) -> Vec<usize> {
    // Reverse adjacency in compressed rows: node v's senders are
    // senders[start[v]..start[v + 1]].
    let mut start = vec![0usize; posts + 2];
    for &(_, v, _) in links {
        start[v + 1] += 1;
    }
    for v in 1..start.len() {
        start[v] += start[v - 1];
    }
    let mut next = start.clone();
    let mut senders = vec![0usize; links.len()];
    for &(u, v, _) in links {
        senders[next[v]] = u;
        next[v] += 1;
    }
    let mut reached = vec![false; posts + 1];
    reached[posts] = true;
    let mut stack = vec![posts];
    while let Some(v) = stack.pop() {
        for &u in &senders[start[v]..start[v + 1]] {
            if !reached[u] {
                reached[u] = true;
                stack.push(u);
            }
        }
    }
    (0..posts).filter(|&p| !reached[p]).collect()
}

/// Builder for explicit instances: hand-specified links with per-bit
/// energies — the form the NP-completeness reduction produces.
///
/// # Examples
///
/// ```
/// use wrsn_core::InstanceBuilder;
/// use wrsn_energy::Energy;
///
/// // Two posts in a chain: 1 -> 0 -> BS.
/// let e = Energy::from_njoules(4.0);
/// let inst = InstanceBuilder::new(2, 3)
///     .rx_energy(Energy::from_njoules(2.0))
///     .uplink(0, 2, e)
///     .uplink(1, 0, e)
///     .build()?;
/// assert_eq!(inst.bs(), 2);
/// # Ok::<(), wrsn_core::BuildError>(())
/// ```
#[derive(Debug, Clone)]
pub struct InstanceBuilder {
    num_posts: usize,
    num_nodes: u32,
    rx_energy: Energy,
    charge: ChargeSpec,
    max_nodes_per_post: Option<u32>,
    report_rates: Option<Vec<f64>>,
    sensing: Option<Vec<Energy>>,
    links: Vec<(usize, usize, Energy)>,
}

impl InstanceBuilder {
    /// Starts a builder for `num_posts` posts and `num_nodes` sensor
    /// nodes. The base station is node `num_posts`.
    #[must_use]
    pub fn new(num_posts: usize, num_nodes: u32) -> Self {
        InstanceBuilder {
            num_posts,
            num_nodes,
            rx_energy: Energy::ZERO,
            charge: ChargeSpec::normalized(),
            max_nodes_per_post: None,
            report_rates: None,
            sensing: None,
            links: Vec::new(),
        }
    }

    /// Sets per-post report rates in bits per round (default: 1 each).
    #[must_use]
    pub fn report_rates(mut self, rates: Vec<f64>) -> Self {
        self.report_rates = Some(rates);
        self
    }

    /// Sets per-post deployment-independent per-round energy (default:
    /// zero).
    #[must_use]
    pub fn sensing_energies(mut self, sensing: Vec<Energy>) -> Self {
        self.sensing = Some(sensing);
        self
    }

    /// Sets the per-bit reception energy at posts (default: zero).
    #[must_use]
    pub fn rx_energy(mut self, e: Energy) -> Self {
        self.rx_energy = e;
        self
    }

    /// Sets the charging model (default: normalized linear).
    #[must_use]
    pub fn charge(mut self, charge: ChargeSpec) -> Self {
        self.charge = charge;
        self
    }

    /// Caps the number of nodes deployable at any single post.
    #[must_use]
    pub fn max_nodes_per_post(mut self, cap: u32) -> Self {
        self.max_nodes_per_post = Some(cap);
        self
    }

    /// Declares that post `from` can transmit to node `to` (a post id or
    /// `num_posts` for the base station) at per-bit energy `tx`.
    #[must_use]
    pub fn uplink(mut self, from: usize, to: usize, tx: Energy) -> Self {
        self.links.push((from, to, tx));
        self
    }

    /// Declares symmetric links in both directions at the same energy.
    #[must_use]
    pub fn bidi_link(self, a: usize, b: usize, tx: Energy) -> Self {
        self.uplink(a, b, tx).uplink(b, a, tx)
    }

    /// Builds and validates the instance.
    ///
    /// # Errors
    ///
    /// Returns a [`BuildError`] if a link is malformed, the node budget
    /// does not fit, or some post cannot reach the base station.
    pub fn build(self) -> Result<Instance, BuildError> {
        let mut uplinks: Vec<Vec<(usize, Energy)>> = vec![Vec::new(); self.num_posts];
        for (from, to, tx) in self.links {
            if from >= self.num_posts {
                return Err(BuildError::BadLink { from, to });
            }
            uplinks[from].push((to, tx));
        }
        validate(
            uplinks,
            self.rx_energy,
            self.num_nodes,
            self.charge,
            self.max_nodes_per_post,
            self.report_rates,
            self.sensing,
            None,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wrsn_geom::Field;

    #[test]
    fn charge_spec_models() {
        let lin = ChargeSpec::linear(0.5);
        assert_eq!(lin.efficiency(3), 1.5);
        let sub = ChargeSpec::new(0.5, GainKind::Sublinear(0.5));
        assert!((sub.efficiency(4) - 1.0).abs() < 1e-12);
        let meas = ChargeSpec::new(0.5, GainKind::Measured(vec![1.0, 1.5]));
        assert_eq!(meas.efficiency(2), 0.75);
        assert_eq!(meas.efficiency(9), 0.75); // flat extrapolation
        assert_eq!(ChargeSpec::default(), ChargeSpec::normalized());
    }

    #[test]
    #[should_panic(expected = "eta")]
    fn bad_eta_rejected() {
        let _ = ChargeSpec::linear(0.0);
    }

    #[test]
    fn geometric_build_links_by_range() {
        // Posts at 20 m and 60 m from the BS at origin, 40 m apart.
        let posts = vec![Point::new(20.0, 0.0), Point::new(60.0, 0.0)];
        let inst = GeometricInstanceBuilder::new(posts, 2).build().unwrap();
        // Post 0: BS at 20 m (level 0) and post 1 at 40 m (level 1).
        let links0 = inst.uplinks(0);
        assert_eq!(links0.len(), 2);
        assert_eq!(
            inst.tx_energy(0, inst.bs()).unwrap().as_njoules(),
            50.5078125
        );
        assert_eq!(inst.tx_energy(0, 1).unwrap().as_njoules(), 58.125);
        // Post 1: BS at 60 m (level 2) and post 0 at 40 m.
        assert_eq!(
            inst.tx_energy(1, inst.bs()).unwrap().as_njoules(),
            91.1328125
        );
        assert!(inst.geometry().is_some());
    }

    #[test]
    fn geometric_links_match_an_all_pairs_scan() {
        // Every pair within d_max links at the weakest covering level and
        // costs that level's transmission energy; a draw is disconnected
        // exactly when the link structure strands some post.
        let levels = TxLevels::icdcs2010();
        let radio = RadioParams::icdcs2010();
        let d_max = levels.max_range();
        let (mut built, mut stranded) = (0, 0);
        for (posts, field) in [(100, 500.0), (20, 300.0), (8, 200.0)] {
            for seed in 0..10 {
                let points = Field::square(field).random_posts(posts, seed);
                let builder = GeometricInstanceBuilder::new(points.clone(), posts as u32);
                let mut links = Vec::new();
                builder.links(&mut links);
                let mut all = points.clone();
                all.push(Point::ORIGIN);
                let want: Vec<Vec<(usize, Energy)>> = points
                    .iter()
                    .enumerate()
                    .map(|(u, &pu)| {
                        all.iter()
                            .enumerate()
                            .filter(|&(v, &pv)| v != u && pu.distance_squared(pv) <= d_max * d_max)
                            .filter_map(|(v, &pv)| {
                                let level = levels.level_for_distance(pu.distance(pv))?;
                                Some((v, radio.tx_energy(levels.range(level))))
                            })
                            .collect()
                    })
                    .collect();
                for (u, up) in want.iter().enumerate() {
                    let mut targets: Vec<usize> = links
                        .iter()
                        .filter(|&&(from, _, _)| from == u)
                        .map(|&(_, v, _)| v)
                        .collect();
                    targets.sort_unstable();
                    let want_targets: Vec<usize> = up.iter().map(|&(v, _)| v).collect();
                    assert_eq!(targets, want_targets, "post {u}");
                }
                let unreachable = unreachable_posts(posts, &links);
                match builder.build() {
                    Ok(inst) => {
                        built += 1;
                        assert!(unreachable.is_empty());
                        for (u, up) in want.iter().enumerate() {
                            assert_eq!(inst.uplinks(u), &up[..], "post {u}");
                        }
                    }
                    Err(e) => {
                        stranded += 1;
                        assert_eq!(e, BuildError::Disconnected { unreachable });
                    }
                }
            }
        }
        assert!(
            built > 0 && stranded > 0,
            "{built} built, {stranded} stranded"
        );
    }

    #[test]
    fn geometric_build_detects_disconnection() {
        let posts = vec![Point::new(20.0, 0.0), Point::new(500.0, 500.0)];
        let err = GeometricInstanceBuilder::new(posts, 2).build().unwrap_err();
        assert_eq!(
            err,
            BuildError::Disconnected {
                unreachable: vec![1]
            }
        );
    }

    #[test]
    fn too_few_nodes_rejected() {
        let posts = Field::square(100.0).random_posts(5, 3);
        let err = GeometricInstanceBuilder::new(posts, 4).build().unwrap_err();
        assert!(matches!(
            err,
            BuildError::TooFewNodes { nodes: 4, posts: 5 }
        ));
    }

    #[test]
    fn capacity_cap_enforced() {
        let posts = vec![Point::new(10.0, 0.0), Point::new(0.0, 10.0)];
        let err = GeometricInstanceBuilder::new(posts, 5)
            .max_nodes_per_post(2)
            .build()
            .unwrap_err();
        assert!(matches!(err, BuildError::CapacityTooSmall { .. }));
    }

    #[test]
    fn no_posts_rejected() {
        let err = GeometricInstanceBuilder::new(vec![], 0)
            .build()
            .unwrap_err();
        assert_eq!(err, BuildError::NoPosts);
    }

    #[test]
    fn explicit_builder_chain() {
        let e1 = Energy::from_njoules(4.0);
        let inst = InstanceBuilder::new(3, 5)
            .rx_energy(Energy::from_njoules(2.0))
            .uplink(0, 3, e1)
            .uplink(1, 0, e1)
            .bidi_link(1, 2, e1)
            .build()
            .unwrap();
        assert_eq!(inst.num_posts(), 3);
        assert_eq!(inst.uplinks(1).len(), 2);
        assert_eq!(inst.tx_energy(2, 1), Some(e1));
        assert_eq!(inst.tx_energy(2, 0), None);
        assert!(inst.geometry().is_none());
    }

    #[test]
    fn explicit_builder_rejects_bad_links() {
        let e = Energy::from_njoules(1.0);
        assert!(matches!(
            InstanceBuilder::new(2, 2).uplink(5, 2, e).build(),
            Err(BuildError::BadLink { from: 5, .. })
        ));
        assert!(matches!(
            InstanceBuilder::new(2, 2)
                .uplink(0, 7, e)
                .uplink(1, 2, e)
                .build(),
            Err(BuildError::BadLink { to: 7, .. })
        ));
        // Self-link.
        assert!(matches!(
            InstanceBuilder::new(2, 2).uplink(0, 0, e).build(),
            Err(BuildError::BadLink { .. })
        ));
    }

    #[test]
    fn energy_digraph_adds_rx_except_into_bs() {
        let inst = InstanceBuilder::new(2, 2)
            .rx_energy(Energy::from_njoules(2.0))
            .uplink(0, 2, Energy::from_njoules(4.0))
            .uplink(1, 0, Energy::from_njoules(4.0))
            .build()
            .unwrap();
        let g = inst.energy_digraph();
        // 1 -> 0 carries tx + rx; 0 -> BS carries tx only.
        let w10 = g.out(1).iter().find(|&&(v, _)| v == 0).unwrap().1;
        let w0bs = g.out(0).iter().find(|&&(v, _)| v == 2).unwrap().1;
        assert_eq!(w10, 6.0);
        assert_eq!(w0bs, 4.0);
    }

    #[test]
    fn parallel_links_pick_cheapest() {
        let inst = InstanceBuilder::new(1, 1)
            .uplink(0, 1, Energy::from_njoules(9.0))
            .uplink(0, 1, Energy::from_njoules(4.0))
            .build()
            .unwrap();
        assert_eq!(inst.tx_energy(0, 1).unwrap().as_njoules(), 4.0);
    }

    #[test]
    fn large_geometric_instance_connects() {
        let inst = crate::InstanceSampler::new(Field::square(500.0), 100, 400).sample(11);
        assert_eq!(inst.num_posts(), 100);
        assert!(inst.energy_digraph().all_reach(inst.bs()));
    }

    #[test]
    fn display() {
        let posts = vec![Point::new(10.0, 0.0)];
        let inst = GeometricInstanceBuilder::new(posts, 3).build().unwrap();
        assert_eq!(format!("{inst}"), "instance(N=1, M=3, eta=1 (linear))");
    }
}
