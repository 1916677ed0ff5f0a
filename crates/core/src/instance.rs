//! Problem instances: posts, node budget, radio links, charging model.

use crate::BuildError;
use std::fmt;
use wrsn_charging::ChargeModel;
use wrsn_energy::{Energy, RadioParams, TxLevels};
use wrsn_geom::Point;
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
        ChargeSpec::try_new(eta, gain).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Like [`ChargeSpec::new`], but returns
    /// [`BuildError::InvalidParameter`] naming the bad parameter instead
    /// of panicking.
    pub(crate) fn try_new(eta: f64, gain: GainKind) -> Result<Self, BuildError> {
        let invalid = |what, expected| Err(BuildError::InvalidParameter { what, expected });
        if !(eta > 0.0 && eta <= 1.0) {
            return invalid("eta", "in (0, 1]");
        }
        match &gain {
            GainKind::Linear => {}
            GainKind::Sublinear(p) => {
                if !(*p > 0.0 && *p <= 1.0) {
                    return invalid("gain exponent", "in (0, 1]");
                }
            }
            GainKind::Measured(samples) => {
                let valid = samples.first().is_some_and(|k| (k - 1.0).abs() < 1e-9)
                    && samples.windows(2).all(|w| w[1] >= w[0])
                    && samples.iter().all(|&k| k > 0.0);
                if !valid {
                    return invalid(
                        "gain samples",
                        "positive and non-decreasing, starting at k(1) = 1",
                    );
                }
            }
        }
        Ok(ChargeSpec { eta, gain })
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

/// Checks a configuration and its links and assembles the instance.
///
/// Beyond the budget and profile checks, every energy must be finite
/// and non-negative, and every link's routing weight (tx to the base
/// station, tx + rx between posts) positive: at weight zero the
/// shortest-path parents can tie into a cycle.
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
    // Every link's per-bit energy (tx, plus rx below a post) is an edge
    // weight of the cost graphs the solvers build. Dijkstra, the monotone
    // bound and the branch-and-bound floors need each energy and weight
    // finite and non-negative, and the argmin that picks a post's parent
    // needs every weight positive, or equal distances tie into a cycle.
    let valid = |e: Energy| e.is_finite() && e >= Energy::ZERO;
    if !valid(rx_energy) {
        return Err(BuildError::InvalidEnergy { link: None });
    }
    for (from, links) in uplinks.iter().enumerate() {
        for &(to, tx) in links {
            let weight = if to == n { tx } else { tx + rx_energy };
            if !valid(tx) || !valid(weight) || weight == Energy::ZERO {
                return Err(BuildError::InvalidEnergy {
                    link: Some((from, to)),
                });
            }
        }
    }
    let unreachable = unreachable_posts(&uplinks);
    if !unreachable.is_empty() {
        return Err(BuildError::Disconnected { unreachable });
    }
    Ok(Instance {
        uplinks,
        rx_energy,
        num_nodes,
        charge,
        max_nodes_per_post,
        report_rates,
        sensing,
        geometry,
    })
}

/// The posts that cannot reach the base station (index
/// `uplinks.len()`) over `uplinks`, in increasing order, by a search
/// backwards along the uplinks from the base station.
fn unreachable_posts(uplinks: &[Vec<(usize, Energy)>]) -> Vec<usize> {
    let posts = uplinks.len();
    // Reverse adjacency in compressed rows: node v's senders are
    // senders[start[v]..start[v + 1]].
    let mut start = vec![0usize; posts + 2];
    for &(v, _) in uplinks.iter().flatten() {
        start[v + 1] += 1;
    }
    for v in 1..start.len() {
        start[v] += start[v - 1];
    }
    let mut next = start.clone();
    let mut senders = vec![0usize; start[posts + 1]];
    for (u, links) in uplinks.iter().enumerate() {
        for &(v, _) in links {
            senders[next[v]] = u;
            next[v] += 1;
        }
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
        let mut scan = LinkScan::default();
        scan.load(&self.posts, self.base_station, self.levels.max_range());
        self.build_from_scan(&scan)
    }

    /// Builds and validates the instance over `scan`, which must hold
    /// this builder's posts, base station and `d_max`
    /// ([`LinkScan::load`]). Each post links to every other post and to
    /// the base station within `d_max` ([`in_range`]), at the weakest
    /// level that covers the distance and that level's transmission
    /// energy.
    pub(crate) fn build_from_scan(self, scan: &LinkScan) -> Result<Instance, BuildError> {
        let energies = self.levels.energies(&self.radio);
        let mut uplinks: Vec<Vec<(usize, Energy)>> = vec![Vec::new(); self.posts.len()];
        for (u, up) in uplinks.iter_mut().enumerate() {
            let s = scan.slot[u];
            let pu = scan.by_x[s].0;
            for_each_candidate(&scan.by_x, scan.d_max_sq, s, |w| {
                let (pv, v) = scan.by_x[w];
                if !in_range(pu, pv, scan.d_max_sq) {
                    return;
                }
                let level = self
                    .levels
                    .level_for_distance(pu.distance(pv))
                    .expect("in_range implies a covering level");
                up.push((v, energies[level]));
            });
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

/// The geometric link rule: a post can transmit to a node whose squared
/// distance from it is at most `d_max_sq` (`d_max * d_max`). Both the
/// instance build and the sampler's connectivity check decide links
/// here, through [`LinkScan`].
#[inline]
fn in_range(a: Point, b: Point, d_max_sq: f64) -> bool {
    a.distance_squared(b) <= d_max_sq
}

/// A layout's nodes sorted by x, for finding every pair the link rule
/// ([`in_range`]) joins, in buffers reused from layout to layout.
///
/// A pair in range is at most `d_max` apart in x: the rounded square of
/// the x-gap never exceeds the rounded squared distance it is summed
/// into. That square grows monotonically away from a node along the
/// sorted order, so a scan stops at the first node whose x-gap alone is
/// too wide and still sees every partner; each candidate then passes or
/// fails [`in_range`] itself. The sampler's connectivity check and the
/// build therefore see exactly the same links. Sorting is the only
/// per-layout set-up: no grid cells to size, fill or allocate.
///
/// Every pair in range has a covering level: `d_max_sq` is a value
/// whose rounded square root is at most `d_max`, and a squared distance
/// no greater than it has a rounded root, its distance, no greater
/// either (`sqrt` is monotone and correctly rounded). For binary64,
/// `sqrt(fl(d²)) = d` whenever `fl(d²)` neither overflows nor is
/// subnormal, so `d_max_sq` is `fl(d_max²)` itself for any range from
/// about `1.5e-154` m to `1.3e154` m, the paper's included.
#[derive(Debug, Default)]
pub(crate) struct LinkScan {
    /// `(location, node)` in increasing x: posts `0..n`, then the base
    /// station as node `n`.
    by_x: Vec<(Point, usize)>,
    /// Each node's index in `by_x`.
    slot: Vec<usize>,
    /// `fl(d_max²)`, stepped down to the largest value whose rounded
    /// square root is at most `d_max` where that square overflows or is
    /// subnormal.
    d_max_sq: f64,
    /// By `by_x` index: whether the last [`stranded`](Self::stranded)
    /// search reached the node.
    reached: Vec<bool>,
    stack: Vec<usize>,
}

impl LinkScan {
    /// Loads a layout: `posts` as nodes `0..posts.len()`, the base
    /// station as node `posts.len()`, and the maximum range `d_max`.
    pub(crate) fn load(&mut self, posts: &[Point], base_station: Point, d_max: f64) {
        self.by_x.clear();
        self.by_x.extend(posts.iter().copied().zip(0..));
        self.by_x.push((base_station, posts.len()));
        self.by_x.sort_unstable_by(|a, b| a.0.x.total_cmp(&b.0.x));
        self.slot.clear();
        self.slot.resize(self.by_x.len(), 0);
        for (s, &(_, node)) in self.by_x.iter().enumerate() {
            self.slot[node] = s;
        }
        let mut d_max_sq = d_max * d_max;
        while d_max_sq.sqrt() > d_max {
            d_max_sq = d_max_sq.next_down();
        }
        self.d_max_sq = d_max_sq;
    }

    /// Searches from the base station over the link rule and returns how
    /// many posts it cannot reach, stopping once it has reached them all.
    /// Nothing is allocated once the buffers have grown to the layout's
    /// size.
    pub(crate) fn stranded(&mut self) -> usize {
        let LinkScan {
            by_x,
            slot,
            d_max_sq,
            reached,
            stack,
        } = self;
        let d_max_sq = *d_max_sq;
        reached.clear();
        reached.resize(by_x.len(), false);
        let root = slot[by_x.len() - 1];
        reached[root] = true;
        stack.clear();
        stack.push(root);
        let mut left = by_x.len() - 1;
        while left > 0 {
            let Some(s) = stack.pop() else { break };
            let p = by_x[s].0;
            for_each_candidate(by_x, d_max_sq, s, |w| {
                // A reached node needs no range test.
                if !reached[w] && in_range(p, by_x[w].0, d_max_sq) {
                    reached[w] = true;
                    left -= 1;
                    stack.push(w);
                }
            });
        }
        left
    }

    /// The posts the last [`stranded`](Self::stranded) search did not
    /// reach, in increasing order: what a build of the layout reports as
    /// [`BuildError::Disconnected`].
    pub(crate) fn unreachable(&self) -> Vec<usize> {
        (0..self.by_x.len() - 1)
            .filter(|&p| !self.reached[self.slot[p]])
            .collect()
    }
}

/// Calls `f` with the index of every other node in `by_x` whose x-gap to
/// the node at `s` does not alone rule out the link rule: the run around
/// `s` up to the first node on each side whose squared x-gap exceeds
/// `d_max_sq`.
fn for_each_candidate(by_x: &[(Point, usize)], d_max_sq: f64, s: usize, mut f: impl FnMut(usize)) {
    let x = by_x[s].0.x;
    for (w, &(q, _)) in by_x.iter().enumerate().skip(s + 1) {
        let dx = q.x - x;
        if dx * dx > d_max_sq {
            break;
        }
        f(w);
    }
    for (w, &(q, _)) in by_x[..s].iter().enumerate().rev() {
        let dx = x - q.x;
        if dx * dx > d_max_sq {
            break;
        }
        f(w);
    }
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

/// The geometric build as it ran before the sorted link scan: a grid
/// index query per post gives the link list, a search over that list
/// decides connectivity, and the energy graph confirms it. Test oracle
/// only.
#[cfg(test)]
pub(crate) mod reference {
    use super::*;
    use wrsn_energy::LevelIdx;
    use wrsn_geom::GridIndex;

    /// `(post, node, level)` for every post and each other post or the
    /// base station within `d_max`, from one grid query per post.
    pub(crate) fn links(b: &GeometricInstanceBuilder) -> Vec<(usize, usize, LevelIdx)> {
        let mut out = Vec::new();
        let d_max = b.levels.max_range();
        let mut all_points = b.posts.clone();
        all_points.push(b.base_station);
        let index = GridIndex::new(&all_points, d_max.max(1e-9));
        for (u, &pu) in b.posts.iter().enumerate() {
            for v in index.within(pu, d_max) {
                if v == u {
                    continue;
                }
                if let Some(level) = b.levels.level_for_distance(pu.distance(all_points[v])) {
                    out.push((u, v, level));
                }
            }
        }
        out
    }

    /// The posts `0..posts` that cannot reach the base station (index
    /// `posts`) over a link list, in increasing order.
    pub(crate) fn unreachable_posts(
        posts: usize,
        links: &[(usize, usize, LevelIdx)],
    ) -> Vec<usize> {
        let mut senders = vec![Vec::new(); posts + 1];
        for &(u, v, _) in links {
            senders[v].push(u);
        }
        let mut reached = vec![false; posts + 1];
        reached[posts] = true;
        let mut stack = vec![posts];
        while let Some(v) = stack.pop() {
            for &u in &senders[v] {
                if !reached[u] {
                    reached[u] = true;
                    stack.push(u);
                }
            }
        }
        (0..posts).filter(|&p| !reached[p]).collect()
    }

    /// The energy graph's verdict on `uplinks`: `None` when every post
    /// reaches the base station, else the posts its shortest paths miss.
    pub(crate) fn disconnected(uplinks: &[Vec<(usize, Energy)>], rx: Energy) -> Option<Vec<usize>> {
        let n = uplinks.len();
        let mut g = Digraph::new(n + 1);
        for (u, links) in uplinks.iter().enumerate() {
            for &(v, tx) in links {
                let w = if v == n { tx } else { tx + rx };
                g.add_edge(u, v, w.as_njoules());
            }
        }
        if g.all_reach(n) {
            return None;
        }
        let sp = wrsn_graph::dijkstra_to(&g, n);
        Some((0..n).filter(|&p| sp.distance(p).is_none()).collect())
    }

    /// The full build: the link list priced per level, then validated
    /// with the energy graph's connectivity verdict.
    pub(crate) fn build(b: GeometricInstanceBuilder) -> Result<Instance, BuildError> {
        let links = links(&b);
        let energies = b.levels.energies(&b.radio);
        let mut uplinks: Vec<Vec<(usize, Energy)>> = vec![Vec::new(); b.posts.len()];
        for &(u, v, level) in &links {
            uplinks[u].push((v, energies[level]));
        }
        for up in &mut uplinks {
            up.sort_unstable_by_key(|&(v, _)| v);
        }
        check_budget(b.posts.len(), b.num_nodes, b.max_nodes_per_post)?;
        if let Some(unreachable) = disconnected(&uplinks, b.radio.rx_energy()) {
            return Err(BuildError::Disconnected { unreachable });
        }
        let n = b.posts.len();
        Ok(Instance {
            uplinks,
            rx_energy: b.radio.rx_energy(),
            num_nodes: b.num_nodes,
            charge: b.charge,
            max_nodes_per_post: b.max_nodes_per_post,
            report_rates: b.report_rates.unwrap_or_else(|| vec![1.0; n]),
            sensing: b.sensing.unwrap_or_else(|| vec![Energy::ZERO; n]),
            geometry: Some(Geometry {
                posts: b.posts,
                base_station: b.base_station,
                levels: b.levels,
                radio: b.radio,
            }),
        })
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
    fn negative_or_non_finite_energies_are_build_errors() {
        let nj = Energy::from_njoules;
        let bad_link = Err(BuildError::InvalidEnergy { link: Some((0, 1)) });
        let negative_tx = InstanceBuilder::new(1, 1).uplink(0, 1, nj(-1.0)).build();
        assert_eq!(negative_tx, bad_link);
        // A negative tx is rejected even where rx lifts its weight above 0.
        let masked = InstanceBuilder::new(2, 2)
            .rx_energy(nj(5.0))
            .uplink(0, 1, nj(-1.0))
            .uplink(1, 2, nj(1.0))
            .build();
        assert_eq!(masked, bad_link);
        let overflowing = InstanceBuilder::new(2, 2)
            .rx_energy(nj(f64::MAX))
            .uplink(0, 1, nj(f64::MAX))
            .uplink(1, 2, nj(1.0))
            .build();
        assert_eq!(overflowing, bad_link);
        for rx in [f64::INFINITY, f64::NEG_INFINITY, -2.0] {
            let built = InstanceBuilder::new(1, 1)
                .rx_energy(nj(rx))
                .uplink(0, 1, nj(1.0))
                .build();
            assert_eq!(built, Err(BuildError::InvalidEnergy { link: None }));
        }
    }

    #[test]
    fn zero_routing_weights_are_build_errors() {
        let nj = Energy::from_njoules;
        // A free hop to the base station.
        let free_uplink = InstanceBuilder::new(1, 1).uplink(0, 1, nj(0.0)).build();
        assert_eq!(
            free_uplink,
            Err(BuildError::InvalidEnergy { link: Some((0, 1)) })
        );
        // A free hop between posts when nothing is spent receiving.
        let free_relay = InstanceBuilder::new(2, 2)
            .uplink(0, 2, nj(1.0))
            .uplink(1, 0, nj(0.0))
            .build();
        assert_eq!(
            free_relay,
            Err(BuildError::InvalidEnergy { link: Some((1, 0)) })
        );
        let message = free_relay.unwrap_err().to_string();
        assert!(message.contains("positive"), "{message}");
        // A zero tx is fine where receiving costs something.
        let paid_relay = InstanceBuilder::new(2, 2)
            .rx_energy(nj(2.0))
            .uplink(0, 2, nj(1.0))
            .uplink(1, 0, nj(0.0))
            .build();
        assert!(paid_relay.is_ok());
    }

    #[test]
    fn try_new_names_the_bad_charge_parameter() {
        let what = |eta, gain| match ChargeSpec::try_new(eta, gain) {
            Err(BuildError::InvalidParameter { what, .. }) => what,
            other => panic!("expected InvalidParameter, got {other:?}"),
        };
        assert_eq!(what(1.5, GainKind::Linear), "eta");
        assert_eq!(what(0.5, GainKind::Sublinear(0.0)), "gain exponent");
        assert_eq!(
            what(0.5, GainKind::Measured(vec![1.0, 0.5])),
            "gain samples"
        );
        assert_eq!(
            ChargeSpec::try_new(0.5, GainKind::Sublinear(0.5)),
            Ok(ChargeSpec::new(0.5, GainKind::Sublinear(0.5)))
        );
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
        // exactly when the scan's search strands some post, and both
        // agree with the grid-and-link-list build they replace.
        let levels = TxLevels::icdcs2010();
        let radio = RadioParams::icdcs2010();
        let d_max = levels.max_range();
        let (mut built, mut stranded) = (0, 0);
        let mut scan = LinkScan::default();
        for (posts, field) in [(100, 500.0), (20, 300.0), (8, 200.0), (200, 500.0)] {
            for seed in 0..10 {
                let points = Field::square(field).random_posts(posts, seed);
                let builder = GeometricInstanceBuilder::new(points.clone(), posts as u32);
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
                scan.load(&points, Point::ORIGIN, d_max);
                let left = scan.stranded();
                assert_eq!(left, scan.unreachable().len());
                let links = reference::links(&builder);
                assert_eq!(
                    scan.unreachable(),
                    reference::unreachable_posts(posts, &links)
                );
                let got = builder.clone().build();
                assert_eq!(got, reference::build(builder));
                match got {
                    Ok(inst) => {
                        built += 1;
                        assert_eq!(left, 0);
                        for (u, up) in want.iter().enumerate() {
                            assert_eq!(inst.uplinks(u), &up[..], "post {u}");
                        }
                    }
                    Err(e) => {
                        stranded += 1;
                        assert_eq!(
                            e,
                            BuildError::Disconnected {
                                unreachable: scan.unreachable()
                            }
                        );
                    }
                }
            }
        }
        assert!(
            built > 0 && stranded > 0,
            "{built} built, {stranded} stranded"
        );
    }

    /// Builds `posts` around `bs` both ways and checks the new build
    /// against the reference, returning the new result.
    fn build_both(posts: Vec<Point>, bs: Point) -> Result<Instance, BuildError> {
        build_both_at(posts, bs, TxLevels::icdcs2010())
    }

    /// [`build_both`] with the level set `levels`.
    fn build_both_at(
        posts: Vec<Point>,
        bs: Point,
        levels: TxLevels,
    ) -> Result<Instance, BuildError> {
        let n = posts.len();
        let builder = GeometricInstanceBuilder::new(posts.clone(), n as u32)
            .base_station(bs)
            .levels(levels);
        let mut scan = LinkScan::default();
        scan.load(&posts, bs, builder.levels.max_range());
        let left = scan.stranded();
        let links = reference::links(&builder);
        assert_eq!(scan.unreachable(), reference::unreachable_posts(n, &links));
        assert_eq!(left, scan.unreachable().len());
        let got = builder.clone().build();
        assert_eq!(got, reference::build(builder));
        got
    }

    #[test]
    fn links_at_exactly_d_max_and_one_ulp_beyond() {
        // d_max = 75 m. A 3-4-5 triangle puts (45, 60) exactly 75 m from
        // the base station at the origin, and (120, 60) exactly 75 m
        // from it; one ulp further out, either pair falls out of range.
        let origin = Point::ORIGIN;
        let top = TxLevels::icdcs2010().count() - 1;
        let at = |x: f64, y: f64| Point::new(x, y);
        for (posts, bs, unreachable) in [
            (vec![at(75.0, 0.0)], origin, vec![]),
            (vec![at(0.0, 75.0)], origin, vec![]),
            (vec![at(45.0, 60.0)], origin, vec![]),
            (vec![at(75f64.next_up(), 0.0)], origin, vec![0]),
            (vec![at(0.0, 75f64.next_up())], origin, vec![0]),
            (vec![at(45.0, 60.0), at(120.0, 60.0)], origin, vec![]),
            (
                vec![at(45.0, 60.0), at(120f64.next_up(), 60.0)],
                origin,
                vec![1],
            ),
            (
                vec![at(45.0, 60.0), at(120.0, 60.0), at(195f64.next_up(), 60.0)],
                origin,
                vec![2],
            ),
            // The base station to the right of its posts: the scan's
            // leftward half decides these.
            (vec![at(125.0, 0.0)], at(200.0, 0.0), vec![]),
            (vec![at(125f64.next_down(), 0.0)], at(200.0, 0.0), vec![0]),
            (vec![at(50.0, 0.0), at(125.0, 0.0)], at(200.0, 0.0), vec![]),
            (
                vec![at(125.0 - 75f64.next_up(), 0.0), at(125.0, 0.0)],
                at(200.0, 0.0),
                vec![0],
            ),
            // Equal x, so only the y-gap separates the pair.
            (vec![at(10.0, 75.0), at(10.0, 0.0)], at(10.0, 0.0), vec![]),
            (
                vec![at(10.0, 75f64.next_up()), at(10.0, 0.0)],
                at(10.0, 0.0),
                vec![0],
            ),
        ] {
            let got = build_both(posts.clone(), bs);
            if unreachable.is_empty() {
                let inst = got.unwrap_or_else(|e| panic!("{posts:?}: {e}"));
                // The last post's farthest partner is exactly d_max away
                // and links at the top level.
                let p = posts.len() - 1;
                let far = inst.uplinks(p).iter().map(|&(_, e)| e).max().unwrap();
                let radio = RadioParams::icdcs2010();
                assert_eq!(far, radio.tx_energy(TxLevels::icdcs2010().range(top)));
            } else {
                assert_eq!(
                    got,
                    Err(BuildError::Disconnected { unreachable }),
                    "{posts:?}"
                );
            }
        }
    }

    #[test]
    fn every_link_has_a_covering_level_at_extreme_ranges() {
        // Ranges whose square is subnormal (1e-160, 3e-158 m) or
        // overflows (1.5e154, 1e300 m) step `d_max_sq` down until its
        // root is within `d_max`; the others keep `fl(d_max²)`. Either
        // way every pair in range has a covering level and the scan
        // reaches exactly the posts the grid reference does. Where the
        // top level's energy is finite, the builds agree in full.
        let at = |x: f64, y: f64| Point::new(x, y);
        for d in [1e-160, 3e-158, 1e-100, 75.0, 1e100, 1e154, 1.5e154, 1e300] {
            let levels = TxLevels::new(vec![0.5 * d, d]);
            for posts in [
                vec![at(d, 0.0)],
                vec![at(0.0, d)],
                vec![at(0.6 * d, 0.8 * d)],
                vec![at(d.next_up(), 0.0)],
                vec![at(d, 0.0), at(d, d)],
                vec![at(0.5 * d, 0.0), at(0.5 * d, 0.5 * d), at(d, d)],
            ] {
                let mut scan = LinkScan::default();
                scan.load(&posts, Point::ORIGIN, d);
                assert!(scan.d_max_sq.sqrt() <= d, "{d}");
                if (1e-150..1e150).contains(&d) {
                    assert_eq!(scan.d_max_sq, d * d, "{d}");
                }
                for s in 0..scan.by_x.len() {
                    let p = scan.by_x[s].0;
                    for_each_candidate(&scan.by_x, scan.d_max_sq, s, |w| {
                        let q = scan.by_x[w].0;
                        if in_range(p, q, scan.d_max_sq) {
                            assert!(levels.level_for_distance(p.distance(q)).is_some());
                        }
                    });
                }
                if RadioParams::icdcs2010().tx_energy(d).is_finite() {
                    let _ = build_both_at(posts, Point::ORIGIN, levels.clone());
                } else {
                    scan.stranded();
                    let builder =
                        GeometricInstanceBuilder::new(posts.clone(), 3).levels(levels.clone());
                    let links = reference::links(&builder);
                    assert_eq!(
                        scan.unreachable(),
                        reference::unreachable_posts(posts.len(), &links)
                    );
                }
            }
        }
    }

    proptest::proptest! {
        /// The uplink search accepts exactly the explicit instances the
        /// energy graph connects, and a rejected build names the posts
        /// the graph's shortest paths miss.
        #[test]
        fn validate_connectivity_matches_the_energy_graph(
            n in 1usize..30,
            links in proptest::collection::vec((0usize..30, 0usize..31, 0.0f64..100.0), 0..90),
        ) {
            let mut builder = InstanceBuilder::new(n, n as u32).rx_energy(Energy::from_njoules(2.0));
            let mut uplinks = vec![Vec::new(); n];
            for (u, v, tx) in links {
                let (u, v) = (u % n, v % (n + 1));
                if u != v {
                    builder = builder.uplink(u, v, Energy::from_njoules(tx));
                    uplinks[u].push((v, Energy::from_njoules(tx)));
                }
            }
            let got = builder.build();
            match reference::disconnected(&uplinks, Energy::from_njoules(2.0)) {
                None => proptest::prop_assert!(got.is_ok(), "{got:?}"),
                Some(unreachable) => proptest::prop_assert_eq!(
                    got,
                    Err(BuildError::Disconnected { unreachable })
                ),
            }
        }
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
    fn non_finite_posts_link_to_nothing() {
        let posts = vec![
            Point::new(20.0, 0.0),
            Point::new(f64::INFINITY, 0.0),
            Point::new(40.0, f64::NEG_INFINITY),
            Point::new(f64::NAN, 5.0),
            Point::new(f64::INFINITY, 0.0),
        ];
        let err = GeometricInstanceBuilder::new(posts, 5).build().unwrap_err();
        assert_eq!(
            err,
            BuildError::Disconnected {
                unreachable: vec![1, 2, 3, 4]
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
