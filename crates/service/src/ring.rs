//! Consistent-hash shard routing for the simulated cluster.
//!
//! A [`Ring`] places `vnodes` virtual points per node on a `u64` hash
//! circle (FNV-1a over deterministic labels — no `RandomState`, so the
//! layout is a pure function of the membership). A shard's replica
//! group is the first `replication` *distinct* nodes clockwise from the
//! shard's own hash point, acting owner first.
//!
//! Consistent hashing is what makes failover cheap to reason about:
//! when a node joins or leaves, only the shards whose clockwise walk
//! crossed that node's points can move — every other shard keeps its
//! replica group, which the ring proptests pin as the *minimal remap*
//! property.

use std::fmt;

/// A cluster node's identity (its index in the simulated membership).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct NodeId(pub usize);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "node-{}", self.0)
    }
}

/// Why the ring could not produce a route.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum RouteError {
    /// The ring holds no nodes, so no shard can be placed.
    EmptyRing,
}

impl fmt::Display for RouteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RouteError::EmptyRing => write!(f, "empty-ring"),
        }
    }
}

impl std::error::Error for RouteError {}

/// The ordered replica group the ring resolved for one shard: the
/// acting owner first, then the standby replicas clockwise.
#[derive(Debug, Clone, PartialEq, Eq)]
#[must_use]
pub struct ReplicaSet {
    shard: usize,
    nodes: Vec<NodeId>,
}

impl ReplicaSet {
    /// The shard this group serves.
    #[must_use]
    pub fn shard(&self) -> usize {
        self.shard
    }

    /// The acting owner (first node clockwise from the shard's point).
    #[must_use]
    pub fn primary(&self) -> NodeId {
        self.nodes[0]
    }

    /// All members, owner first. Never empty.
    #[must_use]
    pub fn nodes(&self) -> &[NodeId] {
        &self.nodes
    }

    /// Whether `node` is a member of the group.
    #[must_use]
    pub fn contains(&self, node: NodeId) -> bool {
        self.nodes.contains(&node)
    }
}

impl fmt::Display for ReplicaSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "shard-{} -> [", self.shard)?;
        for (position, node) in self.nodes.iter().enumerate() {
            if position > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{node}")?;
        }
        write!(f, "]")
    }
}

/// FNV-1a 64-bit over a byte string — deterministic and
/// dependency-free, but weakly avalanched for short, similar labels.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// A 64-bit avalanche finalizer (the MurmurHash3 fmix64 constants).
/// Raw FNV-1a clusters badly on labels that share a long prefix — the
/// shard keys `ring/shard/{s}` would all land in a few arcs and starve
/// whole nodes — so every placement point passes through this mix (the
/// balance proptest pins the bound we rely on).
fn mix64(mut hash: u64) -> u64 {
    hash ^= hash >> 33;
    hash = hash.wrapping_mul(0xff51_afd7_ed55_8ccd);
    hash ^= hash >> 33;
    hash = hash.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    hash ^= hash >> 33;
    hash
}

/// The placement hash of one label on the ring's `u64` circle.
fn place(label: &str) -> u64 {
    mix64(fnv1a64(label.as_bytes()))
}

/// A consistent-hash ring over the cluster membership.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ring {
    /// `(point, node)` pairs sorted by point (ties broken by node id,
    /// so the layout is total even on hash collisions).
    points: Vec<(u64, NodeId)>,
    /// Current membership, ascending.
    members: Vec<NodeId>,
    /// Virtual points per node.
    vnodes: usize,
}

impl Ring {
    /// A ring over nodes `0..nodes` with `vnodes` points each.
    ///
    /// # Panics
    ///
    /// Panics if `vnodes` is zero (a member with no points would be
    /// silently unroutable).
    pub fn new(nodes: usize, vnodes: usize) -> Ring {
        Ring::with_members(&(0..nodes).map(NodeId).collect::<Vec<_>>(), vnodes)
    }

    /// A ring over an explicit membership (deduplicated, sorted).
    ///
    /// # Panics
    ///
    /// Panics if `vnodes` is zero.
    pub fn with_members(members: &[NodeId], vnodes: usize) -> Ring {
        assert!(vnodes >= 1, "vnodes must be at least 1");
        let mut members = members.to_vec();
        members.sort_unstable();
        members.dedup();
        let mut points = Vec::with_capacity(members.len() * vnodes);
        for &node in &members {
            for vnode in 0..vnodes {
                let label = format!("ring/node/{}/vnode/{vnode}", node.0);
                points.push((place(&label), node));
            }
        }
        points.sort_unstable();
        Ring {
            points,
            members,
            vnodes,
        }
    }

    /// Current membership, ascending.
    #[must_use]
    pub fn members(&self) -> &[NodeId] {
        &self.members
    }

    /// The ring with `node` added (no-op if already a member).
    pub fn join(&self, node: NodeId) -> Ring {
        let mut members = self.members.clone();
        members.push(node);
        Ring::with_members(&members, self.vnodes)
    }

    /// The ring with `node` removed (no-op if not a member).
    pub fn leave(&self, node: NodeId) -> Ring {
        let members: Vec<NodeId> = self
            .members
            .iter()
            .copied()
            .filter(|&member| member != node)
            .collect();
        Ring::with_members(&members, self.vnodes)
    }

    /// Resolves `shard`'s replica group: the first `replication`
    /// distinct nodes clockwise from the shard's hash point (fewer when
    /// the membership is smaller than `replication`), acting owner
    /// first.
    ///
    /// # Errors
    ///
    /// [`RouteError::EmptyRing`] when the membership is empty.
    pub fn replicas(&self, shard: usize, replication: usize) -> Result<ReplicaSet, RouteError> {
        if self.points.is_empty() {
            return Err(RouteError::EmptyRing);
        }
        let want = replication.clamp(1, self.members.len());
        let key = place(&format!("ring/shard/{shard}"));
        let start = self.points.partition_point(|&(point, _)| point < key);
        let mut nodes = Vec::with_capacity(want);
        for offset in 0..self.points.len() {
            let (_, node) = self.points[(start + offset) % self.points.len()];
            if !nodes.contains(&node) {
                nodes.push(node);
                if nodes.len() == want {
                    break;
                }
            }
        }
        Ok(ReplicaSet { shard, nodes })
    }
}

/// The version counter of a [`RingView`]. Every promotion bumps it by
/// exactly one, so "which placement did this router consult" is a
/// single comparable integer — the property the E18 simulator's
/// ring-epoch-monotonicity invariant pins, and the thing the planted
/// stale-epoch router gets wrong.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
#[must_use]
pub struct RingEpoch(pub u64);

impl RingEpoch {
    /// The epoch every cluster boots at (before any promotion).
    pub const BOOT: RingEpoch = RingEpoch(0);

    /// The epoch after one more ring change.
    pub fn next(self) -> RingEpoch {
        RingEpoch(self.0 + 1)
    }

    /// The raw counter value.
    #[must_use]
    pub fn get(self) -> u64 {
        self.0
    }
}

impl fmt::Display for RingEpoch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "epoch-{}", self.0)
    }
}

/// An epoch-versioned materialization of the ring: every shard's
/// replica group, resolved once at boot, plus the promotions applied
/// since. The underlying [`Ring`] stays the *placement* authority; the
/// view is the *routing* authority — a promotion rotates one shard's
/// group so a standby becomes acting owner without touching any other
/// shard (the minimal-remap discipline the ring proptests pin), and
/// bumps the epoch so a router holding a stale view is detectable.
#[derive(Debug, Clone, PartialEq, Eq)]
#[must_use]
pub struct RingView {
    epoch: RingEpoch,
    sets: Vec<ReplicaSet>,
}

impl RingView {
    /// Materializes the boot view ([`RingEpoch::BOOT`]) of `ring` for
    /// `shards` shards at the given replication factor.
    ///
    /// # Errors
    ///
    /// [`RouteError::EmptyRing`] when the membership is empty.
    pub fn from_ring(
        ring: &Ring,
        shards: usize,
        replication: usize,
    ) -> Result<RingView, RouteError> {
        let mut sets = Vec::with_capacity(shards);
        for shard in 0..shards {
            sets.push(ring.replicas(shard, replication)?);
        }
        Ok(RingView {
            epoch: RingEpoch::BOOT,
            sets,
        })
    }

    /// The boot view of a membership where every shard has a node of
    /// its own: shard `s` lives alone on [`NodeId`]`(s)`, replication 1.
    /// This is the topology of independent single-server shards (the
    /// E17 open loop) expressed as a cluster.
    pub(crate) fn dedicated(shards: usize) -> RingView {
        RingView {
            epoch: RingEpoch::BOOT,
            sets: (0..shards)
                .map(|shard| ReplicaSet {
                    shard,
                    nodes: vec![NodeId(shard)],
                })
                .collect(),
        }
    }

    /// The view's version.
    pub fn epoch(&self) -> RingEpoch {
        self.epoch
    }

    /// Shards the view covers.
    #[must_use]
    pub fn shards(&self) -> usize {
        self.sets.len()
    }

    /// The replica group currently serving `shard`.
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    pub fn replica_set(&self, shard: usize) -> &ReplicaSet {
        &self.sets[shard]
    }

    /// The acting owner of `shard`.
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    #[must_use]
    pub fn primary(&self, shard: usize) -> NodeId {
        self.sets[shard].primary()
    }

    /// Shards whose acting owner is `node`.
    #[must_use]
    pub fn primary_count(&self, node: NodeId) -> usize {
        self.sets.iter().filter(|set| set.primary() == node).count()
    }

    /// Promotes `node` to acting owner of `shard` in place: the group
    /// rotates so `node` leads and everyone it displaced shifts back
    /// one slot (no member joins or leaves), and the epoch advances by
    /// one. Returns the new epoch, or `None` (leaving the view — and
    /// its epoch — untouched) when `node` is not a standby of the
    /// group: promoting a non-member would teleport state the node
    /// does not have, and "promoting" the sitting owner would burn an
    /// epoch on a no-op.
    ///
    /// Runs allocation-free — the rotation happens inside the group's
    /// existing buffer — so the rebalance decision path stays within
    /// its hot-path budget.
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    pub fn promote(&mut self, shard: usize, node: NodeId) -> Option<RingEpoch> {
        let nodes = &mut self.sets[shard].nodes;
        let position = nodes.iter().position(|&member| member == node)?;
        if position == 0 {
            return None;
        }
        nodes[..=position].rotate_right(1);
        self.epoch = self.epoch.next();
        Some(self.epoch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_stable() {
        assert_eq!(NodeId(3).to_string(), "node-3");
        assert_eq!(RouteError::EmptyRing.to_string(), "empty-ring");
        let ring = Ring::new(4, 32);
        let set = ring.replicas(0, 2).unwrap();
        let rendered = set.to_string();
        assert!(rendered.starts_with("shard-0 -> [node-"), "{rendered}");
    }

    #[test]
    fn empty_ring_is_a_typed_error() {
        let ring = Ring::with_members(&[], 8);
        assert_eq!(ring.replicas(0, 2), Err(RouteError::EmptyRing));
    }

    #[test]
    fn replica_groups_are_distinct_owner_first_and_deterministic() {
        let ring = Ring::new(5, 64);
        for shard in 0..64 {
            let set = ring.replicas(shard, 3).unwrap();
            assert_eq!(set.shard(), shard);
            assert_eq!(set.nodes().len(), 3);
            assert_eq!(set.primary(), set.nodes()[0]);
            let mut sorted = set.nodes().to_vec();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), 3, "replicas must be distinct");
            assert_eq!(ring.replicas(shard, 3).unwrap(), set);
        }
    }

    #[test]
    fn replication_clamps_to_membership() {
        let ring = Ring::new(2, 16);
        let set = ring.replicas(7, 5).unwrap();
        assert_eq!(set.nodes().len(), 2);
    }

    #[test]
    fn ring_epoch_display_and_next_are_stable() {
        assert_eq!(RingEpoch::BOOT.to_string(), "epoch-0");
        assert_eq!(RingEpoch::BOOT.next().to_string(), "epoch-1");
        assert_eq!(RingEpoch(7).next().get(), 8);
        assert!(RingEpoch(3) < RingEpoch(4));
    }

    #[test]
    fn boot_view_matches_the_ring_at_epoch_zero() {
        let ring = Ring::new(4, 64);
        let view = RingView::from_ring(&ring, 16, 3).unwrap();
        assert_eq!(view.epoch(), RingEpoch::BOOT);
        assert_eq!(view.shards(), 16);
        for shard in 0..16 {
            assert_eq!(*view.replica_set(shard), ring.replicas(shard, 3).unwrap());
            assert_eq!(
                view.primary(shard),
                ring.replicas(shard, 3).unwrap().primary()
            );
        }
    }

    #[test]
    fn dedicated_view_puts_each_shard_alone_on_its_own_node() {
        let view = RingView::dedicated(5);
        assert_eq!(view.epoch(), RingEpoch::BOOT);
        assert_eq!(view.shards(), 5);
        for shard in 0..5 {
            assert_eq!(view.replica_set(shard).shard(), shard);
            assert_eq!(view.replica_set(shard).nodes(), &[NodeId(shard)]);
            assert_eq!(view.primary_count(NodeId(shard)), 1);
        }
    }

    #[test]
    fn promote_rotates_one_group_bumps_the_epoch_and_keeps_membership() {
        let ring = Ring::new(4, 64);
        let mut view = RingView::from_ring(&ring, 16, 3).unwrap();
        let boot = view.clone();
        let shard = 5;
        let standby = view.replica_set(shard).nodes()[1];
        let epoch = view.promote(shard, standby).unwrap();
        assert_eq!(epoch, RingEpoch(1));
        assert_eq!(view.epoch(), RingEpoch(1));
        assert_eq!(view.primary(shard), standby);
        // Same members, owner first.
        let mut before: Vec<NodeId> = boot.replica_set(shard).nodes().to_vec();
        let mut after: Vec<NodeId> = view.replica_set(shard).nodes().to_vec();
        before.sort_unstable();
        after.sort_unstable();
        assert_eq!(before, after);
        // Every other shard is untouched.
        for other in (0..16).filter(|&other| other != shard) {
            assert_eq!(view.replica_set(other), boot.replica_set(other));
        }
    }

    #[test]
    fn promote_refuses_non_members_and_sitting_owners() {
        let ring = Ring::new(3, 64);
        let mut view = RingView::from_ring(&ring, 8, 2).unwrap();
        let shard = 2;
        let owner = view.primary(shard);
        let outsider = (0..3)
            .map(NodeId)
            .find(|node| !view.replica_set(shard).contains(*node))
            .unwrap();
        assert_eq!(view.promote(shard, owner), None);
        assert_eq!(view.promote(shard, outsider), None);
        assert_eq!(
            view.epoch(),
            RingEpoch::BOOT,
            "refusals must not burn epochs"
        );
    }
}
