//! The domain name tree of §V-A1.

use std::collections::{BTreeMap, BTreeSet};

use dnsnoise_dns::{Label, Name, SuffixList};
use dnsnoise_resolver::RrDayStats;

/// Identifies one depth-group `G_k` under an inspected zone.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct GroupKey {
    /// The inspected zone.
    pub zone: Name,
    /// The absolute label depth of the group's members.
    pub depth: usize,
}

/// The black descendants of a zone, grouped by absolute depth, together
/// with the label set `L_k` ("the labels next to the zone under
/// inspection", §V-A1).
#[derive(Debug, Clone, Default)]
pub struct ZoneGroups {
    /// `depth → (member node ids, adjacent-label set)`.
    pub groups: BTreeMap<usize, GroupMembers>,
}

/// One `G_k`: the member nodes plus their `L_k` labels.
#[derive(Debug, Clone, Default)]
pub struct GroupMembers {
    /// Arena ids of the black member nodes.
    pub members: Vec<usize>,
    /// The distinct labels adjacent to the inspected zone on the members'
    /// paths (the set `L_k`).
    pub adjacent_labels: Vec<Label>,
}

#[derive(Debug)]
struct TreeNode {
    label: Option<Label>,
    // Ordered so every traversal (registered-domain walk, group
    // collection, name reconstruction) visits children in label order —
    // member vectors and discovery order stay deterministic regardless
    // of arena insertion order.
    children: BTreeMap<Label, usize>,
    /// A black node owned at least one RR in the observation window.
    black: bool,
    /// Per-RR `(domain hit rate, miss count)` pairs for RRs owned by this
    /// name — the inputs to the group CHR distribution.
    rr_chr: Vec<(f64, u32)>,
}

/// The daily domain name tree: root → effective TLDs → … (§V-A1, Fig. 8).
///
/// Nodes are held in an arena indexed by `usize`; node 0 is the root.
///
/// # Examples
///
/// ```
/// use dnsnoise_core::DomainTree;
///
/// let mut tree = DomainTree::new();
/// let a: dnsnoise_dns::Name = "x1.tracker.example.com".parse()?;
/// let b: dnsnoise_dns::Name = "x2.tracker.example.com".parse()?;
/// tree.observe(&a, 0.0, 1);
/// tree.observe(&b, 0.0, 1);
/// let zone: dnsnoise_dns::Name = "tracker.example.com".parse()?;
/// let groups = tree.groups_under(&zone).expect("zone exists");
/// assert_eq!(groups.groups[&4].members.len(), 2);
/// assert_eq!(groups.groups[&4].adjacent_labels.len(), 2);
/// # Ok::<(), dnsnoise_dns::NameParseError>(())
/// ```
#[derive(Debug)]
pub struct DomainTree {
    arena: Vec<TreeNode>,
}

impl Default for DomainTree {
    fn default() -> Self {
        DomainTree::new()
    }
}

impl DomainTree {
    /// Creates an empty tree (just the root).
    pub fn new() -> Self {
        DomainTree {
            arena: vec![TreeNode {
                label: None,
                children: BTreeMap::new(),
                black: false,
                rr_chr: Vec::new(),
            }],
        }
    }

    /// Builds a tree from a day of per-RR statistics.
    pub fn from_day_stats(stats: &RrDayStats) -> Self {
        let mut tree = DomainTree::new();
        for (key, stat) in stats.iter() {
            tree.observe(&key.name, stat.dhr(), stat.misses);
        }
        tree
    }

    /// Records one resource record owned by `name` with the given domain
    /// hit rate and daily miss count. The name's node (and its ancestors'
    /// nodes) are created as needed; the node turns black.
    pub fn observe(&mut self, name: &Name, dhr: f64, misses: u32) {
        let mut node = 0usize;
        // Walk rightmost label (TLD) first.
        for label in name.labels().iter().rev() {
            node = match self.arena[node].children.get(label) {
                Some(&child) => child,
                None => {
                    let id = self.arena.len();
                    let label = Label::new(label).expect("a name's labels are valid");
                    self.arena.push(TreeNode {
                        label: Some(label.clone()),
                        children: BTreeMap::new(),
                        black: false,
                        rr_chr: Vec::new(),
                    });
                    self.arena[node].children.insert(label, id);
                    id
                }
            };
        }
        let n = &mut self.arena[node];
        n.black = true;
        n.rr_chr.push((dhr, misses));
    }

    /// Total nodes in the arena (including white interior nodes and root).
    pub fn node_count(&self) -> usize {
        self.arena.len()
    }

    /// Number of black nodes.
    pub fn black_count(&self) -> usize {
        self.arena.iter().filter(|n| n.black).count()
    }

    /// Finds the node id for a name, if present.
    pub fn node_of(&self, name: &Name) -> Option<usize> {
        let mut node = 0usize;
        for label in name.labels().iter().rev() {
            node = *self.arena[node].children.get(label)?;
        }
        Some(node)
    }

    /// Whether the node for `name` exists and is black.
    // lint:allow(dead-api): crates/core/tests/proptests.rs reads the tree's colouring through it
    pub fn is_black(&self, name: &Name) -> bool {
        self.node_of(name).is_some_and(|id| self.arena[id].black)
    }

    /// The `(dhr, misses)` pairs of RRs owned by node `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn node_chr(&self, id: usize) -> &[(f64, u32)] {
        &self.arena[id].rr_chr
    }

    /// Turns the node white (Algorithm 1's decoloring, lines 9–11).
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn decolor(&mut self, id: usize) {
        self.arena[id].black = false;
    }

    /// Child node ids of `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn children_of(&self, id: usize) -> impl Iterator<Item = usize> + '_ {
        self.arena[id].children.values().copied()
    }

    /// The label of node `id` (`None` for the root).
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn label_of(&self, id: usize) -> Option<&Label> {
        self.arena[id].label.as_ref()
    }

    /// Reconstructs the full name of a node by id — `O(depth × fanout)`,
    /// intended for reporting, not hot paths.
    pub fn name_of(&self, id: usize) -> Name {
        fn walk(tree: &DomainTree, current: usize, target: usize, path: &mut Vec<Label>) -> bool {
            if current == target {
                return true;
            }
            for (label, &child) in &tree.arena[current].children {
                path.push(label.clone());
                if walk(tree, child, target, path) {
                    return true;
                }
                path.pop();
            }
            false
        }
        let mut path = Vec::new();
        if walk(self, 0, id, &mut path) {
            // path is rightmost-first; Name wants leftmost-first.
            path.reverse();
            Name::from_labels(path)
        } else {
            Name::root()
        }
    }

    /// Collects the black descendants of `zone`, grouped by absolute depth
    /// and annotated with the adjacent-label sets (§V-A1). Returns `None`
    /// if the zone has no node in the tree.
    pub fn groups_under(&self, zone: &Name) -> Option<ZoneGroups> {
        let zone_id = self.node_of(zone)?;
        Some(self.groups_under_id(zone_id, zone.depth()))
    }

    /// [`DomainTree::groups_under`] by node id (`zone_depth` is the
    /// zone's absolute depth).
    pub fn groups_under_id(&self, zone_id: usize, zone_depth: usize) -> ZoneGroups {
        let mut groups: BTreeMap<usize, (Vec<usize>, BTreeSet<Label>)> = BTreeMap::new();
        for (adjacent_label, &child) in &self.arena[zone_id].children {
            self.collect(child, zone_depth + 1, adjacent_label, &mut groups);
        }
        ZoneGroups {
            groups: groups
                .into_iter()
                .map(|(depth, (members, labels))| {
                    // BTreeSet iterates in label order, so `L_k` is sorted.
                    let adjacent_labels: Vec<Label> = labels.into_iter().collect();
                    (depth, GroupMembers { members, adjacent_labels })
                })
                .collect(),
        }
    }

    fn collect(
        &self,
        id: usize,
        depth: usize,
        adjacent: &Label,
        groups: &mut BTreeMap<usize, (Vec<usize>, BTreeSet<Label>)>,
    ) {
        let node = &self.arena[id];
        if node.black {
            let slot = groups.entry(depth).or_default();
            slot.0.push(id);
            slot.1.insert(adjacent.clone());
        }
        for &child in node.children.values() {
            self.collect(child, depth + 1, adjacent, groups);
        }
    }

    /// Node ids of every *registered domain* (effective 2LD) present in
    /// the tree — the starting zones of Algorithm 1. A node qualifies when
    /// its parent path is a public suffix and it is not one itself.
    pub fn registered_domains(&self, psl: &SuffixList) -> Vec<(usize, Name)> {
        let mut out = Vec::new();
        let mut path: Vec<Label> = Vec::new();
        self.walk_registered(0, psl, &mut path, &mut out);
        out
    }

    fn walk_registered(
        &self,
        id: usize,
        psl: &SuffixList,
        path: &mut Vec<Label>,
        out: &mut Vec<(usize, Name)>,
    ) {
        for (label, &child) in &self.arena[id].children {
            path.push(label.clone());
            let name = {
                let mut labels = path.clone();
                labels.reverse();
                Name::from_labels(labels)
            };
            if psl.is_suffix(&name) {
                // Still inside the public-suffix area: keep descending.
                self.walk_registered(child, psl, path, out);
            } else {
                // First non-suffix level: this is a registered domain.
                out.push((child, name));
            }
            path.pop();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(s: &str) -> Name {
        s.parse().unwrap()
    }

    fn paper_example_tree() -> DomainTree {
        // The running example of §V-A1 / Fig. 8.
        let mut tree = DomainTree::new();
        for name in [
            "a.example.com",
            "i.1.a.example.com",
            "2.a.example.com",
            "3.a.example.com",
            "4.b.example.com",
            "c.example.com",
        ] {
            tree.observe(&n(name), 0.0, 1);
        }
        tree
    }

    #[test]
    fn paper_example_groups() {
        let tree = paper_example_tree();
        let groups = tree.groups_under(&n("example.com")).unwrap();
        // G3 = {a, c}, G4 = {2.a, 3.a, 4.b}, G5 = {i.1.a}.
        assert_eq!(groups.groups[&3].members.len(), 2);
        assert_eq!(groups.groups[&4].members.len(), 3);
        assert_eq!(groups.groups[&5].members.len(), 1);
        // L3 = {a, c}, L4 = {a, b}, L5 = {a}.
        let labels = |k: usize| -> Vec<String> {
            groups.groups[&k].adjacent_labels.iter().map(|l| l.to_string()).collect()
        };
        assert_eq!(labels(3), vec!["a", "c"]);
        assert_eq!(labels(4), vec!["a", "b"]);
        assert_eq!(labels(5), vec!["a"]);
    }

    #[test]
    fn interior_nodes_are_white() {
        let tree = paper_example_tree();
        // b.example.com and 1.a.example.com were never observed directly.
        assert!(!tree.is_black(&n("b.example.com")));
        assert!(!tree.is_black(&n("1.a.example.com")));
        assert!(tree.is_black(&n("a.example.com")));
        // White interior nodes are not group members.
        let groups = tree.groups_under(&n("example.com")).unwrap();
        let g3_names: Vec<Name> =
            groups.groups[&3].members.iter().map(|&id| tree.name_of(id)).collect();
        assert!(!g3_names.contains(&n("b.example.com")));
    }

    #[test]
    fn decoloring_removes_from_groups() {
        // Fig. 9: decoloring a.example.com and c.example.com removes G3.
        let mut tree = paper_example_tree();
        for name in ["a.example.com", "c.example.com"] {
            let id = tree.node_of(&n(name)).unwrap();
            tree.decolor(id);
        }
        let groups = tree.groups_under(&n("example.com")).unwrap();
        assert!(!groups.groups.contains_key(&3));
        assert_eq!(groups.groups[&4].members.len(), 3);
    }

    #[test]
    fn observe_accumulates_rr_chr() {
        let mut tree = DomainTree::new();
        tree.observe(&n("x.com"), 0.5, 2);
        tree.observe(&n("x.com"), 0.0, 1);
        let id = tree.node_of(&n("x.com")).unwrap();
        assert_eq!(tree.node_chr(id), &[(0.5, 2), (0.0, 1)]);
        assert_eq!(tree.black_count(), 1);
    }

    #[test]
    fn registered_domains_respect_psl() {
        let mut tree = DomainTree::new();
        tree.observe(&n("www.example.com"), 0.0, 1);
        tree.observe(&n("a.b.shop.co.uk"), 0.0, 1);
        tree.observe(&n("deep.host.dyndns.org"), 0.0, 1);
        let psl = SuffixList::builtin();
        let mut found: Vec<String> =
            tree.registered_domains(&psl).into_iter().map(|(_, name)| name.to_string()).collect();
        found.sort();
        assert_eq!(found, vec!["example.com", "host.dyndns.org", "shop.co.uk"]);
    }

    #[test]
    fn name_of_reconstructs() {
        let tree = paper_example_tree();
        let id = tree.node_of(&n("i.1.a.example.com")).unwrap();
        assert_eq!(tree.name_of(id), n("i.1.a.example.com"));
    }

    #[test]
    fn traversal_order_is_independent_of_observation_order() {
        // The tree keeps children ordered, so group member order and the
        // registered-domain walk are pure functions of the *name set*,
        // not of arena insertion order. This pins the ordering the
        // feature extractor and miner consume.
        let names = [
            "zz.a.example.com",
            "aa.a.example.com",
            "mm.b.example.com",
            "b.other.net",
            "a.other.net",
        ];
        let mut forward = DomainTree::new();
        for name in names {
            forward.observe(&n(name), 0.0, 1);
        }
        let mut backward = DomainTree::new();
        for name in names.iter().rev() {
            backward.observe(&n(name), 0.0, 1);
        }
        let psl = SuffixList::builtin();
        let walk = |t: &DomainTree| -> Vec<String> {
            t.registered_domains(&psl).into_iter().map(|(_, name)| name.to_string()).collect()
        };
        // Same sequence (not just same set) from both trees.
        assert_eq!(walk(&forward), walk(&backward));
        assert_eq!(walk(&forward), vec!["example.com", "other.net"]);
        let members = |t: &DomainTree| -> Vec<Name> {
            let groups = t.groups_under(&n("example.com")).unwrap();
            groups.groups[&4].members.iter().map(|&id| t.name_of(id)).collect()
        };
        assert_eq!(members(&forward), members(&backward));
        assert_eq!(
            members(&forward),
            vec![n("aa.a.example.com"), n("zz.a.example.com"), n("mm.b.example.com")]
        );
    }

    #[test]
    fn groups_under_missing_zone_is_none() {
        let tree = paper_example_tree();
        assert!(tree.groups_under(&n("absent.com")).is_none());
    }
}
