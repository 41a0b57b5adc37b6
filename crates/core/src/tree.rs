//! The domain name tree of §V-A1, held flat.
//!
//! Nodes live in one arena indexed by `usize` (node 0 is the root). Each
//! node keeps its parent, its depth, its label — a span of one byte
//! arena — with the label's entropy cached, its children sorted by label
//! bytes (the order a `BTreeMap<Label, _>` gives), and the head of its
//! chain of owned rows. Every traversal visits children in label order,
//! so member vectors and the registered-domain walk are pure functions
//! of the name set, not of insertion order.
//!
//! A tree fed by [`DomainTree::fold`] lives as long as its
//! [`RrDayStats`]: each fold inserts only the rows first seen since the
//! last one, then refreshes every row's `(dhr, misses)` and re-colours
//! every owner black, undoing Algorithm 1's decolouring. The streaming
//! miner folds one tree at each epoch close instead of rebuilding it.

use std::cell::Cell;
use std::collections::BTreeMap;

use dnsnoise_dns::{Label, Name, NameBuilder, SuffixList};
use dnsnoise_resolver::RrDayStats;

/// No node or no row: the root's parent, the end of a row chain.
const NONE: u32 = u32::MAX;

/// Identifies one depth-group `G_k` under an inspected zone.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct GroupKey {
    /// The inspected zone.
    pub zone: Name,
    /// The absolute label depth of the group's members.
    pub depth: usize,
}

/// The black descendants of a zone, grouped by absolute depth, together
/// with the adjacent-label set `L_k` ("the labels next to the zone under
/// inspection", §V-A1).
#[derive(Debug, Clone, Default)]
pub struct ZoneGroups {
    /// `depth → (member node ids, adjacent child ids)`.
    pub groups: BTreeMap<usize, GroupMembers>,
}

/// One `G_k`: the member nodes plus the zone's children they sit under.
#[derive(Debug, Clone, Default)]
pub struct GroupMembers {
    /// Arena ids of the black member nodes.
    pub members: Vec<usize>,
    /// Arena ids of the zone's children on the members' paths, in label
    /// order; their labels are the set `L_k`, distinct by construction.
    pub adjacent: Vec<usize>,
}

/// Whether a node's name is a public suffix, cached per node by the
/// registered-domain walk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Suffix {
    Unknown,
    Yes,
    No,
}

#[derive(Debug)]
struct TreeNode {
    parent: u32,
    /// The label's span in [`DomainTree::labels`].
    label_start: u32,
    label_len: u8,
    /// Labels from the root: the name's depth.
    depth: u8,
    /// A black node owned at least one RR in the observation window.
    black: bool,
    suffix: Cell<Suffix>,
    /// [`Label::entropy_of`] the label.
    entropy: f64,
    /// First row of the node's chain in [`DomainTree::rows`], or [`NONE`].
    rows: u32,
    /// Child ids, sorted by label bytes.
    children: Vec<u32>,
}

/// One RR owned by a node: its `(domain hit rate, miss count)` — an input
/// to the group CHR distribution — and the next row of the same owner.
#[derive(Debug, Clone, Copy)]
struct Row {
    dhr: f64,
    misses: u32,
    next: u32,
}

/// The daily domain name tree: root → effective TLDs → … (§V-A1, Fig. 8).
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
/// assert_eq!(groups.groups[&4].adjacent.len(), 2);
/// # Ok::<(), dnsnoise_dns::NameParseError>(())
/// ```
#[derive(Debug)]
pub struct DomainTree {
    nodes: Vec<TreeNode>,
    /// Every node's label, back to back.
    labels: String,
    rows: Vec<Row>,
    /// Table rows [`DomainTree::fold`] has taken: row `i` of the tree is
    /// row `i` of the table.
    folded: usize,
    /// Rule count of the suffix list the cached [`Suffix`] states were
    /// computed against.
    suffix_rules: Cell<usize>,
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
            nodes: vec![TreeNode {
                parent: NONE,
                label_start: 0,
                label_len: 0,
                depth: 0,
                black: false,
                suffix: Cell::new(Suffix::Unknown),
                entropy: 0.0,
                rows: NONE,
                children: Vec::new(),
            }],
            labels: String::new(),
            rows: Vec::new(),
            folded: 0,
            suffix_rules: Cell::new(usize::MAX),
        }
    }

    /// Builds a tree from a day of per-RR statistics: [`DomainTree::new`]
    /// plus one [`DomainTree::fold`].
    pub fn from_day_stats(stats: &RrDayStats) -> Self {
        let mut tree = DomainTree::new();
        tree.fold(stats);
        tree
    }

    /// Brings the tree up to date with `stats`, the table every earlier
    /// fold of this tree read: inserts the rows first seen since the last
    /// fold, refreshes every row's `(dhr, misses)`, and colours every
    /// node that owns a row black again, restoring what Algorithm 1
    /// decoloured. A fold that adds no row allocates nothing.
    ///
    /// # Panics
    ///
    /// Panics if the tree holds rows from [`DomainTree::observe`], or if
    /// `stats` holds fewer rows than earlier folds took.
    pub fn fold(&mut self, stats: &RrDayStats) {
        assert!(
            self.rows.len() == self.folded && stats.len() >= self.folded,
            "a folded tree takes its rows from one growing table"
        );
        for (key, _) in stats.rows_since(self.folded) {
            let node = self.insert(&key.name);
            self.push_row(node, 0.0, 0);
        }
        self.folded = stats.len();
        for (row, (_, stat)) in self.rows.iter_mut().zip(stats.iter()) {
            row.dhr = stat.dhr();
            row.misses = stat.misses;
        }
        for node in &mut self.nodes {
            node.black = node.rows != NONE;
        }
    }

    /// Records one resource record owned by `name` with the given domain
    /// hit rate and daily miss count. The name's node (and its ancestors'
    /// nodes) are created as needed; the node turns black.
    pub fn observe(&mut self, name: &Name, dhr: f64, misses: u32) {
        let node = self.insert(name);
        self.push_row(node, dhr, misses);
        self.nodes[node].black = true;
    }

    /// The node of `name`, created with its ancestors as needed.
    fn insert(&mut self, name: &Name) -> usize {
        let mut node = 0usize;
        // Walk rightmost label (TLD) first.
        for label in name.labels().iter().rev() {
            node = match self.child_slot(node, label) {
                Ok(slot) => self.nodes[node].children[slot] as usize,
                Err(slot) => {
                    let id = self.nodes.len();
                    let parent = &self.nodes[node];
                    let child = TreeNode {
                        parent: node as u32,
                        label_start: u32::try_from(self.labels.len())
                            .expect("labels fit a u32 arena"),
                        label_len: label.len() as u8,
                        depth: parent.depth + 1,
                        black: false,
                        suffix: Cell::new(Suffix::Unknown),
                        entropy: Label::entropy_of(label),
                        rows: NONE,
                        children: Vec::new(),
                    };
                    self.labels.push_str(label);
                    self.nodes.push(child);
                    self.nodes[node].children.insert(slot, id as u32);
                    id
                }
            };
        }
        node
    }

    /// Prepends a row to `node`'s chain.
    fn push_row(&mut self, node: usize, dhr: f64, misses: u32) {
        let row = u32::try_from(self.rows.len()).expect("fewer than 2^32 rows");
        self.rows.push(Row { dhr, misses, next: self.nodes[node].rows });
        self.nodes[node].rows = row;
    }

    fn label(&self, id: usize) -> &str {
        let node = &self.nodes[id];
        let start = node.label_start as usize;
        &self.labels[start..start + usize::from(node.label_len)]
    }

    /// Where `label` sits among `id`'s children: `Ok` at its index, or
    /// `Err` at the index that keeps them sorted.
    fn child_slot(&self, id: usize, label: &str) -> Result<usize, usize> {
        self.nodes[id].children.binary_search_by(|&child| self.label(child as usize).cmp(label))
    }

    /// Total nodes in the arena (including white interior nodes and root).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of black nodes.
    pub fn black_count(&self) -> usize {
        self.nodes.iter().filter(|n| n.black).count()
    }

    /// Finds the node id for a name, if present.
    pub fn node_of(&self, name: &Name) -> Option<usize> {
        let mut node = 0usize;
        for label in name.labels().iter().rev() {
            node = self.nodes[node].children[self.child_slot(node, label).ok()?] as usize;
        }
        Some(node)
    }

    /// Whether the node for `name` exists and is black.
    // lint:allow(dead-api): crates/core/tests/proptests.rs reads the tree's colouring through it
    pub fn is_black(&self, name: &Name) -> bool {
        self.node_of(name).is_some_and(|id| self.nodes[id].black)
    }

    /// The `(dhr, misses)` pairs of RRs owned by node `id`, newest first.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn node_chr(&self, id: usize) -> impl Iterator<Item = (f64, u32)> + '_ {
        let mut next = self.nodes[id].rows;
        std::iter::from_fn(move || {
            let row = self.rows.get(next as usize)?;
            next = row.next;
            Some((row.dhr, row.misses))
        })
    }

    /// Turns the node white (Algorithm 1's decoloring, lines 9–11).
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn decolor(&mut self, id: usize) {
        self.nodes[id].black = false;
    }

    /// The `i`-th child of `id` in label order.
    pub(crate) fn child(&self, id: usize, i: usize) -> Option<usize> {
        self.nodes[id].children.get(i).map(|&child| child as usize)
    }

    /// The depth of node `id`: its name's label count.
    pub(crate) fn depth_of(&self, id: usize) -> usize {
        usize::from(self.nodes[id].depth)
    }

    /// The Shannon entropy of node `id`'s label.
    pub(crate) fn entropy_of(&self, id: usize) -> f64 {
        self.nodes[id].entropy
    }

    /// The full name of a node, walked up its parent links.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn name_of(&self, id: usize) -> Name {
        let mut name = NameBuilder::new();
        let mut node = id;
        while node != 0 {
            name.push_label(self.label(node).as_bytes()).expect("a tree path is a valid name");
            node = self.nodes[node].parent as usize;
        }
        name.to_name().expect("a tree path is a valid name")
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
        let mut groups = BTreeMap::new();
        for &child in &self.nodes[zone_id].children {
            self.collect(child as usize, zone_depth + 1, child as usize, &mut groups);
        }
        ZoneGroups { groups }
    }

    fn collect(
        &self,
        id: usize,
        depth: usize,
        adjacent: usize,
        groups: &mut BTreeMap<usize, GroupMembers>,
    ) {
        let node = &self.nodes[id];
        if node.black {
            let group = groups.entry(depth).or_default();
            group.members.push(id);
            // One adjacent child's subtree is walked whole before the
            // next one's, so a repeat can only be the last entry.
            if group.adjacent.last() != Some(&adjacent) {
                group.adjacent.push(adjacent);
            }
        }
        for &child in &node.children {
            self.collect(child as usize, depth + 1, adjacent, groups);
        }
    }

    /// Node ids and names of every *registered domain* (effective 2LD)
    /// present in the tree — the starting zones of Algorithm 1. A node
    /// qualifies when its parent path is a public suffix and it is not
    /// one itself.
    pub fn registered_domains(&self, psl: &SuffixList) -> Vec<(usize, Name)> {
        self.registered_ids(psl).into_iter().map(|id| (id, self.name_of(id))).collect()
    }

    /// [`DomainTree::registered_domains`] without the names. Whether a
    /// node is a public suffix is decided once per node and cached; the
    /// cache is dropped when `psl` holds another number of rules than the
    /// list it was filled from.
    pub(crate) fn registered_ids(&self, psl: &SuffixList) -> Vec<usize> {
        if self.suffix_rules.replace(psl.len()) != psl.len() {
            for node in &self.nodes {
                node.suffix.set(Suffix::Unknown);
            }
        }
        let mut out = Vec::new();
        self.walk_registered(0, psl, &mut out);
        out
    }

    fn walk_registered(&self, id: usize, psl: &SuffixList, out: &mut Vec<usize>) {
        for &child in &self.nodes[id].children {
            let child = child as usize;
            if self.is_suffix(child, psl) {
                // Still inside the public-suffix area: keep descending.
                self.walk_registered(child, psl, out);
            } else {
                // First non-suffix level: this is a registered domain.
                out.push(child);
            }
        }
    }

    fn is_suffix(&self, id: usize, psl: &SuffixList) -> bool {
        let cached = &self.nodes[id].suffix;
        if cached.get() == Suffix::Unknown {
            let suffix = psl.is_suffix(&self.name_of(id));
            cached.set(if suffix { Suffix::Yes } else { Suffix::No });
        }
        cached.get() == Suffix::Yes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnsnoise_dns::{QType, RData};

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
        let labels = |k: usize| -> Vec<Name> {
            groups.groups[&k].adjacent.iter().map(|&id| tree.name_of(id)).collect()
        };
        let under = |labels: &[&str]| -> Vec<Name> {
            labels.iter().map(|l| n(&format!("{l}.example.com"))).collect()
        };
        assert_eq!(labels(3), under(&["a", "c"]));
        assert_eq!(labels(4), under(&["a", "b"]));
        assert_eq!(labels(5), under(&["a"]));
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
        let mut chr: Vec<(f64, u32)> = tree.node_chr(id).collect();
        chr.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert_eq!(chr, vec![(0.0, 1), (0.5, 2)]);
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

    fn table(names: &[&str]) -> RrDayStats {
        let mut stats = RrDayStats::new();
        for (i, name) in names.iter().enumerate() {
            let rdata = RData::A(std::net::Ipv4Addr::from(i as u32));
            stats.record(&n(name), QType::A, &rdata, i % 2 == 0);
        }
        stats
    }

    #[test]
    fn fold_takes_only_new_rows_and_restores_the_colouring() {
        let mut stats = table(&["a.example.com", "b.example.com", "x.other.net"]);
        let mut tree = DomainTree::from_day_stats(&stats);
        let nodes = tree.node_count();
        let id = tree.node_of(&n("a.example.com")).unwrap();
        tree.decolor(id);
        tree.fold(&stats);
        assert_eq!(tree.node_count(), nodes, "no new rows, no new nodes");
        assert!(tree.is_black(&n("a.example.com")), "the fold restores a decoloured owner");
        assert!(!tree.is_black(&n("example.com")), "interior nodes stay white");
        // A repeat moves the row's counters; the refreshed tree shows them.
        let rdata = RData::A(std::net::Ipv4Addr::from(0));
        stats.record(&n("a.example.com"), QType::A, &rdata, false);
        stats.record(&n("c.example.com"), QType::A, &rdata, true);
        tree.fold(&stats);
        assert_eq!(tree.node_chr(id).collect::<Vec<_>>(), vec![(0.5, 1)]);
        let fresh = DomainTree::from_day_stats(&stats);
        assert_eq!(tree.black_count(), fresh.black_count());
        let psl = SuffixList::builtin();
        assert_eq!(tree.registered_domains(&psl).len(), 2);
        let names = |t: &DomainTree| -> Vec<Name> {
            let groups = t.groups_under(&n("example.com")).unwrap();
            groups.groups[&3].members.iter().map(|&id| t.name_of(id)).collect()
        };
        assert_eq!(names(&tree), names(&fresh));
    }

    #[test]
    #[should_panic(expected = "one growing table")]
    fn fold_refuses_a_tree_built_by_observe() {
        let mut tree = paper_example_tree();
        tree.fold(&table(&["a.example.com"]));
    }
}
