//! Per-job hierarchical address space (paper §3.1, Fig. 4).
//!
//! Internal nodes correspond to tasks in the job's DAG; each node owns
//! the blocks holding the intermediate data its task produced. A block's
//! *address* is any dotted path reaching its node (nodes can have several
//! parents — like hard links to an inode, a block can have many
//! addresses). Leases attach to nodes; renewing a node renews its direct
//! parents (the data it consumes) and all of its descendants (the data
//! that will consume it) — paper Fig. 5.

use std::collections::{HashMap, HashSet, VecDeque};
use std::time::Duration;

use jiffy_common::{BlockId, JiffyError, Result};

use crate::meta::DsMeta;

/// Fixed per-task metadata charge used for the §6.4 storage-overhead
/// accounting (name pointer, parent/child vectors, timestamps,
/// permissions — the paper reports 64 bytes per task).
pub const PER_TASK_METADATA_BYTES: u64 = 64;

/// Fixed per-block metadata charge (8 bytes: the block ID entry in its
/// node's block map).
pub const PER_BLOCK_METADATA_BYTES: u64 = 8;

/// Access permissions on an address prefix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Permissions {
    /// Tasks of the owning job may read.
    pub read: bool,
    /// Tasks of the owning job may write.
    pub write: bool,
}

impl Default for Permissions {
    fn default() -> Self {
        Self {
            read: true,
            write: true,
        }
    }
}

/// One node in a job's address hierarchy.
#[derive(Debug, Clone)]
pub struct Node {
    /// Node name (unique within the job).
    pub name: String,
    /// Direct parents (empty = hangs off the job root).
    pub parents: Vec<String>,
    /// Direct children.
    pub children: Vec<String>,
    /// Last lease renewal instant (clock-epoch offset).
    pub last_renewal: Duration,
    /// Access permissions.
    pub permissions: Permissions,
    /// Data-structure partitioning metadata, if a structure is bound.
    pub ds: Option<DsMeta>,
    /// Where the prefix's data was flushed on lease expiry (if it was).
    pub flushed_to: Option<String>,
    /// Metadata version; bumps on every partition-map change so clients
    /// can detect staleness.
    pub version: u64,
}

impl Node {
    fn new(name: String, now: Duration) -> Self {
        Self {
            name,
            parents: Vec::new(),
            children: Vec::new(),
            last_renewal: now,
            permissions: Permissions::default(),
            ds: None,
            flushed_to: None,
            version: 0,
        }
    }

    /// Blocks currently allocated to this node.
    pub fn blocks(&self) -> Vec<BlockId> {
        self.ds.as_ref().map(DsMeta::blocks).unwrap_or_default()
    }
}

/// A job's address hierarchy: a named DAG with lease timestamps.
#[derive(Debug, Default)]
pub struct AddressHierarchy {
    nodes: HashMap<String, Node>,
}

impl AddressHierarchy {
    /// Creates an empty hierarchy (just the implicit job root).
    pub fn new() -> Self {
        Self::default()
    }

    /// Checks that a node `name` could be added under `parents` without
    /// adding it: the name is valid and new, and every parent exists or
    /// is one of `pending` (nodes the same request adds first).
    ///
    /// # Errors
    ///
    /// [`JiffyError::PathExists`] if the name is taken,
    /// [`JiffyError::PathNotFound`] if a parent is missing.
    pub fn check_new_node(&self, name: &str, parents: &[String], pending: &[&str]) -> Result<()> {
        if name.is_empty() || name.contains('.') {
            return Err(JiffyError::Internal(format!(
                "invalid node name {name:?}: must be non-empty, no dots"
            )));
        }
        if self.nodes.contains_key(name) || pending.contains(&name) {
            return Err(JiffyError::PathExists(name.to_string()));
        }
        match parents
            .iter()
            .find(|p| !self.nodes.contains_key(*p) && !pending.contains(&p.as_str()))
        {
            Some(p) => Err(JiffyError::PathNotFound(p.clone())),
            None => Ok(()),
        }
    }

    /// Adds a node under the given parents (all of which must exist).
    ///
    /// # Errors
    ///
    /// As [`Self::check_new_node`]; nothing changes then.
    pub fn add_node(&mut self, name: &str, parents: &[String], now: Duration) -> Result<()> {
        self.check_new_node(name, parents, &[])?;
        let mut node = Node::new(name.to_string(), now);
        node.parents = parents.to_vec();
        self.nodes.insert(name.to_string(), node);
        for p in parents {
            #[allow(clippy::expect_used)] // invariant documented in the message
            self.nodes
                .get_mut(p)
                .expect("invariant: parent existence checked above")
                .children
                .push(name.to_string());
        }
        Ok(())
    }

    /// Adds an extra parent edge to an existing node.
    ///
    /// # Errors
    ///
    /// [`JiffyError::PathNotFound`] if either node is missing;
    /// [`JiffyError::Internal`] if the edge would create a cycle or
    /// already exists.
    pub fn add_parent(&mut self, name: &str, parent: &str) -> Result<()> {
        if !self.nodes.contains_key(name) {
            return Err(JiffyError::PathNotFound(name.to_string()));
        }
        if !self.nodes.contains_key(parent) {
            return Err(JiffyError::PathNotFound(parent.to_string()));
        }
        if self.nodes[name].parents.iter().any(|p| p == parent) {
            return Err(JiffyError::Internal(format!(
                "edge {parent} -> {name} already exists"
            )));
        }
        // A cycle would exist iff `parent` is reachable from `name`.
        if self.descendants(name).contains(parent) || name == parent {
            return Err(JiffyError::Internal(format!(
                "edge {parent} -> {name} would create a cycle"
            )));
        }
        #[allow(clippy::expect_used)] // invariant documented in the message
        self.nodes
            .get_mut(name)
            .expect("invariant: presence checked at function entry")
            .parents
            .push(parent.to_string());
        #[allow(clippy::expect_used)] // invariant documented in the message
        self.nodes
            .get_mut(parent)
            .expect("invariant: presence checked at function entry")
            .children
            .push(name.to_string());
        Ok(())
    }

    /// Removes a node, detaching it from parents and children. Children
    /// that lose their last parent become root-level. Returns the blocks
    /// the node held.
    ///
    /// # Errors
    ///
    /// [`JiffyError::PathNotFound`] if the node is missing.
    pub fn remove_node(&mut self, name: &str) -> Result<Vec<BlockId>> {
        let node = self
            .nodes
            .remove(name)
            .ok_or_else(|| JiffyError::PathNotFound(name.to_string()))?;
        for p in &node.parents {
            if let Some(parent) = self.nodes.get_mut(p) {
                parent.children.retain(|c| c != name);
            }
        }
        for c in &node.children {
            if let Some(child) = self.nodes.get_mut(c) {
                child.parents.retain(|p| p != name);
            }
        }
        Ok(node.blocks())
    }

    /// Resolves a node by name or by dotted path (each consecutive pair
    /// must be a parent→child edge).
    ///
    /// # Errors
    ///
    /// [`JiffyError::PathNotFound`] on missing nodes or invalid edges.
    pub fn resolve(&self, path: &str) -> Result<&Node> {
        let name = self.resolve_name(path)?;
        Ok(&self.nodes[&name])
    }

    /// Mutable variant of [`AddressHierarchy::resolve`].
    ///
    /// # Errors
    ///
    /// Same as [`AddressHierarchy::resolve`].
    pub fn resolve_mut(&mut self, path: &str) -> Result<&mut Node> {
        let name = self.resolve_name(path)?;
        #[allow(clippy::expect_used)] // invariant documented in the message
        Ok(self
            .nodes
            .get_mut(&name)
            .expect("invariant: resolve_name verified the node exists"))
    }

    /// The name of the node a plain name or dotted path reaches.
    ///
    /// # Errors
    ///
    /// Same as [`AddressHierarchy::resolve`].
    pub fn resolve_name(&self, path: &str) -> Result<String> {
        let parts: Vec<&str> = path.split('.').collect();
        if parts.is_empty() || parts.iter().any(|p| p.is_empty()) {
            return Err(JiffyError::PathNotFound(path.to_string()));
        }
        for pair in parts.windows(2) {
            let parent = self
                .nodes
                .get(pair[0])
                .ok_or_else(|| JiffyError::PathNotFound(path.to_string()))?;
            if !parent.children.iter().any(|c| c == pair[1]) {
                return Err(JiffyError::PathNotFound(format!(
                    "{path} (no edge {} -> {})",
                    pair[0], pair[1]
                )));
            }
        }
        #[allow(clippy::expect_used)] // invariant documented in the message
        let last = *parts
            .last()
            .expect("invariant: parts verified non-empty above");
        if !self.nodes.contains_key(last) {
            return Err(JiffyError::PathNotFound(path.to_string()));
        }
        Ok(last.to_string())
    }

    /// All transitive descendants of a node (excluding itself).
    pub fn descendants(&self, name: &str) -> HashSet<String> {
        let mut seen = HashSet::new();
        let mut queue: VecDeque<&str> = VecDeque::new();
        if let Some(n) = self.nodes.get(name) {
            for c in &n.children {
                queue.push_back(c);
            }
        }
        while let Some(cur) = queue.pop_front() {
            if !seen.insert(cur.to_string()) {
                continue;
            }
            if let Some(n) = self.nodes.get(cur) {
                for c in &n.children {
                    queue.push_back(c);
                }
            }
        }
        seen
    }

    /// The lease-renewal closure of a node: itself, its **direct**
    /// parents (the data it consumes, paper Fig. 5) and **all** of its
    /// descendants (everything that will consume its data).
    pub fn renewal_closure(&self, name: &str) -> Result<Vec<String>> {
        let node = self
            .nodes
            .get(name)
            .ok_or_else(|| JiffyError::PathNotFound(name.to_string()))?;
        let mut out: Vec<String> = vec![name.to_string()];
        out.extend(node.parents.iter().cloned());
        let mut descendants: Vec<String> = self.descendants(name).into_iter().collect();
        descendants.sort_unstable();
        for d in descendants {
            if !out.contains(&d) {
                out.push(d);
            }
        }
        Ok(out)
    }

    /// Renews the lease on `path`'s closure at time `now`; returns the
    /// renewed node names.
    ///
    /// # Errors
    ///
    /// [`JiffyError::PathNotFound`] on bad paths.
    pub fn renew(&mut self, path: &str, now: Duration) -> Result<Vec<String>> {
        let name = self.resolve_name(path)?;
        let closure = self.renewal_closure(&name)?;
        for n in &closure {
            if let Some(node) = self.nodes.get_mut(n) {
                node.last_renewal = now;
            }
        }
        Ok(closure)
    }

    /// Re-arms every lease to `now`: a restarted controller must never
    /// expire data it could not watch.
    pub fn rearm_leases(&mut self, now: Duration) {
        for node in self.nodes.values_mut() {
            node.last_renewal = now;
        }
    }

    /// Names of nodes whose lease lapsed before `now - lease_duration`.
    pub fn expired(&self, now: Duration, lease_duration: Duration) -> Vec<String> {
        self.nodes
            .values()
            .filter(|n| now.saturating_sub(n.last_renewal) > lease_duration)
            .map(|n| n.name.clone())
            .collect()
    }

    /// Node count.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the hierarchy has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// All node names (sorted, for deterministic listings).
    pub fn names(&self) -> Vec<String> {
        let mut v: Vec<String> = self.nodes.keys().cloned().collect();
        v.sort_unstable();
        v
    }

    /// Direct lookup without path validation.
    pub fn get(&self, name: &str) -> Option<&Node> {
        self.nodes.get(name)
    }

    /// Mutable direct lookup without path validation.
    pub fn get_mut(&mut self, name: &str) -> Option<&mut Node> {
        self.nodes.get_mut(name)
    }

    /// Inserts a fully formed node verbatim — the snapshot-mirror import
    /// path, which restores edges exactly as checkpointed instead of
    /// re-deriving them through [`Self::add_node`].
    pub(crate) fn insert_node(&mut self, node: Node) {
        self.nodes.insert(node.name.clone(), node);
    }

    /// Total blocks allocated across all nodes.
    pub fn total_blocks(&self) -> usize {
        self.nodes.values().map(|n| n.blocks().len()).sum()
    }

    /// Controller metadata footprint for this hierarchy (the §6.4
    /// storage-overhead figure: 64 B per task + 8 B per block).
    pub fn metadata_bytes(&self) -> u64 {
        self.nodes
            .values()
            .map(|n| PER_TASK_METADATA_BYTES + PER_BLOCK_METADATA_BYTES * n.blocks().len() as u64)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(secs: u64) -> Duration {
        Duration::from_secs(secs)
    }

    /// Builds the paper's Fig. 3/4 DAG:
    /// T1,T2 -> T5; T3 -> T7; T4 -> T6; T5,T6 -> T7; T7 -> T8,T9.
    fn paper_dag() -> AddressHierarchy {
        let mut h = AddressHierarchy::new();
        for n in ["t1", "t2", "t3", "t4"] {
            h.add_node(n, &[], t(0)).unwrap();
        }
        h.add_node("t5", &["t1".into(), "t2".into()], t(0)).unwrap();
        h.add_node("t6", &["t4".into()], t(0)).unwrap();
        h.add_node("t7", &["t3".into(), "t5".into(), "t6".into()], t(0))
            .unwrap();
        h.add_node("t8", &["t7".into()], t(0)).unwrap();
        h.add_node("t9", &["t7".into()], t(0)).unwrap();
        h
    }

    #[test]
    fn duplicate_and_orphan_nodes_rejected() {
        let mut h = AddressHierarchy::new();
        h.add_node("a", &[], t(0)).unwrap();
        assert!(matches!(
            h.add_node("a", &[], t(0)),
            Err(JiffyError::PathExists(_))
        ));
        assert!(matches!(
            h.add_node("b", &["ghost".into()], t(0)),
            Err(JiffyError::PathNotFound(_))
        ));
        assert!(h.add_node("", &[], t(0)).is_err());
        assert!(h.add_node("a.b", &[], t(0)).is_err());
    }

    #[test]
    fn check_new_node_sees_pending_nodes_and_changes_nothing() {
        let h = paper_dag();
        // A node may hang off one the same request adds first, but not
        // repeat it or hang off a node nobody adds.
        h.check_new_node("x", &["t9".into(), "y".into()], &["y"])
            .unwrap();
        assert!(matches!(
            h.check_new_node("y", &[], &["y"]),
            Err(JiffyError::PathExists(_))
        ));
        assert!(matches!(
            h.check_new_node("x", &["y".into()], &[]),
            Err(JiffyError::PathNotFound(_))
        ));
        assert_eq!(h.len(), 9);
    }

    #[test]
    fn dotted_paths_resolve_along_edges() {
        let h = paper_dag();
        assert_eq!(h.resolve("t7").unwrap().name, "t7");
        assert_eq!(h.resolve("t4.t6.t7").unwrap().name, "t7");
        assert_eq!(h.resolve("t1.t5.t7").unwrap().name, "t7");
        // No edge t1 -> t7.
        assert!(h.resolve("t1.t7").is_err());
        assert!(h.resolve("t7.t1").is_err());
        assert!(h.resolve("missing").is_err());
        assert!(h.resolve("t1..t5").is_err());
    }

    #[test]
    fn renewal_closure_matches_paper_fig5() {
        let h = paper_dag();
        // Renewing T7 renews T7, its direct parents T3/T5/T6, and its
        // descendants T8/T9 — but NOT T1, T2, T4.
        let mut closure = h.renewal_closure("t7").unwrap();
        closure.sort_unstable();
        assert_eq!(closure, vec!["t3", "t5", "t6", "t7", "t8", "t9"]);
    }

    #[test]
    fn renew_updates_exactly_the_closure() {
        let mut h = paper_dag();
        let renewed = h.renew("t4.t6.t7", t(10)).unwrap();
        assert_eq!(renewed.len(), 6);
        for n in ["t3", "t5", "t6", "t7", "t8", "t9"] {
            assert_eq!(h.get(n).unwrap().last_renewal, t(10), "{n}");
        }
        for n in ["t1", "t2", "t4"] {
            assert_eq!(h.get(n).unwrap().last_renewal, t(0), "{n}");
        }
    }

    #[test]
    fn expiry_scans_by_timestamp() {
        let mut h = paper_dag();
        h.renew("t7", t(10)).unwrap();
        // Lease 5s, now = 12s: t1, t2, t4 (stamp 0) are expired.
        let mut e = h.expired(t(12), Duration::from_secs(5));
        e.sort_unstable();
        assert_eq!(e, vec!["t1", "t2", "t4"]);
        // now = 3s: nothing expired yet.
        assert!(h.expired(t(3), Duration::from_secs(5)).is_empty());
    }

    #[test]
    fn removing_a_node_detaches_edges() {
        let mut h = paper_dag();
        h.remove_node("t5").unwrap();
        assert!(h.get("t5").is_none());
        assert!(!h.get("t1").unwrap().children.contains(&"t5".to_string()));
        assert!(!h.get("t7").unwrap().parents.contains(&"t5".to_string()));
        // t7 still resolvable through other paths.
        assert_eq!(h.resolve("t4.t6.t7").unwrap().name, "t7");
        assert!(h.resolve("t1.t5.t7").is_err());
    }

    #[test]
    fn add_parent_rejects_duplicates_and_cycles() {
        let mut h = paper_dag();
        // Duplicate edge.
        assert!(h.add_parent("t7", "t5").is_err());
        // Cycle: t7 -> t8 exists, so t8 cannot become a parent of t7's
        // ancestor t5.
        assert!(h.add_parent("t5", "t8").is_err());
        assert!(h.add_parent("t5", "t5").is_err());
        // Legal new edge: t3 -> t8 (block under t8 gains address t3.t8).
        h.add_parent("t8", "t3").unwrap();
        assert_eq!(h.resolve("t3.t8").unwrap().name, "t8");
    }

    #[test]
    fn multi_address_blocks_one_node() {
        let h = paper_dag();
        // The same node (and thus the same blocks) is reachable by all
        // four addresses the paper lists for B7_1.
        for addr in ["t4.t6.t7", "t3.t7", "t2.t5.t7", "t1.t5.t7"] {
            assert_eq!(h.resolve(addr).unwrap().name, "t7");
        }
    }

    #[test]
    fn metadata_accounting_matches_the_paper_constants() {
        let h = paper_dag();
        // 9 tasks, no blocks yet.
        assert_eq!(h.metadata_bytes(), 9 * PER_TASK_METADATA_BYTES);
        assert_eq!(h.total_blocks(), 0);
    }
}
