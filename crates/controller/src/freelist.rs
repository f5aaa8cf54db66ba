//! The free block list and memory-server membership table.

use std::collections::{HashMap, HashSet, VecDeque};

use jiffy_common::id::IdGen;
use jiffy_common::{BlockId, JiffyError, Result, ServerId};
use jiffy_elastic::{ServerLoad, ServerState};
use jiffy_proto::{BlockLocation, Endpoint, ServerInfo};
use serde::{Deserialize, Serialize};

/// One registered memory server and the blocks it contributed.
#[derive(Debug, Clone)]
struct ServerEntry {
    endpoint: Endpoint,
    state: ServerState,
    /// Every block homed on this server, in registration order.
    blocks: Vec<BlockId>,
}

/// Tracks every registered memory server, every block in the cluster,
/// and which blocks are currently free.
///
/// Assignment of blocks to address prefixes is exactly the paper's
/// virtual-memory analogy: the data plane's physical blocks are
/// multiplexed across prefixes at block granularity, while tasks operate
/// under the illusion of unbounded prefix capacity.
///
/// With cluster elasticity this doubles as the **membership table**:
/// each server carries a [`ServerState`]. Only `Alive` servers receive
/// new allocations; the free blocks of `Draining`/`Dead` servers are
/// *parked* (unallocatable but remembered). Server IDs come from a
/// monotonic [`IdGen`] and departed IDs are tombstoned, so an ID is
/// never re-issued — a stale heartbeat or lease from a previous
/// incarnation can never be confused with a new server.
#[derive(Debug, Default)]
pub struct FreeList {
    servers: HashMap<ServerId, ServerEntry>,
    /// Every block's home server (free or not).
    homes: HashMap<BlockId, ServerId>,
    /// Allocatable blocks (homes are all `Alive`), FIFO for round-robin.
    free: VecDeque<BlockId>,
    /// Unallocated blocks whose home server is draining or dead.
    parked: HashSet<BlockId>,
    /// IDs of servers that left the cluster (drained and removed).
    departed: HashSet<ServerId>,
    server_ids: IdGen,
    block_ids: IdGen,
}

impl FreeList {
    /// Creates an empty free list.
    pub fn new() -> Self {
        Self::default()
    }

    /// Strides the server and block id generators so this free list
    /// (one controller shard's) mints ids ≡ `index` (mod `count`) —
    /// disjoint from every sibling shard's ids, and `id % count`
    /// recovers the owning shard for request routing. Safe to call on a
    /// table rebuilt from a checkpoint: frontiers already in class stay
    /// put.
    pub fn set_id_stride(&self, index: u64, count: u64) {
        self.server_ids.set_stride(index, count);
        self.block_ids.set_stride(index, count);
    }

    /// The ids a server joining with `capacity_blocks` blocks would get,
    /// without issuing them: [`Self::restore_server`] installs it.
    pub fn mint_server(&self, capacity_blocks: u32) -> (ServerId, Vec<BlockId>) {
        let blocks = self.block_ids.peek(u64::from(capacity_blocks));
        (
            ServerId(self.server_ids.current()),
            blocks.map(BlockId).collect(),
        )
    }

    /// Picks a replication chain of `n` free blocks on as many distinct
    /// servers as possible (head first), skipping `taken` — blocks the
    /// same request already picked. Only `Alive` servers are eligible
    /// (the free list never holds blocks of draining or dead servers).
    /// Read-only: [`Self::claim`] allocates the pick.
    ///
    /// # Errors
    ///
    /// [`JiffyError::OutOfBlocks`] if fewer than `n` blocks are free
    /// outside `taken`.
    pub fn pick_chain(&self, n: usize, taken: &[BlockId]) -> Result<BlockLocation> {
        if n == 0 {
            return Err(JiffyError::Internal("chain length must be >= 1".into()));
        }
        // `taken` may hold blocks that are not free (a drain skips every
        // block of the leaving server), so it only filters.
        let taken: HashSet<&BlockId> = taken.iter().collect();
        let free = || self.free.iter().filter(|b| !taken.contains(b));
        // Greedy pass preferring distinct servers; fall back to whatever
        // is free if the cluster has fewer servers than replicas.
        let mut chosen: Vec<BlockId> = Vec::with_capacity(n);
        let mut used_servers: Vec<ServerId> = Vec::with_capacity(n);
        for pass in 0..2 {
            for &candidate in free() {
                if chosen.len() == n {
                    break;
                }
                let home = self.homes[&candidate];
                let distinct_ok = pass == 1 || !used_servers.contains(&home);
                if distinct_ok && !chosen.contains(&candidate) {
                    chosen.push(candidate);
                    used_servers.push(home);
                }
            }
        }
        if chosen.len() < n {
            return Err(JiffyError::OutOfBlocks);
        }
        let mut chain = Vec::with_capacity(n);
        for block in chosen {
            chain.extend(self.location_of(block)?.chain);
        }
        Ok(BlockLocation { chain })
    }

    /// Returns a block to the free pool. If the block's home server is
    /// draining or dead the block is *parked* instead: it stays
    /// unallocatable until the server is removed.
    ///
    /// # Errors
    ///
    /// [`JiffyError::UnknownBlock`] for blocks the cluster never had (or
    /// whose server already departed); [`JiffyError::Internal`] for
    /// double-frees.
    pub fn release(&mut self, block: BlockId) -> Result<()> {
        let home = *self
            .homes
            .get(&block)
            .ok_or(JiffyError::UnknownBlock(block.raw()))?;
        let entry = self
            .servers
            .get(&home)
            .ok_or(JiffyError::UnknownServer(home.raw()))?;
        if self.free.contains(&block) || self.parked.contains(&block) {
            return Err(JiffyError::Internal(format!("double free of {block}")));
        }
        match entry.state {
            ServerState::Alive => self.free.push_back(block),
            ServerState::Draining | ServerState::Dead => {
                self.parked.insert(block);
            }
        }
        Ok(())
    }

    /// Location (single-replica) of any known block.
    ///
    /// # Errors
    ///
    /// [`JiffyError::UnknownBlock`] if the block was never registered
    /// (or its server departed); [`JiffyError::UnknownServer`] if the
    /// membership entry is gone (internal inconsistency).
    pub fn location_of(&self, block: BlockId) -> Result<BlockLocation> {
        let home = self
            .homes
            .get(&block)
            .ok_or(JiffyError::UnknownBlock(block.raw()))?;
        let ep = &self
            .servers
            .get(home)
            .ok_or(JiffyError::UnknownServer(home.raw()))?
            .endpoint;
        Ok(BlockLocation::single(block, ep.server, ep.addr.clone()))
    }

    /// Whether the block is currently unallocated (free or parked).
    pub fn is_free(&self, block: BlockId) -> bool {
        self.free.contains(&block) || self.parked.contains(&block)
    }

    /// Number of allocatable free blocks (excludes parked blocks).
    pub fn free_count(&self) -> usize {
        self.free.len()
    }

    /// Total blocks across all current servers.
    pub fn total_count(&self) -> usize {
        self.homes.len()
    }

    /// The endpoint of one server.
    ///
    /// # Errors
    ///
    /// [`JiffyError::UnknownServer`] for unknown or departed servers.
    pub fn endpoint_of(&self, server: ServerId) -> Result<Endpoint> {
        self.servers
            .get(&server)
            .map(|e| e.endpoint.clone())
            .ok_or(JiffyError::UnknownServer(server.raw()))
    }

    /// The membership state of one server.
    ///
    /// # Errors
    ///
    /// [`JiffyError::UnknownServer`] for unknown or departed servers.
    pub fn state_of(&self, server: ServerId) -> Result<ServerState> {
        self.servers
            .get(&server)
            .map(|e| e.state)
            .ok_or(JiffyError::UnknownServer(server.raw()))
    }

    /// Whether this ID belonged to a server that has left the cluster.
    pub fn is_departed(&self, server: ServerId) -> bool {
        self.departed.contains(&server)
    }

    /// Every block homed on `server`, in registration order.
    ///
    /// # Errors
    ///
    /// [`JiffyError::UnknownServer`] for unknown or departed servers.
    pub fn blocks_on(&self, server: ServerId) -> Result<Vec<BlockId>> {
        let entry = self.servers.get(&server);
        let entry = entry.ok_or(JiffyError::UnknownServer(server.raw()))?;
        Ok(entry.blocks.clone())
    }

    /// Blocks homed on `server` that are currently allocated to a data
    /// structure (i.e. neither free nor parked).
    ///
    /// # Errors
    ///
    /// [`JiffyError::UnknownServer`] for unknown or departed servers.
    pub fn used_blocks_on(&self, server: ServerId) -> Result<Vec<BlockId>> {
        let mut blocks = self.blocks_on(server)?;
        blocks.retain(|b| !self.is_free(*b));
        Ok(blocks)
    }

    /// Marks a server as draining: its free blocks are parked and it
    /// receives no new allocations. Idempotent for already-draining
    /// servers.
    ///
    /// # Errors
    ///
    /// [`JiffyError::UnknownServer`] for unknown or departed servers;
    /// [`JiffyError::Internal`] for dead servers (they cannot drain).
    pub fn mark_draining(&mut self, server: ServerId) -> Result<()> {
        let entry = self
            .servers
            .get_mut(&server)
            .ok_or(JiffyError::UnknownServer(server.raw()))?;
        match entry.state {
            ServerState::Dead => {
                return Err(JiffyError::Internal(format!(
                    "cannot drain dead server {server}"
                )))
            }
            ServerState::Draining => return Ok(()),
            ServerState::Alive => entry.state = ServerState::Draining,
        }
        self.park_free_blocks_of(server);
        Ok(())
    }

    /// Marks a server dead (failure detector), parking its free blocks.
    /// Returns the blocks on it that were allocated to data structures —
    /// the set the controller must re-route or declare lost.
    ///
    /// # Errors
    ///
    /// [`JiffyError::UnknownServer`] for unknown or departed servers.
    pub fn mark_dead(&mut self, server: ServerId) -> Result<Vec<BlockId>> {
        let entry = self
            .servers
            .get_mut(&server)
            .ok_or(JiffyError::UnknownServer(server.raw()))?;
        entry.state = ServerState::Dead;
        self.park_free_blocks_of(server);
        self.used_blocks_on(server)
    }

    /// Removes a fully drained server from the membership table. Its
    /// block IDs disappear from the cluster and its server ID is
    /// tombstoned (never re-issued).
    ///
    /// # Errors
    ///
    /// [`JiffyError::UnknownServer`] for unknown or departed servers;
    /// [`JiffyError::Internal`] if any of its blocks is still allocated.
    pub fn deregister_server(&mut self, server: ServerId) -> Result<Endpoint> {
        let still_used = self.used_blocks_on(server)?;
        if !still_used.is_empty() {
            return Err(JiffyError::Internal(format!(
                "server {server} still hosts {} live blocks",
                still_used.len()
            )));
        }
        #[allow(clippy::expect_used)] // invariant: used_blocks_on checked membership above
        let entry = self
            .servers
            .remove(&server)
            .expect("invariant: membership entry exists, checked above");
        for b in &entry.blocks {
            self.homes.remove(b);
            self.parked.remove(b);
            if let Some(pos) = self.free.iter().position(|x| x == b) {
                self.free.remove(pos);
            }
        }
        self.departed.insert(server);
        Ok(entry.endpoint)
    }

    /// Per-server load snapshot for the autoscaler and `ListServers`.
    pub fn server_loads(&self) -> Vec<ServerLoad> {
        let mut v: Vec<ServerLoad> = self
            .servers
            .iter()
            .map(|(&server, entry)| {
                let free = entry
                    .blocks
                    .iter()
                    .filter(|b| self.free.contains(b) || self.parked.contains(b))
                    .count() as u32;
                ServerLoad {
                    server,
                    state: entry.state,
                    used_blocks: entry.blocks.len() as u32 - free,
                    free_blocks: free,
                }
            })
            .collect();
        v.sort_unstable_by_key(|l| l.server.raw());
        v
    }

    /// Wire-format membership rows (`ListServers`).
    pub fn server_infos(&self) -> Vec<ServerInfo> {
        self.server_loads()
            .iter()
            .map(|l| {
                let addr = self
                    .servers
                    .get(&l.server)
                    .map(|e| e.endpoint.addr.clone())
                    .unwrap_or_default();
                ServerInfo {
                    server: l.server,
                    addr,
                    state: l.state.as_str().to_string(),
                    total_blocks: l.total_blocks(),
                    used_blocks: l.used_blocks,
                    free_blocks: l.free_blocks,
                }
            })
            .collect()
    }

    /// Removes *specific* blocks from the free pool (or from the parked
    /// set), all or none — the one way a block gets allocated: journal
    /// apply re-applies a recorded allocation outcome instead of asking
    /// the allocator to choose (FIFO position is irrelevant to it).
    ///
    /// # Errors
    ///
    /// [`JiffyError::UnknownBlock`] if the cluster never had a block;
    /// [`JiffyError::Internal`] if one is not currently free or is listed
    /// twice. Nothing is claimed then.
    pub fn claim(&mut self, blocks: &[BlockId]) -> Result<()> {
        self.check_claim(blocks)?;
        self.free.retain(|b| !blocks.contains(b));
        for block in blocks {
            self.parked.remove(block);
        }
        Ok(())
    }

    /// Checks that [`Self::claim`] of `blocks` would succeed, without
    /// claiming them.
    ///
    /// # Errors
    ///
    /// As [`Self::claim`].
    pub fn check_claim(&self, blocks: &[BlockId]) -> Result<()> {
        for (i, block) in blocks.iter().enumerate() {
            if !self.homes.contains_key(block) {
                return Err(JiffyError::UnknownBlock(block.raw()));
            }
            if !self.is_free(*block) || blocks[..i].contains(block) {
                return Err(JiffyError::Internal(format!(
                    "claim of non-free block {block}"
                )));
            }
        }
        Ok(())
    }

    /// Installs a server with a *recorded* identity: the exact id,
    /// address and block ids a `ServerJoined` journal record carries
    /// ([`Self::mint_server`] picks them live). All blocks start free
    /// (recorded allocations then [`Self::claim`] them); both id
    /// generators move past the installed ids, so fresh ones never
    /// collide.
    ///
    /// # Errors
    ///
    /// [`JiffyError::Internal`] if the server or one of its blocks is
    /// already known; nothing is installed then.
    pub fn restore_server(
        &mut self,
        server: ServerId,
        addr: impl Into<String>,
        blocks: &[BlockId],
    ) -> Result<()> {
        if self.servers.contains_key(&server) || blocks.iter().any(|b| self.homes.contains_key(b)) {
            return Err(JiffyError::Internal(format!(
                "{server} or one of its blocks joined twice"
            )));
        }
        for &b in blocks {
            self.homes.insert(b, server);
            self.free.push_back(b);
            self.block_ids.bump_to(b.raw() + 1);
        }
        self.servers.insert(
            server,
            ServerEntry {
                endpoint: Endpoint {
                    server,
                    addr: addr.into(),
                },
                state: ServerState::Alive,
                blocks: blocks.to_vec(),
            },
        );
        self.departed.remove(&server);
        self.server_ids.bump_to(server.raw() + 1);
        Ok(())
    }

    /// Serializable checkpoint of the whole table (snapshot mirror).
    /// Deterministic: servers/parked/departed are sorted, the free list
    /// keeps its FIFO order (allocation order must survive recovery).
    pub fn mirror(&self) -> FreeListMirror {
        let mut servers: Vec<ServerMirror> = self
            .servers
            .values()
            .map(|e| ServerMirror {
                server: e.endpoint.server,
                addr: e.endpoint.addr.clone(),
                state: match e.state {
                    ServerState::Alive => 0,
                    ServerState::Draining => 1,
                    ServerState::Dead => 2,
                },
                blocks: e.blocks.clone(),
            })
            .collect();
        servers.sort_by_key(|s| s.server);
        let mut parked: Vec<BlockId> = self.parked.iter().copied().collect();
        parked.sort_unstable();
        let mut departed: Vec<ServerId> = self.departed.iter().copied().collect();
        departed.sort_unstable();
        FreeListMirror {
            servers,
            free: self.free.iter().copied().collect(),
            parked,
            departed,
            next_server_id: self.server_ids.current(),
            next_block_id: self.block_ids.current(),
        }
    }

    /// Rebuilds a table from a checkpoint.
    ///
    /// # Errors
    ///
    /// [`JiffyError::Codec`] on an unknown server-state tag.
    pub fn from_mirror(m: &FreeListMirror) -> Result<Self> {
        let mut fl = Self::new();
        for s in &m.servers {
            let state = match s.state {
                0 => ServerState::Alive,
                1 => ServerState::Draining,
                2 => ServerState::Dead,
                other => {
                    return Err(JiffyError::Codec(format!(
                        "unknown server state tag {other} in freelist mirror"
                    )))
                }
            };
            for &b in &s.blocks {
                fl.homes.insert(b, s.server);
            }
            fl.servers.insert(
                s.server,
                ServerEntry {
                    endpoint: Endpoint {
                        server: s.server,
                        addr: s.addr.clone(),
                    },
                    state,
                    blocks: s.blocks.clone(),
                },
            );
        }
        fl.free = m.free.iter().copied().collect();
        fl.parked = m.parked.iter().copied().collect();
        fl.departed = m.departed.iter().copied().collect();
        fl.server_ids = IdGen::starting_at(m.next_server_id);
        fl.block_ids = IdGen::starting_at(m.next_block_id);
        Ok(fl)
    }

    fn park_free_blocks_of(&mut self, server: ServerId) {
        let block_set: Vec<BlockId> = match self.servers.get(&server) {
            Some(e) => e.blocks.clone(),
            None => return,
        };
        self.free.retain(|b| {
            if block_set.contains(b) {
                self.parked.insert(*b);
                false
            } else {
                true
            }
        });
    }
}

/// Serializable checkpoint of a [`FreeList`] (membership + free pool +
/// id-generator frontiers). Field order is the wire layout; see
/// [`FreeList::mirror`] for the determinism guarantees.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FreeListMirror {
    /// Membership rows, sorted by server id.
    pub servers: Vec<ServerMirror>,
    /// Allocatable blocks in FIFO order.
    pub free: Vec<BlockId>,
    /// Parked blocks, sorted.
    pub parked: Vec<BlockId>,
    /// Tombstoned server ids, sorted.
    pub departed: Vec<ServerId>,
    /// Next server id the generator would issue.
    pub next_server_id: u64,
    /// Next block id the generator would issue.
    pub next_block_id: u64,
}

/// One membership row of a [`FreeListMirror`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServerMirror {
    /// Server id.
    pub server: ServerId,
    /// Transport address.
    pub addr: String,
    /// Membership state: 0 = alive, 1 = draining, 2 = dead.
    pub state: u32,
    /// Blocks homed on this server, in registration order.
    pub blocks: Vec<BlockId>,
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Joins a server the way the controller does: mint, then install.
    fn join(fl: &mut FreeList, addr: &str, blocks: u32) -> (ServerId, Vec<BlockId>) {
        let (server, ids) = fl.mint_server(blocks);
        fl.restore_server(server, addr, &ids).unwrap();
        (server, ids)
    }

    /// Picks and claims one chain of `n`.
    fn allocate(fl: &mut FreeList, n: usize) -> Result<BlockLocation> {
        let loc = fl.pick_chain(n, &[])?;
        let blocks: Vec<BlockId> = loc.chain.iter().map(|r| r.block).collect();
        fl.claim(&blocks)?;
        Ok(loc)
    }

    #[test]
    fn register_allocate_release_cycle() {
        let mut fl = FreeList::new();
        let (s1, blocks) = join(&mut fl, "inproc:0", 4);
        assert_eq!(blocks.len(), 4);
        assert_eq!(fl.free_count(), 4);
        assert_eq!(fl.total_count(), 4);

        let loc = allocate(&mut fl, 1).unwrap();
        assert_eq!(loc.head().server, s1);
        assert_eq!(fl.free_count(), 3);
        assert!(!fl.is_free(loc.id()));

        fl.release(loc.id()).unwrap();
        assert_eq!(fl.free_count(), 4);
    }

    #[test]
    fn exhaustion_yields_out_of_blocks() {
        let mut fl = FreeList::new();
        join(&mut fl, "inproc:0", 2);
        allocate(&mut fl, 1).unwrap();
        allocate(&mut fl, 1).unwrap();
        assert!(matches!(allocate(&mut fl, 1), Err(JiffyError::OutOfBlocks)));
    }

    #[test]
    fn double_free_and_unknown_free_are_rejected() {
        let mut fl = FreeList::new();
        let (_, blocks) = join(&mut fl, "inproc:0", 1);
        assert!(matches!(
            fl.release(BlockId(99)),
            Err(JiffyError::UnknownBlock(99))
        ));
        // blocks[0] is free already.
        assert!(fl.release(blocks[0]).is_err());
    }

    #[test]
    fn block_ids_are_unique_across_servers() {
        let mut fl = FreeList::new();
        let (_, b1) = join(&mut fl, "inproc:0", 3);
        let (_, b2) = join(&mut fl, "inproc:1", 3);
        for b in &b1 {
            assert!(!b2.contains(b));
        }
        assert_eq!(fl.total_count(), 6);
    }

    #[test]
    fn minting_is_read_only_and_strided() {
        let mut fl = FreeList::new();
        fl.set_id_stride(1, 2);
        let (server, blocks) = fl.mint_server(3);
        assert_eq!(
            fl.mint_server(3),
            (server, blocks.clone()),
            "nothing issued"
        );
        assert_eq!(server, ServerId(1));
        assert_eq!(blocks, vec![BlockId(1), BlockId(3), BlockId(5)]);
        fl.restore_server(server, "inproc:0", &blocks).unwrap();
        // The next server stays in the shard's class.
        assert_eq!(fl.mint_server(1), (ServerId(3), vec![BlockId(7)]));
        assert!(fl.restore_server(server, "inproc:0", &[]).is_err());
    }

    #[test]
    fn chains_prefer_distinct_servers() {
        let mut fl = FreeList::new();
        let (s1, _) = join(&mut fl, "inproc:0", 2);
        let (s2, _) = join(&mut fl, "inproc:1", 2);
        let (s3, _) = join(&mut fl, "inproc:2", 2);
        let loc = allocate(&mut fl, 3).unwrap();
        let servers: Vec<ServerId> = loc.chain.iter().map(|r| r.server).collect();
        assert_eq!(servers.len(), 3);
        for s in [s1, s2, s3] {
            assert!(servers.contains(&s), "{s} missing from chain");
        }
        assert_eq!(fl.free_count(), 3);
    }

    #[test]
    fn chains_fall_back_to_shared_servers_when_needed() {
        let mut fl = FreeList::new();
        join(&mut fl, "inproc:0", 3);
        let loc = allocate(&mut fl, 2).unwrap();
        assert_eq!(loc.chain.len(), 2);
        assert_ne!(loc.chain[0].block, loc.chain[1].block);
    }

    #[test]
    fn chain_allocation_is_all_or_nothing() {
        let mut fl = FreeList::new();
        join(&mut fl, "inproc:0", 1);
        assert!(matches!(
            fl.pick_chain(2, &[]),
            Err(JiffyError::OutOfBlocks)
        ));
        assert_eq!(fl.free_count(), 1);
        join(&mut fl, "inproc:1", 2);
        let first = fl.pick_chain(2, &[]).unwrap();
        assert_eq!(fl.pick_chain(2, &[]).unwrap(), first, "nothing allocated");
        // A second chain of the same request skips the first one's
        // blocks, and no third fits.
        let taken: Vec<BlockId> = first.chain.iter().map(|r| r.block).collect();
        let second = fl.pick_chain(1, &taken).unwrap();
        assert!(!taken.contains(&second.id()));
        let all: Vec<BlockId> = taken.iter().copied().chain([second.id()]).collect();
        assert!(matches!(
            fl.pick_chain(1, &all),
            Err(JiffyError::OutOfBlocks)
        ));
    }

    #[test]
    fn allocation_round_robins_across_servers() {
        let mut fl = FreeList::new();
        join(&mut fl, "inproc:0", 2);
        join(&mut fl, "inproc:1", 2);
        // FIFO order: s0, s0, s1, s1 joined in that order; releases go
        // to the back.
        let a = allocate(&mut fl, 1).unwrap();
        fl.release(a.id()).unwrap();
        let b = allocate(&mut fl, 1).unwrap();
        assert_ne!(
            a.id(),
            b.id(),
            "released block goes to the back of the queue"
        );
    }

    #[test]
    fn location_of_unknown_block_errors_instead_of_panicking() {
        let fl = FreeList::new();
        assert!(matches!(
            fl.location_of(BlockId(7)),
            Err(JiffyError::UnknownBlock(7))
        ));
    }

    #[test]
    fn draining_parks_free_blocks_and_blocks_allocation() {
        let mut fl = FreeList::new();
        let (s1, _) = join(&mut fl, "inproc:0", 2);
        let (s2, _) = join(&mut fl, "inproc:1", 2);
        let loc = allocate(&mut fl, 1).unwrap(); // lands on s1 (FIFO)
        assert_eq!(loc.head().server, s1);
        fl.mark_draining(s1).unwrap();
        assert_eq!(fl.state_of(s1).unwrap(), ServerState::Draining);
        // Only s2's blocks remain allocatable.
        assert_eq!(fl.free_count(), 2);
        for _ in 0..2 {
            assert_eq!(allocate(&mut fl, 1).unwrap().head().server, s2);
        }
        // Releasing s1's used block parks it rather than freeing it.
        fl.release(loc.id()).unwrap();
        assert_eq!(fl.free_count(), 0);
        assert!(fl.is_free(loc.id()));
        assert_eq!(fl.used_blocks_on(s1).unwrap().len(), 0);
    }

    #[test]
    fn dead_server_reports_its_live_blocks() {
        let mut fl = FreeList::new();
        let (s1, _) = join(&mut fl, "inproc:0", 3);
        let a = allocate(&mut fl, 1).unwrap();
        let b = allocate(&mut fl, 1).unwrap();
        let live = fl.mark_dead(s1).unwrap();
        assert_eq!(live.len(), 2);
        assert!(live.contains(&a.id()) && live.contains(&b.id()));
        assert_eq!(fl.free_count(), 0);
        // A dead server still resolves (clients get its dead address and
        // a clean transport error), but allocation never touches it.
        assert!(fl.location_of(a.id()).is_ok());
        assert!(matches!(allocate(&mut fl, 1), Err(JiffyError::OutOfBlocks)));
    }

    #[test]
    fn deregister_requires_empty_server_and_tombstones_the_id() {
        let mut fl = FreeList::new();
        let (s1, _) = join(&mut fl, "inproc:0", 2);
        let loc = allocate(&mut fl, 1).unwrap();
        fl.mark_draining(s1).unwrap();
        // Still hosting a live block: refuse.
        assert!(fl.deregister_server(s1).is_err());
        fl.release(loc.id()).unwrap();
        let ep = fl.deregister_server(s1).unwrap();
        assert_eq!(ep.server, s1);
        assert!(fl.is_departed(s1));
        assert_eq!(fl.total_count(), 0);
        assert!(matches!(
            fl.location_of(loc.id()),
            Err(JiffyError::UnknownBlock(_))
        ));
        // The departed ID is never re-issued.
        let (s2, _) = join(&mut fl, "inproc:1", 1);
        assert_ne!(s1, s2);
        assert!(s2.raw() > s1.raw());
    }

    #[test]
    fn server_loads_reflect_states_and_occupancy() {
        let mut fl = FreeList::new();
        let (s1, _) = join(&mut fl, "inproc:0", 2);
        let (s2, _) = join(&mut fl, "inproc:1", 2);
        allocate(&mut fl, 1).unwrap();
        fl.mark_draining(s2).unwrap();
        let loads = fl.server_loads();
        assert_eq!(loads.len(), 2);
        assert_eq!(loads[0].server, s1);
        assert_eq!(loads[0].used_blocks, 1);
        assert_eq!(loads[0].free_blocks, 1);
        assert_eq!(loads[1].state, ServerState::Draining);
        assert_eq!(loads[1].free_blocks, 2);
        let infos = fl.server_infos();
        assert_eq!(infos[1].state, "draining");
    }

    #[test]
    fn claim_removes_a_specific_block_and_rejects_allocated_ones() {
        let mut fl = FreeList::new();
        let (_, blocks) = join(&mut fl, "inproc:0", 3);
        fl.claim(&[blocks[1]]).unwrap();
        assert_eq!(fl.free_count(), 2);
        assert!(!fl.is_free(blocks[1]));
        // FIFO order of the remaining blocks is preserved.
        assert_eq!(allocate(&mut fl, 1).unwrap().id(), blocks[0]);
        // One bad block (allocated, unknown or repeated) claims nothing.
        for bad in [
            vec![blocks[2], blocks[0]],
            vec![blocks[2], BlockId(99)],
            vec![blocks[2], blocks[2]],
        ] {
            assert!(fl.claim(&bad).is_err(), "{bad:?}");
            assert!(fl.is_free(blocks[2]));
        }
        assert!(matches!(
            fl.claim(&[BlockId(99)]),
            Err(JiffyError::UnknownBlock(99))
        ));
    }

    #[test]
    fn restore_server_reinstates_identity_and_bumps_generators() {
        let mut fl = FreeList::new();
        fl.restore_server(ServerId(5), "inproc:9", &[BlockId(10), BlockId(11)])
            .unwrap();
        assert_eq!(fl.free_count(), 2);
        assert_eq!(fl.endpoint_of(ServerId(5)).unwrap().addr, "inproc:9");
        // Fresh ids never collide with restored ones.
        let (s, blocks) = join(&mut fl, "inproc:1", 1);
        assert!(s.raw() > 5);
        assert!(blocks[0].raw() > 11);
    }

    #[test]
    fn mirror_round_trips_the_whole_table() {
        let mut fl = FreeList::new();
        let (_s1, _) = join(&mut fl, "inproc:0", 3);
        let (s2, _) = join(&mut fl, "inproc:1", 2);
        let a = allocate(&mut fl, 1).unwrap();
        allocate(&mut fl, 1).unwrap();
        fl.release(a.id()).unwrap(); // goes to the back of the queue
        fl.mark_draining(s2).unwrap();
        let m = fl.mirror();
        let back = FreeList::from_mirror(&m).unwrap();
        assert_eq!(back.mirror(), m);
        assert_eq!(back.free_count(), fl.free_count());
        assert_eq!(back.state_of(s2).unwrap(), ServerState::Draining);
        // Allocation order survives the round trip.
        assert_eq!(
            fl.pick_chain(1, &[]).unwrap(),
            back.pick_chain(1, &[]).unwrap()
        );
    }
}
