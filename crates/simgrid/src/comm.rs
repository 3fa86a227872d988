//! Communicators: ordered subsets of world ranks with a private message
//! context, mirroring `MPI_Comm`.

use std::sync::Arc;

/// A communicator: an ordered list of world ranks plus a context id that
/// isolates its messages from every other communicator's.
///
/// Created by [`crate::Rank::world`] and [`crate::Rank::subset`]. Cheap to
/// clone (the member list is shared).
#[derive(Clone, Debug)]
pub struct Comm {
    /// Context id: tags are namespaced by this so identical user tags on
    /// different communicators never match each other.
    pub(crate) ctx: u64,
    /// World ranks of the members, in local-rank order.
    pub(crate) members: Arc<Vec<usize>>,
    /// The owning rank's position in `members`.
    pub(crate) my_local: usize,
}

impl Comm {
    /// Number of ranks in this communicator.
    #[inline]
    pub fn size(&self) -> usize {
        self.members.len()
    }

    /// The calling rank's local rank within this communicator.
    #[inline]
    pub fn local_rank(&self) -> usize {
        self.my_local
    }

    /// World rank of local rank `local`.
    #[inline]
    pub fn world_rank_of(&self, local: usize) -> usize {
        self.members[local]
    }
}
