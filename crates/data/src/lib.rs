//! # friends-data
//!
//! Social-tagging data substrate: the user–item–tag store, Zipf samplers,
//! homophilous synthetic workload generators and the three dataset presets
//! (Delicious-like, Flickr-like, CiteULike-like) used throughout the
//! evaluation, plus query-workload generation.
//!
//! The real crawls evaluated by the paper family are proprietary; per the
//! substitution rule these generators reproduce the *distributional shape*
//! the algorithms are sensitive to (degree skew, tag skew, homophily) with
//! every axis exposed as a parameter. See `DESIGN.md` §3.
//!
//! ```
//! use friends_data::datasets::{DatasetSpec, Scale};
//!
//! let ds = DatasetSpec::delicious_like(Scale::Tiny).build(7);
//! assert!(ds.store.num_taggings() > 0);
//! assert_eq!(ds.graph.num_nodes() as u32, ds.store.num_users());
//! ```

#![forbid(unsafe_code)]

pub mod crc;
pub mod datasets;
pub mod generator;
pub mod ids;
pub mod io;
pub mod mutations;
pub mod queries;
pub mod requests;
pub mod store;
pub mod wal;
pub mod zipf;

/// User identifier (also a graph [`friends_graph::NodeId`]).
pub type UserId = u32;

/// Item (document/photo/paper/URL) identifier.
pub type ItemId = u32;

/// Tag identifier.
pub type TagId = u32;

/// A single social annotation: `user` tagged `item` with `tag`, with an
/// application-level weight (rating, confidence, frequency).
#[derive(Clone, Copy, Debug, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Tagging {
    pub user: UserId,
    pub item: ItemId,
    pub tag: TagId,
    pub weight: f32,
}

impl Tagging {
    /// Convenience constructor with weight 1.0.
    pub fn unit(user: UserId, item: ItemId, tag: TagId) -> Self {
        Tagging {
            user,
            item,
            tag,
            weight: 1.0,
        }
    }
}
