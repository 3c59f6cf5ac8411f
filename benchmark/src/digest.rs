//! FNV-1a (64-bit) over the generated inputs. The digest pins a workload: a
//! later change to a generator in `friends_graph` / `friends_data` moves it,
//! and the run for the default seed fails instead of silently measuring a
//! different workload.

use friends_data::mutations::{Mutation, MutationBatch};
use friends_data::queries::Query;
use friends_data::store::TagStore;
use friends_graph::CsrGraph;

const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const PRIME: u64 = 0x0000_0100_0000_01b3;

/// Streaming FNV-1a state. Multi-byte values are fed little-endian, so the
/// digest does not depend on the host.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(OFFSET)
    }
}

impl Fnv {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(PRIME);
        }
    }

    pub fn u32(&mut self, v: u32) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn f32(&mut self, v: f32) {
        self.u32(v.to_bits());
    }

    pub fn finish(self) -> u64 {
        self.0
    }

    pub fn graph(&mut self, g: &CsrGraph) {
        self.u64(g.num_nodes() as u64);
        for (u, v, w) in g.undirected_edges() {
            self.u32(u);
            self.u32(v);
            self.f32(w);
        }
    }

    pub fn store(&mut self, s: &TagStore) {
        self.u32(s.num_items());
        self.u32(s.num_tags());
        for t in s.iter() {
            self.u32(t.user);
            self.u32(t.item);
            self.u32(t.tag);
            self.f32(t.weight);
        }
    }

    pub fn queries(&mut self, queries: &[Query]) {
        self.u64(queries.len() as u64);
        for q in queries {
            self.u32(q.seeker);
            self.u64(q.k as u64);
            self.u64(q.tags.len() as u64);
            for &t in &q.tags {
                self.u32(t);
            }
        }
    }

    pub fn batches(&mut self, batches: &[MutationBatch]) {
        self.u64(batches.len() as u64);
        for b in batches {
            self.u64(b.len() as u64);
            for m in &b.mutations {
                match *m {
                    Mutation::InsertEdge { u, v, weight } => {
                        self.bytes(&[1]);
                        self.u32(u);
                        self.u32(v);
                        self.f32(weight);
                    }
                    Mutation::RemoveEdge { u, v } => {
                        self.bytes(&[2]);
                        self.u32(u);
                        self.u32(v);
                    }
                    Mutation::AddTagging(t) => {
                        self.bytes(&[3]);
                        self.u32(t.user);
                        self.u32(t.item);
                        self.u32(t.tag);
                        self.f32(t.weight);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_known_answers() {
        // Reference vectors of 64-bit FNV-1a.
        let mut h = Fnv::default();
        assert_eq!(h.finish(), 0xcbf2_9ce4_8422_2325);
        h.bytes(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
        let mut h = Fnv::default();
        h.bytes(b"foobar");
        assert_eq!(h.finish(), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn digest_is_order_and_value_sensitive() {
        let q = |seeker, tags: &[u32]| Query {
            seeker,
            tags: tags.to_vec(),
            k: 10,
        };
        let digest = |qs: &[Query]| {
            let mut h = Fnv::default();
            h.queries(qs);
            h.finish()
        };
        let a = digest(&[q(1, &[2, 3]), q(4, &[5])]);
        assert_eq!(a, digest(&[q(1, &[2, 3]), q(4, &[5])]));
        assert_ne!(a, digest(&[q(4, &[5]), q(1, &[2, 3])]));
        assert_ne!(a, digest(&[q(1, &[2]), q(4, &[3, 5])]));
    }
}
