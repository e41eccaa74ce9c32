//! Fat-tree topology construction and routing arithmetic.
//!
//! The fabric is a 2-ary n-tree ("full fat-tree") built from 4×4 Arctic
//! routers: each router has 2 down-ports and 2 up-ports. For `N = 2^n`
//! endpoints there are `n` router levels with `N/2` routers per level.
//!
//! Addressing: a router is `(level l, word w)` where `w` has `n-1` bits.
//! * Leaf router `(0, w)` connects endpoints `2w` and `2w+1` on its
//!   down-ports.
//! * Router `(l, u)` and router `(l+1, v)` are linked iff `u` and `v` agree
//!   on every bit except possibly bit `l`.
//!
//! Routing from endpoint `s` to endpoint `d`:
//! * ascend `m` levels, where `m` is the smallest value with
//!   `s >> (m+1) == d >> (m+1)` (nearest-common-ancestor height); the choice
//!   of up-port at each level is free (path diversity);
//! * descend choosing down-port `(d >> l) & 1` when leaving level `l`.
//!
//! The worst-case path for `N = 16` visits `2·3 + 1 = 7` router stages.

/// Identifies a router within the fat-tree.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub struct RouterAddr {
    pub level: u8,
    pub word: u16,
}

/// Where a down-port leads.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DownTarget {
    Endpoint(u16),
    Router(RouterAddr),
}

/// Static description of a 2-ary n-tree.
#[derive(Clone, Debug)]
pub struct FatTree {
    n_endpoints: u16,
    levels: u8,
}

impl FatTree {
    /// Build the description for `n_endpoints` (a power of two, >= 2).
    pub fn new(n_endpoints: u16) -> Self {
        assert!(
            n_endpoints.is_power_of_two() && n_endpoints >= 2,
            "fat-tree needs a power-of-two endpoint count >= 2, got {n_endpoints}"
        );
        let levels = n_endpoints.trailing_zeros() as u8;
        FatTree {
            n_endpoints,
            levels,
        }
    }

    pub fn n_endpoints(&self) -> u16 {
        self.n_endpoints
    }

    /// Number of router levels (`n` for `2^n` endpoints).
    pub fn levels(&self) -> u8 {
        self.levels
    }

    /// Routers per level (`N/2`).
    pub fn routers_per_level(&self) -> u16 {
        self.n_endpoints / 2
    }

    /// Total router count.
    pub fn total_routers(&self) -> usize {
        self.levels as usize * self.routers_per_level() as usize
    }

    /// All router addresses, level-major.
    pub fn routers(&self) -> impl Iterator<Item = RouterAddr> + '_ {
        (0..self.levels).flat_map(move |level| {
            (0..self.routers_per_level()).map(move |word| RouterAddr { level, word })
        })
    }

    /// The leaf router an endpoint attaches to, and the down-port it uses.
    pub fn leaf_of(&self, endpoint: u16) -> (RouterAddr, u8) {
        assert!(endpoint < self.n_endpoints);
        (
            RouterAddr {
                level: 0,
                word: endpoint >> 1,
            },
            (endpoint & 1) as u8,
        )
    }

    /// The router reached from `r` through up-port `p`.
    pub fn up_neighbor(&self, r: RouterAddr, p: u8) -> RouterAddr {
        assert!(r.level + 1 < self.levels, "no up links at the top level");
        assert!(p < 2);
        let bit = 1u16 << r.level;
        let word = (r.word & !bit) | (u16::from(p) << r.level);
        RouterAddr {
            level: r.level + 1,
            word,
        }
    }

    /// What router `r`'s down-port `b` connects to.
    pub fn down_neighbor(&self, r: RouterAddr, b: u8) -> DownTarget {
        assert!(b < 2);
        if r.level == 0 {
            DownTarget::Endpoint(r.word << 1 | u16::from(b))
        } else {
            let bit = 1u16 << (r.level - 1);
            let word = (r.word & !bit) | (u16::from(b) << (r.level - 1));
            DownTarget::Router(RouterAddr {
                level: r.level - 1,
                word,
            })
        }
    }

    /// Number of up-hops needed to route from `s` to `d` (the
    /// nearest-common-ancestor height above the leaf level).
    pub fn up_hops(&self, s: u16, d: u16) -> u8 {
        assert!(s < self.n_endpoints && d < self.n_endpoints);
        let x = (s ^ d) >> 1;
        (16 - x.leading_zeros()) as u8
    }

    /// Down-port taken when leaving a router at `level` while descending
    /// towards endpoint `d`.
    pub fn down_port(&self, level: u8, d: u16) -> u8 {
        ((d >> level) & 1) as u8
    }

    /// Total router stages a packet from `s` to `d` passes through.
    pub fn path_stages(&self, s: u16, d: u16) -> u8 {
        2 * self.up_hops(s, d) + 1
    }

    /// Verify the nearest-common-ancestor property used by `up_hops`.
    pub fn ancestors_agree(&self, s: u16, d: u16) -> bool {
        let m = self.up_hops(s, d);
        (s >> (m + 1)) == (d >> (m + 1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sixteen_endpoint_tree_shape() {
        let t = FatTree::new(16);
        assert_eq!(t.levels(), 4);
        assert_eq!(t.routers_per_level(), 8);
        assert_eq!(t.total_routers(), 32);
        assert_eq!(t.routers().count(), 32);
    }

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn rejects_non_power_of_two() {
        FatTree::new(12);
    }

    #[test]
    fn leaf_attachment() {
        let t = FatTree::new(16);
        assert_eq!(t.leaf_of(0), (RouterAddr { level: 0, word: 0 }, 0));
        assert_eq!(t.leaf_of(1), (RouterAddr { level: 0, word: 0 }, 1));
        assert_eq!(t.leaf_of(15), (RouterAddr { level: 0, word: 7 }, 1));
    }

    #[test]
    fn up_down_links_are_symmetric() {
        let t = FatTree::new(16);
        for r in t.routers() {
            if r.level + 1 < t.levels() {
                for p in 0..2u8 {
                    let up = t.up_neighbor(r, p);
                    // Exactly one down-port of `up` leads back to `r`.
                    let back: Vec<u8> = (0..2)
                        .filter(|&b| t.down_neighbor(up, b) == DownTarget::Router(r))
                        .collect();
                    assert_eq!(back.len(), 1, "asymmetric link {r:?} <-> {up:?}");
                }
            }
        }
    }

    #[test]
    fn up_hops_examples() {
        let t = FatTree::new(16);
        assert_eq!(t.up_hops(0, 0), 0);
        assert_eq!(t.up_hops(0, 1), 0); // same leaf
        assert_eq!(t.up_hops(0, 2), 1);
        assert_eq!(t.up_hops(0, 3), 1);
        assert_eq!(t.up_hops(0, 4), 2);
        assert_eq!(t.up_hops(0, 8), 3);
        assert_eq!(t.up_hops(0, 15), 3);
        assert_eq!(t.path_stages(0, 15), 7);
        assert_eq!(t.path_stages(0, 1), 1);
    }

    #[test]
    fn nca_property_holds_everywhere() {
        let t = FatTree::new(16);
        for s in 0..16 {
            for d in 0..16 {
                assert!(t.ancestors_agree(s, d), "NCA violated for {s}->{d}");
            }
        }
    }

    #[test]
    fn routing_descends_to_destination() {
        // Walk the topology for every (s, d, uproute) choice and check the
        // down phase lands on d.
        let t = FatTree::new(16);
        for s in 0..16u16 {
            for d in 0..16u16 {
                for up_bits in 0..8u16 {
                    let m = t.up_hops(s, d);
                    let (mut r, _) = t.leaf_of(s);
                    // Ascend with arbitrary port choices.
                    for l in 0..m {
                        let p = ((up_bits >> l) & 1) as u8;
                        r = t.up_neighbor(r, p);
                    }
                    // Descend following d's bits.
                    loop {
                        let b = t.down_port(r.level, d);
                        match t.down_neighbor(r, b) {
                            DownTarget::Router(next) => r = next,
                            DownTarget::Endpoint(e) => {
                                assert_eq!(e, d, "s={s} d={d} up_bits={up_bits}");
                                break;
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn two_endpoint_degenerate_tree() {
        let t = FatTree::new(2);
        assert_eq!(t.levels(), 1);
        assert_eq!(t.total_routers(), 1);
        assert_eq!(t.up_hops(0, 1), 0);
        assert_eq!(t.path_stages(0, 1), 1);
    }
}
