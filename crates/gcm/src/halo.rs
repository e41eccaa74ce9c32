//! Halo exchange: the `exchange` primitive applied to tile fields (§4).
//!
//! Brings halo regions into a consistent state through the
//! [`CommWorld`] interface. The exchange is two-phase — longitude first,
//! then latitude including the freshly-filled x-halo corners — so corner
//! cells end up correct. Longitude is periodic; latitude ends in walls
//! (missing neighbors): wall halos are zeroed and the kernels' wet masks
//! keep them inert.
//!
//! Message layout: `[placement_code, v0, v1, …]` with values in
//! `(field, level, row, column)` order. The placement code tells the
//! receiver which halo the data fills, which disambiguates self-wrap
//! messages on single-tile-wide decompositions.

use crate::decomp::Decomp;
use crate::field::Field3;
use crate::tile::Tile;
use hyades_comms::CommWorld;
use std::ops::Range;

/// Placement codes carried in the first message element.
const PLACE_EAST: f64 = 0.0;
const PLACE_WEST: f64 = 1.0;
const PLACE_NORTH: f64 = 2.0;
const PLACE_SOUTH: f64 = 3.0;

/// Hand `each` every row of the block `is × js`, in message order:
/// field, level, row.
fn each_row(
    fields: &mut [&mut Field3],
    is: &Range<i64>,
    js: &Range<i64>,
    mut each: impl FnMut(&mut [f64]),
) {
    for f in fields.iter_mut() {
        for k in 0..f.nz() {
            f.block_mut(k, is.clone(), js.clone()).for_each(&mut each);
        }
    }
}

/// Words the block `is × js` of every level of `fields` packs to.
fn block_words(fields: &[&mut Field3], is: &Range<i64>, js: &Range<i64>) -> usize {
    let cells = ((is.end - is.start) * (js.end - js.start)).max(0) as usize;
    fields.iter().map(|f| f.nz() * cells).sum()
}

fn pack(fields: &mut [&mut Field3], code: f64, is: Range<i64>, js: Range<i64>) -> Vec<f64> {
    let mut out = Vec::with_capacity(1 + block_words(fields, &is, &js));
    out.push(code);
    each_row(fields, &is, &js, |row| out.extend_from_slice(row));
    out
}

fn unpack(fields: &mut [&mut Field3], data: &[f64], is: Range<i64>, js: Range<i64>) {
    // Validate the payload size once up front; the fill loop below can
    // then consume infallibly.
    let expected = 1 + block_words(fields, &is, &js);
    assert_eq!(
        data.len(),
        expected,
        "halo message truncated or padded: {} words, expected {expected}",
        data.len()
    );
    let mut rest = &data[1..];
    each_row(fields, &is, &js, |row| {
        let (src, tail) = rest.split_at(row.len());
        row.copy_from_slice(src);
        rest = tail;
    });
}

fn zero_halo(fields: &mut [&mut Field3], is: Range<i64>, js: Range<i64>) {
    each_row(fields, &is, &js, |row| row.fill(0.0));
}

/// Exchange `width` halo rings of every level of every field (all fields
/// must share the tile's halo width ≥ `width`): the five 3-D state fields
/// at width 3, CG's one-level fields at width 1.
pub fn exchange3(
    world: &mut dyn CommWorld,
    decomp: &Decomp,
    tile: &Tile,
    fields: &mut [&mut Field3],
    width: usize,
) {
    assert!(width >= 1);
    for f in fields.iter() {
        assert!(
            f.halo() >= width,
            "field halo {} narrower than exchange width {width}",
            f.halo()
        );
    }
    let w = width as i64;
    let nx = tile.nx as i64;
    let ny = tile.ny as i64;

    // Phase 1: longitude (periodic, always two neighbors — possibly self).
    let west = decomp.west(tile.rank);
    let east = decomp.east(tile.rank);
    let to_west = pack(fields, PLACE_EAST, 0..w, 0..ny);
    let to_east = pack(fields, PLACE_WEST, nx - w..nx, 0..ny);
    let incoming = world.exchange(vec![(west, to_west), (east, to_east)]);
    for (_nbr, data) in incoming {
        let code = data[0];
        if code == PLACE_EAST {
            unpack(fields, &data, nx..nx + w, 0..ny);
        } else if code == PLACE_WEST {
            unpack(fields, &data, -w..0, 0..ny);
        } else {
            panic!("unexpected placement code {code} in x phase");
        }
    }

    // Phase 2: latitude, including the x halos so corners are filled.
    let mut sends = Vec::new();
    if let Some(south) = decomp.south(tile.rank) {
        sends.push((south, pack(fields, PLACE_NORTH, -w..nx + w, 0..w)));
    } else {
        zero_halo(fields, -w..nx + w, -w..0);
    }
    if let Some(north) = decomp.north(tile.rank) {
        sends.push((north, pack(fields, PLACE_SOUTH, -w..nx + w, ny - w..ny)));
    } else {
        zero_halo(fields, -w..nx + w, ny..ny + w);
    }
    let incoming = world.exchange(sends);
    for (_nbr, data) in incoming {
        let code = data[0];
        if code == PLACE_NORTH {
            unpack(fields, &data, -w..nx + w, ny..ny + w);
        } else if code == PLACE_SOUTH {
            unpack(fields, &data, -w..nx + w, -w..0);
        } else {
            panic!("unexpected placement code {code} in y phase");
        }
    }
}

/// Bytes of one x-direction and one y-direction leg of a `width`-wide
/// exchange of one `levels`-deep field — what `core::tour` prices the
/// analytical model's `texch` with.
pub fn exchange_leg_bytes(tile: &Tile, levels: usize, width: usize) -> (u64, u64) {
    // x legs carry (width × ny) columns, y legs (width × (nx + 2w)).
    let x = (width * tile.ny * levels * 8) as u64;
    let y = (width * (tile.nx + 2 * width) * levels * 8) as u64;
    (x, y)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyades_comms::{SerialWorld, ThreadWorld};

    /// Fill a tile field with a globally-defined function so halo
    /// correctness can be verified against the analytic value.
    fn fill_global(f: &mut Field3, tile: &Tile, g: impl Fn(i64, i64, usize) -> f64) {
        for k in 0..f.nz() {
            for j in 0..tile.ny as i64 {
                for i in 0..tile.nx as i64 {
                    f.set(i, j, k, g(tile.gx(i), tile.gy(j), k));
                }
            }
        }
    }

    fn global_fn(nx_global: i64) -> impl Fn(i64, i64, usize) -> f64 {
        move |gi, gj, k| {
            let gi = gi.rem_euclid(nx_global);
            (gi * 1000 + gj * 10 + k as i64) as f64
        }
    }

    fn pack_reference(
        fields: &[&mut Field3],
        code: f64,
        is: Range<i64>,
        js: Range<i64>,
    ) -> Vec<f64> {
        let mut out = vec![code];
        for f in fields {
            for k in 0..f.nz() {
                for j in js.clone() {
                    for i in is.clone() {
                        out.push(f.at(i, j, k));
                    }
                }
            }
        }
        out
    }

    fn unpack_reference(fields: &mut [&mut Field3], data: &[f64], is: Range<i64>, js: Range<i64>) {
        let mut it = data.iter().skip(1).copied();
        for f in fields.iter_mut() {
            for k in 0..f.nz() {
                for j in js.clone() {
                    for i in is.clone() {
                        f.set(i, j, k, it.next().expect("message as long as the block"));
                    }
                }
            }
        }
    }

    /// Every block `exchange3` sends or fills, for widths 1–3 on an
    /// `nx × ny` tile: slice pack gives the reference's message word for
    /// word, and slice unpack scatters it to the same cells.
    fn check_against_reference(levels: usize) {
        let (nx, ny) = (5i64, 4i64);
        for n_fields in [1usize, 3] {
            for w in 1..=3i64 {
                let mut owned: Vec<Field3> = (0..n_fields)
                    .map(|_| Field3::new(5, 4, levels, 3))
                    .collect();
                for (n, f) in owned.iter_mut().enumerate() {
                    for (m, v) in f.raw_mut().iter_mut().enumerate() {
                        *v = (1000 * (n + 1) + m) as f64;
                    }
                }
                let blocks = [
                    (0..w, 0..ny),
                    (nx - w..nx, 0..ny),
                    (nx..nx + w, 0..ny),
                    (-w..0, 0..ny),
                    (-w..nx + w, 0..w),
                    (-w..nx + w, ny - w..ny),
                    (-w..nx + w, ny..ny + w),
                    (-w..nx + w, -w..0),
                ];
                for (is, js) in blocks {
                    let mut fields: Vec<&mut Field3> = owned.iter_mut().collect();
                    let message = pack(&mut fields, 7.0, is.clone(), js.clone());
                    assert_eq!(
                        message,
                        pack_reference(&fields, 7.0, is.clone(), js.clone()),
                        "pack {is:?} x {js:?}, {n_fields} field(s)"
                    );

                    // Scatter the message, reversed so every cell
                    // changes, into two copies of the fields.
                    let mut data = message;
                    data[1..].reverse();
                    let (mut a, mut b) = (owned.clone(), owned.clone());
                    unpack(
                        &mut a.iter_mut().collect::<Vec<_>>(),
                        &data,
                        is.clone(),
                        js.clone(),
                    );
                    unpack_reference(
                        &mut b.iter_mut().collect::<Vec<_>>(),
                        &data,
                        is.clone(),
                        js.clone(),
                    );
                    assert_eq!(a, b, "unpack {is:?} x {js:?}, {n_fields} field(s)");
                    assert_ne!(a, owned);
                }
            }
        }
    }

    #[test]
    fn slice_pack_and_unpack_match_the_word_at_a_time_reference() {
        check_against_reference(1);
        check_against_reference(3);
    }

    #[test]
    #[should_panic(expected = "truncated or padded")]
    fn truncated_message_is_refused() {
        let (mut a, mut b) = (Field3::new(5, 4, 2, 3), Field3::new(5, 4, 2, 3));
        let mut message = pack(&mut [&mut a, &mut b], PLACE_EAST, 0..2, 0..4);
        message.pop();
        unpack(&mut [&mut a, &mut b], &message, 5..7, 0..4);
    }

    #[test]
    fn serial_single_tile_periodic_wrap() {
        let d = Decomp::blocks(16, 8, 1, 1, 2);
        let t = d.tile(0);
        let mut f = Field3::new(16, 8, 3, 2);
        let g = global_fn(16);
        fill_global(&mut f, &t, &g);
        let mut w = SerialWorld;
        exchange3(&mut w, &d, &t, &mut [&mut f], 2);
        // West halo should hold the east edge (periodic x).
        for k in 0..3 {
            for j in 0..8i64 {
                assert_eq!(f.at(-1, j, k), g(15, j, k));
                assert_eq!(f.at(-2, j, k), g(14, j, k));
                assert_eq!(f.at(16, j, k), g(0, j, k));
                assert_eq!(f.at(17, j, k), g(1, j, k));
            }
        }
        // Wall halos zeroed.
        for i in -2..18i64 {
            assert_eq!(f.at(i, -1, 0), 0.0);
            assert_eq!(f.at(i, 8, 0), 0.0);
        }
    }

    #[test]
    fn threaded_block_decomp_fills_halos_and_corners() {
        let d = Decomp::blocks(16, 8, 4, 2, 2);
        let g = global_fn(16);
        let results = ThreadWorld::run(d.n_ranks(), |world| {
            let t = d.tile(world.rank());
            let mut f = Field3::new(t.nx, t.ny, 2, 2);
            fill_global(&mut f, &t, &g);
            exchange3(world, &d, &t, &mut [&mut f], 2);
            // Verify every halo cell that corresponds to a real global
            // cell matches the analytic function; wall halos are zero.
            let mut errs = 0;
            for k in 0..2 {
                for j in -2..(t.ny as i64 + 2) {
                    for i in -2..(t.nx as i64 + 2) {
                        let gj = t.gy(j);
                        let expect = if !(0..8).contains(&gj) {
                            0.0
                        } else {
                            g(t.gx(i), gj, k)
                        };
                        if (f.at(i, j, k) - expect).abs() > 0.0 {
                            errs += 1;
                        }
                    }
                }
            }
            errs
        });
        assert!(
            results.iter().all(|&e| e == 0),
            "halo mismatches: {results:?}"
        );
    }

    #[test]
    fn multi_field_exchange_keeps_fields_separate() {
        let d = Decomp::blocks(8, 4, 2, 1, 1);
        let results = ThreadWorld::run(2, |world| {
            let t = d.tile(world.rank());
            let mut a = Field3::new(t.nx, t.ny, 1, 1);
            let mut b = Field3::new(t.nx, t.ny, 1, 1);
            for j in 0..t.ny as i64 {
                for i in 0..t.nx as i64 {
                    a.set(i, j, 0, t.gx(i) as f64);
                    b.set(i, j, 0, 100.0 + t.gx(i) as f64);
                }
            }
            exchange3(world, &d, &t, &mut [&mut a, &mut b], 1);
            // East halo of tile 0 = west edge of tile 1 (gx=4).
            (a.at(4, 0, 0), b.at(4, 0, 0))
        });
        let other_gx = [4.0, 0.0];
        for (r, &(ea, eb)) in results.iter().enumerate() {
            assert_eq!(ea, other_gx[r]);
            assert_eq!(eb, 100.0 + other_gx[r]);
        }
    }

    #[test]
    fn width_one_exchange_on_wide_halo() {
        // DS exchanges a width-1 ring of fields that carry a width-3 halo.
        let d = Decomp::blocks(8, 8, 2, 2, 3);
        let results = ThreadWorld::run(4, |world| {
            let t = d.tile(world.rank());
            let mut f = Field3::new(t.nx, t.ny, 1, 3);
            for j in 0..t.ny as i64 {
                for i in 0..t.nx as i64 {
                    f.set(i, j, 0, (t.gx(i) * 100 + t.gy(j)) as f64);
                }
            }
            exchange3(world, &d, &t, &mut [&mut f], 1);
            // Only the innermost ring needs to be correct.
            f.at(t.nx as i64, 0, 0) == ((t.gx(t.nx as i64).rem_euclid(8)) * 100 + t.gy(0)) as f64
        });
        assert!(results.iter().all(|&ok| ok));
    }

    #[test]
    fn leg_byte_accounting() {
        let t = Tile {
            rank: 0,
            tx: 0,
            ty: 0,
            gx0: 0,
            gy0: 0,
            nx: 32,
            ny: 32,
            halo: 3,
        };
        let (x, y) = exchange_leg_bytes(&t, 1, 1);
        assert_eq!(x, 32 * 8);
        assert_eq!(y, 34 * 8);
        let (x3, _) = exchange_leg_bytes(&t, 5, 3);
        assert_eq!(x3, 3 * 32 * 5 * 8);
    }

    /// Passes every message on to the rank's `ThreadWorld` and keeps each
    /// one's placement code and payload bytes (placement word excluded).
    struct Legs<'a> {
        world: &'a mut ThreadWorld,
        sent: Vec<(f64, u64)>,
    }

    impl CommWorld for Legs<'_> {
        fn rank(&self) -> usize {
            self.world.rank()
        }
        fn size(&self) -> usize {
            self.world.size()
        }
        fn exchange(&mut self, outgoing: Vec<(usize, Vec<f64>)>) -> Vec<(usize, Vec<f64>)> {
            let legs = outgoing
                .iter()
                .map(|(_, m)| (m[0], 8 * (m.len() - 1) as u64));
            self.sent.extend(legs);
            self.world.exchange(outgoing)
        }
        fn global_sum_vec(&mut self, xs: &mut [f64]) {
            self.world.global_sum_vec(xs)
        }
        fn global_max(&mut self, x: f64) -> f64 {
            self.world.global_max(x)
        }
        fn barrier(&mut self) {
            self.world.barrier()
        }
        fn gather(&mut self, data: Vec<f64>) -> Option<Vec<Vec<f64>>> {
            self.world.gather(data)
        }
    }

    /// The bytes `exchange_leg_bytes` prices the model's exchange legs at
    /// are the bytes `exchange3` sends: on a 2×2 cut of 8×4 tiles, every
    /// x message of a 1- or 5-level field at width 1 or 3 carries the `x`
    /// leg and every y message, corner columns included, the `y` leg.
    #[test]
    fn messages_carry_the_leg_bytes_they_are_priced_at() {
        let d = Decomp::blocks(16, 8, 2, 2, 3);
        let results = ThreadWorld::run(d.n_ranks(), |world| {
            let t = d.tile(world.rank());
            let mut legs = Vec::new();
            for levels in [1, 5] {
                for width in [1, 3] {
                    let mut f = Field3::new(t.nx, t.ny, levels, 3);
                    let mut world = Legs {
                        world: &mut *world,
                        sent: Vec::new(),
                    };
                    exchange3(&mut world, &d, &t, &mut [&mut f], width);
                    legs.push((exchange_leg_bytes(&t, levels, width), world.sent));
                }
            }
            legs
        });
        for legs in results {
            for ((x, y), sent) in legs {
                let is_x = |code: f64| code == PLACE_EAST || code == PLACE_WEST;
                // Two x legs (west and east), one y leg (one wall).
                assert_eq!(sent.iter().filter(|m| is_x(m.0)).count(), 2);
                assert_eq!(sent.len(), 3);
                for (code, bytes) in sent {
                    assert_eq!(bytes, if is_x(code) { x } else { y }, "placement {code}");
                }
            }
        }
    }
}
