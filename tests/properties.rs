//! Property-based tests (proptest) on the reproduction's core invariants,
//! spanning crates: packet integrity, routing, halo-exchange consistency,
//! reduction correctness, solver behaviour, and the performance model's
//! algebraic identities.

use hyades::arctic::crc::crc16_words;
use hyades::arctic::packet::{Packet, Priority};
use hyades::arctic::topology::{DownTarget, FatTree};
use hyades::comms::gsum::{measure_gsum, measure_gsum_tree};
use hyades::comms::{CommWorld, SerialWorld, ThreadWorld};
use hyades::gcm::decomp::Decomp;
use hyades::gcm::field::Field3;
use hyades::gcm::halo::exchange3;
use hyades::perf::model::PerfModel;
use hyades::perf::params::{DsParams, PsParams};
use hyades::startx::msg::{bytes_from_words, segment, words_from_bytes};
use hyades::startx::HostParams;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn crc_detects_any_single_word_change(
        words in prop::collection::vec(any::<u32>(), 1..24),
        idx in any::<prop::sample::Index>(),
        flip in 1u32..,
    ) {
        let good = crc16_words(&words);
        let mut bad = words.clone();
        let i = idx.index(bad.len());
        bad[i] ^= flip;
        prop_assert_ne!(crc16_words(&bad), good);
    }

    #[test]
    fn packet_roundtrip_any_payload(
        payload in prop::collection::vec(any::<u32>(), 0..=22),
        src in 0u16..16,
        dst in 0u16..16,
        tag in 0u16..0x800,
        high in any::<bool>(),
        uproute_bits in any::<u16>(),
    ) {
        let priority = if high { Priority::High } else { Priority::Low };
        let mut p = Packet::new(src, dst, priority, tag, payload);
        p.uproute_bits = uproute_bits;
        prop_assert!(p.verify());
        prop_assert!(p.payload.len() >= 2 && p.payload.len() <= 22);
        prop_assert!(p.wire_bytes() <= 96);
        // The definition of the packet CRC, pinned here because the
        // library streams these words instead of assembling them: the
        // route word with its up-route bits masked, the tag word, then
        // the payload.
        let [route, tag_word] = p.header_words();
        let mut covered = vec![route & !0x3FFF, tag_word];
        covered.extend_from_slice(&p.payload);
        prop_assert_eq!(p.compute_crc(), crc16_words(&covered));
    }

    /// The CRC a packet remembers never goes stale: after any sequence
    /// of header reassignments and payload bit flips, `verify()` agrees
    /// with a full recompute (and `corrupted`, once set, stays set), and
    /// the fields outside the CRC do not change its verdict.
    #[test]
    fn verify_agrees_with_a_full_recompute_after_any_change(
        payload in prop::collection::vec(any::<u32>(), 0..=22),
        ops in prop::collection::vec((0u8..7, any::<u32>()), 1..40),
    ) {
        let mut p = Packet::new(3, 9, Priority::Low, 0x155, payload);
        let mut before = p.verify();
        prop_assert!(before);
        for (op, v) in ops {
            match op {
                0 => p.dst = v as u16,
                1 => p.priority = if v & 1 == 0 { Priority::Low } else { Priority::High },
                2 => p.usr_tag = v as u16 & 0x7FF,
                3 => p.crc = v as u16,
                4 => p.flip_bit(v as usize % p.payload.len(), v >> 27),
                5 => p.uproute_bits = v as u16,
                _ => p.up_remaining = v as u8,
            }
            let want = !p.corrupted && p.compute_crc() == p.crc;
            let got = p.verify();
            prop_assert_eq!(got, want, "op {} value {:#x}", op, v);
            if op >= 5 {
                prop_assert_eq!(got, before, "field outside the CRC changed the verdict");
            }
            before = got;
        }
    }

    #[test]
    fn fat_tree_routing_reaches_destination(
        log_n in 1u32..6,
        s in any::<u16>(),
        d in any::<u16>(),
        up_bits in any::<u16>(),
    ) {
        let n = 1u16 << log_n;
        let (s, d) = (s % n, d % n);
        let t = FatTree::new(n);
        let m = t.up_hops(s, d);
        prop_assert!(t.ancestors_agree(s, d));
        let (mut r, _) = t.leaf_of(s);
        for l in 0..m {
            r = t.up_neighbor(r, ((up_bits >> l) & 1) as u8);
        }
        loop {
            match t.down_neighbor(r, t.down_port(r.level, d)) {
                DownTarget::Router(next) => r = next,
                DownTarget::Endpoint(e) => {
                    prop_assert_eq!(e, d);
                    break;
                }
            }
        }
    }

    #[test]
    fn byte_word_packing_roundtrips(bytes in prop::collection::vec(any::<u8>(), 0..200)) {
        let words = words_from_bytes(&bytes);
        prop_assert_eq!(bytes_from_words(&words, bytes.len()), bytes);
    }

    #[test]
    fn segmentation_partitions_exactly(len in 0u64..1_000_000) {
        let segs = segment(len);
        prop_assert_eq!(segs.iter().sum::<u64>(), len);
        prop_assert!(segs.iter().all(|&s| s > 0 && s <= 88));
        // All but the last are maximal.
        if segs.len() > 1 {
            prop_assert!(segs[..segs.len() - 1].iter().all(|&s| s == 88));
        }
    }

    #[test]
    fn gsum_equals_serial_sum(values in prop::collection::vec(-1e6f64..1e6, 1..5)) {
        // Power-of-two participant counts: replicate the values.
        let mut vals = values.clone();
        while !vals.len().is_power_of_two() || vals.len() < 2 {
            vals.push(0.25);
        }
        let m = measure_gsum(HostParams::default(), &vals, false);
        let expect: f64 = vals.iter().sum();
        prop_assert!((m.value - expect).abs() <= 1e-9 * expect.abs().max(1.0));
        let t = measure_gsum_tree(HostParams::default(), &vals);
        prop_assert!((t.value - expect).abs() <= 1e-9 * expect.abs().max(1.0));
    }

    #[test]
    fn perf_model_decomposition_identity(
        nps in 1.0f64..2000.0,
        nxyz in 1u64..100_000,
        t_xyz in 1.0f64..1e6,
        nds in 1.0f64..100.0,
        nxy in 1u64..10_000,
        tg in 0.5f64..1e4,
        t_xy in 0.5f64..1e5,
        nt in 1u64..10_000,
        ni in 1.0f64..200.0,
    ) {
        let m = PerfModel {
            ps: PsParams { nps, nxyz, texch_xyz_us: t_xyz, fps_mflops: 50.0 },
            ds: DsParams { nds, nxy, tgsum_us: tg, texch_xy_us: t_xy, fds_mflops: 60.0 },
        };
        // T_run = T_comm + T_comp exactly (eqs. 11–13).
        let lhs = m.t_run(nt, ni);
        let rhs = m.t_comm(nt, ni) + m.t_comp(nt, ni);
        prop_assert!((lhs - rhs).abs() <= 1e-9 * lhs.max(1e-12));
        // Efficiency is a proper fraction.
        let e = m.efficiency(ni);
        prop_assert!(e > 0.0 && e <= 1.0);
    }
}

proptest! {
    // Heavier cases: fewer iterations.
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn halo_exchange_agrees_with_global_function(
        px in prop::sample::select(vec![1usize, 2, 4]),
        py in prop::sample::select(vec![1usize, 2]),
        seed in any::<u64>(),
    ) {
        let (nx, ny, nz, h) = (16usize, 8usize, 2usize, 3usize);
        let d = Decomp::blocks(nx, ny, px, py, h);
        let f = move |gi: i64, gj: i64, k: usize| -> f64 {
            let gi = gi.rem_euclid(nx as i64);
            ((seed % 1000) as f64) + (gi * 100_000 + gj * 100 + k as i64) as f64
        };
        let errs = ThreadWorld::run(d.n_ranks(), |w| {
            let t = d.tile(w.rank());
            let mut field = Field3::new(t.nx, t.ny, nz, h);
            for k in 0..nz {
                for j in 0..t.ny as i64 {
                    for i in 0..t.nx as i64 {
                        field.set(i, j, k, f(t.gx(i), t.gy(j), k));
                    }
                }
            }
            exchange3(w, &d, &t, &mut [&mut field], h);
            let mut errs = 0u32;
            for k in 0..nz {
                for j in -(h as i64)..(t.ny + h) as i64 {
                    for i in -(h as i64)..(t.nx + h) as i64 {
                        let gj = t.gy(j);
                        let expect = if gj < 0 || gj >= ny as i64 { 0.0 } else { f(t.gx(i), gj, k) };
                        if field.at(i, j, k) != expect {
                            errs += 1;
                        }
                    }
                }
            }
            errs
        });
        prop_assert!(errs.iter().all(|&e| e == 0), "halo mismatches: {errs:?}");
    }

    #[test]
    fn cg_solves_random_compatible_systems(seed in any::<u64>()) {
        use hyades::gcm::config::ModelConfig;
        use hyades::gcm::field::Field3;
        use hyades::gcm::kernel::TileGeom;
        use hyades::gcm::solver::{CgSolver, EllipticCoeffs};
        use hyades::gcm::state::Masks;
        use hyades::gcm::topography::Topography;

        let d = Decomp::blocks(16, 8, 1, 1, 3);
        let cfg = ModelConfig::test_ocean(16, 8, 3, d);
        let tile = d.tile(0);
        let topo = Topography::aquaplanet(&cfg.grid);
        let masks = Masks::build(&cfg, &tile, &topo);
        let geom = TileGeom::build(&cfg, &tile);
        let coeffs = EllipticCoeffs::build(&cfg, &tile, &geom, &masks);
        // Random rhs from the seed (deterministic per case).
        let mut rhs = Field3::new(16, 8, 1, 3);
        let mut z = seed | 1;
        for (i, j, _) in rhs.clone().interior() {
            z = z.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let v = ((z >> 33) as i64 % 2000 - 1000) as f64 * 1e3;
            rhs.set(i, j, 0, v);
        }
        let mut x = Field3::new(16, 8, 1, 3);
        let mut w = SerialWorld;
        let res = CgSolver::new(&tile).solve(&mut w, &cfg, &d, &tile, &geom, &coeffs, &masks, &rhs, &mut x);
        prop_assert!(res.converged, "CG failed: {res:?}");
        prop_assert!(x.interior_max_abs().is_finite());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn convective_adjustment_always_stabilizes_and_conserves(
        profile in prop::collection::vec(-5.0f64..35.0, 6),
        s_profile in prop::collection::vec(30.0f64..40.0, 6),
    ) {
        use hyades::gcm::config::ModelConfig;
        use hyades::gcm::physics::convective_adjustment;
        use hyades::gcm::state::{Masks, ModelState};
        use hyades::gcm::topography::Topography;

        let d = Decomp::blocks(4, 4, 1, 1, 3);
        let cfg = ModelConfig::test_ocean(4, 4, 6, d);
        let tile = d.tile(0);
        let topo = Topography::aquaplanet(&cfg.grid);
        let masks = Masks::build(&cfg, &tile, &topo);
        let mut st = ModelState::initial(&cfg, &tile, &masks);
        for (k, (&t, &s)) in profile.iter().zip(&s_profile).enumerate() {
            st.theta.set(1, 1, k, t);
            st.s.set(1, 1, k, s);
        }
        let heat_before: f64 = (0..6).map(|k| st.theta.at(1, 1, k) * cfg.grid.dz[k]).sum();
        let salt_before: f64 = (0..6).map(|k| st.s.at(1, 1, k) * cfg.grid.dz[k]).sum();
        convective_adjustment(&cfg, &tile, &masks, &mut st);
        // Stable after one pass, for ANY input profile.
        for k in 0..5usize {
            let b0 = cfg.eos.buoyancy(st.theta.at(1, 1, k), st.s.at(1, 1, k), k);
            let b1 = cfg.eos.buoyancy(st.theta.at(1, 1, k + 1), st.s.at(1, 1, k + 1), k + 1);
            prop_assert!(!cfg.eos.unstable(b0, b1), "unstable at k={k}");
        }
        // Heat and salt content conserved to roundoff.
        let heat_after: f64 = (0..6).map(|k| st.theta.at(1, 1, k) * cfg.grid.dz[k]).sum();
        let salt_after: f64 = (0..6).map(|k| st.s.at(1, 1, k) * cfg.grid.dz[k]).sum();
        prop_assert!((heat_before - heat_after).abs() < 1e-9 * heat_before.abs().max(1.0));
        prop_assert!((salt_before - salt_after).abs() < 1e-9 * salt_before.abs().max(1.0));
    }

    #[test]
    fn implicit_diffusion_is_bounded_and_conservative(
        profile in prop::collection::vec(-10.0f64..10.0, 5),
        kappa in 1e-5f64..1e3,
    ) {
        use hyades::gcm::config::ModelConfig;
        use hyades::gcm::field::Field3;
        use hyades::gcm::kernel::vertical::{implicit_vertical_diffusion, Tridiag};
        use hyades::gcm::state::Masks;
        use hyades::gcm::topography::Topography;

        let d = Decomp::blocks(4, 4, 1, 1, 3);
        let cfg = ModelConfig::test_ocean(4, 4, 5, d);
        let tile = d.tile(0);
        let topo = Topography::aquaplanet(&cfg.grid);
        let masks = Masks::build(&cfg, &tile, &topo);
        let mut f = Field3::new(4, 4, 5, 3);
        for (k, &v) in profile.iter().enumerate() {
            f.set(2, 2, k, v);
        }
        let content: f64 = (0..5).map(|k| f.at(2, 2, k) * cfg.grid.dz[k]).sum();
        let (lo, hi) = profile
            .iter()
            .fold((f64::INFINITY, f64::NEG_INFINITY), |(l, h), &v| (l.min(v), h.max(v)));
        let mut scratch = Tridiag::new(5);
        implicit_vertical_diffusion(&cfg, &tile, &masks, &mut f, kappa, &mut scratch);
        // Maximum principle: no new extrema, any kappa, any profile.
        for k in 0..5 {
            let v = f.at(2, 2, k);
            prop_assert!(v >= lo - 1e-9 && v <= hi + 1e-9, "level {k}: {v} outside [{lo}, {hi}]");
        }
        let content_after: f64 = (0..5).map(|k| f.at(2, 2, k) * cfg.grid.dz[k]).sum();
        prop_assert!((content - content_after).abs() < 1e-9 * content.abs().max(1.0));
    }
}
