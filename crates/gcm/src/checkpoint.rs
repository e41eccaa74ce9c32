//! Checkpoint / restart.
//!
//! Climate experiments span "many millions of time-steps" (Figure 6) and
//! the paper's production runs take weeks; a real model must stop and
//! resume bit-exactly. The checkpoint carries the full prognostic state
//! *including the Adams–Bashforth history* (without it the restart step
//! would be forward-Euler and the trajectory would diverge), in a small
//! self-describing little-endian binary format with a checksum.

use crate::driver::Model;
use crate::field::Field3;
use crate::state::ModelState;
use std::io::{self, Read, Write};

/// Nine 3-D fields and `ps`; `HYADES01` images carried a tenth field.
const MAGIC: &[u8; 8] = b"HYADES02";

fn write_u64(w: &mut impl Write, v: u64) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

fn read_u64(r: &mut impl Read) -> io::Result<u64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}

/// FNV-1a over a 64-bit word (checksum of the raw bit patterns).
fn fnv(hash: &mut u64, word: u64) {
    for b in word.to_le_bytes() {
        *hash ^= b as u64;
        *hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
}

fn write_f64s(w: &mut impl Write, xs: &[f64], hash: &mut u64) -> io::Result<()> {
    write_u64(w, xs.len() as u64)?;
    for &x in xs {
        fnv(hash, x.to_bits());
        w.write_all(&x.to_le_bytes())?;
    }
    Ok(())
}

fn read_f64s(r: &mut impl Read, expect_len: usize, hash: &mut u64) -> io::Result<Vec<f64>> {
    let n = read_u64(r)? as usize;
    if n != expect_len {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("field length {n} does not match configuration ({expect_len})"),
        ));
    }
    let mut out = Vec::with_capacity(n);
    let mut b = [0u8; 8];
    for _ in 0..n {
        r.read_exact(&mut b)?;
        let x = f64::from_le_bytes(b);
        fnv(hash, x.to_bits());
        out.push(x);
    }
    Ok(out)
}

/// The 3-D fields of an image, in file order.
fn fields3(st: &ModelState) -> [&Field3; 9] {
    [
        &st.u,
        &st.v,
        &st.w,
        &st.theta,
        &st.s,
        &st.gu_prev,
        &st.gv_prev,
        &st.gt_prev,
        &st.gs_prev,
    ]
}

fn fields3_mut(st: &mut ModelState) -> [&mut Field3; 9] {
    [
        &mut st.u,
        &mut st.v,
        &mut st.w,
        &mut st.theta,
        &mut st.s,
        &mut st.gu_prev,
        &mut st.gv_prev,
        &mut st.gt_prev,
        &mut st.gs_prev,
    ]
}

/// Write a checkpoint of `model`'s prognostic state.
pub fn save(model: &Model, w: &mut impl Write) -> io::Result<()> {
    w.write_all(MAGIC)?;
    write_u64(w, model.steps_taken)?;
    write_u64(w, model.total_cg_iterations)?;
    write_u64(w, model.total_ps_flops)?;
    write_u64(w, model.total_ds_flops)?;
    write_u64(w, model.state.first_step as u64)?;
    let st = &model.state;
    let mut hash = 0xCBF2_9CE4_8422_2325u64;
    for f in fields3(st) {
        write_f64s(w, f.raw(), &mut hash)?;
    }
    write_f64s(w, st.ps.raw(), &mut hash)?;
    // Trailer: FNV-1a over every value's bit pattern.
    write_u64(w, hash)?;
    Ok(())
}

/// A whole image, read and verified against a model's shape and the
/// trailer, not yet written into the model.
pub(crate) struct Staged {
    steps_taken: u64,
    total_cg_iterations: u64,
    total_ps_flops: u64,
    total_ds_flops: u64,
    first_step: bool,
    fields3: Vec<Vec<f64>>,
    ps: Vec<f64>,
}

impl Staged {
    /// Read one image for `model`; `model` is only asked for its field
    /// lengths.
    pub(crate) fn read(model: &Model, r: &mut impl Read) -> io::Result<Staged> {
        let mut magic = [0u8; 8];
        r.read_exact(&mut magic)?;
        if &magic != MAGIC {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "not a Hyades checkpoint",
            ));
        }
        let steps_taken = read_u64(r)?;
        let total_cg_iterations = read_u64(r)?;
        let total_ps_flops = read_u64(r)?;
        let total_ds_flops = read_u64(r)?;
        let first_step = read_u64(r)? != 0;
        let mut hash = 0xCBF2_9CE4_8422_2325u64;
        let st = &model.state;
        let fields3 = fields3(st)
            .iter()
            .map(|f| read_f64s(r, f.raw().len(), &mut hash))
            .collect::<io::Result<Vec<_>>>()?;
        let ps = read_f64s(r, st.ps.raw().len(), &mut hash)?;
        if read_u64(r)? != hash {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "checkpoint checksum mismatch",
            ));
        }
        Ok(Staged {
            steps_taken,
            total_cg_iterations,
            total_ps_flops,
            total_ds_flops,
            first_step,
            fields3,
            ps,
        })
    }

    /// Write the verified image into the model it was read for.
    pub(crate) fn commit(self, model: &mut Model) {
        model.steps_taken = self.steps_taken;
        model.total_cg_iterations = self.total_cg_iterations;
        model.total_ps_flops = self.total_ps_flops;
        model.total_ds_flops = self.total_ds_flops;
        let st = &mut model.state;
        st.first_step = self.first_step;
        for (f, data) in fields3_mut(st).into_iter().zip(&self.fields3) {
            f.raw_mut().copy_from_slice(data);
        }
        st.ps.raw_mut().copy_from_slice(&self.ps);
    }
}

/// Restore a checkpoint into `model` (which must have been built with the
/// same configuration and rank). On `Err` the model is as it was: nothing
/// is written until lengths and checksum have been verified.
pub fn load(model: &mut Model, r: &mut impl Read) -> io::Result<()> {
    Staged::read(model, r)?.commit(model);
    Ok(())
}

/// Convenience: checkpoint to / restore from files.
pub fn save_file(model: &Model, path: &std::path::Path) -> io::Result<()> {
    let mut f = io::BufWriter::new(std::fs::File::create(path)?);
    save(model, &mut f)?;
    f.flush()
}

pub fn load_file(model: &mut Model, path: &std::path::Path) -> io::Result<()> {
    let mut f = io::BufReader::new(std::fs::File::open(path)?);
    load(model, &mut f)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ModelConfig, SurfaceForcing};
    use crate::decomp::Decomp;
    use hyades_comms::SerialWorld;

    fn model() -> Model {
        let d = Decomp::blocks(16, 8, 1, 1, 3);
        let mut cfg = ModelConfig::test_ocean(16, 8, 3, d);
        cfg.forcing = SurfaceForcing::Climatology;
        Model::new(cfg, 0)
    }

    #[test]
    fn roundtrip_preserves_state_bitwise() {
        let mut m = model();
        let mut w = SerialWorld;
        m.run(&mut w, 4);
        let mut buf = Vec::new();
        save(&m, &mut buf).unwrap();
        let mut m2 = model();
        load(&mut m2, &mut buf.as_slice()).unwrap();
        assert_eq!(m.steps_taken, m2.steps_taken);
        assert_eq!(m.state.theta.raw(), m2.state.theta.raw());
        assert_eq!(m.state.gu_prev.raw(), m2.state.gu_prev.raw());
        assert_eq!(m.state.ps.raw(), m2.state.ps.raw());
        assert_eq!(m.state.first_step, m2.state.first_step);
    }

    #[test]
    fn restart_continues_bit_exactly() {
        // 3 + 3 steps through a checkpoint must equal 6 straight steps:
        // the AB2 history in the checkpoint is what makes this exact.
        let mut straight = model();
        let mut w = SerialWorld;
        straight.run(&mut w, 6);

        let mut first = model();
        first.run(&mut w, 3);
        let mut buf = Vec::new();
        save(&first, &mut buf).unwrap();
        let mut resumed = model();
        load(&mut resumed, &mut buf.as_slice()).unwrap();
        resumed.run(&mut w, 3);

        assert_eq!(straight.state.theta.raw(), resumed.state.theta.raw());
        assert_eq!(straight.state.u.raw(), resumed.state.u.raw());
        assert_eq!(straight.state.v.raw(), resumed.state.v.raw());
        assert_eq!(straight.state.ps.raw(), resumed.state.ps.raw());
    }

    #[test]
    fn corrupted_checkpoint_is_rejected() {
        let mut m = model();
        let mut w = SerialWorld;
        m.run(&mut w, 2);
        let mut buf = Vec::new();
        save(&m, &mut buf).unwrap();
        // Flip a payload byte (past the header).
        let idx = buf.len() / 2;
        buf[idx] ^= 0x40;
        let mut m2 = model();
        let err = load(&mut m2, &mut buf.as_slice()).unwrap_err();
        assert!(
            err.to_string().contains("checksum") || err.kind() == std::io::ErrorKind::InvalidData,
            "{err}"
        );
    }

    /// An image that fails verification must not be half-restored: damage
    /// inside the last field (`ps`), and a cut at a field boundary.
    #[test]
    fn rejected_image_leaves_the_model_as_it_was() {
        let mut w = SerialWorld;
        let mut source = model();
        source.run(&mut w, 4);
        let mut image = Vec::new();
        save(&source, &mut image).unwrap();
        let mut flipped = image.clone();
        let in_ps = image.len() - 8 - 16;
        flipped[in_ps] ^= 0x01;
        let one_field = 8 + 8 * source.state.u.raw().len();
        let cut = &image[..8 + 5 * 8 + 3 * one_field];

        let mut target = model();
        target.run(&mut w, 2);
        let mut before = Vec::new();
        save(&target, &mut before).unwrap();
        for bad in [flipped.as_slice(), cut] {
            load(&mut target, &mut &*bad).unwrap_err();
            let mut after = Vec::new();
            save(&target, &mut after).unwrap();
            assert!(after == before, "a refused image changed the model");
            assert_eq!(target.steps_taken, 2);
        }
    }

    #[test]
    fn previous_format_is_refused_at_the_magic() {
        let mut m = model();
        let mut image = Vec::new();
        save(&m, &mut image).unwrap();
        image[..8].copy_from_slice(b"HYADES01");
        let err = load(&mut m, &mut image.as_slice()).unwrap_err();
        assert!(err.to_string().contains("not a Hyades checkpoint"), "{err}");
    }

    #[test]
    fn wrong_magic_rejected() {
        let mut m2 = model();
        let err = load(&mut m2, &mut b"NOTACKPT........".as_slice()).unwrap_err();
        assert!(err.to_string().contains("not a Hyades checkpoint"));
    }

    #[test]
    fn wrong_grid_rejected() {
        let mut m = model();
        let mut w = SerialWorld;
        m.run(&mut w, 1);
        let mut buf = Vec::new();
        save(&m, &mut buf).unwrap();
        // A model with a different grid cannot load it.
        let d = Decomp::blocks(32, 8, 1, 1, 3);
        let cfg = ModelConfig::test_ocean(32, 8, 3, d);
        let mut other = Model::new(cfg, 0);
        let err = load(&mut other, &mut buf.as_slice()).unwrap_err();
        assert!(err.to_string().contains("does not match"), "{err}");
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join("hyades_ckpt_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("test.ckpt");
        let mut m = model();
        let mut w = SerialWorld;
        m.run(&mut w, 2);
        save_file(&m, &path).unwrap();
        let mut m2 = model();
        load_file(&mut m2, &path).unwrap();
        assert_eq!(m.state.theta.raw(), m2.state.theta.raw());
        std::fs::remove_file(&path).ok();
    }
}
