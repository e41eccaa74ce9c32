//! # hyades-gcm — the MIT general circulation model, in Rust
//!
//! A reimplementation of the numerical model of §3–4 of *"A Personal
//! Supercomputer for Climate Research"* (SC'99): the MIT GCM (Marshall et
//! al. 1997a,b), a finite-volume incompressible Navier–Stokes solver on an
//! Arakawa C-grid that exploits the isomorphism between the equations of
//! motion of the ocean and the (hydrostatic primitive-equation) atmosphere,
//! so both fluids run through the same kernel.
//!
//! The time step follows Figure 6 exactly:
//!
//! * **PS (prognostic step)** — evaluate the tendencies
//!   `G_v = g_v(v, b)` (advection, Coriolis, metric, dissipation, forcing)
//!   from a local 3×3 stencil, extrapolate with Adams–Bashforth-2,
//!   integrate the hydrostatic pressure from the buoyancy, and step the
//!   state forward. One halo exchange (width 3, five model fields) per
//!   step; *overcomputation* in the halo removes all other communication.
//! * **DS (diagnostic step)** — solve the 2-D elliptic equation
//!   `∇h·(H ∇h ps) = rhs` for the surface pressure that renders the
//!   depth-integrated flow non-divergent, with a conjugate-gradient
//!   solver preconditioned by a tile-local incomplete Cholesky factor:
//!   one two-field width-1 exchange and two global sums per iteration.
//!
//! The domain is horizontally decomposed into tiles with halo regions
//! (Figure 5); tiles run against the [`hyades_comms::CommWorld`] interface
//! (serial or thread-parallel), and every kernel reports its
//! floating-point work to [`flops`] so the per-cell operation counts of
//! Figure 11 (`Nps`, `Nds`) can be measured rather than assumed.
//!
//! Topography shaves each column's deepest wet cell, as the MITgcm does
//! (Adcroft et al. 1997): a column carries its wet-level count and the
//! thickness fraction of its bottom cell, from which [`state::Masks`]
//! derives the masks and open fractions of cells and faces. Simplifications
//! relative to the full MITgcm, chosen to preserve the paper-relevant
//! structure (stencils, communication pattern, flop balance): walls
//! poleward of ±78.75° (±80° on the 1° ocean) instead of polar filtering,
//! first-order upwind vertical advection, and an intermediate-complexity
//! physics package (Newtonian cooling, Rayleigh friction, convective
//! adjustment, bulk surface fluxes) after the 5-level model the paper
//! cites.

// Library code reports failure instead of panicking; a panic that
// cannot happen carries a reasoned `#[expect]`.
#![warn(clippy::unwrap_used, clippy::expect_used)]

pub mod checkpoint;
pub mod config;
pub mod coupler;
pub mod decomp;
pub mod diagnostics;
pub mod driver;
pub mod eos;
pub mod field;
pub mod flops;
pub mod grid;
pub mod halo;
pub mod kernel;
pub mod monitor;
pub mod physics;
pub mod resilient;
pub mod solver;
pub mod state;
pub mod tile;
pub mod topography;

pub use config::ModelConfig;
pub use driver::{Model, StepStats};
pub use field::Field3;
pub use grid::Grid;
pub use monitor::{BlowupKind, BlowupReport, RunMonitor};
pub use resilient::{RecoveryStats, ResilientRunner};
