//! Structure-of-arrays state kernels for the evaluation hot path.
//!
//! [`SplitState`] stores a register as two parallel `Vec<f64>` planes
//! (all real parts, all imaginary parts) instead of the
//! array-of-structs `Vec<Complex64>` of [`StateVector`]. Every hot
//! kernel then becomes a straight-line loop over independent `f64`
//! streams — exactly the shape LLVM's autovectorizer turns into packed
//! SIMD — and large sweeps are additionally **cache-blocked**: the QAOA
//! mixing layer applies the low qubits `0..min(n − 1, TILE_BITS)` to one
//! [`TILE`]-sized tile while it is resident, so they cost one trip
//! through memory instead of one per qubit.
//!
//! # Two qubits per pass
//!
//! Each in-tile pass of the mixing layer applies RX to two qubits
//! `(q, q + 1)`: the amplitudes at `z, z + 2^q, z + 2^(q+1), z + 3·2^q`
//! are closed under both butterflies, so they are loaded once, get the
//! qubit-`q` pairs and then the qubit-`(q+1)` pairs, and are stored
//! once. Over a
//! tile that is `⌈min(n − 1, TILE_BITS) / 2⌉` passes, the first of them
//! fused with the phase layer and an odd last qubit on a radix-2 pass of
//! its own (at n = 12: six passes over the tile, then the mirror pass,
//! where one pass per qubit and one for the phase layer made twelve).
//! Qubits above the tile keep one streaming pass each: at n = 20 a layer
//! is seven sweeps over the 8 MiB stored half (the tile pass, five
//! streaming passes and the mirror pass).
//!
//! # Half the state: bit-flip symmetry
//!
//! Every state the QAOA hot path builds is symmetric under flipping all
//! qubits, `ψ(z) = ψ(z̄)` with `z̄ = dim − 1 − z`: `|+…+⟩` is, a MaxCut
//! cost satisfies `C(z) = C(z̄)` (so the phase layer and the costate seed
//! `C|ψ⟩` keep the symmetry), and RX layers commute with `X^⊗n`. A
//! [`SplitState`] therefore stores only the lower half, amplitudes
//! `z < 2^(n−1)`, and reads `z ≥ 2^(n−1)` as its mirror. Phase layers and
//! RX on qubits `0..n−1` run unchanged on the half; RX on the top qubit
//! pairs `z` with `z ⊕ 2^(n−1)`, whose mirror is the stored index
//! `2^(n−1) − 1 − z`, so it becomes a *mirror butterfly* over the half
//! read forwards against itself read backwards. Reductions walk the full
//! index range and read each upper-half amplitude at its mirror.
//!
//! # Bit-parity contract
//!
//! Per amplitude, every kernel performs **the same floating-point
//! operations in the same order** as the scalar [`StateVector`]
//! reference kernels ([`StateVector::apply_phase_levels`],
//! [`StateVector::apply_rx_layer`]), so the amplitudes produced are
//! bit-identical to the scalar path — tiling and pairing qubits only
//! reorder *which amplitude is visited when*, never the arithmetic
//! applied to it: a paired pass still gives each amplitude its qubit-`q`
//! butterfly before its qubit-`(q+1)` one, on the same operands
//! (verified by `tests/tests/kernel_parity.rs`). The half storage keeps
//! this: on a symmetric state the full-plane kernels compute `ψ(z̄)` with
//! the very operations and operands they use for `ψ(z)` — the RX update
//! of an amplitude is `c·self − i·s·partner` whichever side of the pair
//! it is on, and `z̄`'s partner is the mirror of `z`'s — so the two
//! images are bit-equal and storing one of them loses nothing.
//!
//! Reductions (expectations, adjoint-gradient sums) are computed as
//! per-[`TILE`] partial sums over the *full* index range, combined in
//! tile-index order; within a tile the terms are summed in full-index
//! order, reading mirrored amplitudes for the upper half. The tile size
//! is a compile-time constant, **independent of the thread count**, so a
//! reduction returns bit-identical results at 1 thread and at N threads
//! — the invariant the engine's serial ≡ parallel and sharded ≡
//! unsharded guarantees rest on. (A tiled sum is *not* bit-identical to
//! one long sequential sum, which is why the reduction order is fixed
//! here once and used by every caller.)
//!
//! # Within-state parallelism
//!
//! Every kernel takes a `threads` budget. For registers of at least
//! [`PAR_MIN_DIM`] amplitudes, work is split into per-tile items and
//! fanned out across scoped worker threads (`std::thread::scope` — no
//! `unsafe`, no shared mutable aliasing: each item owns disjoint
//! `&mut` tile slices). Below the threshold, or with a budget of 1,
//! kernels run inline. Because tiling is fixed and partials are
//! combined in index order, the budget never influences results —
//! only wall-clock time. The budget is typically set per job by
//! `engine::Pool`'s within-job fan-out (see `Pool::inner_threads`).

use std::ops::Range;

use crate::{Complex64, QsimError, StateVector};

/// Amplitudes per cache tile (`2^TILE_BITS`). One tile is 256 KiB per
/// plane pair — small enough to stay L2-resident through the
/// `TILE_BITS / 2` paired low-qubit mixing passes applied to it, large
/// enough that only the topmost qubits of big registers need separate
/// streaming passes over the stored half (n = 16: two of them; n = 20:
/// six).
pub const TILE: usize = 1 << TILE_BITS;

/// `log2(TILE)`: the number of mixing-layer qubits applied tile-locally.
pub const TILE_BITS: usize = 14;

/// Minimum register dimension (amplitude count `2^n`, not the stored
/// half) before a `threads > 1` budget actually fans work out to scoped
/// threads. Below this, spawn overhead outweighs the kernel cost and
/// everything runs inline.
pub const PAR_MIN_DIM: usize = 1 << 17;

/// A pure, bit-flip-symmetric `n`-qubit state in split re/im
/// (structure-of-arrays) form, stored as its lower half.
///
/// The SIMD-friendly counterpart of [`StateVector`], used by the QAOA
/// evaluation hot path (`qaoa::EvalContext`). Only amplitudes
/// `z < 2^(n−1)` are stored; `z ≥ 2^(n−1)` reads as its mirror
/// `dim − 1 − z` (see the module docs). Kernels here are infallible:
/// callers guarantee width agreement between the state and its
/// observables (the evaluation context resizes on width switches), and
/// that phase tables are flip-symmetric (`level_of[z] == level_of[z̄]`,
/// true of every MaxCut cost); the kernels `debug_assert!` the widths.
///
/// # Example
///
/// ```
/// use qsim::{soa::SplitState, StateVector};
/// let mut s = SplitState::plus_state(3);
/// s.apply_rx_layer(0.7, 1);
/// let mut reference = StateVector::plus_state(3);
/// reference.apply_rx_layer(0.7);
/// // SoA kernels are bit-identical to the scalar reference.
/// assert_eq!(s.to_state_vector(), reference);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SplitState {
    n_qubits: usize,
    /// Real parts of the stored amplitudes `0..half_dim(n_qubits)`.
    re: Vec<f64>,
    /// Imaginary parts, parallel to `re`.
    im: Vec<f64>,
}

/// Stored amplitudes of an `n_qubits`-wide state: `2^(n−1)`, and the
/// single amplitude of a zero-qubit register (its own mirror).
fn half_dim(n_qubits: usize) -> usize {
    1 << n_qubits.saturating_sub(1)
}

/// Whether `level_of[z] == level_of[dim − 1 − z]` for every `z`: a level
/// table a half-plane kernel may read only the lower half of.
fn is_flip_symmetric(level_of: &[u32]) -> bool {
    level_of.iter().eq(level_of.iter().rev())
}

/// A run of consecutive full-state indices that lies in one half, and
/// where it is stored: `stored` in index order, or reversed (`rev`) for
/// an upper-half run read through its mirror.
struct Run {
    full: Range<usize>,
    stored: Range<usize>,
    rev: bool,
}

/// The amplitudes of `lambda` and `psi` at one stored index:
/// `(λ_re, λ_im, ψ_re, ψ_im)`.
type Quad = (f64, f64, f64, f64);

impl SplitState {
    /// The uniform superposition `|+…+⟩` — the QAOA input state.
    ///
    /// Like [`StateVector::plus_state`], performs no width check
    /// beyond what allocation enforces; the evaluation stack bounds
    /// widths upstream.
    #[must_use]
    pub fn plus_state(n_qubits: usize) -> Self {
        let dim = 1usize << n_qubits;
        #[expect(
            clippy::as_conversions,
            reason = "dim <= 2^63 is exactly representable in f64 for any simulable register"
        )]
        let amp = 1.0 / (dim as f64).sqrt();
        let half = half_dim(n_qubits);
        Self {
            n_qubits,
            re: vec![amp; half],
            im: vec![0.0; half],
        }
    }

    /// Converts from an array-of-structs state, keeping its lower half.
    ///
    /// # Errors
    ///
    /// [`QsimError::NotFlipSymmetric`] unless every amplitude is
    /// bit-equal to its mirror `dim − 1 − z`.
    pub fn from_state_vector(state: &StateVector) -> Result<Self, QsimError> {
        let amps = state.amplitudes();
        let half = half_dim(state.n_qubits());
        let mirror = amps.iter().rev();
        if let Some(index) = amps[..half]
            .iter()
            .zip(mirror)
            .position(|(a, b)| a.re.to_bits() != b.re.to_bits() || a.im.to_bits() != b.im.to_bits())
        {
            return Err(QsimError::NotFlipSymmetric { index });
        }
        Ok(Self {
            n_qubits: state.n_qubits(),
            re: amps[..half].iter().map(|a| a.re).collect(),
            im: amps[..half].iter().map(|a| a.im).collect(),
        })
    }

    /// Materializes the full array-of-structs state, mirror expanded
    /// (interop/test path; the hot path never converts).
    #[must_use]
    pub fn to_state_vector(&self) -> StateVector {
        StateVector::from_amplitudes(self.amplitudes().collect())
            .unwrap_or_else(|_| StateVector::zero_state(0))
    }

    /// Number of qubits.
    #[must_use]
    pub fn n_qubits(&self) -> usize {
        self.n_qubits
    }

    /// Dimension `2^n` of the Hilbert space (twice the stored amplitudes).
    #[must_use]
    pub fn dim(&self) -> usize {
        1 << self.n_qubits
    }

    /// The amplitude of basis state `index`, read at its mirror for the
    /// upper half.
    ///
    /// # Panics
    ///
    /// Panics if `index >= dim()`.
    #[must_use]
    pub fn amplitude(&self, index: usize) -> Complex64 {
        let stored = index.min(self.dim() - 1 - index);
        Complex64::new(self.re[stored], self.im[stored])
    }

    /// All `dim()` amplitudes in basis-index order, mirror expanded: the
    /// stored half forwards, then the stored half backwards.
    pub fn amplitudes(&self) -> impl Iterator<Item = Complex64> + '_ {
        let mirrored = self.dim() - self.re.len();
        let lower = self.re.iter().zip(&self.im);
        let upper = self.re[..mirrored].iter().zip(&self.im[..mirrored]).rev();
        lower.chain(upper).map(|(&re, &im)| Complex64::new(re, im))
    }

    /// The effective fan-out for one kernel call on this state.
    fn fanout(&self, threads: usize) -> usize {
        if self.dim() >= PAR_MIN_DIM {
            threads.max(1)
        } else {
            1
        }
    }

    /// Splits the full-index range `start..start + len` at the mirror
    /// line into at most two [`Run`]s, in index order. Only a
    /// whole-state range (`dim ≤ TILE`) straddles the line.
    fn runs(&self, start: usize, len: usize) -> impl Iterator<Item = Run> + '_ {
        let split = self.re.len().clamp(start, start + len);
        [(start, split - start), (split, start + len - split)]
            .into_iter()
            .filter(|&(_, len)| len > 0)
            .map(|(start, len)| self.run(start, len))
    }

    /// The [`Run`] holding `start..start + len`, a range inside one half.
    fn run(&self, start: usize, len: usize) -> Run {
        let full = start..start + len;
        if start < self.re.len() {
            Run {
                stored: full.clone(),
                full,
                rev: false,
            }
        } else {
            let end = self.dim() - start;
            Run {
                full,
                stored: end - len..end,
                rev: true,
            }
        }
    }

    /// `(re, im)` of the stored amplitudes `stored`, in index order.
    fn pairs(&self, stored: Range<usize>) -> impl DoubleEndedIterator<Item = (f64, f64)> + '_ {
        self.re[stored.clone()]
            .iter()
            .copied()
            .zip(self.im[stored].iter().copied())
    }

    /// Resets to `|+…+⟩` in place, reusing both planes — byte-for-byte
    /// equivalent to a fresh [`SplitState::plus_state`] of the same
    /// width.
    pub fn reset_to_plus(&mut self, threads: usize) {
        #[expect(
            clippy::as_conversions,
            reason = "dim <= 2^63 is exactly representable in f64 for any simulable register"
        )]
        let amp = 1.0 / (self.dim() as f64).sqrt();
        let threads = self.fanout(threads);
        for_each_tile(&mut self.re, &mut self.im, threads, &|_, re, im| {
            re.fill(amp);
            im.fill(0.0);
        });
    }

    /// Multiplies amplitude `i` by `table[level_of[i]]`, where the
    /// table arrives split into re/im planes — the SoA counterpart of
    /// [`StateVector::apply_phase_levels`], bit-identical to it.
    ///
    /// `level_of` spans the full index range and must be flip-symmetric;
    /// its lower half is read. Width agreement (`level_of.len() ==
    /// dim()`, table indices in range) is the caller's contract,
    /// `debug_assert!`ed here.
    pub fn apply_phase_levels(
        &mut self,
        level_of: &[u32],
        table_re: &[f64],
        table_im: &[f64],
        threads: usize,
    ) {
        debug_assert_eq!(level_of.len(), self.dim());
        debug_assert_eq!(table_re.len(), table_im.len());
        debug_assert!(is_flip_symmetric(level_of));
        let threads = self.fanout(threads);
        for_each_tile(&mut self.re, &mut self.im, threads, &|start, re, im| {
            phase_tile(
                re,
                im,
                &level_of[start..start + re.len()],
                table_re,
                table_im,
            );
        });
    }

    /// Applies `RX(θ)` to every qubit — the QAOA mixing layer —
    /// bit-identical to [`StateVector::apply_rx_layer`].
    ///
    /// Qubits `0..min(n − 1, TILE_BITS)` are applied tile-locally, two
    /// per pass over a resident tile; each remaining lower qubit is a
    /// streaming butterfly over contiguous `stride`-long blocks, and the
    /// top qubit is the mirror butterfly (see the module docs).
    pub fn apply_rx_layer(&mut self, theta: f64, threads: usize) {
        self.phase_rx(None, theta, threads);
    }

    /// One fused pass: phase separation then the tile-local part of
    /// the mixing layer, while each tile is cache-resident; then the
    /// high-qubit and mirror butterflies. Bit-identical to
    /// [`SplitState::apply_phase_levels`] followed by
    /// [`SplitState::apply_rx_layer`] — fusion reorders memory visits,
    /// not the per-amplitude arithmetic.
    pub fn apply_phase_rx(
        &mut self,
        level_of: &[u32],
        table_re: &[f64],
        table_im: &[f64],
        theta: f64,
        threads: usize,
    ) {
        debug_assert_eq!(level_of.len(), self.dim());
        self.phase_rx(Some((level_of, table_re, table_im)), theta, threads);
    }

    /// The mixing layer, after an optional phase layer
    /// `(level_of, table_re, table_im)` fused into its tile pass.
    fn phase_rx(&mut self, phase: Option<(&[u32], &[f64], &[f64])>, theta: f64, threads: usize) {
        debug_assert!(phase.is_none_or(|(level_of, ..)| is_flip_symmetric(level_of)));
        let (s, co) = (theta / 2.0).sin_cos();
        let threads = self.fanout(threads);
        let Some(top) = self.n_qubits.checked_sub(1) else {
            // Zero qubits: a phase on the one amplitude, nothing to mix.
            if let Some((level_of, table_re, table_im)) = phase {
                phase_tile(&mut self.re, &mut self.im, level_of, table_re, table_im);
            }
            return;
        };
        let n_low = top.min(TILE_BITS);
        for_each_tile(&mut self.re, &mut self.im, threads, &|start, re, im| {
            let phase = phase.map(|(level_of, table_re, table_im)| {
                (&level_of[start..start + re.len()], table_re, table_im)
            });
            mix_tile(re, im, phase, n_low, s, co);
        });
        for qubit in TILE_BITS..top {
            self.rx_high_pass(1 << qubit, s, co, threads);
        }
        self.rx_mirror_pass(s, co, threads);
    }

    /// One streaming butterfly pass for a lower qubit with
    /// `stride >= TILE`: pair blocks `[base, base+stride)` /
    /// `[base+stride, base+2·stride)` are contiguous, so the pass is
    /// pure sequential streams, split into per-tile work items for the
    /// fan-out.
    fn rx_high_pass(&mut self, stride: usize, s: f64, co: f64, threads: usize) {
        let mut items: Vec<Butterfly> = Vec::new();
        for (re_block, im_block) in self
            .re
            .chunks_mut(2 * stride)
            .zip(self.im.chunks_mut(2 * stride))
        {
            let (re_lo, re_hi) = re_block.split_at_mut(stride);
            let (im_lo, im_hi) = im_block.split_at_mut(stride);
            for (((rl, il), rh), ih) in re_lo
                .chunks_mut(TILE)
                .zip(im_lo.chunks_mut(TILE))
                .zip(re_hi.chunks_mut(TILE))
                .zip(im_hi.chunks_mut(TILE))
            {
                items.push((rl, il, rh, ih));
            }
        }
        run_items(threads, items, &|(rl, il, rh, ih)| {
            rx_butterfly(rl, il, rh, ih, s, co);
        });
    }

    /// RX on the top qubit: stored index `j` pairs with `half − 1 − j`,
    /// so the lower quarter meets the upper quarter read backwards —
    /// tile `t` with tile `half/TILE − 1 − t` when the half spans several
    /// tiles. At n = 1 the single stored amplitude pairs with itself.
    fn rx_mirror_pass(&mut self, s: f64, co: f64, threads: usize) {
        let mid = self.re.len() / 2;
        let (re_lo, re_hi) = self.re.split_at_mut(mid);
        let (im_lo, im_hi) = self.im.split_at_mut(mid);
        if mid == 0 {
            let a = (re_hi[0], im_hi[0]);
            (re_hi[0], im_hi[0]) = rx_pair(a, a, s, co).0;
            return;
        }
        let items: Vec<Butterfly> = re_lo
            .chunks_mut(TILE)
            .zip(im_lo.chunks_mut(TILE))
            .zip(
                re_hi
                    .chunks_mut(TILE)
                    .rev()
                    .zip(im_hi.chunks_mut(TILE).rev()),
            )
            .map(|((rl, il), (rh, ih))| (rl, il, rh, ih))
            .collect();
        run_items(threads, items, &|(rl, il, rh, ih)| {
            rx_mirror_butterfly(rl, il, rh, ih, s, co);
        });
    }

    /// Overwrites this state with `src` scaled elementwise by `diag`
    /// (`out_z = src_z · diag_z`) — the adjoint costate seed
    /// `|λ⟩ = C|ψ⟩` for a diagonal cost `C`. `diag` spans the full index
    /// range and must be flip-symmetric; its lower half is read.
    pub fn assign_scaled(&mut self, src: &SplitState, diag: &[f64], threads: usize) {
        debug_assert_eq!(src.dim(), self.dim());
        debug_assert_eq!(diag.len(), self.dim());
        debug_assert!(diag
            .iter()
            .map(|d| d.to_bits())
            .eq(diag.iter().rev().map(|d| d.to_bits())));
        let threads = self.fanout(threads);
        for_each_tile(&mut self.re, &mut self.im, threads, &|start, re, im| {
            let end = start + re.len();
            scale_tile(
                re,
                im,
                &src.re[start..end],
                &src.im[start..end],
                &diag[start..end],
            );
        });
    }

    /// `⟨ψ|D|ψ⟩ = Σ_z (re_z² + im_z²)·d_z` as a tiled deterministic
    /// reduction (fixed [`TILE`] partials over the full index range,
    /// combined in index order — identical at any thread budget).
    #[must_use]
    pub fn expectation_diag(&self, diag: &[f64], threads: usize) -> f64 {
        debug_assert_eq!(diag.len(), self.dim());
        reduce_tiles(self.dim(), self.fanout(threads), &|start, len| {
            self.runs(start, len).fold(0.0, |acc, run| {
                let (re, im) = (&self.re[run.stored.clone()], &self.im[run.stored]);
                let diag = &diag[run.full];
                if run.rev {
                    dot_norm::<true>(acc, re, im, diag)
                } else {
                    dot_norm::<false>(acc, re, im, diag)
                }
            })
        })
    }
}

/// The four planes `[λ_re, λ_im, ψ_re, ψ_im]` over one stored range.
type Planes<'a> = [&'a [f64]; 4];

/// `lambda`'s and `psi`'s planes over the stored indices `stored`.
fn planes<'a>(lambda: &'a SplitState, psi: &'a SplitState, stored: Range<usize>) -> Planes<'a> {
    [
        &lambda.re[stored.clone()],
        &lambda.im[stored.clone()],
        &psi.re[stored.clone()],
        &psi.im[stored],
    ]
}

/// The [`Quad`]s of `p`, in stored index order.
fn quads(p: Planes<'_>) -> impl DoubleEndedIterator<Item = Quad> + '_ {
    let [lr, li, sr, si] = p;
    lr.iter()
        .zip(li)
        .zip(sr.iter().zip(si))
        .map(|((&lr, &li), (&sr, &si))| (lr, li, sr, si))
}

/// `p` restricted to `range`.
fn sub(p: Planes<'_>, range: Range<usize>) -> Planes<'_> {
    p.map(|plane| &plane[range.clone()])
}

/// `p` cut into consecutive `size`-long blocks.
fn blocks(p: Planes<'_>, size: usize) -> impl DoubleEndedIterator<Item = Planes<'_>> {
    let [lr, li, sr, si] = p;
    lr.chunks_exact(size)
        .zip(li.chunks_exact(size))
        .zip(sr.chunks_exact(size).zip(si.chunks_exact(size)))
        .map(|((lr, li), (sr, si))| [lr, li, sr, si])
}

/// The [`Quad`] at index `k` of `p`.
fn quad(p: Planes<'_>, k: usize) -> Quad {
    (p[0][k], p[1][k], p[2][k], p[3][k])
}

/// `Σ_q Σ_z Im(λ̄_z · ψ_{z ⊕ 2^q})` — the mixing-layer gradient
/// reduction `Σ_q Im ⟨λ|X_q|ψ⟩`, tiled deterministically over the full
/// index range: each tile accumulates its qubits in order (in-tile
/// butterfly blocks for low qubits, streaming partner loads for high
/// ones), partials combine in tile order. Identical at any thread
/// budget.
#[must_use]
pub fn sum_im_cross_x(lambda: &SplitState, psi: &SplitState, threads: usize) -> f64 {
    debug_assert_eq!(lambda.dim(), psi.dim());
    let n_qubits = psi.n_qubits();
    let half = psi.re.len();
    reduce_tiles(psi.dim(), psi.fanout(threads), &|start, len| {
        let mut acc = 0.0;
        for qubit in 0..n_qubits {
            let stride = 1usize << qubit;
            if stride == half && stride < len {
                // The top qubit inside the one whole-state tile: the
                // upper block is the stored half read backwards.
                let whole = planes(lambda, psi, 0..half);
                acc += cross_x(quads(whole), quads(whole).rev());
            } else if stride < len {
                // Both butterfly halves live inside this tile.
                for run in psi.runs(start, len) {
                    acc = cross_x_blocks(acc, planes(lambda, psi, run.stored), stride, run.rev);
                }
            } else {
                // The partner block is a contiguous run in another tile
                // (read-only, so crossing tile boundaries is fine).
                let (a, b) = (psi.run(start, len), psi.run(start ^ stride, len));
                let (l, s) = (lambda.pairs(a.stored), psi.pairs(b.stored));
                acc += match (a.rev, b.rev) {
                    (false, false) => cross_half(l, s),
                    (false, true) => cross_half(l, s.rev()),
                    (true, false) => cross_half(l.rev(), s),
                    (true, true) => cross_half(l.rev(), s.rev()),
                };
            }
        }
        acc
    })
}

/// `Σ_z d_z · Im(λ̄_z ψ_z)` — the phase-layer gradient reduction,
/// tiled deterministically like [`SplitState::expectation_diag`].
#[must_use]
pub fn sum_diag_im_cross(
    diag: &[f64],
    lambda: &SplitState,
    psi: &SplitState,
    threads: usize,
) -> f64 {
    debug_assert_eq!(diag.len(), psi.dim());
    debug_assert_eq!(lambda.dim(), psi.dim());
    reduce_tiles(psi.dim(), psi.fanout(threads), &|start, len| {
        psi.runs(start, len).fold(0.0, |acc, run| {
            let p = planes(lambda, psi, run.stored);
            let diag = &diag[run.full];
            if run.rev {
                diag_cross::<true>(acc, p, diag)
            } else {
                diag_cross::<false>(acc, p, diag)
            }
        })
    })
}

// --- tile-level kernels (straight-line, autovectorizable) -----------------

/// Phase separation on one tile: `a *= table[level]` with the complex
/// product expanded exactly as `Complex64::mul` computes it.
fn phase_tile(
    re: &mut [f64],
    im: &mut [f64],
    level_of: &[u32],
    table_re: &[f64],
    table_im: &[f64],
) {
    let im = &mut im[..re.len()];
    let level_of = &level_of[..re.len()];
    for ((r, i), &l) in re.iter_mut().zip(im.iter_mut()).zip(level_of) {
        (*r, *i) = phase_mul((*r, *i), l, table_re, table_im);
    }
}

/// `a · table[level]`, expanded exactly as `Complex64::mul` computes it.
#[inline(always)]
fn phase_mul((r0, i0): (f64, f64), level: u32, table_re: &[f64], table_im: &[f64]) -> (f64, f64) {
    #[expect(
        clippy::as_conversions,
        reason = "u32 -> usize is value-preserving on every supported target"
    )]
    let l = level as usize;
    let (tr, ti) = (table_re[l], table_im[l]);
    (r0 * tr - i0 * ti, r0 * ti + i0 * tr)
}

/// Costate seed on one tile: `out = src · d` elementwise.
fn scale_tile(re: &mut [f64], im: &mut [f64], src_re: &[f64], src_im: &[f64], diag: &[f64]) {
    let n = re.len();
    let (im, src_re, src_im, diag) = (&mut im[..n], &src_re[..n], &src_im[..n], &diag[..n]);
    for k in 0..n {
        re[k] = src_re[k] * diag[k];
        im[k] = src_im[k] * diag[k];
    }
}

/// `acc + Σ_k (re² + im²)·d_k`, sequential in `k`, with amplitude `k`
/// stored at `k` — or at `len − 1 − k` when `REV`.
fn dot_norm<const REV: bool>(mut acc: f64, re: &[f64], im: &[f64], diag: &[f64]) -> f64 {
    let n = diag.len();
    let (re, im) = (&re[..n], &im[..n]);
    for (k, &d) in diag.iter().enumerate() {
        let m = if REV { n - 1 - k } else { k };
        acc += (re[m] * re[m] + im[m] * im[m]) * d;
    }
    acc
}

/// `acc + Σ_k d_k·(λre·ψim − λim·ψre)`, sequential in `k`, with the
/// amplitudes of `k` stored at `k` — or at `len − 1 − k` when `REV`.
fn diag_cross<const REV: bool>(mut acc: f64, p: Planes<'_>, diag: &[f64]) -> f64 {
    let n = diag.len();
    let [lr, li, sr, si] = p.map(|plane| &plane[..n]);
    for (k, &d) in diag.iter().enumerate() {
        let m = if REV { n - 1 - k } else { k };
        acc += d * (lr[m] * si[m] - li[m] * sr[m]);
    }
    acc
}

/// RX on one butterfly pair `(a0, a1)`, each `(re, im)`, with the exact
/// arithmetic of the scalar reference: `a0' = c·a0 − i·s·a1`,
/// `a1' = c·a1 − i·s·a0`, expanded. The update is symmetric in the pair.
#[inline(always)]
fn rx_pair(a0: (f64, f64), a1: (f64, f64), s: f64, co: f64) -> ((f64, f64), (f64, f64)) {
    let ((r0, i0), (r1, i1)) = (a0, a1);
    (
        (co * r0 + s * i1, co * i0 - s * r1),
        (co * r1 + s * i0, co * i1 - s * r0),
    )
}

/// RX on qubits `q` and `q + 1` of one closed group of four amplitudes
/// `[a, b, c, d]` at offsets `0, 2^q, 2^(q+1), 3·2^q`: the qubit-`q`
/// pairs `(a, b)`, `(c, d)`, then the qubit-`(q+1)` pairs `(a, c)`,
/// `(b, d)` — each amplitude gets the two butterflies of the
/// one-pass-per-qubit order, in that order, on the same operands.
#[inline(always)]
fn rx_quad(g: [(f64, f64); 4], s: f64, co: f64) -> [(f64, f64); 4] {
    let (a, b) = rx_pair(g[0], g[1], s, co);
    let (c, d) = rx_pair(g[2], g[3], s, co);
    let (a, c) = rx_pair(a, c, s, co);
    let (b, d) = rx_pair(b, d, s, co);
    [a, b, c, d]
}

/// The RX butterfly over two equal-length contiguous blocks: `lo[k]`
/// pairs with `hi[k]`.
fn rx_butterfly(
    lo_re: &mut [f64],
    lo_im: &mut [f64],
    hi_re: &mut [f64],
    hi_im: &mut [f64],
    s: f64,
    co: f64,
) {
    let n = lo_re.len();
    let (lo_im, hi_re, hi_im) = (&mut lo_im[..n], &mut hi_re[..n], &mut hi_im[..n]);
    for k in 0..n {
        let (lo, hi) = rx_pair((lo_re[k], lo_im[k]), (hi_re[k], hi_im[k]), s, co);
        (lo_re[k], lo_im[k]) = lo;
        (hi_re[k], hi_im[k]) = hi;
    }
}

/// [`rx_butterfly`] with the `hi` block read backwards: `lo[k]` pairs
/// with `hi[n − 1 − k]` — the top-qubit mirror butterfly.
fn rx_mirror_butterfly(
    lo_re: &mut [f64],
    lo_im: &mut [f64],
    hi_re: &mut [f64],
    hi_im: &mut [f64],
    s: f64,
    co: f64,
) {
    let lo = lo_re.iter_mut().zip(lo_im.iter_mut());
    let hi = hi_re.iter_mut().rev().zip(hi_im.iter_mut().rev());
    for ((lr, li), (hr, hi)) in lo.zip(hi) {
        ((*lr, *li), (*hr, *hi)) = rx_pair((*lr, *li), (*hr, *hi), s, co);
    }
}

/// Phase separation (when `phase` is given), then RX on qubits 0 and 1,
/// over each contiguous group of four amplitudes of a tile: the first
/// in-tile pass.
fn phase_rx01(
    re: &mut [f64],
    im: &mut [f64],
    phase: Option<(&[u32], &[f64], &[f64])>,
    s: f64,
    co: f64,
) {
    let quads = re.chunks_exact_mut(4).zip(im.chunks_exact_mut(4));
    let Some((level_of, table_re, table_im)) = phase else {
        for (r, i) in quads {
            let g = [(r[0], i[0]), (r[1], i[1]), (r[2], i[2]), (r[3], i[3])];
            [(r[0], i[0]), (r[1], i[1]), (r[2], i[2]), (r[3], i[3])] = rx_quad(g, s, co);
        }
        return;
    };
    for ((r, i), l) in quads.zip(level_of.chunks_exact(4)) {
        let mul = |k: usize| phase_mul((r[k], i[k]), l[k], table_re, table_im);
        let g = [mul(0), mul(1), mul(2), mul(3)];
        [(r[0], i[0]), (r[1], i[1]), (r[2], i[2]), (r[3], i[3])] = rx_quad(g, s, co);
    }
}

/// RX on qubits `q` and `q + 1` (`stride = 2^q`) over one tile: each
/// `4·stride` block splits into four `stride`-long runs whose `k`-th
/// entries form one [`rx_quad`] group, so the pass is eight sequential
/// streams.
fn rx_quad_pass(re: &mut [f64], im: &mut [f64], stride: usize, s: f64, co: f64) {
    for (re, im) in re
        .chunks_exact_mut(4 * stride)
        .zip(im.chunks_exact_mut(4 * stride))
    {
        let (r01, r23) = re.split_at_mut(2 * stride);
        let (i01, i23) = im.split_at_mut(2 * stride);
        let ((r0, r1), (r2, r3)) = (r01.split_at_mut(stride), r23.split_at_mut(stride));
        let ((i0, i1), (i2, i3)) = (i01.split_at_mut(stride), i23.split_at_mut(stride));
        let (r1, r2, r3) = (&mut r1[..stride], &mut r2[..stride], &mut r3[..stride]);
        let (i0, i1, i2, i3) = (
            &mut i0[..stride],
            &mut i1[..stride],
            &mut i2[..stride],
            &mut i3[..stride],
        );
        for k in 0..stride {
            let g = [
                (r0[k], i0[k]),
                (r1[k], i1[k]),
                (r2[k], i2[k]),
                (r3[k], i3[k]),
            ];
            [
                (r0[k], i0[k]),
                (r1[k], i1[k]),
                (r2[k], i2[k]),
                (r3[k], i3[k]),
            ] = rx_quad(g, s, co);
        }
    }
}

/// The mixing sub-layers for qubits `0..n_low` on one resident tile,
/// after the phase layer when `phase` is given, in qubit order (so the
/// arithmetic per amplitude matches the scalar one-pass-per-qubit
/// reference exactly): qubits are taken two per pass — the first pass
/// fused with the phase layer — and an odd last qubit gets a radix-2
/// pass. Below two qubits the phase layer is a pass of its own.
fn mix_tile(
    re: &mut [f64],
    im: &mut [f64],
    phase: Option<(&[u32], &[f64], &[f64])>,
    n_low: usize,
    s: f64,
    co: f64,
) {
    let mut qubit = 0;
    if n_low >= 2 {
        phase_rx01(re, im, phase, s, co);
        qubit = 2;
    } else if let Some((level_of, table_re, table_im)) = phase {
        phase_tile(re, im, level_of, table_re, table_im);
    }
    while qubit + 1 < n_low {
        rx_quad_pass(re, im, 1 << qubit, s, co);
        qubit += 2;
    }
    if qubit < n_low {
        let stride = 1usize << qubit;
        for (re_block, im_block) in re.chunks_mut(2 * stride).zip(im.chunks_mut(2 * stride)) {
            let (re_lo, re_hi) = re_block.split_at_mut(stride);
            let (im_lo, im_hi) = im_block.split_at_mut(stride);
            rx_butterfly(re_lo, im_lo, re_hi, im_hi, s, co);
        }
    }
}

/// Both cross terms of one butterfly pair: `Im(λ̄_lo ψ_hi) + Im(λ̄_hi ψ_lo)`.
#[inline]
fn cross_term(lo: Quad, hi: Quad) -> f64 {
    let (l_lo_re, l_lo_im, s_lo_re, s_lo_im) = lo;
    let (l_hi_re, l_hi_im, s_hi_re, s_hi_im) = hi;
    l_lo_re * s_hi_im - l_lo_im * s_hi_re + l_hi_re * s_lo_im - l_hi_im * s_lo_re
}

/// One butterfly block's cross terms, summed from zero in pair order.
fn cross_x(lo: impl Iterator<Item = Quad>, hi: impl Iterator<Item = Quad>) -> f64 {
    let mut acc = 0.0;
    for (lo, hi) in lo.zip(hi) {
        acc += cross_term(lo, hi);
    }
    acc
}

/// `acc` plus every `2·stride` butterfly block of one run's planes
/// `p`, each block summed from zero and added in full-index order. An
/// upper-half run (`rev`) visits the stored blocks last to first, and
/// inside a block its full-index lower part is the stored upper part,
/// both read backwards. Strides 1 and 2 take pair loops with the same
/// accumulation order instead of a [`cross_x`] call per tiny block.
fn cross_x_blocks(mut acc: f64, p: Planes<'_>, stride: usize, rev: bool) -> f64 {
    match (stride, rev) {
        (1, false) => {
            for b in blocks(p, 2) {
                let mut block = 0.0;
                block += cross_term(quad(b, 0), quad(b, 1));
                acc += block;
            }
        }
        (1, true) => {
            for b in blocks(p, 2).rev() {
                let mut block = 0.0;
                block += cross_term(quad(b, 1), quad(b, 0));
                acc += block;
            }
        }
        (2, false) => {
            for b in blocks(p, 4) {
                let mut block = 0.0;
                block += cross_term(quad(b, 0), quad(b, 2));
                block += cross_term(quad(b, 1), quad(b, 3));
                acc += block;
            }
        }
        (2, true) => {
            for b in blocks(p, 4).rev() {
                let mut block = 0.0;
                block += cross_term(quad(b, 3), quad(b, 1));
                block += cross_term(quad(b, 2), quad(b, 0));
                acc += block;
            }
        }
        (_, false) => {
            for b in blocks(p, 2 * stride) {
                acc += cross_x(quads(sub(b, 0..stride)), quads(sub(b, stride..2 * stride)));
            }
        }
        (_, true) => {
            for b in blocks(p, 2 * stride).rev() {
                let (lo, hi) = (sub(b, stride..2 * stride), sub(b, 0..stride));
                acc += cross_x(quads(lo).rev(), quads(hi).rev());
            }
        }
    }
    acc
}

/// One direction of the cross term when the partner block lives in
/// another tile: `Σ_k Im(λ̄_a ψ_b)`, summed from zero.
fn cross_half(l: impl Iterator<Item = (f64, f64)>, s: impl Iterator<Item = (f64, f64)>) -> f64 {
    let mut acc = 0.0;
    for ((lr, li), (sr, si)) in l.zip(s) {
        acc += lr * si - li * sr;
    }
    acc
}

// --- deterministic fan-out ------------------------------------------------

/// One butterfly work item: `(re_lo, im_lo, re_hi, im_hi)`.
type Butterfly<'a> = (&'a mut [f64], &'a mut [f64], &'a mut [f64], &'a mut [f64]);

/// Runs `f` once per work item, item `i` on scoped worker `i % workers`
/// (one share runs on the calling thread). With a budget of 1 — or a
/// single item — everything runs inline in item order. Items own their
/// data (disjoint `&mut` slices or partial-sum slots), so distribution
/// can never influence results, only wall-clock time.
fn run_items<T: Send, F: Fn(T) + Sync>(threads: usize, items: Vec<T>, f: &F) {
    let workers = threads.clamp(1, items.len().max(1));
    if workers == 1 {
        for item in items {
            f(item);
        }
        return;
    }
    let mut buckets: Vec<Vec<T>> = Vec::new();
    buckets.resize_with(workers, Vec::new);
    for (i, item) in items.into_iter().enumerate() {
        buckets[i % workers].push(item);
    }
    std::thread::scope(|scope| {
        let mine = buckets.swap_remove(0);
        for bucket in buckets {
            scope.spawn(move || {
                for item in bucket {
                    f(item);
                }
            });
        }
        for item in mine {
            f(item);
        }
    });
}

/// Splits both planes into [`TILE`]-sized tiles and runs
/// `f(tile_start, re_tile, im_tile)` for each, fanned out over
/// `threads`.
fn for_each_tile<F>(re: &mut [f64], im: &mut [f64], threads: usize, f: &F)
where
    F: Fn(usize, &mut [f64], &mut [f64]) + Sync,
{
    let items: Vec<(usize, &mut [f64], &mut [f64])> = re
        .chunks_mut(TILE)
        .zip(im.chunks_mut(TILE))
        .enumerate()
        .map(|(c, (r, i))| (c * TILE, r, i))
        .collect();
    run_items(threads, items, &|(start, r, i)| f(start, r, i));
}

/// Tiled deterministic reduction: `f(tile_start, tile_len)` produces
/// one partial per [`TILE`], computed on any worker but **combined in
/// tile-index order** — the reduction order is a pure function of
/// `dim`, never of the thread budget.
fn reduce_tiles<F>(dim: usize, threads: usize, f: &F) -> f64
where
    F: Fn(usize, usize) -> f64 + Sync,
{
    let n_tiles = dim.div_ceil(TILE);
    let mut partials = vec![0.0f64; n_tiles];
    let items: Vec<(usize, &mut f64)> = partials.iter_mut().enumerate().collect();
    run_items(threads, items, &|(c, slot)| {
        let start = c * TILE;
        *slot = f(start, TILE.min(dim - start));
    });
    partials.iter().fold(0.0, |acc, p| acc + p)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_bit_identical(soa: &SplitState, reference: &StateVector) {
        assert_eq!(soa.dim(), reference.dim());
        assert_eq!(soa.amplitudes().count(), reference.dim());
        for ((k, a), b) in reference
            .amplitudes()
            .iter()
            .enumerate()
            .zip(soa.amplitudes())
        {
            let got = soa.amplitude(k);
            assert_eq!(got.re.to_bits(), a.re.to_bits(), "re mismatch at index {k}");
            assert_eq!(got.im.to_bits(), a.im.to_bits(), "im mismatch at index {k}");
            assert_eq!(
                (b.re.to_bits(), b.im.to_bits()),
                (got.re.to_bits(), got.im.to_bits())
            );
        }
    }

    /// `f` of each basis index's lower mirror image, so the result is
    /// flip-symmetric like every MaxCut cost.
    fn symmetric<T>(n: usize, f: impl Fn(usize) -> T) -> Vec<T> {
        let dim = 1usize << n;
        (0..dim).map(|z| f(z.min(dim - 1 - z))).collect()
    }

    fn phase_table(levels: &[f64], gamma: f64) -> (Vec<Complex64>, Vec<f64>, Vec<f64>) {
        let aos: Vec<Complex64> = levels.iter().map(|&v| Complex64::cis(-gamma * v)).collect();
        let re = aos.iter().map(|c| c.re).collect();
        let im = aos.iter().map(|c| c.im).collect();
        (aos, re, im)
    }

    #[test]
    fn plus_state_matches_scalar() {
        for n in 0..6 {
            assert_bit_identical(&SplitState::plus_state(n), &StateVector::plus_state(n));
        }
    }

    #[test]
    fn reset_matches_fresh() {
        let mut s = SplitState::plus_state(5);
        s.apply_rx_layer(0.9, 1);
        s.reset_to_plus(1);
        assert_eq!(s, SplitState::plus_state(5));
    }

    #[test]
    fn rx_layer_matches_scalar_across_widths() {
        // Widths straddle TILE_BITS so both the tile-local and the
        // high-qubit streaming paths are exercised.
        for n in [0usize, 1, 2, 3, TILE_BITS, TILE_BITS + 1, TILE_BITS + 2] {
            let mut reference = StateVector::plus_state(n);
            let level_of = symmetric(n, |z| (z % 7) as u32);
            let (aos, _, _) = phase_table(&[0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0], 0.31);
            reference.apply_phase_levels(&level_of, &aos).unwrap();
            let mut soa = SplitState::from_state_vector(&reference).unwrap();
            reference.apply_rx_layer(0.83);
            soa.apply_rx_layer(0.83, 1);
            assert_bit_identical(&soa, &reference);
        }
    }

    #[test]
    fn phase_levels_matches_scalar() {
        let n = TILE_BITS + 1;
        let level_of = symmetric(n, |z| (z % 5) as u32);
        let levels: Vec<f64> = (0..5).map(|l| l as f64 * 0.7).collect();
        let (aos, tre, tim) = phase_table(&levels, 1.3);
        let mut reference = StateVector::plus_state(n);
        let mut soa = SplitState::from_state_vector(&reference).unwrap();
        reference.apply_phase_levels(&level_of, &aos).unwrap();
        soa.apply_phase_levels(&level_of, &tre, &tim, 1);
        assert_bit_identical(&soa, &reference);
    }

    #[test]
    fn fused_stage_equals_separate_kernels() {
        let n = TILE_BITS + 1;
        let level_of = symmetric(n, |z| (z % 3) as u32);
        let levels = [0.0, 1.5, 2.5];
        let (_, tre, tim) = phase_table(&levels, 0.9);
        let mut fused = SplitState::plus_state(n);
        let mut separate = fused.clone();
        fused.apply_phase_rx(&level_of, &tre, &tim, 1.1, 1);
        separate.apply_phase_levels(&level_of, &tre, &tim, 1);
        separate.apply_rx_layer(1.1, 1);
        assert_eq!(fused, separate);
    }

    #[test]
    fn kernels_identical_at_any_thread_budget() {
        // The budget must never change results — even above the fan-out
        // threshold this holds by construction, but the cheap widths
        // here at least pin the inline/fan-out dispatch seam.
        let n = TILE_BITS + 2;
        let level_of = symmetric(n, |z| (z % 4) as u32);
        let (_, tre, tim) = phase_table(&[0.0, 1.0, 2.0, 3.0], 0.4);
        let diag = symmetric(n, |z| (z % 4) as f64);
        let mut a = SplitState::plus_state(n);
        let mut b = SplitState::plus_state(n);
        a.apply_phase_rx(&level_of, &tre, &tim, 0.7, 1);
        b.apply_phase_rx(&level_of, &tre, &tim, 0.7, 4);
        assert_eq!(a, b);
        assert_eq!(
            a.expectation_diag(&diag, 1).to_bits(),
            b.expectation_diag(&diag, 4).to_bits()
        );
        let mut la = SplitState::plus_state(n);
        let mut lb = SplitState::plus_state(n);
        la.assign_scaled(&a, &diag, 1);
        lb.assign_scaled(&b, &diag, 4);
        assert_eq!(la, lb);
        assert_eq!(
            sum_im_cross_x(&la, &a, 1).to_bits(),
            sum_im_cross_x(&lb, &b, 4).to_bits()
        );
        assert_eq!(
            sum_diag_im_cross(&diag, &la, &a, 1).to_bits(),
            sum_diag_im_cross(&diag, &lb, &b, 4).to_bits()
        );
    }

    #[test]
    fn expectation_diag_matches_scalar_for_single_tile() {
        // Below one TILE the tiled reduction degenerates to the scalar
        // sequential sum, so the old and new paths agree bitwise.
        let n = 6;
        let diag: Vec<f64> = (0..1usize << n).map(|z| (z % 9) as f64 - 3.0).collect();
        let reference = StateVector::plus_state(n);
        let soa = SplitState::from_state_vector(&reference).unwrap();
        let scalar: f64 = reference
            .amplitudes()
            .iter()
            .zip(&diag)
            .map(|(a, d)| a.norm_sqr() * d)
            .sum();
        assert_eq!(soa.expectation_diag(&diag, 1).to_bits(), scalar.to_bits());
    }

    #[test]
    fn round_trip_conversion_is_lossless() {
        let mut reference = StateVector::plus_state(4);
        let levels: Vec<f64> = (0..8).map(f64::from).collect();
        let (aos, _, _) = phase_table(&levels, 0.3);
        reference
            .apply_phase_levels(&symmetric(4, |z| z as u32), &aos)
            .unwrap();
        let soa = SplitState::from_state_vector(&reference).unwrap();
        assert_eq!(soa.to_state_vector(), reference);
        assert_eq!(soa.amplitude(3), reference.amplitude(3));
        assert_eq!(soa.amplitude(12), reference.amplitude(12));
    }
}
