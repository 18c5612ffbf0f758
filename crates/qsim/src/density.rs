//! Mixed-state simulation: [`DensityMatrix`] with Kraus noise after every
//! gate.
//!
//! # Layout and passes
//!
//! ρ is stored as two row-major `f64` planes, `re[r * dim + c]` and
//! `im[r * dim + c]` — the split layout of
//! [`SplitState`](crate::soa::SplitState), in the same bytes as one
//! `Complex64` vector. Every operation is **one pass over blocks** of ρ:
//!
//! * a single-qubit gate and the channel that follows it on that qubit
//!   visit each `2×2` block addressed by the qubit's row and column bit
//!   once, computing `Σ K (U B U†) K†` in registers;
//! * CNOT, CZ and SWAP become an index permutation or a sign flip, applied
//!   while a `4×4` block is gathered, and the channel on both qubits then
//!   runs on that block's `2×2` sub-blocks before it is stored.
//!
//! Blocks are disjoint, so the order in which a pass visits them does not
//! change any result.
//!
//! # Arithmetic contract
//!
//! Each single-qubit matrix is classified by its exact zeros — diagonal
//! (Z, RZ), real (H, X, RY), real diagonal with imaginary off-diagonal
//! (RX, Y), or general — and its block arithmetic drops every product with
//! an exact-zero factor. Every other floating-point operation is the one
//! the full complex `U ρ U†` products and the Kraus sum perform, in the
//! same order. Dropping `0 · x` changes at most the sign of a zero, so each
//! element equals the full-product result up to the sign of zero, and
//! [`DensityMatrix::trace`], [`DensityMatrix::probabilities`] and
//! [`DensityMatrix::expectation_diagonal`] are bit-identical to it. The
//! test suite checks this against the full-product kernels
//! (`tests/tests/density_parity.rs`).

use crate::channels::{KrausChannel, NoiseModel};
use crate::circuit::{Circuit, Gate};
use crate::gates::{self, Gate2};
use crate::{Complex64, DiagonalObservable, QsimError, StateVector};

/// Widest register the density-matrix simulator will allocate
/// (`4^n` complex entries; 12 qubits ≈ 256 MiB).
pub const MAX_DM_QUBITS: usize = 12;

/// A mixed quantum state ρ on `n` qubits: a dense `2ⁿ × 2ⁿ` complex
/// matrix stored as split real and imaginary row-major planes.
///
/// The state-vector simulator ([`StateVector`]) covers the paper's
/// noiseless experiments; this type extends the substrate to open-system
/// dynamics via Kraus [`KrausChannel`]s, enabling the `noisy_qaoa` study of
/// the two-level flow under gate errors. Qubit index conventions (bit `q`
/// of the basis index) match [`StateVector`] exactly, and
/// [`DensityMatrix::run`] on a noiseless model agrees with the pure-state
/// simulation to machine precision (cross-validated in the test suite).
/// [`DensityMatrix::run`] applies each gate together with its noise in one
/// pass over ρ, with block arithmetic that skips the exact zeros of the
/// gate matrix; elements can differ from the full complex products only in
/// the sign of a zero, and the trace, probabilities and expectations are
/// bit-identical to them.
///
/// # Example
///
/// ```
/// use qsim::{Circuit, DensityMatrix, NoiseModel};
/// # fn main() -> Result<(), qsim::QsimError> {
/// // A noisy Bell pair keeps unit trace but loses purity.
/// let mut circuit = Circuit::new(2);
/// circuit.h(0).cnot(0, 1);
/// let mut rho = DensityMatrix::zero_state(2)?;
/// rho.run(&circuit, &NoiseModel::uniform_depolarizing(0.0, 0.05)?)?;
/// assert!((rho.trace() - 1.0).abs() < 1e-12);
/// assert!(rho.purity() < 1.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DensityMatrix {
    n_qubits: usize,
    dim: usize,
    /// `Re ρ[r, c]` at `r * dim + c`.
    re: Vec<f64>,
    /// `Im ρ[r, c]` at `r * dim + c`.
    im: Vec<f64>,
}

/// A `2×2` block of ρ: `[b00, b01, b10, b11]`.
type Block2 = [Complex64; 4];

/// A `4×4` block of ρ, row-major over the local index `bit_a + 2·bit_b`.
type Block4 = [Complex64; 16];

/// The block arithmetic of one single-qubit matrix `U`.
trait Kernel: Copy {
    /// `U (x0, x1)ᵀ`: the left product on one column of a block.
    fn left(self, x0: Complex64, x1: Complex64) -> (Complex64, Complex64);

    /// `(x0, x1) U†`: the right product on one row of a block.
    fn right_adjoint(self, x0: Complex64, x1: Complex64) -> (Complex64, Complex64);

    /// `B → U B U†`: both left products, then both right ones.
    #[inline(always)]
    fn conjugate(self, [b00, b01, b10, b11]: Block2) -> Block2 {
        let (b00, b10) = self.left(b00, b10);
        let (b01, b11) = self.left(b01, b11);
        let (b00, b01) = self.right_adjoint(b00, b01);
        let (b10, b11) = self.right_adjoint(b10, b11);
        [b00, b01, b10, b11]
    }
}

/// `diag(d0, d1)` (Z, RZ, phase gates).
#[derive(Debug, Clone, Copy)]
struct Diagonal(Complex64, Complex64);

impl Kernel for Diagonal {
    #[inline(always)]
    fn left(self, x0: Complex64, x1: Complex64) -> (Complex64, Complex64) {
        (self.0 * x0, self.1 * x1)
    }

    #[inline(always)]
    fn right_adjoint(self, x0: Complex64, x1: Complex64) -> (Complex64, Complex64) {
        (x0 * self.0.conj(), x1 * self.1.conj())
    }
}

/// A matrix with every entry real (H, X, RY).
#[derive(Debug, Clone, Copy)]
struct Real([[f64; 2]; 2]);

impl Kernel for Real {
    #[inline(always)]
    fn left(self, x0: Complex64, x1: Complex64) -> (Complex64, Complex64) {
        let [[a, b], [c, d]] = self.0;
        (x0.scale(a) + x1.scale(b), x0.scale(c) + x1.scale(d))
    }

    /// `U† = Uᵀ`, and `(x0, x1) Uᵀ` is `U (x0, x1)ᵀ` entry for entry.
    #[inline(always)]
    fn right_adjoint(self, x0: Complex64, x1: Complex64) -> (Complex64, Complex64) {
        self.left(x0, x1)
    }
}

/// `[[d0, i·o0], [i·o1, d1]]` with real `d` and `o` (RX, Y).
#[derive(Debug, Clone, Copy)]
struct RealDiagImagOff {
    d: [f64; 2],
    o: [f64; 2],
}

impl Kernel for RealDiagImagOff {
    #[inline(always)]
    fn left(self, x0: Complex64, x1: Complex64) -> (Complex64, Complex64) {
        let ([d0, d1], [o0, o1]) = (self.d, self.o);
        (
            x0.scale(d0) + x1.mul_i().scale(o0),
            x0.mul_i().scale(o1) + x1.scale(d1),
        )
    }

    #[inline(always)]
    fn right_adjoint(self, x0: Complex64, x1: Complex64) -> (Complex64, Complex64) {
        let ([d0, d1], [o0, o1]) = (self.d, self.o);
        (
            x0.scale(d0) - x1.mul_i().scale(o0),
            x1.scale(d1) - x0.mul_i().scale(o1),
        )
    }
}

/// A matrix with no exact-zero structure.
#[derive(Debug, Clone, Copy)]
struct General(Gate2);

impl Kernel for General {
    #[inline(always)]
    fn left(self, x0: Complex64, x1: Complex64) -> (Complex64, Complex64) {
        let [[a, b], [c, d]] = self.0;
        (a * x0 + b * x1, c * x0 + d * x1)
    }

    #[inline(always)]
    fn right_adjoint(self, x0: Complex64, x1: Complex64) -> (Complex64, Complex64) {
        let [[a, b], [c, d]] = self.0;
        (x0 * a.conj() + x1 * b.conj(), x0 * c.conj() + x1 * d.conj())
    }
}

/// A single-qubit matrix, classified by its exact zeros.
#[derive(Debug, Clone, Copy)]
enum Op1 {
    Diagonal(Diagonal),
    Real(Real),
    RealDiagImagOff(RealDiagImagOff),
    General(General),
}

impl Op1 {
    fn of(u: &Gate2) -> Self {
        let [[a, b], [c, d]] = *u;
        if b == Complex64::ZERO && c == Complex64::ZERO {
            Op1::Diagonal(Diagonal(a, d))
        } else if u.iter().flatten().all(|z| z.im == 0.0) {
            Op1::Real(Real([[a.re, b.re], [c.re, d.re]]))
        } else if a.im == 0.0 && d.im == 0.0 && b.re == 0.0 && c.re == 0.0 {
            Op1::RealDiagImagOff(RealDiagImagOff {
                d: [a.re, d.re],
                o: [b.im, c.im],
            })
        } else {
            Op1::General(General(*u))
        }
    }
}

/// The gate part of a two-qubit pass over qubits `a` and `b`.
#[derive(Debug, Clone, Copy)]
enum Op2 {
    /// CNOT, `a` controlling `b`: swaps local indices 1 and 3.
    Cnot,
    /// CZ: negates local index 3.
    Cz,
    /// SWAP: swaps local indices 1 and 2.
    Swap,
    /// A controlled single-qubit matrix, `a` controlling `b`.
    Controlled(General),
}

impl Op2 {
    /// The local index each row and column of the result is gathered from.
    fn gather(self) -> [usize; 4] {
        match self {
            Op2::Cnot => [0, 3, 2, 1],
            Op2::Swap => [0, 2, 1, 3],
            Op2::Cz | Op2::Controlled(_) => [0, 1, 2, 3],
        }
    }

    /// The arithmetic left after [`Op2::gather`].
    #[inline(always)]
    fn finish(self, block: &mut Block4) {
        match self {
            Op2::Cnot | Op2::Swap => {}
            // Row 3 or column 3, not both.
            Op2::Cz => {
                for k in [3, 7, 11, 12, 13, 14] {
                    block[k] = -block[k];
                }
            }
            // Rows 1 and 3 carry the control bit, then columns 1 and 3.
            Op2::Controlled(u) => {
                for col in 0..4 {
                    (block[4 + col], block[12 + col]) = u.left(block[4 + col], block[12 + col]);
                }
                for row in 0..4 {
                    let (i, j) = (4 * row + 1, 4 * row + 3);
                    (block[i], block[j]) = u.right_adjoint(block[i], block[j]);
                }
            }
        }
    }
}

/// The `2×2` sub-blocks of a [`Block4`] on qubit `a` (local bit 1), then
/// on qubit `b` (local bit 2).
const SUB_BLOCKS: [[usize; 4]; 8] = [
    [0, 1, 4, 5],
    [2, 3, 6, 7],
    [8, 9, 12, 13],
    [10, 11, 14, 15],
    [0, 2, 8, 10],
    [1, 3, 9, 11],
    [4, 6, 12, 14],
    [5, 7, 13, 15],
];

/// A noise channel, classified once per [`DensityMatrix::run`].
#[derive(Debug, Clone, Copy)]
enum Channel<'a> {
    /// No channel, the identity channel or depolarizing at `p = 0`.
    None,
    Depolarizing(Depolarizing),
    /// The general Kraus sum `Σ K B K†` over these operators.
    Kraus(&'a [Gate2]),
}

impl<'a> Channel<'a> {
    fn of(channel: Option<&'a KrausChannel>) -> Self {
        let Some(channel) = channel else {
            return Channel::None;
        };
        if channel.is_identity() {
            return Channel::None;
        }
        match channel.as_depolarizing() {
            Some(p) if p != 0.0 => Channel::Depolarizing(Depolarizing {
                keep: 1.0 - 2.0 * p / 3.0,
                swap: 2.0 * p / 3.0,
                shrink: 1.0 - 4.0 * p / 3.0,
            }),
            Some(_) => Channel::None,
            None => Channel::Kraus(channel.ops()),
        }
    }
}

/// The depolarizing closed form,
/// `ρ → (1−p) ρ + p/3 (XρX + YρY + ZρZ)`, reduced per `2×2` block to a
/// population blend and an off-diagonal shrink:
///
/// ```text
/// ρ00' = (1 − 2p/3) ρ00 + (2p/3) ρ11      ρ01' = (1 − 4p/3) ρ01
/// ρ11' = (2p/3) ρ00 + (1 − 2p/3) ρ11      ρ10' = (1 − 4p/3) ρ10
/// ```
#[derive(Debug, Clone, Copy)]
struct Depolarizing {
    keep: f64,
    swap: f64,
    shrink: f64,
}

impl Depolarizing {
    #[inline(always)]
    fn apply(self, [b00, b01, b10, b11]: Block2) -> Block2 {
        [
            self.keep * b00 + self.swap * b11,
            self.shrink * b01,
            self.shrink * b10,
            self.swap * b00 + self.keep * b11,
        ]
    }
}

/// `Σ K B K†` over the Kraus operators `ops`.
#[inline(always)]
fn kraus(ops: &[Gate2], [b00, b01, b10, b11]: Block2) -> Block2 {
    let mut n = [Complex64::ZERO; 4];
    for k in ops {
        let (ka, kb) = (k[0][0], k[0][1]);
        let (kd, ke) = (k[1][0], k[1][1]);
        // T = K B, then accumulate T K†.
        let t00 = ka * b00 + kb * b10;
        let t01 = ka * b01 + kb * b11;
        let t10 = kd * b00 + ke * b10;
        let t11 = kd * b01 + ke * b11;
        n[0] += t00 * ka.conj() + t01 * kb.conj();
        n[1] += t00 * kd.conj() + t01 * ke.conj();
        n[2] += t10 * ka.conj() + t11 * kb.conj();
        n[3] += t10 * kd.conj() + t11 * ke.conj();
    }
    n
}

/// Splits every `2·half`-long chunk of `x` into its two halves.
fn halves(x: &mut [f64], half: usize) -> impl Iterator<Item = (&mut [f64], &mut [f64])> {
    x.chunks_exact_mut(2 * half).map(move |chunk| {
        let (low, high) = chunk.split_at_mut(half);
        // Re-sliced so the compiler sees both halves are `half` long and
        // drops the bounds checks of the per-element loop.
        (low, &mut high[..half])
    })
}

/// The indices below `dim` with every bit of `mask` clear, ascending.
fn bases(dim: usize, mask: usize) -> impl Iterator<Item = usize> {
    (0..dim).filter(move |i| i & mask == 0)
}

impl DensityMatrix {
    fn zeroed(n_qubits: usize) -> Result<Self, QsimError> {
        if n_qubits > MAX_DM_QUBITS {
            return Err(QsimError::TooManyQubits { n_qubits });
        }
        let dim = 1usize << n_qubits;
        Ok(Self {
            n_qubits,
            dim,
            re: vec![0.0; dim * dim],
            im: vec![0.0; dim * dim],
        })
    }

    /// The pure state `|0…0⟩⟨0…0|`.
    ///
    /// # Errors
    ///
    /// [`QsimError::TooManyQubits`] beyond [`MAX_DM_QUBITS`].
    pub fn zero_state(n_qubits: usize) -> Result<Self, QsimError> {
        let mut rho = Self::zeroed(n_qubits)?;
        rho.re[0] = 1.0;
        Ok(rho)
    }

    /// The uniform-superposition pure state `|+…+⟩⟨+…+|` that starts every
    /// QAOA circuit.
    ///
    /// # Errors
    ///
    /// [`QsimError::TooManyQubits`] beyond [`MAX_DM_QUBITS`].
    pub fn plus_state(n_qubits: usize) -> Result<Self, QsimError> {
        Self::from_state_vector(&StateVector::plus_state(n_qubits))
    }

    /// The maximally mixed state `I / 2ⁿ`.
    ///
    /// # Errors
    ///
    /// [`QsimError::TooManyQubits`] beyond [`MAX_DM_QUBITS`].
    pub fn maximally_mixed(n_qubits: usize) -> Result<Self, QsimError> {
        let mut rho = Self::zeroed(n_qubits)?;
        // 2ⁿ ≤ 2^MAX_DM_QUBITS fits a u32 and converts to f64 exactly.
        let w = 1.0 / f64::from(1u32 << n_qubits);
        for r in 0..rho.dim {
            rho.re[r * rho.dim + r] = w;
        }
        Ok(rho)
    }

    /// The projector `|ψ⟩⟨ψ|` of a pure state.
    ///
    /// # Errors
    ///
    /// [`QsimError::TooManyQubits`] beyond [`MAX_DM_QUBITS`].
    pub fn from_state_vector(state: &StateVector) -> Result<Self, QsimError> {
        let mut rho = Self::zeroed(state.n_qubits())?;
        let amps = state.amplitudes();
        for (r, &ar) in amps.iter().enumerate() {
            for (col, &ac) in amps.iter().enumerate() {
                let e = ar * ac.conj();
                rho.re[r * rho.dim + col] = e.re;
                rho.im[r * rho.dim + col] = e.im;
            }
        }
        Ok(rho)
    }

    /// Number of qubits.
    #[must_use]
    pub fn n_qubits(&self) -> usize {
        self.n_qubits
    }

    /// Hilbert-space dimension `2ⁿ`.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Matrix element `ρ[r, c]`.
    ///
    /// # Panics
    ///
    /// Panics if `r` or `c` is out of range.
    #[must_use]
    pub fn element(&self, r: usize, c: usize) -> Complex64 {
        assert!(r < self.dim && c < self.dim, "index out of range");
        let i = r * self.dim + c;
        Complex64::new(self.re[i], self.im[i])
    }

    /// `Re ρ[i, i]`.
    fn diagonal(&self, i: usize) -> f64 {
        self.re[i * self.dim + i]
    }

    /// Trace `Tr ρ` (1 for any physical state; real up to rounding).
    #[must_use]
    pub fn trace(&self) -> f64 {
        (0..self.dim).map(|r| self.diagonal(r)).sum()
    }

    /// Purity `Tr ρ²` ∈ `[1/2ⁿ, 1]`; exactly 1 for pure states.
    #[must_use]
    pub fn purity(&self) -> f64 {
        // Tr ρ² = Σ_{r,c} ρ_{rc} ρ_{cr} = Σ_{r,c} |ρ_{rc}|² for Hermitian ρ.
        self.re
            .iter()
            .zip(&self.im)
            .map(|(&re, &im)| re * re + im * im)
            .sum()
    }

    /// Measurement probability of the computational basis state `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= dim()`.
    #[must_use]
    pub fn probability(&self, index: usize) -> f64 {
        assert!(index < self.dim, "index out of range");
        // Clamps rounding noise below zero, and a zero of either sign, to
        // +0: `f64::max` may return either zero when given two.
        let p = self.diagonal(index);
        if p > 0.0 {
            p
        } else {
            0.0
        }
    }

    /// All `2ⁿ` basis-state probabilities (the diagonal).
    #[must_use]
    pub fn probabilities(&self) -> Vec<f64> {
        (0..self.dim).map(|i| self.probability(i)).collect()
    }

    /// Expectation `Tr(ρ O)` of a diagonal observable — the QAOA cost
    /// readout.
    ///
    /// # Errors
    ///
    /// [`QsimError::DimensionMismatch`] if dimensions disagree.
    pub fn expectation_diagonal(&self, obs: &DiagonalObservable) -> Result<f64, QsimError> {
        if obs.diagonal().len() != self.dim {
            return Err(QsimError::DimensionMismatch {
                expected: obs.diagonal().len(),
                actual: self.dim,
            });
        }
        Ok(obs
            .diagonal()
            .iter()
            .enumerate()
            .map(|(i, &o)| o * self.diagonal(i))
            .sum())
    }

    /// Max-norm deviation from Hermiticity (diagnostic; 0 for valid states).
    #[must_use]
    pub fn hermiticity_deviation(&self) -> f64 {
        let mut dev = 0.0_f64;
        for r in 0..self.dim {
            for c in (r..self.dim).skip(1) {
                dev = dev.max((self.element(r, c) - self.element(c, r).conj()).abs());
            }
        }
        dev
    }

    fn check_qubit(&self, qubit: usize) -> Result<(), QsimError> {
        if qubit >= self.n_qubits {
            return Err(QsimError::QubitOutOfRange {
                qubit,
                n_qubits: self.n_qubits,
            });
        }
        Ok(())
    }

    /// Maps every `2×2` block of `qubit` through `f`, one row pair at a
    /// time.
    fn sweep1(&mut self, qubit: usize, f: impl Fn(Block2) -> Block2) {
        let s = 1usize << qubit;
        let dim = self.dim;
        let row_blocks = halves(&mut self.re, s * dim).zip(halves(&mut self.im, s * dim));
        for ((re_top, re_bottom), (im_top, im_bottom)) in row_blocks {
            let re_rows = re_top
                .chunks_exact_mut(dim)
                .zip(re_bottom.chunks_exact_mut(dim));
            let im_rows = im_top
                .chunks_exact_mut(dim)
                .zip(im_bottom.chunks_exact_mut(dim));
            for ((re0, re1), (im0, im1)) in re_rows.zip(im_rows) {
                let re_cols = halves(re0, s).zip(halves(re1, s));
                let im_cols = halves(im0, s).zip(halves(im1, s));
                for (((re00, re01), (re10, re11)), ((im00, im01), (im10, im11))) in
                    re_cols.zip(im_cols)
                {
                    for k in 0..s {
                        let [n00, n01, n10, n11] = f([
                            Complex64::new(re00[k], im00[k]),
                            Complex64::new(re01[k], im01[k]),
                            Complex64::new(re10[k], im10[k]),
                            Complex64::new(re11[k], im11[k]),
                        ]);
                        (re00[k], im00[k]) = (n00.re, n00.im);
                        (re01[k], im01[k]) = (n01.re, n01.im);
                        (re10[k], im10[k]) = (n10.re, n10.im);
                        (re11[k], im11[k]) = (n11.re, n11.im);
                    }
                }
            }
        }
    }

    /// Maps every `4×4` block of qubits `(a, b)` through `gate` and then
    /// through `channel` on each of its `2×2` sub-blocks, on `a` first.
    fn sweep2(&mut self, a: usize, b: usize, gate: Op2, channel: impl Fn(Block2) -> Block2) {
        let dim = self.dim;
        let len = dim * dim;
        let (re, im) = (&mut self.re[..len], &mut self.im[..len]);
        let axis = [0, 1 << a, 1 << b, (1 << a) | (1 << b)];
        let from = gate.gather().map(|l| axis[l]);
        for r in bases(dim, axis[3]) {
            for c in bases(dim, axis[3]) {
                let mut block = [Complex64::ZERO; 16];
                for (k, z) in block.iter_mut().enumerate() {
                    // Below `len` already; the mask lets the compiler see it.
                    let i = ((r + from[k / 4]) * dim + c + from[k % 4]) & (len - 1);
                    *z = Complex64::new(re[i], im[i]);
                }
                gate.finish(&mut block);
                for &[i, j, k, l] in &SUB_BLOCKS {
                    [block[i], block[j], block[k], block[l]] =
                        channel([block[i], block[j], block[k], block[l]]);
                }
                for (k, z) in block.iter().enumerate() {
                    let i = ((r + axis[k / 4]) * dim + c + axis[k % 4]) & (len - 1);
                    re[i] = z.re;
                    im[i] = z.im;
                }
            }
        }
    }

    /// One pass of the single-qubit gate `gate` and then `channel` on
    /// `qubit`. The caller has checked `qubit`.
    fn pass1(&mut self, qubit: usize, gate: Option<Op1>, channel: Channel<'_>) {
        match channel {
            Channel::None => self.pass1_with(qubit, gate, |block| block),
            Channel::Depolarizing(d) => self.pass1_with(qubit, gate, move |block| d.apply(block)),
            Channel::Kraus(ops) => self.pass1_with(qubit, gate, move |block| kraus(ops, block)),
        }
    }

    /// [`DensityMatrix::pass1`] for one channel kind: one sweep per gate
    /// kind, so each sweep runs straight-line block arithmetic.
    fn pass1_with(
        &mut self,
        qubit: usize,
        gate: Option<Op1>,
        channel: impl Fn(Block2) -> Block2 + Copy,
    ) {
        match gate {
            None => self.sweep1(qubit, channel),
            Some(Op1::Diagonal(u)) => self.sweep1(qubit, move |b| channel(u.conjugate(b))),
            Some(Op1::Real(u)) => self.sweep1(qubit, move |b| channel(u.conjugate(b))),
            Some(Op1::RealDiagImagOff(u)) => self.sweep1(qubit, move |b| channel(u.conjugate(b))),
            Some(Op1::General(u)) => self.sweep1(qubit, move |b| channel(u.conjugate(b))),
        }
    }

    /// One pass of the two-qubit gate `gate` on `(a, b)` and then `channel`
    /// on `a` and on `b`. The caller has checked `a` and `b`.
    fn pass2(&mut self, a: usize, b: usize, gate: Op2, channel: Channel<'_>) {
        match channel {
            Channel::None => self.sweep2(a, b, gate, |block| block),
            Channel::Depolarizing(d) => self.sweep2(a, b, gate, move |block| d.apply(block)),
            Channel::Kraus(ops) => self.sweep2(a, b, gate, move |block| kraus(ops, block)),
        }
    }

    /// One pass of `gate` and the channel `noise` puts after it. The
    /// caller has checked the gate's qubits.
    fn pass(&mut self, gate: &Gate, after_1q: Channel<'_>, after_2q: Channel<'_>) {
        let (qubit, u) = match *gate {
            Gate::Cnot { control, target } => {
                return self.pass2(control, target, Op2::Cnot, after_2q)
            }
            Gate::Cz { a, b } => return self.pass2(a, b, Op2::Cz, after_2q),
            Gate::Swap { a, b } => return self.pass2(a, b, Op2::Swap, after_2q),
            Gate::H(q) => (q, gates::h()),
            Gate::X(q) => (q, gates::x()),
            Gate::Y(q) => (q, gates::y()),
            Gate::Z(q) => (q, gates::z()),
            Gate::Rx { qubit, theta } => (qubit, gates::rx(theta)),
            Gate::Ry { qubit, theta } => (qubit, gates::ry(theta)),
            Gate::Rz { qubit, theta } => (qubit, gates::rz(theta)),
        };
        self.pass1(qubit, Some(Op1::of(&u)), after_1q);
    }

    /// Applies a single-qubit unitary: ρ → U ρ U†.
    ///
    /// # Errors
    ///
    /// [`QsimError::QubitOutOfRange`] for a bad index.
    pub fn apply_single(&mut self, qubit: usize, u: &Gate2) -> Result<(), QsimError> {
        self.check_qubit(qubit)?;
        self.pass1(qubit, Some(Op1::of(u)), Channel::None);
        Ok(())
    }

    /// Applies a controlled single-qubit unitary (control must be `|1⟩`).
    ///
    /// # Errors
    ///
    /// * [`QsimError::QubitOutOfRange`] for a bad index.
    /// * [`QsimError::DuplicateQubit`] if `control == target`.
    pub fn apply_controlled(
        &mut self,
        control: usize,
        target: usize,
        u: &Gate2,
    ) -> Result<(), QsimError> {
        self.check_qubit(control)?;
        self.check_qubit(target)?;
        if control == target {
            return Err(QsimError::DuplicateQubit { qubit: control });
        }
        self.pass2(control, target, Op2::Controlled(General(*u)), Channel::None);
        Ok(())
    }

    /// Applies a diagonal unitary given its `2ⁿ` phases:
    /// `ρ_{jk} → φ_j ρ_{jk} φ_k*`.
    ///
    /// # Errors
    ///
    /// [`QsimError::DimensionMismatch`] if `phases.len() != dim()`.
    pub fn apply_diagonal(&mut self, phases: &[Complex64]) -> Result<(), QsimError> {
        if phases.len() != self.dim {
            return Err(QsimError::DimensionMismatch {
                expected: self.dim,
                actual: phases.len(),
            });
        }
        for (r, &pr) in phases.iter().enumerate() {
            for (c, &pc) in phases.iter().enumerate() {
                let i = r * self.dim + c;
                let e = Complex64::new(self.re[i], self.im[i]) * (pr * pc.conj());
                self.re[i] = e.re;
                self.im[i] = e.im;
            }
        }
        Ok(())
    }

    /// Applies a single-qubit Kraus channel: `ρ → Σ K ρ K†`.
    ///
    /// One pass over the qubit's `2×2` blocks. Depolarizing channels take
    /// their closed form (a real population blend and off-diagonal
    /// shrink); every other channel takes the Kraus sum per block.
    ///
    /// # Errors
    ///
    /// [`QsimError::QubitOutOfRange`] for a bad index.
    pub fn apply_channel(&mut self, qubit: usize, channel: &KrausChannel) -> Result<(), QsimError> {
        self.check_qubit(qubit)?;
        let channel = Channel::of(Some(channel));
        if !matches!(channel, Channel::None) {
            self.pass1(qubit, None, channel);
        }
        Ok(())
    }

    /// Applies one circuit gate (no noise).
    ///
    /// # Errors
    ///
    /// [`QsimError::QubitOutOfRange`] or [`QsimError::DuplicateQubit`]
    /// for bad qubit indices; ρ is then unchanged.
    pub fn apply_gate(&mut self, gate: &Gate) -> Result<(), QsimError> {
        gate.check(self.n_qubits)?;
        self.pass(gate, Channel::None, Channel::None);
        Ok(())
    }

    /// Runs a circuit with per-gate noise injection: after every gate the
    /// configured channel of `noise` hits the gate's qubits. Each gate and
    /// its channel take one pass over ρ.
    ///
    /// # Errors
    ///
    /// * [`QsimError::WidthMismatch`] if the circuit width differs.
    /// * The first [`QsimError::QubitOutOfRange`] or
    ///   [`QsimError::DuplicateQubit`] of [`Circuit::validate`].
    ///
    /// The whole circuit is checked before its first gate, so ρ is
    /// unchanged after any error.
    pub fn run(&mut self, circuit: &Circuit, noise: &NoiseModel) -> Result<(), QsimError> {
        if circuit.n_qubits() != self.n_qubits {
            return Err(QsimError::WidthMismatch {
                circuit: circuit.n_qubits(),
                state: self.n_qubits,
            });
        }
        circuit.validate()?;
        let after_1q = Channel::of(noise.after_1q.as_ref());
        let after_2q = Channel::of(noise.after_2q.as_ref());
        for gate in circuit.ops() {
            self.pass(gate, after_1q, after_2q);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const EPS: f64 = 1e-12;

    #[test]
    fn zero_state_is_pure() {
        let rho = DensityMatrix::zero_state(3).unwrap();
        assert_eq!(rho.n_qubits(), 3);
        assert_eq!(rho.dim(), 8);
        assert!((rho.trace() - 1.0).abs() < EPS);
        assert!((rho.purity() - 1.0).abs() < EPS);
        assert!((rho.probability(0) - 1.0).abs() < EPS);
    }

    #[test]
    fn plus_state_matches_state_vector() {
        let rho = DensityMatrix::plus_state(2).unwrap();
        for i in 0..4 {
            assert!((rho.probability(i) - 0.25).abs() < EPS);
        }
        assert!((rho.purity() - 1.0).abs() < EPS);
    }

    #[test]
    fn maximally_mixed_properties() {
        let rho = DensityMatrix::maximally_mixed(2).unwrap();
        assert!((rho.trace() - 1.0).abs() < EPS);
        assert!((rho.purity() - 0.25).abs() < EPS);
    }

    #[test]
    fn too_many_qubits_rejected() {
        assert!(matches!(
            DensityMatrix::zero_state(MAX_DM_QUBITS + 1),
            Err(QsimError::TooManyQubits { .. })
        ));
    }

    #[test]
    fn noiseless_run_matches_state_vector() {
        // A generic circuit touching every op variant.
        let mut c = Circuit::new(3);
        c.h(0)
            .h(1)
            .h(2)
            .rz(0, 0.7)
            .rx(1, 1.1)
            .ry(2, -0.4)
            .cnot(0, 1)
            .cz(1, 2)
            .x(0)
            .y(1)
            .z(2)
            .swap(0, 2);
        let psi = c.run(StateVector::zero_state(3)).unwrap();
        let mut rho = DensityMatrix::zero_state(3).unwrap();
        rho.run(&c, &NoiseModel::noiseless()).unwrap();
        let expected = DensityMatrix::from_state_vector(&psi).unwrap();
        for r in 0..8 {
            for col in 0..8 {
                assert!(
                    (rho.element(r, col) - expected.element(r, col)).abs() < 1e-10,
                    "mismatch at ({r},{col})"
                );
            }
        }
        assert!((rho.purity() - 1.0).abs() < 1e-10);
    }

    #[test]
    fn apply_diagonal_matches_state_vector() {
        let n = 2;
        let phases: Vec<Complex64> = (0..4).map(|i| Complex64::cis(0.3 * i as f64)).collect();
        let mut psi = StateVector::plus_state(n);
        psi.apply_diagonal(&phases).unwrap();
        let mut rho = DensityMatrix::plus_state(n).unwrap();
        rho.apply_diagonal(&phases).unwrap();
        let expected = DensityMatrix::from_state_vector(&psi).unwrap();
        for r in 0..4 {
            for c in 0..4 {
                assert!((rho.element(r, c) - expected.element(r, c)).abs() < EPS);
            }
        }
    }

    #[test]
    fn full_depolarizing_yields_maximally_mixed_qubit() {
        let mut rho = DensityMatrix::zero_state(1).unwrap();
        rho.apply_channel(0, &KrausChannel::depolarizing(1.0).unwrap())
            .unwrap();
        // ρ → (1/3)(XρX + YρY + ZρZ) at p=1: |0⟩⟨0| → diag(1/3, 2/3).
        assert!((rho.trace() - 1.0).abs() < EPS);
        assert!((rho.probability(0) - 1.0 / 3.0).abs() < EPS);
        assert!((rho.probability(1) - 2.0 / 3.0).abs() < EPS);
    }

    #[test]
    fn amplitude_damping_decays_excited_state() {
        let mut rho = DensityMatrix::zero_state(1).unwrap();
        rho.apply_single(0, &gates::x()).unwrap(); // |1⟩
        rho.apply_channel(0, &KrausChannel::amplitude_damping(0.3).unwrap())
            .unwrap();
        assert!((rho.probability(0) - 0.3).abs() < EPS);
        assert!((rho.probability(1) - 0.7).abs() < EPS);
        // Full damping returns to |0⟩.
        rho.apply_channel(0, &KrausChannel::amplitude_damping(1.0).unwrap())
            .unwrap();
        assert!((rho.probability(0) - 1.0).abs() < EPS);
    }

    #[test]
    fn phase_damping_kills_coherence_not_populations() {
        let mut rho = DensityMatrix::zero_state(1).unwrap();
        rho.apply_single(0, &gates::h()).unwrap(); // |+⟩
        let before = rho.element(0, 1).abs();
        rho.apply_channel(0, &KrausChannel::phase_damping(0.5).unwrap())
            .unwrap();
        let after = rho.element(0, 1).abs();
        assert!(after < before);
        assert!((rho.probability(0) - 0.5).abs() < EPS);
        assert!((rho.probability(1) - 0.5).abs() < EPS);
    }

    #[test]
    fn channels_preserve_trace_and_hermiticity() {
        let mut c = Circuit::new(2);
        c.h(0).cnot(0, 1).rz(1, 0.3).rx(0, 0.9);
        let nm = NoiseModel::uniform_depolarizing(0.01, 0.05).unwrap();
        let mut rho = DensityMatrix::zero_state(2).unwrap();
        rho.run(&c, &nm).unwrap();
        assert!((rho.trace() - 1.0).abs() < 1e-10);
        assert!(rho.hermiticity_deviation() < 1e-10);
        assert!(rho.purity() < 1.0);
        assert!(rho.purity() >= 0.25 - EPS);
    }

    #[test]
    fn noise_strictly_decreases_purity_with_rate() {
        let mut c = Circuit::new(2);
        c.h(0).cnot(0, 1);
        let mut last = 1.1;
        for p in [0.0, 0.02, 0.1, 0.3] {
            let nm = NoiseModel::uniform_depolarizing(p, p).unwrap();
            let mut rho = DensityMatrix::zero_state(2).unwrap();
            rho.run(&c, &nm).unwrap();
            assert!(rho.purity() < last, "p={p}");
            last = rho.purity();
        }
    }

    #[test]
    fn expectation_diagonal_limits() {
        // ZZ observable on a Bell state: ⟨ZZ⟩ = 1.
        let obs = DiagonalObservable::from_fn(2, |i| {
            let parity = (i.count_ones() % 2) as f64;
            1.0 - 2.0 * parity
        });
        let mut c = Circuit::new(2);
        c.h(0).cnot(0, 1);
        let mut rho = DensityMatrix::zero_state(2).unwrap();
        rho.run(&c, &NoiseModel::noiseless()).unwrap();
        assert!((rho.expectation_diagonal(&obs).unwrap() - 1.0).abs() < EPS);
        // Maximally mixed: ⟨ZZ⟩ = 0.
        let mixed = DensityMatrix::maximally_mixed(2).unwrap();
        assert!(mixed.expectation_diagonal(&obs).unwrap().abs() < EPS);
        // Dimension mismatch.
        let bad = DiagonalObservable::from_fn(3, |_| 1.0);
        assert!(matches!(
            mixed.expectation_diagonal(&bad),
            Err(QsimError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn width_and_index_errors() {
        let mut rho = DensityMatrix::zero_state(2).unwrap();
        let c3 = Circuit::new(3);
        assert!(matches!(
            rho.run(&c3, &NoiseModel::noiseless()),
            Err(QsimError::WidthMismatch { .. })
        ));
        assert!(matches!(
            rho.apply_single(5, &gates::x()),
            Err(QsimError::QubitOutOfRange { .. })
        ));
        assert!(matches!(
            rho.apply_controlled(0, 0, &gates::x()),
            Err(QsimError::DuplicateQubit { .. })
        ));
        assert!(matches!(
            rho.apply_diagonal(&[Complex64::ONE; 3]),
            Err(QsimError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn failed_run_leaves_state_unchanged() {
        let noise = NoiseModel::uniform_depolarizing(0.01, 0.05).unwrap();
        let mut rho = DensityMatrix::plus_state(2).unwrap();
        let before = rho.clone();
        let mut out_of_range = Circuit::new(2);
        out_of_range.h(0).cnot(0, 1).rz(1, 0.3).x(2);
        assert!(matches!(
            rho.run(&out_of_range, &noise),
            Err(QsimError::QubitOutOfRange { qubit: 2, .. })
        ));
        assert_eq!(rho, before);
        let mut duplicate = Circuit::new(2);
        duplicate.h(0).rx(1, 0.4).cz(1, 1);
        assert!(matches!(
            rho.run(&duplicate, &noise),
            Err(QsimError::DuplicateQubit { qubit: 1 })
        ));
        assert_eq!(rho, before);
    }

    #[test]
    fn swap_decomposition_correct() {
        // |01⟩ → |10⟩ under SWAP (qubit 0 is the low bit).
        let mut rho = DensityMatrix::zero_state(2).unwrap();
        rho.apply_single(0, &gates::x()).unwrap(); // index 1 = |q1=0,q0=1⟩
        rho.apply_gate(&Gate::Swap { a: 0, b: 1 }).unwrap();
        assert!((rho.probability(2) - 1.0).abs() < EPS);
    }
}
