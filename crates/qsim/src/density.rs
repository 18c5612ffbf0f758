//! Mixed-state simulation: [`DensityMatrix`] with depolarizing noise after
//! every gate.
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
//!   once, computing the channel of `U B U†` in registers;
//! * CNOT becomes an index permutation, applied while a `4×4` block is
//!   gathered, and the channel on both qubits then runs on that block's
//!   `2×2` sub-blocks before it is stored.
//!
//! The circuit gates are those of the QAOA circuit (H, RX, RZ and CNOT),
//! and the only channel is depolarizing, in its closed form.
//!
//! Blocks are disjoint, so the order in which a pass visits them does not
//! change any result.
//!
//! A pass computes two blocks at once, one in each lane of a two-wide
//! `Pair`: the blocks whose column bases differ in the lowest column bit
//! outside the pass's qubits. When qubit 0 is not in the pass, that bit is
//! bit 0, and both lanes of an element are one aligned pair of `f64`s.
//! When it is, the lanes are the two halves of an aligned run of four.
//! Every index is masked by the plane's power-of-two length. The mask never
//! changes an index, but it lets the compiler drop the bounds checks, so a
//! block's loads, arithmetic and stores form one branch-free run that the
//! compiler packs into SIMD registers. A loop over contiguous column runs
//! vectorizes only where the runs are long, on the top qubit alone; the
//! lane pairs vectorize every pass except a one-qubit pass on qubit 0,
//! which stays scalar. Gate and channel kind are dispatched once per pass
//! into monomorphized block arithmetic. Lanes never mix, so every element
//! undergoes the same operations in the same order as in a pass over one
//! block at a time.
//!
//! # Arithmetic contract
//!
//! Each single-qubit matrix is classified by its exact zeros — diagonal
//! (RZ), real (H), real diagonal with imaginary off-diagonal (RX), or
//! general (any other matrix given to [`DensityMatrix::apply_single`]) —
//! and its block arithmetic drops every product with an exact-zero factor.
//! Every other floating-point operation is the one the full complex
//! `U ρ U†` products perform, in the same order. Dropping `0 · x` changes
//! at most the sign of a zero, so each element equals the full-product
//! result up to the sign of zero, and
//! [`DensityMatrix::trace`], [`DensityMatrix::probabilities`] and
//! [`DensityMatrix::expectation_diagonal`] are bit-identical to it. The
//! test suite checks this against the full-product kernels
//! (`tests/tests/density_parity.rs`).

use crate::channels::{check_probability, NoiseModel};
use crate::circuit::{Circuit, Gate};
use crate::gates::{self, Gate2};
use crate::{Complex64, DiagonalObservable, QsimError, StateVector};
use std::ops::{Add, Mul, Sub};

/// Widest register the density-matrix simulator will allocate
/// (`4^n` complex entries; 12 qubits ≈ 256 MiB).
pub const MAX_DM_QUBITS: usize = 12;

/// A mixed quantum state ρ on `n` qubits: a dense `2ⁿ × 2ⁿ` complex
/// matrix stored as split real and imaginary row-major planes.
///
/// The state-vector simulator ([`StateVector`]) covers the paper's
/// noiseless experiments; this type extends the substrate to depolarizing
/// gate noise ([`NoiseModel`]), enabling the `noisy_qaoa` study of the
/// two-level flow under gate errors. Qubit index conventions (bit `q`
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

/// One complex number in each of two lanes: the same arithmetic on two
/// independent blocks of ρ. Every operation is written lane by lane, so the
/// compiler packs each plane of a `Pair` into one SIMD register, and each
/// lane performs exactly the operations of the [`Complex64`] operator of
/// the same name.
#[derive(Debug, Clone, Copy)]
struct Pair {
    re: [f64; 2],
    im: [f64; 2],
}

/// `[f(0), f(1)]`: one lane-wise operation.
#[inline(always)]
fn lanes(f: impl Fn(usize) -> f64) -> [f64; 2] {
    [f(0), f(1)]
}

impl Pair {
    const ZERO: Self = Self {
        re: [0.0; 2],
        im: [0.0; 2],
    };

    /// [`Complex64::scale`] in each lane.
    #[inline(always)]
    fn scale(self, s: f64) -> Self {
        Self {
            re: lanes(|k| self.re[k] * s),
            im: lanes(|k| self.im[k] * s),
        }
    }

    /// [`Complex64::mul_i`] in each lane.
    #[inline(always)]
    fn mul_i(self) -> Self {
        Self {
            re: lanes(|k| -self.im[k]),
            im: self.re,
        }
    }
}

impl Add for Pair {
    type Output = Pair;
    #[inline(always)]
    fn add(self, rhs: Pair) -> Pair {
        Pair {
            re: lanes(|k| self.re[k] + rhs.re[k]),
            im: lanes(|k| self.im[k] + rhs.im[k]),
        }
    }
}

impl Sub for Pair {
    type Output = Pair;
    #[inline(always)]
    fn sub(self, rhs: Pair) -> Pair {
        Pair {
            re: lanes(|k| self.re[k] - rhs.re[k]),
            im: lanes(|k| self.im[k] - rhs.im[k]),
        }
    }
}

/// `a * x`: the [`Complex64`] product with `a` on the left.
impl Mul<Pair> for Complex64 {
    type Output = Pair;
    #[inline(always)]
    fn mul(self, x: Pair) -> Pair {
        Pair {
            re: lanes(|k| self.re * x.re[k] - self.im * x.im[k]),
            im: lanes(|k| self.re * x.im[k] + self.im * x.re[k]),
        }
    }
}

/// `x * a`: the [`Complex64`] product with `a` on the right.
impl Mul<Complex64> for Pair {
    type Output = Pair;
    #[inline(always)]
    fn mul(self, a: Complex64) -> Pair {
        Pair {
            re: lanes(|k| self.re[k] * a.re - self.im[k] * a.im),
            im: lanes(|k| self.re[k] * a.im + self.im[k] * a.re),
        }
    }
}

/// `s * x`: [`Complex64::scale`].
impl Mul<Pair> for f64 {
    type Output = Pair;
    #[inline(always)]
    fn mul(self, x: Pair) -> Pair {
        x.scale(self)
    }
}

/// A `2×2` block of ρ in each lane: `[[b00, b01], [b10, b11]]`.
type Block2 = [[Pair; 2]; 2];

/// A `4×4` block of ρ in each lane, over the local index `bit_lo + 2·bit_hi`
/// of the lower and the higher of its two qubits.
type Block4 = [[Pair; 4]; 4];

/// The block arithmetic of one single-qubit matrix `U`.
trait Kernel: Copy {
    /// `U (x0, x1)ᵀ`: the left product on one column of a block.
    fn left(self, x0: Pair, x1: Pair) -> (Pair, Pair);

    /// `(x0, x1) U†`: the right product on one row of a block.
    fn right_adjoint(self, x0: Pair, x1: Pair) -> (Pair, Pair);

    /// `B → U B U†`: both left products, then both right ones.
    #[inline(always)]
    fn conjugate(self, [[b00, b01], [b10, b11]]: Block2) -> Block2 {
        let (b00, b10) = self.left(b00, b10);
        let (b01, b11) = self.left(b01, b11);
        let (b00, b01) = self.right_adjoint(b00, b01);
        let (b10, b11) = self.right_adjoint(b10, b11);
        [[b00, b01], [b10, b11]]
    }
}

/// No gate: a channel on its own.
#[derive(Debug, Clone, Copy)]
struct NoGate;

impl Kernel for NoGate {
    #[inline(always)]
    fn left(self, x0: Pair, x1: Pair) -> (Pair, Pair) {
        (x0, x1)
    }

    #[inline(always)]
    fn right_adjoint(self, x0: Pair, x1: Pair) -> (Pair, Pair) {
        (x0, x1)
    }
}

/// `diag(d0, d1)` (RZ, phase gates).
#[derive(Debug, Clone, Copy)]
struct Diagonal(Complex64, Complex64);

impl Kernel for Diagonal {
    #[inline(always)]
    fn left(self, x0: Pair, x1: Pair) -> (Pair, Pair) {
        (self.0 * x0, self.1 * x1)
    }

    #[inline(always)]
    fn right_adjoint(self, x0: Pair, x1: Pair) -> (Pair, Pair) {
        (x0 * self.0.conj(), x1 * self.1.conj())
    }
}

/// A matrix with every entry real (H).
#[derive(Debug, Clone, Copy)]
struct Real([[f64; 2]; 2]);

impl Kernel for Real {
    #[inline(always)]
    fn left(self, x0: Pair, x1: Pair) -> (Pair, Pair) {
        let [[a, b], [c, d]] = self.0;
        (x0.scale(a) + x1.scale(b), x0.scale(c) + x1.scale(d))
    }

    /// `U† = Uᵀ`, and `(x0, x1) Uᵀ` is `U (x0, x1)ᵀ` entry for entry.
    #[inline(always)]
    fn right_adjoint(self, x0: Pair, x1: Pair) -> (Pair, Pair) {
        self.left(x0, x1)
    }
}

/// `[[d0, i·o0], [i·o1, d1]]` with real `d` and `o` (RX).
#[derive(Debug, Clone, Copy)]
struct RealDiagImagOff {
    d: [f64; 2],
    o: [f64; 2],
}

impl Kernel for RealDiagImagOff {
    #[inline(always)]
    fn left(self, x0: Pair, x1: Pair) -> (Pair, Pair) {
        let ([d0, d1], [o0, o1]) = (self.d, self.o);
        (
            x0.scale(d0) + x1.mul_i().scale(o0),
            x0.mul_i().scale(o1) + x1.scale(d1),
        )
    }

    #[inline(always)]
    fn right_adjoint(self, x0: Pair, x1: Pair) -> (Pair, Pair) {
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
    fn left(self, x0: Pair, x1: Pair) -> (Pair, Pair) {
        let [[a, b], [c, d]] = self.0;
        (a * x0 + b * x1, c * x0 + d * x1)
    }

    #[inline(always)]
    fn right_adjoint(self, x0: Pair, x1: Pair) -> (Pair, Pair) {
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

/// The arithmetic of one pass on a `G×G` block.
trait BlockOp<const G: usize>: Copy {
    /// The local index each row and column of the block is loaded from:
    /// the pass's index permutation.
    #[inline(always)]
    fn gather(self) -> [usize; G] {
        std::array::from_fn(|i| i)
    }

    /// The arithmetic after the gather, in place.
    fn apply(self, block: &mut [[Pair; G]; G]);
}

/// A single-qubit pass: `gate`, then `channel`, on each `2×2` block.
#[derive(Debug, Clone, Copy)]
struct OneQubit<K, C> {
    gate: K,
    channel: C,
}

impl<K: Kernel, C: BlockChannel> BlockOp<2> for OneQubit<K, C> {
    #[inline(always)]
    fn apply(self, block: &mut Block2) {
        *block = self.channel.apply(self.gate.conjugate(*block));
    }
}

/// A CNOT pass, `a` controlling `b`: the permutation that swaps the two
/// local indices with `a` set, then `channel` on `a` and then on `b`.
/// `A_LOW` says whether `a` is the lower qubit.
#[derive(Debug, Clone, Copy)]
struct Cnot<C, const A_LOW: bool> {
    channel: C,
}

impl<C: BlockChannel, const A_LOW: bool> BlockOp<4> for Cnot<C, A_LOW> {
    #[inline(always)]
    fn gather(self) -> [usize; 4] {
        if A_LOW {
            [0, 3, 2, 1]
        } else {
            [0, 1, 3, 2]
        }
    }

    #[inline(always)]
    fn apply(self, block: &mut Block4) {
        let (first, second) = if A_LOW { (1, 2) } else { (2, 1) };
        self.channel.apply_twice(first, second, block);
    }
}

/// A noise channel, classified once per [`DensityMatrix::run`].
#[derive(Debug, Clone, Copy)]
enum Channel {
    /// No channel: depolarizing at `p = 0`.
    None,
    Depolarizing(Depolarizing),
}

impl Channel {
    /// The depolarizing channel at the checked rate `p`.
    fn of(p: f64) -> Self {
        if p == 0.0 {
            return Channel::None;
        }
        Channel::Depolarizing(Depolarizing {
            keep: 1.0 - 2.0 * p / 3.0,
            swap: 2.0 * p / 3.0,
            shrink: 1.0 - 4.0 * p / 3.0,
        })
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

/// The channel arithmetic on one `2×2` block.
trait BlockChannel: Copy {
    fn apply(self, block: Block2) -> Block2;

    /// The channel on every `2×2` sub-block of a [`Block4`] on local bit
    /// `first` (1 for the lower qubit, 2 for the higher one), then on
    /// local bit `second`.
    #[inline(always)]
    fn apply_twice(self, first: usize, second: usize, block: &mut Block4) {
        for d in [first, second] {
            let o = 3 - d;
            for (r, c) in [(0, 0), (0, o), (o, 0), (o, o)] {
                let [[b00, b01], [b10, b11]] = self.apply([
                    [block[r][c], block[r][c + d]],
                    [block[r + d][c], block[r + d][c + d]],
                ]);
                (block[r][c], block[r][c + d]) = (b00, b01);
                (block[r + d][c], block[r + d][c + d]) = (b10, b11);
            }
        }
    }
}

/// No channel.
#[derive(Debug, Clone, Copy)]
struct Noiseless;

impl BlockChannel for Noiseless {
    #[inline(always)]
    fn apply(self, block: Block2) -> Block2 {
        block
    }

    /// Nothing: copying every sub-block through the identity would cost as
    /// much as the pass itself.
    #[inline(always)]
    fn apply_twice(self, _: usize, _: usize, _: &mut Block4) {}
}

impl BlockChannel for Depolarizing {
    #[inline(always)]
    fn apply(self, [[b00, b01], [b10, b11]]: Block2) -> Block2 {
        [
            [self.keep * b00 + self.swap * b11, self.shrink * b01],
            [self.shrink * b10, self.swap * b00 + self.keep * b11],
        ]
    }

    /// [`Depolarizing::apply`] on every sub-block, one class `k` of
    /// elements `(i, i ^ k)` at a time: a sub-block mixes only its two
    /// diagonal elements, which share `i ^ j`, so each class of four stays
    /// closed under both channels and only four elements are live. Every
    /// element gets the operations of the sub-block form in the same order
    /// (the two products of a blend are added in either order, which is the
    /// same sum).
    #[inline(always)]
    fn apply_twice(self, first: usize, second: usize, block: &mut Block4) {
        for k in 0..4 {
            let mut x = [
                block[0][k],
                block[1][1 ^ k],
                block[2][2 ^ k],
                block[3][3 ^ k],
            ];
            for d in [first, second] {
                let y = x;
                for (i, z) in x.iter_mut().enumerate() {
                    *z = if k & d == 0 {
                        self.keep * y[i] + self.swap * y[i ^ d]
                    } else {
                        self.shrink * y[i]
                    };
                }
            }
            [
                block[0][k],
                block[1][1 ^ k],
                block[2][2 ^ k],
                block[3][3 ^ k],
            ] = x;
        }
    }
}

/// Where the two lanes of one element of a pass sit in a plane.
///
/// A plane of `4ⁿ` values is viewed as a slice of `Unit`s whose length is a
/// power of two, and every index is masked by that length: the mask never
/// changes an index (every index of a pass is in range), but it lets the
/// compiler drop the bounds checks, so each block's loads, arithmetic and
/// stores form one branch-free run that it packs into SIMD registers.
trait Lanes: Copy {
    type Unit;

    /// The plane `x` of a `2^bits`-value ρ as units.
    fn view(self, x: &mut [f64], bits: usize) -> &mut [Self::Unit];

    /// The lanes of the value at `i`, in local column `j` of its block.
    fn load(self, units: &[Self::Unit], i: usize, j: usize) -> [f64; 2];

    /// Writes the lanes of the value at `i`, in local column `j`.
    fn store(self, units: &mut [Self::Unit], i: usize, j: usize, value: [f64; 2]);
}

/// Lanes in the adjacent columns `i` and `i + 1`, with `i` even: one
/// aligned pair of the plane. For every pass whose qubits are all above
/// qubit 0.
#[derive(Debug, Clone, Copy)]
struct Adjacent;

impl Lanes for Adjacent {
    type Unit = [f64; 2];

    #[inline(always)]
    fn view(self, x: &mut [f64], bits: usize) -> &mut [[f64; 2]] {
        &mut x.as_chunks_mut().0[..1 << (bits - 1)]
    }

    #[inline(always)]
    fn load(self, units: &[[f64; 2]], i: usize, _: usize) -> [f64; 2] {
        units[(i >> 1) & (units.len() - 1)]
    }

    #[inline(always)]
    fn store(self, units: &mut [[f64; 2]], i: usize, _: usize, value: [f64; 2]) {
        let mask = units.len() - 1;
        units[(i >> 1) & mask] = value;
    }
}

/// Lanes in the columns `i` and `i + 2` of one aligned run of four values,
/// whose bit 0 is qubit 0, the pass's lower qubit, and bit 1 is not in
/// the pass: bit 0 of the local column `j` picks the value's place in each
/// half of the run.
#[derive(Debug, Clone, Copy)]
struct Interleaved;

impl Lanes for Interleaved {
    type Unit = [f64; 4];

    #[inline(always)]
    fn view(self, x: &mut [f64], bits: usize) -> &mut [[f64; 4]] {
        &mut x.as_chunks_mut().0[..1 << (bits - 2)]
    }

    #[inline(always)]
    fn load(self, units: &[[f64; 4]], i: usize, j: usize) -> [f64; 2] {
        let unit = units[(i >> 2) & (units.len() - 1)];
        [unit[j & 1], unit[(j & 1) + 2]]
    }

    #[inline(always)]
    fn store(self, units: &mut [[f64; 4]], i: usize, j: usize, [v0, v1]: [f64; 2]) {
        let mask = units.len() - 1;
        let unit = &mut units[(i >> 2) & mask];
        unit[j & 1] = v0;
        unit[(j & 1) + 2] = v1;
    }
}

/// Lanes in the columns `i` and `i + step`; a step of 0 runs one block in
/// both lanes. For the passes the other placements do not cover: qubits 0
/// and 1 together, and a pass on every qubit of the register.
#[derive(Debug, Clone, Copy)]
struct Strided(usize);

impl Lanes for Strided {
    type Unit = f64;

    #[inline(always)]
    fn view(self, x: &mut [f64], bits: usize) -> &mut [f64] {
        &mut x[..1 << bits]
    }

    #[inline(always)]
    fn load(self, units: &[f64], i: usize, _: usize) -> [f64; 2] {
        let mask = units.len() - 1;
        [units[i & mask], units[(i + self.0) & mask]]
    }

    #[inline(always)]
    fn store(self, units: &mut [f64], i: usize, _: usize, [v0, v1]: [f64; 2]) {
        let mask = units.len() - 1;
        units[(i + self.0) & mask] = v1;
        units[i & mask] = v0;
    }
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

    /// Maps every `G×G` block of ρ on the qubits of `mask` through `op`,
    /// two blocks per call. For the block at row and column bases `r` and
    /// `c` (every bit of `mask` clear), `op` gets `ρ[r + axis[g[i]], c +
    /// axis[g[j]]]` at `[i][j]`, where `g` is [`BlockOp::gather`], and its
    /// result at `[i][j]` goes back to `ρ[r + axis[i], c + axis[j]]`.
    ///
    /// The two lanes are the blocks at `c` and `c + step`, where `step` is
    /// the lowest column bit outside `mask`. For a pass above qubit 0 that
    /// is the adjacent column, so each value's lanes are one aligned pair
    /// of the plane; with qubit 0 in the pass they are the two halves of a
    /// run of four.
    fn sweep<const G: usize>(&mut self, mask: usize, axis: [usize; G], op: impl BlockOp<G>) {
        let step = !mask & (mask + 1);
        if step == 1 {
            self.sweep_lanes(Adjacent, mask | step, mask, axis, op);
        } else if step == 2 && step < self.dim {
            self.sweep_lanes(Interleaved, mask | step, mask, axis, op);
        } else if step < self.dim {
            self.sweep_lanes(Strided(step), mask | step, mask, axis, op);
        } else {
            // Every bit is in `mask`: one block, run in both lanes.
            self.sweep_lanes(Strided(0), mask, mask, axis, op);
        }
    }

    /// [`DensityMatrix::sweep`] for one lane placement: `col_mask` holds
    /// the column bits that are clear in the first lane's bases.
    fn sweep_lanes<const G: usize, L: Lanes>(
        &mut self,
        lanes: L,
        col_mask: usize,
        mask: usize,
        axis: [usize; G],
        op: impl BlockOp<G>,
    ) {
        let (dim, bits) = (self.dim, 2 * self.n_qubits);
        let (re, im) = (
            lanes.view(&mut self.re, bits),
            lanes.view(&mut self.im, bits),
        );
        let from = op.gather();
        // Every element of `block` is loaded before it is read.
        let mut block = [[Pair::ZERO; G]; G];
        // Setting the masked bits, adding one and clearing them again steps
        // to the next index with every masked bit clear.
        let mut r = 0;
        while r < dim {
            let mut at = [[0; G]; G];
            for (row, &i) in at.iter_mut().zip(&axis) {
                for (k, &j) in row.iter_mut().zip(&axis) {
                    *k = (r + i) * dim + j;
                }
            }
            let mut c = 0;
            while c < dim {
                for i in 0..G {
                    for j in 0..G {
                        let (fi, fj) = (from[i], from[j]);
                        block[i][j] = Pair {
                            re: lanes.load(re, at[fi][fj] + c, fj),
                            im: lanes.load(im, at[fi][fj] + c, fj),
                        };
                    }
                }
                op.apply(&mut block);
                for i in 0..G {
                    for j in 0..G {
                        lanes.store(re, at[i][j] + c, j, block[i][j].re);
                        lanes.store(im, at[i][j] + c, j, block[i][j].im);
                    }
                }
                c = ((c | col_mask) + 1) & !col_mask;
            }
            r = ((r | mask) + 1) & !mask;
        }
    }

    /// One pass of the single-qubit gate `gate` and then `channel` on
    /// `qubit`. The caller has checked `qubit`.
    fn pass1(&mut self, qubit: usize, gate: Option<Op1>, channel: Channel) {
        match channel {
            Channel::None => self.pass1_with(qubit, gate, Noiseless),
            Channel::Depolarizing(d) => self.pass1_with(qubit, gate, d),
        }
    }

    /// [`DensityMatrix::pass1`] for one channel kind: one sweep per gate
    /// kind, so each sweep runs straight-line block arithmetic.
    fn pass1_with(&mut self, qubit: usize, gate: Option<Op1>, channel: impl BlockChannel) {
        let s = 1 << qubit;
        let axis = [0, s];
        match gate {
            None => self.sweep(
                s,
                axis,
                OneQubit {
                    gate: NoGate,
                    channel,
                },
            ),
            Some(Op1::Diagonal(gate)) => self.sweep(s, axis, OneQubit { gate, channel }),
            Some(Op1::Real(gate)) => self.sweep(s, axis, OneQubit { gate, channel }),
            Some(Op1::RealDiagImagOff(gate)) => self.sweep(s, axis, OneQubit { gate, channel }),
            Some(Op1::General(gate)) => self.sweep(s, axis, OneQubit { gate, channel }),
        }
    }

    /// One pass of CNOT on `(a, b)` and then `channel` on `a` and on `b`.
    /// The caller has checked `a` and `b`.
    fn pass2(&mut self, a: usize, b: usize, channel: Channel) {
        match channel {
            Channel::None => self.pass2_with(a, b, Noiseless),
            Channel::Depolarizing(d) => self.pass2_with(a, b, d),
        }
    }

    /// [`DensityMatrix::pass2`] for one channel kind: one sweep per order
    /// of `a` and `b`, so the permutation and the channel order are fixed
    /// in each sweep's block arithmetic.
    fn pass2_with(&mut self, a: usize, b: usize, channel: impl BlockChannel) {
        let (lo, hi) = (1 << a.min(b), 1 << a.max(b));
        let (axis, mask) = ([0, lo, hi, lo | hi], lo | hi);
        if a < b {
            self.sweep(mask, axis, Cnot::<_, true> { channel });
        } else {
            self.sweep(mask, axis, Cnot::<_, false> { channel });
        }
    }

    /// One pass of `gate` and the channel `noise` puts after it. The
    /// caller has checked the gate's qubits.
    fn pass(&mut self, gate: &Gate, after_1q: Channel, after_2q: Channel) {
        let (qubit, u) = match *gate {
            Gate::Cnot { control, target } => return self.pass2(control, target, after_2q),
            Gate::H(q) => (q, gates::h()),
            Gate::Rx { qubit, theta } => (qubit, gates::rx(theta)),
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

    /// Applies the depolarizing channel at rate `p` to `qubit`:
    /// `ρ → (1−p) ρ + p/3 (XρX + YρY + ZρZ)`.
    ///
    /// One pass over the qubit's `2×2` blocks in the channel's closed form
    /// (a real population blend and off-diagonal shrink); `p = 0` leaves ρ
    /// as it is.
    ///
    /// # Errors
    ///
    /// [`QsimError::QubitOutOfRange`] for a bad index, or
    /// [`QsimError::InvalidChannel`] unless `p` is finite and in `[0, 1]`;
    /// ρ is then unchanged.
    pub fn apply_depolarizing(&mut self, qubit: usize, p: f64) -> Result<(), QsimError> {
        self.check_qubit(qubit)?;
        check_probability(p)?;
        let channel = Channel::of(p);
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
        let after_1q = Channel::of(noise.p1);
        let after_2q = Channel::of(noise.p2);
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
            .rx(2, -0.4)
            .cnot(0, 1)
            .cnot(2, 1)
            .rz(2, 1.9)
            .cnot(2, 0)
            .h(1);
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
    fn full_depolarizing_yields_maximally_mixed_qubit() {
        let mut rho = DensityMatrix::zero_state(1).unwrap();
        rho.apply_depolarizing(0, 1.0).unwrap();
        // ρ → (1/3)(XρX + YρY + ZρZ) at p=1: |0⟩⟨0| → diag(1/3, 2/3).
        assert!((rho.trace() - 1.0).abs() < EPS);
        assert!((rho.probability(0) - 1.0 / 3.0).abs() < EPS);
        assert!((rho.probability(1) - 2.0 / 3.0).abs() < EPS);
    }

    #[test]
    fn depolarizing_rejects_bad_rates_and_qubits() {
        let mut rho = DensityMatrix::plus_state(2).unwrap();
        let before = rho.clone();
        for p in [-0.1, 1.1, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert!(
                matches!(
                    rho.apply_depolarizing(0, p),
                    Err(QsimError::InvalidChannel { .. })
                ),
                "p = {p}"
            );
        }
        assert!(matches!(
            rho.apply_depolarizing(2, 0.1),
            Err(QsimError::QubitOutOfRange { qubit: 2, .. })
        ));
        assert_eq!(rho, before);
        rho.apply_depolarizing(1, 0.0).unwrap();
        assert_eq!(rho, before);
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
    }

    #[test]
    fn failed_run_leaves_state_unchanged() {
        let noise = NoiseModel::uniform_depolarizing(0.01, 0.05).unwrap();
        let mut rho = DensityMatrix::plus_state(2).unwrap();
        let before = rho.clone();
        let mut out_of_range = Circuit::new(2);
        out_of_range.h(0).cnot(0, 1).rz(1, 0.3).h(2);
        assert!(matches!(
            rho.run(&out_of_range, &noise),
            Err(QsimError::QubitOutOfRange { qubit: 2, .. })
        ));
        assert_eq!(rho, before);
        let mut duplicate = Circuit::new(2);
        duplicate.h(0).rx(1, 0.4).cnot(1, 1);
        assert!(matches!(
            rho.run(&duplicate, &noise),
            Err(QsimError::DuplicateQubit { qubit: 1 })
        ));
        assert_eq!(rho, before);
    }

    #[test]
    fn swap_decomposition_correct() {
        // |01⟩ → |10⟩ under SWAP as three CNOTs (qubit 0 is the low bit):
        // the CNOT pass with either qubit as the lower one.
        let psi = StateVector::basis_state(2, 0b01);
        let mut rho = DensityMatrix::from_state_vector(&psi).unwrap();
        for (control, target) in [(0, 1), (1, 0), (0, 1)] {
            rho.apply_gate(&Gate::Cnot { control, target }).unwrap();
        }
        assert!((rho.probability(0b10) - 1.0).abs() < EPS);
        assert!((rho.purity() - 1.0).abs() < EPS);
    }
}
