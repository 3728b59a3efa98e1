//! The blocked parallel Gaussian elimination of the paper's evaluation
//! (§5–§6): trace generation for the predictor, plus a real multithreaded
//! execution for numerical validation.
//!
//! "The parallel version of the algorithm … is based on the observation
//! that each iteration of the sequential algorithm can be regarded as a
//! diagonal wave traversing the matrix from the upper left corner to the
//! lower right corner." [`trace::generate`] derives that wave exactly: it
//! groups the blocked elimination's basic operations (Op1–Op4 on a grid
//! of B×B blocks) by their level in the dependency DAG (the wavefronts,
//! three per iteration in closed form), charges each processor the
//! cost-model time of the operations it owns per wave, and emits one
//! communication pattern per wave for the block transfers that cross
//! processors — the oblivious [`predsim_core::Program`] the predictor
//! consumes.
//!
//! [`parallel::factorize`] executes the same schedule with real `f64`
//! arithmetic on real threads (`std::sync::mpsc` channels carrying
//! blocks), and is checked against the sequential reference — this is the
//! repo's substitute for the paper's Split-C implementation on the Meiko
//! CS-2.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod parallel;
pub mod trace;
pub mod varblock;

pub use trace::{generate, GeProgram};

/// The paper's matrix size: 960 × 960 elements.
///
/// The scan reads "9?? × 9?? matrix … divided into blocks"; 960 is the
/// value in that range divisible by every recovered block size.
pub const MATRIX_N: usize = 960;

/// The paper's block-size candidate set: fourteen divisors of
/// [`MATRIX_N`] from 10 to 160 (not 32 or 64), matching the count in the
/// scan.
pub const PAPER_BLOCK_SIZES: [usize; 14] =
    [10, 12, 15, 16, 20, 24, 30, 40, 48, 60, 80, 96, 120, 160];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_sizes_divide_matrix() {
        for b in PAPER_BLOCK_SIZES {
            assert_eq!(MATRIX_N % b, 0, "{b} does not divide {MATRIX_N}");
        }
    }

    #[test]
    fn block_sizes_sorted_unique() {
        let mut sorted = PAPER_BLOCK_SIZES.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted, PAPER_BLOCK_SIZES.to_vec());
    }
}
