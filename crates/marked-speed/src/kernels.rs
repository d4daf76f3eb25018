//! The three NPB-flavoured micro-kernels with exact flop accounting.
//!
//! Each kernel executes real floating-point work on deterministic input
//! and returns a checksum (so the optimizer cannot delete the work) plus
//! its flop count. Flop counts use the standard conventions: one add,
//! subtract, multiply or divide = one flop; complex multiply-add in the
//! FFT butterflies = 10 flops per butterfly.

/// Which micro-kernel to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BenchKernel {
    /// Dense LU factorization without pivoting.
    Lu,
    /// Iterative radix-2 complex FFT.
    Ft,
    /// Repeated tridiagonal (Thomas) solves.
    Bt,
}

impl BenchKernel {
    /// All kernels, in suite order.
    pub const ALL: [BenchKernel; 3] = [BenchKernel::Lu, BenchKernel::Ft, BenchKernel::Bt];

    /// Display name used in Table 1 output.
    pub fn name(self) -> &'static str {
        match self {
            BenchKernel::Lu => "LU",
            BenchKernel::Ft => "FT",
            BenchKernel::Bt => "BT",
        }
    }
}

/// One kernel execution: checksum (anti-dead-code) and flops performed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KernelRun {
    /// Which kernel ran.
    pub kernel: BenchKernel,
    /// Problem size parameter.
    pub size: usize,
    /// Floating-point operations performed.
    pub flops: f64,
    /// Value that must be consumed by the caller.
    pub checksum: f64,
}

/// Runs the requested kernel at the given size.
pub fn run_kernel(kernel: BenchKernel, size: usize) -> KernelRun {
    match kernel {
        BenchKernel::Lu => lu_kernel(size),
        BenchKernel::Ft => ft_kernel(size),
        BenchKernel::Bt => bt_kernel(size),
    }
}

/// Deterministic pseudo-random fill (tiny xorshift; no crate needed here
/// and reproducible forever).
fn fill_pseudo(data: &mut [f64], mut state: u64) {
    for v in data.iter_mut() {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        *v = ((state >> 11) as f64 / (1u64 << 53) as f64) - 0.5;
    }
}

/// Dense LU factorization (Doolittle, no pivoting) of a diagonally
/// dominant `n × n` matrix. Flops: `Σ_k (n−k−1)·(1 + 2·(n−k−1))` —
/// asymptotically `⅔·n³`.
pub fn lu_kernel(n: usize) -> KernelRun {
    let mut a = vec![0.0f64; n * n];
    fill_pseudo(&mut a, 0x9E3779B97F4A7C15);
    // Make it diagonally dominant so no pivoting is needed.
    for i in 0..n {
        let off: f64 = (0..n).filter(|&j| j != i).map(|j| a[i * n + j].abs()).sum();
        a[i * n + i] = off + 1.0;
    }

    let mut flops = 0.0f64;
    for k in 0..n {
        let pivot = a[k * n + k];
        for i in (k + 1)..n {
            let factor = a[i * n + k] / pivot;
            a[i * n + k] = factor;
            flops += 1.0;
            for j in (k + 1)..n {
                a[i * n + j] -= factor * a[k * n + j];
            }
            flops += 2.0 * (n - k - 1) as f64;
        }
    }
    let checksum = a.iter().sum();
    KernelRun { kernel: BenchKernel::Lu, size: n, flops, checksum }
}

/// Iterative radix-2 complex FFT of length `n` (a power of two).
/// Flops: `5·n·log₂n` using the convention of 10 flops per butterfly
/// (4 mul + 6 add/sub for the complex twiddle multiply and combine).
///
/// # Panics
/// Panics unless `n` is a power of two and ≥ 2.
pub fn ft_kernel(n: usize) -> KernelRun {
    assert!(n >= 2 && n.is_power_of_two(), "FFT size must be a power of two ≥ 2");
    let mut re = vec![0.0f64; n];
    let mut im = vec![0.0f64; n];
    fill_pseudo(&mut re, 0xD1B54A32D192ED03);
    fill_pseudo(&mut im, 0x2545F4914F6CDD1D);

    // Bit-reversal permutation.
    let bits = n.trailing_zeros();
    for i in 0..n {
        let j = i.reverse_bits() >> (usize::BITS - bits);
        if j > i {
            re.swap(i, j);
            im.swap(i, j);
        }
    }

    // Butterflies.
    let mut flops = 0.0f64;
    let mut len = 2;
    while len <= n {
        let ang = -2.0 * std::f64::consts::PI / len as f64;
        let (wr0, wi0) = (ang.cos(), ang.sin());
        let mut start = 0;
        while start < n {
            let (mut wr, mut wi) = (1.0f64, 0.0f64);
            for k in 0..len / 2 {
                let i = start + k;
                let j = i + len / 2;
                // t = w * x[j]
                let tr = wr * re[j] - wi * im[j];
                let ti = wr * im[j] + wi * re[j];
                re[j] = re[i] - tr;
                im[j] = im[i] - ti;
                re[i] += tr;
                im[i] += ti;
                // w *= w0
                let nwr = wr * wr0 - wi * wi0;
                wi = wr * wi0 + wi * wr0;
                wr = nwr;
                flops += 10.0;
            }
            start += len;
        }
        len <<= 1;
    }
    let checksum = re.iter().sum::<f64>() + im.iter().sum::<f64>();
    KernelRun { kernel: BenchKernel::Ft, size: n, flops, checksum }
}

/// `sweeps` tridiagonal solves of size `n` by the Thomas algorithm.
/// Flops per sweep: `3·(n−1)` forward elimination + `1 + 3·(n−1) + 2·(n−1)`…
/// counted exactly in-line; asymptotically `8·n` per sweep.
pub fn bt_kernel(n: usize) -> KernelRun {
    assert!(n >= 2, "tridiagonal solve needs n ≥ 2");
    let sweeps = 16usize;
    let mut lower = vec![0.0f64; n];
    let mut diag = vec![0.0f64; n];
    let mut upper = vec![0.0f64; n];
    let mut rhs = vec![0.0f64; n];
    fill_pseudo(&mut lower, 1);
    fill_pseudo(&mut upper, 2);
    fill_pseudo(&mut rhs, 3);
    for i in 0..n {
        diag[i] = lower[i].abs() + upper[i].abs() + 1.0;
    }

    let mut flops = 0.0f64;
    let mut checksum = 0.0f64;
    let mut c = vec![0.0f64; n];
    let mut d = vec![0.0f64; n];
    for sweep in 0..sweeps {
        // Perturb the rhs each sweep so no solve can be hoisted out.
        rhs[sweep % n] += 1e-9;
        c[0] = upper[0] / diag[0];
        d[0] = rhs[0] / diag[0];
        flops += 2.0;
        for i in 1..n {
            let denom = diag[i] - lower[i] * c[i - 1];
            c[i] = upper[i] / denom;
            d[i] = (rhs[i] - lower[i] * d[i - 1]) / denom;
            flops += 7.0;
        }
        let mut x_next = d[n - 1];
        checksum += x_next;
        for i in (0..n - 1).rev() {
            x_next = d[i] - c[i] * x_next;
            checksum += x_next;
            flops += 2.0;
        }
    }
    KernelRun { kernel: BenchKernel::Bt, size: n, flops, checksum }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lu_flops_match_closed_form() {
        // Σ_{k=0}^{n-1} (n-k-1)·(1 + 2(n-k-1))
        for n in [2usize, 5, 17] {
            let expected: f64 = (0..n)
                .map(|k| {
                    let m = (n - k - 1) as f64;
                    m * (1.0 + 2.0 * m)
                })
                .sum();
            assert_eq!(lu_kernel(n).flops, expected, "n = {n}");
        }
    }

    #[test]
    fn lu_leading_term_is_two_thirds_n_cubed() {
        let n = 100;
        let ratio = lu_kernel(n).flops / (n as f64).powi(3);
        assert!((ratio - 2.0 / 3.0).abs() < 0.02, "ratio = {ratio}");
    }

    #[test]
    fn ft_flops_are_five_n_log_n() {
        for n in [2usize, 8, 64, 1024] {
            let expected = 5.0 * n as f64 * (n as f64).log2();
            assert_eq!(ft_kernel(n).flops, expected, "n = {n}");
        }
    }

    #[test]
    fn ft_matches_naive_dft_checksum() {
        // Validate the FFT against a direct DFT on the same input, by
        // recomputing both here at small n.
        let n = 16usize;
        let mut re = vec![0.0f64; n];
        let mut im = vec![0.0f64; n];
        super::fill_pseudo(&mut re, 0xD1B54A32D192ED03);
        super::fill_pseudo(&mut im, 0x2545F4914F6CDD1D);
        // Direct DFT.
        let mut dre = vec![0.0f64; n];
        let mut dim = vec![0.0f64; n];
        for k in 0..n {
            for t in 0..n {
                let ang = -2.0 * std::f64::consts::PI * (k * t) as f64 / n as f64;
                dre[k] += re[t] * ang.cos() - im[t] * ang.sin();
                dim[k] += re[t] * ang.sin() + im[t] * ang.cos();
            }
        }
        let direct_sum: f64 = dre.iter().sum::<f64>() + dim.iter().sum::<f64>();
        let fft_sum = ft_kernel(n).checksum;
        assert!((direct_sum - fft_sum).abs() < 1e-9, "direct {direct_sum} vs fft {fft_sum}");
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn ft_rejects_non_power_of_two() {
        ft_kernel(12);
    }

    #[test]
    fn bt_flops_scale_linearly() {
        let f64_run = bt_kernel(64);
        let f128_run = bt_kernel(128);
        let ratio = f128_run.flops / f64_run.flops;
        assert!((ratio - 2.0).abs() < 0.05, "ratio = {ratio}");
    }

    #[test]
    fn bt_solves_are_finite() {
        let run = bt_kernel(100);
        assert!(run.checksum.is_finite());
        assert!(run.flops > 0.0);
    }

    #[test]
    fn kernels_are_deterministic() {
        for k in BenchKernel::ALL {
            let size = if k == BenchKernel::Ft { 64 } else { 50 };
            assert_eq!(run_kernel(k, size), run_kernel(k, size));
        }
    }

    #[test]
    fn kernel_names_for_table_one() {
        assert_eq!(BenchKernel::Lu.name(), "LU");
        assert_eq!(BenchKernel::Ft.name(), "FT");
        assert_eq!(BenchKernel::Bt.name(), "BT");
    }

    #[test]
    fn checksums_differ_across_kernels() {
        let a = run_kernel(BenchKernel::Lu, 32).checksum;
        let b = run_kernel(BenchKernel::Ft, 32).checksum;
        assert_ne!(a, b);
    }
}
