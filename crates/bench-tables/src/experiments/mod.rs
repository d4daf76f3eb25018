//! One module per reproduced artifact. See the crate docs for the index.

pub mod ablate;
pub mod baselines;
pub mod compare;
pub mod decomp;
pub mod ext;
pub mod f1;
pub mod f2t5;
pub mod faults;
pub mod mega;
pub mod noise;
pub mod recover;
pub mod surface;
pub mod t1;
pub mod t2;
pub mod t3t4;
pub mod t6t7;
pub mod validate;
pub mod x2;

use hetsim_cluster::cluster::ClusterSpec;
use hetsim_cluster::sunwulf;
use kernels::recover::RecoverableKernel;
use kernels::workload::{ge_work, mm_work};

/// Which kernel a fault or recovery sweep wraps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Kernel {
    Ge,
    Mm,
}

impl Kernel {
    pub(crate) fn name(self) -> &'static str {
        match self {
            Kernel::Ge => "GE",
            Kernel::Mm => "MM",
        }
    }

    /// The kernel's scaled Sunwulf configuration at `p` ranks.
    pub(crate) fn config(self, p: usize) -> ClusterSpec {
        match self {
            Kernel::Ge => sunwulf::ge_config(p),
            Kernel::Mm => sunwulf::mm_config(p),
        }
    }

    /// The kernel's work at size `n`, in flops.
    pub(crate) fn work(self, n: usize) -> f64 {
        match self {
            Kernel::Ge => ge_work(n),
            Kernel::Mm => mm_work(n),
        }
    }

    /// The kernel's protocol in `kernels::recover`.
    pub(crate) fn recoverable(self) -> RecoverableKernel {
        match self {
            Kernel::Ge => RecoverableKernel::Ge,
            Kernel::Mm => RecoverableKernel::Mm,
        }
    }
}
