"""High-precision q-Bessel Fourier calculus on the geometric lattice.

Core objects: QParams / QGrid / GridFunction describe samples on
{q^n : n integer}; TransformPlan applies the self-inverse q-Bessel Fourier
transform; kernel constructions (composite, Gauss) and variation-diminishing
checks build on it.  `qbft verify` (or qbft.verify.run_suite) runs the
library's verification suite.
"""

from .core import (
    QbftError, InvalidParams, NonConvergent, DomainError, WindowError,
    DivergentTail, PrecisionExhausted, Overflow, ConstancyViolation,
    IntegrabilityError, IllConditioned, DegenerateLeading, PreconditionError,
    NoWitness, UsageError,
    DECAY_RAPID, DECAY_INTEGRABLE, DECAY_BOUNDED, DECAY_UNKNOWN,
    QParams, QGrid, GridFunction, Constants, constants,
    qpochhammer_finite, qpochhammer_infinite, q_exponential,
    jackson_integral_finite, jackson_integral_infinite,
    q_derivative, lambda_shift, q_bessel_operator,
    gridfunction_to_json, gridfunction_from_json, decimal_str,
)
from .bessel import (
    BesselEval, j_nu, j_nu_lattice, j_nu_lattice_row, i_nu, k_nu, g_a,
    g_a_lattice, d_nu, bound_constant,
)
from .transform import (
    TransformPlan, build_plan, plan_window, fourier, spectrum, transform_profile,
    apply_multiplier, triple_kernel, translate, convolve, convolve_direct, norm,
)
from .kernels import (
    KernelSpec, KernelReport, E_eval, composite_kernel, gauss_kernel,
    gauss_kernel_grid, approx_identity_run, order_diagnostic,
    factorization_check, kernel_report_to_json,
)
from .variation import (
    SignPattern, VdReport, EvenSeries, EvenPolynomial, RootReport,
    sign_changes, vd_check, dq_variation_check, omega_series,
    qn_polynomial, Qn_polynomial, lq_map, real_roots_check,
)
from .corpus import (
    CorpusEntry, REFERENCE_GRID, reference_params, build_corpus, load_corpus,
)
from .verify import CriterionResult, SuiteReport, run_suite

__version__ = "0.1.0"
