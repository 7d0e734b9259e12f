"""blowlab: numerical laboratory for single-point blow-up in u_t = Δu + u^p with complex u.

The solver state is one complex array u (or w); the split into real
components u = u1 + i*u2 lives in `rhs`, where the analysis needs it.  The
package works in the similarity frame w(y, s) = (T-t)^{1/(p-1)} u,
y = x/sqrt(T-t), s = -ln(T-t), and provides:

- closed-form blow-up profiles and constants (`params`),
- Gaussian-weighted Hermite moments and the finite-difference linear
  operator (`spectral`),
- the nonlinear right-hand-side pieces of the perturbation system (`rhs`),
- semi-implicit similarity/physical integrators (`solver`),
- trajectory diagnostics: mode decomposition, trapping-set margins,
  profile-error and inner-expansion fits (`diagnostics`),
- standalone certification of every closed-form identity (`verifier`),
- a batch CLI (`cli`).
"""

__version__ = "0.1.0"

from .params import Params, make_params

__all__ = ["Params", "make_params", "__version__"]
