"""Small-time, fast-mean-reversion asymptotics for stochastic volatility
models: invariant measures, effective Hamiltonians, large-deviation rate
functions, asymptotic option prices and implied-volatility smiles, verified
against direct Monte Carlo simulation of the two-scale SDE system."""

from .errors import (ATMWarning, CenteringError, ConvexityError, DomainError,
                     NotApplicableError, ParseError, RangeError,
                     ResolutionError, SvasymError, StabilityError,
                     TruncationError, UnknownKeyError, ValidationError,
                     VarianceWarning)
from .model import (ModelParams, Regime, VolFnSpec, from_doc, sigma_eval,
                    to_doc, validate)
from .measures import DensityTable, GridSpec, invariant_density, sigma_bar_sq
from .poisson import Corrector, growth_bound_check, solve_corrector
from .hamiltonian import (HamiltonianCurve, LegendreCurve, build_curve,
                          hbar0_direct, hbar0_eigen, hbar0_mc, legendre)
from .rates import (RateCurve, SmileCurve, implied_vol_curve, lax_solution,
                    option_price_log_asymptote, rate_curve, rate_i2, rate_i4)
from .simulate import (McConfig, McEstimate, PathBatch, ergodic_average,
                       simulate_tilted, simulate_xy)
from .verify import LdpReport, ldp_tail, regime_compare, run_acceptance

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
