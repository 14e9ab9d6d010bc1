"""Numerical laboratory for higher-order Melnikov analysis of planar
piecewise-linear systems switching across y = x^n.

Three independent computation routes cross-validate each other: the
crossing-time recursion (jet arithmetic plus Chebyshev sector integrals),
first-order closed forms with their ordered-family structure, and the
Poincare return map from the closed-form flow of each affine zone.
"""

__version__ = "0.1.0"

from .basis import BasisFunction, family, family_G, family_H_pencil, family_H8, family_J0, u
from .certify import (AccuracyVerdict, ZeroRecord, ZeroReport, certify_family,
                      isolate_zeros, prop4_witness, prop5_witness, theorem3_bound,
                      wronskian, wronskian_scaled)
from .closedforms import (SpanFit, config_from_v, cov_r_of_x, fit_to_span, m1_closed,
                          q_denominator, q_values, sign_pattern_search, structural_span,
                          v_coefficients, v_zero_coefficients, vanishing_order_config)
from .combinatorics import compositions, partitions
from .config import OrderCoefficients, SystemConfig, dump_config, load_config
from .errors import (ConfigurationError, DomainError, EscapeError,
                     EventDegeneracyError, MelnlabError, NumericalError,
                     SequencingError)
from .geometry import crossing_abscissa, switching_angles, theta1_jet
from .polar import PolarField, cartesian_field
from .recursion import ZTable, melnikov, melnikov_all
from .series import Jet
from .simulate import (CycleSearch, LimitCycle, PoincareResult, center_event_times,
                       extract_melnikov, find_limit_cycles, integrate_return)

__all__ = [name for name in dir() if not name.startswith("_")]

# imported last, with the package: the console script loads it anyway, and
# so argparse and the CLI's other imports load at start-up, not inside the
# first CLI call
from . import cli  # noqa: E402
