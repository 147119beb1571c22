"""Spectral-Galerkin laboratory for a 2D boundary-degenerate wave equation.

The model is phi_tt - Div(A grad phi) = f on the unit square with
A = diag(1, r^alpha), 0 < alpha < 1, homogeneous Dirichlet data.  The
package computes the weighted radial eigenbasis, evolves truncated modal
states exactly in time, certifies Hardy-Poincare constants (including the
logarithmic blow-up of the critical truncated constants), realizes the
Carleman weight identities as grid residuals, and runs boundary
observability experiments around the estimate with interior remainder.

Each public name is listed once, in its module's __all__; errors, which
imports nothing, exports exactly its exception classes.
"""

from .carleman import *
from .errors import *
from .hardy import *
from .observability import *
from .params import *
from .radial import *
from .waves import *

__version__ = "0.1.0"
